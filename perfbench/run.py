"""Benchmark of the beatformer pipeline: ingest, train and predict.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Generates the workload's inputs from the
seed (in child processes, several times, to time set-up), then drives
``beatformer.cli.main`` in-process in a closed loop for the given number
of seconds, checks every output, and prints one JSON object as the last
line of stdout. With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced loop turns and
reports the per-layer metrics, the tracing overhead included.
``--workload all`` runs the three workloads one after another, each in
its own process, and prints every end-to-end metric by name.

Spans of traced runs go to .perfbench/traces/, output fingerprints to
.perfbench/fingerprints/; inputs live in .perfbench/work/ while a run
lasts and are removed after it.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("ingest", "train", "predict")
SETUP_REPEATS = 3
# per-workload names of the items_per_s metric, as `--workload all` prints them
THROUGHPUT_NAMES = {"ingest": "ingest_records_per_s", "train": "train_samples_per_s",
                    "predict": "predict_seqs_per_s"}


def cap_blas_threads() -> int:
    """BLAS threads = CPUs this process may run on; set before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def environment(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": threads, "blas_threads": threads,
            "numpy": np.__version__, "blas": blas, "python": sys.version.split()[0]}


def set_up(workload: str, seed: int, work: str) -> float:
    """Generate the inputs in a fresh child process; returns its set-up time."""
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "corpus.py"), "--workload", workload,
         "--seed", str(seed), "--out", work],
        capture_output=True, text=True, timeout=150)
    if res.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{res.stderr}")
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


def measure(workload, seconds: float, trace: bool, spans_path: str):
    """Closed loop for `seconds` after one warm-up turn.

    Returns (warm-up iteration, timed iterations, traced flags, tracer). The
    warm-up turn is checked like the others but not timed: the first turn in
    a process pays for growing the heap, which later turns reuse.
    """
    import tracer as tracing

    tracer = tracing.Tracer() if trace else None
    iterations, traced = [], []
    workload.start()
    try:
        warmup = workload.run("warmup")
        print(f"warm-up: {warmup.wall_s:.3f} s, {warmup.failed}/{warmup.attempted} failed",
              file=sys.stderr)
        t_end = time.perf_counter() + seconds
        turn = 0
        # at least one turn, and in a traced run one untraced and one traced
        while turn < (2 if trace else 1) or time.perf_counter() < t_end:
            on = trace and turn % 2 == 1
            if on:
                tracer.install()
            try:
                it = workload.run(turn, tracer if on else None)
            finally:
                if on:
                    tracer.uninstall()
            iterations.append(it)
            traced.append(on)
            print(f"turn {turn}{' traced' if on else ''}: {it.wall_s:.3f} s, "
                  f"{it.items} {workload.unit}, {it.failed}/{it.attempted} failed",
                  file=sys.stderr)
            turn += 1
    finally:
        workload.stop()
    if tracer is not None:
        tracer.dump(spans_path)
    return warmup, iterations, traced, tracer


def end_to_end(iterations, setup_times, attempted, failed) -> dict:
    return {
        # work completed per second over all timed turns: the host's speed
        # changes in phases of seconds, which a ratio of sums averages out
        # better than a median of a few turns
        "items_per_s": {"value": sum(it.items for it in iterations)
                        / sum(it.wall_s for it in iterations), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": max(it.peak_rss_mb for it in iterations), "unit": "MB"},
        "ok_rate": {"value": 1.0 - failed / attempted, "unit": "ratio"},
    }


def per_layer(workload, iterations, traced, tracer) -> dict:
    import tracer as tracing

    n_traced = sum(traced)
    values = tracing.layer_metrics(tracer.spans, n_traced)
    values.update(workload.layer_extras())
    on = [it.wall_s for it, t in zip(iterations, traced) if t]
    off = [it.wall_s for it, t in zip(iterations, traced) if not t]
    values["trace.overhead_ms"] = 1000 * (statistics.median(on) - statistics.median(off))
    values["trace.spans"] = len(tracer.spans) / n_traced
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# layers each workload must not reach; a traced run reports what it saw
BYPASS = {"ingest": ("autodiff.", "transformer.", "training."),
          "train": ("dsp.",),
          "predict": ("dsp.", "training.adam_step", "autodiff.backward", ".bwd")}


def bypass_report(name: str, spans) -> dict:
    found = sorted({s[0] for s in spans
                    if any(s[0].startswith(p) or s[0].endswith(p) for p in BYPASS[name])})
    return {"bypassed": list(BYPASS[name]), "spans_seen": found, "ok": not found}


def run_one(args) -> int:
    threads = cap_blas_threads()
    work = os.path.join(STATE, "work", f"{args.workload}-{os.getpid()}")
    tag = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = [set_up(args.workload, args.seed, work) for _ in range(SETUP_REPEATS)]
        sys.path.insert(0, SRC)
        import workloads

        env = environment(threads)
        print("env " + json.dumps(env), file=sys.stderr)
        workload = workloads.WORKLOADS[args.workload](work)
        warmup, iterations, traced, tracer = measure(
            workload, args.seconds, bool(args.trace),
            os.path.join(STATE, "traces", f"{tag}.ndjson"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fingerprints = [it.fingerprint for it in [warmup] + iterations if it.fingerprint]
    record = {"workload": args.workload, "seed": args.seed, "env": env,
              "first": fingerprints[0] if fingerprints else None,
              "distinct": len({json.dumps(f, sort_keys=True) for f in fingerprints})}
    os.makedirs(os.path.join(STATE, "fingerprints"), exist_ok=True)
    with open(os.path.join(STATE, "fingerprints", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    short = {k: v for k, v in (record["first"] or {}).items() if k != "files"}
    print(f"fingerprint {json.dumps(short)} (distinct across turns: {record['distinct']})")

    attempted = sum(it.attempted for it in [warmup] + iterations)
    failed = sum(it.failed for it in [warmup] + iterations)
    if args.trace:
        bypass = bypass_report(args.workload, tracer.spans)
        print("bypass " + json.dumps(bypass))
        metrics = per_layer(workload, iterations, traced, tracer)
    else:
        metrics = end_to_end(iterations, setup_times, attempted, failed)
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every end-to-end metric by name."""
    results = {}
    for name in WORKLOAD_NAMES:
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        if res.returncode != 0:
            print(res.stderr, file=sys.stderr)
            return 1
        results[name] = json.loads(res.stdout.strip().splitlines()[-1])
    combined = {}
    for name, result in results.items():
        m = result["metrics"]
        named = {THROUGHPUT_NAMES[name]: m["items_per_s"],
                 f"{name}.setup_s": m["setup_s"],
                 f"{name}.peak_rss_mb": m["peak_rss_mb"],
                 f"{name}.error_rate": {"value": result["failed"] / result["attempted"],
                                        "unit": "ratio"}}
        for key, val in named.items():
            print(f"{key:28s} {val['value']:12.4f} {val['unit']}")
        combined.update(named)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": combined}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "beatformer", "cli.py")):
        print(f"perfbench: no beatformer sources at {SRC}; run from the root of a "
              "beatformer checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
