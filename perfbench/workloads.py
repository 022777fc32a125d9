"""The benchmark's three workloads and the checks on their outputs.

Each workload drives the real entry point, ``beatformer.cli.main(argv)``,
in-process, one invocation after another (a closed loop with one
client). One loop turn is an ``Iteration``: its invocations' wall time,
the items it processed, the operations it attempted and how many of them
failed the output check.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from beatformer import beat_tokenizer, cli, dsp
from beatformer import transformer as tf
from tracer import Patches

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_STEPS = 2        # optimizer steps per train invocation
PEAK_WINDOW_S = 0.05  # detected peak matches a true one within 50 ms
MIN_RECALL = MIN_PRECISION = 0.95


@dataclass
class Iteration:
    wall_s: float          # summed wall time of the turn's invocations
    items: int             # records, trained sequences or predicted sequences
    attempted: int
    failed: int
    peak_rss_mb: float     # process high-water mark when the invocations end
    fingerprint: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def invoke(argv: list, tracer=None, rid=None):
    """Run cli.main(argv) in-process; returns (exit code or None, wall s, stdout)."""
    buf = io.StringIO()
    idx = None
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                idx = tracer.open("cli.main", rid=rid)
            rc = cli.main(argv)
        except Exception:  # a traceback is a failed operation, not a crash of the benchmark
            traceback.print_exc(file=sys.stderr)
            rc = None
        finally:
            if idx is not None:
                tracer.close(idx)
        wall = time.perf_counter() - t0
    return rc, wall, buf.getvalue()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def match_peaks(detected, truth, fs: float):
    """Greedy one-to-one matching within PEAK_WINDOW_S; returns (tp, fp, fn)."""
    window = PEAK_WINDOW_S * fs
    truth = np.asarray(truth, dtype=np.int64)
    used = np.zeros(truth.size, dtype=bool)
    tp = 0
    for d in detected:
        hits = np.flatnonzero(~used & (np.abs(truth - d) <= window))
        if hits.size:
            used[hits[0]] = True
            tp += 1
    return tp, len(detected) - tp, truth.size - tp


class PeakCapture:
    """Keeps each record's detector output for the ingest output check.

    Two pass-through hooks, on in traced and untraced runs alike: one on
    cli._preprocess_one to learn the record, one on each DETECTORS entry to
    keep its PeakList. They take no timestamps.
    """

    def __init__(self):
        self.current = None
        self.peaks = {}
        self.patches = Patches()

    def install(self):
        def preprocess_one(path, *args, **kwargs):
            self.current = os.path.basename(path)
            return orig_one(path, *args, **kwargs)

        orig_one = self.patches.swap(cli, "_preprocess_one", preprocess_one)
        for key, fn in list(dsp.DETECTORS.items()):
            def detect(*args, _fn=fn, **kwargs):
                out = _fn(*args, **kwargs)
                self.peaks[self.current] = out.indices
                return out

            self.patches.swap(dsp.DETECTORS, key, detect)

    def uninstall(self):
        self.patches.restore()


class Workload:
    name = unit = ""

    def start(self):
        """Called before the first turn."""

    def stop(self):
        """Called after the last turn."""

    def layer_extras(self) -> dict:
        """Per-layer metrics only the workload can compute."""
        return {}


class Ingest(Workload):
    """`beatformer preprocess` over a mixed CinC / MIT-BIH corpus."""
    name = "ingest"
    unit = "records"

    def __init__(self, work: str):
        with open(os.path.join(work, "truth.json"), encoding="utf-8") as fh:
            self.truth = json.load(fh)
        self.out = os.path.join(work, "out")
        self.argv = ["preprocess", os.path.join(work, "records"), "--out", self.out,
                     "--label-map", os.path.join(work, "labels.csv")]
        self.capture = PeakCapture()
        self.tp = self.fp = self.fn = 0

    def start(self):
        self.capture.install()

    def stop(self):
        self.capture.uninstall()

    def run(self, turn, tracer=None) -> Iteration:
        self.capture.peaks.clear()
        rc, wall, _ = invoke(self.argv, tracer, f"inv{turn}")
        rss = peak_rss_mb()
        records = self.truth["records"]
        failed = len(records) if rc != 0 else self._check()
        return Iteration(wall, len(records), len(records), failed, rss,
                         self._fingerprint() if rc == 0 else {})

    def _check(self) -> int:
        """Records whose outcome, labels, detected peaks or cache are wrong."""
        manifest = {}
        with open(os.path.join(self.out, "manifest.tsv"), encoding="utf-8") as fh:
            for line in fh:
                cache, _, classes = line.rstrip("\n").partition("\t")
                manifest[cache] = sorted(int(c) for c in classes.split(",") if c)
        skips = {}
        with open(os.path.join(self.out, "skip_report.txt"), encoding="utf-8") as fh:
            for line in fh:
                path, _, reason = line.rstrip("\n").partition("\t")
                skips[os.path.basename(path)] = reason
        failed = 0
        for rec in self.truth["records"]:
            base = os.path.basename(rec["path"])
            cache = f"{rec['name']}.tokens"
            if rec["expect"] == "skip":
                failed += not (skips.get(base) == rec["reason"] and cache not in manifest)
                continue
            if manifest.get(cache) != rec["classes"] or base in skips:
                failed += 1
                continue
            detected = self.capture.peaks.get(base)
            if detected is None:
                failed += 1
                continue
            tp, fp, fn = match_peaks(detected, rec["peaks"], rec["fs"])
            self.tp, self.fp, self.fn = self.tp + tp, self.fp + fp, self.fn + fn
            seq = beat_tokenizer.load_tokens(os.path.join(self.out, cache))
            ok = (tp >= MIN_RECALL * (tp + fn) and tp >= MIN_PRECISION * (tp + fp)
                  and seq.n_real == min(len(detected), beat_tokenizer.MAX_POS))
            failed += not ok
        return failed

    def _fingerprint(self) -> dict:
        names = ["manifest.tsv"] + sorted(f for f in os.listdir(self.out)
                                          if f.endswith(".tokens"))
        files = {f: sha256_file(os.path.join(self.out, f)) for f in names}
        digest = hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()
        return {"outputs_sha256": digest, "files": files}

    def layer_extras(self) -> dict:
        return {
            "dsp.detect.recall": self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0,
            "dsp.detect.precision": self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0,
        }


class Train(Workload):
    """`beatformer pretrain`, then `beatformer train --init-checkpoint`."""
    name = "train"
    unit = "sequences trained"

    def __init__(self, work: str):
        common = ["--manifest", os.path.join(work, "tokens", "manifest.tsv"),
                  "--config", os.path.join(work, "bench.cfg"),
                  "--max-steps", str(MAX_STEPS), "--seed", "0"]
        self.pre_dir = os.path.join(work, "pre")
        self.clf_dir = os.path.join(work, "clf")
        self.argvs = [
            ["pretrain", "--out", self.pre_dir] + common,
            ["train", "--out", self.clf_dir,
             "--init-checkpoint", os.path.join(self.pre_dir, "model.ckpt"),
             "--label-map", os.path.join(work, "labels.csv")] + common,
        ]
        cfg = cli.build_config(cli.read_config_file(os.path.join(work, "bench.cfg")))
        self.batch = cfg.optim.batch_size
        self.expected_params = [tf.count_parameters(cfg.model.with_head(tf.GENERATIVE)),
                                tf.count_parameters(cfg.model.with_head(tf.CLASSIFIER))]

    def run(self, turn, tracer=None) -> Iteration:
        wall = 0.0
        outcomes = []
        for argv in self.argvs:
            rc, dt, out = invoke(argv, tracer, f"inv{turn}.{argv[0]}")
            wall += dt
            outcomes.append((rc, out))
        rss = peak_rss_mb()
        failed, losses = self._check(outcomes)
        items = self.batch * MAX_STEPS * (len(self.argvs) - failed)
        return Iteration(wall, items, len(self.argvs), failed, rss,
                         {"losses": losses})

    def _check(self, outcomes):
        """Invocations that failed: exit code, step count, finite losses, reload."""
        ok = []
        losses = {}
        for (rc, out), out_dir, argv in zip(outcomes, (self.pre_dir, self.clf_dir),
                                            self.argvs):
            good = rc == 0
            if good:
                summary = json.loads(out.strip().splitlines()[-1])
                with open(os.path.join(out_dir, "train_log.ndjson"), encoding="utf-8") as fh:
                    log = [json.loads(line) for line in fh if line.strip()]
                losses[argv[0]] = [{k: v for k, v in row.items() if k != "wall_ms"}
                                   for row in log]
                good = (summary["steps"] == MAX_STEPS and len(log) == MAX_STEPS
                        and all(math.isfinite(row["loss"]) for row in log))
            ok.append(good)
        # reloading a checkpoint costs as much memory as the checkpoint, so it
        # runs in a child process to keep this process's peak RSS the program's
        cmd = [sys.executable, os.path.join(HERE, "checks.py")]
        for out_dir, count in zip((self.pre_dir, self.clf_dir), self.expected_params):
            cmd += [os.path.join(out_dir, "model.ckpt"), str(count)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        reloaded = json.loads(res.stdout.strip().splitlines()[-1]) if res.returncode == 0 \
            else [False] * len(ok)
        return sum(not (a and b) for a, b in zip(ok, reloaded)), losses


class Predict(Workload):
    """`beatformer predict` over mixed-length records with a classifier checkpoint."""
    name = "predict"
    unit = "sequences predicted"

    def __init__(self, work: str):
        with open(os.path.join(work, "truth.json"), encoding="utf-8") as fh:
            truth = json.load(fh)
        self.caches = [e["cache"] for e in truth["sequences"]]
        self.codes = set(truth["label_map"])
        self.argv = ["predict", "--manifest", os.path.join(work, "tokens", "manifest.tsv"),
                     "--checkpoint", os.path.join(work, "model.ckpt"),
                     "--label-map", os.path.join(work, "labels.csv")]

    def run(self, turn, tracer=None) -> Iteration:
        rc, wall, out = invoke(self.argv, tracer, f"inv{turn}")
        rss = peak_rss_mb()
        n = len(self.caches)
        if rc != 0:
            return Iteration(wall, 0, n, n, rss)
        lines = out.rstrip("\n").split("\n")
        failed = abs(len(lines) - n)
        for cache, line in zip(self.caches, lines):
            name, _, codes = line.partition("\t")
            failed += not (name == cache and
                           all(c in self.codes for c in codes.split(",") if c))
        failed = min(failed, n)
        return Iteration(wall, n - failed, n, failed, rss,
                         {"predictions_sha256": hashlib.sha256(out.encode()).hexdigest()})


WORKLOADS = {cls.name: cls for cls in (Ingest, Train, Predict)}

