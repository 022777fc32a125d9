"""Seeded input generator for the benchmark workloads.

    python3 perfbench/corpus.py --workload ingest --seed 7 --out DIR

writes every input one workload needs into DIR, plus ``truth.json``:
the expected outcome of each operation (ok or skip), the ground-truth R
peaks of each generated recording and the label map. The same seed gives
the same bytes. The composition of each corpus (record counts, lengths,
sampling rates, formats) is fixed; the seed varies the heart rates,
rhythm jitter, noise, wander, lead scales and labels, so every seed asks
for the same amount of work.

The last line on stdout is ``{"setup_s": <seconds>}``, the time spent
generating, measured after the interpreter and imports are up. The
program is imported from ``src/`` of the same checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from beatformer import training  # noqa: E402
from beatformer import transformer as tf  # noqa: E402
from beatformer.beat_tokenizer import build_sequence, fuse_rms, save_tokens  # noqa: E402

MITBIH_FS = 360.0
CINC_LEADS = ["I", "II", "III", "aVR", "aVL", "aVF",
              "V1", "V2", "V3", "V4", "V5", "V6"]
MITBIH_LEADS = ["MLII", "V5"]
GAIN = 1000.0  # ADC counts per mV, as in the CinC and MIT-BIH headers
SHORT_S = 10.0
TOKEN_FS = 500.0  # preprocess target rate; token caches are built at it

# 28 scored rhythm/morphology codes (SNOMED CT, CinC 2020/2021 style) and
# the three equivalences the challenge scored as one class.
SCORED = [
    "270492004", "164889003", "164890007", "426627000", "59118001",
    "713426002", "445118002", "39732003", "164909002", "251146004",
    "698252002", "10370003", "63593006", "17338001", "164947007",
    "111975006", "164917005", "47665007", "427393009", "426177001",
    "426783006", "427084000", "164934002", "59931005", "164912004",
    "195080001", "17366009", "251120003",
]
ALIASES = {"713427006": "59118001", "284470004": "63593006",
           "427172004": "17338001"}
UNSCORED = ["55930002", "164873001", "251199001", "428750005"]

# ingest corpus: (count, fs, format) of 10-s 12-lead records, then the
# minutes of each long MIT-BIH-style record. Real device sampling rates
# only: records below 100 Hz abort a whole preprocess batch today (a known
# defect of the failure contract), so they are not benchmark traffic.
INGEST_SHORT = [(4, 257.0, "csv"), (4, 257.0, "wfdb"),
                (5, 500.0, "csv"), (5, 500.0, "wfdb"),
                (3, 1000.0, "csv"), (3, 1000.0, "wfdb")]
INGEST_LONG_MIN = (10.0, 20.0)
INGEST_NO_LABEL = 2   # short records carrying only unscored codes
INGEST_FLAT = 1       # short record with disconnected (all-zero) leads

TRAIN_SEQS = 32
PREDICT_SHORT = 48   # 10-s records
PREDICT_MID = 8      # 30-s records
PREDICT_LONG = 8     # 2-min records, capped at 50 beats


# -- signals ---------------------------------------------------------------

def _beat_template(fs: float, rr_s: float):
    """P-QRS-T complex in mV, R peak at offset 0; returns (offsets, values)."""
    lo, hi = -0.25, 0.3 * np.sqrt(rr_s) + 0.15
    offs = np.arange(int(np.floor(lo * fs)), int(np.ceil(hi * fs)) + 1)
    t = offs / fs

    def g(center, sigma, amp):
        return amp * np.exp(-0.5 * ((t - center) / sigma) ** 2)

    t_center = 0.3 * np.sqrt(rr_s)
    vals = (g(-0.16, 0.025, 0.15)            # P
            + g(-0.028, 0.008, -0.12)        # Q
            + g(0.0, 0.010, 1.0)             # R
            + g(0.030, 0.009, -0.25)         # S
            + g(t_center, 0.045, 0.30))      # T
    return offs, vals


def rhythm(rng, fs: float, duration_s: float, bpm: float) -> np.ndarray:
    """R-peak sample indices: jittered RR around 60/bpm, 0.4 s clear of both ends."""
    base = 60.0 / bpm
    n_max = int(duration_s / base) + 2
    rr = base * np.clip(1.0 + 0.03 * rng.standard_normal(n_max), 0.9, 1.1)
    times = 0.4 + rng.uniform(0.0, 0.5 * base) + np.concatenate(([0.0], np.cumsum(rr)))
    times = times[times <= duration_s - 0.4]
    return np.round(times * fs).astype(np.int64)


def ecg_leads(rng, fs: float, duration_s: float, bpm: float, n_leads: int):
    """Multi-lead recording in mV plus its ground-truth R peaks."""
    n = int(round(duration_s * fs))
    peaks = rhythm(rng, fs, duration_s, bpm)
    offs, vals = _beat_template(fs, 60.0 / bpm)
    clean = np.zeros(n)
    idx = peaks[:, None] + offs[None, :]
    keep = (idx >= 0) & (idx < n)
    np.add.at(clean, idx[keep], np.broadcast_to(vals, idx.shape)[keep])

    # first lead is always upright so the detection lead sees a clear R
    scales = rng.uniform(0.4, 1.5, n_leads) * np.where(rng.random(n_leads) < 0.25, -1.0, 1.0)
    scales[0] = abs(scales[0]) + 0.3
    t = np.arange(n) / fs
    leads = scales[:, None] * clean[None, :]
    wander_hz = rng.uniform(0.15, 0.4, n_leads)
    wander_amp = rng.uniform(0.05, 0.3, n_leads)
    phase = rng.uniform(0, 2 * np.pi, n_leads)
    leads += wander_amp[:, None] * np.sin(2 * np.pi * wander_hz[:, None] * t + phase[:, None])
    leads += 0.02 * np.sin(2 * np.pi * 50.0 * t)[None, :]
    leads += rng.normal(0.0, 0.02, leads.shape)  # about 30 dB below the R wave
    return leads, peaks


def _counts(leads: np.ndarray) -> np.ndarray:
    return np.clip(np.round(leads * GAIN), -32768, 32767).astype(np.int16)


def write_csv(path: str, leads, fs: float, names, labels):
    counts = _counts(leads)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#fs={fs:g}\n#gain={GAIN:g}\n")
        if labels:
            fh.write(f"#labels={';'.join(labels)}\n")
        fh.write(",".join(names) + "\n")
        np.savetxt(fh, counts.T, fmt="%d", delimiter=",")


def write_wfdb(path_stem: str, leads, fs: float, names, labels):
    """Format-16 header plus interleaved little-endian int16 samples."""
    name = os.path.basename(path_stem)
    counts = _counts(leads)
    counts.T.astype("<i2").tofile(path_stem + ".dat")
    lines = [f"{name} {len(names)} {fs:g} {counts.shape[1]}"]
    for i, lead in enumerate(names):
        lines.append(f"{name}.dat 16 {GAIN:g}(0)/mV 16 0 {int(counts[i, 0])} 0 0 {lead}")
    if labels:
        lines.append(f"#Dx: {','.join(labels)}")
    with open(path_stem + ".hea", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_label_map(path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{code},{i}\n" for i, code in enumerate(SCORED))
        fh.writelines(f"{alias}=>{canon}\n" for alias, canon in ALIASES.items())


def _labels(rng):
    """One or two scored codes (sometimes spelled as an alias) and their classes."""
    picks = rng.choice(len(SCORED), size=int(rng.integers(1, 3)), replace=False)
    codes = []
    for i in sorted(int(p) for p in picks):
        alias = [a for a, c in ALIASES.items() if c == SCORED[i]]
        codes.append(alias[0] if alias and rng.random() < 0.5 else SCORED[i])
    if rng.random() < 0.3:
        codes.append(str(rng.choice(UNSCORED)))
    return codes, sorted(int(p) for p in picks)


def _bpms(rng, count: int) -> np.ndarray:
    """Heart rates stratified over 40-180 bpm, shuffled, so every seed spans the range."""
    edges = np.linspace(40.0, 180.0, count + 1)
    return rng.permutation(rng.uniform(edges[:-1], edges[1:]))


# -- workloads -------------------------------------------------------------

def make_ingest(rng, out: str) -> dict:
    rec_dir = os.path.join(out, "records")
    os.makedirs(rec_dir, exist_ok=True)
    specs = [(fs, fmt, SHORT_S, 12) for count, fs, fmt in INGEST_SHORT for _ in range(count)]
    specs += [(MITBIH_FS, "wfdb", minutes * 60.0, 2) for minutes in INGEST_LONG_MIN]
    n_short = len(specs) - len(INGEST_LONG_MIN)
    bpms = np.concatenate((_bpms(rng, n_short), _bpms(rng, len(INGEST_LONG_MIN))))
    special = rng.permutation(n_short)[: INGEST_NO_LABEL + INGEST_FLAT]
    records = []
    for i, ((fs, fmt, dur, n_leads), bpm) in enumerate(zip(specs, bpms)):
        name = f"r{i:03d}"
        leads, peaks = ecg_leads(rng, fs, dur, float(bpm), n_leads)
        codes, classes = _labels(rng)
        expect, reason = "ok", ""
        if i in special[:INGEST_NO_LABEL]:
            codes, classes = [str(c) for c in rng.choice(UNSCORED, 2, replace=False)], []
            expect, reason = "skip", "no scored labels"
        elif i in special[INGEST_NO_LABEL:]:
            leads = np.zeros_like(leads)
            peaks = peaks[:0]
            expect, reason = "skip", "no beats detected"
        names = CINC_LEADS if n_leads == 12 else MITBIH_LEADS
        stem = os.path.join(rec_dir, name)
        if fmt == "csv":
            write_csv(stem + ".csv", leads, fs, names, codes)
            path = stem + ".csv"
        else:
            write_wfdb(stem, leads, fs, names, codes)
            path = stem + ".hea"
        records.append({"name": name, "path": os.path.relpath(path, out), "fs": fs,
                        "format": fmt, "seconds": dur, "bpm": round(float(bpm), 3),
                        "expect": expect, "reason": reason, "classes": classes,
                        "peaks": peaks.tolist()})
    write_label_map(os.path.join(out, "labels.csv"))
    return {"records": records}


def _token_cache(rng, path: str, duration_s: float, bpm: float):
    """A beat-token cache from a generated 12-lead signal at the token rate.

    Calls the tokenizer directly with the known R peaks, so no filtering or
    detection work is involved.
    """
    leads, peaks = ecg_leads(rng, TOKEN_FS, duration_s, bpm, 12)
    seq = build_sequence(fuse_rms(SimpleNamespace(leads=leads)), peaks)
    save_tokens(path, seq)
    return seq.n_real


def _token_set(rng, out: str, durations, labeled: bool) -> list:
    os.makedirs(os.path.join(out, "tokens"), exist_ok=True)
    bpms = _bpms(rng, len(durations))
    entries = []
    for i, (dur, bpm) in enumerate(zip(durations, bpms)):
        name = f"s{i:03d}.tokens"
        n_real = _token_cache(rng, os.path.join(out, "tokens", name), dur, float(bpm))
        classes = _labels(rng)[1] if labeled else []
        entries.append({"cache": name, "n_real": n_real, "classes": classes})
    with open(os.path.join(out, "tokens", "manifest.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{e['cache']}\t{','.join(map(str, e['classes']))}\n"
                      for e in entries)
    return entries


TRAIN_CONFIG = "optim.batch_size=8\noptim.epochs=1\n"


def make_train(rng, out: str) -> dict:
    entries = _token_set(rng, out, [SHORT_S] * TRAIN_SEQS, labeled=True)
    write_label_map(os.path.join(out, "labels.csv"))
    with open(os.path.join(out, "bench.cfg"), "w", encoding="utf-8") as fh:
        fh.write(TRAIN_CONFIG)
    return {"sequences": entries}


def make_predict(rng, out: str, seed: int) -> dict:
    durations = [SHORT_S] * PREDICT_SHORT + [30.0] * PREDICT_MID + [120.0] * PREDICT_LONG
    entries = _token_set(rng, out, list(rng.permutation(durations)), labeled=False)
    write_label_map(os.path.join(out, "labels.csv"))

    # a classifier checkpoint in the training format, Adam moments included,
    # as `train` would leave it
    mcfg = tf.ModelConfig(head=tf.CLASSIFIER)
    params = tf.init_params(mcfg, seed)
    training.save_training_checkpoint(
        os.path.join(out, "model.ckpt"), params, training.AdamState.for_params(params),
        mcfg, training.OptimizerConfig(), epoch=1)
    return {"sequences": entries}


def generate(workload: str, seed: int, out: str) -> dict:
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBEA7]))
    if workload == "ingest":
        truth = make_ingest(rng, out)
    elif workload == "train":
        truth = make_train(rng, out)
    elif workload == "predict":
        truth = make_predict(rng, out, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    truth.update(workload=workload, seed=seed, label_map=SCORED)
    with open(os.path.join(out, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh)
    return truth


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("ingest", "train", "predict"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    generate(args.workload, args.seed, args.out)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
