"""Synthetic signal and dataset generators shared by the tests.

The ECG stand-in is a train of Gaussian-modulated cosine wavelets: the
envelope peaks exactly at each wavelet center, so the center sample is
the ground-truth R location by construction.
"""
import struct

import numpy as np

from beatformer import autodiff as ad
from beatformer.beat_tokenizer import MAX_POS, BeatSequence

CARRIER_HZ = 15.0
SIGMA_S = 0.030


def wavelet_train(fs, duration_s, bpm, snr_db=None, seed=0, amp=1.0):
    """Signal plus ground-truth peak indices for a steady rhythm."""
    n = int(duration_s * fs)
    t = np.arange(n) / fs
    period = 60.0 / bpm
    centers = np.arange(period / 2, duration_s - period / 4, period)
    x = np.zeros(n)
    for c in centers:
        x += amp * np.exp(-0.5 * ((t - c) / SIGMA_S) ** 2) \
             * np.cos(2 * np.pi * CARRIER_HZ * (t - c))
    peaks = np.round(centers * fs).astype(np.int64)
    if snr_db is not None:
        rms = np.sqrt(np.mean(x * x))
        noise = ad.seeded_rng(seed).normal(0.0, rms / 10 ** (snr_db / 20.0), n)
        x = x + noise
    return x, peaks


def match_peaks(detected, truth, fs, window_s=0.05):
    """Greedy matching within a tolerance window; returns (tp, fp, fn)."""
    window = window_s * fs
    used = np.zeros(len(truth), dtype=bool)
    tp = 0
    for d in detected:
        hits = np.flatnonzero(~used & (np.abs(truth - d) <= window))
        if hits.size:
            used[hits[0]] = True
            tp += 1
    return tp, len(detected) - tp, len(truth) - tp


def wavelet_csv(path, fs=500.0, duration_s=12.0, bpm=72, labels=None,
                gain=1000.0, lead_scales=(1.0, 0.8), wander=True):
    """Write a two-lead CSV recording built from a wavelet train."""
    x, peaks = wavelet_train(fs, duration_s, bpm)
    if wander:
        t = np.arange(x.size) / fs
        x = x + 0.1 * np.sin(2 * np.pi * 0.3 * t)
    raws = [np.round(s * x * gain).astype(int) for s in lead_scales]
    names = ["I", "II", "V1"][: len(lead_scales)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#fs={fs:g}\n#gain={','.join(f'{gain:g}' for _ in raws)}\n")
        if labels:
            fh.write(f"#labels={labels}\n")
        fh.write(",".join(names) + "\n")
        for row in zip(*raws):
            fh.write(",".join(str(v) for v in row) + "\n")
    return peaks


def write_wfdb(dirpath, name, counts, fs, names=None, labels=None, gains=None,
               fmt=None, mat=False, truncate=0):
    """A WFDB record of int16 counts [num_leads, n]: a .hea header plus a
    format-16 .dat file or, with mat=True, the challenge's own layout: a
    MATLAB v4 .mat file holding the counts as one int16 matrix `val`, whose
    24-byte prefix the header skips as format 16+24. Leads default to names
    L0, L1, ... and gain 1000; fmt overrides the header's format field, and
    truncate drops that many bytes from the end of the sample file. Returns
    the .hea path."""
    counts = np.asarray(counts, dtype="<i2")
    num_leads, n = counts.shape
    names = names or [f"L{i}" for i in range(num_leads)]
    gains = [1000.0] * num_leads if gains is None else gains
    sample_file = f"{name}.mat" if mat else f"{name}.dat"
    fmt = fmt or ("16+24" if mat else "16")
    lines = [f"{name} {num_leads} {fs:g} {n}"]
    lines += [f"{sample_file} {fmt} {gain:g}(0)/mV 16 0 0 0 0 {lead}"
              for gain, lead in zip(gains, names)]
    if labels:
        lines.append(f"#Dx: {','.join(labels)}")
    (dirpath / f"{name}.hea").write_text("\n".join(lines) + "\n")
    # type 30 (little-endian int16, full), rows, columns, no imaginary part,
    # name length; a matrix is stored column by column, so the samples
    # interleave by lead exactly as in a .dat
    prefix = struct.pack("<5i", 30, num_leads, n, 0, 4) + b"val\0" if mat else b""
    data = prefix + counts.T.tobytes()
    (dirpath / sample_file).write_bytes(data[:len(data) - truncate])
    return str(dirpath / f"{name}.hea")


def random_sequence(rng, max_pos, d_model, n_real=None):
    """n_real (default: drawn from 3..max_pos) random real beats."""
    if n_real is None:
        n_real = int(rng.integers(3, max_pos + 1))
    return BeatSequence(rng.normal(size=(n_real, d_model)).astype(np.float32))


def v1_cache(seq):
    """The bytes of a version-1 token cache: 50 zero-padded rows, 50 mask bytes."""
    tokens = np.zeros((MAX_POS, seq.d_model), dtype="<f4")
    tokens[: seq.n_real] = seq.tokens
    mask = (np.arange(MAX_POS) < seq.n_real).astype(np.uint8)
    return (b"BFTS" + struct.pack("<III", 1, seq.n_real, seq.d_model)
            + tokens.tobytes() + mask.tobytes())


def labeled_dataset(seed, n_samples, max_pos, d_model, d_class):
    """Random sequences with random (but nonempty per set) multi-hot labels."""
    rng = ad.seeded_rng(seed)
    out = []
    for i in range(n_samples):
        seq = random_sequence(rng, max_pos, d_model)
        y = np.zeros(d_class, dtype=np.int8)
        y[int(rng.integers(0, d_class))] = 1
        if rng.random() < 0.5:
            y[int(rng.integers(0, d_class))] = 1
        out.append((seq, y))
    return out


def constant_beat_dataset(seed, n_samples, max_pos, d_model):
    """Every real token is the same vector; the next beat is always known."""
    rng = ad.seeded_rng(seed)
    beat = (rng.normal(size=d_model) * 0.5).astype(np.float32)
    out = []
    for i in range(n_samples):
        n_real = int(rng.integers(max(2, max_pos - 3), max_pos + 1))
        out.append((BeatSequence(np.tile(beat, (n_real, 1))), None))
    return out
