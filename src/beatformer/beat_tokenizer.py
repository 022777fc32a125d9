"""Render heartbeats as fixed-length tokens and sequences of tokens.

Each beat is cut from the RMS-fused signal around its R-peak: one third
of the preceding R-R interval before the peak, two thirds of the
following R-R interval after, anchored so the R sample always lands at
the same token index, zero-padded elsewhere. A sequence holds only its
real beats, at most 50; padding is left to the batch.
"""
from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NoBeatsError

TOKEN_LEN = 1000
MAX_POS = 50

_MAGIC = b"BFTS"
_VERSION = 2


@dataclass
class BeatSequence:
    """The real beats of one recording, in order: tokens is [n_real, d_model]
    float32 with 1 <= n_real <= MAX_POS. Batches pad; sequences do not."""
    tokens: np.ndarray

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.float32)
        if self.tokens.ndim != 2:
            raise ValueError("tokens must be [n_real, d_model]")
        if not 1 <= self.n_real <= MAX_POS:
            raise ValueError(f"a sequence holds 1..{MAX_POS} beats, got {self.n_real}")

    @property
    def n_real(self) -> int:
        return self.tokens.shape[0]

    @property
    def d_model(self) -> int:
        return self.tokens.shape[1]


def fuse_rms(rec) -> np.ndarray:
    """Collapse leads to one channel: per-sample RMS over the active leads.

    A lead is active when it is not identically zero. With no active
    leads the fused signal is all zeros.
    """
    leads = np.asarray(rec.leads, dtype=np.float64)
    active = np.any(leads, axis=1)
    if not active.any():
        return np.zeros(leads.shape[1])
    # C order either way, so the per-sample sums run in one order
    active = np.ascontiguousarray(leads if active.all() else leads[active])
    fused = np.mean(active * active, axis=0)
    return np.sqrt(fused, out=fused)


def _beat_window(peaks: np.ndarray, k: int) -> tuple:
    anchor = TOKEN_LEN // 3
    max_after = TOKEN_LEN - anchor - 1
    n = peaks.size
    if n == 1:
        return anchor, max_after
    rr_prev = peaks[k] - peaks[k - 1] if k > 0 else peaks[k + 1] - peaks[k]
    rr_next = peaks[k + 1] - peaks[k] if k + 1 < n else peaks[k] - peaks[k - 1]
    before = min(int(rr_prev) // 3, anchor)
    after = min(2 * int(rr_next) // 3, max_after)
    return before, after


def token_span_end(peaks: np.ndarray, n: int) -> int:
    """One past the last sample of an n-sample fused signal that
    build_sequence(fused, peaks) reads: the end of the last tokenized
    beat's window. Every earlier beat's window ends before the next peak."""
    k = min(peaks.size, MAX_POS) - 1
    _, after = _beat_window(peaks, k)
    return min(int(peaks[k]) + after, n - 1) + 1


def segment_beat(fused, peaks: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Cut beat k out of the fused signal: (float32 [TOKEN_LEN] values, the
    index of the R sample in them, TOKEN_LEN // 3).

    The window is floor(RR_prev/3) samples before the peak and
    floor(2*RR_next/3) after, capped so it fits the token; boundary beats
    reuse their one available R-R interval, and a single-peak recording
    falls back to the full window. Samples beyond the record stay zero.
    """
    fused = np.asarray(fused, dtype=np.float64)
    if not 0 <= k < peaks.size:
        raise ValueError(f"beat index {k} out of range for {peaks.size} peaks")
    anchor = TOKEN_LEN // 3
    before, after = _beat_window(peaks, k)
    r = int(peaks[k])
    if not 0 <= r < fused.size:
        raise ValueError(f"peak {r} lies outside the {fused.size}-sample signal")
    lo = max(r - before, 0)
    hi = min(r + after, fused.size - 1)
    values = np.zeros(TOKEN_LEN, dtype=np.float32)
    values[anchor - (r - lo) : anchor + (hi - r) + 1] = fused[lo : hi + 1]
    return values, anchor


def build_sequence(fused, peaks: np.ndarray) -> BeatSequence:
    """Tokenize the first min(peaks.size, MAX_POS) beats of the R-peak
    sample indices `peaks`."""
    if peaks.size == 0:
        raise NoBeatsError("no beats detected")
    return BeatSequence(np.stack([segment_beat(fused, peaks, k)[0]
                                  for k in range(min(peaks.size, MAX_POS))]))


def save_tokens(path: str, seq: BeatSequence):
    """Serialize: magic, then version, n_real, d_model as little-endian
    uint32, then n_real x d_model little-endian float32 values."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _VERSION, seq.n_real, seq.d_model))
        fh.write(np.ascontiguousarray(seq.tokens, dtype="<f4").tobytes())


def load_tokens(path: str) -> BeatSequence:
    """Read a save_tokens cache. The 16-byte header is checked first, and
    the file's size against it before any beat is read, so a file of the
    wrong size is refused without reading it; one that is not a regular
    file (a pipe, a device) is read to at most one byte past its payload.
    The payload is read straight into the returned array."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if head[:4] != _MAGIC:
            raise FormatError(f"{path}: not a token-cache file")
        if len(head) < 16:
            raise FormatError(f"{path}: truncated header")
        version, n_real, d_model = struct.unpack("<III", head[4:])
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported cache version {version}"
                              + ("; re-run preprocess" if version == 1 else ""))
        if not 1 <= n_real <= MAX_POS:
            raise FormatError(f"{path}: header claims {n_real} beats, not 1..{MAX_POS}")
        if d_model == 0:
            raise FormatError(f"{path}: header claims beats of width 0")
        need = 16 + n_real * d_model * 4
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size != need:
            raise FormatError(f"{path}: {st.st_size} bytes, expected {need}")
        tokens = np.empty((n_real, d_model), dtype="<f4")
        size = 16 + fh.readinto(tokens.data.cast("B"))
        if size < need:
            raise FormatError(f"{path}: {size} bytes, expected {need}")
        if fh.read(1):
            raise FormatError(f"{path}: more than {need} bytes, expected {need}")
    finite = np.isfinite(tokens).all(axis=1)
    if not finite.all():
        raise FormatError(f"{path}: beat {int(np.argmin(finite))} holds a "
                          f"non-finite value")
    return BeatSequence(tokens)
