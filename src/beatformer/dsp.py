"""IIR filtering and single-lead R-peak detection.

Second-order Butterworth designs (bilinear transform with frequency
prewarping), causal application as a blocked linear-recurrence scan along
the last axis (the direct-form-II-transposed result), and two QRS
detectors: a two-moving-average method and a Pan-Tompkins variant
without the search-back pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FilterDesignError, InvalidMetadataError

REFRACTORY_S = 0.200         # minimum spacing of two R-peaks

# two-moving-average detector
TA_BAND = (8.0, 20.0)        # band-pass, Hz
QRS_WINDOW_S = 0.120         # short moving-average window
BEAT_WINDOW_S = 0.600        # long moving-average window
OFFSET_FRAC = 0.08           # threshold offset, fraction of the mean squared signal

# Pan-Tompkins detector
PT_BAND = (5.0, 15.0)        # band-pass, Hz
INTEGRATION_S = 0.150        # moving-window integration
LEARNING_S = 2.0             # threshold initialization span
THRESHOLD_BLEND = 0.25       # signal/noise mix of the threshold


@dataclass
class IirFilter:
    """Normalized biquad: b feed-forward, a feedback with a[0] = 1."""
    b: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        if self.b.shape != (3,) or self.a.shape != (3,):
            raise ValueError("biquad needs exactly 3 b and 3 a coefficients")
        if self.a[0] != 1.0:
            if self.a[0] == 0.0:
                raise ValueError("a[0] must be nonzero")
            self.b = self.b / self.a[0]
            self.a = self.a / self.a[0]


def _prewarped(cutoff: float, fs: float) -> float:
    if not 0.0 < cutoff < fs / 2.0:
        raise FilterDesignError(
            f"cutoff {cutoff} Hz must lie strictly between 0 and fs/2 = {fs / 2.0} Hz")
    return float(np.tan(np.pi * cutoff / fs))


def _check_stable(a: np.ndarray):
    poles = np.roots(a)
    if np.any(np.abs(poles) >= 1.0):
        raise FilterDesignError("designed filter has poles on or outside the unit circle")


def design_highpass(cutoff: float, fs: float) -> IirFilter:
    """Second-order Butterworth high-pass."""
    k = _prewarped(cutoff, fs)
    norm = 1.0 + np.sqrt(2.0) * k + k * k
    b = np.array([1.0, -2.0, 1.0]) / norm
    a = np.array([1.0, 2.0 * (k * k - 1.0) / norm,
                  (1.0 - np.sqrt(2.0) * k + k * k) / norm])
    _check_stable(a)
    return IirFilter(b, a)


def design_lowpass(cutoff: float, fs: float) -> IirFilter:
    """Second-order Butterworth low-pass."""
    k = _prewarped(cutoff, fs)
    norm = 1.0 + np.sqrt(2.0) * k + k * k
    kk = k * k
    b = np.array([kk, 2.0 * kk, kk]) / norm
    a = np.array([1.0, 2.0 * (kk - 1.0) / norm,
                  (1.0 - np.sqrt(2.0) * k + kk) / norm])
    _check_stable(a)
    return IirFilter(b, a)


BLOCK = 128         # samples per scan block
CHUNK = 1 << 15     # samples per row filtered at a time; a multiple of BLOCK


def _matrix_powers(m: np.ndarray, n: int) -> np.ndarray:
    """m^0 .. m^(n-1) as an [n, 2, 2] array, by repeated doubling."""
    powers = np.eye(2)[None]
    step = m
    while powers.shape[0] < n:
        powers = np.concatenate([powers, powers @ step])
        step = step @ step
    return powers[:n]


@lru_cache(maxsize=64)
def _block_operators(b: tuple, a: tuple):
    """Matrices of the blocked scan for one biquad (read-only, cached).

    The biquad runs as a state-space system s' = A s + B x, y = C s + D x.
    Over a block of BLOCK samples entering with state s, the outputs are
    x @ toeplitz.T + s @ phi.T and the leaving state is s @ carry.T +
    x @ gain; `doubling` holds carry^(2^k), enough to scan the carry
    across the blocks of one chunk.

    The realization is not the direct form's companion matrix: a low
    cutoff puts the poles close together near z = 1, where the companion
    matrix's powers grow a hundredfold before they decay and repeated
    squaring loses about nine digits. Here A = [[sigma, w], [-disc/w,
    sigma]] has the same characteristic polynomial and is a scaled
    rotation (or, for real poles, symmetric), so its powers stay accurate;
    B and C are chosen to match the direct form's first two Markov
    parameters, which fixes the whole impulse response.
    """
    b0, b1, b2 = b
    _, a1, a2 = a
    sigma = -0.5 * a1
    disc = a2 - sigma * sigma
    w = np.sqrt(abs(disc)) or 1.0
    A = np.array([[sigma, w], [-disc / w, sigma]])
    B = np.array([0.0, 1.0])
    h1 = b1 - a1 * b0                     # impulse response at lags 1, 2
    h2 = b2 - a2 * b0 - a1 * h1
    C = np.array([(h2 - sigma * h1) / w, h1])
    powers = _matrix_powers(A, BLOCK + 1)
    phi = C @ powers[:BLOCK]                             # C A^j
    impulse = np.concatenate([[b0], phi[:-1] @ B])       # D, C A^(j-1) B
    lag = np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK))
    toeplitz = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
    gain = (powers[:BLOCK] @ B)[::-1]                    # A^(BLOCK-1-k) B
    doubling = [powers[BLOCK]]
    while len(doubling) < (CHUNK // BLOCK).bit_length():
        doubling.append(doubling[-1] @ doubling[-1])
    ops = (np.ascontiguousarray(toeplitz.T), np.ascontiguousarray(phi.T),
           np.ascontiguousarray(gain), np.stack(doubling))
    for arr in ops:
        arr.flags.writeable = False
    return ops


def _scan_states(first: np.ndarray, inputs: np.ndarray, doubling) -> np.ndarray:
    """States entering each block: s[0] = first, s[m+1] = carry s[m] + inputs[m].

    first: [rows, 2]; inputs: [rows, blocks, 2]. A log-depth inclusive
    scan (Hillis-Steele doubling) of the affine carry maps.
    """
    s = np.concatenate([first[:, None, :], inputs], axis=1)
    for k, carry in enumerate(doubling):
        d = 1 << k
        if d >= s.shape[1]:
            break
        s[:, d:] = s[:, d:] + s[:, :-d] @ carry.T
    return s


def apply_filter(f: IirFilter, x) -> np.ndarray:
    """Causal direct-form-II-transposed pass along the last axis.

    Accepts one lead [n] or several [leads, n]; each row is filtered on
    its own. The recurrence runs as a blocked linear-recurrence scan
    (BLOCK-sample blocks, CHUNK samples per row at a time), so memory
    beyond the output stays bounded. Each call's delay registers start at
    the steady state for a constant input equal to the row's first
    sample, so a DC offset causes no onset transient and repeated calls
    never leak state: the row minus its first sample is filtered from
    rest and the DC response to the first sample added.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        raise ValueError("apply_filter expects samples along the last axis")
    n = x.shape[-1]
    if n == 0:
        return x.copy()
    rows = x.reshape(-1, n)
    y = np.empty(rows.shape)
    toeplitz_t, phi_t, gain, doubling = _block_operators(tuple(f.b), tuple(f.a))
    x0 = rows[:, :1]
    state = np.zeros((rows.shape[0], 2))
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        blocks = -(-(stop - start) // BLOCK)
        buf = np.zeros((rows.shape[0], blocks * BLOCK))
        np.subtract(rows[:, start:stop], x0, out=buf[:, : stop - start])
        buf = buf.reshape(rows.shape[0], blocks, BLOCK)
        states = _scan_states(state, buf @ gain, doubling)
        out = buf @ toeplitz_t + states[:, :-1] @ phi_t
        y[:, start:stop] = out.reshape(rows.shape[0], -1)[:, : stop - start]
        state = states[:, -1]
    b0, b1, b2 = f.b
    _, a1, a2 = f.a
    y += (b0 + b1 + b2) / (1.0 + a1 + a2) * x0
    return y.reshape(x.shape)


def bandpass(x, fs: float, low: float, high: float) -> np.ndarray:
    """High-pass at `low` cascaded with low-pass at `high`."""
    y = apply_filter(design_highpass(low, fs), x)
    return apply_filter(design_lowpass(high, fs), y)


@dataclass
class PeakList:
    """Strictly increasing R-peak sample indices with a refractory guarantee."""
    indices: np.ndarray
    fs: float

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if np.any(np.diff(self.indices) <= 0):
            raise ValueError("peak indices must be strictly increasing")

    def __len__(self):
        return int(self.indices.size)

    def __iter__(self):
        return iter(self.indices)


def _moving_average_centered(x: np.ndarray, width: int) -> np.ndarray:
    """The window of np.convolve(x, ones(width) / width, "same") in O(n).

    Point i averages x[i - (width - 1 - h) .. i + h] with h = (width - 1) // 2,
    the signal counting as zeros beyond its ends. p is a running sum padded
    so that each window sum is p[i + width] - p[i]: width - h zeros before
    the cumsum and its total repeated h times after it. Unlike the
    convolution, a NaN or inf sample spoils every later window, so the
    loaders refuse non-finite samples and gains.
    """
    n = x.size
    h = (width - 1) // 2
    p = np.empty(n + width)
    p[: width - h] = 0.0
    np.cumsum(x, out=p[width - h : width - h + n])
    p[width - h + n :] = p[width - h + n - 1]
    out = p[width:] - p[:-width]
    out /= width
    return out


def _enforce_refractory(cands: list, refractory: int) -> list:
    kept = []
    for idx in cands:
        if not kept or idx - kept[-1] >= refractory:
            kept.append(idx)
    return kept


def detect_two_average(x, fs: float) -> PeakList:
    """Two-moving-average QRS detector.

    Band-pass, square, compare a QRS-scale moving average against a
    beat-scale moving average plus a signal-relative offset; runs of
    exceedance at least one QRS window long become candidate blocks and
    the largest |filtered| sample in each block is the peak.
    """
    if fs < 100:
        raise InvalidMetadataError(f"detector needs fs >= 100 Hz, got {fs:g} Hz")
    x = np.asarray(x, dtype=np.float64)
    w1 = max(1, int(round(QRS_WINDOW_S * fs)))
    w2 = max(1, int(round(BEAT_WINDOW_S * fs)))
    refractory = int(round(REFRACTORY_S * fs))
    if x.size < w2 or x.size == 0:
        return PeakList(np.empty(0, dtype=np.int64), fs)

    filtered = bandpass(x, fs, *TA_BAND)
    sq = filtered * filtered
    ma_qrs = _moving_average_centered(sq, w1)
    ma_beat = _moving_average_centered(sq, w2)
    offset = OFFSET_FRAC * float(np.mean(sq))
    above = ma_qrs > ma_beat + offset

    # runs [start, end) of exceedance: padded with a 0 at each end, the
    # mask's rising and falling edges alternate
    edges = np.flatnonzero(np.diff(np.concatenate(([0], above.astype(np.int8), [0]))))
    starts, ends = edges[0::2], edges[1::2]
    peaks = [s + int(np.argmax(np.abs(filtered[s:e])))
             for s, e in zip(starts, ends) if e - s >= w1]
    peaks = _enforce_refractory(peaks, refractory)
    return PeakList(np.asarray(peaks, dtype=np.int64), fs)


def detect_pan_tompkins(x, fs: float) -> PeakList:
    """Pan-Tompkins QRS detector without the search-back pass.

    Band-pass, five-point derivative, squaring, moving-window
    integration, then adaptive dual thresholds over integration-waveform
    local maxima. The first LEARNING_S seconds initialize the signal and
    noise running estimates.
    """
    if fs < 100:
        raise InvalidMetadataError(f"detector needs fs >= 100 Hz, got {fs:g} Hz")
    x = np.asarray(x, dtype=np.float64)
    learn = int(round(LEARNING_S * fs))
    if x.size < learn or x.size == 0:
        return PeakList(np.empty(0, dtype=np.int64), fs)

    band = bandpass(x, fs, *PT_BAND)
    deriv = np.convolve(band, np.array([2.0, 1.0, 0.0, -1.0, -2.0]) / 8.0)[: band.size]
    sq = deriv * deriv
    w = max(1, int(round(INTEGRATION_S * fs)))
    csum = np.concatenate(([0.0], np.cumsum(sq)))
    mwi = (csum[1:] - csum[np.maximum(np.arange(sq.size) - w + 1, 0)]) / w

    spki = 0.25 * float(np.max(mwi[:learn]))
    npki = 0.5 * float(np.mean(mwi[:learn]))
    refractory = int(round(REFRACTORY_S * fs))

    interior = np.flatnonzero(
        (mwi[1:-1] > mwi[:-2]) & (mwi[1:-1] >= mwi[2:])) + 1
    peaks = []
    last_cand = None
    for i in interior:
        if last_cand is not None and i - last_cand < refractory:
            continue
        threshold = npki + THRESHOLD_BLEND * (spki - npki)
        if mwi[i] > threshold:
            spki = 0.125 * mwi[i] + 0.875 * spki
            lo = max(0, i - w)
            r = lo + int(np.argmax(np.abs(band[lo : i + 1])))
            if not peaks or r - peaks[-1] >= refractory:
                peaks.append(r)
            last_cand = i
        else:
            npki = 0.125 * mwi[i] + 0.875 * npki
    return PeakList(np.asarray(peaks, dtype=np.int64), fs)


DETECTORS = {
    "two_average": detect_two_average,
    "pan_tompkins": detect_pan_tompkins,
}
