"""Recording ingestion: CSV and 16-bit WFDB (.dat or .mat) readers, gain
scaling, resampling, peak-index rescaling, and label-set filtering."""
from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyInputError,
    FormatError,
    InconsistencyError,
    InvalidMetadataError,
)

CHUNK = 1 << 15     # output samples per lead resampled at a time
# largest magnitude of a gain-scaled sample, in mV: far beyond any ECG, and
# far enough inside float32's range (tokens are float32) that filtering,
# squaring and fusing cannot overflow
MAX_ABS_MV = 1e30


@dataclass
class EcgRecord:
    """Gain-scaled multi-lead recording in millivolts.

    leads: [num_leads, num_samples]; labels: raw diagnosis codes as found
    in the source header (not yet mapped to class indices).
    """
    leads: np.ndarray
    fs: float
    lead_names: list
    labels: set = field(default_factory=set)
    source_id: str = ""

    def __post_init__(self):
        self.leads = np.atleast_2d(np.asarray(self.leads, dtype=np.float64))
        if not 0 < self.fs < np.inf:
            raise InvalidMetadataError(f"sampling frequency must be finite and > 0, got {self.fs}")
        if len(self.lead_names) != self.leads.shape[0]:
            raise InconsistencyError(
                f"{len(self.lead_names)} lead names for {self.leads.shape[0]} leads")

    @property
    def num_leads(self) -> int:
        return self.leads.shape[0]

    @property
    def num_samples(self) -> int:
        return self.leads.shape[1]

    def select_leads(self, names: list) -> "EcgRecord":
        missing = [n for n in names if n not in self.lead_names]
        if missing:
            raise InconsistencyError(f"record {self.source_id} has no lead(s) {missing}")
        rows = [self.lead_names.index(n) for n in names]
        return EcgRecord(self.leads[rows], self.fs, list(names),
                         set(self.labels), self.source_id)


@dataclass
class LabelMap:
    """Scored label codes with class indices, plus equivalence aliases."""
    scored: dict
    equivalences: dict = field(default_factory=dict)

    def __post_init__(self):
        indices = sorted(self.scored.values())
        if indices != list(range(len(indices))):
            raise FormatError(
                f"class indices must be 0..{len(indices) - 1} with no gaps or repeats, "
                f"got {indices}")
        for alias, canon in self.equivalences.items():
            if alias in self.scored:
                raise FormatError(
                    f"code {alias} is both scored and aliased; equivalences must be idempotent")
            if canon not in self.scored:
                raise FormatError(f"alias {alias} maps to non-scored code {canon}")

    @property
    def num_classes(self) -> int:
        return len(self.scored)

    def canonical(self, code: str) -> str:
        return self.equivalences.get(code, code)

    def reverse(self) -> dict:
        return {idx: code for code, idx in self.scored.items()}


def read_lines(path: str) -> list:
    """Lines of a UTF-8 text file, without a leading byte-order mark;
    undecodable bytes are a FormatError naming it."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def load_label_map(path: str) -> LabelMap:
    """Parse `code,class_index` and `alias=>canonical` lines."""
    scored = {}
    equivalences = {}
    for lineno, raw in enumerate(read_lines(path), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=>" in line:
            alias, _, canon = line.partition("=>")
            alias, canon = alias.strip(), canon.strip()
            if not alias or not canon:
                raise FormatError(f"{path}:{lineno}: malformed equivalence {line!r}")
            if alias in equivalences:
                raise FormatError(f"{path}:{lineno}: duplicate alias {alias}")
            equivalences[alias] = canon
        elif "," in line:
            code, _, idx = line.partition(",")
            code = code.strip()
            if code in scored:
                raise FormatError(f"{path}:{lineno}: duplicate code {code}")
            try:
                scored[code] = int(idx.strip())
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad class index {idx!r}") from exc
        else:
            raise FormatError(f"{path}:{lineno}: unrecognized label-map line {line!r}")
    return LabelMap(scored, equivalences)


def filter_labels(rec: EcgRecord, label_map: LabelMap):
    """Class indices for the record's scored labels, or None when none remain."""
    canon = {label_map.canonical(code) for code in rec.labels}
    indices = {label_map.scored[c] for c in canon if c in label_map.scored}
    return indices if indices else None


def _parse_gain_token(token: str, where: str) -> float:
    # header gain fields may carry a baseline and units, e.g. 1000(0)/mV
    num = token.split("(")[0].split("/")[0]
    try:
        gain = float(num)
    except ValueError as exc:
        raise FormatError(f"{where}: unparsable gain {token!r}") from exc
    if gain == 0:
        raise InvalidMetadataError(f"{where}: ADC gain of 0 cannot scale samples")
    if not np.isfinite(gain):
        raise InvalidMetadataError(f"{where}: ADC gain must be finite, got {token!r}")
    return gain


def _load_csv(path: str) -> EcgRecord:
    lines = read_lines(path)
    fs = None
    gains = None
    labels = set()
    header = None
    start = len(lines)  # the lines from here on are sample rows
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            key = key.strip().lower()
            if key == "fs":
                try:
                    fs = float(value)
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: bad fs {value!r}") from exc
            elif key == "gain":
                gains = [_parse_gain_token(tok.strip(), f"{path}:{lineno}")
                         for tok in value.split(",")]
            elif key == "labels":
                labels = {tok.strip() for tok in value.split(";") if tok.strip()}
            continue
        header = [tok.strip() for tok in line.split(",")]
        start = lineno
        break
    body = lines[start:]

    if fs is None:
        raise FormatError(f"{path}: missing #fs= metadata line")
    if not 0 < fs < np.inf:
        raise InvalidMetadataError(f"{path}: fs must be finite and > 0, got {fs}")
    if gains is None:
        raise FormatError(f"{path}: missing #gain= metadata line")
    if header is None or not any(map(str.strip, body)):
        raise FormatError(f"{path}: no lead header or no sample rows")
    width = len(header)
    raw = _parse_rows(path, body, start, width)
    if len(gains) == 1:
        gains = gains * width
    if len(gains) != width:
        raise InconsistencyError(f"{path}: {len(gains)} gains for {width} leads")
    _check_scaled_range(raw, gains,
                        lambda row, lead: f"{path}:{_sample_rows(body, start)[row][0]}")

    raw /= np.asarray(gains, dtype=np.float64)
    return EcgRecord(raw.T, fs, header, labels,
                     os.path.splitext(os.path.basename(path))[0])


def _sample_rows(body: list, start: int) -> list:
    """(file line number, stripped text) of each non-blank line of body, the
    lines after file line `start`: the rows of what _parse_rows returns."""
    return [(lineno, text) for lineno, line in enumerate(body, start + 1)
            if (text := line.strip())]


def _parse_counts(rows: list) -> np.ndarray:
    """[rows, width] float64 from comma-separated rows, read in one call as
    int64 counts; a value that is not one (1.5, 1e3, nan, beyond int64)
    makes that call raise, and the rows are read as float64 instead.

    From numpy 1.23 until that deprecation expired, loadtxt parses such a
    value as a float, truncates it and only warns (a DeprecationWarning,
    hidden by default); raised as an error, the warning makes loadtxt raise
    ValueError, so every supported numpy takes the float64 path."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            counts = np.loadtxt(rows, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return np.loadtxt(rows, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
    return counts.astype(np.float64)


def _parse_rows(path: str, body: list, start: int, width: int) -> np.ndarray:
    """[rows, width] float64 from the sample lines body, the lines after
    file line `start`; blank lines are skipped.

    body goes to np.loadtxt whole. That skips empty lines but refuses
    whitespace-only ones, so a failed parse is retried on the non-blank
    lines. When that fails too, the record is refused; its rows are parsed
    one at a time only to name the fault: FormatError for the first row
    that is not all numbers, else InconsistencyError for the first row of
    the wrong width, else FormatError quoting the bulk parse. A NaN or
    infinite sample is a FormatError naming its line.
    """
    try:
        raw = _parse_counts(body)
    except ValueError:
        numbered = _sample_rows(body, start)
        try:
            raw = _parse_counts([line for _, line in numbered])
        except ValueError as exc:
            rows = []
            for lineno, line in numbered:
                try:
                    rows.append([float(tok) for tok in line.split(",")])
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: non-numeric sample row") from exc
            for row in rows:
                if len(row) != width:
                    raise InconsistencyError(
                        f"{path}: sample row has {len(row)} values for {width} leads")
            # float() reads forms that loadtxt refuses, such as 1_000
            raise FormatError(f"{path}: non-numeric sample row ({exc})") from exc
    if raw.shape[1] != width:
        raise InconsistencyError(
            f"{path}: sample row has {raw.shape[1]} values for {width} leads")
    finite = np.isfinite(raw)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise FormatError(f"{path}:{_sample_rows(body, start)[row][0]}: non-finite sample")
    return raw


def _check_scaled_range(raw: np.ndarray, gains: list, where) -> None:
    """FormatError for the largest sample of raw [samples, leads] whose value
    over its lead's gain would pass MAX_ABS_MV; where(row, lead) names it.

    Raw magnitudes are compared with MAX_ABS_MV times the gain as Python
    floats, so neither a huge sample nor a tiny gain makes an overflowing
    quotient on the way. One pass over all leads together settles the
    usual case; the leads are searched one by one only when it fails.
    """
    if raw.size == 0:
        return
    limits = [MAX_ABS_MV * abs(gain) for gain in gains]
    if max(abs(float(raw.max())), abs(float(raw.min()))) <= min(limits):
        return
    for lead, limit in enumerate(limits):
        column = np.abs(raw[:, lead], dtype=np.float64)
        row = int(np.argmax(column))
        if column[row] > limit:
            raise FormatError(f"{where(row, lead)}: value {float(raw[row, lead]):g} at "
                              f"gain {gains[lead]:g} is beyond {MAX_ABS_MV:g} mV once scaled")


def _load_wfdb(header_path: str) -> EcgRecord:
    lines = [ln.rstrip("\n") for ln in read_lines(header_path)]

    record_line = None
    signal_lines = []
    labels = set()
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.lower().startswith("dx:"):
                labels |= {tok.strip() for tok in body[3:].split(",") if tok.strip()}
            continue
        if record_line is None:
            record_line = stripped
        else:
            signal_lines.append(stripped)

    if record_line is None:
        raise FormatError(f"{header_path}: empty header")
    fields_ = record_line.split()
    if len(fields_) < 4:
        raise FormatError(
            f"{header_path}: record line needs name, leads, fs, samples: {record_line!r}")
    name = fields_[0]
    _check_plain_name(header_path, "record name", name)
    try:
        num_leads = int(fields_[1])
        fs = float(fields_[2].split("/")[0])
        num_samples = int(fields_[3])
    except ValueError as exc:
        raise FormatError(f"{header_path}: bad record line {record_line!r}") from exc
    if not 0 < fs < np.inf:
        raise InvalidMetadataError(f"{header_path}: fs must be finite and > 0, got {fs}")
    if len(signal_lines) < num_leads:
        raise FormatError(
            f"{header_path}: {len(signal_lines)} signal lines for {num_leads} leads")

    gains = []
    lead_names = []
    sample_files = set()    # (file name, byte offset) of each lead
    for i, line in enumerate(signal_lines[:num_leads]):
        toks = line.split()
        if len(toks) < 3:
            raise FormatError(f"{header_path}: signal line too short: {line!r}")
        # format 16, or 16+N: the samples start N bytes into the file
        fmt, plus, offset = toks[1].partition("+")
        if fmt.split("x")[0] != "16":
            raise FormatError(
                f"{header_path}: only format 16 sample files are supported, got {toks[1]}")
        if plus and not (offset.isascii() and offset.isdigit()):
            raise FormatError(f"{header_path}: bad byte offset in format {toks[1]}")
        sample_files.add((toks[0], int(offset or 0)))
        gains.append(_parse_gain_token(toks[2], f"{header_path} lead {i}"))
        last = toks[-1]
        lead_names.append(last if len(toks) > 3 and not _is_number(last) else f"ld{i}")
    if len({name for name, _ in sample_files}) != 1:
        raise FormatError(f"{header_path}: all leads must share one sample file")
    if len(sample_files) != 1:
        raise FormatError(f"{header_path}: all leads must share one byte offset")

    dat_name, offset = sample_files.pop()
    _check_plain_name(header_path, "sample file name", dat_name)
    dat_path = os.path.join(os.path.dirname(header_path), dat_name)
    try:
        if dat_name.lower().endswith(".mat"):
            _check_mat_prefix(dat_path, offset, num_leads, num_samples)
        nbytes = os.path.getsize(dat_path) - offset
        if nbytes != 2 * num_leads * num_samples:
            raise InconsistencyError(
                f"{dat_path}: {nbytes} bytes after offset {offset}, header promises "
                f"{num_leads} x {num_samples} 16-bit samples")
        raw = np.fromfile(dat_path, dtype="<i2", offset=offset)
    except OSError as exc:
        raise FormatError(f"cannot read sample file {dat_path}: {exc}") from exc
    raw = raw.reshape(num_samples, num_leads)
    _check_scaled_range(raw, gains,
                        lambda row, lead: f"{dat_path} lead {lead_names[lead]}, sample {row}")
    leads = raw.T.astype(np.float64)
    leads /= np.asarray(gains, dtype=np.float64)[:, None]
    return EcgRecord(leads, fs, lead_names, labels, name)


def _check_plain_name(header_path: str, what: str, name: str) -> None:
    """FormatError unless name is a plain file name in the header's own
    directory: not empty, `.` or `..`, with no path separator or NUL. The
    record name becomes the name of its token cache."""
    if name in ("", ".", "..") or "\0" in name or os.path.basename(name) != name:
        raise FormatError(f"{header_path}: {what} {name!r} is not a plain file name")


def _check_mat_prefix(path: str, offset: int, num_leads: int, num_samples: int) -> None:
    """FormatError naming the first field of the MAT v4 matrix header at the
    start of path that disagrees with the WFDB header: one int16 matrix of
    num_leads rows and num_samples columns, real, its data at `offset`."""
    with open(path, "rb") as fh:
        prefix = fh.read(20)
    if len(prefix) < 20:
        raise FormatError(f"{path}: {len(prefix)} bytes, too short for a MAT v4 header")
    # type 30: little-endian, int16 values, full matrix; the variable's
    # name (namlen bytes) ends the prefix
    expected = {"type": 30, "mrows": num_leads, "ncols": num_samples, "imagf": 0,
                "namlen": offset - 20}
    for (field_name, want), got in zip(expected.items(), struct.unpack("<5i", prefix)):
        if got != want:
            raise FormatError(
                f"{path}: MAT v4 {field_name} is {got}, the .hea header implies {want}")


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def load_record(path: str) -> EcgRecord:
    """Load a recording: .csv, or WFDB by its .hea header (or its .dat or
    .mat sample file)."""
    stem, ext = os.path.splitext(path)
    ext = ext.lower()
    if ext == ".csv":
        return _load_csv(path)
    if ext == ".hea":
        return _load_wfdb(path)
    if ext in (".dat", ".mat"):
        return _load_wfdb(stem + ".hea")
    raise FormatError(f"cannot infer the format of {path} from its extension")


def resampled_length(rec: EcgRecord, target_fs: float) -> int:
    """Number of samples resample_record(rec, target_fs) returns; raises
    what it raises for a record it cannot resample."""
    if target_fs <= 0:
        raise ValueError("target_fs must be positive")
    if rec.num_samples == 0:
        raise EmptyInputError(f"record {rec.source_id} has no samples")
    if rec.fs == target_fs:
        return rec.num_samples
    out_len = int(np.floor(rec.num_samples * target_fs / rec.fs))
    if out_len == 0:
        raise EmptyInputError(
            f"record {rec.source_id}: resampling to {target_fs} Hz leaves no samples")
    return out_len


def source_samples_needed(fs: float, target_fs: float, count: int) -> int:
    """Source samples from which resample_record computes its first `count`
    output samples exactly as from the whole record.

    Output point i sits at i * step with step = fs / target_fs and reads
    source samples floor(i * step) and the one after it. The prefix ends
    after both samples of every needed point, and each needed point lies
    before its last sample, so none takes the rule for points on or past
    it; it is also longer than count * step + 1, so the prefix's own
    output is at least `count` samples long.
    """
    return int(np.floor(count * (fs / target_fs))) + 2


def resample_record(rec: EcgRecord, target_fs: float) -> EcgRecord:
    """Linear interpolation onto a uniform grid at target_fs.

    Output length is floor(num_samples * target_fs / fs). Grid points past
    the last source sample continue the final segment's slope. The grid is
    worked CHUNK points at a time, each point's index and fraction shared
    by all leads.
    """
    out_len = resampled_length(rec, target_fs)
    if rec.fs == target_fs:
        return EcgRecord(rec.leads.copy(), rec.fs, list(rec.lead_names),
                         set(rec.labels), rec.source_id)

    n = rec.num_samples
    leads = rec.leads
    step = rec.fs / target_fs
    slope = leads[:, -1:] - leads[:, -2:-1] if n >= 2 else np.zeros((rec.num_leads, 1))
    out = np.empty((rec.num_leads, out_len), dtype=np.float64)
    for start in range(0, out_len, CHUNK):
        stop = min(start + CHUNK, out_len)
        pos = np.arange(start, stop, dtype=np.float64) * step
        # grid points before the last sample, then those on or past it
        inner = start + int(np.searchsorted(pos, n - 1))
        # one index and fraction for every lead; np.interp's own formula
        # (fp[j+1] - fp[j]) * frac + fp[j], so the values are bit-identical
        j = pos[: inner - start].astype(np.intp)
        frac = pos[: inner - start] - j
        left = np.take(leads, j, axis=1)
        j += 1
        right = np.take(leads, j, axis=1)
        right -= left
        right *= frac
        np.add(right, left, out=out[:, start:inner])
        # on the last sample this is fp[-1] + 0 * slope, np.interp's fp[-1]
        out[:, inner:stop] = leads[:, -1:] + (pos[inner - start :] - (n - 1)) * slope
    return EcgRecord(out, float(target_fs), list(rec.lead_names),
                     set(rec.labels), rec.source_id)


def rescale_peaks(peaks, src_fs: float, dst_fs: float) -> np.ndarray:
    """Map peak indices between sampling rates, round half up, dedup, sort."""
    arr = np.asarray(peaks, dtype=np.float64)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    scaled = np.floor(arr * (dst_fs / src_fs) + 0.5).astype(np.int64)
    return np.unique(scaled)
