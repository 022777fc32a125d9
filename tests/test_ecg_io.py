import tracemalloc

import numpy as np
import pytest

from beatformer import ecg_io
from beatformer.ecg_io import EcgRecord, LabelMap
from beatformer.errors import (
    EmptyInputError,
    FormatError,
    InconsistencyError,
    InvalidMetadataError,
)


def write_csv(path, body):
    path.write_text(body)
    return str(path)


def write_wfdb(dirpath, name, leads, fs, gains, labels=None, fmt="16",
               lead_names=None, truncate=0):
    """leads: [L, N] raw integer samples."""
    leads = np.asarray(leads)
    n_leads, n_samples = leads.shape
    lines = [f"{name} {n_leads} {fs:g} {n_samples}"]
    for i in range(n_leads):
        nm = lead_names[i] if lead_names else f"L{i}"
        lines.append(f"{name}.dat {fmt} {gains[i]:g}(0)/mV 16 0 0 0 0 {nm}")
    if labels:
        lines.append(f"#Dx: {','.join(labels)}")
    (dirpath / f"{name}.hea").write_text("\n".join(lines) + "\n")
    raw = leads.T.astype("<i2").tobytes()
    if truncate:
        raw = raw[:-truncate]
    (dirpath / f"{name}.dat").write_bytes(raw)
    return str(dirpath / f"{name}.hea")


class TestCsvLoader:
    def test_gain_scaling_example(self, tmp_path):
        p = write_csv(tmp_path / "r.csv",
                      "#fs=500\n#gain=1000\nII\n1000\n2000\n")
        rec = ecg_io.load_record(p)
        assert rec.fs == 500.0
        assert rec.lead_names == ["II"]
        assert rec.leads.tolist() == [[1.0, 2.0]]
        assert rec.source_id == "r"

    def test_multi_lead_with_labels(self, tmp_path):
        p = write_csv(tmp_path / "r.csv",
                      "#fs=250\n#gain=1000,500\n#labels=AF;PVC\n"
                      "I,II\n1000,500\n-1000,-500\n")
        rec = ecg_io.load_record(p)
        assert rec.num_leads == 2 and rec.num_samples == 2
        assert rec.leads[0].tolist() == [1.0, -1.0]
        assert rec.leads[1].tolist() == [1.0, -1.0]
        assert rec.labels == {"AF", "PVC"}

    def test_single_gain_broadcasts(self, tmp_path):
        p = write_csv(tmp_path / "r.csv",
                      "#fs=500\n#gain=200\nI,II,III\n200,400,600\n")
        rec = ecg_io.load_record(p)
        assert rec.leads[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_gain_zero_rejected(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "#fs=500\n#gain=0\nI\n10\n")
        with pytest.raises(InvalidMetadataError):
            ecg_io.load_record(p)

    def test_missing_fs(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "#gain=1000\nI\n10\n")
        with pytest.raises(FormatError):
            ecg_io.load_record(p)

    def test_missing_gain(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "#fs=500\nI\n10\n")
        with pytest.raises(FormatError):
            ecg_io.load_record(p)

    def test_negative_fs(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "#fs=-1\n#gain=1000\nI\n10\n")
        with pytest.raises(InvalidMetadataError):
            ecg_io.load_record(p)

    @pytest.mark.parametrize("fs", ["nan", "inf"])
    def test_non_finite_fs(self, tmp_path, fs):
        p = write_csv(tmp_path / "r.csv", f"#fs={fs}\n#gain=1000\nI\n10\n")
        with pytest.raises(InvalidMetadataError,
                           match=f"r.csv: fs must be finite and > 0, got {fs}"):
            ecg_io.load_record(p)

    def test_ragged_rows(self, tmp_path):
        p = write_csv(tmp_path / "r.csv",
                      "#fs=500\n#gain=1000,1000\nI,II\n10,20\n30\n")
        with pytest.raises(InconsistencyError):
            ecg_io.load_record(p)

    def test_gain_count_mismatch(self, tmp_path):
        p = write_csv(tmp_path / "r.csv",
                      "#fs=500\n#gain=1000,1000,1000\nI,II\n10,20\n")
        with pytest.raises(InconsistencyError):
            ecg_io.load_record(p)

    def test_non_numeric_row(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "#fs=500\n#gain=1000\nI\nabc\n")
        with pytest.raises(FormatError):
            ecg_io.load_record(p)

    def test_no_rows(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "#fs=500\n#gain=1000\nI\n")
        with pytest.raises(FormatError):
            ecg_io.load_record(p)

    @pytest.mark.parametrize("sample", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_sample_names_its_line(self, tmp_path, sample):
        p = write_csv(tmp_path / "r.csv",
                      f"#fs=500\n#gain=1000,1000\nI,II\n1,2\n3,{sample}\n5,{sample}\n")
        with pytest.raises(FormatError, match="r.csv:5: non-finite sample"):
            ecg_io.load_record(p)

    @pytest.mark.parametrize("gain", ["nan", "inf", "-inf"])
    def test_non_finite_gain(self, tmp_path, gain):
        p = write_csv(tmp_path / "r.csv", f"#fs=500\n#gain=1000,{gain}\nI,II\n1,2\n")
        with pytest.raises(InvalidMetadataError, match="gain must be finite"):
            ecg_io.load_record(p)


class TestWfdbLoader:
    def test_twelve_lead_shape_contract(self, tmp_path):
        rng = np.random.default_rng(0)
        leads = rng.integers(-3000, 3000, size=(12, 5000))
        p = write_wfdb(tmp_path, "rec12", leads, 500, [1000.0] * 12)
        rec = ecg_io.load_record(p)
        assert rec.leads.shape == (12, 5000)
        assert rec.fs == 500.0
        assert rec.num_leads == 12

    def test_gain_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        leads = rng.integers(-32768, 32767, size=(3, 400))
        gains = [1000.0, 200.0, 4880.0]
        p = write_wfdb(tmp_path, "rt", leads, 257, gains)
        rec = ecg_io.load_record(p)
        back = np.round(rec.leads * np.asarray(gains)[:, None])
        assert np.array_equal(back, leads.astype(np.float64))

    def test_power_of_two_gain_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        leads = rng.integers(-32768, 32767, size=(1, 300))
        p = write_wfdb(tmp_path, "p2", leads, 500, [512.0])
        rec = ecg_io.load_record(p)
        assert np.array_equal(rec.leads * 512.0, leads.astype(np.float64))

    def test_lead_names_and_labels(self, tmp_path):
        leads = np.zeros((2, 10), dtype=int)
        p = write_wfdb(tmp_path, "nm", leads, 500, [1000, 1000],
                       labels=["164889003", "59118001"],
                       lead_names=["I", "II"])
        rec = ecg_io.load_record(p)
        assert rec.lead_names == ["I", "II"]
        assert rec.labels == {"164889003", "59118001"}
        assert rec.source_id == "nm"

    def test_dat_path_accepted(self, tmp_path):
        leads = np.ones((1, 10), dtype=int) * 500
        write_wfdb(tmp_path, "viadat", leads, 500, [500])
        rec = ecg_io.load_record(str(tmp_path / "viadat.dat"))
        assert rec.leads.tolist() == [[1.0] * 10]

    def test_truncated_dat_rejected(self, tmp_path):
        leads = np.ones((2, 100), dtype=int)
        p = write_wfdb(tmp_path, "tr", leads, 500, [1000, 1000], truncate=2)
        with pytest.raises(InconsistencyError):
            ecg_io.load_record(p)

    def test_unsupported_sample_format(self, tmp_path):
        leads = np.ones((1, 10), dtype=int)
        p = write_wfdb(tmp_path, "f8", leads, 500, [1000], fmt="212")
        with pytest.raises(FormatError):
            ecg_io.load_record(p)

    def test_gain_zero_rejected(self, tmp_path):
        leads = np.ones((1, 10), dtype=int)
        p = write_wfdb(tmp_path, "g0", leads, 500, [0])
        with pytest.raises(InvalidMetadataError):
            ecg_io.load_record(p)

    @pytest.mark.parametrize("gain", [float("nan"), float("inf")])
    def test_non_finite_gain(self, tmp_path, gain):
        p = write_wfdb(tmp_path, "ng", np.ones((2, 10), dtype=int), 500, [1000, gain])
        with pytest.raises(InvalidMetadataError, match="lead 1: ADC gain must be finite"):
            ecg_io.load_record(p)

    @pytest.mark.parametrize("fs", [float("nan"), float("inf")])
    def test_non_finite_fs(self, tmp_path, fs):
        p = write_wfdb(tmp_path, "nf", np.ones((1, 10), dtype=int), fs, [1000])
        with pytest.raises(InvalidMetadataError,
                           match=f"nf.hea: fs must be finite and > 0, got {fs}"):
            ecg_io.load_record(p)

    def test_short_record_line(self, tmp_path):
        (tmp_path / "bad.hea").write_text("bad 2\n")
        with pytest.raises(FormatError):
            ecg_io.load_record(str(tmp_path / "bad.hea"))

    def test_fs_with_counter_suffix(self, tmp_path):
        # some headers write fs as "500/0"
        leads = np.ones((1, 10), dtype=int)
        p = write_wfdb(tmp_path, "cs", leads, 500, [1000])
        text = (tmp_path / "cs.hea").read_text().replace(" 500 ", " 500/0 ")
        (tmp_path / "cs.hea").write_text(text)
        assert ecg_io.load_record(p).fs == 500.0

    def test_unknown_extension(self, tmp_path):
        (tmp_path / "r.xyz").write_text("")
        with pytest.raises(FormatError):
            ecg_io.load_record(str(tmp_path / "r.xyz"))


class TestEcgRecord:
    def test_select_leads_subset_and_order(self):
        rec = EcgRecord(np.arange(12.0).reshape(3, 4), 500.0, ["I", "II", "V1"])
        sub = rec.select_leads(["V1", "I"])
        assert sub.lead_names == ["V1", "I"]
        assert np.array_equal(sub.leads, rec.leads[[2, 0]])

    def test_select_missing_lead(self):
        rec = EcgRecord(np.zeros((1, 4)), 500.0, ["I"])
        with pytest.raises(InconsistencyError):
            rec.select_leads(["II"])

    def test_lead_name_count_checked(self):
        with pytest.raises(InconsistencyError):
            EcgRecord(np.zeros((2, 4)), 500.0, ["I"])

    def test_bad_fs(self):
        with pytest.raises(InvalidMetadataError):
            EcgRecord(np.zeros((1, 4)), 0.0, ["I"])

    @pytest.mark.parametrize("fs", [float("nan"), float("inf")])
    def test_non_finite_fs(self, fs):
        with pytest.raises(InvalidMetadataError, match="finite"):
            EcgRecord(np.zeros((1, 4)), fs, ["I"])


def interp_reference(rec, target_fs):
    """resample_record's values as one np.interp per lead, tail rule included."""
    n = rec.num_samples
    out_len = int(np.floor(n * target_fs / rec.fs))
    pos = np.arange(out_len, dtype=np.float64) * (rec.fs / target_fs)
    src = np.arange(n, dtype=np.float64)
    out = np.empty((rec.num_leads, out_len), dtype=np.float64)
    tail = pos > n - 1
    for i in range(rec.num_leads):
        lead = rec.leads[i]
        out[i] = np.interp(pos, src, lead)
        if np.any(tail):
            slope = (lead[-1] - lead[-2]) if n >= 2 else 0.0
            out[i, tail] = lead[-1] + (pos[tail] - (n - 1)) * slope
    return out


class TestResample:
    def rec(self, samples, fs):
        return EcgRecord(np.asarray(samples, dtype=np.float64), fs, ["I"])

    def test_doubling_example(self):
        out = ecg_io.resample_record(self.rec([[0.0, 1.0, 2.0, 3.0]], 250.0), 500.0)
        assert out.leads[0].tolist() == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
        assert out.fs == 500.0

    def test_identity_bit_exact(self):
        x = np.random.default_rng(2).normal(size=(2, 100))
        rec = EcgRecord(x, 500.0, ["I", "II"])
        out = ecg_io.resample_record(rec, 500.0)
        assert np.array_equal(out.leads, x)
        assert out.leads is not rec.leads  # a copy, not a view

    def test_downsampling_length(self):
        out = ecg_io.resample_record(
            self.rec([np.arange(1000.0).tolist()], 1000.0), 500.0)
        assert out.num_samples == 500

    def test_downsample_values_on_grid(self):
        out = ecg_io.resample_record(self.rec([[0.0, 1.0, 2.0, 3.0]], 500.0), 250.0)
        assert out.leads[0].tolist() == [0.0, 2.0]

    def test_labels_and_names_carried(self):
        rec = EcgRecord(np.zeros((1, 8)), 250.0, ["II"], {"AF"}, "src9")
        out = ecg_io.resample_record(rec, 500.0)
        assert out.labels == {"AF"} and out.lead_names == ["II"]
        assert out.source_id == "src9"

    def test_empty_record_rejected(self):
        rec = EcgRecord(np.zeros((1, 1)), 500.0, ["I"])
        rec.leads = np.zeros((1, 0))
        with pytest.raises(EmptyInputError):
            ecg_io.resample_record(rec, 500.0)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            ecg_io.resample_record(self.rec([[1.0, 2.0]], 500.0), 0.0)

    @pytest.mark.parametrize("fs, target", [(257.0, 500.0), (360.0, 500.0),
                                            (1000.0, 500.0), (500.0, 257.0)])
    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 2 * ecg_io.CHUNK + 17])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bit_identical(self, fs, target, n, order):
        # the loaders hand over raw.T, a Fortran-ordered [leads, n] array
        x = np.random.default_rng(n).normal(size=(3, n)) * 100.0
        rec = EcgRecord(np.array(x, order=order), fs, ["I", "II", "III"])
        if int(np.floor(n * target / fs)) == 0:
            with pytest.raises(EmptyInputError):
                ecg_io.resample_record(rec, target)
            return
        out = ecg_io.resample_record(rec, target)
        assert out.leads.flags.c_contiguous
        assert np.array_equal(out.leads, interp_reference(rec, target))

    @pytest.mark.parametrize("n, fs, target", [(5, 250.0, 500.0), (4, 100.0, 300.0),
                                               (2, 500.0, 2000.0), (1, 250.0, 1000.0)])
    def test_grid_hits_last_sample(self, n, fs, target):
        # a whole-number upsampling ratio puts one grid point exactly on the
        # last sample, where np.interp returns it as is; later grid points
        # continue the final slope
        x = np.random.default_rng(7).normal(size=(2, n))
        rec = EcgRecord(x, fs, ["I", "II"])
        pos = np.arange(int(np.floor(n * target / fs))) * (fs / target)
        assert np.any(pos == n - 1) and np.any(pos > n - 1)
        out = ecg_io.resample_record(rec, target)
        assert np.array_equal(out.leads, interp_reference(rec, target))
        assert np.array_equal(out.leads[:, pos == n - 1].ravel(), x[:, -1])

    @pytest.mark.parametrize("fs, target", [(257.0, 500.0), (360.0, 500.0), (1000.0, 500.0),
                                            (1000.0, 257.0), (500.0, 500.0)])
    def test_source_prefix_resamples_bit_for_bit(self, fs, target):
        # the first `count` output samples of a source_samples_needed prefix
        # equal the whole record's, and the prefix yields at least `count`
        x = np.random.default_rng(int(fs + target)).normal(size=(2, 3000))
        full = ecg_io.resample_record(EcgRecord(x, fs, ["I", "II"]), target)
        for count in (1, 2, 9, 10, 11, 100, 700):
            m = ecg_io.source_samples_needed(fs, target, count)
            assert m < x.shape[1], count
            prefix = EcgRecord(x[:, :m], fs, ["I", "II"])
            assert ecg_io.resampled_length(prefix, target) >= count, count
            out = ecg_io.resample_record(prefix, target)
            assert np.array_equal(out.leads[:, :count], full.leads[:, :count]), count

    def test_memory_bounded_by_output(self):
        # a chunk of grid points at a time: beyond the output it needs a few
        # chunk-sized index and gather buffers, however long the record
        x = np.random.default_rng(4).normal(size=(2, 432000))
        rec = EcgRecord(x, 360.0, ["MLII", "V5"])
        tracemalloc.start()
        try:
            out = ecg_io.resample_record(rec, 500.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.leads.nbytes + (3 << 20)


class TestRescalePeaks:
    def test_factor_two(self):
        assert ecg_io.rescale_peaks([250, 750], 250.0, 500.0).tolist() == [500, 1500]

    def test_empty(self):
        assert ecg_io.rescale_peaks([], 250.0, 500.0).tolist() == []

    def test_halving_preserves_distinctness(self):
        assert ecg_io.rescale_peaks([100, 101], 500.0, 250.0).tolist() == [50, 51]

    def test_collisions_deduplicated(self):
        out = ecg_io.rescale_peaks([100, 101, 102, 103], 1000.0, 250.0)
        assert out.tolist() == [25, 26]

    def test_round_trip_within_one_sample(self):
        rng = np.random.default_rng(3)
        peaks = np.unique(rng.integers(0, 100000, 200))
        for src, dst in ((500.0, 257.0), (250.0, 500.0), (1000.0, 500.0)):
            there = ecg_io.rescale_peaks(peaks, src, dst)
            back = ecg_io.rescale_peaks(there, dst, src)
            # dedup can drop indices; every survivor is within 1 of an original
            assert all(np.min(np.abs(peaks - b)) <= 1 for b in back)


class TestLabelMap:
    def test_basic_map(self, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("AF,0\nPVC,1\nSB,2\nAFL=>AF\n# comment\n")
        m = ecg_io.load_label_map(str(p))
        assert m.num_classes == 3
        assert m.canonical("AFL") == "AF"
        assert m.canonical("AF") == "AF"
        assert m.reverse()[1] == "PVC"

    def test_gap_in_indices(self):
        with pytest.raises(FormatError):
            LabelMap({"A": 0, "B": 2})

    def test_duplicate_index(self):
        with pytest.raises(FormatError):
            LabelMap({"A": 0, "B": 0})

    def test_alias_of_scored_code_rejected(self):
        with pytest.raises(FormatError):
            LabelMap({"A": 0, "B": 1}, {"A": "B"})

    def test_alias_to_nonscored_rejected(self):
        with pytest.raises(FormatError):
            LabelMap({"A": 0}, {"X": "Y"})

    def test_duplicate_code_line(self, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("AF,0\nAF,1\n")
        with pytest.raises(FormatError):
            ecg_io.load_label_map(str(p))

    def test_unparsable_line(self, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("AF 0\n")
        with pytest.raises(FormatError):
            ecg_io.load_label_map(str(p))


class TestFilterLabels:
    def make(self, labels):
        return EcgRecord(np.zeros((1, 4)), 500.0, ["I"], labels)

    def map(self):
        return LabelMap({"A": 3, "C": 0, "D": 1, "E": 2}, {"A2": "A"})

    def test_scored_kept_nonscored_dropped(self):
        assert ecg_io.filter_labels(self.make({"A", "B"}), self.map()) == {3}

    def test_only_nonscored_returns_none(self):
        assert ecg_io.filter_labels(self.make({"B"}), self.map()) is None

    def test_equivalence_applied(self):
        assert ecg_io.filter_labels(self.make({"A", "A2"}), self.map()) == {3}

    def test_empty_labels_none(self):
        assert ecg_io.filter_labels(self.make(set()), self.map()) is None

    def test_subset_of_class_range(self):
        rng = np.random.default_rng(4)
        codes = ["A", "C", "D", "E", "B", "A2", "Z"]
        for _ in range(50):
            pick = {codes[i] for i in rng.integers(0, len(codes), 3)}
            out = ecg_io.filter_labels(self.make(pick), self.map())
            if out is not None:
                assert out <= set(range(4))
