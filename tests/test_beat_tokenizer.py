import os
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import synth
from beatformer import beat_tokenizer as bt
from beatformer.ecg_io import EcgRecord
from beatformer.errors import FormatError, NoBeatsError


def record(leads):
    leads = np.asarray(leads, dtype=np.float64)
    names = [f"L{i}" for i in range(leads.shape[0])]
    return EcgRecord(leads, 500.0, names)


class TestFuseRms:
    def test_two_leads_closed_form(self):
        rec = record([[3.0, 0.0], [4.0, 0.0]])
        fused = bt.fuse_rms(rec)
        assert fused[0] == pytest.approx(np.sqrt((9 + 16) / 2), abs=1e-5)
        assert fused[0] == pytest.approx(3.53553, abs=1e-5)

    def test_single_lead_absolute_value(self):
        assert bt.fuse_rms(record([[-2.0, 5.0]])).tolist() == [2.0, 5.0]

    def test_all_zero_leads(self):
        fused = bt.fuse_rms(record(np.zeros((12, 7))))
        assert fused.tolist() == [0.0] * 7

    def test_inactive_lead_excluded(self):
        # the zero lead must not dilute the RMS of the active one
        rec = record([[3.0, 3.0], [0.0, 0.0]])
        assert bt.fuse_rms(rec).tolist() == [3.0, 3.0]

    def test_mixed_signs(self):
        rec = record([[1.0], [-1.0]])
        assert bt.fuse_rms(rec)[0] == pytest.approx(1.0)


def ramp(n=5000):
    # strictly positive, sample-identifiable values
    return np.arange(1.0, n + 1.0)


class TestSegmentBeat:
    def test_interior_beat_oracle(self):
        fused = ramp()
        values, r_index = bt.segment_beat(fused, np.array([1000, 1600, 2200]), 1)
        nz = np.flatnonzero(values)
        assert nz[0] == 133 and nz[-1] == 733
        assert nz.size == 733 - 133 + 1  # contiguous support
        assert values[333] == np.float32(fused[1600])
        assert r_index == 333

    def test_anchor_holds_fused_value(self):
        fused = ramp()
        for k, peak in enumerate([1000, 1600, 2200]):
            values, _ = bt.segment_beat(fused, np.array([1000, 1600, 2200]), k)
            assert values[333] == np.float32(fused[peak])

    def test_slow_rhythm_caps(self):
        fused = ramp(10000)
        values, _ = bt.segment_beat(fused, np.array([3000, 6000, 9000]), 1)
        assert np.all(values != 0.0)  # 333 before + 666 after fills the token

    def test_first_beat_mirrors_next_interval(self):
        fused = ramp(3000)
        values, _ = bt.segment_beat(fused, np.array([500, 1100]), 0)
        nz = np.flatnonzero(values)
        assert nz[0] == 333 - 200  # before = floor(600/3)

    def test_last_beat_mirrors_previous_interval(self):
        fused = ramp(3000)
        values, _ = bt.segment_beat(fused, np.array([500, 1100]), 1)
        nz = np.flatnonzero(values)
        assert nz[-1] == 333 + 400  # after = floor(2*600/3)

    def test_single_peak_full_window(self):
        fused = ramp(3000)
        values, _ = bt.segment_beat(fused, np.array([1500]), 0)
        nz = np.flatnonzero(values)
        assert nz[0] == 0 and nz[-1] == 999

    def test_record_start_clipped_to_zero(self):
        fused = ramp(3000)
        values, _ = bt.segment_beat(fused, np.array([100, 1300]), 0)
        # before wants min(400, 333) = 333 but only 100 samples exist
        nz = np.flatnonzero(values)
        assert nz[0] == 333 - 100
        assert np.all(values[: 333 - 100] == 0.0)

    def test_record_end_clipped_to_zero(self):
        fused = ramp(1600)
        values, _ = bt.segment_beat(fused, np.array([300, 1500]), 1)
        nz = np.flatnonzero(values)
        assert nz[-1] == 333 + (1599 - 1500)

    def test_shorter_rr_means_more_zeros(self):
        fused = ramp(6000)
        fast, _ = bt.segment_beat(fused, np.array([2000, 2400, 2800]), 1)  # RR 400
        slow, _ = bt.segment_beat(fused, np.array([2000, 2800, 3600]), 1)  # RR 800
        assert (fast == 0).sum() > (slow == 0).sum()

    def test_translation_equivariance(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=4000)
        peaks = np.array([1200, 1800, 2400])
        shift = 250
        shifted = np.concatenate([np.zeros(shift), base])[:4000 + shift]
        for k in range(3):
            a, _ = bt.segment_beat(base, peaks, k)
            b, _ = bt.segment_beat(shifted, peaks + shift, k)
            assert np.array_equal(a, b)

    def test_bad_beat_index(self):
        with pytest.raises(ValueError):
            bt.segment_beat(ramp(), np.array([100]), 1)

    def test_peak_outside_signal(self):
        with pytest.raises(ValueError):
            bt.segment_beat(ramp(100), np.array([100]), 0)


class TestBuildSequence:
    def test_padding_rule(self):
        fused = ramp(20000)
        peaks = np.arange(10) * 500 + 1000
        seq = bt.build_sequence(fused, peaks)
        # a short recording keeps its real beats and gains no padding rows
        assert seq.n_real == 10
        assert seq.tokens.shape == (10, bt.TOKEN_LEN)
        assert np.all(seq.tokens[:, bt.TOKEN_LEN // 3] != 0.0)

    def test_truncation_rule(self):
        fused = ramp(50000)
        peaks = np.arange(80) * 500 + 1000
        seq = bt.build_sequence(fused, peaks)
        assert seq.n_real == 50
        assert seq.tokens.shape == (50, bt.TOKEN_LEN)
        first, _ = bt.segment_beat(fused, peaks, 0)
        last, _ = bt.segment_beat(fused, peaks, 49)
        assert np.array_equal(seq.tokens[0], first)
        assert np.array_equal(seq.tokens[49], last)

    def test_zero_peaks_error(self):
        with pytest.raises(NoBeatsError, match="no beats detected"):
            bt.build_sequence(ramp(), np.array([], dtype=np.int64))

    def test_matches_segment_beat(self):
        fused = np.random.default_rng(1).normal(size=30000)
        peaks = np.sort(np.random.default_rng(2).choice(
            np.arange(500, 29000), size=12, replace=False))
        seq = bt.build_sequence(fused, peaks)
        for k in range(seq.n_real):
            assert np.array_equal(seq.tokens[k],
                                  bt.segment_beat(fused, peaks, k)[0]), k

    def test_float32_output(self):
        seq = bt.build_sequence(ramp(), np.array([1000, 1600]))
        assert seq.tokens.dtype == np.float32

    def test_anchor_invariant_across_real_tokens(self):
        fused = ramp(20000)
        peaks = np.arange(12) * 700 + 2000
        seq = bt.build_sequence(fused, peaks)
        for k in range(seq.n_real):
            assert seq.tokens[k, 333] == np.float32(fused[peaks[k]])


class TestSequenceValidation:
    def test_tokens_must_be_2d(self):
        with pytest.raises(ValueError):
            bt.BeatSequence(np.zeros(3, np.float32))
        with pytest.raises(ValueError):
            bt.BeatSequence(np.zeros((1, 2, 3), np.float32))

    def test_n_real_within_bounds(self):
        for n_real in (0, bt.MAX_POS + 1):
            with pytest.raises(ValueError, match="1..50"):
                bt.BeatSequence(np.zeros((n_real, 3), np.float32))
        assert bt.BeatSequence(np.zeros((bt.MAX_POS, 3))).n_real == bt.MAX_POS

    def test_d_model_property(self):
        seq = bt.BeatSequence(np.zeros((4, 7)))
        assert seq.d_model == 7 and seq.n_real == 4
        assert seq.tokens.dtype == np.float32


class TestCacheFormat:
    def make_seq(self, seed=0, d_model=1000, n_real=9):
        rng = np.random.default_rng(seed)
        return bt.BeatSequence(rng.normal(size=(n_real, d_model)).astype(np.float32))

    def test_round_trip(self, tmp_path):
        seq = self.make_seq()
        p = str(tmp_path / "a.tokens")
        bt.save_tokens(p, seq)
        back = bt.load_tokens(p)
        assert np.array_equal(back.tokens, seq.tokens)
        assert back.n_real == seq.n_real

    def test_file_size_fixed(self, tmp_path):
        # the size is fixed by the header: 16 bytes plus n_real float32 rows
        p = str(tmp_path / "a.tokens")
        for n_real in (1, 9, 50):
            bt.save_tokens(p, self.make_seq(n_real=n_real))
            assert os.path.getsize(p) == 16 + 4 * n_real * 1000
            with open(p, "rb") as fh:
                assert fh.read(16) == b"BFTS" + struct.pack("<III", 2, n_real, 1000)

    def test_byte_determinism(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        bt.save_tokens(a, self.make_seq(3))
        bt.save_tokens(b, self.make_seq(3))
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_narrow_width_round_trip(self, tmp_path):
        seq = self.make_seq(d_model=8)
        p = str(tmp_path / "n.tokens")
        bt.save_tokens(p, seq)
        back = bt.load_tokens(p)
        assert back.d_model == 8
        assert np.array_equal(back.tokens, seq.tokens)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.tokens"
        p.write_bytes(b"NOPE" + bytes(200062))
        with pytest.raises(FormatError):
            bt.load_tokens(str(p))

    def test_bad_version(self, tmp_path):
        p = str(tmp_path / "v.tokens")
        bt.save_tokens(p, self.make_seq())
        blob = bytearray(Path(p).read_bytes())
        blob[4] = 99
        Path(p).write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=re.escape(p)):
            bt.load_tokens(p)

    def test_version_1_refused(self, tmp_path):
        p = tmp_path / "old.tokens"
        p.write_bytes(synth.v1_cache(self.make_seq()))
        with pytest.raises(FormatError, match="version 1.*preprocess"):
            bt.load_tokens(str(p))

    def test_truncated_file(self, tmp_path):
        p = str(tmp_path / "t.tokens")
        bt.save_tokens(p, self.make_seq())
        blob = Path(p).read_bytes()
        Path(p).write_bytes(blob[:-10])
        with pytest.raises(FormatError):
            bt.load_tokens(p)

    def test_header_count_must_match_size(self, tmp_path):
        p = str(tmp_path / "m.tokens")
        for n_real in (8, 10):
            bt.save_tokens(p, self.make_seq())  # 9 beats on disk
            blob = bytearray(Path(p).read_bytes())
            blob[8:12] = struct.pack("<I", n_real)
            Path(p).write_bytes(bytes(blob))
            with pytest.raises(FormatError, match=re.escape(p)):
                bt.load_tokens(p)

    @pytest.mark.parametrize("n_real", [0, bt.MAX_POS + 1])
    def test_header_count_out_of_range(self, tmp_path, n_real):
        p = tmp_path / "r.tokens"
        p.write_bytes(b"BFTS" + struct.pack("<III", 2, n_real, 4)
                      + bytes(16 * n_real))  # size agrees with the header
        with pytest.raises(FormatError, match="1..50"):
            bt.load_tokens(str(p))

    def test_size_checked_before_the_payload_is_read(self, tmp_path):
        # a sparse 64-MB file whose header claims one beat of width 1000
        p = tmp_path / "big.tokens"
        with open(p, "wb") as fh:
            fh.write(b"BFTS" + struct.pack("<III", 2, 1, 1000))
            fh.truncate(64 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError,
                               match=re.escape(f"{p}: {64 << 20} bytes, expected 4016")):
                bt.load_tokens(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("cut, message", [
        (-1, "79 bytes, expected 80"),
        (0, None),
        (1, "more than 80 bytes, expected 80"),
    ], ids=["one_byte_short", "exact", "one_byte_over"])
    def test_size_of_a_file_that_is_not_regular(self, tmp_path, cut, message):
        # a pipe has no size to check upfront: it is read to one byte past
        # the payload
        p = tmp_path / "a.tokens"
        seq = self.make_seq(n_real=2, d_model=8)
        bt.save_tokens(str(p), seq)
        blob = p.read_bytes()
        r, w = os.pipe()
        os.write(w, blob[:cut] if cut < 0 else blob + b"x" * cut)  # fits the pipe's buffer
        os.close(w)
        try:
            if message:
                with pytest.raises(FormatError, match=message):
                    bt.load_tokens(f"/dev/fd/{r}")
            else:
                assert np.array_equal(bt.load_tokens(f"/dev/fd/{r}").tokens, seq.tokens)
        finally:
            os.close(r)

    def test_wrong_row_count_rejected_on_save(self, tmp_path):
        # a 51-row sequence cannot be built, so it never reaches a cache
        p = tmp_path / "w"
        with pytest.raises(ValueError):
            bt.save_tokens(str(p), bt.BeatSequence(np.zeros((bt.MAX_POS + 1, 3))))
        assert not p.exists()
