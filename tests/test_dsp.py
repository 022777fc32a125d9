import tracemalloc

import numpy as np
import pytest

import synth
from beatformer import dsp
from beatformer.errors import FilterDesignError, InvalidMetadataError


@pytest.fixture
def scipy_signal():
    """scipy is a test extra; only the tests that use it as an oracle skip without it."""
    return pytest.importorskip("scipy.signal")


def filter_gain(f, freq, fs):
    """Magnitude of the biquad's transfer function at freq Hz."""
    z = np.exp(-2j * np.pi * freq / fs)
    zs = np.array([1.0, z, z * z])
    return float(np.abs(np.dot(f.b, zs) / np.dot(f.a, zs)))


class TestFilterDesign:
    def test_highpass_dc_rejection(self):
        f = dsp.design_highpass(0.5, 500.0)
        assert filter_gain(f, 0.0, 500.0) < 1e-9

    def test_highpass_cutoff_gain(self):
        f = dsp.design_highpass(0.5, 500.0)
        assert filter_gain(f, 0.5, 500.0) == pytest.approx(2 ** -0.5, rel=0.01)

    def test_highpass_passband_flat(self):
        f = dsp.design_highpass(0.5, 500.0)
        assert filter_gain(f, 40.0, 500.0) == pytest.approx(1.0, abs=1e-3)

    def test_lowpass_mirror_properties(self):
        f = dsp.design_lowpass(15.0, 500.0)
        assert filter_gain(f, 0.0, 500.0) == pytest.approx(1.0, abs=1e-9)
        assert filter_gain(f, 15.0, 500.0) == pytest.approx(2 ** -0.5, rel=0.01)
        assert filter_gain(f, 200.0, 500.0) < 0.01

    def test_cutoff_bounds_enforced(self):
        with pytest.raises(FilterDesignError):
            dsp.design_highpass(250.0, 500.0)
        with pytest.raises(FilterDesignError):
            dsp.design_highpass(0.0, 500.0)
        with pytest.raises(FilterDesignError):
            dsp.design_lowpass(-1.0, 500.0)

    def test_poles_inside_unit_circle(self):
        for cutoff in (0.5, 5.0, 15.0, 40.0):
            f = dsp.design_highpass(cutoff, 500.0)
            assert np.abs(np.roots(f.a)).max() < 1.0

    @pytest.mark.parametrize("cutoff,btype", [(0.5, "highpass"), (8.0, "highpass"),
                                              (15.0, "lowpass"), (20.0, "lowpass")])
    def test_matches_reference_design(self, cutoff, btype, scipy_signal):
        ours = (dsp.design_highpass if btype == "highpass"
                else dsp.design_lowpass)(cutoff, 500.0)
        b, a = scipy_signal.butter(2, cutoff, btype=btype, fs=500.0)
        assert np.allclose(ours.b, b, atol=1e-12)
        assert np.allclose(ours.a, a, atol=1e-12)

    def test_biquad_normalization(self):
        # the designs return a[0] = 1; a filter that is not normalized is refused
        for a0 in (2.0, 0.0):
            with pytest.raises(ValueError, match="a\\[0\\] must be 1"):
                dsp.IirFilter(np.array([2.0, 0.0, 0.0]), np.array([a0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            dsp.IirFilter(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


class TestApplyFilter:
    def test_zero_in_zero_out(self):
        f = dsp.design_highpass(0.5, 500.0)
        assert np.array_equal(dsp.apply_filter(f, np.zeros(100)), np.zeros(100))

    def test_impulse_response_head(self):
        # a leading zero sample: the filter starts at rest
        f = dsp.design_lowpass(15.0, 500.0)
        imp = np.zeros(11)
        imp[1] = 1.0
        y = dsp.apply_filter(f, imp)
        assert y[0] == 0.0
        assert y[1] == pytest.approx(f.b[0], rel=1e-12)

    def test_linearity(self):
        f = dsp.design_highpass(0.5, 500.0)
        rng = np.random.default_rng(0)
        x1, x2 = rng.normal(size=500), rng.normal(size=500)
        lhs = dsp.apply_filter(f, 2.0 * x1 - 3.0 * x2)
        rhs = 2.0 * dsp.apply_filter(f, x1) - 3.0 * dsp.apply_filter(f, x2)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_constant_input_decays(self):
        # a constant after a zero first sample: the step response decays
        f = dsp.design_highpass(0.5, 500.0)
        y = dsp.apply_filter(f, np.concatenate(([0.0], np.ones(5000))))
        assert np.abs(y[-500:]).max() < 1e-3

    def test_state_reset_between_calls(self):
        f = dsp.design_highpass(0.5, 500.0)
        x = np.random.default_rng(1).normal(size=300)
        a = dsp.apply_filter(f, x)
        b = dsp.apply_filter(f, x)
        assert np.array_equal(a, b)

    def test_matches_reference_filter(self, scipy_signal):
        rng = np.random.default_rng(2)
        x = rng.normal(size=2000)
        for design, cutoff, btype in ((dsp.design_highpass, 0.5, "highpass"),
                                      (dsp.design_lowpass, 20.0, "lowpass")):
            ours = dsp.apply_filter(design(cutoff, 500.0), x)
            b, a = scipy_signal.butter(2, cutoff, btype=btype, fs=500.0)
            ref, _ = scipy_signal.lfilter(b, a, x, zi=scipy_signal.lfilter_zi(b, a) * x[0])
            assert np.abs(ours - ref).max() < 1e-10

    def test_matrix_input_filters_each_row(self):
        f = dsp.design_highpass(0.5, 500.0)
        x = np.random.default_rng(4).normal(size=(12, 5000)) + 2.0
        rows = dsp.apply_filter(f, x)
        assert rows.shape == x.shape
        for lead, row in zip(x, rows):
            assert np.array_equal(dsp.apply_filter(f, lead), row)

    @pytest.mark.parametrize("fs", [257.0, 360.0, 1000.0])
    def test_rows_and_whole_chunk_prefixes_filter_bit_for_bit(self, fs):
        """preprocess filters the detection lead alone over the whole record
        and every lead over a prefix of whole CHUNKs, and relies on both
        giving the very values of one call over the whole record. (A prefix
        cut inside a chunk may round differently: the block products then
        have other shapes.)"""
        f = dsp.design_highpass(0.5, fs)
        n = 3 * dsp.CHUNK + 5000
        x = np.random.default_rng(int(fs)).normal(size=(12, n)) + 2.0
        full = dsp.apply_filter(f, x)
        for lead in range(12):
            assert np.array_equal(dsp.apply_filter(f, x[lead]), full[lead]), lead
        for chunks in (1, 2):
            m = chunks * dsp.CHUNK
            assert np.array_equal(dsp.apply_filter(f, x[:, :m]), full[:, :m]), chunks
            assert np.array_equal(dsp.apply_filter(f, x[0, :m]), full[0, :m]), chunks

    def test_rejects_scalar_input(self):
        with pytest.raises(ValueError):
            dsp.apply_filter(dsp.design_highpass(0.5, 500.0), 1.0)

    @pytest.mark.parametrize("onset", ["rest", "zi"])
    @pytest.mark.parametrize("fs", [257.0, 360.0, 1000.0])
    def test_block_edges_match_reference(self, fs, onset, scipy_signal):
        """Every length around a block or chunk edge, one lead and twelve;
        "rest" rows start with a zero sample, so the filter starts at rest."""
        rng = np.random.default_rng(int(fs))
        designs = ((dsp.design_highpass, 0.5, "highpass"),
                   (dsp.design_highpass, 8.0, "highpass"),
                   (dsp.design_lowpass, 20.0, "lowpass"))
        lengths = (0, 1, dsp.BLOCK - 1, dsp.BLOCK, dsp.BLOCK + 1,
                   dsp.CHUNK - 1, dsp.CHUNK + 1)
        for design, cutoff, btype in designs:
            b, a = scipy_signal.butter(2, cutoff, btype=btype, fs=fs)
            f = design(cutoff, fs)
            for n in lengths:
                for shape in ((n,), (12, n)):
                    x = rng.normal(size=shape) + 5.0
                    if onset == "rest":
                        x[..., :1] = 0.0
                    ours = dsp.apply_filter(f, x)
                    assert ours.shape == x.shape
                    if n:
                        if onset == "rest":
                            ref = scipy_signal.lfilter(b, a, x)
                        else:
                            zi = scipy_signal.lfilter_zi(b, a) * x[..., :1]
                            ref, _ = scipy_signal.lfilter(b, a, x, zi=zi)
                        err = np.abs(ours - ref).max()
                        assert err < 1e-9, (design.__name__, cutoff, n, shape, err)

    def test_memory_bounded_by_output(self):
        # the scan works a chunk at a time: beyond the 16 MB output it needs
        # a few chunk-sized buffers (256 KiB each), however long the signal
        f = dsp.design_highpass(0.5, 500.0)
        x = np.random.default_rng(5).normal(size=2_000_000)
        dsp.apply_filter(f, x[:10])  # builds and caches the block operators
        tracemalloc.start()
        try:
            y = dsp.apply_filter(f, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= y.nbytes + (2 << 20)

    def test_step_init_removes_onset_transient(self):
        f = dsp.design_highpass(8.0, 500.0)
        const = np.full(1000, 3.3)
        assert np.abs(dsp.apply_filter(f, const)).max() == 0.0
        # the state comes from the first sample: a step after it rings
        assert np.abs(dsp.apply_filter(f, np.concatenate(([0.0], const)))).max() > 0.1

    def test_step_init_matches_reference_initial_conditions(self, scipy_signal):
        f = dsp.design_lowpass(15.0, 500.0)
        x = np.random.default_rng(3).normal(size=500) + 5.0
        ours = dsp.apply_filter(f, x)
        b, a = scipy_signal.butter(2, 15.0, btype="lowpass", fs=500.0)
        zi = scipy_signal.lfilter_zi(b, a) * x[0]
        ref, _ = scipy_signal.lfilter(b, a, x, zi=zi)
        assert np.abs(ours - ref).max() < 1e-10


class TestBandpass:
    def test_band_edges(self):
        fs = 500.0
        t = np.arange(5000) / fs
        inband = np.sin(2 * np.pi * 12.0 * t)
        below = np.sin(2 * np.pi * 0.2 * t)
        above = np.sin(2 * np.pi * 100.0 * t)
        y_in = dsp.bandpass(inband, fs, 8.0, 20.0)
        y_lo = dsp.bandpass(below, fs, 8.0, 20.0)
        y_hi = dsp.bandpass(above, fs, 8.0, 20.0)
        tail = slice(2500, None)
        assert np.abs(y_in[tail]).max() > 0.7
        assert np.abs(y_lo[tail]).max() < 0.05
        assert np.abs(y_hi[tail]).max() < 0.05


class TestPeakList:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            dsp.PeakList(np.array([10, 10, 20]), 500.0)
        with pytest.raises(ValueError):
            dsp.PeakList(np.array([20, 10]), 500.0)

    def test_len_and_iter(self):
        p = dsp.PeakList(np.array([5, 10, 400]), 500.0)
        assert len(p) == 3
        assert list(p) == [5, 10, 400]

    def test_empty_ok(self):
        assert len(dsp.PeakList(np.empty(0, np.int64), 500.0)) == 0


FS = 500.0


class TestMovingAverage:
    @pytest.mark.parametrize("n, width", [(1000, 1), (1000, 2), (1000, 60), (1000, 61),
                                          (1000, 300), (1000, 999), (1000, 1000),
                                          (7, 7), (432_000, 43), (432_000, 216)])
    def test_matches_convolution_window(self, n, width):
        # squared signal, as the detector feeds it, with a 1e6x artifact: the
        # running sum's rounding stays far below any threshold margin
        x = np.random.default_rng(n + width).normal(size=n) ** 2
        x[n // 3] *= 1e6
        ref = np.convolve(x, np.ones(width) / width, mode="same")
        ours = dsp._moving_average(x, width, (width - 1) // 2)
        assert ours.shape == ref.shape
        assert np.abs(ours - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_window_is_centred_with_zeros_beyond_ends(self):
        # an impulse at i shows up in outputs i - h .. i + (width - 1 - h)
        for width in (4, 5):
            x = np.zeros(12)
            x[6] = float(width)
            h = (width - 1) // 2
            hit = np.flatnonzero(np.abs(dsp._moving_average(x, width, h)) > 0.5)
            assert hit.tolist() == list(range(6 - h, 6 + width - h))
            edge = dsp._moving_average(np.ones(12), width, h)
            assert edge[0] == pytest.approx((h + 1) / width)
            assert edge[-1] == pytest.approx((width - h) / width)


def loop_run_peaks(above, filtered, w1):
    """The two-average detector's per-run peak loop before it was vectorized."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], above.astype(np.int8), [0]))))
    starts, ends = edges[0::2], edges[1::2]
    peaks = [s + int(np.argmax(np.abs(filtered[s:e])))
             for s, e in zip(starts, ends) if e - s >= w1]
    return peaks


class TestRunPeaks:
    @pytest.mark.parametrize("above, filtered, w1", [
        # ties: equal magnitudes, of either sign, pick the first
        ([0, 1, 1, 1, 1, 0], [9.0, 2.0, -3.0, 3.0, -3.0, 9.0], 2),
        ([1, 1, 1, 0, 1, 1, 1], [5.0, 5.0, 5.0, 0.0, -1.0, 1.0, -1.0], 1),
        # a near tie is not a tie
        ([1, 1, 1, 1], [0.0, 5.0, -5.000001, 5.0], 1),
        # runs shorter than w1 are dropped, longer ones kept
        ([1, 0, 1, 1, 0, 1, 1, 1, 0], [1.0, 0.0, 2.0, 3.0, 0.0, 4.0, -6.0, 5.0, 0.0], 3),
        # no runs at all, and none long enough
        ([0, 0, 0, 0], [1.0, 2.0, 3.0, 4.0], 1),
        ([1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0], 2),
        # a run at each end of the signal, and one covering all of it
        ([1, 1, 0, 0, 1, 1], [-4.0, 1.0, 9.0, 9.0, 2.0, -2.0], 2),
        ([1, 1, 1], [0.0, 0.0, 0.0], 1),
        ([1], [-2.0], 1),
    ])
    def test_matches_loop(self, above, filtered, w1):
        above, filtered = np.asarray(above, dtype=bool), np.asarray(filtered)
        assert dsp._run_peaks(above, filtered, w1) == loop_run_peaks(above, filtered, w1)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_on_random_runs(self, seed):
        rng = np.random.default_rng(seed)
        # runs of every length; magnitudes rounded so that ties are common
        above = np.repeat(rng.random(400) < 0.5, rng.integers(1, 30, size=400))
        filtered = np.round(rng.normal(size=above.size), 1)
        for w1 in (1, 5, 12):
            assert dsp._run_peaks(above, filtered, w1) == loop_run_peaks(above, filtered, w1)


class TestPanTompkinsIntegration:
    @pytest.mark.parametrize("n, w", [(432_000, 54), (5000, 75), (10, 3), (3, 7)])
    def test_matches_index_gather(self, n, w):
        sq = np.random.default_rng(n).normal(size=n) ** 2
        csum = np.concatenate(([0.0], np.cumsum(sq)))
        mwi = (csum[1:] - csum[np.maximum(np.arange(sq.size) - w + 1, 0)]) / w
        assert np.array_equal(dsp._moving_average(sq, w, 0), mwi)


class TestDetectors:
    @pytest.mark.parametrize("detect", list(dsp.DETECTORS.values()),
                             ids=list(dsp.DETECTORS))
    def test_flat_signal_no_peaks(self, detect):
        assert len(detect(np.zeros(5000), FS)) == 0
        assert len(detect(np.full(5000, 3.3), FS)) == 0

    @pytest.mark.parametrize("detect", list(dsp.DETECTORS.values()),
                             ids=list(dsp.DETECTORS))
    def test_too_short_signal_is_empty(self, detect):
        assert len(detect(np.ones(50), FS)) == 0

    @pytest.mark.parametrize("name", list(dsp.DETECTORS))
    def test_steady_rhythm_counts_and_localization(self, name):
        detect = dsp.DETECTORS[name]
        x, truth = synth.wavelet_train(FS, 20.0, 72, snr_db=30, seed=1)
        peaks = np.asarray(list(detect(x, FS)))
        tp, fp, fn = synth.match_peaks(peaks, truth, FS, window_s=0.05)
        assert tp >= len(truth) - 1, (name, tp, len(truth))
        assert fp == 0, (name, fp)
        matched = [p for p in peaks
                   if np.min(np.abs(truth - p)) <= 0.05 * FS]
        worst = max(int(np.min(np.abs(truth - p))) for p in matched)
        assert worst <= 25, (name, worst)

    @pytest.mark.parametrize("name", list(dsp.DETECTORS))
    def test_single_beat_found(self, name):
        x = np.zeros(5000)
        t = np.arange(5000) / FS
        c = 2500 / FS
        x += np.exp(-0.5 * ((t - c) / synth.SIGMA_S) ** 2) \
            * np.cos(2 * np.pi * synth.CARRIER_HZ * (t - c))
        peaks = list(dsp.DETECTORS[name](x, FS))
        assert len(peaks) == 1
        assert abs(peaks[0] - 2500) <= 25

    @pytest.mark.parametrize("name", list(dsp.DETECTORS))
    def test_refractory_spacing(self, name):
        # 240 bpm spacing (250 ms) stays detectable; the refractory keeps
        # any output at least 200 ms apart regardless of input
        x, _ = synth.wavelet_train(FS, 12.0, 240)
        peaks = np.asarray(list(dsp.DETECTORS[name](x, FS)))
        if peaks.size > 1:
            assert np.diff(peaks).min() >= int(0.2 * FS)

    @pytest.mark.parametrize("name", list(dsp.DETECTORS))
    def test_amplitude_scale_invariance(self, name):
        x, _ = synth.wavelet_train(FS, 15.0, 80, snr_db=25, seed=2)
        a = list(dsp.DETECTORS[name](x, FS))
        b = list(dsp.DETECTORS[name](x * 50.0, FS))
        assert a == b

    @pytest.mark.parametrize("name", list(dsp.DETECTORS))
    def test_dc_offset_invariance(self, name):
        x, _ = synth.wavelet_train(FS, 15.0, 80, snr_db=25, seed=3)
        a = list(dsp.DETECTORS[name](x, FS))
        b = list(dsp.DETECTORS[name](x + 100.0, FS))
        assert a == b

    @pytest.mark.parametrize("name", list(dsp.DETECTORS))
    def test_low_sample_rate_rejected(self, name):
        with pytest.raises(InvalidMetadataError):
            dsp.DETECTORS[name](np.zeros(1000), 50.0)

    def test_registry_names(self):
        assert set(dsp.DETECTORS) == {"two_average", "pan_tompkins"}
