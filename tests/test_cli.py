import errno
import gc
import io
import json
import os
import shutil
import struct
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import synth
from beatformer import autodiff as ad
from beatformer import cli
from beatformer import training as tr
from beatformer import transformer as tfm
from beatformer.beat_tokenizer import MAX_POS, build_sequence, fuse_rms, load_tokens, save_tokens
from beatformer.cli import build_config, main, read_config_file
from beatformer.dsp import CHUNK, DETECTORS, apply_filter, design_highpass
from beatformer.ecg_io import (EcgRecord, _check_scaled_range, _parse_gain_token, load_record,
                                read_lines, rescale_peaks, resample_record)
from beatformer.errors import (BeatformerError, ConfigError, FormatError, InconsistencyError,
                               InvalidMetadataError)


def write_wfdb(dirpath, name, leads, fs, names=None, labels=None, mat=False):
    """A WFDB record of [num_leads, n] millivolts at gain 1000 (see synth.write_wfdb)."""
    synth.write_wfdb(dirpath, name, np.round(leads * 1000.0), fs, names, labels, mat=mat)


def write_wfdb_wavelet(dirpath, name, bpm=66, fs=500.0, duration_s=12.0,
                       labels=None, mat=False):
    x, peaks = synth.wavelet_train(fs, duration_s, bpm)
    write_wfdb(dirpath, name, x[None], fs, names=["II"], labels=labels, mat=mat)
    return peaks


class TestConfigFile:
    def test_parse_basic(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nmodel.d_model=8\n\noptim.epochs = 3\n"
                     "data.detector=pan_tompkins\n")
        vals = read_config_file(str(p))
        assert vals == {"model.d_model": "8", "optim.epochs": "3",
                        "data.detector": "pan_tompkins"}

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("model.d_model=8\nmodel.d_model=16\n")
        with pytest.raises(ConfigError, match="duplicate"):
            read_config_file(str(p))

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("model.d_model 8\n")
        with pytest.raises(ConfigError):
            read_config_file(str(p))

    def test_checkpoint_header_is_a_config_file(self, tmp_path):
        mcfg = tfm.ModelConfig(d_model=8, n_encoders=1, n_heads=2, dff=16,
                               d_class=3, dropout_rate=0.25, causal=False,
                               head=tfm.CLASSIFIER)
        ocfg = tr.OptimizerConfig(d_model=8, epsilon=1e-9, beta2=0.999,
                                  warmup_steps=8, batch_size=4, epochs=3,
                                  threshold=0.3)
        params = tfm.init_params(mcfg, seed=0)
        ckpt = tmp_path / "m.ckpt"
        tr.save_training_checkpoint(str(ckpt), params,
                                    tr.AdamState.for_params(params),
                                    mcfg, ocfg, 0)
        header, _ = ad.load_checkpoint(str(ckpt))
        (tmp_path / "c.cfg").write_text(header)
        cfg = build_config(read_config_file(str(tmp_path / "c.cfg")))
        assert cfg.model == mcfg
        assert cfg.optim == ocfg


class TestBuildConfig:
    def test_defaults(self):
        cfg = build_config()
        assert cfg.model.d_model == 1000
        assert cfg.optim.d_model == 1000
        assert cfg.detector == "two_average"
        assert cfg.target_fs == 500.0

    def test_unknown_key(self):
        # removed knobs, and a nested config object, are not settable keys
        for key in ("model.hidden", "model.d_qkv", "data.val_manifest",
                    "data.model"):
            with pytest.raises(ConfigError, match="unknown config key"):
                build_config({key: "8"})
        with pytest.raises(ConfigError):
            build_config({"misc.x": "1"})

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            build_config({"model.d_model": "large"})
        with pytest.raises(ConfigError):
            build_config({"model.causal": "maybe"})

    def test_invalid_model_config_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            build_config({"model.dropout_rate": "1.5"})

    def test_optim_d_model_follows_model(self):
        cfg = build_config({"model.d_model": "8", "model.n_heads": "2"})
        assert cfg.optim.d_model == 8

    def test_explicit_optim_d_model_wins(self):
        cfg = build_config({"model.d_model": "8", "model.n_heads": "2",
                            "optim.d_model": "64"})
        assert cfg.optim.d_model == 64

    def test_overrides_beat_file_values(self):
        cfg = build_config({"data.seed": "3", "data.out_dir": "fromfile"},
                           {"seed": 7, "out_dir": None})
        assert cfg.seed == 7          # flag wins
        assert cfg.out_dir == "fromfile"  # None override means not given

    def test_detector_validated(self):
        with pytest.raises(ConfigError, match="unknown detector"):
            build_config({"data.detector": "wavelet"})

    def test_leads_parsed(self):
        cfg = build_config({"data.leads": "I, II ,V1"})
        assert cfg.leads == ["I", "II", "V1"]

    def test_bool_values(self):
        for raw, value in [("true", True), ("1", True), ("yes", True),
                           ("False", False), ("0", False), ("no", False)]:
            assert build_config({"model.causal": raw}).model.causal is value


@pytest.fixture
def record_dir(tmp_path):
    d = tmp_path / "records"
    d.mkdir()
    synth.wavelet_csv(d / "r1.csv", bpm=72, labels="AF")
    synth.wavelet_csv(d / "r2.csv", bpm=60, labels="PVC;XX")
    # flat record: labeled, but carries no heartbeats
    flat = "#fs=500\n#gain=1000\n#labels=AF\nI\n" + "\n".join(["0"] * 6000) + "\n"
    (d / "r3.csv").write_text(flat)
    write_wfdb_wavelet(d, "r4", bpm=66, labels=["SB"])
    # unscored-only labels
    synth.wavelet_csv(d / "r5.csv", bpm=80, labels="XX;YY")
    return d


@pytest.fixture
def label_map(tmp_path):
    p = tmp_path / "labels.txt"
    p.write_text("AF,0\nPVC,1\nSB,2\n")
    return str(p)


class TestPreprocess:
    def test_end_to_end_with_label_map(self, record_dir, tmp_path, label_map,
                                       capsys):
        out = tmp_path / "out"
        rc = main(["preprocess", str(record_dir), "--out", str(out),
                   "--label-map", label_map])
        assert rc == 0
        manifest = (out / "manifest.tsv").read_text().splitlines()
        assert manifest == ["r1.tokens\t0", "r2.tokens\t1", "r4.tokens\t2"]
        skips = dict(line.split("\t") for line in
                     (out / "skip_report.txt").read_text().splitlines())
        assert skips[str(record_dir / "r3.csv")] == "no beats detected"
        assert skips[str(record_dir / "r5.csv")] == "no scored labels"
        seq = load_tokens(str(out / "r1.tokens"))
        assert seq.d_model == 1000
        assert 10 <= seq.n_real <= 16  # ~14 beats at 72 bpm over 12 s
        assert "preprocessed 3 of 5" in capsys.readouterr().out

    def test_without_label_map_keeps_unlabeled(self, record_dir, tmp_path):
        out = tmp_path / "out"
        rc = main(["preprocess", str(record_dir), "--out", str(out)])
        assert rc == 0
        manifest = (out / "manifest.tsv").read_text().splitlines()
        # every record with beats survives; label fields are empty
        assert manifest == ["r1.tokens\t", "r2.tokens\t", "r4.tokens\t",
                            "r5.tokens\t"]

    def test_rerun_byte_identical(self, record_dir, tmp_path, label_map):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["preprocess", str(record_dir), "--out", str(out),
                         "--label-map", label_map]) == 0
        for name in ("manifest.tsv", "r1.tokens", "r2.tokens", "r4.tokens"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_detector_choice(self, record_dir, tmp_path):
        out = tmp_path / "out"
        rc = main(["preprocess", str(record_dir), "--out", str(out),
                   "--detector", "pan_tompkins"])
        assert rc == 0
        seq = load_tokens(str(out / "r1.tokens"))
        assert seq.n_real >= 10

    def test_empty_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        rc = main(["preprocess", str(empty), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "no .csv or .hea records" in error_line(capsys)
        assert not (tmp_path / "o").exists()

    def test_malformed_record_reported_run_continues(self, record_dir,
                                                     tmp_path):
        (record_dir / "bad.csv").write_text("#fs=500\nI\n10\n")  # gain missing
        out = tmp_path / "out"
        rc = main(["preprocess", str(record_dir), "--out", str(out)])
        assert rc == 0
        skips = (out / "skip_report.txt").read_text()
        assert "bad.csv" in skips and "gain" in skips
        assert "r1.tokens" in (out / "manifest.tsv").read_text()

    def test_unreadable_record_reported_run_continues(self, record_dir, tmp_path):
        (record_dir / "folder.csv").mkdir()  # listed as a record, cannot be read
        out = tmp_path / "out"
        rc = main(["preprocess", str(record_dir), "--out", str(out)])
        assert rc == 0
        skips = (out / "skip_report.txt").read_text().splitlines()
        assert any("folder.csv" in line for line in skips)
        assert "r1.tokens" in (out / "manifest.tsv").read_text()

    @pytest.mark.parametrize("kind", ["csv", "wfdb"])
    def test_non_utf8_record_reported_run_continues(self, record_dir, tmp_path,
                                                    kind):
        if kind == "csv":
            (record_dir / "bad.csv").write_bytes(b"#fs=500\n#gain=1000\nI\n\xff\xfe10\n")
        else:
            write_wfdb_wavelet(record_dir, "bad")
            header = record_dir / "bad.hea"
            header.write_bytes(header.read_bytes() + b"#Dx: \xff\xfe\n")
        out = tmp_path / "out"
        rc = main(["preprocess", str(record_dir), "--out", str(out)])
        assert rc == 0
        skips = (out / "skip_report.txt").read_text().splitlines()
        assert any(f"bad.{'csv' if kind == 'csv' else 'hea'}" in line
                   and "UTF-8" in line for line in skips)
        assert "r1.tokens" in (out / "manifest.tsv").read_text()

    def test_label_map_loaded_once(self, record_dir, tmp_path, label_map,
                                   monkeypatch):
        calls = []
        load = cli.load_label_map
        monkeypatch.setattr(cli, "load_label_map",
                            lambda path: calls.append(path) or load(path))
        assert main(["preprocess", str(record_dir), "--out", str(tmp_path / "o"),
                     "--label-map", label_map]) == 0
        assert calls == [label_map]

    @pytest.mark.parametrize("damage", ["missing", "malformed", "not_utf8"])
    def test_bad_label_map_is_an_error_line(self, record_dir, tmp_path, capsys,
                                            damage):
        lmap = tmp_path / "labels.txt"
        if damage == "malformed":
            lmap.write_text("AF,0\nnot a label line\n")
        elif damage == "not_utf8":
            lmap.write_bytes(b"AF,0\n\xff\xfe,1\n")
        rc = main(["preprocess", str(record_dir), "--out", str(tmp_path / "o"),
                   "--label-map", str(lmap)])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(lmap) in err[0]
        assert captured.out == ""

    def test_low_rate_record_skipped(self, tmp_path):
        d = tmp_path / "records"
        d.mkdir()
        synth.wavelet_csv(d / "slow.csv", fs=90.0)
        synth.wavelet_csv(d / "good.csv")
        out = tmp_path / "out"
        rc = main(["preprocess", str(d), "--out", str(out)])
        assert rc == 0
        skips = (out / "skip_report.txt").read_text().splitlines()
        assert len(skips) == 1 and "slow.csv" in skips[0] and "100 Hz" in skips[0]
        assert (out / "manifest.tsv").read_text() == "good.tokens\t\n"

    def test_lead_selection(self, record_dir, tmp_path):
        out = tmp_path / "out"
        rc = main(["preprocess", str(record_dir / "..") if False
                   else str(record_dir), "--out", str(out), "--leads", "I"])
        assert rc == 0
        # r4 (wfdb) has only lead II; selecting I skips it
        skips = (out / "skip_report.txt").read_text()
        assert "r4" in skips

    @pytest.mark.parametrize("lead, skip", [(None, None),
                                            ("II", "no beats detected"),
                                            ("V9", "no lead named 'V9'")])
    def test_detection_lead(self, tmp_path, lead, skip):
        d = tmp_path / "records"
        d.mkdir()
        synth.wavelet_csv(d / "r.csv", lead_scales=(1.0, 0.0))  # lead II is flat
        out = tmp_path / "out"
        argv = ["preprocess", str(d), "--out", str(out)]
        if lead:
            (tmp_path / "lead.cfg").write_text(f"data.lead={lead}\n")
            argv += ["--config", str(tmp_path / "lead.cfg")]
        assert main(argv) == (0 if skip is None else 1)
        skips = (out / "skip_report.txt").read_text()
        assert skips == ("" if skip is None else f"{d / 'r.csv'}\t{skip}\n")

    @pytest.mark.parametrize("line", ["data.target_fs=0", "data.target_fs=-250",
                                      "data.highpass_hz=0", "data.highpass_hz=-1",
                                      "data.target_fs=inf", "data.target_fs=nan",
                                      "data.highpass_hz=inf"])
    def test_non_positive_rate_is_an_error_line(self, record_dir, tmp_path, capsys,
                                                line):
        (tmp_path / "rate.cfg").write_text(line + "\n")
        rc = main(["preprocess", str(record_dir), "--out", str(tmp_path / "out"),
                   "--config", str(tmp_path / "rate.cfg")])
        assert rc == 1
        assert f"{line.split('=')[0]} must be positive" in error_line(capsys)

    def test_parallel_workers_match_serial(self, record_dir, tmp_path,
                                           label_map):
        (record_dir / "bad.csv").write_text("#fs=500\n#gain=1000\n#labels=AF\nI\n1\nx\n")
        serial, parallel = tmp_path / "s", tmp_path / "p"
        cfgfile = tmp_path / "w.cfg"
        cfgfile.write_text("data.workers=2\n")
        assert main(["preprocess", str(record_dir), "--out", str(serial),
                     "--label-map", label_map]) == 0
        assert main(["preprocess", str(record_dir), "--out", str(parallel),
                     "--label-map", label_map, "--config", str(cfgfile)]) == 0
        outputs = sorted(os.listdir(serial))
        assert outputs == sorted(os.listdir(parallel))
        assert {"manifest.tsv", "skip_report.txt", "r1.tokens"} <= set(outputs)
        for name in outputs:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name
        assert "bad.csv" in (serial / "skip_report.txt").read_text()


def add_bom(path):
    """Prefix the file with a UTF-8 byte-order mark, as spreadsheet exports do."""
    with open(path, "rb") as fh:
        text = fh.read()
    with open(path, "wb") as fh:
        fh.write(b"\xef\xbb\xbf" + text)


class TestByteOrderMark:
    """A leading byte-order mark changes no output of any text input."""

    @pytest.mark.parametrize("kind", ["csv", "hea", "label_map"])
    def test_preprocess_input(self, record_dir, tmp_path, label_map, kind):
        # r1.csv carries AF, the label map's first code; r4.hea's record
        # line names the record
        marked = {"csv": record_dir / "r1.csv", "hea": record_dir / "r4.hea",
                  "label_map": label_map}[kind]
        for run in ("plain", "marked"):
            if run == "marked":
                add_bom(marked)
            assert main(["preprocess", str(record_dir), "--out", str(tmp_path / run),
                         "--label-map", label_map]) == 0
        for name in ("manifest.tsv", "skip_report.txt", "r1.tokens", "r2.tokens",
                     "r4.tokens"):
            assert (tmp_path / "plain" / name).read_bytes() \
                == (tmp_path / "marked" / name).read_bytes(), name

    @pytest.mark.parametrize("kind", ["manifest", "config"])
    def test_training_input(self, token_workspace, kind):
        ws = token_workspace
        for run in ("plain", "marked"):
            if run == "marked":
                add_bom(ws / ("manifest.tsv" if kind == "manifest" else "model.cfg"))
            assert main(["train", "--config", str(ws / "model.cfg"), "--manifest",
                         str(ws / "manifest.tsv"), "--out", str(ws / run),
                         "--max-steps", "1"]) == 0
        assert (ws / "plain" / "model.ckpt").read_bytes() \
            == (ws / "marked" / "model.ckpt").read_bytes()


def long_leads(fs, duration_s, num_leads, seed=0, bpm=72):
    """[num_leads, n] millivolts: one wavelet per beat at a slightly uneven
    rate, scaled per lead, over baseline wander and noise. Each wavelet is
    added over its own 0.3 s only, so half an hour of 12 leads is quick."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * fs)
    half = int(0.15 * fs)
    t = np.arange(-half, half + 1) / fs
    wave = np.exp(-0.5 * (t / synth.SIGMA_S) ** 2) * np.cos(2 * np.pi * synth.CARRIER_HZ * t)
    scales = rng.uniform(-1.5, 1.5, size=(num_leads, 1))
    leads = 0.02 * rng.normal(size=(num_leads, n))
    leads += 0.2 * np.sin(2 * np.pi * rng.uniform(0.1, 0.4, size=(num_leads, 1))
                          * np.arange(n) / fs)
    c = half
    while c + half < n:
        leads[:, c - half : c + half + 1] += scales * wave
        c += int(fs * 60.0 / bpm * rng.uniform(0.95, 1.05))
    return leads


def full_length_tokens(path, cfg):
    """preprocess's tokens as they were made over the whole record: every
    lead high-passed, resampled and fused in full."""
    rec = load_record(path)
    hp = design_highpass(cfg.highpass_hz, rec.fs)
    rec = replace(rec, leads=apply_filter(hp, rec.leads))
    peaks = DETECTORS[cfg.detector](rec.leads[0], rec.fs)
    rec = resample_record(rec, cfg.target_fs)
    indices = rescale_peaks(peaks.indices, peaks.fs, cfg.target_fs)
    indices = indices[indices < rec.num_samples]
    fused = fuse_rms(rec)
    return build_sequence(fused, indices)


class TestTokenizedSpan:
    @pytest.mark.parametrize("minutes, num_leads, fs", [(20, 2, 360.0), (30, 12, 257.0)])
    def test_long_record_matches_full_length_pipeline(self, tmp_path, monkeypatch,
                                                      minutes, num_leads, fs):
        d = tmp_path / "records"
        d.mkdir()
        write_wfdb(d, "long", long_leads(fs, minutes * 60.0, num_leads), fs)
        seen = []
        resample = cli.resample_record
        monkeypatch.setattr(cli, "resample_record",
                            lambda rec, target: seen.append(rec.num_samples)
                            or resample(rec, target))
        out = tmp_path / "out"
        assert main(["preprocess", str(d), "--out", str(out)]) == 0
        ref = full_length_tokens(str(d / "long.hea"), build_config())
        assert ref.n_real == MAX_POS
        save_tokens(str(tmp_path / "ref.tokens"), ref)
        assert (out / "long.tokens").read_bytes() == (tmp_path / "ref.tokens").read_bytes()
        # 50 beats at about 72 bpm span about 42 s: within one filter chunk
        assert seen == [CHUNK]

    def test_lead_silent_over_the_span_is_left_out_of_the_fusion(self, tmp_path):
        d = tmp_path / "records"
        d.mkdir()
        fs = 360.0
        leads = long_leads(fs, 60.0, 2, seed=1)
        leads[1, : int(50 * fs)] = 0.0   # the 50th beat's window ends near 42 s
        write_wfdb(d, "r", leads, fs)
        both, first = tmp_path / "both", tmp_path / "first"
        assert main(["preprocess", str(d), "--out", str(both)]) == 0
        assert main(["preprocess", str(d), "--out", str(first), "--leads", "L0"]) == 0
        tokens = (both / "r.tokens").read_bytes()
        assert tokens == (first / "r.tokens").read_bytes()
        # over the whole record, lead L1 is active and joins the fusion
        save_tokens(str(tmp_path / "ref.tokens"),
                    full_length_tokens(str(d / "r.hea"), build_config()))
        assert tokens != (tmp_path / "ref.tokens").read_bytes()

    @pytest.mark.parametrize("case, reason", [
        ("no_samples", "record r has no samples"),
        ("resampled_to_nothing", "record r: resampling to 500.0 Hz leaves no samples"),
        ("flat", "no beats detected"),
        ("one_lead_flat", "no beats detected"),
        ("one_lead", None),
    ])
    def test_skip_reasons(self, tmp_path, case, reason):
        d = tmp_path / "records"
        d.mkdir()
        synth.wavelet_csv(d / "good.csv")
        if case == "no_samples":
            write_wfdb(d, "r", np.zeros((2, 0)), 360.0)
        elif case == "resampled_to_nothing":
            (d / "r.csv").write_text("#fs=1000\n#gain=1000\nI\n5\n")
        elif case == "one_lead":
            write_wfdb_wavelet(d, "r")
        else:
            write_wfdb(d, "r", np.zeros((1 if case == "one_lead_flat" else 2, 6000)), 500.0)
        out = tmp_path / "out"
        assert main(["preprocess", str(d), "--out", str(out)]) == 0
        skips = (out / "skip_report.txt").read_text().splitlines()
        if reason is None:
            assert skips == []
            assert (out / "manifest.tsv").read_text() == "good.tokens\t\nr.tokens\t\n"
        else:
            assert [line.split("\t")[1] for line in skips] == [reason]
            assert (out / "manifest.tsv").read_text() == "good.tokens\t\n"


TWELVE_LEADS = ["I", "II", "III", "aVR", "aVL", "aVF", "V1", "V2", "V3", "V4", "V5", "V6"]
# the reduced lead sets the challenge scores besides all twelve
LEAD_SETS = {6: ["I", "II", "III", "aVR", "aVL", "aVF"], 4: ["I", "II", "III", "V2"],
             3: ["I", "II", "V2"], 2: ["I", "II"]}


def twelve_lead_counts(seed):
    """[12, 6000] int16 counts at gain 1000: a 12-s, 500-Hz wavelet train,
    its scale and sign drawn per lead."""
    x, _ = synth.wavelet_train(500.0, 12.0, 70)
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.3, 1.5, size=(12, 1)) * rng.choice([-1.0, 1.0], size=(12, 1))
    return np.round(scales * x * 1000.0).astype("<i2")


class TestChallengeRecords:
    """The CinC 2021 layout: a .hea header plus a MAT v4 .mat sample file."""

    def test_mat_caches_equal_dat_caches(self, tmp_path):
        outs = []
        for mat in (False, True):
            d = tmp_path / f"records{int(mat)}"
            d.mkdir()
            for i in range(3):
                synth.write_wfdb(d, f"r{i}", twelve_lead_counts(i), 500.0, TWELVE_LEADS,
                                 labels=["AF"], mat=mat)
            outs.append(tmp_path / f"out{int(mat)}")
            assert main(["preprocess", str(d), "--out", str(outs[-1])]) == 0
        dat, mat = outs
        for out in outs:
            assert (out / "skip_report.txt").read_text() == ""
            assert (out / "manifest.tsv").read_text() == "".join(
                f"r{i}.tokens\t\n" for i in range(3))
        for i in range(3):
            assert (mat / f"r{i}.tokens").read_bytes() == (dat / f"r{i}.tokens").read_bytes()

    @pytest.mark.parametrize("count", sorted(LEAD_SETS))
    def test_mat_record_under_each_lead_set(self, tmp_path, count):
        d = tmp_path / "records"
        d.mkdir()
        synth.write_wfdb(d, "A0001", twelve_lead_counts(7), 500.0, TWELVE_LEADS, mat=True)
        out = tmp_path / "out"
        assert main(["preprocess", str(d), "--out", str(out),
                     "--leads", ",".join(LEAD_SETS[count])]) == 0
        assert (out / "skip_report.txt").read_text() == ""
        assert (out / "manifest.tsv").read_text() == "A0001.tokens\t\n"
        assert 10 <= load_tokens(str(out / "A0001.tokens")).n_real <= 16


def csv_text():
    """A 12-s, two-lead, 500-Hz CSV recording as text lines."""
    x, _ = synth.wavelet_train(500.0, 12.0, 72)
    counts = np.round(np.stack([x, 0.8 * x]) * 1000.0).astype(int)
    return (["#fs=500", "#gain=1000,1000", "I,II"]
            + [f"{a},{b}" for a, b in counts.T])


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def swap_line(lines, old, new):
    return [new if line == old else line for line in lines]


def set_wfdb_gain(d, name, gain):
    hea = d / f"{name}.hea"
    hea.write_text(hea.read_text().replace(" 1000(0)/mV", f" {gain}(0)/mV"))


class TestNonFiniteInput:
    @pytest.mark.parametrize("case, reason", [
        ("sample_nan", "r.csv:104: non-finite sample"),
        ("sample_inf", "r.csv:104: non-finite sample"),
        ("csv_gain_nan", "r.csv:2: ADC gain must be finite, got 'nan'"),
        ("csv_gain_inf", "r.csv:2: ADC gain must be finite, got 'inf'"),
        ("wfdb_gain_nan", "r.hea lead 0: ADC gain must be finite, got 'nan(0)/mV'"),
        ("wfdb_gain_inf", "r.hea lead 0: ADC gain must be finite, got 'inf(0)/mV'"),
    ])
    def test_skip_line_names_the_value(self, tmp_path, capsys, case, reason):
        d = tmp_path / "records"
        d.mkdir()
        lines = csv_text()
        write_lines(d / "good.csv", lines)
        if case.startswith("sample_"):
            lines[103] = lines[103].split(",")[0] + "," + case[len("sample_"):]
            write_lines(d / "r.csv", lines)
            bad = d / "r.csv"
        elif case.startswith("csv_gain_"):
            write_lines(d / "r.csv", swap_line(lines, "#gain=1000,1000",
                                                f"#gain={case[-3:]},1000"))
            bad = d / "r.csv"
        else:
            write_wfdb_wavelet(d, "r")
            set_wfdb_gain(d, "r", case[-3:])
            bad = d / "r.hea"
        out = tmp_path / "out"
        assert main(["preprocess", str(d), "--out", str(out)]) == 0
        skips = (out / "skip_report.txt").read_text().splitlines()
        assert len(skips) == 1
        path, why = skips[0].split("\t")
        assert path == str(bad) and why.endswith(reason), why
        assert (out / "manifest.tsv").read_text() == "good.tokens\t\n"
        assert capsys.readouterr().err == ""


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case, value, reason", [
        ("sample", "1e200", "r.csv:104: value 1e+200 at gain 1000 is beyond 1e+30 mV once scaled"),
        ("csv_gain", "1e-310",
         "r.csv:629: value 1000 at gain 1e-310 is beyond 1e+30 mV once scaled"),
        ("wfdb_gain", "1e-310",
         "r.dat lead II, sample 1591: value 1000 at gain 1e-310 is beyond 1e+30 mV once scaled"),
        # just inside the bound: 9.99e29 mV once scaled, tokenized without overflow
        ("sample", "9.99e32", None),
    ])
    def test_scaled_value_beyond_bound_is_a_skip_line(self, tmp_path, capsys, case, value,
                                                      reason):
        d = tmp_path / "records"
        d.mkdir()
        lines = csv_text()
        write_lines(d / "good.csv", lines)
        if case == "sample":
            lines[103] = lines[103].split(",")[0] + "," + value
            write_lines(d / "r.csv", lines)
            bad = d / "r.csv"
        elif case == "csv_gain":
            write_lines(d / "r.csv", swap_line(lines, "#gain=1000,1000", f"#gain={value},1000"))
            bad = d / "r.csv"
        else:
            write_wfdb_wavelet(d, "r")
            set_wfdb_gain(d, "r", value)
            bad = d / "r.hea"
        out = tmp_path / "out"
        assert main(["preprocess", str(d), "--out", str(out)]) == 0
        skips = (out / "skip_report.txt").read_text().splitlines()
        manifest = (out / "manifest.tsv").read_text()
        if reason is None:
            assert skips == [] and manifest == "good.tokens\t\nr.tokens\t\n"
            assert np.abs(load_tokens(str(out / "r.tokens")).tokens).max() > 1e29
        else:
            assert len(skips) == 1
            path, why = skips[0].split("\t")
            assert path == str(bad) and why.endswith(reason), why
            assert manifest == "good.tokens\t\n"
        assert capsys.readouterr().err == ""


def _cut_row(rng, lines):
    """A sample row cut at or before its last comma: too few values, or an empty one."""
    k = int(rng.integers(3, len(lines)))
    row = lines[k]
    lines[k] = row[: int(rng.integers(1, row.rindex(",") + 2))]
    return lines


def _token_row(rng, lines, token):
    k = int(rng.integers(3, len(lines)))
    vals = lines[k].split(",")
    vals[int(rng.integers(len(vals)))] = token
    lines[k] = ",".join(vals)
    return lines


def _extra_value(rng, lines):
    k = int(rng.integers(3, len(lines)))
    lines[k] += ",7"
    return lines


def _csv_meta(key, value):
    def mutate(rng, lines):
        old = next(line for line in lines if line.startswith(f"#{key}="))
        return [line for line in lines if line != old] if value is None \
            else swap_line(lines, old, f"#{key}={value}")
    return mutate


def _csv_gain(token):
    def mutate(rng, lines):
        gains = ["1000", "1000"]
        gains[int(rng.integers(2))] = token
        return swap_line(lines, "#gain=1000,1000", "#gain=" + ",".join(gains))
    return mutate


CSV_MUTATIONS = {
    "cut_row": _cut_row,
    "non_numeric": lambda rng, lines: _token_row(rng, lines, "x" + str(rng.integers(99))),
    "extra_value": _extra_value,
    "sample_nan": lambda rng, lines: _token_row(rng, lines, "nan"),
    "sample_inf": lambda rng, lines: _token_row(rng, lines, str(rng.choice(["inf", "-inf"]))),
    "gain_nan": _csv_gain("nan"),
    "gain_inf": _csv_gain("inf"),
    "fs_zero": _csv_meta("fs", "0"),
    "fs_negative": _csv_meta("fs", "-500"),
    "fs_nan": _csv_meta("fs", "nan"),
    "no_fs": _csv_meta("fs", None),
    "no_gain": _csv_meta("gain", None),
}


def _hea_record_line(transform):
    def mutate(rng, d, name):
        hea = d / f"{name}.hea"
        lines = hea.read_text().splitlines()
        lines[0] = transform(rng, lines[0].split())
        hea.write_text("\n".join(lines) + "\n")
    return mutate


def _hea_fs(value):
    def transform(rng, fields):
        fields[2] = value
        return " ".join(fields)
    return _hea_record_line(transform)


def _short_dat(rng, d, name):
    dat = d / f"{name}.dat"
    raw = dat.read_bytes()
    dat.write_bytes(raw[: int(rng.integers(0, len(raw)))])


def _drop_signal_line(rng, d, name):
    hea = d / f"{name}.hea"
    hea.write_text(hea.read_text().splitlines()[0] + "\n")


def _bad_offset(rng, d, name):
    """A format field whose byte offset is malformed, negative or wrong."""
    hea = d / f"{name}.hea"
    fmt = "16+" + str(rng.choice(["", "x", "-2", "2", "24"]))
    hea.write_text(hea.read_text().replace(f"{name}.dat 16 ", f"{name}.dat {fmt} "))


def _bad_mat_prefix(rng, d, name):
    """The record as a .mat file whose MAT v4 header is off by one in one
    field: type, mrows, ncols, imagf or namlen."""
    (d / f"{name}.dat").unlink()
    write_wfdb_wavelet(d, name, mat=True)
    mat = d / f"{name}.mat"
    raw = mat.read_bytes()
    fields_ = list(struct.unpack("<5i", raw[:20]))
    fields_[int(rng.integers(5))] += 1
    mat.write_bytes(struct.pack("<5i", *fields_) + raw[20:])


def _nul_in_file_name(rng, d, name):
    hea = d / f"{name}.hea"
    hea.write_text(hea.read_text().replace(f"{name}.dat", f"{name}\0.dat"))


WFDB_MUTATIONS = {
    "gain_nan": lambda rng, d, name: set_wfdb_gain(d, name, "nan"),
    "gain_inf": lambda rng, d, name: set_wfdb_gain(d, name, "inf"),
    "fs_zero": _hea_fs("0"),
    "fs_negative": _hea_fs("-500"),
    "fs_nan": _hea_fs("nan"),
    "record_line_short": _hea_record_line(
        lambda rng, fields: " ".join(fields[: int(rng.integers(1, 4))])),
    "no_signal_line": _drop_signal_line,
    "short_dat": _short_dat,
    "bad_offset": _bad_offset,
    "bad_mat_prefix": _bad_mat_prefix,
    "nul_in_file_name": _nul_in_file_name,
}


class TestMalformedRecordSweep:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_each_bad_record_is_one_skip_line(self, tmp_path, capsys, seed):
        """Two of each mutation, drawn at seeded places, among good records
        of both formats: every bad record is one skip line, every good one
        a cache, and nothing escapes as a traceback or a warning."""
        rng = np.random.default_rng(seed)
        d = tmp_path / "records"
        d.mkdir()
        base = csv_text()
        good, bad = [], []
        for i in range(2):
            write_lines(d / f"good_csv{i}.csv", base)
            write_wfdb_wavelet(d, f"good_wfdb{i}")
            good += [f"good_csv{i}", f"good_wfdb{i}"]
        for i in range(2):
            for kind, mutate in CSV_MUTATIONS.items():
                name = f"csv_{kind}{i}"
                write_lines(d / f"{name}.csv", mutate(rng, list(base)))
                bad.append(str(d / f"{name}.csv"))
            for kind, mutate in WFDB_MUTATIONS.items():
                name = f"wfdb_{kind}{i}"
                write_wfdb_wavelet(d, name)
                mutate(rng, d, name)
                bad.append(str(d / f"{name}.hea"))
        out = tmp_path / "out"
        assert main(["preprocess", str(d), "--out", str(out)]) == 0
        skips = [line.split("\t") for line in
                 (out / "skip_report.txt").read_text().splitlines()]
        assert sorted(path for path, _ in skips) == sorted(bad)
        assert all(why for _, why in skips)
        assert (out / "manifest.tsv").read_text().splitlines() == \
            [f"{name}.tokens\t" for name in sorted(good)]
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"preprocessed {len(good)} of {len(good) + len(bad)}" in captured.out

    @pytest.mark.parametrize("token", ["1_000", "\u0661"])
    def test_number_only_float_reads_is_a_skip_line(self, tmp_path, token):
        """float() reads these and np.loadtxt does not: the record is refused,
        not read by a second grammar."""
        d = tmp_path / "records"
        d.mkdir()
        lines = csv_text()
        write_lines(d / "good.csv", lines)
        lines[103] = lines[103].split(",")[0] + "," + token
        (d / "r.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["preprocess", str(d), "--out", str(out)]) == 0
        skips = (out / "skip_report.txt").read_text(encoding="utf-8").splitlines()
        assert len(skips) == 1
        path, why = skips[0].split("\t")
        assert path == str(d / "r.csv")
        assert why.startswith(f"{path}: non-numeric sample row") and token in why, why
        assert (out / "manifest.tsv").read_text() == "good.tokens\t\n"
        assert not (out / "r.tokens").exists()


def files_under(path):
    return {str(p) for p in path.rglob("*") if p.is_file()}


class TestCacheNames:
    """A record's cache is `<record name>.tokens` in --out: a WFDB record
    name or sample-file name that is not a plain file name, and a cache
    name that two records share, make skip lines."""

    @pytest.mark.parametrize("what,name", [
        *[("record name", n) for n in ("../escaped", "TMP/abs", "sub/r", ".", "..", "r\0x")],
        *[("sample file name", n) for n in ("../escaped.dat", "TMP/abs.dat", "sub/r.dat",
                                            ".", "..", "r\0.dat")]])
    def test_name_that_is_not_a_plain_file_name(self, tmp_path, capsys, what, name):
        d = tmp_path / "records"
        (d / "sub").mkdir(parents=True)
        write_wfdb_wavelet(d, "good")
        write_wfdb_wavelet(d, "r")
        # a sample file is there to be read wherever the name points
        for place in (tmp_path / "escaped.dat", tmp_path / "abs.dat", d / "sub" / "r.dat"):
            place.write_bytes((d / "r.dat").read_bytes())
        name = name.replace("TMP", str(tmp_path))
        hea = d / "r.hea"
        lines = hea.read_text().splitlines()
        if what == "record name":
            lines[0] = " ".join([name] + lines[0].split()[1:])
        else:
            lines[1:] = [line.replace("r.dat", name, 1) for line in lines[1:]]
        hea.write_text("\n".join(lines) + "\n")
        before = files_under(tmp_path)
        out = tmp_path / "out"
        assert main(["preprocess", str(d), "--out", str(out)]) == 0
        assert (out / "skip_report.txt").read_text().splitlines() == [
            f"{hea}\t{hea}: {what} {name!r} is not a plain file name"]
        assert (out / "manifest.tsv").read_text() == "good.tokens\t\n"
        assert files_under(tmp_path) - before == {
            str(out / n) for n in ("good.tokens", "manifest.tsv", "skip_report.txt")}
        assert capsys.readouterr().err == ""

    def test_shared_cache_name_skips_every_record_that_makes_it(self, tmp_path):
        d = tmp_path / "records"
        d.mkdir()
        synth.wavelet_csv(d / "a.csv", bpm=72, labels="AF")
        write_wfdb_wavelet(d, "a", bpm=66, labels=["SB"])
        write_wfdb_wavelet(d, "c", bpm=60, labels=["AF"])
        write_wfdb_wavelet(d, "d", bpm=80, labels=["SB"])
        hea = d / "d.hea"  # names record c, over its own sample file d.dat
        hea.write_text("c" + hea.read_text()[1:])
        synth.wavelet_csv(d / "g.csv", bpm=70, labels="XX")
        label_map = tmp_path / "labels.txt"
        label_map.write_text("AF,0\nSB,1\nXX,2\n")
        (tmp_path / "w.cfg").write_text("data.workers=2\n")
        serial, parallel = tmp_path / "s", tmp_path / "p"
        argv = ["preprocess", str(d), "--label-map", str(label_map)]
        assert main(argv + ["--out", str(serial)]) == 0
        assert main(argv + ["--out", str(parallel), "--config", str(tmp_path / "w.cfg")]) == 0
        assert sorted(os.listdir(serial)) == ["g.tokens", "manifest.tsv", "skip_report.txt"]
        assert sorted(os.listdir(parallel)) == sorted(os.listdir(serial))
        for name in os.listdir(serial):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name
        assert (serial / "manifest.tsv").read_text() == "g.tokens\t2\n"
        a_csv, a_hea, c_hea, d_hea = (str(d / n) for n in ("a.csv", "a.hea", "c.hea", "d.hea"))
        assert (serial / "skip_report.txt").read_text().splitlines() == [
            f"{a_csv}\tcache a.tokens is also made by {a_hea}",
            f"{a_hea}\tcache a.tokens is also made by {a_csv}",
            f"{c_hea}\tcache c.tokens is also made by {d_hea}",
            f"{d_hea}\tcache c.tokens is also made by {c_hea}"]


# The CSV reader as it stood before its samples were read as int64 counts,
# copied verbatim: the reference that the bulk reader matches value for value.
def _load_csv(path: str) -> EcgRecord:
    fs = None
    gains = None
    labels = set()
    header = None
    body = []           # sample rows, parsed together after the loop
    body_lines = []     # their line numbers, for error messages
    for lineno, raw in enumerate(read_lines(path), 1):
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
        if header is None:
            header = [tok.strip() for tok in line.split(",")]
            continue
        body.append(line)
        body_lines.append(lineno)

    if fs is None:
        raise FormatError(f"{path}: missing #fs= metadata line")
    if not 0 < fs < np.inf:
        raise InvalidMetadataError(f"{path}: fs must be finite and > 0, got {fs}")
    if gains is None:
        raise FormatError(f"{path}: missing #gain= metadata line")
    if header is None or not body:
        raise FormatError(f"{path}: no lead header or no sample rows")
    width = len(header)
    raw = _parse_rows(path, body, body_lines, width)
    if len(gains) == 1:
        gains = gains * width
    if len(gains) != width:
        raise InconsistencyError(f"{path}: {len(gains)} gains for {width} leads")
    _check_scaled_range(raw, gains, lambda row, lead: f"{path}:{body_lines[row]}")

    raw /= np.asarray(gains, dtype=np.float64)
    return EcgRecord(raw.T, fs, header, labels,
                     os.path.splitext(os.path.basename(path))[0])


def _parse_rows(path: str, body: list, body_lines: list, width: int) -> np.ndarray:
    """[rows, width] float64 from comma-separated sample rows, in one call.

    When the bulk parse fails, the record is refused; its rows are parsed
    one at a time only to name the fault: FormatError for the first row
    that is not all numbers, else InconsistencyError for the first row of
    the wrong width, else FormatError quoting the bulk parse. A NaN or
    infinite sample is a FormatError naming its line.
    """
    try:
        raw = np.loadtxt(body, delimiter=",", dtype=np.float64, comments=None,
                         ndmin=2)
    except ValueError as exc:
        rows = []
        for line, lineno in zip(body, body_lines):
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
        lineno = body_lines[int(np.argmin(finite.all(axis=1)))]
        raise FormatError(f"{path}:{lineno}: non-finite sample")
    return raw


CSV_FORMS = ("signed", "blank", "crlf", "decimal", "above_2_53", "above_2_63")


def seeded_csv(path, seed, forms):
    """A seeded CSV recording of negative and positive counts; forms adds to
    its body: `+5` and ` 7 ` fields, blank and whitespace-only lines, CRLF
    line ends, decimal samples, integers above 2**53 or above 2**63."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 5))
    counts = rng.integers(-40000, 40000, size=(int(rng.integers(20, 300)), width))
    cells = counts.astype(str).astype(object)

    def put(count, make):
        for _ in range(count):
            r, c = (int(rng.integers(n)) for n in cells.shape)
            cells[r, c] = make(int(counts[r, c]))

    if "signed" in forms:
        put(10, lambda v: f"+{abs(v)}")
        put(10, lambda v: f" {v}\t ")
    if "decimal" in forms:
        put(3, lambda v: str(rng.choice([f"{v}.5", f"{v / 7!r}", f"{v}e-1", "1e3"])))
    if "above_2_53" in forms:
        put(5, lambda v: str(int(np.sign(v) or 1) * (2**53 + int(rng.integers(1, 2**62)))))
    if "above_2_63" in forms:
        put(3, lambda v: str(int(np.sign(v) or 1) * (2**63 + int(rng.integers(0, 2**62)))))
    body = [",".join(row) for row in cells]
    if "blank" in forms:
        for _ in range(6):
            body.insert(int(rng.integers(1, len(body))), str(rng.choice(["", " ", "\t", " \t  "])))
    gains = ",".join(f"{g:g}" for g in rng.choice([200.0, 1000.0, 4.88, -500.0], size=width))
    names = ", ".join(["I", "II", "V1", "V5"][:width])
    lines = ["# seeded", f"#fs={rng.choice([257, 360, 500])}", "", f"#gain={gains}",
             "#labels=AF; 164889003", names] + body
    sep = "\r\n" if "crlf" in forms else "\n"
    path.write_bytes((sep.join(lines) + sep).encode())
    return str(path)


_real_loadtxt = np.loadtxt


def loadtxt_truncating_via_float(rows, *, dtype, **kwargs):
    """np.loadtxt as numpy 1.23 on runs it: an int64 field that is not an
    integer literal is parsed as a float and truncated, after one
    DeprecationWarning; when that warning is raised as an error, loadtxt
    raises ValueError from it."""
    if dtype is not np.int64:
        return _real_loadtxt(rows, dtype=dtype, **kwargs)
    values = _real_loadtxt(rows, dtype=np.float64, **kwargs)
    try:
        if not all(-2**63 <= int(tok) < 2**63 for row in rows for tok in row.split(",")):
            raise ValueError("beyond int64")
    except ValueError:
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
        except DeprecationWarning as exc:
            raise ValueError("could not convert string to int64") from exc
    with np.errstate(invalid="ignore"):
        return values.astype(np.int64)


class TestCsvReaderMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("forms", [()] + [(form,) for form in CSV_FORMS] + [CSV_FORMS])
    def test_same_record(self, tmp_path, seed, forms):
        path = seeded_csv(tmp_path / "r.csv", seed, forms)
        new, ref = load_record(path), _load_csv(path)
        assert new.leads.tobytes() == ref.leads.tobytes()
        assert new.leads.strides == ref.leads.strides
        assert (new.fs, new.labels, new.lead_names, new.source_id) == \
            (ref.fs, ref.labels, ref.lead_names, ref.source_id)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", sorted(CSV_MUTATIONS))
    def test_same_error(self, tmp_path, seed, kind):
        path = tmp_path / "r.csv"
        write_lines(path, CSV_MUTATIONS[kind](np.random.default_rng(seed), csv_text()))
        with pytest.raises(BeatformerError) as ref:
            _load_csv(str(path))
        with pytest.raises(BeatformerError) as new:
            load_record(str(path))
        assert type(new.value) is type(ref.value)
        assert str(new.value) == str(ref.value)

    @pytest.mark.parametrize("lineno, line", [(4, "#labels=AF"), (300, "# note"),
                                              (6004, "#fs=250")])
    def test_hash_line_after_the_lead_header_is_a_sample_row(self, tmp_path, lineno, line):
        """Metadata lines come before the lead header: the reference read
        this one as metadata, and a #fs= below the samples set the rate."""
        d = tmp_path / "records"
        d.mkdir()
        lines = csv_text()
        write_lines(d / "good.csv", lines)
        lines.insert(lineno - 1, line)
        write_lines(d / "r.csv", lines)
        ref = _load_csv(str(d / "r.csv"))
        assert ref.num_samples == 6000 and ref.fs == (250.0 if "fs" in line else 500.0)
        out = tmp_path / "out"
        assert main(["preprocess", str(d), "--out", str(out)]) == 0
        assert (out / "skip_report.txt").read_text() == \
            f"{d / 'r.csv'}\t{d / 'r.csv'}:{lineno}: non-numeric sample row\n"
        assert (out / "manifest.tsv").read_text() == "good.tokens\t\n"

    @pytest.mark.parametrize("sample", ["1.5", "-0.5", "1e-1", "9223372036854775808"])
    @pytest.mark.parametrize("truncating", [False, True])
    def test_non_integer_sample_loads_exactly(self, tmp_path, monkeypatch, sample, truncating):
        """A sample that is not an int64 count loads as its float value, also
        under the loadtxt of numpy 1.23 on, which truncates it with only a
        DeprecationWarning."""
        if truncating:
            monkeypatch.setattr(np, "loadtxt", loadtxt_truncating_via_float)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert loadtxt_truncating_via_float(["1.5"], dtype=np.int64).tolist() == 1
        path = tmp_path / "r.csv"
        write_lines(path, ["#fs=500", "#gain=1000", "I", "2", sample])
        assert load_record(str(path)).leads.tolist() == [[0.002, float(sample) / 1000]]

    def test_negative_zero_count_loads_as_positive_zero(self, tmp_path):
        path = tmp_path / "z.csv"
        write_lines(path, ["#fs=500", "#gain=1000", "I", "-0", "-0.0"])
        assert np.signbit(_load_csv(str(path)).leads[0]).tolist() == [True, True]
        write_lines(path, ["#fs=500", "#gain=1000", "I", "-0", "5"])
        leads = load_record(str(path)).leads
        assert leads.tolist() == [[0.0, 0.005]] and not np.signbit(leads).any()
        assert np.signbit(_load_csv(str(path)).leads[0, 0])


def small_cfg_text(**extra):
    base = {
        "model.d_model": 8, "model.n_encoders": 1, "model.n_heads": 2,
        "model.dff": 16, "model.d_class": 3, "model.dropout_rate": 0.1,
        "optim.warmup_steps": 8, "optim.batch_size": 4, "optim.epochs": 2,
    }
    base.update(extra)
    return "\n".join(f"{k}={v}" for k, v in base.items()) + "\n"


@pytest.fixture
def token_workspace(tmp_path):
    """Reduced-width caches plus a labeled manifest and a config file."""
    ws = tmp_path / "ws"
    ws.mkdir()
    rng = ad.seeded_rng(42)
    lines = []
    for i in range(8):
        seq = synth.random_sequence(rng, 50, 8)
        save_tokens(str(ws / f"s{i}.tokens"), seq)
        lines.append(f"s{i}.tokens\t{i % 3}")
    (ws / "manifest.tsv").write_text("\n".join(lines) + "\n")
    (ws / "model.cfg").write_text(small_cfg_text())
    return ws


class TestTrainCli:
    def test_pretrain_and_summary(self, token_workspace, capsys):
        ws = token_workspace
        rc = main(["pretrain", "--config", str(ws / "model.cfg"),
                   "--manifest", str(ws / "manifest.tsv"),
                   "--out", str(ws / "pre"), "--seed", "1"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["mode"] == "pretrain"
        assert summary["steps"] == 4  # 8 samples / batch 4 * 2 epochs
        assert os.path.exists(summary["checkpoint"])

    def test_train_classifier(self, token_workspace, capsys):
        ws = token_workspace
        rc = main(["train", "--config", str(ws / "model.cfg"),
                   "--manifest", str(ws / "manifest.tsv"),
                   "--out", str(ws / "clf"), "--seed", "2"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        mcfg, _, _, _, _ = tr.load_training_checkpoint(summary["checkpoint"])
        assert mcfg.head == tfm.CLASSIFIER
        assert mcfg.d_class == 3

    def test_resume_after_max_steps_matches_uninterrupted_run(self, token_workspace):
        # 8 samples in batches of 3 make 3 steps an epoch; step 2 is mid-epoch
        ws = token_workspace
        (ws / "b3.cfg").write_text(small_cfg_text(**{"optim.batch_size": 3}))
        common = ["--config", str(ws / "b3.cfg"), "--manifest",
                  str(ws / "manifest.tsv"), "--seed", "1"]
        assert main(["pretrain", "--out", str(ws / "full")] + common) == 0
        assert main(["pretrain", "--out", str(ws / "part"), "--max-steps", "2"]
                    + common) == 0
        assert main(["pretrain", "--out", str(ws / "part"), "--resume",
                     str(ws / "part" / "model.ckpt")] + common) == 0

        def rows(run):
            lines = (ws / run / "train_log.ndjson").read_text().splitlines()
            return [{k: v for k, v in json.loads(line).items() if k != "wall_ms"}
                    for line in lines]
        assert len(rows("full")) == 6 and rows("part") == rows("full")
        assert (ws / "full" / "model.ckpt").read_bytes() \
            == (ws / "part" / "model.ckpt").read_bytes()

    def test_missing_manifest_flag(self, token_workspace, capsys):
        ws = token_workspace
        rc = main(["pretrain", "--config", str(ws / "model.cfg"),
                   "--out", str(ws / "x")])
        assert rc == 1
        assert "manifest" in capsys.readouterr().err

    def test_label_map_class_count_checked(self, token_workspace, tmp_path,
                                           capsys):
        ws = token_workspace
        lm = tmp_path / "two.txt"
        lm.write_text("AF,0\nPVC,1\n")  # 2 classes, model says 3
        rc = main(["train", "--config", str(ws / "model.cfg"),
                   "--manifest", str(ws / "manifest.tsv"),
                   "--out", str(ws / "x"), "--label-map", str(lm)])
        assert rc == 1
        assert "d_class" in capsys.readouterr().err

    def test_cache_width_mismatch_fails(self, token_workspace, capsys):
        ws = token_workspace
        wide = small_cfg_text(**{"model.d_model": 16})
        (ws / "wide.cfg").write_text(wide)
        rc = main(["pretrain", "--config", str(ws / "wide.cfg"),
                   "--manifest", str(ws / "manifest.tsv"),
                   "--out", str(ws / "x")])
        assert rc == 1
        assert "d_model" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["manifest", "config"])
    def test_non_utf8_file_is_an_error_line(self, token_workspace, capsys, reader):
        ws = token_workspace
        bad = ws / f"bad.{reader}"
        good = (ws / ("manifest.tsv" if reader == "manifest" else "model.cfg")).read_bytes()
        bad.write_bytes(good + b"\xff\xfe\n")
        files = {"manifest": ws / "manifest.tsv", "config": ws / "model.cfg", reader: bad}
        rc = main(["pretrain", "--config", str(files["config"]),
                   "--manifest", str(files["manifest"]), "--out", str(ws / "o")])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(bad) in err[0] and "UTF-8" in err[0]
        assert captured.out == ""

    def test_bad_detector_flag_exits_two(self, token_workspace):
        with pytest.raises(SystemExit) as exc:
            main(["preprocess", "dir", "--detector", "wavelet"])
        assert exc.value.code == 2


def train_classifier(ws, out_name, epochs=2, seed=2):
    (ws / "run.cfg").write_text(small_cfg_text(**{"optim.epochs": epochs}))
    rc = main(["train", "--config", str(ws / "run.cfg"),
               "--manifest", str(ws / "manifest.tsv"),
               "--out", str(ws / out_name), "--seed", str(seed)])
    assert rc == 0
    return str(ws / out_name / "model.ckpt")


class TestEvaluatePredictInspect:
    def test_evaluate_outputs_metrics(self, token_workspace, capsys):
        ws = token_workspace
        ckpt = train_classifier(ws, "clf")
        capsys.readouterr()
        rc = main(["evaluate", "--manifest", str(ws / "manifest.tsv"),
                   "--checkpoint", ckpt])
        assert rc == 0
        metrics = json.loads(capsys.readouterr().out)
        assert set(metrics) >= {"macro_f1", "micro_f1", "exact_match",
                                "mean_bce", "per_class"}
        assert len(metrics["per_class"]) == 3

    def test_evaluate_rejects_generative_checkpoint(self, token_workspace,
                                                    capsys):
        ws = token_workspace
        rc = main(["pretrain", "--config", str(ws / "model.cfg"),
                   "--manifest", str(ws / "manifest.tsv"),
                   "--out", str(ws / "pre"), "--seed", "1"])
        assert rc == 0
        capsys.readouterr()
        rc = main(["evaluate", "--manifest", str(ws / "manifest.tsv"),
                   "--checkpoint", str(ws / "pre" / "model.ckpt")])
        assert rc == 1
        assert "classifier" in capsys.readouterr().err

    def test_predict_lines_and_file(self, token_workspace, tmp_path, capsys):
        ws = token_workspace
        ckpt = train_classifier(ws, "clf")
        capsys.readouterr()
        pred_file = tmp_path / "preds.tsv"
        rc = main(["predict", "--manifest", str(ws / "manifest.tsv"),
                   "--checkpoint", ckpt,
                   "--predictions-out", str(pred_file)])
        assert rc == 0
        out = capsys.readouterr().out.rstrip("\n")
        lines = out.split("\n")
        assert len(lines) == 8
        assert all(line.split("\t")[0] == f"s{i}.tokens"
                   for i, line in enumerate(lines))
        assert pred_file.read_text().rstrip("\n") == out

    def test_predict_below_threshold_is_empty(self, token_workspace, capsys):
        ws = token_workspace
        # hand-build a checkpoint whose head bias forces probabilities ~0
        mcfg = tfm.ModelConfig(d_model=8, n_encoders=1, n_heads=2, dff=16,
                               d_class=3, dropout_rate=0.1,
                               head=tfm.CLASSIFIER)
        ocfg = tr.OptimizerConfig(d_model=8, warmup_steps=8, batch_size=4,
                                  epochs=0)
        params = tfm.init_params(mcfg, seed=0)
        params["head.b"].data[:] = -10.0
        state = tr.AdamState.for_params(params)
        tr.save_training_checkpoint(str(ws / "neg.ckpt"), params, state,
                                    mcfg, ocfg, 0)
        rc = main(["predict", "--manifest", str(ws / "manifest.tsv"),
                   "--checkpoint", str(ws / "neg.ckpt")])
        assert rc == 0
        lines = capsys.readouterr().out.rstrip("\n").split("\n")
        assert all(line.endswith("\t") for line in lines)

    def test_predict_with_label_names(self, token_workspace, tmp_path,
                                      capsys):
        ws = token_workspace
        ckpt = train_classifier(ws, "clf", epochs=40)
        lm = tmp_path / "names.txt"
        lm.write_text("AF,0\nPVC,1\nSB,2\n")
        capsys.readouterr()
        rc = main(["predict", "--manifest", str(ws / "manifest.tsv"),
                   "--checkpoint", ckpt, "--label-map", str(lm)])
        assert rc == 0
        out = capsys.readouterr().out
        assert any(code in out for code in ("AF", "PVC", "SB"))
        assert not any(ch.isdigit() for line in out.splitlines()
                       for ch in line.split("\t")[1])

    @pytest.mark.parametrize("damage", ["version_1", "truncated"])
    @pytest.mark.parametrize("command", ["evaluate", "predict", "resume"])
    def test_damaged_checkpoint_is_an_error_line(self, token_workspace, capsys,
                                                 command, damage):
        ws = token_workspace
        ckpt = ws / "pre" / "model.ckpt"
        assert main(["pretrain", "--config", str(ws / "model.cfg"),
                     "--manifest", str(ws / "manifest.tsv"),
                     "--out", str(ws / "pre")]) == 0
        blob = bytearray(ckpt.read_bytes())
        if damage == "version_1":
            blob[4:8] = struct.pack("<I", 1)
        else:
            del blob[len(blob) // 2:]
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        common = ["--manifest", str(ws / "manifest.tsv")]
        argv = {"evaluate": ["evaluate", "--checkpoint", str(ckpt)] + common,
                "predict": ["predict", "--checkpoint", str(ckpt)] + common,
                "resume": ["train", "--config", str(ws / "model.cfg"),
                           "--resume", str(ckpt), "--out", str(ws / "r")] + common}
        assert main(argv[command]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(ckpt) in err[0]

    def test_predict_rows_follow_manifest(self, token_workspace, capsys, monkeypatch):
        # lengths 12, 1, 12, 1, 7: batching shortest first permutes the rows
        ws = token_workspace
        write_caches(ws, [12, 1, 12, 1, 7])
        mcfg = tfm.ModelConfig(d_model=8, n_encoders=1, n_heads=2, dff=16,
                               d_class=3, dropout_rate=0.0, head=tfm.CLASSIFIER)
        params = tfm.init_params(mcfg, seed=4)
        seqs = [load_tokens(str(ws / f"s{i}.tokens")) for i in range(5)]

        def single_logits():
            return np.stack([tfm.forward(s.tokens, s.n_real, mcfg, params).data
                             for s in seqs])

        # centre each class over the five caches so their predictions differ
        params["head.b"].data -= single_logits().mean(axis=0)
        logits = single_logits()
        assert np.abs(logits).min() > 1e-4
        preds = tr.threshold_predict(logits, 0.5)
        expect = [f"s{i}.tokens\t" + ",".join(str(c) for c in np.flatnonzero(row))
                  for i, row in enumerate(preds)]
        assert len(set(line.split("\t")[1] for line in expect)) > 1
        tr.save_training_checkpoint(str(ws / "c.ckpt"), params,
                                    tr.AdamState.for_params(params), mcfg,
                                    tr.OptimizerConfig(d_model=8, epochs=0), 0)
        reads = []
        load_manifest = tr.load_manifest
        monkeypatch.setattr(tr, "load_manifest",
                            lambda path: reads.append(path) or load_manifest(path))
        capsys.readouterr()
        assert main(["predict", "--manifest", str(ws / "manifest.tsv"),
                     "--checkpoint", str(ws / "c.ckpt")]) == 0
        assert capsys.readouterr().out.splitlines() == expect
        assert reads == [str(ws / "manifest.tsv")]

    @pytest.mark.parametrize("entry", ["opt.v.head.b", "meta.epoch"])
    def test_checkpoint_cut_inside_skipped_entry(self, token_workspace, capsys, entry):
        # inference skips the moments and counters; a cut inside one is
        # still an error (meta.epoch is the last entry of the file)
        ws = token_workspace
        ckpt = train_classifier(ws, "clf", epochs=0)
        start, end = payload_spans(ckpt)[entry]
        with open(ckpt, "r+b") as fh:
            fh.truncate(start + (end - start) // 2)
        capsys.readouterr()
        assert main(["predict", "--manifest", str(ws / "manifest.tsv"),
                     "--checkpoint", ckpt]) == 1
        assert ckpt in error_line(capsys)

    def test_inference_load_skips_moments(self, tmp_path):
        mcfg = tfm.ModelConfig(d_model=128, n_encoders=2, n_heads=2, dff=256,
                               d_class=3, head=tfm.CLASSIFIER)
        params = tfm.init_params(mcfg, seed=0)
        ckpt = str(tmp_path / "m.ckpt")
        tr.save_training_checkpoint(ckpt, params, tr.AdamState.for_params(params), mcfg,
                                    tr.OptimizerConfig(d_model=128), 0)
        param_bytes = sum(p.data.nbytes for p in params.values())
        tracemalloc.start()
        try:
            _, _, loaded, _, _ = tr.load_training_checkpoint(ckpt, stream=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * param_bytes
        with loaded:
            assert list(loaded) == list(params)
            assert all(np.array_equal(loaded[n].data, p.data) for n, p in params.items())

    def test_checkpoint_missing_parameter_is_an_error_line(self, token_workspace,
                                                           capsys):
        ws = token_workspace
        mcfg = tfm.ModelConfig(d_model=8, n_encoders=1, n_heads=2, dff=16,
                               d_class=3, head=tfm.CLASSIFIER)
        params = tfm.init_params(mcfg, seed=0)
        del params["head.w"]  # a whole header over a payload that lacks it
        tr.save_training_checkpoint(str(ws / "partial.ckpt"), params,
                                    tr.AdamState.for_params(params), mcfg,
                                    tr.OptimizerConfig(d_model=8), 0)
        rc = main(["predict", "--manifest", str(ws / "manifest.tsv"),
                   "--checkpoint", str(ws / "partial.ckpt")])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "head.w" in err[0]
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["evaluate", "predict", "inspect"])
    def test_missing_file_is_an_error_line(self, token_workspace, tmp_path,
                                           capsys, command):
        missing = str(tmp_path / "nonexistent")
        manifest = ["--manifest", str(token_workspace / "manifest.tsv")]
        argv = {"evaluate": ["evaluate", "--checkpoint", missing] + manifest,
                "predict": ["predict", "--checkpoint", missing] + manifest,
                "inspect": ["inspect", missing]}
        assert main(argv[command]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert missing in err[0]

    def test_inspect(self, token_workspace, capsys):
        ws = token_workspace
        rc = main(["inspect", str(ws / "s0.tokens")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "real beats" in out
        assert "d_model=8" in out
        assert "beat  0" in out

    def test_inspect_bad_file(self, tmp_path, capsys):
        p = tmp_path / "junk.tokens"
        p.write_bytes(b"garbage")
        rc = main(["inspect", str(p)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


    def test_inspect_zero_width_cache(self, tmp_path, capsys):
        p = tmp_path / "z.tokens"
        p.write_bytes(b"BFTS" + struct.pack("<III", 2, 3, 0))  # as long as it claims
        assert main(["inspect", str(p)]) == 1
        assert "width 0" in error_line(capsys)

def payload_spans(path):
    """{entry name: (start, end)} byte offsets of each checkpoint payload."""
    with open(path, "rb") as fh:
        blob = fh.read()
    (cfg_len,) = struct.unpack_from("<I", blob, 8)
    pos = 12 + cfg_len + 32
    (n,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    spans = {}
    for _ in range(n):
        (name_len,) = struct.unpack_from("<H", blob, pos)
        name = blob[pos + 2 : pos + 2 + name_len].decode()
        pos += 2 + name_len
        ndim = blob[pos]
        shape = struct.unpack_from(f"<{ndim}I", blob, pos + 1)
        pos += 1 + 4 * ndim
        spans[name] = (pos, pos + 4 * int(np.prod(shape)))
        pos = spans[name][1]
    assert pos == len(blob)
    return spans


def error_line(capsys):
    """The single stderr line of a failed command; nothing went to stdout."""
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), captured.err
    assert captured.out == ""
    return err[0]


def write_caches(ws, counts, labels="0"):
    """One cache per beat count, s{i}.tokens, and a manifest listing them."""
    rng = ad.seeded_rng(len(counts))
    for i, n in enumerate(counts):
        save_tokens(str(ws / f"s{i}.tokens"), synth.random_sequence(rng, 50, 8, n_real=n))
    (ws / "manifest.tsv").write_text(
        "".join(f"s{i}.tokens\t{labels}\n" for i in range(len(counts))))


class TestBadInputIsAnErrorLine:
    def test_pretrain_without_two_beat_sequences(self, token_workspace, capsys):
        ws = token_workspace
        write_caches(ws, [1, 1, 1])
        rc = main(["pretrain", "--config", str(ws / "model.cfg"),
                   "--manifest", str(ws / "manifest.tsv"), "--out", str(ws / "o")])
        assert rc == 1
        assert ">= 2 beats" in error_line(capsys)

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_class_index_outside_d_class(self, token_workspace, capsys, command):
        ws = token_workspace
        ckpt = train_classifier(ws, "clf", epochs=0)
        (ws / "bad.tsv").write_text("s0.tokens\t1\ns1.tokens\t99\n")
        capsys.readouterr()
        common = ["--manifest", str(ws / "bad.tsv")]
        argv = {"train": ["train", "--config", str(ws / "model.cfg"),
                          "--out", str(ws / "o")] + common,
                "evaluate": ["evaluate", "--checkpoint", ckpt] + common,
                "predict": ["predict", "--checkpoint", ckpt] + common}
        assert main(argv[command]) == 1
        err = error_line(capsys)
        assert "s1.tokens" in err and "99" in err and "d_class=3" in err

    def test_pretrain_ignores_labels(self, token_workspace, capsys):
        ws = token_workspace
        (ws / "wide.tsv").write_text("s0.tokens\t1\ns1.tokens\t5\n")
        common = ["--config", str(ws / "model.cfg"), "--manifest", str(ws / "wide.tsv")]
        assert main(["pretrain", "--out", str(ws / "p")] + common) == 0
        capsys.readouterr()
        assert main(["train", "--out", str(ws / "t")] + common) == 1
        err = error_line(capsys)
        assert "s1.tokens" in err and "5" in err and "d_class=3" in err

    def test_predict_label_map_class_count(self, token_workspace, tmp_path, capsys):
        ws = token_workspace
        mcfg = tfm.ModelConfig(d_model=8, n_encoders=1, n_heads=2, dff=16,
                               d_class=3, head=tfm.CLASSIFIER)
        params = tfm.init_params(mcfg, seed=0)
        params["head.b"].data[:] = 10.0  # every class fires, class 2 too
        tr.save_training_checkpoint(str(ws / "pos.ckpt"), params,
                                    tr.AdamState.for_params(params), mcfg,
                                    tr.OptimizerConfig(d_model=8), 0)
        lm = tmp_path / "two.txt"
        lm.write_text("AF,0\nPVC,1\n")
        rc = main(["predict", "--manifest", str(ws / "manifest.tsv"),
                   "--checkpoint", str(ws / "pos.ckpt"), "--label-map", str(lm)])
        assert rc == 1
        assert "label map has 2 classes but model.d_class is 3" in error_line(capsys)

    @pytest.mark.parametrize("command, flags, line, message", [
        ("pretrain", ["--seed", "-1"], "", "data.seed must be >= 0"),
        ("pretrain", [], "data.seed=-1", "data.seed must be >= 0"),
        ("preprocess", ["--workers", "0"], "", "data.workers must be >= 1"),
        ("preprocess", ["--workers", "-2"], "", "data.workers must be >= 1"),
        ("pretrain", [], "optim.epsilon=nan", "epsilon must be positive and finite"),
        ("pretrain", [], "optim.epsilon=inf", "epsilon must be positive and finite"),
        ("pretrain", [], "optim.threshold=nan", "threshold must lie in [0, 1]"),
        ("pretrain", [], "optim.threshold=-0.5", "threshold must lie in [0, 1]"),
        ("pretrain", [], "optim.d_model=0", "optim.d_model must be >= 1, got 0"),
        ("pretrain", [], "optim.d_model=-4", "optim.d_model must be >= 1, got -4"),
        ("pretrain", [], "optim.epsilon=1e300", "epsilon must be positive and finite"),
        ("preprocess", [], "data.target_fs=1", "data.target_fs must be at least 100 Hz"),
        ("preprocess", [], "data.target_fs=20", "data.target_fs must be at least 100 Hz"),
        ("preprocess", [], "data.target_fs=99.9", "data.target_fs must be at least 100 Hz"),
        ("preprocess", [], "data.target_fs=1e20", "data.target_fs must be at most 100000 Hz"),
        ("preprocess", [], "data.target_fs=1e300", "data.target_fs must be at most 100000 Hz"),
    ])
    def test_out_of_range_setting(self, token_workspace, record_dir, capsys,
                                  command, flags, line, message):
        ws = token_workspace
        (ws / "bad.cfg").write_text(small_cfg_text() + line + "\n")
        argv = ([command, "--manifest", str(ws / "manifest.tsv")] if command == "pretrain"
                else [command, str(record_dir)])
        rc = main(argv + ["--config", str(ws / "bad.cfg"), "--out", str(ws / "o")] + flags)
        assert rc == 1
        assert message in error_line(capsys)
        assert not (ws / "o").exists()

    @pytest.mark.parametrize("key", ["label_map", "manifest", "out_dir"])
    def test_nul_byte_in_config_path(self, token_workspace, capsys, key):
        ws = token_workspace
        ckpt = train_classifier(ws, "clf", epochs=0)
        (ws / "nul.cfg").write_text(small_cfg_text(**{
            "data.manifest": ws / "manifest.tsv", f"data.{key}": "a\0b"}))
        capsys.readouterr()
        assert main(["predict", "--config", str(ws / "nul.cfg"), "--checkpoint", ckpt]) == 1
        assert f"data.{key} holds a NUL byte" in error_line(capsys)

    def test_resume_with_init_checkpoint(self, token_workspace, capsys):
        ws = token_workspace
        ckpt = train_classifier(ws, "clf", epochs=0)
        capsys.readouterr()
        rc = main(["train", "--config", str(ws / "model.cfg"),
                   "--manifest", str(ws / "manifest.tsv"), "--out", str(ws / "o"),
                   "--resume", ckpt, "--init-checkpoint", ckpt])
        assert rc == 1
        assert "mutually exclusive" in error_line(capsys)

    @pytest.mark.parametrize("command", ["predict", "evaluate", "init", "resume"])
    def test_checkpoint_missing_parameter_names_the_file(self, token_workspace,
                                                         capsys, command):
        ws = token_workspace
        ckpt = train_classifier(ws, "clf", epochs=1)
        header, entries = ad.load_checkpoint(ckpt)
        del entries["enc0.ffn.w1.w"]
        ad.save_checkpoint(ckpt, entries, header)
        capsys.readouterr()
        data = ["--manifest", str(ws / "manifest.tsv")]
        train = ["train", "--config", str(ws / "run.cfg"), "--out", str(ws / "o")] + data
        argv = {"predict": ["predict", "--checkpoint", ckpt] + data,
                "evaluate": ["evaluate", "--checkpoint", ckpt] + data,
                "init": train + ["--init-checkpoint", ckpt],
                "resume": train + ["--resume", ckpt]}
        assert main(argv[command]) == 1
        line = error_line(capsys)
        assert ckpt in line and "missing parameter enc0.ffn.w1.w" in line

    def test_freeze_trunk_needs_a_trunk(self, token_workspace, capsys):
        # frozen random weights would train a head on noise features
        ws = token_workspace
        rc = main(["train", "--config", str(ws / "model.cfg"),
                   "--manifest", str(ws / "manifest.tsv"), "--out", str(ws / "o"),
                   "--freeze-trunk"])
        assert rc == 1
        assert "--freeze-trunk needs a trained trunk" in error_line(capsys)
        assert not (ws / "o").exists()

    def test_resume_over_another_dataset(self, token_workspace, capsys):
        ws = token_workspace
        write_caches(ws, [5] * 9)
        (ws / "six.tsv").write_text("".join(f"s{i}.tokens\t0\n" for i in range(6)))
        (ws / "b2.cfg").write_text(small_cfg_text(**{"optim.batch_size": 2}))
        common = ["--config", str(ws / "b2.cfg"), "--out", str(ws / "o")]
        assert main(["pretrain", "--manifest", str(ws / "six.tsv"),
                     "--max-steps", "2"] + common) == 0
        ckpt = str(ws / "o" / "model.ckpt")
        rows = (ws / "o" / "train_log.ndjson").read_text()
        capsys.readouterr()
        assert main(["pretrain", "--manifest", str(ws / "manifest.tsv"),
                     "--resume", ckpt] + common) == 1
        err = error_line(capsys)
        assert "6 samples" in err and "has 9" in err
        assert (ws / "o" / "train_log.ndjson").read_text() == rows
        assert main(["pretrain", "--manifest", str(ws / "six.tsv"),
                     "--resume", ckpt] + common) == 0

    @pytest.mark.parametrize("entry, value", [
        ("opt.step", [np.nan]), ("opt.step", [-3.0]), ("opt.step", [2.5]),
        ("meta.epoch", []), ("meta.samples", [np.inf]), ("meta.samples", [8.0, 8.0])],
        ids=["nan", "negative", "fraction", "empty", "inf", "two-values"])
    def test_damaged_counter(self, token_workspace, capsys, entry, value):
        ws = token_workspace
        common = ["--config", str(ws / "model.cfg"), "--manifest",
                  str(ws / "manifest.tsv"), "--out", str(ws / "o")]
        assert main(["train", "--max-steps", "1"] + common) == 0
        ckpt = str(ws / "o" / "model.ckpt")
        header, entries = ad.load_checkpoint(ckpt)
        entries[entry] = np.array(value, dtype=np.float32)
        ad.save_checkpoint(ckpt, entries, header)
        capsys.readouterr()
        assert main(["train", "--resume", ckpt] + common) == 1
        assert f"{ckpt}: {entry}" in error_line(capsys)

    def test_non_finite_loss_stops_before_the_step(self, token_workspace, capsys,
                                                   monkeypatch):
        # 8 samples in batches of 3 make 3 steps an epoch; step 3 ends the first
        ws = token_workspace
        (ws / "b3.cfg").write_text(small_cfg_text(**{"optim.batch_size": 3}))
        batch_loss, adam_step = tr._batch_loss, tr.adam_step
        calls = {"loss": 0, "adam": 0}

        def nan_at_step_3(*args):
            calls["loss"] += 1
            loss = batch_loss(*args)
            return ad.mul(loss, np.nan) if calls["loss"] == 3 else loss

        def counted_adam(*args):
            calls["adam"] += 1
            return adam_step(*args)

        common = ["pretrain", "--config", str(ws / "b3.cfg"), "--manifest",
                  str(ws / "manifest.tsv")]
        assert main(common + ["--out", str(ws / "two"), "--max-steps", "2"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(tr, "_batch_loss", nan_at_step_3)
        monkeypatch.setattr(tr, "adam_step", counted_adam)
        assert main(common + ["--out", str(ws / "o")]) == 1
        assert "step 3: loss is nan" in error_line(capsys)
        assert calls == {"loss": 3, "adam": 2}
        rows = [json.loads(line) for line in
                (ws / "o" / "train_log.ndjson").read_text().splitlines()]
        assert [r["step"] for r in rows] == [1, 2]
        # the checkpoint is that of a run stopped after step 2
        assert (ws / "o" / "model.ckpt").read_bytes() \
            == (ws / "two" / "model.ckpt").read_bytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_token_value(self, token_workspace, capsys, value):
        ws = token_workspace
        bad = ws / "s5.tokens"
        seq = load_tokens(str(bad))
        seq.tokens[1, 3] = value
        save_tokens(str(bad), seq)
        rc = main(["pretrain", "--config", str(ws / "model.cfg"), "--manifest",
                   str(ws / "manifest.tsv"), "--out", str(ws / "o")])
        assert rc == 1
        err = error_line(capsys)
        assert str(bad) in err and "beat 1" in err and "non-finite" in err

    def test_max_pos_below_50(self, token_workspace, capsys):
        ws = token_workspace
        (ws / "short.cfg").write_text(small_cfg_text(**{"model.max_pos": 20}))
        write_caches(ws, [20, 3, 12])
        argv = ["pretrain", "--config", str(ws / "short.cfg"),
                "--manifest", str(ws / "manifest.tsv"), "--out", str(ws / "o")]
        assert main(argv) == 0  # every cache fits in 20 positions
        capsys.readouterr()
        write_caches(ws, [20, 3, 21])
        assert main(argv) == 1
        err = error_line(capsys)
        assert str(ws / "s2.tokens") in err and "max_pos=20" in err

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_mixed_cache_widths(self, token_workspace, capsys, command):
        ws = token_workspace
        ckpt = train_classifier(ws, "clf", epochs=0)
        wide = ws / "s1.tokens"  # the first cache keeps the model's width 8
        save_tokens(str(wide), synth.random_sequence(ad.seeded_rng(3), 50, 9, n_real=4))
        capsys.readouterr()
        common = ["--manifest", str(ws / "manifest.tsv")]
        argv = {"train": ["train", "--config", str(ws / "model.cfg"),
                          "--out", str(ws / "o")] + common,
                "evaluate": ["evaluate", "--checkpoint", ckpt] + common,
                "predict": ["predict", "--checkpoint", ckpt] + common}
        assert main(argv[command]) == 1
        err = error_line(capsys)
        assert str(wide) in err and "9" in err and "d_model=8" in err

    def test_negative_max_steps(self, token_workspace, capsys):
        ws = token_workspace
        rc = main(["train", "--config", str(ws / "model.cfg"), "--manifest",
                   str(ws / "manifest.tsv"), "--out", str(ws / "o"), "--max-steps", "-3"])
        assert rc == 1
        assert "max_steps" in error_line(capsys)
        assert not (ws / "o" / "model.ckpt").exists()

    def test_full_disk_keeps_previous_checkpoint(self, token_workspace, capsys,
                                                 monkeypatch):
        ws = token_workspace
        argv = ["train", "--config", str(ws / "model.cfg"), "--manifest",
                str(ws / "manifest.tsv"), "--out", str(ws / "o")]
        assert main(argv + ["--max-steps", "1"]) == 0
        before = (ws / "o" / "model.ckpt").read_bytes()
        capsys.readouterr()

        # the disk is full at the first write of the first checkpoint
        class FullDisk(io.FileIO):
            def write(self, b):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(ad, "open", FullDisk, raising=False)
        assert main(argv) == 1
        assert os.strerror(errno.ENOSPC) in error_line(capsys)
        assert (ws / "o" / "model.ckpt").read_bytes() == before
        assert not (ws / "o" / "model.ckpt.tmp").exists()

    def test_version_1_cache(self, token_workspace, capsys):
        ws = token_workspace
        ckpt = train_classifier(ws, "clf", epochs=0)
        old = ws / "s3.tokens"
        old.write_bytes(synth.v1_cache(load_tokens(str(old))))
        capsys.readouterr()
        rc = main(["predict", "--manifest", str(ws / "manifest.tsv"),
                   "--checkpoint", ckpt])
        assert rc == 1
        err = error_line(capsys)
        assert str(old) in err and "version 1" in err


# every config key, by section; data.* keys drive preprocess, the others pretrain
SWEEP_KEYS = ([f"model.{f.name}" for f in fields(tfm.ModelConfig)]
              + [f"optim.{f.name}" for f in fields(tr.OptimizerConfig)]
              + [f"data.{f.name}" for f in fields(cli.PipelineConfig)
                 if f.name not in ("model", "optim")])
# no integer above 1, so no value starts a second worker or sizes a large model
SWEEP_VALUES = ["0", "-1", "1", "nan", "inf", "-inf", "1e300", "", "x"]


def command_ending(argv, out_dir, capsys):
    """How main(argv) ended: "error" (exit 1, one `error:` line), "skip"
    (skip lines in out_dir), "ok" (exit 0, nothing on stderr), or what was
    wrong with the ending."""
    try:
        rc = main(argv)
    except Exception as exc:  # out of main, it would be a traceback
        return f"traceback: {type(exc).__name__}: {exc}"
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    if rc == 1 and len(err) == 1 and err[0].startswith("error: "):
        return "error"
    skips = out_dir / "skip_report.txt"
    if not err and skips.is_file() and skips.read_text():
        return "skip"
    if rc == 0 and not err:
        return "ok"
    return f"exit {rc} with stderr {captured.err!r}"


class TestMalformedConfigSweep:
    """Each config key at each malformed value ends one of three ways: exit 1
    with one `error:` line, skip lines, or exit 0; never a traceback."""

    @pytest.fixture
    def inputs(self, tmp_path):
        """One short record for preprocess; two tiny caches for pretrain."""
        records = tmp_path / "records"
        records.mkdir()
        synth.wavelet_csv(records / "r.csv", duration_s=4.0)
        rng = ad.seeded_rng(9)
        for i, n in enumerate((3, 5)):
            save_tokens(str(tmp_path / f"s{i}.tokens"),
                        synth.random_sequence(rng, 50, 8, n_real=n))
        (tmp_path / "manifest.tsv").write_text("s0.tokens\t0\ns1.tokens\t1\n")
        return tmp_path

    @pytest.mark.parametrize("key", SWEEP_KEYS)
    def test_each_value_ends_cleanly(self, inputs, capsys, monkeypatch, key):
        bad = {}
        for i, value in enumerate(SWEEP_VALUES):
            run = inputs / f"run{i}"
            run.mkdir()
            monkeypatch.chdir(run)  # a relative data.out_dir lands here
            if key.startswith("data."):
                lines = {"data.out_dir": "out", key: value}
                argv = ["preprocess", str(inputs / "records")]
            else:
                lines = {key: value}
                argv = ["pretrain", "--manifest", str(inputs / "manifest.tsv"),
                        "--out", "out", "--max-steps", "1"]
            (run / "c.cfg").write_text(small_cfg_text(**lines))
            out_dir = run / lines.get("data.out_dir", "out")
            end = command_ending(argv + ["--config", str(run / "c.cfg")], out_dir, capsys)
            if end not in ("error", "skip", "ok"):
                bad[value] = end
        assert not bad, f"{key}: {bad}"


def _flip_byte(rng, blob):
    """One bit flipped in one of the first 64 bytes."""
    out = bytearray(blob)
    out[int(rng.integers(min(64, len(blob))))] ^= 1 << int(rng.integers(8))
    return bytes(out)


def _truncate(rng, blob):
    return blob[: int(rng.integers(len(blob)))]


def _insert_bytes(rng, blob):
    """1-4 random bytes inserted at a random place."""
    at = int(rng.integers(len(blob) + 1))
    extra = rng.integers(0, 256, size=int(rng.integers(1, 5)), dtype=np.uint8).tobytes()
    return blob[:at] + extra + blob[at:]


BYTE_MUTATIONS = {"flip": _flip_byte, "truncate": _truncate, "insert": _insert_bytes}


class TestMalformedArtifactSweep:
    """A damaged checkpoint, token cache or manifest, read by `predict` and
    by `train --resume`: each run exits 0, or exits 1 with one `error:`
    line; never a traceback."""

    ARTIFACTS = {"checkpoint": "clf/model.ckpt", "cache": "s0.tokens",
                 "manifest": "manifest.tsv"}

    @pytest.fixture
    def pristine(self, tmp_path):
        """One cache, its manifest and a classifier checkpoint one step into
        a two-step run over them."""
        d = tmp_path / "pristine"
        d.mkdir()
        save_tokens(str(d / "s0.tokens"), synth.random_sequence(ad.seeded_rng(5), 50, 8))
        (d / "manifest.tsv").write_text("s0.tokens\t0\n")
        (d / "run.cfg").write_text(small_cfg_text(**{"optim.batch_size": 1}))
        assert main(["train", "--config", str(d / "run.cfg"), "--manifest",
                     str(d / "manifest.tsv"), "--out", str(d / "clf"),
                     "--max-steps", "1"]) == 0
        return d

    def argvs(self, d):
        """{command: argv} of predict and train --resume over the files in d."""
        ckpt, manifest = str(d / self.ARTIFACTS["checkpoint"]), str(d / "manifest.tsv")
        return {"predict": ["predict", "--checkpoint", ckpt, "--manifest", manifest],
                "resume": ["train", "--config", str(d / "run.cfg"), "--manifest", manifest,
                           "--resume", ckpt, "--out", str(d / "resumed")]}

    def endings(self, d, capsys):
        return {command: command_ending(argv, d / "resumed", capsys)
                for command, argv in self.argvs(d).items()}

    @pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
    def test_each_mutation_ends_cleanly(self, pristine, tmp_path, capsys, artifact):
        rng = np.random.default_rng(sorted(self.ARTIFACTS).index(artifact))
        capsys.readouterr()
        bad = {}
        for kind, mutate in BYTE_MUTATIONS.items():
            for i in range(6):
                d = tmp_path / f"{kind}{i}"
                shutil.copytree(pristine, d)
                target = d / self.ARTIFACTS[artifact]
                target.write_bytes(mutate(rng, target.read_bytes()))
                ends = self.endings(d, capsys)
                bad.update({f"{kind}{i} {command}": end for command, end in ends.items()
                            if end not in ("ok", "error")})
        assert not bad, bad

    def test_nul_byte_in_cache_path(self, pristine, capsys):
        capsys.readouterr()
        assert self.endings(pristine, capsys) == {"predict": "ok", "resume": "ok"}
        (pristine / "manifest.tsv").write_text("s0\0.tokens\t0\n")
        for argv in self.argvs(pristine).values():
            assert main(argv) == 1
            line = error_line(capsys)
            assert f"{pristine / 'manifest.tsv'}:1: NUL byte in cache path" in line

    def test_duplicate_checkpoint_entry(self, pristine, capsys):
        ckpt = pristine / self.ARTIFACTS["checkpoint"]
        blob = bytearray(ckpt.read_bytes())
        start, end = payload_spans(ckpt)["head.b"]
        entry = blob[start - (2 + len("head.b") + 1 + 4) : end]  # head.b is 1-d
        (cfg_len,) = struct.unpack_from("<I", blob, 8)
        (count,) = struct.unpack_from("<I", blob, 12 + cfg_len + 32)
        struct.pack_into("<I", blob, 12 + cfg_len + 32, count + 1)
        ckpt.write_bytes(bytes(blob + entry))
        capsys.readouterr()
        for argv in self.argvs(pristine).values():
            assert main(argv) == 1
            assert f"{ckpt}: entry head.b appears twice" in error_line(capsys)


class TestStreamedInference:
    """`predict` and `evaluate` read each weight from the checkpoint as the
    forward reaches its layer, once per batch, into one array per role."""

    MCFG = tfm.ModelConfig(d_model=8, n_encoders=3, n_heads=2, dff=16, d_class=3,
                           head=tfm.CLASSIFIER)

    @staticmethod
    def write_classifier(path, mcfg, seed):
        params = tfm.init_params(mcfg, seed=seed)
        tr.save_training_checkpoint(str(path), params, tr.AdamState.for_params(params),
                                    mcfg, tr.OptimizerConfig(d_model=mcfg.d_model), 0)
        return str(path)

    @pytest.fixture
    def ws(self, tmp_path):
        """Ten labelled caches of 1..12 beats, a 3-encoder classifier, and
        a row budget that cuts them into at least 3 batches."""
        rng = ad.seeded_rng(7)
        counts = (5, 1, 12, 3, 7, 2, 9, 4, 11, 6)
        for i, n in enumerate(counts):
            save_tokens(str(tmp_path / f"s{i}.tokens"),
                        synth.random_sequence(rng, 50, 8, n_real=n))
        (tmp_path / "manifest.tsv").write_text(
            "".join(f"s{i}.tokens\t{i % 3}\n" for i in range(len(counts))))
        self.write_classifier(tmp_path / "m.ckpt", self.MCFG, seed=0)
        return tmp_path

    @staticmethod
    def argv(command, ws, ckpt=None):
        return [command, "--manifest", str(ws / "manifest.tsv"),
                "--checkpoint", ckpt or str(ws / "m.ckpt")]

    @staticmethod
    def in_memory(ckpt, mcfg):
        """The checkpoint's parameters, all loaded."""
        return tfm.params_from_arrays(tr.load_training_checkpoint(ckpt)[2], mcfg)

    def test_outputs_bit_identical_to_in_memory_params(self, ws, capsys, monkeypatch):
        monkeypatch.setattr(tr, "BATCH_ROWS", 24)
        logits, batches = [], []
        forward_batches, forward = tr.forward_batches, tfm.forward

        def spy_batches(params, config, sequences):
            assert isinstance(params, ad.CheckpointReader)
            out = forward_batches(params, config, sequences)
            logits.append(out)
            return out

        def spy_forward(tokens, *args, **kwargs):
            batches.append(tokens.shape[0])
            return forward(tokens, *args, **kwargs)
        monkeypatch.setattr(tr, "forward_batches", spy_batches)
        monkeypatch.setattr(tfm, "forward", spy_forward)
        capsys.readouterr()
        assert main(self.argv("predict", ws)) == 0
        assert main(self.argv("evaluate", ws)) == 0
        # predict's 10 lines, then evaluate's JSON
        metrics = json.loads(capsys.readouterr().out.split("\n", 10)[-1])
        assert len(batches) >= 6 and sum(batches) == 20  # >= 3 batches per command

        monkeypatch.setattr(tr, "forward_batches", forward_batches)
        monkeypatch.setattr(tfm, "forward", forward)
        params = self.in_memory(str(ws / "m.ckpt"), self.MCFG)
        dataset = tr.load_dataset(tr.load_manifest(str(ws / "manifest.tsv")), self.MCFG,
                                  require_labels=True)
        expect = forward_batches(params, self.MCFG, [s for s, _ in dataset])
        for got in logits:
            assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()
        assert metrics == tr.evaluate(params, self.MCFG, dataset)

    def test_checkpoint_cut_mid_run_is_an_error_line(self, ws, capsys, monkeypatch):
        ckpt = str(ws / "m.ckpt")
        start, end = payload_spans(ckpt)["enc1.attn.wq.w"]
        forward = tfm.forward

        def cut_after_first(*args, **kwargs):
            out = forward(*args, **kwargs)
            with open(ckpt, "r+b") as fh:
                fh.truncate((start + end) // 2)
            return out
        monkeypatch.setattr(tr, "BATCH_ROWS", 24)
        monkeypatch.setattr(tfm, "forward", cut_after_first)
        capsys.readouterr()
        assert main(self.argv("predict", ws)) == 1
        assert f"{ckpt}: truncated or corrupt checkpoint (file ends inside entry " \
               "enc1.attn.wq.w)" in error_line(capsys)

    def test_peak_memory_below_half_the_weights(self, tmp_path, capsys):
        mcfg = tfm.ModelConfig(d_model=128, n_encoders=4, n_heads=2, dff=256, d_class=3,
                               head=tfm.CLASSIFIER)
        ckpt = self.write_classifier(tmp_path / "m.ckpt", mcfg, seed=0)
        rng = ad.seeded_rng(8)
        for i, n in enumerate((3, 5, 2)):
            save_tokens(str(tmp_path / f"s{i}.tokens"),
                        synth.random_sequence(rng, 50, 128, n_real=n))
        (tmp_path / "manifest.tsv").write_text("".join(f"s{i}.tokens\t0\n" for i in range(3)))
        param_bytes = 4 * tfm.count_parameters(mcfg)
        tracemalloc.start()
        try:
            rc = main(self.argv("predict", tmp_path, ckpt))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0 and len(capsys.readouterr().out.splitlines()) == 3
        assert peak < param_bytes / 2, (peak, param_bytes)

    def test_no_checkpoint_handle_left_open(self, ws, capsys):
        pre = ws / "pre.ckpt"
        self.write_classifier(pre, self.MCFG.with_head(tfm.GENERATIVE), seed=0)
        arrays = tr.load_training_checkpoint(str(ws / "m.ckpt"))[2]
        del arrays["head.w"]
        ad.save_checkpoint(str(ws / "partial.ckpt"), arrays, tr.config_text(
            {"model": self.MCFG, "optim": tr.OptimizerConfig(d_model=8)}))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for command in ("predict", "evaluate"):
                assert main(self.argv(command, ws)) == 0
                for bad in (pre, ws / "partial.ckpt"):
                    assert main(self.argv(command, ws, str(bad))) == 1
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)
                    and ".ckpt" in str(w.message)]

    def test_checkpoint_replaced_mid_run(self, ws, capsys, monkeypatch):
        ckpt = str(ws / "m.ckpt")
        other = self.write_classifier(ws / "other.ckpt", self.MCFG, seed=1)
        monkeypatch.setattr(tr, "BATCH_ROWS", 24)
        capsys.readouterr()
        printed = {}
        for path in (ckpt, other):
            assert main(self.argv("predict", ws, path)) == 0
            printed[path] = capsys.readouterr().out
        assert printed[ckpt] != printed[other]
        forward = tfm.forward

        def replace_after_first(*args, **kwargs):
            out = forward(*args, **kwargs)
            if os.path.exists(other):
                os.replace(other, ckpt)
            return out
        monkeypatch.setattr(tfm, "forward", replace_after_first)
        rc = main(self.argv("predict", ws))
        assert not os.path.exists(other)
        if rc == 0:
            assert capsys.readouterr().out == printed[ckpt]
        else:
            assert rc == 1 and error_line(capsys)


# settings the learning-rate schedule cannot compute in float64
BEYOND_FLOAT64 = [
    ("optim.warmup_steps", 10**250, "optim.warmup_steps ** 1.5 is beyond the float64 range"),
    ("optim.d_model", 10**400, "optim.d_model is beyond the float64 range"),
]


class TestOutOfRangeSize:
    """Settings whose arithmetic or allocation cannot be carried out end
    with one `error:` line, before any output is made."""

    @pytest.mark.parametrize("key, value, message", BEYOND_FLOAT64 + [
        # 2^52 x 8 float64 values is 256 PiB, beyond any 64-bit address space
        ("model.dff", 2**52, "Unable to allocate"),
        ("model.dff", 2**62, f"has more than {sys.maxsize // 8} elements"),
    ], ids=["warmup_steps", "d_model", "dff_2_52", "dff_2_62"])
    def test_pretrain_setting(self, token_workspace, capsys, key, value, message):
        ws = token_workspace
        (ws / "big.cfg").write_text(small_cfg_text(**{key: value}))
        rc = main(["pretrain", "--config", str(ws / "big.cfg"),
                   "--manifest", str(ws / "manifest.tsv"), "--out", str(ws / "o")])
        assert rc == 1
        assert message in error_line(capsys)
        assert not (ws / "o").exists()

    @pytest.mark.parametrize("key, value, message", BEYOND_FLOAT64,
                             ids=["warmup_steps", "d_model"])
    def test_checkpoint_header_setting(self, token_workspace, capsys, key, value, message):
        ws = token_workspace
        mcfg = tfm.ModelConfig(d_model=8, n_encoders=1, n_heads=2, dff=16, d_class=3,
                               head=tfm.CLASSIFIER)
        header = tr.config_text({"model": mcfg, "optim": tr.OptimizerConfig(d_model=8)})
        lines = [f"{key}={value}" if line.startswith(f"{key}=") else line
                 for line in header.splitlines()]
        ckpt = str(ws / "big.ckpt")
        ad.save_checkpoint(ckpt, {n: p.data for n, p in tfm.init_params(mcfg).items()},
                           "\n".join(lines) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["predict", "--manifest", str(ws / "manifest.tsv"),
                       "--checkpoint", ckpt])
            gc.collect()
        assert rc == 1
        assert f"{ckpt}: bad checkpoint config: {message}" in error_line(capsys)
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestReaderRefusals:
    """Each refusal of the record, label-map, cache and manifest readers,
    through the command that reads the file, as the reader words it."""

    @pytest.mark.parametrize("text, lineno, reason", [
        ("AF,0\n=>AF\n", 2, "malformed equivalence '=>AF'"),
        ("A=>AF\nA=>PVC\n", 2, "duplicate alias A"),
        ("AF,x\n", 1, "bad class index 'x'"),
    ])
    def test_label_map_line(self, record_dir, tmp_path, capsys, text, lineno, reason):
        lmap = tmp_path / "labels.txt"
        lmap.write_text(text)
        rc = main(["preprocess", str(record_dir), "--out", str(tmp_path / "o"),
                   "--label-map", str(lmap)])
        assert rc == 1
        assert error_line(capsys) == f"error: {lmap}:{lineno}: {reason}"

    @staticmethod
    def skip_lines(d, tmp_path):
        """The skip report of preprocess over d plus one good record."""
        synth.wavelet_csv(d / "good.csv")
        out = tmp_path / "out"
        assert main(["preprocess", str(d), "--out", str(out)]) == 0
        assert (out / "manifest.tsv").read_text() == "good.tokens\t\n"
        return (out / "skip_report.txt").read_text().splitlines()

    @pytest.mark.parametrize("old, new, reason", [
        ("#fs=500", "#fs=abc", "1: bad fs 'abc'"),
        ("#gain=1000,1000", "#gain=x", "2: unparsable gain 'x'"),
    ])
    def test_csv_metadata(self, tmp_path, old, new, reason):
        d = tmp_path / "records"
        d.mkdir()
        write_lines(d / "r.csv", swap_line(csv_text(), old, new))
        assert self.skip_lines(d, tmp_path) == [f"{d / 'r.csv'}\t{d / 'r.csv'}:{reason}"]

    @pytest.mark.parametrize("case, reason", [
        ("empty", "empty header"),
        ("record_line", "bad record line 'r x 500 6000'"),
        ("signal_line", "signal line too short: 'r.dat 16'"),
        ("two_files", "all leads must share one sample file"),
    ])
    def test_wfdb_header(self, tmp_path, case, reason):
        d = tmp_path / "records"
        d.mkdir()
        write_wfdb(d, "r", np.zeros((2, 6000)), 500.0)
        hea = d / "r.hea"
        lines = hea.read_text().splitlines()
        if case == "empty":
            lines = []
        elif case == "record_line":
            lines[0] = "r x 500 6000"
        elif case == "signal_line":
            lines[1] = "r.dat 16"
        else:
            lines[2] = lines[2].replace("r.dat", "s.dat")
        hea.write_text("".join(line + "\n" for line in lines))
        assert self.skip_lines(d, tmp_path) == [f"{hea}\t{hea}: {reason}"]

    def test_cache_with_short_header(self, tmp_path, capsys):
        p = tmp_path / "short.tokens"
        p.write_bytes(b"BFTS" + struct.pack("<I", 2))
        assert main(["inspect", str(p)]) == 1
        assert error_line(capsys) == f"error: {p}: truncated header"

    def test_manifest_line_without_cache_path(self, token_workspace, capsys):
        ws = token_workspace
        ckpt = train_classifier(ws, "clf", epochs=0)
        (ws / "manifest.tsv").write_text("s0.tokens\t0\n\t1\n")
        capsys.readouterr()
        assert main(["predict", "--manifest", str(ws / "manifest.tsv"),
                     "--checkpoint", ckpt]) == 1
        assert error_line(capsys) == f"error: {ws / 'manifest.tsv'}:2: empty cache path"
