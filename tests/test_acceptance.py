"""Acceptance suite: one test per headline guarantee, each printed as an
explicit pass line with its runtime budget enforced.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion
verdicts, or `-s` to see the ACCEPTANCE lines as they print.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import synth
from beatformer import autodiff as ad
from beatformer import beat_tokenizer as bt
from beatformer import dsp
from beatformer import training as tr
from beatformer import transformer as tfm
from beatformer.autodiff import Tensor
from beatformer.cli import main as cli_main

H = 1e-5


def _fd_check(make_loss, tensors, tol=1e-4):
    """Max floored relative error between central differences and backward."""
    loss = make_loss()
    ad.zero_grads(tensors)
    loss.backward()
    worst = 0.0
    for t in tensors:
        grad = t.grad.ravel()
        flat = t.data.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + H
            up = make_loss().item()
            flat[i] = keep - H
            down = make_loss().item()
            flat[i] = keep
            fd = (up - down) / (2 * H)
            err = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-3)
            worst = max(worst, err)
            assert err < tol, (t.data.shape, i, fd, grad[i])
    return worst


def test_gradient_suite():
    """Every differentiable op plus the reduced full model, FD < 1e-4, < 60 s."""
    t0 = time.monotonic()
    rng = ad.seeded_rng(100)

    def T(shape, positive=False, scale=1.0):
        data = rng.normal(size=shape) * scale
        if positive:
            data = np.abs(data) + 0.5
        return Tensor(data, requires_grad=True)

    def proj(t, seed):
        r = ad.seeded_rng(seed).normal(size=t.shape)
        return ad.sum_(ad.mul(t, r))

    worst = 0.0
    a, b = T((3, 4)), T((3, 4), scale=0.5)
    b.data += 2.0
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        worst = max(worst, _fd_check(lambda op=op: proj(op(a, b), 1), [a, b]))
    m1, m2 = T((3, 4)), T((4, 2))
    worst = max(worst, _fd_check(lambda: proj(ad.matmul(m1, m2), 2), [m1, m2]))
    bm1, bm2 = T((2, 2, 3)), T((3, 2))
    worst = max(worst, _fd_check(lambda: proj(ad.matmul(bm1, bm2), 3), [bm1, bm2]))
    x = T((2, 6))
    worst = max(worst, _fd_check(lambda: proj(ad.reshape(x, (3, 4)), 4), [x]))
    x3 = T((2, 3, 4))
    worst = max(worst, _fd_check(
        lambda: proj(ad.transpose(x3, (1, 0, 2)), 5), [x3]))
    rows = T((4, 3))
    worst = max(worst, _fd_check(
        lambda: proj(rows[np.array([0, 2, 0])], 6), [rows]))
    s = T((3, 4))
    worst = max(worst, _fd_check(lambda: ad.sum_(ad.mul(s, s)), [s]))
    worst = max(worst, _fd_check(lambda: proj(ad.sum_(s, axis=1), 7), [s]))
    worst = max(worst, _fd_check(lambda: ad.mean(ad.mul(s, s)), [s]))
    u = T((3, 4), scale=0.8)
    for op in (ad.relu, ad.sigmoid, ad.exp):
        worst = max(worst, _fd_check(lambda op=op: proj(op(u), 8), [u]))
    p = T((3, 4), positive=True)
    for op in (ad.log, ad.sqrt):
        worst = max(worst, _fd_check(lambda op=op: proj(op(p), 9), [p]))
    sm = T((3, 5))
    worst = max(worst, _fd_check(lambda: proj(ad.softmax(sm), 10), [sm]))
    cl = T((3, 4))
    worst = max(worst, _fd_check(
        lambda: proj(ad.clip(cl, -0.5, 0.5), 11), [cl]))
    mf = T((3, 3))
    blocked = np.triu(np.ones((3, 3), dtype=bool), k=1)
    worst = max(worst, _fd_check(
        lambda: proj(ad.masked_fill(mf, blocked, -9.0), 12), [mf]))
    ln_x = T((3, 6))
    gamma = Tensor(1.0 + 0.1 * rng.normal(size=6), requires_grad=True)
    beta = Tensor(0.1 * rng.normal(size=6), requires_grad=True)
    worst = max(worst, _fd_check(
        lambda: proj(ad.layer_norm(ln_x, gamma, beta), 13),
        [ln_x, gamma, beta]))

    # reduced full model: d_model=8, one encoder, two heads, three positions
    cfg = tfm.ModelConfig(d_model=8, n_encoders=1, n_heads=2, dff=16,
                          max_pos=3, d_class=2, dropout_rate=0.0)
    params = tfm.init_params(cfg, seed=5, dtype=np.float64)
    tokens = rng.normal(size=(3, 8))
    target = rng.normal(size=(3, 8))
    mask = np.array([True, True, False])

    def model_loss():
        out = tfm.forward(tokens, n_real=2, config=cfg, params=params)
        return tr.mse_loss(out, target, mask)

    worst = max(worst, _fd_check(model_loss, list(params.values())))

    clf = cfg.with_head(tfm.CLASSIFIER)
    clf_params = tfm.init_params(clf, seed=6, dtype=np.float64)
    labels = np.array([1.0, 0.0])

    def clf_loss():
        out = tfm.forward(tokens, n_real=2, config=clf, params=clf_params)
        return tr.bce_loss(out, labels)

    worst = max(worst, _fd_check(clf_loss, list(clf_params.values())))

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f} s"
    print(f"\nACCEPTANCE PASS: gradient suite "
          f"(max rel err {worst:.2e} < 1e-4, {elapsed:.1f} s < 60 s)")


def test_lr_schedule_oracle():
    """Closed-form learning-rate values, exact; continuity within 1e-15; < 1 s."""
    t0 = time.monotonic()
    assert tr.lr_schedule(4000) == 5.0e-4
    assert tr.lr_schedule(16000) == 2.5e-4
    decay = 1.0 / math.sqrt(1000 * 4000)
    warm = 4000 / (math.sqrt(1000) * 4000 ** 1.5)
    assert abs(decay - warm) <= 1e-15
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE PASS: lr schedule oracle "
          f"(5.0e-4 and 2.5e-4 exact, boundary gap {abs(decay - warm):.1e}, "
          f"{elapsed:.3f} s < 1 s)")


def test_attention_invariants():
    """Row sums within 1e-9; causal and padding perturbation invariance
    within 1e-12 in 64-bit inference; < 30 s."""
    t0 = time.monotonic()
    cfg = tfm.ModelConfig(d_model=16, n_encoders=2, n_heads=4, dff=32,
                          max_pos=10, d_class=4, dropout_rate=0.0)
    params = tfm.init_params(cfg, seed=7, dtype=np.float64)
    rng = ad.seeded_rng(200)

    # attention rows are distributions
    q, k, v = (Tensor(rng.normal(size=(4, 8, 5))) for _ in range(3))
    allowed = tfm.build_attention_mask(np.array([3, 8, 1, 5]), 8)[:, 0]
    _, w = tfm.scaled_dot_attention(q, k, v, allowed, return_weights=True)
    row_gap = float(np.abs(w.data.sum(axis=-1) - 1.0).max())
    assert row_gap < 1e-9

    # causal invariance: perturbing position j leaves outputs < j unchanged
    tokens = rng.normal(size=(8, 16))
    base = tfm.forward(tokens, n_real=8, config=cfg, params=params).data
    causal_gap = 0.0
    for j in (3, 5, 7):
        bumped = tokens.copy()
        bumped[j] += rng.normal(size=16)
        out = tfm.forward(bumped, n_real=8, config=cfg, params=params).data
        causal_gap = max(causal_gap, float(np.abs(out[:j] - base[:j]).max()))
        assert not np.allclose(out[j], base[j])
    assert causal_gap < 1e-12

    # padding invariance: pad rows and their contents are inert
    real = rng.normal(size=(4, 16))
    short = tfm.forward(real, n_real=4, config=cfg, params=params).data
    padded = np.zeros((9, 16))
    padded[:4] = real
    long = tfm.forward(padded, n_real=4, config=cfg, params=params).data
    pad_gap = float(np.abs(long[:4] - short).max())
    garbage = padded.copy()
    garbage[4:] = rng.normal(size=(5, 16))
    noisy = tfm.forward(garbage, n_real=4, config=cfg, params=params).data
    pad_gap = max(pad_gap, float(np.abs(noisy[:4] - long[:4]).max()))
    clf = cfg.with_head(tfm.CLASSIFIER)
    clf_params = tfm.init_params(clf, seed=8, dtype=np.float64)
    probs_a = tfm.forward(padded, n_real=4, config=clf, params=clf_params).data
    probs_b = tfm.forward(garbage, n_real=4, config=clf, params=clf_params).data
    pad_gap = max(pad_gap, float(np.abs(probs_a - probs_b).max()))
    assert pad_gap < 1e-12

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE PASS: attention invariants "
          f"(row-sum gap {row_gap:.1e} < 1e-9, causal gap {causal_gap:.1e} "
          f"and padding gap {pad_gap:.1e} < 1e-12, {elapsed:.1f} s < 30 s)")


def test_tokenizer_oracle():
    """Middle beat of [1000, 1600, 2200]: support exactly [133, 733], R at
    333; shorter RR gives strictly more zeros; < 1 s."""
    t0 = time.monotonic()
    fused = np.arange(1.0, 5001.0)
    values, r_index = bt.segment_beat(fused, np.array([1000, 1600, 2200]), 1)
    nz = np.flatnonzero(values)
    assert nz[0] == 133 and nz[-1] == 733
    assert nz.size == 601  # contiguous support, no interior zeros
    assert values[333] == np.float32(fused[1600])
    assert r_index == 333

    fast, _ = bt.segment_beat(fused, np.array([2000, 2400, 2800]), 1)
    slow, _ = bt.segment_beat(fused, np.array([2000, 2800, 3600]), 1)
    assert (fast == 0).sum() > (slow == 0).sum()

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE PASS: tokenizer oracle (support [133, 733], R at "
          f"333, zero-count monotone in RR, {elapsed:.3f} s < 1 s)")


def test_detector_recall_precision():
    """Both detectors >= 95% recall and precision on the seeded wavelet
    sweep, 60-180 bpm at 20 dB SNR, 50 ms window; < 2 min."""
    t0 = time.monotonic()
    fs = 500.0
    report = {}
    for name, detect in dsp.DETECTORS.items():
        tp = fp = fn = 0
        for i, bpm in enumerate((60, 80, 100, 120, 140, 160, 180)):
            x, truth = synth.wavelet_train(fs, 30.0, bpm, snr_db=20.0,
                                           seed=300 + i)
            peaks = np.asarray(list(detect(x, fs)))
            a, b, c = synth.match_peaks(peaks, truth, fs, window_s=0.05)
            tp, fp, fn = tp + a, fp + b, fn + c
        recall = tp / (tp + fn)
        precision = tp / (tp + fp)
        assert recall >= 0.95, (name, recall)
        assert precision >= 0.95, (name, precision)
        report[name] = (recall, precision)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    stats = ", ".join(f"{n} recall {r:.3f} precision {p:.3f}"
                      for n, (r, p) in report.items())
    print(f"\nACCEPTANCE PASS: detector sweep ({stats}, all >= 0.95, "
          f"{elapsed:.1f} s < 2 min)")


def test_overfit_oracles(tmp_path):
    """Eight-sequence classification to BCE < 0.01 with macro-F1 = 1.0 in
    500 steps; constant-beat pre-training to MSE < 1e-3 in 300 steps;
    combined < 5 min."""
    t0 = time.monotonic()
    model = tfm.ModelConfig(d_model=8, n_encoders=1, n_heads=2, dff=16,
                            max_pos=6, d_class=3, dropout_rate=0.0)

    data = synth.labeled_dataset(400, 8, 6, 8, 3)
    optim = tr.OptimizerConfig(d_model=8, warmup_steps=8, batch_size=8,
                               epochs=500)
    res = tr.train(data, model, optim, tr.CLASSIFY, seed=21,
                   out_dir=str(tmp_path / "clf"), max_steps=500)
    losses = [json.loads(l)["loss"]
              for l in Path(res["log"]).read_text(encoding="utf-8").splitlines()]
    bce_step = next((i + 1 for i, v in enumerate(losses) if v < 0.01), None)
    assert bce_step is not None and bce_step <= 500, \
        f"BCE never dropped below 0.01 in 500 steps (min {min(losses):.4f})"
    _, _, arrays, _, _ = tr.load_training_checkpoint(res["checkpoint"])
    clf_cfg = model.with_head(tfm.CLASSIFIER)
    params = tfm.params_from_arrays(arrays, clf_cfg)
    metrics = tr.evaluate(params, clf_cfg, data)
    assert metrics["macro_f1"] == 1.0, metrics["macro_f1"]

    pre_data = synth.constant_beat_dataset(500, 10, 6, 8)
    pre_optim = tr.OptimizerConfig(d_model=8, warmup_steps=8, batch_size=10,
                                   epochs=300)
    pre = tr.train(pre_data, model, pre_optim, tr.PRETRAIN, seed=22,
                   out_dir=str(tmp_path / "pre"), max_steps=300)
    pre_losses = [json.loads(l)["loss"]
                  for l in Path(pre["log"]).read_text(encoding="utf-8").splitlines()]
    mse_step = next((i + 1 for i, v in enumerate(pre_losses) if v < 1e-3), None)
    assert mse_step is not None and mse_step <= 300, \
        f"MSE never dropped below 1e-3 in 300 steps (min {min(pre_losses):.2e})"

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"\nACCEPTANCE PASS: overfit oracles (BCE < 0.01 at step "
          f"{bce_step} <= 500 with macro-F1 1.0, MSE < 1e-3 at step "
          f"{mse_step} <= 300, {elapsed:.1f} s < 5 min)")


def test_determinism(tmp_path):
    """Identical seeds give byte-identical token caches and checkpoints."""
    records = tmp_path / "records"
    records.mkdir()
    synth.wavelet_csv(records / "a.csv", bpm=72, labels="AF")
    synth.wavelet_csv(records / "b.csv", bpm=90, labels="PVC")
    cache_names = ("a.tokens", "b.tokens", "manifest.tsv")
    outs = (tmp_path / "o1", tmp_path / "o2")
    for out in outs:
        assert cli_main(["preprocess", str(records), "--out", str(out)]) == 0
    for name in cache_names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    model = tfm.ModelConfig(d_model=8, n_encoders=1, n_heads=2, dff=16,
                            max_pos=6, d_class=3, dropout_rate=0.1)
    optim = tr.OptimizerConfig(d_model=8, warmup_steps=8, batch_size=4,
                               epochs=1)
    data = synth.labeled_dataset(600, 8, 6, 8, 3)
    ckpts = []
    for run in ("t1", "t2"):
        res = tr.train(list(data), model, optim, tr.CLASSIFY, seed=33,
                       out_dir=str(tmp_path / run))
        ckpts.append(Path(res["checkpoint"]).read_bytes())
    assert ckpts[0] == ckpts[1]

    print("\nACCEPTANCE PASS: determinism (preprocess caches and one-epoch "
          "training checkpoints byte-identical across reruns)")


def test_parameter_count_oracle():
    """count_parameters matches the by-hand tally on the small config and
    the closed-form layer-shape total on the default config."""
    small = tfm.ModelConfig(d_model=4, n_encoders=1, n_heads=1, dff=8,
                            max_pos=3, d_class=2)
    # by hand: 3 qkv (4*4+4) + out (4*4+4) + ffn (4*8+8 + 8*4+4) + 2 ln (2*4)
    # per encoder = 80 + 76 + 16 = 172; generative head 4*4+4 = 20
    assert tfm.count_parameters(small) == 172 + 20 == 192
    assert tfm.count_parameters(small.with_head(tfm.CLASSIFIER)) == 172 + 10 == 182

    closed_form = 5 * (3 * 1_001_000 + 1_001_000 + 2_050_048 + 2_049_000
                       + 4_000) + 1_001_000
    assert closed_form == 41_536_240
    full = tfm.count_parameters(tfm.ModelConfig())
    assert full == closed_form
    clf = tfm.count_parameters(tfm.ModelConfig(head=tfm.CLASSIFIER))
    assert clf == closed_form - 1_001_000 + (1000 * 28 + 28) == 40_563_268

    print(f"\nACCEPTANCE PASS: parameter count oracle (hand config 192/182, "
          f"default config {full:,} = closed-form layer-shape total)")
