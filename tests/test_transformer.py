from dataclasses import fields

import numpy as np
import pytest

from beatformer import autodiff as ad
from beatformer import training as tr
from beatformer import transformer as tfm
from beatformer.autodiff import Tensor
from beatformer.errors import FormatError


def small_config(**kw):
    base = dict(d_model=8, n_encoders=2, n_heads=2, dff=16, max_pos=6,
                d_class=3, dropout_rate=0.1)
    base.update(kw)
    return tfm.ModelConfig(**base)


class TestModelConfig:
    def test_default_sizes(self):
        cfg = tfm.ModelConfig()
        assert cfg.d_model == 1000 and cfg.n_encoders == 5
        assert cfg.n_heads == 8 and cfg.dff == 2048
        assert cfg.max_pos == 50
        assert cfg.d_class == 28 and cfg.dropout_rate == 0.1
        assert cfg.head == tfm.GENERATIVE and cfg.causal

    def test_head_width_derived(self):
        # heads are d_model // n_heads wide and tile d_model exactly
        shapes = {n: s for n, s, _ in tfm.param_shapes(small_config())}
        assert shapes["enc0.attn.wo.w"] == (8, 8)
        with pytest.raises(ValueError, match="does not divide"):
            tfm.ModelConfig(d_model=12, n_heads=5, n_encoders=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            tfm.ModelConfig(d_model=0)
        with pytest.raises(ValueError):
            tfm.ModelConfig(n_heads=-1)
        with pytest.raises(ValueError):
            tfm.ModelConfig(dropout_rate=1.0)
        with pytest.raises(ValueError):
            tfm.ModelConfig(dropout_rate=-0.1)
        with pytest.raises(ValueError):
            tfm.ModelConfig(head="regressor")
        with pytest.raises(ValueError):
            tfm.ModelConfig(d_model=4, n_heads=8)  # heads of width 0

    def test_with_head(self):
        cfg = small_config()
        clf = cfg.with_head(tfm.CLASSIFIER)
        assert clf.head == tfm.CLASSIFIER
        assert cfg.head == tfm.GENERATIVE  # original untouched
        assert tr.config_diff(cfg, clf, tfm.TRUNK_FIELDS) == []


class TestPositionalEncoding:
    def test_position_zero(self):
        pe = tfm.positional_encoding(10, 8)
        assert np.array_equal(pe[0, 0::2], np.zeros(4))
        assert np.array_equal(pe[0, 1::2], np.ones(4))

    def test_first_pair_uses_unit_angle(self):
        pe = tfm.positional_encoding(4, 1000)
        assert pe[1, 0] == pytest.approx(np.sin(1.0), abs=1e-12)
        assert pe[1, 1] == pytest.approx(np.cos(1.0), abs=1e-12)
        assert pe[3, 0] == pytest.approx(np.sin(3.0), abs=1e-12)

    def test_frequency_ladder(self):
        d = 1000
        pe = tfm.positional_encoding(50, d)
        p, i = 7, 10
        angle = p / 10000.0 ** (2 * i / d)
        assert pe[p, 2 * i] == pytest.approx(np.sin(angle), abs=1e-12)
        assert pe[p, 2 * i + 1] == pytest.approx(np.cos(angle), abs=1e-12)

    def test_bounded(self):
        pe = tfm.positional_encoding(50, 1000)
        assert pe.shape == (50, 1000)
        assert np.abs(pe).max() <= 1.0

    def test_dtype(self):
        assert tfm.positional_encoding(5, 8, np.float32).dtype == np.float32


class TestAttentionMask:
    def test_causal_scalar(self):
        m = tfm.build_attention_mask(3, 4, causal=True)
        expect = np.array([[1, 0, 0, 0],
                           [1, 1, 0, 0],
                           [1, 1, 1, 0],
                           [1, 1, 1, 0]], dtype=bool)
        assert np.array_equal(m, expect)

    def test_padding_only(self):
        m = tfm.build_attention_mask(2, 4, causal=False)
        assert np.array_equal(m, np.tile([True, True, False, False], (4, 1)))

    def test_full_visibility(self):
        m = tfm.build_attention_mask(4, 4, causal=False)
        assert m.all()

    def test_batched_shape_and_content(self):
        m = tfm.build_attention_mask(np.array([1, 3]), 3, causal=True)
        assert m.shape == (2, 1, 3, 3)
        assert np.array_equal(m[0, 0], [[1, 0, 0], [1, 0, 0], [1, 0, 0]])
        assert np.array_equal(m[1, 0], [[1, 0, 0], [1, 1, 0], [1, 1, 1]])

    def test_every_query_keeps_one_key(self):
        # even padded queries must see key 0, otherwise softmax degenerates
        for n in range(1, 6):
            m = tfm.build_attention_mask(n, 5, causal=True)
            assert m.any(axis=1).all()


class TestScaledDotAttention:
    def test_single_position_returns_v(self):
        q = Tensor([[0.3, -0.1, 0.7]])
        k = Tensor([[1.0, 2.0, 3.0]])
        v = Tensor([[5.0, -4.0, 0.5]])
        out = tfm.scaled_dot_attention(q, k, v, None)
        assert np.allclose(out.data, v.data, atol=1e-12)

    def test_identical_keys_average_values(self):
        q = Tensor(ad.seeded_rng(0).normal(size=(3, 4)))
        k = Tensor(np.tile([0.5, -1.0, 2.0, 0.0], (3, 1)))
        v = Tensor(ad.seeded_rng(1).normal(size=(3, 4)))
        out = tfm.scaled_dot_attention(q, k, v, None)
        assert np.allclose(out.data, np.tile(v.data.mean(axis=0), (3, 1)), atol=1e-12)

    def test_causal_two_positions_hand_check(self):
        rng = ad.seeded_rng(2)
        q = rng.normal(size=(2, 3))
        k = rng.normal(size=(2, 3))
        v = rng.normal(size=(2, 3))
        allowed = tfm.build_attention_mask(2, 2, causal=True)
        out, w = tfm.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v),
                                          allowed, return_weights=True)
        assert np.allclose(out.data[0], v[0], atol=1e-12)
        s = (q[1] @ k.T) / np.sqrt(3)
        e = np.exp(s - s.max())
        p = e / e.sum()
        assert np.allclose(w.data[1], p, atol=1e-12)
        assert np.allclose(out.data[1], p @ v, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = ad.seeded_rng(3)
        q, k, v = (Tensor(rng.normal(size=(2, 5, 4))) for _ in range(3))
        allowed = tfm.build_attention_mask(np.array([2, 5]), 5, causal=True)
        _, w = tfm.scaled_dot_attention(q, k, v, allowed[:, 0], return_weights=True)
        assert np.abs(w.data.sum(axis=-1) - 1.0).max() < 1e-9

    def test_blocked_positions_get_no_mass(self):
        rng = ad.seeded_rng(4)
        q, k, v = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
        allowed = tfm.build_attention_mask(3, 4, causal=True)
        _, w = tfm.scaled_dot_attention(q, k, v, allowed, return_weights=True)
        assert w.data[~allowed].max() < 1e-30

    def test_gradients_flow_to_all_inputs(self):
        rng = ad.seeded_rng(5)
        q, k, v = (Tensor(rng.normal(size=(3, 4)), requires_grad=True)
                   for _ in range(3))
        allowed = tfm.build_attention_mask(3, 3, causal=True)
        ad.sum_(tfm.scaled_dot_attention(q, k, v, allowed)).backward()
        assert q.grad is not None and np.any(q.grad != 0)
        assert np.any(v.grad != 0)


def packed(counts, seq=None):
    """(rows, allowed) of a batch with these counts: the flat positions of
    its real beats and its causal attention mask, as forward builds them."""
    counts = np.asarray(counts)
    seq = int(counts.max()) if seq is None else seq
    rows = np.flatnonzero(np.arange(seq) < counts[:, None])
    return rows, tfm.build_attention_mask(counts, seq)


class TestMultiHeadAttention:
    def test_single_position_collapses_to_linear(self):
        cfg = small_config()
        params = tfm.init_params(cfg, seed=3, dtype=np.float64)
        x = ad.seeded_rng(6).normal(size=(1, cfg.d_model))
        rows, allowed = packed([1])
        out = tfm.multi_head_attention(Tensor(x), params, "enc0.attn", allowed, cfg, rows)
        v = x @ params["enc0.attn.wv.w"].data + params["enc0.attn.wv.b"].data
        expect = v @ params["enc0.attn.wo.w"].data + params["enc0.attn.wo.b"].data
        assert np.allclose(out.data, expect, atol=1e-12)

    def test_output_shape_batched(self):
        cfg = small_config()
        params = tfm.init_params(cfg, seed=4, dtype=np.float64)
        rows, allowed = packed([5, 3, 1])
        x = Tensor(ad.seeded_rng(7).normal(size=(rows.size, cfg.d_model)))
        out = tfm.multi_head_attention(x, params, "enc0.attn", allowed, cfg, rows)
        assert out.shape == (5 + 3 + 1, cfg.d_model)

    def test_sequence_longer_than_max_pos_rejected(self):
        cfg = small_config()
        params = tfm.init_params(cfg, seed=5)
        rows, allowed = packed([cfg.max_pos + 1])
        x = Tensor(np.zeros((cfg.max_pos + 1, cfg.d_model)))
        with pytest.raises(ValueError):
            tfm.multi_head_attention(x, params, "enc0.attn", allowed, cfg, rows)


class TestEncoderLayer:
    def test_shape_preserved_and_deterministic(self):
        cfg = small_config()
        params = tfm.init_params(cfg, seed=6, dtype=np.float64)
        x = Tensor(ad.seeded_rng(8).normal(size=(4, cfg.d_model)))
        rows, allowed = packed([4])
        a = tfm.encoder_layer(x, params, "enc0", allowed, cfg, rows).data
        b = tfm.encoder_layer(x, params, "enc0", allowed, cfg, rows).data
        assert a.shape == (4, cfg.d_model)
        assert np.array_equal(a, b)

    def test_causal_mask_blocks_future_influence(self):
        cfg = small_config(dropout_rate=0.0)
        params = tfm.init_params(cfg, seed=7, dtype=np.float64)
        rng = ad.seeded_rng(9)
        x = rng.normal(size=(5, cfg.d_model))
        rows, allowed = packed([5])
        base = tfm.encoder_layer(Tensor(x), params, "enc0", allowed, cfg, rows).data
        x2 = x.copy()
        x2[4] += rng.normal(size=cfg.d_model)  # perturb only the last position
        pert = tfm.encoder_layer(Tensor(x2), params, "enc0", allowed, cfg, rows).data
        assert np.allclose(base[:4], pert[:4], atol=1e-12)
        assert not np.allclose(base[4], pert[4])

    def test_dropout_changes_training_output(self):
        cfg = small_config(dropout_rate=0.5)
        params = tfm.init_params(cfg, seed=8, dtype=np.float64)
        x = Tensor(ad.seeded_rng(10).normal(size=(4, cfg.d_model)))
        rows, allowed = packed([4])
        plain = tfm.encoder_layer(x, params, "enc0", allowed, cfg, rows).data
        noisy = tfm.encoder_layer(x, params, "enc0", allowed, cfg, rows,
                                  rng=ad.seeded_rng(0, "drop")).data
        again = tfm.encoder_layer(x, params, "enc0", allowed, cfg, rows,
                                  rng=ad.seeded_rng(0, "drop")).data
        assert not np.allclose(plain, noisy)
        assert np.array_equal(noisy, again)


class TestParamShapesAndCounts:
    def test_default_generative_count(self):
        total = tfm.count_parameters(tfm.ModelConfig())
        per_attn = 3 * (1000 * 1000 + 1000) + (1000 * 1000 + 1000)
        per_ffn = (1000 * 2048 + 2048) + (2048 * 1000 + 1000)
        per_ln = 2 * 2 * 1000
        head = 1000 * 1000 + 1000
        assert total == 5 * (per_attn + per_ffn + per_ln) + head
        assert total == 41_536_240

    def test_default_classifier_count(self):
        total = tfm.count_parameters(tfm.ModelConfig(head=tfm.CLASSIFIER))
        assert total == 41_536_240 - (1000 * 1000 + 1000) + (1000 * 28 + 28)
        assert total == 40_563_268

    def test_tiny_hand_count(self):
        cfg = tfm.ModelConfig(d_model=4, n_encoders=1, n_heads=1, dff=8,
                              max_pos=3, d_class=2)
        assert tfm.count_parameters(cfg) == 192
        assert tfm.count_parameters(cfg.with_head(tfm.CLASSIFIER)) == 182

    def test_count_matches_init(self):
        cfg = small_config()
        params = tfm.init_params(cfg, seed=9)
        assert sum(p.size for p in params.values()) == tfm.count_parameters(cfg)

    def test_shapes_and_kinds(self):
        cfg = small_config()
        shapes = dict((name, shape) for name, shape, _ in tfm.param_shapes(cfg))
        assert shapes["enc0.attn.wq.w"] == (8, 8)
        assert shapes["enc0.attn.wq.b"] == (8,)
        assert shapes["enc1.ffn.w1.w"] == (8, 16)
        assert shapes["enc1.ln2.gamma"] == (8,)
        assert shapes["head.w"] == (8, 8)
        kinds = dict((name, kind) for name, _, kind in tfm.param_shapes(cfg))
        assert kinds["enc0.attn.wq.w"] == "weight"
        assert kinds["enc0.ln1.gamma"] == "one"
        assert kinds["enc0.ln1.beta"] == "bias"

    def test_init_values(self):
        cfg = small_config()
        params = tfm.init_params(cfg, seed=10)
        assert params["enc0.ln1.gamma"].data.tolist() == [1.0] * 8
        assert params["enc0.ln1.beta"].data.tolist() == [0.0] * 8
        assert np.all(params["head.b"].data == 0.0)
        assert params["enc0.attn.wq.w"].dtype == np.float32
        # distinct matrices get distinct draws
        assert not np.array_equal(params["enc0.attn.wq.w"].data,
                                  params["enc0.attn.wk.w"].data)

    def test_init_reproducible(self):
        cfg = small_config()
        a = tfm.init_params(cfg, seed=11)
        b = tfm.init_params(cfg, seed=11)
        for k in a:
            assert np.array_equal(a[k].data, b[k].data)


class TestForward:
    def test_generative_shapes_unbatched(self):
        cfg = small_config(dropout_rate=0.0)
        params = tfm.init_params(cfg, seed=12, dtype=np.float64)
        tokens = ad.seeded_rng(11).normal(size=(6, cfg.d_model))
        out = tfm.forward(tokens, n_real=4, config=cfg, params=params)
        # one prediction per real beat; the two padded positions have none
        assert out.shape == (4, cfg.d_model)

    def test_classifier_logits(self):
        cfg = small_config(head=tfm.CLASSIFIER, dropout_rate=0.0)
        params = tfm.init_params(cfg, seed=13, dtype=np.float64)
        tokens = ad.seeded_rng(12).normal(size=(6, cfg.d_model))
        out = tfm.forward(tokens, n_real=3, config=cfg, params=params)
        assert out.shape == (cfg.d_class,)
        # logits of the pooled head: the head bias shifts them one for one
        params["head.b"].data = params["head.b"].data + 3.0
        shifted = tfm.forward(tokens, n_real=3, config=cfg, params=params)
        assert np.allclose(shifted.data - out.data, 3.0, atol=1e-12)
        probs = ad.sigmoid(out).data
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_batched_matches_single(self):
        cfg = small_config(head=tfm.CLASSIFIER, dropout_rate=0.0)
        params = tfm.init_params(cfg, seed=14, dtype=np.float64)
        toks = ad.seeded_rng(13).normal(size=(2, 6, cfg.d_model))
        batch = tfm.forward(toks, n_real=np.array([4, 6]), config=cfg,
                            params=params).data
        for b in range(2):
            single = tfm.forward(toks[b], n_real=[4, 6][b], config=cfg,
                                 params=params).data
            assert np.allclose(batch[b], single, atol=1e-12)

    def test_padding_rows_do_not_change_real_outputs(self):
        cfg = small_config(dropout_rate=0.0)
        params = tfm.init_params(cfg, seed=15, dtype=np.float64)
        rng = ad.seeded_rng(14)
        real = rng.normal(size=(3, cfg.d_model))
        short = tfm.forward(real, n_real=3, config=cfg, params=params).data
        padded = np.zeros((6, cfg.d_model))
        padded[:3] = real
        long = tfm.forward(padded, n_real=3, config=cfg, params=params).data
        assert np.abs(long[:3] - short).max() < 1e-12

    def test_padding_content_irrelevant(self):
        cfg = small_config(head=tfm.CLASSIFIER, dropout_rate=0.0)
        params = tfm.init_params(cfg, seed=16, dtype=np.float64)
        rng = ad.seeded_rng(15)
        toks = np.zeros((5, cfg.d_model))
        toks[:2] = rng.normal(size=(2, cfg.d_model))
        a = tfm.forward(toks, n_real=2, config=cfg, params=params).data
        toks2 = toks.copy()
        toks2[2:] = rng.normal(size=(3, cfg.d_model))  # garbage in the pad rows
        b = tfm.forward(toks2, n_real=2, config=cfg, params=params).data
        assert np.abs(a - b).max() < 1e-12

    def test_no_real_beats_rejected(self):
        cfg = small_config()
        params = tfm.init_params(cfg, seed=18)
        with pytest.raises(ValueError):
            tfm.forward(np.zeros((4, cfg.d_model)), n_real=0,
                        config=cfg, params=params)

    def test_counts_must_fit_the_batch(self):
        cfg = small_config()
        params = tfm.init_params(cfg, seed=18)
        tokens = np.zeros((2, 4, cfg.d_model))
        for n_real in ([1, 5], [2], [1, 2, 3]):
            with pytest.raises(ValueError):
                tfm.forward(tokens, n_real=n_real, config=cfg, params=params)

    def test_sequence_longer_than_max_pos_rejected(self):
        cfg = small_config()
        params = tfm.init_params(cfg, seed=18)
        with pytest.raises(ValueError, match="max_pos"):
            tfm.forward(np.zeros((2, cfg.max_pos + 1, cfg.d_model)), n_real=[1, 2],
                        config=cfg, params=params)

    def test_full_size_model_runs(self):
        cfg = tfm.ModelConfig(dropout_rate=0.0)
        params = tfm.init_params(cfg, seed=19)
        tokens = ad.seeded_rng(16).normal(size=(50, 1000)).astype(np.float32)
        out = tfm.forward(tokens, n_real=50, config=cfg, params=params)
        assert out.shape == (50, 1000)
        assert np.isfinite(out.data).all()


class TestConfigCompat:
    def test_diff_lists_changed_fields(self):
        a = small_config()
        b = small_config(dff=32, d_class=5)
        names = [f.name for f in fields(tfm.ModelConfig)]
        diff = tr.config_diff(a, b, names)
        assert any("dff" in d for d in diff)
        assert any("d_class" in d for d in diff)
        assert tr.config_diff(a, a, names) == []

    def test_trunk_compatible_ignores_head_fields(self):
        a = small_config(head=tfm.GENERATIVE, d_class=3)
        b = small_config(head=tfm.CLASSIFIER, d_class=7)
        assert tr.config_diff(a, b, tfm.TRUNK_FIELDS) == []
        c = small_config(dff=32)
        assert tr.config_diff(a, c, tfm.TRUNK_FIELDS) != []

    def test_arrays_round_trip(self):
        cfg = small_config()
        params = tfm.init_params(cfg, seed=20)
        arrays = {name: p.data for name, p in params.items()}
        back = tfm.params_from_arrays(arrays, cfg)
        for k in params:
            assert np.array_equal(back[k].data, params[k].data)
            assert back[k].requires_grad

    def test_arrays_shape_mismatch_rejected(self):
        cfg = small_config()
        good = {name: p.data for name, p in tfm.init_params(cfg, seed=21).items()}
        misshaped = dict(good, **{"head.w": good["head.w"][:, :4]})
        missing = {k: v for k, v in good.items() if k != "head.w"}
        for arrays, message in ((misshaped, "shape"), (missing, "missing")):
            with pytest.raises(FormatError, match=message):
                tfm.params_from_arrays(arrays, cfg)
