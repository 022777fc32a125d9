import json
import math
import tracemalloc

import numpy as np
import pytest

import synth
from beatformer import autodiff as ad
from beatformer import training as tr
from beatformer import transformer as tfm
from beatformer.autodiff import Parameter, Tensor
from beatformer.beat_tokenizer import BeatSequence, save_tokens
from beatformer.errors import CheckpointMismatchError, ConfigError, EmptyInputError, FormatError


def logit(p):
    """The logit whose sigmoid is probability p (0 < p < 1)."""
    return np.log(p) - np.log1p(-np.asarray(p))


class TestLrSchedule:
    def test_warmup_end_exact(self):
        assert tr.lr_schedule(4000) == 5.0e-4

    def test_decay_point_exact(self):
        assert tr.lr_schedule(16000) == 2.5e-4

    def test_first_step(self):
        assert tr.lr_schedule(1) == pytest.approx(1.25e-7, rel=1e-12)

    def test_continuous_at_warmup_boundary(self):
        lo = tr.lr_schedule(3999)
        hi = tr.lr_schedule(4001)
        peak = tr.lr_schedule(4000)
        # both branches agree at the boundary in exact arithmetic
        decay = 1.0 / math.sqrt(1000 * 4000)
        warm = 4000 / (math.sqrt(1000) * 4000 ** 1.5)
        assert abs(decay - warm) == 0.0
        assert lo < peak and hi < peak

    def test_monotone_up_then_down(self):
        ramp = [tr.lr_schedule(s) for s in range(1, 4001)]
        assert all(a < b for a, b in zip(ramp, ramp[1:]))
        tail = [tr.lr_schedule(s) for s in range(4000, 8000, 100)]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_other_dims(self):
        assert tr.lr_schedule(512, d_model=512, warmup_steps=512) \
            == pytest.approx(1.0 / 512.0, rel=1e-12)

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            tr.lr_schedule(0)


class TestAdam:
    def cfg(self, **kw):
        base = dict(d_model=4, warmup_steps=10, epochs=1, batch_size=1)
        base.update(kw)
        return tr.OptimizerConfig(**base)

    def test_zero_gradient_is_fixed_point(self):
        p = Parameter(np.array([1.5, -2.5], dtype=np.float32), "w")
        before = p.data.copy()
        state = tr.AdamState.for_params({"w": p})
        p.grad = np.zeros(2, np.float32)
        tr.adam_step({"w": p}, state, self.cfg())
        assert np.array_equal(p.data, before)

    def test_first_step_moves_by_lr(self):
        # bias correction makes the first update exactly lr * g/(|g|+eps)
        p = Parameter(np.zeros(3), "w")
        state = tr.AdamState.for_params({"w": p})
        cfg = self.cfg()
        p.grad = np.ones(3)
        lr = tr.adam_step({"w": p}, state, cfg)
        assert lr == tr.lr_schedule(1, 4, 10)
        assert np.allclose(p.data, -lr, atol=1e-9 * lr + 1e-15)

    def test_two_step_hand_trace(self):
        cfg = self.cfg()
        p = Parameter(np.array([1.0]), "w")
        state = tr.AdamState.for_params({"w": p})
        x = 1.0
        m = v = 0.0
        for t, g in ((1, 0.3), (2, -0.7)):
            p.grad = np.array([g])
            tr.adam_step({"w": p}, state, cfg)
            lr = tr.lr_schedule(t, 4, 10)
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            mh = m / (1 - cfg.beta1 ** t)
            vh = v / (1 - cfg.beta2 ** t)
            x = x - lr * mh / (math.sqrt(vh) + cfg.epsilon)
        assert p.data[0] == pytest.approx(x, rel=1e-12)
        assert state.step_num == 2

    def test_reads_accumulated_grads_when_none(self):
        p = Parameter(np.array([2.0]), "w")
        for _ in range(2):  # .grad holds the sum of both sweeps, 1.0
            ad.sum_(ad.mul(p, 0.5)).backward()
        state = tr.AdamState.for_params({"w": p})
        tr.adam_step({"w": p}, state, self.cfg())
        assert p.data[0] < 2.0

    def test_missing_grad_names_parameter(self):
        p = Parameter(np.array([2.0]), "w")
        state = tr.AdamState.for_params({"w": p})
        with pytest.raises(ValueError, match="w"):
            tr.adam_step({"w": p}, state, self.cfg())

    def test_state_lazily_initialized(self):
        p = Parameter(np.array([1.0]), "w")
        state = tr.AdamState()  # empty slot dicts
        p.grad = np.array([0.5])
        tr.adam_step({"w": p}, state, self.cfg())
        assert "w" in state.m and "w" in state.v

    def test_state_kept_float32_for_float32_params(self):
        p = Parameter(np.ones(2, np.float32), "w")
        state = tr.AdamState.for_params({"w": p})
        p.grad = np.ones(2, np.float32)
        tr.adam_step({"w": p}, state, self.cfg())
        assert state.m["w"].dtype == np.float32
        assert state.v["w"].dtype == np.float32
        assert p.data.dtype == np.float32

    def test_updates_in_place(self):
        p = Parameter(np.array([1.0, -2.0, 3.0], dtype=np.float32), "w")
        state = tr.AdamState.for_params({"w": p})
        arrays = (p.data, state.m["w"], state.v["w"])
        before = p.data.copy()
        p.grad = np.ones(3, np.float32)
        tr.adam_step({"w": p}, state, self.cfg())
        assert all(new is old for new, old in
                   zip((p.data, state.m["w"], state.v["w"]), arrays))
        assert not np.array_equal(p.data, before)

    def test_peak_memory_stays_within_blocks(self):
        # an out-of-place update allocates several 4 MiB temporaries here
        p = Parameter(np.zeros((1024, 1024), dtype=np.float32), "w")
        p.grad = np.full(p.shape, 0.25, dtype=np.float32)
        state = tr.AdamState.for_params({"w": p})
        tracemalloc.start()
        try:
            tr.adam_step({"w": p}, state, self.cfg())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @staticmethod
    def reference_step(p, g, m, v, t, cfg):
        """The out-of-place update adam_step must match bit for bit."""
        lr = tr.lr_schedule(t, cfg.d_model, cfg.warmup_steps)
        bc1 = 1.0 - cfg.beta1 ** t
        bc2 = 1.0 - cfg.beta2 ** t
        g = np.asarray(g, dtype=p.dtype)
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p = p - lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        return p, m, v

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1,), (tr.ADAM_BLOCK + 17,), (3, tr.ADAM_BLOCK)])
    def test_blocked_update_matches_reference(self, dtype, shape):
        rng = ad.seeded_rng(5, len(shape), shape[-1])
        cfg = self.cfg()
        p = Parameter(rng.normal(size=shape).astype(dtype), "w")
        state = tr.AdamState.for_params({"w": p})
        ref_p, ref_m, ref_v = p.data.copy(), state.m["w"].copy(), state.v["w"].copy()
        for t in (1, 2, 3):
            g = (rng.normal(size=shape) * 10.0 ** rng.integers(-6, 2, size=shape)).astype(dtype)
            p.grad = g
            tr.adam_step({"w": p}, state, cfg)
            ref_p, ref_m, ref_v = self.reference_step(ref_p, g, ref_m, ref_v, t, cfg)
            assert np.array_equal(p.data, ref_p)
            assert np.array_equal(state.m["w"], ref_m)
            assert np.array_equal(state.v["w"], ref_v)
        assert p.data.dtype == ref_p.dtype == dtype

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tr.OptimizerConfig(beta1=1.0)
        with pytest.raises(ValueError):
            tr.OptimizerConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            tr.OptimizerConfig(warmup_steps=0)
        with pytest.raises(ValueError):
            tr.OptimizerConfig(epochs=-1)


def fused_case(dtype, freeze_trunk, d_model=8, dff=16, lengths=(2, 7, 4, 5)):
    """(config, params, trainable, samples) for comparing Adam steps: a tiny
    model with dropout, plus a trained parameter `extra` outside it."""
    cfg = tiny_model(d_model=d_model, dff=dff, max_pos=8).with_head(tfm.CLASSIFIER)
    params = tfm.init_params(cfg, seed=4, dtype=dtype)
    rng = ad.seeded_rng(4, "batch")
    samples = [(rng.normal(size=(n, cfg.d_model)).astype(dtype),
                (rng.random(cfg.d_class) < 0.5).astype(np.int8)) for n in lengths]
    trainable = dict(tr._trainable(params, freeze_trunk))
    for name, p in params.items():
        p.requires_grad = name in trainable
    trainable["extra"] = Parameter(rng.normal(size=3).astype(dtype), "extra")
    return cfg, params, trainable, samples


class TestFusedAdam:
    """adam_step(..., loss) updates each weight inside the backward sweep."""

    def loss(self, cfg, params, trainable, samples, t):
        loss = tr._batch_loss(samples, np.arange(len(samples)), tr.CLASSIFY, cfg,
                              params, ad.RngStream(0, "dropout", t))
        if t == 1:  # later steps leave `extra` unreached, with non-zero moments
            loss = ad.add(loss, ad.sum_(ad.mul(trainable["extra"], 0.5)))
        return loss

    @pytest.mark.parametrize("freeze_trunk", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_zero_backward_step(self, dtype, freeze_trunk):
        ocfg = tr.OptimizerConfig(d_model=8, warmup_steps=2)
        cfg, ref, ref_train, samples = fused_case(dtype, freeze_trunk)
        _, fused, fused_train, _ = fused_case(dtype, freeze_trunk)
        every = {**fused, **fused_train}
        before = {n: p.data.copy() for n, p in every.items()}
        ref_state = tr.AdamState.for_params(ref_train)
        state = tr.AdamState.for_params(fused_train)
        for t in (1, 2, 3):
            loss = self.loss(cfg, ref, ref_train, samples, t)
            ad.zero_grads(ref_train)
            loss.backward()
            ref_lr = tr.adam_step(ref_train, ref_state, ocfg)
            lr = tr.adam_step(fused_train, state, ocfg,
                              self.loss(cfg, fused, fused_train, samples, t))
            assert lr == ref_lr and state.step_num == t
            for name, p in fused_train.items():
                assert p.grad is None, name
                assert np.array_equal(p.data, ref_train[name].data), name
                assert np.array_equal(state.m[name], ref_state.m[name]), name
                assert np.array_equal(state.v[name], ref_state.v[name]), name
        for name, p in every.items():
            assert np.array_equal(p.data, {**ref, **ref_train}[name].data), name
            # trained weights moved, `extra` too; frozen ones did not
            assert (name in fused_train) != np.array_equal(p.data, before[name]), name

    def test_unknown_leaf_is_an_error(self):
        p = Parameter(np.ones(2), "w")
        stray = Parameter(np.ones(2), "stray")
        loss = ad.sum_(ad.mul(p, stray))
        with pytest.raises(ValueError, match="stray.*not a trained parameter"):
            tr.adam_step({"w": p}, tr.AdamState(), tr.OptimizerConfig(), loss)

    def test_leaf_reached_twice_is_an_error(self):
        p = Parameter(np.ones(2), "w")

        class TwiceLoss:
            def backward(self, on_leaf):
                on_leaf(p, np.ones(2))
                on_leaf(p, np.ones(2))

        with pytest.raises(ValueError, match="reached twice"):
            tr.adam_step({"w": p}, tr.AdamState(), tr.OptimizerConfig(), TwiceLoss())

    def test_peak_memory_holds_no_gradient_buffers(self):
        # activations dominate this step, so both peaks fall at the start of
        # the sweep, where the reference also holds every zeroed .grad
        def peak(fused):
            cfg, params, trainable, samples = fused_case(np.float32, False, d_model=32,
                                                         dff=64, lengths=(3, 8, 7, 8))
            state = tr.AdamState.for_params(trainable)
            ocfg = tr.OptimizerConfig(d_model=32)
            tracemalloc.start()
            try:
                loss = self.loss(cfg, params, trainable, samples, 2)
                if fused:
                    tr.adam_step(trainable, state, ocfg, loss)
                else:
                    ad.zero_grads(trainable)
                    loss.backward()
                    tr.adam_step(trainable, state, ocfg)
                return tracemalloc.get_traced_memory()[1], trainable
            finally:
                tracemalloc.stop()

        for fused in (False, True):  # first calls allocate lazily
            peak(fused)
        ref_peak, trainable = peak(False)
        fused_peak, _ = peak(True)
        grad_bytes = sum(p.data.nbytes for p in trainable.values())
        assert ref_peak - fused_peak >= grad_bytes


class TestLosses:
    def test_mse_zero_at_identity(self):
        x = ad.seeded_rng(0).normal(size=(4, 3))
        loss = tr.mse_loss(Tensor(x), x, np.ones(4, bool))
        assert loss.item() == 0.0

    def test_mse_constant_offset(self):
        pred = Tensor(np.full((5, 3), 2.0))
        target = np.zeros((5, 3))
        loss = tr.mse_loss(pred, target, np.ones(5, bool))
        assert loss.item() == pytest.approx(4.0, rel=1e-12)

    def test_mse_masked_positions_ignored(self):
        pred = Tensor(np.zeros((3, 2)))
        target = np.zeros((3, 2))
        target[2] = 1e9  # huge error hidden behind the mask
        mask = np.array([True, True, False])
        assert tr.mse_loss(pred, target, mask).item() == 0.0

    def test_mse_normalizes_by_supervised_count(self):
        pred = Tensor(np.zeros((4, 2)))
        target = np.zeros((4, 2))
        target[0] = 3.0
        mask = np.array([True, True, False, False])
        # sum of squares 2*9=18 over count*d = 2*2
        assert tr.mse_loss(pred, target, mask).item() == pytest.approx(4.5)

    def test_mse_batched_mask(self):
        pred = Tensor(np.ones((2, 3, 2)))
        target = np.zeros((2, 3, 2))
        mask = np.array([[True, False, False], [True, True, False]])
        assert tr.mse_loss(pred, target, mask).item() == pytest.approx(1.0)

    def test_mse_all_masked_rejected(self):
        with pytest.raises(ValueError):
            tr.mse_loss(Tensor(np.zeros((2, 2))), np.zeros((2, 2)),
                        np.zeros(2, bool))

    def test_mse_gradient(self):
        pred = Tensor(ad.seeded_rng(1).normal(size=(3, 2)), requires_grad=True)
        target = np.zeros((3, 2))
        mask = np.array([True, True, False])
        tr.mse_loss(pred, target, mask).backward()
        expect = 2.0 * pred.data * mask[:, None] / (2 * 2)
        assert np.allclose(pred.grad, expect)

    def test_bce_half_is_ln2(self):
        logits = Tensor(np.zeros(4))  # sigmoid(0) = 0.5
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        assert tr.bce_loss(logits, labels).item() == pytest.approx(math.log(2), rel=1e-12)

    def test_bce_hand_value(self):
        loss = tr.bce_loss(Tensor(np.array([logit(0.9)])), np.array([1.0]))
        assert loss.item() == pytest.approx(-math.log(0.9), rel=1e-12)

    def test_bce_saturated_probs_stay_finite(self):
        # logits +-1000 saturate the sigmoid; both predictions are wrong
        logits = Tensor(np.array([-1000.0, 1000.0]))
        loss = tr.bce_loss(logits, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(1000.0, rel=1e-12)

    def test_bce_minimized_at_labels(self):
        y = np.array([1.0, 0.0, 1.0])
        toward = 2.0 * y - 1.0  # direction of logits that agree with y
        losses = [tr.bce_loss(Tensor(t * toward), y).item() for t in (0.0, 1.0, 5.0, 30.0)]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-12

    def test_bce_gradient_sign(self):
        z = Tensor(np.array([logit(0.3)]), requires_grad=True)
        tr.bce_loss(z, np.array([1.0])).backward()
        assert z.grad[0] < 0  # raising the logit lowers the loss
        w = Tensor(np.array([logit(0.3)]), requires_grad=True)
        tr.bce_loss(w, np.array([0.0])).backward()
        assert w.grad[0] > 0

    def test_bce_shape_mismatch(self):
        with pytest.raises(ValueError):
            tr.bce_loss(Tensor(np.array([0.0, 0.0])), np.array([1.0]))


def pretrain_batch(monkeypatch, seqs):
    """What _batch_loss feeds the encoder and the loss in pretrain mode:
    (inputs, counts, targets, target_mask) for one batch of `seqs`."""
    seen = {}

    def forward(tokens, n_real, *args, **kwargs):
        seen["inputs"], seen["counts"] = tokens, n_real
        return Tensor(np.zeros_like(tokens))

    def mse(pred, target, target_mask):
        seen["targets"], seen["mask"] = np.asarray(target), np.asarray(target_mask)
        return Tensor(np.zeros(()))

    monkeypatch.setattr(tfm, "forward", forward)
    monkeypatch.setattr(tr, "mse_loss", mse)
    tr._batch_loss([(s.tokens, None) for s in seqs], np.arange(len(seqs)),
                   tr.PRETRAIN, tiny_model(), {}, None)
    return seen["inputs"], seen["counts"], seen["targets"], seen["mask"]


class TestPretrainPairs:
    def test_two_beats(self, monkeypatch):
        rng = ad.seeded_rng(2)
        seq = synth.random_sequence(rng, 5, 4, n_real=2)
        longer = synth.random_sequence(rng, 5, 4, n_real=5)
        inputs, counts, targets, mask = pretrain_batch(monkeypatch, [seq, longer])
        assert inputs.shape == targets.shape == (2, 4, 4)
        assert counts.tolist() == [1, 4]
        assert np.array_equal(mask[0], [True, False, False, False])
        assert np.array_equal(inputs[0, 0], seq.tokens[0])
        assert np.array_equal(targets[0, 0], seq.tokens[1])
        assert np.all(targets[0, 1:] == 0.0)  # padding, never supervised
        assert np.array_equal(inputs[1], longer.tokens[:4])
        assert np.array_equal(targets[1], longer.tokens[1:])

    def test_full_sequence(self, monkeypatch):
        rng = ad.seeded_rng(3)
        seq = synth.random_sequence(rng, 50, 4, n_real=50)
        inputs, counts, targets, mask = pretrain_batch(monkeypatch, [seq])
        assert mask.sum() == 49 and counts.tolist() == [49]
        assert np.array_equal(inputs[0], seq.tokens[:49])
        assert np.array_equal(targets[0], seq.tokens[1:50])

    def test_single_beat_unsupervisable(self, tmp_path):
        rng = ad.seeded_rng(4)
        data = [(synth.random_sequence(rng, 5, 8, n_real=1), None)] * 3
        with pytest.raises(EmptyInputError, match=">= 2 beats"):
            tr.train(data, tiny_model(), tiny_optim(), tr.PRETRAIN, seed=4,
                     out_dir=str(tmp_path))

    def test_mask_counts_property(self, monkeypatch):
        rng = ad.seeded_rng(5)
        seqs = [synth.random_sequence(rng, 12, 3, n_real=n) for n in range(2, 13)]
        inputs, counts, _, mask = pretrain_batch(monkeypatch, seqs)
        assert inputs.shape[1] == 11  # the longest sequence sets the batch length
        for row, n in enumerate(range(2, 13)):
            assert counts[row] == n - 1
            assert np.array_equal(mask[row], np.arange(11) < n - 1)

    def test_matches_full_width_reference(self):
        # the version-1 layout: every sequence padded to max_pos = 50 rows,
        # inputs zeroed from the last real beat on, targets shifted by one
        cfg = tiny_model(max_pos=50, dropout_rate=0.0).with_head(tfm.GENERATIVE)
        params = tfm.init_params(cfg, seed=3)
        rng = ad.seeded_rng(6)
        seqs = [synth.random_sequence(rng, 50, 8, n_real=n) for n in (2, 9, 14, 5)]
        inputs = np.zeros((4, 50, 8), np.float32)
        targets = np.zeros((4, 50, 8), np.float32)
        for b, s in enumerate(seqs):
            inputs[b, : s.n_real - 1] = s.tokens[:-1]
            targets[b, : s.n_real - 1] = s.tokens[1:]
        counts = np.array([s.n_real - 1 for s in seqs])
        out = tfm.forward(inputs, counts, cfg, params, training=True,
                          rng=ad.RngStream(0, "dropout", 1))
        expect = tr.mse_loss(out, targets, np.arange(50) < counts[:, None])

        loss = tr._batch_loss([(s.tokens, None) for s in seqs], np.arange(4),
                              tr.PRETRAIN, cfg, params, ad.RngStream(0, "dropout", 1))
        # equal up to float32 rounding: attention's weights @ v contracts over
        # the batch length (50 there, 13 here), and the matmul kernel may
        # group the products differently for the two lengths
        assert loss.item() == pytest.approx(expect.item(), rel=1e-6, abs=0)


class TestThresholdPredict:
    def test_strictly_greater(self):
        # sigmoid(0) is exactly 0.5, which is not above the threshold
        logits = logit(np.array([0.5, 0.51, 0.49, 0.500001]))
        assert tr.threshold_predict(logits).tolist() == [0, 1, 0, 1]

    def test_recalibration(self):
        logits = logit(np.array([0.5, 0.2]))
        assert tr.threshold_predict(logits, threshold=0.4).tolist() == [1, 0]

    def test_tensor_input(self):
        assert tr.threshold_predict(Tensor(logit(np.array([0.9, 0.1])))).tolist() == [1, 0]


class TestEvaluate:
    def fixed_prob_eval(self, monkeypatch, probs, labels, threshold=0.5):
        logits = logit(np.asarray(probs, dtype=np.float64))
        monkeypatch.setattr(tr, "forward_batches",
                            lambda *a, **k: logits)
        dataset = [(None, np.asarray(y, np.int8)) for y in labels]
        cfg = tfm.ModelConfig(d_model=4, n_encoders=1, n_heads=1, dff=4,
                              max_pos=3, d_class=len(labels[0]),
                              head=tfm.CLASSIFIER)
        return tr.evaluate({}, cfg, dataset, threshold=threshold)

    def test_perfect_predictions(self, monkeypatch):
        labels = [[1, 0], [0, 1], [1, 1]]
        probs = [[0.9, 0.1], [0.1, 0.9], [0.8, 0.7]]
        m = self.fixed_prob_eval(monkeypatch, probs, labels)
        assert m["macro_f1"] == 1.0
        assert m["micro_f1"] == 1.0
        assert m["exact_match"] == 1.0
        assert all(c["f1"] == 1.0 for c in m["per_class"])

    def test_all_negative_conventions(self, monkeypatch):
        labels = [[1, 0], [1, 0]]
        probs = [[0.1, 0.1], [0.2, 0.2]]
        m = self.fixed_prob_eval(monkeypatch, probs, labels)
        # class 0 has support but no predictions: P=R=F1=0
        assert m["per_class"][0]["f1"] == 0.0
        assert m["per_class"][0]["support"] == 2
        # class 1 never appears; it is left out of the macro average
        assert m["macro_f1"] == 0.0
        assert m["exact_match"] == 0.0

    def test_hand_confusion(self, monkeypatch):
        # class 0: tp=1 fp=1 fn=1 -> P=R=F1=0.5
        labels = [[1], [1], [0], [0]]
        probs = [[0.9], [0.2], [0.8], [0.1]]
        m = self.fixed_prob_eval(monkeypatch, probs, labels)
        c = m["per_class"][0]
        assert c["precision"] == 0.5 and c["recall"] == 0.5 and c["f1"] == 0.5
        assert m["exact_match"] == 0.5

    def test_threshold_respected(self, monkeypatch):
        labels = [[1]]
        m = self.fixed_prob_eval(monkeypatch, [[0.45]], labels, threshold=0.4)
        assert m["per_class"][0]["recall"] == 1.0

    def test_empty_dataset_rejected(self):
        cfg = tfm.ModelConfig(d_model=4, n_encoders=1, n_heads=1, dff=4,
                              d_class=2, head=tfm.CLASSIFIER)
        with pytest.raises(ValueError):
            tr.evaluate({}, cfg, [])

    def test_end_to_end_with_real_model(self):
        cfg = tfm.ModelConfig(d_model=6, n_encoders=1, n_heads=2, dff=8,
                              max_pos=4, d_class=2, dropout_rate=0.0,
                              head=tfm.CLASSIFIER)
        params = tfm.init_params(cfg, seed=0)
        data = synth.labeled_dataset(6, 5, cfg.max_pos, cfg.d_model, cfg.d_class)
        m = tr.evaluate(params, cfg, data)
        assert m["n_samples"] == 5
        assert 0.0 <= m["macro_f1"] <= 1.0
        assert np.isfinite(m["mean_bce"])


class TestForwardBatches:
    def test_builds_no_backward_graph(self, monkeypatch):
        cfg = tfm.ModelConfig(d_model=6, n_encoders=2, n_heads=2, dff=8,
                              max_pos=4, d_class=2, dropout_rate=0.0,
                              head=tfm.CLASSIFIER)
        params = tfm.init_params(cfg, seed=0)
        seqs = [s for s, _ in synth.labeled_dataset(6, 5, cfg.max_pos, cfg.d_model,
                                                    cfg.d_class)]
        expect = tfm.forward(*tr.pad_batch([s.tokens for s in seqs]), cfg, params).data
        made = []
        make = ad._make

        def recording_make(data, parents, backward_fn):
            out = make(data, parents, backward_fn)
            made.append(out)
            return out

        monkeypatch.setattr(ad, "_make", recording_make)
        logits = tr.forward_batches(params, cfg, seqs, batch_size=2)
        assert made, "the forward ran no autodiff op"
        assert all(not t._parents and t._backward_fn is None for t in made)
        assert np.allclose(logits, expect, rtol=0, atol=1e-6)
        assert all(p.requires_grad for p in params.values())

    def test_ragged_chunk_matches_single_forwards(self):
        cfg = tfm.ModelConfig(d_model=6, n_encoders=2, n_heads=2, dff=8,
                              max_pos=12, d_class=3, dropout_rate=0.0,
                              head=tfm.CLASSIFIER)
        params = tfm.init_params(cfg, seed=1)
        rng = ad.seeded_rng(9)
        seqs = [synth.random_sequence(rng, 12, 6, n_real=n) for n in (3, 12, 1, 7, 5)]
        logits = tr.forward_batches(params, cfg, seqs, batch_size=3)
        for row, s in zip(logits, seqs):
            single = tfm.forward(s.tokens, s.n_real, cfg, params).data
            assert np.allclose(row, single, rtol=0, atol=1e-6)


    def test_batches_sorted_by_length_rows_in_input_order(self, monkeypatch):
        cfg = tfm.ModelConfig(d_model=6, n_encoders=2, n_heads=2, dff=8,
                              max_pos=12, d_class=3, dropout_rate=0.0,
                              head=tfm.CLASSIFIER)
        params = tfm.init_params(cfg, seed=2)
        rng = ad.seeded_rng(10)
        seqs = [synth.random_sequence(rng, 12, 6, n_real=n) for n in (12, 1, 12, 1, 7)]
        singles = [tfm.forward(s.tokens, s.n_real, cfg, params).data for s in seqs]
        lengths = []
        forward = tfm.forward

        def spy(tokens, n_real, *args, **kwargs):
            lengths.append(tokens.shape[1])
            return forward(tokens, n_real, *args, **kwargs)

        monkeypatch.setattr(tfm, "forward", spy)
        logits = tr.forward_batches(params, cfg, seqs, batch_size=2)
        assert lengths == [1, 12, 12]
        assert logits.shape == (5, 3)
        for row, single in zip(logits, singles):
            assert np.allclose(row, single, rtol=0, atol=1e-6)


class TestBackwardReleasesGraph:
    def test_no_node_keeps_parents_or_closure(self, monkeypatch):
        cfg = tfm.ModelConfig(d_model=6, n_encoders=2, n_heads=2, dff=8,
                              max_pos=8, d_class=3, dropout_rate=0.1,
                              head=tfm.CLASSIFIER)
        params = tfm.init_params(cfg, seed=3)
        samples = [(s.tokens, y) for s, y in synth.labeled_dataset(11, 4, 8, 6, 3)]
        made = []
        make = ad._make

        def recording_make(data, parents, backward_fn):
            out = make(data, parents, backward_fn)
            made.append(out)
            return out

        monkeypatch.setattr(ad, "_make", recording_make)
        loss = tr._batch_loss(samples, np.arange(4), tr.CLASSIFY, cfg, params,
                              ad.RngStream(0, "dropout", 1))
        monkeypatch.setattr(ad, "_make", make)
        assert any(t._backward_fn is not None for t in made)
        loss.backward()
        assert all(not t._parents and t._backward_fn is None for t in made)
        assert all(p.grad is not None and np.isfinite(p.grad).all()
                   for p in params.values())


def mixed_batch(seed, head, lengths=(2, 7, 4, 5), dtype=np.float32):
    """(config, params, samples) of a tiny model and one sample per length."""
    cfg = tiny_model(max_pos=8, dropout_rate=0.0).with_head(head)
    params = tfm.init_params(cfg, seed=seed, dtype=dtype)
    rng = ad.seeded_rng(seed, "batch")
    samples = [(rng.normal(size=(n, cfg.d_model)).astype(dtype),
                (rng.random(cfg.d_class) < 0.5).astype(np.int8)) for n in lengths]
    return cfg, params, samples


class TestPackedRows:
    """The encoder computes only the real beats of a padded batch."""

    @staticmethod
    def weight_rows(monkeypatch, params):
        """Spy on ad.matmul: (parameter name, rows multiplied) per product
        by a weight, and the real beats of each forward, in call order."""
        names = {id(p.data): n for n, p in params.items() if n.endswith(".w")}
        seen = []
        matmul, forward = ad.matmul, tfm.forward

        def spy_matmul(a, b):
            if isinstance(b, Tensor) and id(b.data) in names:
                seen.append((names[id(b.data)], int(np.prod(a.shape[:-1]))))
            return matmul(a, b)

        def spy_forward(tokens, n_real, *args, **kwargs):
            seen.append(("forward", int(np.sum(n_real))))
            return forward(tokens, n_real, *args, **kwargs)

        monkeypatch.setattr(ad, "matmul", spy_matmul)
        monkeypatch.setattr(tfm, "forward", spy_forward)
        return seen

    @staticmethod
    def assert_real_rows_only(seen, batch_rows):
        """Every encoder weight (and the generative head) multiplies exactly
        the forward's real beats; the classifier head one row per sequence."""
        assert seen and seen[0][0] == "forward"
        real = None
        for name, rows in seen:
            if name == "forward":
                real = rows
            elif name == "head.w" and batch_rows is not None:
                assert rows == batch_rows.pop(0), name
            else:
                assert rows == real, (name, rows, real)

    @pytest.mark.parametrize("head", [tfm.GENERATIVE, tfm.CLASSIFIER])
    def test_training_products_see_only_real_rows(self, monkeypatch, head):
        cfg, params, samples = mixed_batch(1, head)
        mode = tr.PRETRAIN if head == tfm.GENERATIVE else tr.CLASSIFY
        seen = self.weight_rows(monkeypatch, params)
        loss = tr._batch_loss(samples, np.arange(4), mode, cfg, params,
                              ad.RngStream(0, "dropout", 1))
        loss.backward()
        # pretraining feeds n - 1 inputs per sequence
        real = sum(len(t) for t, _ in samples) - (4 if mode == tr.PRETRAIN else 0)
        assert seen[0] == ("forward", real)
        assert len(seen) == 1 + 6 * cfg.n_encoders + 1
        self.assert_real_rows_only(seen, [4] if head == tfm.CLASSIFIER else None)

    def test_inference_products_see_only_real_rows(self, monkeypatch):
        cfg, params, samples = mixed_batch(2, tfm.CLASSIFIER, lengths=(8, 1, 3, 6, 2))
        seqs = [BeatSequence(t) for t, _ in samples]
        seen = self.weight_rows(monkeypatch, params)
        tr.forward_batches(params, cfg, seqs, batch_size=2)
        assert [rows for name, rows in seen if name == "forward"] == [1 + 2, 3 + 6, 8]
        self.assert_real_rows_only(seen, [2, 2, 1])

    @pytest.mark.parametrize("mode", [tr.PRETRAIN, tr.CLASSIFY])
    def test_batch_gradient_is_mean_of_single_gradients(self, mode):
        head = tfm.GENERATIVE if mode == tr.PRETRAIN else tfm.CLASSIFIER
        cfg, params, samples = mixed_batch(3, head, dtype=np.float64)

        def grads(batch_idx):
            ad.zero_grads(params)
            tr._batch_loss(samples, np.asarray(batch_idx), mode, cfg, params,
                           ad.RngStream(0, "dropout", 1)).backward()
            return {n: p.grad.copy() for n, p in params.items()}

        batch = grads(range(len(samples)))
        # BCE averages over sequences, the masked MSE over supervised beats
        counts = np.array([len(t) - 1 if mode == tr.PRETRAIN else 1 for t, _ in samples])
        weights = counts / counts.sum()
        singles = [grads([i]) for i in range(len(samples))]
        for name, g in batch.items():
            mean = sum(w * s[name] for w, s in zip(weights, singles))
            assert np.abs(g - mean).max() <= 1e-12, name


class TestPadBatch:
    def test_pads_to_longest_in_order(self):
        rows = [np.full((n, 2), n, np.float32) for n in (2, 4, 1)]
        tokens, n_real = tr.pad_batch(rows)
        assert tokens.shape == (3, 4, 2) and tokens.dtype == np.float32
        assert n_real.tolist() == [2, 4, 1]
        for b, n in enumerate((2, 4, 1)):
            assert np.all(tokens[b, :n] == n) and np.all(tokens[b, n:] == 0.0)


class TestManifest:
    def test_relative_paths_and_labels(self, tmp_path):
        man = tmp_path / "manifest.tsv"
        man.write_text("a.tokens\t0,2\nsub/b.tokens\t\n# comment\nc.tokens\t1\n")
        entries = tr.load_manifest(str(man))
        assert entries[0] == (str(tmp_path / "a.tokens"), {0, 2})
        assert entries[1] == (str(tmp_path / "sub" / "b.tokens"), None)
        assert entries[2][1] == {1}

    def test_bad_index_field(self, tmp_path):
        man = tmp_path / "m.tsv"
        man.write_text("a.tokens\tzero\n")
        with pytest.raises(FormatError):
            tr.load_manifest(str(man))

    def test_multi_hot(self):
        assert tr.multi_hot({0, 3}, 5).tolist() == [1, 0, 0, 1, 0]
        assert tr.multi_hot(set(), 3).tolist() == [0, 0, 0]
        with pytest.raises(ValueError):
            tr.multi_hot({5}, 5)

    def test_load_dataset(self, tmp_path):
        rng = ad.seeded_rng(7)
        seq = synth.random_sequence(rng, 50, 8, n_real=2)
        save_tokens(str(tmp_path / "a.tokens"), seq)
        (tmp_path / "man.tsv").write_text("a.tokens\t1\n")
        data = tr.load_dataset(str(tmp_path / "man.tsv"), tiny_model())
        assert len(data) == 1
        assert np.array_equal(data[0][0].tokens, seq.tokens)
        assert data[0][1].tolist() == [0, 1, 0]

    def test_load_dataset_requires_labels_for_classify(self, tmp_path):
        rng = ad.seeded_rng(8)
        save_tokens(str(tmp_path / "a.tokens"),
                    synth.random_sequence(rng, 50, 8, n_real=2))
        (tmp_path / "man.tsv").write_text("a.tokens\t\n")
        with pytest.raises(FormatError):
            tr.load_dataset(str(tmp_path / "man.tsv"), tiny_model(),
                            require_labels=True)


def tiny_model(**kw):
    base = dict(d_model=8, n_encoders=1, n_heads=2, dff=16, max_pos=6,
                d_class=3, dropout_rate=0.1)
    base.update(kw)
    return tfm.ModelConfig(**base)


def tiny_optim(**kw):
    base = dict(d_model=8, warmup_steps=8, batch_size=4, epochs=2)
    base.update(kw)
    return tr.OptimizerConfig(**base)


class TestTrainLoop:
    def pretrain_data(self, seed=10, n=10):
        return synth.constant_beat_dataset(seed, n, 6, 8)

    def classify_data(self, seed=11, n=10):
        return synth.labeled_dataset(seed, n, 6, 8, 3)

    def test_pretrain_runs_and_logs(self, tmp_path):
        res = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(),
                       tr.PRETRAIN, seed=1, out_dir=str(tmp_path))
        assert res["steps"] == 2 * 3  # 10 samples / batch 4 -> 3 steps/epoch
        lines = [json.loads(l) for l in
                 open(res["log"], encoding="utf-8")]
        assert len(lines) == res["steps"]
        assert lines[0]["step"] == 1 and lines[-1]["epoch"] == 2
        assert lines[0]["lr"] == tr.lr_schedule(1, 8, 8)
        assert lines[0]["mode"] == tr.PRETRAIN
        assert all(np.isfinite(l["loss"]) for l in lines)

    def test_loss_decreases_on_constant_data(self, tmp_path):
        res = tr.train(self.pretrain_data(), tiny_model(dropout_rate=0.0),
                       tiny_optim(epochs=30), tr.PRETRAIN, seed=2,
                       out_dir=str(tmp_path))
        lines = [json.loads(l) for l in open(res["log"], encoding="utf-8")]
        assert lines[-1]["loss"] < lines[0]["loss"] * 0.5

    def test_classify_runs(self, tmp_path):
        res = tr.train(self.classify_data(), tiny_model(), tiny_optim(),
                       tr.CLASSIFY, seed=3, out_dir=str(tmp_path))
        m, o, arrays, state, epoch = tr.load_training_checkpoint(res["checkpoint"])
        assert m.head == tfm.CLASSIFIER
        assert epoch == 2
        assert state.step_num == res["steps"]
        assert "head.w" in arrays and arrays["head.w"].shape == (8, 3)

    def test_determinism_same_seed(self, tmp_path):
        a = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(),
                     tr.PRETRAIN, seed=4, out_dir=str(tmp_path / "a"))
        b = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(),
                     tr.PRETRAIN, seed=4, out_dir=str(tmp_path / "b"))
        ca = open(a["checkpoint"], "rb").read()
        cb = open(b["checkpoint"], "rb").read()
        assert ca == cb

    def test_different_seed_differs(self, tmp_path):
        a = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(),
                     tr.PRETRAIN, seed=4, out_dir=str(tmp_path / "a"))
        b = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(),
                     tr.PRETRAIN, seed=5, out_dir=str(tmp_path / "b"))
        assert open(a["checkpoint"], "rb").read() != open(b["checkpoint"], "rb").read()

    def strip_wall(self, path):
        out = []
        for line in open(path, encoding="utf-8"):
            d = json.loads(line)
            d.pop("wall_ms")
            out.append(d)
        return out

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        data = self.pretrain_data()
        full = tr.train(data, tiny_model(), tiny_optim(epochs=3),
                        tr.PRETRAIN, seed=6, out_dir=str(tmp_path / "full"))
        part = tr.train(data, tiny_model(), tiny_optim(epochs=1),
                        tr.PRETRAIN, seed=6, out_dir=str(tmp_path / "part"))
        resumed = tr.train(data, tiny_model(), tiny_optim(epochs=3),
                           tr.PRETRAIN, seed=6, out_dir=str(tmp_path / "part"),
                           resume=part["checkpoint"])
        assert open(full["checkpoint"], "rb").read() \
            == open(resumed["checkpoint"], "rb").read()
        assert self.strip_wall(full["log"]) == self.strip_wall(resumed["log"])

    @pytest.mark.parametrize("max_steps", [2, 5])
    @pytest.mark.parametrize("mode", [tr.PRETRAIN, tr.CLASSIFY])
    def test_resume_after_mid_epoch_stop(self, tmp_path, mode, max_steps):
        # 6 samples in batches of 2 make 3 steps an epoch; both stops fall mid-epoch
        data = (self.pretrain_data(n=6) if mode == tr.PRETRAIN
                else self.classify_data(n=6))
        optim = tiny_optim(batch_size=2, epochs=2)
        full = tr.train(data, tiny_model(), optim, mode, seed=6,
                        out_dir=str(tmp_path / "full"))
        part = tr.train(data, tiny_model(), optim, mode, seed=6,
                        out_dir=str(tmp_path / "part"), max_steps=max_steps)
        *_, epoch = tr.load_training_checkpoint(part["checkpoint"])
        assert part["steps"] == max_steps and epoch == max_steps // 3
        resumed = tr.train(data, tiny_model(), optim, mode, seed=6,
                           out_dir=str(tmp_path / "part"),
                           resume=part["checkpoint"])
        assert resumed["steps"] == full["steps"] == 6
        assert open(full["checkpoint"], "rb").read() \
            == open(resumed["checkpoint"], "rb").read()
        assert self.strip_wall(full["log"]) == self.strip_wall(resumed["log"])

    def test_resume_without_sample_count_runs_as_before(self, tmp_path):
        # a checkpoint written before meta.samples existed still resumes
        data = self.pretrain_data(n=6)
        optim = tiny_optim(batch_size=2, epochs=2)
        full = tr.train(data, tiny_model(), optim, tr.PRETRAIN, seed=6,
                        out_dir=str(tmp_path / "full"))
        part = tr.train(data, tiny_model(), optim, tr.PRETRAIN, seed=6,
                        out_dir=str(tmp_path / "part"), max_steps=2)
        header, entries = ad.load_checkpoint(part["checkpoint"])
        assert entries.pop("meta.samples").tolist() == [6.0]
        ad.save_checkpoint(part["checkpoint"], entries, header)
        tr.train(data, tiny_model(), optim, tr.PRETRAIN, seed=6,
                 out_dir=str(tmp_path / "part"), resume=part["checkpoint"])
        assert self.strip_wall(full["log"]) == self.strip_wall(part["log"])

    def test_resume_of_frozen_trunk_run(self, tmp_path):
        # 6 samples in batches of 2 make 3 steps an epoch; step 2 is mid-epoch
        pre = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(epochs=1),
                       tr.PRETRAIN, seed=15, out_dir=str(tmp_path / "pre"))
        _, _, trunk, _, _ = tr.load_training_checkpoint(
            pre["checkpoint"], lambda name: not name.startswith(("opt.", "head.")))
        data = self.classify_data(n=6)
        optim = tiny_optim(batch_size=2, epochs=2)
        runs = {}
        for run, max_steps in (("full", None), ("part", 2)):
            runs[run] = tr.train(data, tiny_model(), optim, tr.CLASSIFY, seed=16,
                                 out_dir=str(tmp_path / run), max_steps=max_steps,
                                 init_checkpoint=pre["checkpoint"], freeze_trunk=True)
        resumed = tr.train(data, tiny_model(), optim, tr.CLASSIFY, seed=16,
                           out_dir=str(tmp_path / "part"), freeze_trunk=True,
                           resume=runs["part"]["checkpoint"])
        assert resumed["steps"] == runs["full"]["steps"] == 6
        assert open(runs["full"]["checkpoint"], "rb").read() \
            == open(resumed["checkpoint"], "rb").read()
        assert self.strip_wall(runs["full"]["log"]) == self.strip_wall(resumed["log"])
        _, _, arrays, state, _ = tr.load_training_checkpoint(resumed["checkpoint"])
        for name, arr in trunk.items():
            assert np.array_equal(arrays[name], arr), name
        assert sorted(state.m) == ["head.b", "head.w"]

    def test_resume_rejects_model_mismatch(self, tmp_path):
        data = self.pretrain_data()
        part = tr.train(data, tiny_model(), tiny_optim(epochs=1),
                        tr.PRETRAIN, seed=7, out_dir=str(tmp_path))
        with pytest.raises(CheckpointMismatchError, match="dff"):
            tr.train(data, tiny_model(dff=32), tiny_optim(epochs=2),
                     tr.PRETRAIN, seed=7, out_dir=str(tmp_path),
                     resume=part["checkpoint"])

    def test_resume_allows_extending_epochs(self, tmp_path):
        data = self.pretrain_data()
        part = tr.train(data, tiny_model(), tiny_optim(epochs=1),
                        tr.PRETRAIN, seed=8, out_dir=str(tmp_path))
        res = tr.train(data, tiny_model(), tiny_optim(epochs=2),
                       tr.PRETRAIN, seed=8, out_dir=str(tmp_path),
                       resume=part["checkpoint"])
        assert res["steps"] == 2 * 3

    def test_cache_width_mismatch(self, tmp_path):
        data = self.pretrain_data()  # d_model=8 tokens
        with pytest.raises(CheckpointMismatchError, match="d_model"):
            tr.train(data, tiny_model(d_model=16, n_heads=2), tiny_optim(),
                     tr.PRETRAIN, seed=9, out_dir=str(tmp_path))

    def test_every_sequence_width_checked(self, tmp_path):
        data = self.pretrain_data()
        data[3] = (BeatSequence(np.ones((4, 9), np.float32)), None)
        with pytest.raises(CheckpointMismatchError, match="d_model=9"):
            tr.train(data, tiny_model(), tiny_optim(), tr.PRETRAIN, seed=9,
                     out_dir=str(tmp_path))

    def test_epochs_zero_writes_initial_checkpoint(self, tmp_path):
        res = tr.train(self.pretrain_data(), tiny_model(),
                       tiny_optim(epochs=0), tr.PRETRAIN, seed=10,
                       out_dir=str(tmp_path))
        assert res["steps"] == 0
        m, o, arrays, state, epoch = tr.load_training_checkpoint(res["checkpoint"])
        assert epoch == 0 and state.step_num == 0
        fresh = tfm.init_params(m.with_head(tfm.GENERATIVE), seed=10)
        assert np.array_equal(arrays["enc0.attn.wq.w"],
                              fresh["enc0.attn.wq.w"].data)

    def test_max_steps_stops_early(self, tmp_path):
        res = tr.train(self.pretrain_data(), tiny_model(),
                       tiny_optim(epochs=5), tr.PRETRAIN, seed=11,
                       out_dir=str(tmp_path), max_steps=4)
        assert res["steps"] == 4

    def test_max_steps_zero_writes_initial_checkpoint(self, tmp_path):
        res = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(),
                       tr.PRETRAIN, seed=10, out_dir=str(tmp_path), max_steps=0)
        assert res["steps"] == 0 and res["final_loss"] is None
        assert open(res["log"], encoding="utf-8").read() == ""
        m, _, arrays, state, epoch = tr.load_training_checkpoint(res["checkpoint"])
        assert epoch == 0 and state.step_num == 0
        fresh = tfm.init_params(m.with_head(tfm.GENERATIVE), seed=10)
        for name, p in fresh.items():
            assert np.array_equal(arrays[name], p.data), name

    @pytest.mark.parametrize("max_steps", [2, 3])
    def test_resume_at_or_past_max_steps_takes_no_step(self, tmp_path, max_steps):
        part = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(epochs=1),
                        tr.PRETRAIN, seed=12, out_dir=str(tmp_path))
        assert part["steps"] == 3
        _, before = ad.load_checkpoint(part["checkpoint"])
        log = open(part["log"], encoding="utf-8").read()
        res = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(epochs=3),
                       tr.PRETRAIN, seed=12, out_dir=str(tmp_path),
                       resume=part["checkpoint"], max_steps=max_steps)
        assert res["steps"] == 3 and res["final_loss"] is None
        # every entry is rewritten as it was; only the header's epoch target moved
        _, after = ad.load_checkpoint(res["checkpoint"])
        assert list(after) == list(before)
        assert all(np.array_equal(after[n], before[n]) for n in before)
        assert open(res["log"], encoding="utf-8").read() == log

    def test_negative_max_steps_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="max_steps"):
            tr.train(self.pretrain_data(), tiny_model(), tiny_optim(),
                     tr.PRETRAIN, seed=10, out_dir=str(tmp_path), max_steps=-3)
        assert not (tmp_path / "model.ckpt").exists()

    def test_transfer_copies_trunk_fresh_head(self, tmp_path):
        data = self.pretrain_data()
        pre = tr.train(data, tiny_model(), tiny_optim(epochs=1),
                       tr.PRETRAIN, seed=12, out_dir=str(tmp_path / "pre"))
        _, _, pre_arrays, _, _ = tr.load_training_checkpoint(pre["checkpoint"])
        clf = tr.train(self.classify_data(), tiny_model(),
                       tiny_optim(epochs=0), tr.CLASSIFY, seed=13,
                       out_dir=str(tmp_path / "clf"),
                       init_checkpoint=pre["checkpoint"])
        _, _, clf_arrays, _, _ = tr.load_training_checkpoint(clf["checkpoint"])
        for name, arr in pre_arrays.items():
            if name.startswith("head."):
                continue
            assert np.array_equal(clf_arrays[name], arr), name
        assert clf_arrays["head.w"].shape == (8, 3)
        assert not np.array_equal(clf_arrays["head.w"],
                                  pre_arrays["head.w"][:, :3])

    def test_transfer_reads_trunk_and_draws_only_head(self, tmp_path, monkeypatch):
        pre = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(epochs=1),
                       tr.PRETRAIN, seed=20, out_dir=str(tmp_path / "pre"))
        _, _, pre_arrays, _, _ = tr.load_training_checkpoint(pre["checkpoint"])
        config = tiny_model().with_head(tfm.CLASSIFIER)
        fresh = tfm.init_params(config, seed=21)
        names = [name for name, _, _ in tfm.param_shapes(config)]
        drawn, read = [], []
        xavier, load = ad.xavier_uniform, ad.load_checkpoint

        def spy_xavier(shape, seed_key, dtype=np.float64):
            drawn.append(names[seed_key[2]])  # init_params keys a draw by its index
            return xavier(shape, seed_key, dtype)

        def spy_load(path, keep=None):
            header, entries = load(path, keep)
            read.extend(entries)
            return header, entries

        monkeypatch.setattr(ad, "xavier_uniform", spy_xavier)
        monkeypatch.setattr(ad, "load_checkpoint", spy_load)
        clf = tr.train(self.classify_data(), tiny_model(), tiny_optim(epochs=0),
                       tr.CLASSIFY, seed=21, out_dir=str(tmp_path / "clf"),
                       init_checkpoint=pre["checkpoint"])
        monkeypatch.undo()
        assert drawn == ["head.w"]
        assert read and not [n for n in read if n.startswith(("opt.", "head."))]
        _, _, clf_arrays, _, _ = tr.load_training_checkpoint(clf["checkpoint"])
        assert list(clf_arrays) == names
        for name in names:
            want = fresh[name].data if name.startswith("head.") else pre_arrays[name]
            assert np.array_equal(clf_arrays[name], want), name

    @pytest.mark.parametrize("damage, error", [("drop", CheckpointMismatchError),
                                               ("reshape", FormatError)])
    def test_transfer_rejects_damaged_trunk_entry(self, tmp_path, damage, error):
        pre = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(epochs=1),
                       tr.PRETRAIN, seed=22, out_dir=str(tmp_path))
        header, entries = ad.load_checkpoint(pre["checkpoint"])
        name = "enc0.ffn.w1.w"
        if damage == "drop":
            del entries[name]
        else:
            entries[name] = entries[name].reshape(-1)
        ad.save_checkpoint(pre["checkpoint"], entries, header)
        with pytest.raises(error, match=name):
            tr.train(self.classify_data(), tiny_model(), tiny_optim(epochs=0),
                     tr.CLASSIFY, seed=22, out_dir=str(tmp_path / "x"),
                     init_checkpoint=pre["checkpoint"])

    def test_transfer_rejects_incompatible_trunk(self, tmp_path):
        pre = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(epochs=1),
                       tr.PRETRAIN, seed=14, out_dir=str(tmp_path))
        with pytest.raises(CheckpointMismatchError):
            tr.train(self.classify_data(), tiny_model(dff=32), tiny_optim(),
                     tr.CLASSIFY, seed=14, out_dir=str(tmp_path / "x"),
                     init_checkpoint=pre["checkpoint"])

    def test_freeze_trunk_only_updates_head(self, tmp_path):
        data = self.classify_data()
        pre = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(epochs=1),
                       tr.PRETRAIN, seed=15, out_dir=str(tmp_path / "pre"))
        _, _, pre_arrays, _, _ = tr.load_training_checkpoint(pre["checkpoint"])
        clf = tr.train(data, tiny_model(), tiny_optim(epochs=2),
                       tr.CLASSIFY, seed=16, out_dir=str(tmp_path / "clf"),
                       init_checkpoint=pre["checkpoint"], freeze_trunk=True)
        _, _, clf_arrays, _, _ = tr.load_training_checkpoint(clf["checkpoint"])
        for name, arr in pre_arrays.items():
            if name.startswith("head."):
                continue
            assert np.array_equal(clf_arrays[name], arr), name
        fresh = tfm.init_params(tiny_model().with_head(tfm.CLASSIFIER), seed=16)
        assert not np.array_equal(clf_arrays["head.w"], fresh["head.w"].data)

    def test_resume_and_init_checkpoint_exclusive(self, tmp_path):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            tr.train(self.pretrain_data(), tiny_model(), tiny_optim(),
                     tr.PRETRAIN, seed=17, out_dir=str(tmp_path),
                     resume="a.ckpt", init_checkpoint="b.ckpt")

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError):
            tr.train(self.pretrain_data(), tiny_model(), tiny_optim(),
                     "finetune", seed=18, out_dir=str(tmp_path))

    def test_short_sequences_skipped_in_pretrain(self, tmp_path):
        rng = ad.seeded_rng(19)
        data = self.pretrain_data(n=6)
        data.append((synth.random_sequence(rng, 6, 8, n_real=1), None))
        res = tr.train(data, tiny_model(), tiny_optim(epochs=1),
                       tr.PRETRAIN, seed=19, out_dir=str(tmp_path))
        assert res["skipped_sequences"] == 1

    def test_params_stored_float32(self, tmp_path):
        res = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(epochs=1),
                       tr.PRETRAIN, seed=20, out_dir=str(tmp_path))
        _, _, arrays, state, _ = tr.load_training_checkpoint(res["checkpoint"])
        assert arrays["enc0.attn.wq.w"].dtype == np.float32
        assert state.m["enc0.attn.wq.w"].dtype == np.float32
