import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import synth
from beatformer import autodiff as ad
from beatformer import training as tr
from beatformer import transformer as tfm
from beatformer.autodiff import Tensor
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

    def test_step_past_the_float64_range_is_zero(self):
        # d_model * step passes the float64 range at step 18, not at step 1
        assert tr.lr_schedule(1, d_model=10**307) > 0.0
        assert tr.lr_schedule(20, d_model=10**307) == 0.0


def step_constants(cfg, t):
    """The learning rate and bias corrections adam_step uses at step t."""
    return (tr.lr_schedule(t, cfg.d_model, cfg.warmup_steps),
            1.0 - cfg.beta1 ** t, 1.0 - cfg.beta2 ** t)


def reference_adam_step(params, state, cfg, loss):
    """adam_step's reference: a plain backward sweep into zeroed .grad
    buffers, then adam_update of every parameter by its buffer."""
    state.step_num += 1
    lr, bc1, bc2 = step_constants(cfg, state.step_num)
    ad.zero_grads(params.values())
    loss.backward()
    for name, p in params.items():
        tr.adam_update(name, p, p.grad, state, cfg, lr, bc1, bc2)
    return lr


def linear_loss(p, g):
    """A loss whose gradient with respect to p is exactly g."""
    return ad.sum_(ad.mul(p, np.asarray(g, dtype=p.dtype)))


class TestAdam:
    def cfg(self, **kw):
        base = dict(d_model=4, warmup_steps=10, epochs=1, batch_size=1)
        base.update(kw)
        return tr.OptimizerConfig(**base)

    def update(self, p, g, state, t=1):
        cfg = self.cfg()
        tr.adam_update("w", p, g, state, cfg, *step_constants(cfg, t))

    def test_zero_gradient_is_fixed_point(self):
        p = Tensor(np.array([1.5, -2.5], dtype=np.float32), requires_grad=True)
        before = p.data.copy()
        state = tr.AdamState.for_params({"w": p})
        self.update(p, np.zeros(2, np.float32), state)
        assert np.array_equal(p.data, before)

    def test_first_step_moves_by_lr(self):
        # bias correction makes the first update exactly lr * g/(|g|+eps)
        p = Tensor(np.zeros(3), requires_grad=True)
        state = tr.AdamState.for_params({"w": p})
        cfg = self.cfg()
        lr = tr.adam_step({"w": p}, state, cfg, linear_loss(p, np.ones(3)))
        assert lr == tr.lr_schedule(1, 4, 10)
        assert np.allclose(p.data, -lr, atol=1e-9 * lr + 1e-15)

    def test_two_step_hand_trace(self):
        cfg = self.cfg()
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = tr.AdamState.for_params({"w": p})
        x = 1.0
        m = v = 0.0
        for t, g in ((1, 0.3), (2, -0.7)):
            tr.adam_step({"w": p}, state, cfg, linear_loss(p, [g]))
            lr = tr.lr_schedule(t, 4, 10)
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            mh = m / (1 - cfg.beta1 ** t)
            vh = v / (1 - cfg.beta2 ** t)
            x = x - lr * mh / (math.sqrt(vh) + cfg.epsilon)
        assert p.data[0] == pytest.approx(x, rel=1e-12)
        assert state.step_num == 2

    def test_update_never_makes_moments(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = tr.AdamState()
        with pytest.raises(KeyError, match="w"):
            self.update(p, np.array([0.5]), state)
        assert state.m == {} and state.v == {} and p.data[0] == 1.0

    def test_state_kept_float32_for_float32_params(self):
        p = Tensor(np.ones(2, np.float32), requires_grad=True)
        state = tr.AdamState.for_params({"w": p})
        self.update(p, np.ones(2, np.float32), state)
        assert state.m["w"].dtype == np.float32
        assert state.v["w"].dtype == np.float32
        assert p.data.dtype == np.float32

    def test_updates_in_place(self):
        p = Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32), requires_grad=True)
        state = tr.AdamState.for_params({"w": p})
        arrays = (p.data, state.m["w"], state.v["w"])
        before = p.data.copy()
        self.update(p, np.ones(3, np.float32), state)
        assert all(new is old for new, old in
                   zip((p.data, state.m["w"], state.v["w"]), arrays))
        assert not np.array_equal(p.data, before)

    def test_peak_memory_stays_within_blocks(self):
        # an out-of-place update allocates several 4 MiB temporaries here
        p = Tensor(np.zeros((1024, 1024), dtype=np.float32), requires_grad=True)
        g = np.full(p.shape, 0.25, dtype=np.float32)
        state = tr.AdamState.for_params({"w": p})
        tracemalloc.start()
        try:
            self.update(p, g, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @staticmethod
    def reference_step(p, g, m, v, t, cfg):
        """The out-of-place update adam_update must match bit for bit."""
        lr, bc1, bc2 = step_constants(cfg, t)
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
        p = Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
        state = tr.AdamState.for_params({"w": p})
        ref_p, ref_m, ref_v = p.data.copy(), state.m["w"].copy(), state.v["w"].copy()
        for t in (1, 2, 3):
            g = (rng.normal(size=shape) * 10.0 ** rng.integers(-6, 2, size=shape)).astype(dtype)
            self.update(p, g, state, t)
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

    @pytest.mark.parametrize("line", ["optim.epsilon=nan", "optim.epsilon=inf",
                                      "optim.epsilon=1e300", "optim.threshold=nan",
                                      "optim.threshold=1.5", "optim.d_model=0",
                                      "optim.d_model=-4"])
    def test_checkpoint_header_value_refused(self, tmp_path, line):
        mcfg = tiny_model()
        params = tfm.init_params(mcfg, seed=0)
        path = str(tmp_path / "m.ckpt")
        tr.save_training_checkpoint(path, params, tr.AdamState.for_params(params),
                                    mcfg, tiny_optim(), 0)
        header, entries = ad.load_checkpoint(path)
        key = line.split("=")[0]
        ad.save_checkpoint(path, entries,
                           re.sub(rf"^{re.escape(key)}=.*$", line, header, flags=re.M))
        with pytest.raises(FormatError, match=key.split(".")[1]):
            tr.load_training_checkpoint(path)


def fused_case(dtype, freeze_trunk, lengths=(2, 7, 4, 5), **model):
    """(config, params, trainable, samples) for comparing Adam steps: a tiny
    model with dropout (tiny_model's, with `model`'s changes), plus a trained
    parameter `extra` outside it."""
    cfg = tiny_model(max_pos=8, **model).with_head(tfm.CLASSIFIER)
    params = tfm.init_params(cfg, seed=4, dtype=dtype)
    rng = ad.seeded_rng(4, "batch")
    samples = [(rng.normal(size=(n, cfg.d_model)).astype(dtype),
                (rng.random(cfg.d_class) < 0.5).astype(np.int8)) for n in lengths]
    for name, p in params.items():
        p.requires_grad = not freeze_trunk or name.startswith("head.")
    trainable = {name: p for name, p in params.items() if p.requires_grad}
    trainable["extra"] = Tensor(rng.normal(size=3).astype(dtype), requires_grad=True)
    return cfg, params, trainable, samples


class TestFusedAdam:
    """adam_step(..., loss) updates each weight inside the backward sweep."""

    def loss(self, cfg, params, trainable, samples, t):
        loss = tr._batch_loss(samples, np.arange(len(samples)), cfg, params,
                              ad.seeded_rng(0, "dropout", t))
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
            ref_lr = reference_adam_step(ref_train, ref_state, ocfg,
                                         self.loss(cfg, ref, ref_train, samples, t))
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
        p = Tensor(np.ones(2), requires_grad=True)
        stray = Tensor(np.ones(2), requires_grad=True)
        loss = ad.sum_(ad.mul(p, stray))
        with pytest.raises(ValueError, match="not a trained parameter"):
            tr.adam_step({"w": p}, tr.AdamState.for_params({"w": p}),
                         tr.OptimizerConfig(), loss)

    def test_leaf_reached_twice_is_an_error(self):
        p = Tensor(np.ones(2), requires_grad=True)

        class TwiceLoss:
            def backward(self, on_leaf):
                on_leaf(p, np.ones(2))
                on_leaf(p, np.ones(2))

        with pytest.raises(ValueError, match="parameter w reached twice"):
            tr.adam_step({"w": p}, tr.AdamState.for_params({"w": p}),
                         tr.OptimizerConfig(), TwiceLoss())

    def test_peak_memory_holds_no_gradient_buffers(self):
        # only the step is traced: the activations, made by the forward
        # before it, count neither when they are made nor when the sweep
        # frees them. A step that holds every gradient at once peaks above
        # their total; the fused step holds one at a time, plus the sweep's
        # transients, which at paper depth come to well under half of it
        def peak(step):
            cfg, params, trainable, samples = fused_case(
                np.float32, False, lengths=(3, 8, 7, 8), d_model=32, dff=64,
                n_encoders=5)
            state = tr.AdamState.for_params(trainable)
            ocfg = tr.OptimizerConfig(d_model=32)
            loss = self.loss(cfg, params, trainable, samples, 2)
            tracemalloc.start()
            try:
                step(trainable, state, ocfg, loss)
                return tracemalloc.get_traced_memory()[1], trainable
            finally:
                tracemalloc.stop()

        for step in (reference_adam_step, tr.adam_step):  # first calls allocate lazily
            peak(step)
        ref_peak, trainable = peak(reference_adam_step)
        fused_peak, _ = peak(tr.adam_step)
        grad_bytes = sum(p.data.nbytes for p in trainable.values())
        assert ref_peak >= grad_bytes
        assert fused_peak < grad_bytes / 2


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
        # pred holds the supervised rows only; masked targets never enter
        pred = Tensor(np.zeros((2, 2)))
        target = np.zeros((3, 2))
        target[2] = 1e9  # huge error hidden behind the mask
        mask = np.array([True, True, False])
        assert tr.mse_loss(pred, target, mask).item() == 0.0

    def test_mse_normalizes_by_supervised_count(self):
        pred = Tensor(np.zeros((2, 2)))
        target = np.zeros((4, 2))
        target[0] = 3.0
        mask = np.array([True, True, False, False])
        # sum of squares 2*9=18 over count*d = 2*2
        assert tr.mse_loss(pred, target, mask).item() == pytest.approx(4.5)

    def test_mse_batched_mask(self):
        # the marked rows of [B, S, d], sequence by sequence, as forward packs them
        pred = Tensor(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
        target = np.zeros((2, 3, 2))
        target[1, 1] = 2.0
        mask = np.array([[True, False, False], [True, True, False]])
        # squares 1+1, 4+4, (3-2)^2 * 2 over 3*2
        assert tr.mse_loss(pred, target, mask).item() == pytest.approx(12.0 / 6)

    def test_mse_all_masked_rejected(self):
        with pytest.raises(ValueError, match="no supervised positions"):
            tr.mse_loss(Tensor(np.zeros((0, 2))), np.zeros((2, 2)),
                        np.zeros(2, bool))

    def test_mse_row_count_mismatch_rejected(self):
        mask = np.array([True, True, False])
        for rows in (1, 3):
            with pytest.raises(ValueError, match="2 supervised positions"):
                tr.mse_loss(Tensor(np.zeros((rows, 2))), np.zeros((3, 2)), mask)

    def test_mse_gradient(self):
        pred = Tensor(ad.seeded_rng(1).normal(size=(2, 2)), requires_grad=True)
        target = np.zeros((3, 2))
        target[2] = 5.0  # unsupervised
        mask = np.array([True, True, False])
        tr.mse_loss(pred, target, mask).backward()
        assert np.allclose(pred.grad, 2.0 * pred.data / (2 * 2))

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
    """What _batch_loss feeds the encoder and the loss under the generative head:
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
                   tiny_model().with_head(tfm.GENERATIVE), {}, None)
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
        out = tfm.forward(inputs, counts, cfg, params, rng=ad.seeded_rng(0, "dropout", 1))
        expect = tr.mse_loss(out, targets, np.arange(50) < counts[:, None])

        loss = tr._batch_loss([(s.tokens, None) for s in seqs], np.arange(4), cfg, params,
                              ad.seeded_rng(0, "dropout", 1))
        # equal up to float32 rounding: attention's weights @ v contracts over
        # the batch length (50 there, 13 here), and the matmul kernel may
        # group the products differently for the two lengths
        assert loss.item() == pytest.approx(expect.item(), rel=1e-6, abs=0)


def graph(loss):
    """Every node of loss's backward graph, loss first."""
    nodes, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


class TestBackwardGraph:
    """A training step keeps few nodes, and each weight's gradient is used
    as soon as it is complete."""

    @staticmethod
    def step_loss(n_encoders):
        cfg = tiny_model(n_encoders=n_encoders, max_pos=8).with_head(tfm.CLASSIFIER)
        params = tfm.init_params(cfg, seed=5)
        rng = ad.seeded_rng(5, "batch")
        samples = [(rng.normal(size=(n, cfg.d_model)).astype(np.float32),
                    (rng.random(cfg.d_class) < 0.5).astype(np.int8)) for n in (2, 7, 4, 5)]
        loss = tr._batch_loss(samples, np.arange(4), cfg, params,
                              ad.seeded_rng(5, "dropout", 1))
        return params, loss

    def test_paper_depth_step_node_count(self):
        # 16 nodes an encoder layer (q/k/v/o linear, 3 head splits, attention,
        # head merge, 2 dropouts, 2 residual norms, ffn linear-relu-linear),
        # the mean pooling, the head and the loss: 83
        _, loss = self.step_loss(5)
        interior = [n for n in graph(loss) if n._backward_fn is not None]
        assert len(interior) <= 90

    def test_no_closure_runs_while_a_complete_gradient_waits(self):
        params, loss = self.step_loss(2)
        names = {id(p): name for name, p in params.items()}
        weights = set(names)
        uses = dict.fromkeys(weights, 0)
        waiting, swept = set(), []
        for node in graph(loss):
            if node._backward_fn is None:
                continue
            parents = [p for p in node._parents if id(p) in weights]
            for p in parents:
                uses[id(p)] += 1

            def spy(g, fn=node._backward_fn, parents=parents):
                assert not waiting, "a closure ran while a weight's gradient waited"
                out = fn(g)
                for p in parents:
                    uses[id(p)] -= 1
                    if not uses[id(p)]:
                        waiting.add(id(p))
                return out

            node._backward_fn = spy

        def on_leaf(leaf, g):
            waiting.remove(id(leaf))
            swept.append(names[id(leaf)])

        loss.backward(on_leaf)
        assert not waiting and sorted(swept) == sorted(params)


class TestThresholdPredict:
    def test_strictly_greater(self):
        # sigmoid(0) is exactly 0.5, which is not above the threshold
        logits = logit(np.array([0.5, 0.51, 0.49, 0.500001]))
        assert tr.threshold_predict(logits).tolist() == [0, 1, 0, 1]

    def test_recalibration(self):
        logits = logit(np.array([0.5, 0.2]))
        assert tr.threshold_predict(logits, threshold=0.4).tolist() == [1, 0]


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
        monkeypatch.setattr(tr, "BATCH_ROWS", 8)
        logits = tr.forward_batches(params, cfg, seqs)
        assert made, "the forward ran no autodiff op"
        assert all(not t._parents and t._backward_fn is None for t in made)
        assert np.allclose(logits, expect, rtol=0, atol=1e-6)
        assert all(p.requires_grad for p in params.values())

    def test_ragged_chunk_matches_single_forwards(self, monkeypatch):
        cfg = tfm.ModelConfig(d_model=6, n_encoders=2, n_heads=2, dff=8,
                              max_pos=12, d_class=3, dropout_rate=0.0,
                              head=tfm.CLASSIFIER)
        params = tfm.init_params(cfg, seed=1)
        rng = ad.seeded_rng(9)
        seqs = [synth.random_sequence(rng, 12, 6, n_real=n) for n in (3, 12, 1, 7, 5)]
        # batches of lengths (1, 3, 5) and (7, 12)
        monkeypatch.setattr(tr, "BATCH_ROWS", 24)
        logits = tr.forward_batches(params, cfg, seqs)
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
        monkeypatch.setattr(tr, "BATCH_ROWS", 12)
        logits = tr.forward_batches(params, cfg, seqs)
        assert lengths == [1, 7, 12, 12]
        assert logits.shape == (5, 3)
        for row, single in zip(logits, singles):
            assert np.allclose(row, single, rtol=0, atol=1e-6)


class TestBatchRows:
    """Inference batches are bounded by padded rows alone."""

    LENGTHS = (5, 1, 12, 3, 3, 9, 2, 12, 4, 1, 7, 6, 2, 11, 3)

    @staticmethod
    def model(seed=0):
        cfg = tfm.ModelConfig(d_model=6, n_encoders=2, n_heads=2, dff=8,
                              max_pos=12, d_class=3, dropout_rate=0.0,
                              head=tfm.CLASSIFIER)
        return cfg, tfm.init_params(cfg, seed=seed)

    @staticmethod
    def batch_shapes(monkeypatch):
        """Spy on tfm.forward: the [count, padded length] of each batch."""
        shapes = []
        forward = tfm.forward

        def spy(tokens, n_real, *args, **kwargs):
            shapes.append(tokens.shape[:2])
            return forward(tokens, n_real, *args, **kwargs)

        monkeypatch.setattr(tfm, "forward", spy)
        return shapes

    def sequences(self, seed, lengths=LENGTHS):
        rng = ad.seeded_rng(seed)
        return [synth.random_sequence(rng, 12, 6, n_real=n) for n in lengths]

    @pytest.mark.parametrize("rows", [12, 20, 24, 512])
    def test_no_batch_passes_the_row_bound(self, monkeypatch, rows):
        cfg, params = self.model()
        monkeypatch.setattr(tr, "BATCH_ROWS", rows)
        shapes = self.batch_shapes(monkeypatch)
        tr.forward_batches(params, cfg, self.sequences(1))
        assert sum(count for count, _ in shapes) == len(self.LENGTHS)
        for count, longest in shapes:
            assert count == 1 or count * longest <= rows, (count, longest)
        # each batch closes only when the next sequence would pass the bound
        ordered = sorted(self.LENGTHS)
        lo = 0
        for count, _ in shapes[:-1]:
            lo += count
            assert (count + 1) * ordered[lo] > rows

    def test_many_short_sequences_share_one_forward(self, monkeypatch):
        cfg, params = self.model(seed=6)
        seqs = self.sequences(7, lengths=(1,) * 40)
        singles = np.stack([tfm.forward(s.tokens, s.n_real, cfg, params).data
                            for s in seqs])
        shapes = self.batch_shapes(monkeypatch)
        logits = tr.forward_batches(params, cfg, seqs)
        # 40 rows are far inside BATCH_ROWS: no count closes the batch
        assert shapes == [(40, 1)]
        assert np.allclose(logits, singles, rtol=0, atol=1e-6)

    def test_sequence_longer_than_budget_runs_alone(self, monkeypatch):
        cfg, params = self.model()
        monkeypatch.setattr(tr, "BATCH_ROWS", 4)
        shapes = self.batch_shapes(monkeypatch)
        seqs = self.sequences(2, lengths=(2, 6, 2, 3, 6))
        logits = tr.forward_batches(params, cfg, seqs)
        assert shapes == [(2, 2), (1, 3), (1, 6), (1, 6)]
        assert logits.shape == (5, 3)

    def test_logits_match_single_forwards_in_input_order(self, monkeypatch):
        cfg, params = self.model(seed=3)
        seqs = self.sequences(4)
        singles = np.stack([tfm.forward(s.tokens, s.n_real, cfg, params).data
                            for s in seqs])
        monkeypatch.setattr(tr, "BATCH_ROWS", 16)
        shapes = self.batch_shapes(monkeypatch)
        logits = tr.forward_batches(params, cfg, seqs)
        assert len(shapes) > 2
        assert np.allclose(logits, singles, rtol=0, atol=1e-6)

    def test_evaluate_batches_by_rows(self, monkeypatch):
        cfg, params = self.model(seed=5)
        seqs = self.sequences(6)
        singles = np.stack([tfm.forward(s.tokens, s.n_real, cfg, params).data
                            for s in seqs])
        labels = (ad.seeded_rng(7).random((len(seqs), 3)) < 0.5).astype(np.int8)
        dataset = list(zip(seqs, labels))
        monkeypatch.setattr(tr, "BATCH_ROWS", 16)
        shapes = self.batch_shapes(monkeypatch)
        seen = []
        forward_batches = tr.forward_batches

        def spy(*args, **kwargs):
            seen.append(forward_batches(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(tr, "forward_batches", spy)
        metrics = tr.evaluate(params, cfg, dataset)
        assert len(seen) == 1 and len(shapes) > 2
        assert all(count == 1 or count * longest <= 16 for count, longest in shapes)
        assert np.allclose(seen[0], singles, rtol=0, atol=1e-6)
        monkeypatch.setattr(tr, "forward_batches", lambda *a, **k: singles)
        assert metrics == tr.evaluate(params, cfg, dataset)

    def test_peak_memory_does_not_grow_with_count(self, monkeypatch):
        cfg = tfm.ModelConfig(d_model=64, n_encoders=1, n_heads=2, dff=256,
                              max_pos=16, d_class=3, dropout_rate=0.0,
                              head=tfm.CLASSIFIER)
        params = tfm.init_params(cfg, seed=8)
        monkeypatch.setattr(tr, "BATCH_ROWS", 64)
        rng = ad.seeded_rng(9)
        seqs = [synth.random_sequence(rng, 16, 64, n_real=16) for _ in range(64)]

        def peak(count):
            tr.forward_batches(params, cfg, seqs[:count])
            tracemalloc.start()
            try:
                tr.forward_batches(params, cfg, seqs[:count])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(16), peak(64)
        assert large <= 1.25 * small, (small, large)


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
        loss = tr._batch_loss(samples, np.arange(4), cfg, params,
                              ad.seeded_rng(0, "dropout", 1))
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
        """Spy on ad.linear: (parameter name, rows multiplied) per product
        by a weight, and the real beats of each forward, in call order."""
        names = {id(p.data): n for n, p in params.items() if n.endswith(".w")}
        seen = []
        linear, forward = ad.linear, tfm.forward

        def spy_linear(x, w, b):
            seen.append((names[id(w.data)], int(np.prod(x.shape[:-1]))))
            return linear(x, w, b)

        def spy_forward(tokens, n_real, *args, **kwargs):
            seen.append(("forward", int(np.sum(n_real))))
            return forward(tokens, n_real, *args, **kwargs)

        monkeypatch.setattr(ad, "linear", spy_linear)
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
        seen = self.weight_rows(monkeypatch, params)
        loss = tr._batch_loss(samples, np.arange(4), cfg, params,
                              ad.seeded_rng(0, "dropout", 1))
        loss.backward()
        # pretraining feeds n - 1 inputs per sequence
        real = sum(len(t) for t, _ in samples) - (4 if head == tfm.GENERATIVE else 0)
        assert seen[0] == ("forward", real)
        assert len(seen) == 1 + 6 * cfg.n_encoders + 1
        self.assert_real_rows_only(seen, [4] if head == tfm.CLASSIFIER else None)

    def test_inference_products_see_only_real_rows(self, monkeypatch):
        cfg, params, samples = mixed_batch(2, tfm.CLASSIFIER, lengths=(8, 1, 3, 6, 2))
        seqs = [BeatSequence(t) for t, _ in samples]
        seen = self.weight_rows(monkeypatch, params)
        monkeypatch.setattr(tr, "BATCH_ROWS", 12)
        tr.forward_batches(params, cfg, seqs)
        assert [rows for name, rows in seen if name == "forward"] == [1 + 2 + 3, 6, 8]
        assert len(seen) == 3 * (1 + 6 * cfg.n_encoders + 1)
        self.assert_real_rows_only(seen, [3, 1, 1])

    @pytest.mark.parametrize("head", [tfm.GENERATIVE, tfm.CLASSIFIER],
                             ids=[tr.PRETRAIN, tr.CLASSIFY])
    def test_batch_gradient_is_mean_of_single_gradients(self, head):
        cfg, params, samples = mixed_batch(3, head, dtype=np.float64)

        def grads(batch_idx):
            ad.zero_grads(params.values())
            tr._batch_loss(samples, np.asarray(batch_idx), cfg, params,
                           ad.seeded_rng(0, "dropout", 1)).backward()
            return {n: p.grad.copy() for n, p in params.items()}

        batch = grads(range(len(samples)))
        # BCE averages over sequences, the masked MSE over supervised beats
        counts = np.array([len(t) - 1 if head == tfm.GENERATIVE else 1 for t, _ in samples])
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
        data = tr.load_dataset(tr.load_manifest(str(tmp_path / "man.tsv")), tiny_model())
        assert len(data) == 1
        assert np.array_equal(data[0][0].tokens, seq.tokens)
        assert data[0][1].tolist() == [0, 1, 0]

    def test_load_dataset_requires_labels_for_classify(self, tmp_path):
        rng = ad.seeded_rng(8)
        save_tokens(str(tmp_path / "a.tokens"),
                    synth.random_sequence(rng, 50, 8, n_real=2))
        (tmp_path / "man.tsv").write_text("a.tokens\t\n")
        with pytest.raises(FormatError):
            tr.load_dataset(tr.load_manifest(str(tmp_path / "man.tsv")), tiny_model(),
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
                 Path(res["log"]).read_text(encoding="utf-8").splitlines()]
        assert len(lines) == res["steps"]
        assert lines[0]["step"] == 1 and lines[-1]["epoch"] == 2
        assert lines[0]["lr"] == tr.lr_schedule(1, 8, 8)
        assert lines[0]["mode"] == tr.PRETRAIN
        assert all(np.isfinite(l["loss"]) for l in lines)

    def test_loss_decreases_on_constant_data(self, tmp_path):
        res = tr.train(self.pretrain_data(), tiny_model(dropout_rate=0.0),
                       tiny_optim(epochs=30), tr.PRETRAIN, seed=2,
                       out_dir=str(tmp_path))
        lines = [json.loads(l) for l in
                 Path(res["log"]).read_text(encoding="utf-8").splitlines()]
        assert lines[-1]["loss"] < lines[0]["loss"] * 0.5

    def test_classify_runs(self, tmp_path):
        res = tr.train(self.classify_data(), tiny_model(), tiny_optim(),
                       tr.CLASSIFY, seed=3, out_dir=str(tmp_path))
        m, o, arrays, state, counters = tr.load_training_checkpoint(res["checkpoint"])
        assert m.head == tfm.CLASSIFIER
        assert counters == {"epoch": 2, "samples": 10}
        assert state.step_num == res["steps"]
        assert "head.w" in arrays and arrays["head.w"].shape == (8, 3)

    def test_determinism_same_seed(self, tmp_path):
        a = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(),
                     tr.PRETRAIN, seed=4, out_dir=str(tmp_path / "a"))
        b = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(),
                     tr.PRETRAIN, seed=4, out_dir=str(tmp_path / "b"))
        ca = Path(a["checkpoint"]).read_bytes()
        cb = Path(b["checkpoint"]).read_bytes()
        assert ca == cb

    def test_different_seed_differs(self, tmp_path):
        a = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(),
                     tr.PRETRAIN, seed=4, out_dir=str(tmp_path / "a"))
        b = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(),
                     tr.PRETRAIN, seed=5, out_dir=str(tmp_path / "b"))
        assert Path(a["checkpoint"]).read_bytes() != Path(b["checkpoint"]).read_bytes()

    def strip_wall(self, path):
        out = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
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
        assert Path(full["checkpoint"]).read_bytes() \
            == Path(resumed["checkpoint"]).read_bytes()
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
        *_, counters = tr.load_training_checkpoint(part["checkpoint"])
        assert part["steps"] == max_steps and counters["epoch"] == max_steps // 3
        resumed = tr.train(data, tiny_model(), optim, mode, seed=6,
                           out_dir=str(tmp_path / "part"),
                           resume=part["checkpoint"])
        assert resumed["steps"] == full["steps"] == 6
        assert Path(full["checkpoint"]).read_bytes() \
            == Path(resumed["checkpoint"]).read_bytes()
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
        assert Path(runs["full"]["checkpoint"]).read_bytes() \
            == Path(resumed["checkpoint"]).read_bytes()
        assert self.strip_wall(runs["full"]["log"]) == self.strip_wall(resumed["log"])
        _, _, arrays, state, _ = tr.load_training_checkpoint(resumed["checkpoint"])
        for name, arr in trunk.items():
            assert np.array_equal(arrays[name], arr), name
        assert sorted(state.m) == ["head.b", "head.w"]

    def test_resume_reads_checkpoint_once(self, tmp_path, monkeypatch):
        data = self.pretrain_data(n=6)
        optim = tiny_optim(batch_size=2, epochs=2)
        part = tr.train(data, tiny_model(), optim, tr.PRETRAIN, seed=6,
                        out_dir=str(tmp_path), max_steps=2)
        reads, load = [], ad.load_checkpoint

        def spy_load(path, keep=None):
            reads.append(path)
            return load(path, keep)

        monkeypatch.setattr(ad, "load_checkpoint", spy_load)
        res = tr.train(data, tiny_model(), optim, tr.PRETRAIN, seed=6,
                       out_dir=str(tmp_path), resume=part["checkpoint"])
        assert res["steps"] == 6 and reads == [part["checkpoint"]]

    @pytest.mark.parametrize("frozen, resume_frozen, damage, problem", [
        (True, False, None, r"opt\.m\.enc0\.\S+: shape absent in the checkpoint, \(8"),
        (False, True, None, r"opt\.m\.enc0\.\S+: shape \(8.*\) in the checkpoint, absent here"),
        (True, True, "reshape", r"opt\.m\.head\.b: shape \(5,\) in the checkpoint, \(3,\) here"),
        (True, True, "drop", r"opt\.v\.head\.b: shape absent in the checkpoint, \(3,\) here"),
    ], ids=["unfrozen-resume", "frozen-resume", "moment-shape", "missing-moment"])
    def test_resume_refuses_moments_of_another_run(self, tmp_path, frozen, resume_frozen,
                                                   damage, problem):
        data = self.classify_data(n=6)
        optim = tiny_optim(batch_size=2, epochs=2)
        # a frozen run trains a head on a pre-trained trunk
        trunk = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(epochs=1),
                         tr.PRETRAIN, seed=15, out_dir=str(tmp_path / "pre")) if frozen else None
        part = tr.train(data, tiny_model(), optim, tr.CLASSIFY, seed=16,
                        out_dir=str(tmp_path), max_steps=2, freeze_trunk=frozen,
                        init_checkpoint=trunk and trunk["checkpoint"])
        header, entries = ad.load_checkpoint(part["checkpoint"])
        if damage == "reshape":
            entries["opt.m.head.b"] = np.zeros(5, np.float32)
        elif damage == "drop":
            del entries["opt.v.head.b"]
        ad.save_checkpoint(part["checkpoint"], entries, header)
        log = Path(part["log"]).read_text(encoding="utf-8")
        with pytest.raises(CheckpointMismatchError, match="--freeze-trunk") as exc:
            tr.train(data, tiny_model(), optim, tr.CLASSIFY, seed=16,
                     out_dir=str(tmp_path), freeze_trunk=resume_frozen,
                     resume=part["checkpoint"])
        assert re.search(problem, str(exc.value))
        assert Path(part["log"]).read_text(encoding="utf-8") == log

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

    def test_sequence_longer_than_max_pos_refused_before_out_dir(self, tmp_path):
        log = tmp_path / "train_log.ndjson"
        log.write_text("previous run\n")
        data = self.classify_data()
        data[2] = (synth.random_sequence(ad.seeded_rng(12), 7, 8, n_real=7), data[2][1])
        with pytest.raises(ConfigError, match=r"sequence 2: 7 beats exceed model.max_pos=6"):
            tr.train(data, tiny_model(), tiny_optim(), tr.CLASSIFY, seed=9,
                     out_dir=str(tmp_path))
        assert log.read_text() == "previous run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train_log.ndjson"]

    def test_unlabelled_sequence_refused_in_classify(self, tmp_path):
        data = self.classify_data()
        data[4] = (data[4][0], None)
        out = tmp_path / "out"
        with pytest.raises(FormatError, match="sequence 4: record has no labels"):
            tr.train(data, tiny_model(), tiny_optim(), tr.CLASSIFY, seed=9,
                     out_dir=str(out))
        assert not out.exists()
        # pre-training reads no labels
        tr.train(data, tiny_model(), tiny_optim(epochs=0), tr.PRETRAIN, seed=9,
                 out_dir=str(out))

    def test_epochs_zero_writes_initial_checkpoint(self, tmp_path):
        res = tr.train(self.pretrain_data(), tiny_model(),
                       tiny_optim(epochs=0), tr.PRETRAIN, seed=10,
                       out_dir=str(tmp_path))
        assert res["steps"] == 0
        m, o, arrays, state, counters = tr.load_training_checkpoint(res["checkpoint"])
        assert counters["epoch"] == 0 and state.step_num == 0
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
        assert Path(res["log"]).read_text(encoding="utf-8") == ""
        m, _, arrays, state, counters = tr.load_training_checkpoint(res["checkpoint"])
        assert counters["epoch"] == 0 and state.step_num == 0
        fresh = tfm.init_params(m.with_head(tfm.GENERATIVE), seed=10)
        for name, p in fresh.items():
            assert np.array_equal(arrays[name], p.data), name

    @pytest.mark.parametrize("max_steps", [2, 3])
    def test_resume_at_or_past_max_steps_takes_no_step(self, tmp_path, max_steps):
        part = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(epochs=1),
                        tr.PRETRAIN, seed=12, out_dir=str(tmp_path))
        assert part["steps"] == 3
        _, before = ad.load_checkpoint(part["checkpoint"])
        log = Path(part["log"]).read_text(encoding="utf-8")
        res = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(epochs=3),
                       tr.PRETRAIN, seed=12, out_dir=str(tmp_path),
                       resume=part["checkpoint"], max_steps=max_steps)
        assert res["steps"] == 3 and res["final_loss"] is None
        # every entry is rewritten as it was; only the header's epoch target moved
        _, after = ad.load_checkpoint(res["checkpoint"])
        assert list(after) == list(before)
        assert all(np.array_equal(after[n], before[n]) for n in before)
        assert Path(res["log"]).read_text(encoding="utf-8") == log

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

    @pytest.mark.parametrize("damage", ["drop", "reshape"])
    def test_transfer_rejects_damaged_trunk_entry(self, tmp_path, damage):
        pre = tr.train(self.pretrain_data(), tiny_model(), tiny_optim(epochs=1),
                       tr.PRETRAIN, seed=22, out_dir=str(tmp_path))
        header, entries = ad.load_checkpoint(pre["checkpoint"])
        name = "enc0.ffn.w1.w"
        if damage == "drop":
            del entries[name]
        else:
            entries[name] = entries[name].reshape(-1)
        ad.save_checkpoint(pre["checkpoint"], entries, header)
        with pytest.raises(FormatError, match=name):
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
