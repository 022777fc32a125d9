import gc
import hashlib
import os
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from beatformer import autodiff as ad
from beatformer.autodiff import Tensor
from beatformer.errors import FormatError

H = 1e-5


def rel_err(fd, an):
    return abs(fd - an) / max(abs(fd), abs(an), 1e-3)


def check_grads(make_loss, tensors, tol=1e-4):
    """Central finite differences against backward() for every element."""
    loss = make_loss()
    ad.zero_grads(tensors)
    loss.backward()
    grads = [t.grad.copy() for t in tensors]
    for t, g in zip(tensors, grads):
        flat = t.data.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + H
            up = make_loss().item()
            flat[i] = keep - H
            down = make_loss().item()
            flat[i] = keep
            fd = (up - down) / (2 * H)
            err = rel_err(fd, g.ravel()[i])
            assert err < tol, (t.data.shape, i, fd, g.ravel()[i], err)


def rand(shape, seed, scale=1.0):
    return Tensor(ad.seeded_rng(seed).normal(size=shape) * scale,
                  requires_grad=True)


def project(t, seed):
    """Random linear functional so op tests end in a scalar."""
    r = ad.seeded_rng(seed, 999).normal(size=t.shape)
    return ad.sum_(ad.mul(t, r))


class TestTensorBasics:
    def test_shape_data_agree(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3) and t.size == 6

    def test_dtype_choice(self):
        assert Tensor(np.zeros(3, np.float32)).dtype == np.float32
        assert Tensor([1, 2, 3]).dtype == np.float64

    def test_float32_ops_stay_float32(self):
        x = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        y = ad.mul(ad.add(x, 1.0), 0.5)
        assert y.dtype == np.float32
        z = ad.layer_norm(x, Tensor(np.ones(2, np.float32)),
                          Tensor(np.zeros(2, np.float32)))
        assert z.dtype == np.float32

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)).item()


class TestBackwardMechanics:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 5.0, -2.0], requires_grad=True)
        ad.sum_(x).backward()
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_elementwise_square(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        ad.sum_(ad.mul(x, x)).backward()
        assert np.allclose(x.grad, [2.0, 4.0, 6.0])

    def test_fanout_accumulates_sum_of_paths(self):
        x = Tensor([3.0], requires_grad=True)
        y = ad.add(ad.mul(x, 2.0), ad.mul(x, 5.0))  # dy/dx = 7
        ad.sum_(y).backward()
        assert np.allclose(x.grad, [7.0])

    def test_grads_accumulate_across_backwards(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        ad.sum_(x).backward()
        ad.sum_(x).backward()
        assert np.array_equal(x.grad, [2.0, 2.0])
        x.zero_grad()
        assert np.array_equal(x.grad, [0.0, 0.0])

    def test_grad_buffer_reused_in_data_dtype(self):
        x = Tensor(np.ones(2, np.float32), requires_grad=True)
        scale = Tensor(np.array([2.0, 3.0]))  # float64: so is x's upstream gradient
        for _ in range(2):
            ad.sum_(ad.mul(x, scale)).backward()
        assert x.grad.dtype == np.float32
        assert np.array_equal(x.grad, [4.0, 6.0])
        x.zero_grad()
        assert x.grad.dtype == np.float32 and not x.grad.any()

    def test_backward_rejects_non_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.mul(x, 2.0).backward()

    def test_non_grad_leaves_skipped(self):
        x = Tensor([1.0, 2.0])
        w = Tensor([3.0, 4.0], requires_grad=True)
        ad.sum_(ad.mul(x, w)).backward()
        assert x.grad is None
        assert np.array_equal(w.grad, [1.0, 2.0])

    def test_interior_nodes_get_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ad.mul(x, 3.0)
        ad.sum_(y).backward()
        assert y.grad is None and not y.requires_grad
        assert np.array_equal(x.grad, [3.0, 3.0])


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(eye, m).data, m.data)

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.array_equal(ad.matmul(a, b).data, [[17.0], [39.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_gradient(self):
        a, b = rand((3, 4), 1), rand((4, 2), 2)
        check_grads(lambda: project(ad.matmul(a, b), 3), [a, b])

    def test_batched_gradient_with_broadcast(self):
        a, b = rand((2, 3, 4), 4), rand((4, 5), 5)
        check_grads(lambda: project(ad.matmul(a, b), 6), [a, b])

    @pytest.mark.parametrize("shape", [(3, 5, 4), (2, 3, 5, 4)])
    def test_weight_product_matches_numpy(self, shape):
        a, b = rand(shape, 7), rand((4, 6), 8)
        out = ad.matmul(a, b)
        assert out.shape == shape[:-1] + (6,)
        assert np.allclose(out.data, np.matmul(a.data, b.data), rtol=0, atol=1e-12)
        check_grads(lambda: project(ad.matmul(a, b), 9), [a, b])


class TestLinear:
    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
    def test_gradient(self, shape):
        x, w, b = rand(shape, 60), rand((4, 3), 61), rand((3,), 62)
        out = ad.linear(x, w, b)
        assert out.shape == shape[:-1] + (3,) and out._parents == (x, w, b)
        assert np.allclose(out.data, x.data @ w.data + b.data, rtol=0, atol=1e-12)
        check_grads(lambda: project(ad.linear(x, w, b), 63), [x, w, b])

    def test_matches_product_plus_bias(self):
        # the same values as the two-node composite, to the bit, in float32
        x = Tensor(ad.seeded_rng(64).normal(size=(7, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(ad.seeded_rng(65).normal(size=(5, 6)).astype(np.float32), requires_grad=True)
        b = Tensor(ad.seeded_rng(66).normal(size=6).astype(np.float32), requires_grad=True)
        results = []
        for make in (lambda: ad.linear(x, w, b), lambda: ad.add(ad.matmul(x, w), b)):
            out = make()
            ad.zero_grads([x, w, b])
            project(out, 67).backward()
            results.append([out.data] + [t.grad.copy() for t in (x, w, b)])
        for fused, composite in zip(*results):
            assert fused.dtype == np.float32 and np.array_equal(fused, composite)

    def test_weight_gradient_needs_no_batched_temporary(self):
        # [64, 2, 64] @ [64, 64] in float64: a per-sequence weight gradient
        # would be a [64, 64, 64] temporary of 2 MiB before its batch sum
        a, b, c = rand((64, 2, 64), 10), rand((64, 64), 11), rand((64,), 13)
        loss = project(ad.linear(a, b, c), 12)
        tracemalloc.start()
        try:
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        r = ad.seeded_rng(12, 999).normal(size=(64, 2, 64))  # project's functional
        assert np.allclose(b.grad, np.einsum("bsk,bsn->kn", a.data, r), rtol=0, atol=1e-9)
        assert np.allclose(a.grad, r @ b.data.T, rtol=0, atol=1e-12)
        assert np.allclose(c.grad, r.sum(axis=(0, 1)), rtol=0, atol=1e-12)


class TestElementwise:
    def test_add_sub_mul_div_grads(self):
        a, b = rand((2, 3), 7), rand((2, 3), 8, scale=0.5)
        b.data += 2.0  # keep divisor away from zero
        check_grads(lambda: project(ad.add(a, b), 9), [a, b])
        check_grads(lambda: project(ad.sub(a, b), 10), [a, b])
        check_grads(lambda: project(ad.mul(a, b), 11), [a, b])
        check_grads(lambda: project(ad.div(a, b), 12), [a, b])

    def test_broadcast_add_grad(self):
        a, b = rand((2, 3), 13), rand((3,), 14)
        check_grads(lambda: project(ad.add(a, b), 15), [a, b])

    def test_broadcast_mul_row_vs_matrix(self):
        a, b = rand((4, 1), 16), rand((1, 5), 17)
        check_grads(lambda: project(ad.mul(a, b), 18), [a, b])

    def test_unary_grads(self):
        x = rand((2, 4), 19, scale=0.8)
        check_grads(lambda: project(ad.relu(x), 20), [x])
        check_grads(lambda: project(ad.sigmoid(x), 21), [x])
        check_grads(lambda: project(ad.exp(x), 22), [x])
        pos = rand((2, 4), 23, scale=0.3)
        pos.data = np.abs(pos.data) + 0.5
        check_grads(lambda: project(ad.log(pos), 24), [pos])
        check_grads(lambda: project(ad.sqrt(pos), 25), [pos])

    def test_clip_gradient_passes_inside_only(self):
        x = Tensor([-2.0, 0.3, 2.0], requires_grad=True)
        ad.sum_(ad.clip(x, -1.0, 1.0)).backward()
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


class TestShapeOps:
    def test_reshape_round_trip_grad(self):
        x = rand((2, 6), 27)
        check_grads(lambda: project(ad.reshape(x, (3, 4)), 28), [x])

    def test_transpose_grad(self):
        x = rand((2, 3, 4), 29)
        check_grads(lambda: project(ad.transpose(x, (2, 0, 1)), 30), [x])

    def test_take_rows_scatter_grad(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = x[np.array([0, 2, 0])]
        ad.sum_(out).backward()
        # row 0 taken twice -> gradient 2
        assert np.array_equal(x.grad, [[2, 2, 2], [0, 0, 0], [1, 1, 1], [0, 0, 0]])

    def test_mean_rows_value_and_gradient(self):
        counts = np.array([3, 1, 4, 2])  # ragged runs, one of a single row
        x = rand((10, 3), 50)
        out = ad.mean_rows(x, counts)
        starts = np.cumsum(counts) - counts
        ref = [x.data[s : s + n].mean(axis=0) for s, n in zip(starts, counts)]
        assert np.allclose(out.data, ref, rtol=1e-15, atol=0)
        check_grads(lambda: project(ad.mean_rows(x, counts), 51), [x])

    def test_mean_rows_matches_padded_pooling_bit_for_bit(self):
        # the classifier pooling mean_rows replaced, copied as it was: scatter
        # the packed rows into a zeroed [B, S, d], sum over S, scale by 1/count
        def _scatter(x2, rows, shape):
            out = np.zeros(shape, dtype=x2.dtype)
            out.reshape(-1, shape[-1])[rows] = x2
            return out

        def scatter_rows(a, rows, shape):
            a = ad._as_tensor(a)
            return ad._make(_scatter(a.data, rows, shape), (a,),
                            lambda g: ((a, g.reshape(-1, g.shape[-1])[rows]),))

        counts, seq, d = np.array([7, 1, 50, 23, 2]), 50, 1000
        rows = np.flatnonzero(np.arange(seq) < counts[:, None])
        h = Tensor(ad.seeded_rng(52).normal(size=(rows.size, d)).astype(np.float32),
                   requires_grad=True)
        g = ad.seeded_rng(53).normal(size=(counts.size, d)).astype(np.float32)

        padded = scatter_rows(h, rows, (counts.size, seq, d))
        pooled = ad.mul(ad.sum_(padded, axis=-2),
                        (1.0 / counts.astype(np.float64)).astype(h.dtype)[:, None])
        ad.sum_(ad.mul(pooled, g)).backward()
        ref_grad, h.grad = h.grad, None

        out = ad.mean_rows(h, counts)
        ad.sum_(ad.mul(out, g)).backward()
        assert out.dtype == pooled.dtype == np.float32
        assert np.array_equal(out.data, pooled.data)
        assert np.array_equal(h.grad, ref_grad)

    @staticmethod
    def packed(counts, seq, d):
        """(rows, x): the flat positions of a batch's real beats and [N, d] rows."""
        rows = np.flatnonzero(np.arange(seq) < np.asarray(counts)[:, None])
        return rows, rand((rows.size, d), 54)

    def test_split_heads_layout_and_gradient(self):
        rows, x = self.packed([3, 1, 4], 4, 6)
        out = ad.split_heads(x, rows, (3, 2, 4, 3))
        # the reference layout: scatter to [B, S, d], split d into heads
        ref = np.zeros((12, 6))
        ref[rows] = x.data
        assert np.array_equal(out.data, ref.reshape(3, 4, 2, 3).transpose(0, 2, 1, 3))
        assert not out.data[1, :, 1:].any() and not out.data[0, :, 3].any()
        check_grads(lambda: project(ad.split_heads(x, rows, (3, 2, 4, 3)), 55), [x])

    def test_merge_heads_inverts_split_and_gradient(self):
        rows, x = self.packed([3, 1, 4], 4, 6)
        heads = rand((3, 2, 4, 3), 56)
        assert np.array_equal(ad.merge_heads(ad.split_heads(x, rows, heads.shape), rows).data,
                              x.data)
        ref = heads.data.transpose(0, 2, 1, 3).reshape(12, 6)[rows]
        assert np.array_equal(ad.merge_heads(heads, rows).data, ref)
        check_grads(lambda: project(ad.merge_heads(heads, rows), 57), [heads])
        # the gradient of the padded rows is zero
        ad.zero_grads([heads])
        ad.sum_(ad.merge_heads(heads, rows)).backward()
        assert not heads.grad[1, :, 1:].any() and heads.grad[1, :, 0].all()

    def test_sum_axis_keepdims(self):
        x = rand((2, 3), 31)
        check_grads(lambda: project(ad.sum_(x, axis=0), 32), [x])
        check_grads(lambda: project(ad.sum_(x, axis=1, keepdims=True), 33), [x])

    def test_mean_grad(self):
        x = rand((3, 4), 34)
        check_grads(lambda: ad.mean(ad.mul(x, x)), [x])


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0])).data
        assert np.allclose(out, [0.5, 0.5])

    def test_large_inputs_stable(self):
        out = ad.softmax(Tensor([1000.0, 0.0])).data
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_exact_exponentials(self):
        out = ad.softmax(Tensor(np.log([1.0, 2.0, 3.0]))).data
        assert np.allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_rows_sum_to_one_and_positive(self):
        x = ad.seeded_rng(35).normal(size=(6, 9)) * 3
        out = ad.softmax(Tensor(x)).data
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12
        assert (out > 0).all()

    def test_gradient(self):
        x = rand((3, 5), 36)
        check_grads(lambda: project(ad.softmax(x), 37), [x])

    def test_gradient_other_axis(self):
        x = rand((4, 3), 38)
        check_grads(lambda: project(ad.softmax(x, axis=0), 39), [x])


class TestLayerNorm:
    def gb(self, n, g=1.0, b=0.0):
        return (Tensor(np.full(n, g), requires_grad=True),
                Tensor(np.full(n, b), requires_grad=True))

    def test_constant_row_goes_to_zero(self):
        gamma, beta = self.gb(3)
        out = ad.layer_norm(Tensor([1.0, 1.0, 1.0]), gamma, beta).data
        assert np.allclose(out, 0.0, atol=1e-3)

    def test_two_point_population_variance(self):
        gamma, beta = self.gb(2)
        out = ad.layer_norm(Tensor([1.0, 3.0]), gamma, beta).data
        assert np.allclose(out, [-1.0, 1.0], atol=1e-6)

    def test_affine_collapse(self):
        gamma, beta = self.gb(4, g=0.0, b=7.0)
        x = rand((2, 4), 40)
        out = ad.layer_norm(x, gamma, beta).data
        assert np.allclose(out, 7.0)

    def test_gradient(self):
        x = rand((3, 6), 41)
        gamma = Tensor(1.0 + 0.1 * ad.seeded_rng(42).normal(size=6), requires_grad=True)
        beta = Tensor(0.1 * ad.seeded_rng(43).normal(size=6), requires_grad=True)
        check_grads(lambda: project(ad.layer_norm(x, gamma, beta), 44),
                    [x, gamma, beta])

    @pytest.mark.parametrize("shape", [(3, 6), (2, 3, 6)])
    def test_matches_composite_reference(self, shape):
        def reference(x, gamma, beta, eps=1e-6):
            # the same normalization built from elementwise ops and reductions
            mu = ad.mean(x, axis=-1, keepdims=True)
            xc = ad.sub(x, mu)
            var = ad.mean(ad.mul(xc, xc), axis=-1, keepdims=True)
            return ad.add(ad.mul(ad.div(xc, ad.sqrt(ad.add(var, eps))), gamma), beta)

        x = rand(shape, 45, scale=3.0)
        x.data += 2.0
        gamma = Tensor(1.0 + 0.1 * ad.seeded_rng(46).normal(size=6), requires_grad=True)
        beta = Tensor(0.1 * ad.seeded_rng(47).normal(size=6), requires_grad=True)
        results = []
        for op in (ad.layer_norm, reference):
            out = op(x, gamma, beta)
            ad.zero_grads([x, gamma, beta])
            project(out, 48).backward()
            results.append([out.data] + [t.grad.copy() for t in (x, gamma, beta)])
        for fused, composite in zip(*results):
            assert fused.shape == composite.shape
            assert np.abs(fused - composite).max() < 1e-12

    def test_residual_gradient(self):
        x, res = rand((3, 6), 41), rand((3, 6), 58)
        gamma = Tensor(1.0 + 0.1 * ad.seeded_rng(42).normal(size=6), requires_grad=True)
        beta = Tensor(0.1 * ad.seeded_rng(43).normal(size=6), requires_grad=True)
        check_grads(lambda: project(ad.layer_norm(x, gamma, beta, residual=res), 59),
                    [x, res, gamma, beta])

    def test_residual_matches_norm_of_sum(self):
        # to the bit, in float32: one node where the add and the norm were two
        x, res = (Tensor(ad.seeded_rng(s).normal(size=(4, 6)).astype(np.float32),
                         requires_grad=True) for s in (60, 61))
        gamma = Tensor(np.linspace(0.5, 1.5, 6, dtype=np.float32), requires_grad=True)
        beta = Tensor(np.linspace(-0.2, 0.3, 6, dtype=np.float32), requires_grad=True)
        leaves = [x, res, gamma, beta]
        results = []
        for make in (lambda: ad.layer_norm(x, gamma, beta, residual=res),
                     lambda: ad.layer_norm(ad.add(x, res), gamma, beta)):
            out = make()
            ad.zero_grads(leaves)
            project(out, 62).backward()
            results.append([out.data] + [t.grad.copy() for t in leaves])
        for fused, composite in zip(*results):
            assert fused.dtype == np.float32 and np.array_equal(fused, composite)

    def test_one_graph_node(self):
        x = rand((2, 3, 6), 49)
        gamma, beta = self.gb(6)
        out = ad.layer_norm(x, gamma, beta)
        assert out._parents == (x, gamma, beta)


class TestBceWithLogits:
    def test_gradient(self):
        z = rand((3, 4), 50, scale=2.0)
        y = (ad.seeded_rng(51).random((3, 4)) > 0.5).astype(np.float64)
        check_grads(lambda: ad.bce_with_logits(z, y), [z])

    def test_matches_sigmoid_cross_entropy(self):
        z = ad.seeded_rng(52).normal(size=(2, 5)) * 3.0
        y = (ad.seeded_rng(53).random((2, 5)) > 0.5).astype(np.float64)
        p = 1.0 / (1.0 + np.exp(-z))
        expect = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
        assert ad.bce_with_logits(Tensor(z), y).item() == pytest.approx(expect, rel=1e-12)

    def test_saturated_wrong_prediction_keeps_gradient(self):
        # a clip of sigmoid probabilities gives these two zero gradient
        z = Tensor(np.array([1000.0, -1000.0]), requires_grad=True)
        loss = ad.bce_with_logits(z, np.array([0.0, 1.0]))
        assert loss.item() == pytest.approx(1000.0, rel=1e-12)
        loss.backward()
        # descent lowers the too-high logit and raises the too-low one
        assert np.allclose(z.grad, [0.5, -0.5])

    def test_float32_stays_float32(self):
        z = Tensor(np.array([0.5, -2.0], dtype=np.float32), requires_grad=True)
        loss = ad.bce_with_logits(z, np.array([1.0, 0.0]))
        loss.backward()
        assert loss.dtype == np.float32 and z.grad.dtype == np.float32


class TestDropout:
    def test_inference_identity(self):
        x = rand((5, 5), 45)
        out = ad.dropout(x, 0.1)
        assert np.array_equal(out.data, x.data)

    def test_rate_zero_identity(self):
        x = rand((5, 5), 46)
        out = ad.dropout(x, 0.0, rng=ad.seeded_rng(0))
        assert np.array_equal(out.data, x.data)

    def test_law_of_large_numbers(self):
        x = Tensor(np.ones(1_000_000))
        out = ad.dropout(x, 0.1, rng=ad.seeded_rng(47)).data
        assert abs(out.mean() - 1.0) < 0.01
        assert abs(np.mean(out == 0.0) - 0.1) < 0.01

    def test_reproducible_given_seed(self):
        x = Tensor(np.ones((100, 100)))
        a = ad.dropout(x, 0.3, rng=ad.seeded_rng(5, 7)).data
        b = ad.dropout(x, 0.3, rng=ad.seeded_rng(5, 7)).data
        assert np.array_equal(a, b)

    def test_gradient_matches_mask(self):
        # dropout is not FD-checkable (mask depends on the rng call), but
        # its backward must scale exactly like its forward
        x = Tensor(ad.seeded_rng(48).normal(size=(20, 20)), requires_grad=True)
        out = ad.dropout(x, 0.25, rng=ad.seeded_rng(49))
        scale_mask = np.where(out.data != 0.0, 1.0 / 0.75, 0.0)
        ad.sum_(out).backward()
        assert np.allclose(x.grad, scale_mask)


class TestMaskedFill:
    def test_sets_value_where_mask(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[True, False], [False, True]])
        out = ad.masked_fill(x, mask, -1e9).data
        assert np.array_equal(out, [[-1e9, 2.0], [3.0, -1e9]])

    def test_gradient_zero_at_filled(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        mask = np.array([[True, False], [False, True]])
        ad.sum_(ad.masked_fill(x, mask, -5.0)).backward()
        assert np.array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_mask_broadcasts(self):
        x = rand((2, 3, 3), 50)
        mask = np.triu(np.ones((3, 3), dtype=bool), k=1)
        check_grads(lambda: project(ad.masked_fill(x, mask, 9.0), 51), [x])


class TestAttention:
    @staticmethod
    def composite(q, k, v, allowed):
        """The attention core built from one node per op."""
        swap = (*range(k.ndim - 2), k.ndim - 1, k.ndim - 2)
        scores = ad.mul(ad.matmul(q, ad.transpose(k, swap)), 1.0 / np.sqrt(q.shape[-1]))
        scores = ad.masked_fill(scores, ~allowed, -1e9)
        return ad.matmul(ad.softmax(scores), v)

    @staticmethod
    def inputs(shape, dtype=np.float64):
        q, k, v = (Tensor(ad.seeded_rng(70 + i).normal(size=shape).astype(dtype),
                          requires_grad=True) for i in range(3))
        counts = np.array([3, 5, 1])[: shape[0]]
        allowed = np.tril(np.ones((shape[-2], shape[-2]), bool)) & (
            np.arange(shape[-2]) < counts.reshape((-1,) + (1,) * (len(shape) - 1)))
        return q, k, v, allowed

    @pytest.mark.parametrize("shape", [(3, 5, 4), (2, 3, 5, 4)])
    def test_gradient_masked(self, shape):
        q, k, v, allowed = self.inputs(shape)
        out, w = ad.attention(q, k, v, allowed)
        assert out._parents == (q, k, v) and w.shape == shape[:-1] + (shape[-2],)
        assert not w[np.broadcast_to(~allowed, w.shape)].any()
        check_grads(lambda: project(ad.attention(q, k, v, allowed)[0], 73), [q, k, v])

    @pytest.mark.parametrize("shape", [(3, 5, 4), (2, 3, 5, 4)])
    def test_matches_composite(self, shape):
        # to the bit, in float32, for the output and every input's gradient
        q, k, v, allowed = self.inputs(shape, np.float32)
        results = []
        for make in (lambda: ad.attention(q, k, v, allowed)[0],
                     lambda: self.composite(q, k, v, allowed)):
            out = make()
            ad.zero_grads([q, k, v])
            project(out, 74).backward()
            results.append([out.data] + [t.grad.copy() for t in (q, k, v)])
        for fused, composite in zip(*results):
            assert fused.dtype == np.float32 and np.array_equal(fused, composite)


class TestComposite:
    def test_attention_like_graph(self):
        q, k, v = rand((2, 3), 52), rand((2, 3), 53), rand((2, 3), 54)
        def loss():
            scores = ad.mul(ad.matmul(q, ad.transpose(k, (1, 0))), 1 / np.sqrt(3))
            return project(ad.matmul(ad.softmax(scores), v), 55)
        check_grads(loss, [q, k, v])

    def test_deep_chain(self):
        x = rand((4,), 56, scale=0.5)
        def loss():
            h = ad.sigmoid(ad.mul(x, 3.0))
            h = ad.log(ad.add(h, 1.0))
            return ad.mean(ad.mul(h, h))
        check_grads(loss, [x])


class TestRngAndInit:
    def test_seeded_rng_reproducible(self):
        a = ad.seeded_rng(1, 2, 3).normal(size=10)
        b = ad.seeded_rng(1, 2, 3).normal(size=10)
        assert np.array_equal(a, b)

    def test_string_tags_accepted(self):
        a = ad.seeded_rng(1, "shuffle", 2).integers(0, 100, 5)
        b = ad.seeded_rng(1, "shuffle", 2).integers(0, 100, 5)
        c = ad.seeded_rng(1, "dropout", 2).integers(0, 100, 5)
        assert np.array_equal(a, b) and not np.array_equal(a, c)

    def test_xavier_bounds_and_small_shape(self):
        w = ad.xavier_uniform((1000, 1000), (0,))
        limit = np.sqrt(6.0 / 2000.0)
        assert limit == pytest.approx(0.05477, abs=5e-5)
        assert np.abs(w).max() <= limit
        assert ad.xavier_uniform((2, 4), (1,)).shape == (2, 4)
        assert np.abs(ad.xavier_uniform((2, 4), (1,))).max() <= 1.0

    def test_xavier_variance_law(self):
        w = ad.xavier_uniform((1000, 1000), (2,))
        limit = np.sqrt(6.0 / 2000.0)
        assert w.var() == pytest.approx(limit ** 2 / 3.0, rel=0.05)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_xavier_is_numpy_uniform(self, dtype):
        # every training fingerprint rests on these bits
        for shape, key in [((2, 4), (1,)), ((1000, 1000), (0, 0, 3)),
                           ((1000, 2048), (7, 0, 12)), ((2048, 1000), (7, 0, 13)),
                           ((50, 1), (3, "tag"))]:
            limit = np.sqrt(6.0 / sum(shape))
            want = ad.seeded_rng(*key).uniform(-limit, limit, size=shape).astype(dtype)
            got = ad.xavier_uniform(shape, key, dtype)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (shape, key)

    def test_xavier_requires_2d(self):
        with pytest.raises(ValueError):
            ad.xavier_uniform((3,), (0,))


class TestCheckpoint:
    def entries(self):
        return {
            "enc0.attn.wq.w": np.arange(6, dtype=np.float32).reshape(2, 3),
            "head.b": np.array([1.5, -2.5], dtype=np.float32),
            "opt.step": np.array([7.0], dtype=np.float32),
        }

    def test_round_trip(self, tmp_path):
        p = tmp_path / "m.ckpt"
        ad.save_checkpoint(p, self.entries(), "d_model=8\nn_heads=2")
        text, loaded = ad.load_checkpoint(p)
        assert text == "d_model=8\nn_heads=2"
        assert list(loaded) == list(self.entries())
        for k, v in self.entries().items():
            assert np.array_equal(loaded[k], v)

    def test_bytes_match_reference_writer(self, tmp_path):
        entries = dict(self.entries())
        entries["f64"] = np.linspace(-1.0, 1.0, 6).reshape(3, 2)  # cast to <f4
        entries["strided"] = np.arange(12, dtype=np.float32).reshape(3, 4).T
        entries["big_endian"] = np.arange(4, dtype=">f4")
        entries["empty"] = np.zeros((0, 3), np.float32)
        cfg = "d_model=8".encode()
        ref = b"BFCK" + struct.pack("<II", 2, len(cfg)) + cfg + hashlib.sha256(cfg).digest()
        ref += struct.pack("<I", len(entries))
        for name, arr in entries.items():
            a = np.ascontiguousarray(arr, dtype="<f4")
            ref += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", a.ndim)
            ref += struct.pack(f"<{a.ndim}I", *a.shape) + a.tobytes()
        p = tmp_path / "m.ckpt"
        ad.save_checkpoint(p, entries, "d_model=8")
        assert p.read_bytes() == ref

    def test_bytes_match_reference_writer_without_fadvise(self, tmp_path, monkeypatch):
        # a platform without posix_fadvise writes the same bytes
        monkeypatch.delattr(os, "posix_fadvise", raising=False)
        self.test_bytes_match_reference_writer(tmp_path)

    @pytest.mark.skipif(not hasattr(os, "posix_fadvise"), reason="no posix_fadvise")
    def test_each_written_byte_handed_to_writeback_once(self, tmp_path, monkeypatch):
        advise, calls = os.posix_fadvise, []

        def spy(fd, offset, length, advice):
            calls.append((offset, length, advice, os.fstat(fd).st_size))
            advise(fd, offset, length, advice)
        monkeypatch.setattr(os, "posix_fadvise", spy)
        p = tmp_path / "m.ckpt"
        entries = self.entries()
        ad.save_checkpoint(p, entries, "d_model=8")
        assert len(calls) == len(entries)
        # consecutive ranges from the first byte to the last, each advised
        # once its bytes have reached the file
        assert calls[0][0] == 0
        for (off, n, _, _), (nxt, _, _, _) in zip(calls, calls[1:]):
            assert off + n == nxt
        assert calls[-1][0] + calls[-1][1] == p.stat().st_size
        assert all(advice == os.POSIX_FADV_DONTNEED and off + n == size
                   for off, n, advice, size in calls)

    def test_not_a_checkpoint(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"whatever")
        with pytest.raises(FormatError, match="not a checkpoint"):
            ad.load_checkpoint(p)

    def test_corrupt_config_detected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        ad.save_checkpoint(p, self.entries(), "d_model=8")
        blob = bytearray(p.read_bytes())
        blob[12] ^= 0xFF  # flip a config byte, digest no longer matches
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="digest"):
            ad.load_checkpoint(p)

    def test_version_1_refused(self, tmp_path):
        p = tmp_path / "m.ckpt"
        ad.save_checkpoint(p, self.entries(), "d_model=8")
        blob = bytearray(p.read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version 1"):
            ad.load_checkpoint(p)

    @pytest.mark.parametrize("keep", [6, 10, 20, 50, 70, 78, 100, 106, -1])
    def test_truncated_refused(self, tmp_path, keep):
        # cuts inside the version, the config length, the config, the
        # digest, an entry name, a shape, a payload, at an entry boundary,
        # and one byte short of the end
        p = tmp_path / "m.ckpt"
        ad.save_checkpoint(p, self.entries(), "d_model=8")
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(FormatError):
            ad.load_checkpoint(p)

    @pytest.mark.parametrize("keep", [None, lambda name: name == "enc0.attn.wq.w"],
                             ids=["all", "skipped"])
    def test_trailing_byte_refused(self, tmp_path, keep):
        p = tmp_path / "m.ckpt"
        ad.save_checkpoint(p, self.entries(), "d_model=8")
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="1 bytes after the last entry"):
            ad.load_checkpoint(p, keep)

    def test_keep_selects_entries(self, tmp_path):
        p = tmp_path / "m.ckpt"
        ad.save_checkpoint(p, self.entries(), "d_model=8")
        text, loaded = ad.load_checkpoint(p, lambda name: not name.startswith("opt."))
        assert text == "d_model=8"
        assert list(loaded) == ["enc0.attn.wq.w", "head.b"]
        for k, v in loaded.items():
            assert v.dtype == np.float32 and np.array_equal(v, self.entries()[k])

    @pytest.mark.parametrize("keep", [6, 10, 20, 50, 70, 78, 100, 106, -1])
    def test_truncated_refused_when_skipped(self, tmp_path, keep):
        # the same cuts with the payload entries skipped; -1 ends inside
        # opt.step, the last entry, which no later read would notice
        p = tmp_path / "m.ckpt"
        ad.save_checkpoint(p, self.entries(), "d_model=8")
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(FormatError):
            ad.load_checkpoint(p, lambda name: name == "enc0.attn.wq.w")

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ad.save_checkpoint(a, self.entries(), "cfg")
        ad.save_checkpoint(b, self.entries(), "cfg")
        assert a.read_bytes() == b.read_bytes()

    def test_failed_write_keeps_previous_file(self, tmp_path):
        p = tmp_path / "m.ckpt"
        ad.save_checkpoint(p, self.entries(), "d_model=8")
        before = p.read_bytes()
        # the second entry cannot convert to float32, after the first is written
        bad = {"head.b": np.ones(2, np.float32), "bad": np.array(["x"])}
        with pytest.raises(ValueError):
            ad.save_checkpoint(p, bad, "d_model=8")
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="no SIGKILL")
    def test_killed_mid_write_keeps_previous_file(self, tmp_path):
        p = tmp_path / "m.ckpt"
        ad.save_checkpoint(p, self.entries(), "d_model=8")
        before = p.read_bytes()
        stalled = tmp_path / "stalled"
        src = os.path.dirname(os.path.dirname(ad.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.Popen([sys.executable, "-c", STALLED_WRITER, str(p), str(stalled)],
                                 env=env)
        try:
            deadline = time.monotonic() + 60
            while not stalled.exists():
                assert child.poll() is None, "the writer exited before it stalled"
                assert time.monotonic() < deadline, "the writer never stalled"
                time.sleep(0.01)
        finally:
            child.kill()
            child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL
        assert (tmp_path / "m.ckpt.tmp").exists()
        assert p.read_bytes() == before
        assert ad.load_checkpoint(p)[0] == "d_model=8"
        # the next save truncates the stale temporary file and replaces it
        ad.save_checkpoint(p, {"head.b": np.ones(2, np.float32)}, "cfg")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["m.ckpt", "stalled"]
        text, loaded = ad.load_checkpoint(p)
        assert text == "cfg" and list(loaded) == ["head.b"]

    @pytest.mark.parametrize("keep", [None, lambda name: not name.startswith("opt.")],
                             ids=["kept", "skipped"])
    def test_entry_size_is_an_exact_integer(self, tmp_path, keep):
        # 65535 * 42009217 * 6700417 = 2**64 - 1 elements: an int64 product
        # wraps to -1, which once seeked 4 bytes back when the entry was skipped
        p = tmp_path / "m.ckpt"
        p.write_bytes(raw_checkpoint([("head.b", (2,)),
                                      ("opt.m.a", (65535, 42009217, 6700417))]) + bytes(16))
        with pytest.raises(FormatError, match="file ends inside entry opt.m.a"):
            ad.load_checkpoint(p, keep)
        with pytest.raises(FormatError, match="file ends inside entry opt.m.a"):
            ad.CheckpointReader(p, keep, by_layer_role)

    @pytest.mark.parametrize("keep", [None, lambda name: name != "head.b"],
                             ids=["kept", "skipped"])
    def test_duplicate_entry_refused(self, tmp_path, keep):
        p = tmp_path / "m.ckpt"
        p.write_bytes(raw_checkpoint([("head.b", (2,)), ("head.w", (1,)), ("head.b", (3,))])
                      + bytes(12))
        with pytest.raises(FormatError, match=f"{p}: entry head.b appears twice"):
            ad.load_checkpoint(p, keep)
        with pytest.raises(FormatError, match=f"{p}: entry head.b appears twice"):
            ad.CheckpointReader(p, keep, by_layer_role)


def raw_checkpoint(entries, cfg=b"d_model=8") -> bytes:
    """A v2 checkpoint's bytes up to the end of the last entry header:
    (name, shape) headers with zero-filled payloads, the last one left out."""
    blob = b"BFCK" + struct.pack("<II", 2, len(cfg)) + cfg + hashlib.sha256(cfg).digest()
    blob += struct.pack("<I", len(entries))
    for i, (name, shape) in enumerate(entries):
        blob += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", len(shape))
        blob += struct.pack(f"<{len(shape)}I", *shape)
        if i + 1 < len(entries):
            blob += bytes(4 * int(np.prod(shape)))
    return blob


def by_layer_role(name):
    return name.partition(".")[2] if name.startswith("enc") else name


class TestCheckpointReader:
    def entries(self):
        rng = np.random.default_rng(0)
        return {
            "enc0.w": rng.normal(size=(3, 4)).astype(np.float32),
            "enc0.b": rng.normal(size=4).astype(np.float32),
            "enc1.w": rng.normal(size=(3, 4)).astype(np.float32),
            "enc1.b": rng.normal(size=4).astype(np.float32),
            "head.w": rng.normal(size=(4, 2)).astype(np.float32),
            "opt.step": np.array([7.0], dtype=np.float32),
        }

    def saved(self, tmp_path, name="m.ckpt", entries=None):
        p = str(tmp_path / name)
        ad.save_checkpoint(p, self.entries() if entries is None else entries, "d_model=8")
        return p

    def test_reads_what_load_checkpoint_reads(self, tmp_path):
        p = self.saved(tmp_path)
        keep = lambda name: not name.startswith("opt.")  # noqa: E731
        text, loaded = ad.load_checkpoint(p, keep)
        with ad.CheckpointReader(p, keep, by_layer_role) as reader:
            assert reader.config_text == text
            assert list(reader) == list(loaded) and len(reader) == len(loaded)
            assert reader.shapes == {name: a.shape for name, a in loaded.items()}
            assert "enc1.w" in reader and "opt.step" not in reader
            for name, arr in loaded.items():
                t = reader[name]
                assert isinstance(t, Tensor) and not t.requires_grad
                assert t.data.dtype == np.float32 and np.array_equal(t.data, arr)

    def test_load_checkpoint_gives_each_entry_its_own_array(self, tmp_path):
        # training updates its parameter and moment arrays in place
        expected = self.entries()
        _, loaded = ad.load_checkpoint(self.saved(tmp_path))
        for name in loaded:
            loaded[name][...] = -1.0
            expected[name][...] = -1.0
            assert all(np.array_equal(loaded[n], expected[n]) for n in expected), name

    def test_one_array_per_role(self, tmp_path):
        p = self.saved(tmp_path)
        with ad.CheckpointReader(p, None, by_layer_role) as reader:
            w0, b0 = reader["enc0.w"].data, reader["enc0.b"].data
            assert not np.shares_memory(w0, b0)
            w1 = reader["enc1.w"].data
            # the next layer's read overwrites the previous layer's values
            assert np.shares_memory(w0, w1)
            assert np.array_equal(w0, self.entries()["enc1.w"])
            assert np.array_equal(b0, self.entries()["enc0.b"])

    def test_cut_after_the_index_is_an_error_not_stale_values(self, tmp_path):
        p = self.saved(tmp_path)
        with ad.CheckpointReader(p, None, by_layer_role) as reader:
            assert np.array_equal(reader["enc0.w"].data, self.entries()["enc0.w"])
            # cut the file inside enc1.w, whose role still holds enc0.w
            with open(p, "r+b") as fh:
                fh.truncate(fh.read().index(self.entries()["enc1.w"].tobytes()) + 8)
            with pytest.raises(FormatError, match=f"{p}: .*file ends inside entry enc1.w"):
                reader["enc1.w"]

    def test_file_replaced_over_the_path_is_never_read(self, tmp_path):
        p = self.saved(tmp_path)
        other = {k: v + 1 for k, v in self.entries().items()}
        with ad.CheckpointReader(p, None, by_layer_role) as reader:
            os.replace(self.saved(tmp_path, "other.ckpt", other), p)
            for name, arr in self.entries().items():
                assert np.array_equal(reader[name].data, arr)

    @pytest.mark.parametrize("keep", [6, 20, 50, 100, -1])
    def test_bad_file_refused_and_closed(self, tmp_path, keep):
        p = self.saved(tmp_path)
        with open(p, "r+b") as fh:
            fh.truncate(os.path.getsize(p) + keep if keep < 0 else keep)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FormatError, match=p):
                ad.CheckpointReader(p, None, by_layer_role)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# saves over argv[1]; the second entry's conversion marks argv[2] and
# blocks, so the process is stopped after the first entry is written
STALLED_WRITER = """
import sys, time
import numpy as np
from beatformer import autodiff as ad


class Stall:
    shape = (4,)

    def __array__(self, dtype=None, copy=None):
        open(sys.argv[2], "w").close()
        time.sleep(120)
        sys.exit("not killed")


ad.save_checkpoint(sys.argv[1], {"head.b": np.ones(2, np.float32), "stall": Stall()}, "cfg")
"""
