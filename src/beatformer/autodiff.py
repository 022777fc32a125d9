"""Dense tensors with reverse-mode automatic differentiation.

Just enough machinery for the encoder model: matmul with broadcastable
batch dimensions, elementwise arithmetic, softmax, reductions, masking,
dropout, row gather/scatter, fused layer norm and BCE-with-logits, and a
topological backward sweep. Data lives in numpy arrays; float64 is the
default so gradient checks are meaningful, float32 is the training dtype.
"""
from __future__ import annotations

import hashlib
import os
import struct
import zlib

import numpy as np

from .errors import FormatError


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-dimensional array participating in the backward graph.

    `requires_grad` marks the leaves that receive gradients: a plain
    `backward()` fills `.grad` on those leaves only, never on an interior
    node. `grad` accumulates across calls to `backward` until `zero_grad`
    (no implicit reset). It is one buffer, kept in the data's dtype and
    reused: `zero_grad` and later backward sweeps write into it in place,
    so copy `.grad` to keep a snapshot. Training never fills `.grad`: its
    sweep hands each leaf's gradient to the optimizer instead
    (`backward(on_leaf)`).
    """

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor, got shape %r"
                             % (self.shape,))
        return float(self.data.reshape(()))

    def zero_grad(self):
        if (self.grad is not None and self.grad.shape == self.data.shape
                and self.grad.dtype == self.data.dtype):
            self.grad.fill(0)
        else:
            self.grad = np.zeros_like(self.data)

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self, on_leaf=None):
        """Reverse topological sweep from a scalar loss.

        Gradients sum across fan-out; leaves without requires_grad are
        skipped. Raises on non-scalar tensors. Each interior node drops its
        parents and closure once processed, so an activation is freed as
        soon as the sweep has passed every node that used it; the graph
        cannot be swept twice.

        A leaf is reached once, after every node that used it, with its
        complete gradient. That gradient is added into `.grad`, or, when
        on_leaf is given, passed as on_leaf(leaf, g) and not kept.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar tensor, got shape {self.shape}"
            )
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        grads = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            fn = node._backward_fn
            if fn is None:  # leaf: accumulate or hand over
                if g is not None and node.requires_grad:
                    if on_leaf is None:
                        node._accumulate(g)
                    else:
                        on_leaf(node, g)
                continue
            # interior: propagate to the parents that lead to a grad leaf
            node._parents, node._backward_fn = (), None
            if g is None:
                continue
            for parent, pg in fn(g):
                if parent.requires_grad or parent._backward_fn is not None:
                    pid = id(parent)
                    grads[pid] = grads[pid] + pg if pid in grads else pg

    def __getitem__(self, idx):
        return take(self, idx)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable tensor with a registry path such as ``enc0.attn.wq``."""

    def __init__(self, data, name: str, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.shape})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Coerce operands, keeping python-number constants at the tensor dtype."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        arr = np.asarray(b)
        if arr.ndim == 0:
            arr = arr.astype(a.data.dtype)
        return a, Tensor(arr)
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        arr = np.asarray(a)
        if arr.ndim == 0:
            arr = arr.astype(b.data.dtype)
        return Tensor(arr), b
    return _as_tensor(a), _as_tensor(b)


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad or p._backward_fn is not None for p in parents):
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


# -- arithmetic ----------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data + b.data
    return _make(data, (a, b), lambda g: (
        (a, _unbroadcast(g, a.shape)),
        (b, _unbroadcast(g, b.shape)),
    ))


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data - b.data
    return _make(data, (a, b), lambda g: (
        (a, _unbroadcast(g, a.shape)),
        (b, _unbroadcast(-g, b.shape)),
    ))


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data * b.data
    return _make(data, (a, b), lambda g: (
        (a, _unbroadcast(g * b.data, a.shape)),
        (b, _unbroadcast(g * a.data, b.shape)),
    ))


def div(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data / b.data
    return _make(data, (a, b), lambda g: (
        (a, _unbroadcast(g / b.data, a.shape)),
        (b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
    ))


def matmul(a, b) -> Tensor:
    """Batched matrix product; backward is dA = dC·Bᵀ, dB = Aᵀ·dC.

    A 2-D right operand (a weight) acts on every row of `a` alone, so the
    product and both gradients run as one flat [rows, k] GEMM each.
    """
    a, b = _pair(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires tensors of rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    if b.ndim == 2:
        k, n = b.shape
        a2 = a.data.reshape(-1, k)
        data = (a2 @ b.data).reshape(a.shape[:-1] + (n,))

        def backward(g):
            g2 = g.reshape(-1, n)
            return ((a, (g2 @ b.data.T).reshape(a.shape)), (b, a2.T @ g2))

        return _make(data, (a, b), backward)
    data = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return ((a, _unbroadcast(ga, a.shape)), (b, _unbroadcast(gb, b.shape)))

    return _make(data, (a, b), backward)


# -- shape ops -----------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    return _make(a.data.reshape(shape), (a,),
                 lambda g: ((a, g.reshape(old)),))


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    inv = np.argsort(axes)
    return _make(a.data.transpose(axes), (a,),
                 lambda g: ((a, g.transpose(inv)),))


def take(a, idx) -> Tensor:
    """Basic slicing/indexing; backward scatters into a zero buffer."""
    a = _as_tensor(a)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return ((a, full),)

    return _make(a.data[idx], (a,), backward)


def _scatter(x2: np.ndarray, rows: np.ndarray, shape: tuple) -> np.ndarray:
    out = np.zeros(shape, dtype=x2.dtype)
    out.reshape(-1, shape[-1])[rows] = x2
    return out


def gather_rows(a, rows) -> Tensor:
    """The rows of `a` ([..., d], seen as [rows, d]) at flat positions
    `rows`, as [len(rows), d]. Rows must not repeat: the backward writes
    each gradient row back by plain assignment (scatter_rows' forward)."""
    a = _as_tensor(a)
    data = a.data.reshape(-1, a.shape[-1])[rows]
    return _make(data, (a,), lambda g: ((a, _scatter(g, rows, a.shape)),))


def scatter_rows(a, rows, shape) -> Tensor:
    """Zeros of `shape` ([..., d]) holding the rows of `a` ([len(rows), d])
    at flat row positions `rows`; the inverse of gather_rows, whose
    forward is its backward."""
    a = _as_tensor(a)
    return _make(_scatter(a.data, rows, shape), (a,),
                 lambda g: ((a, g.reshape(-1, g.shape[-1])[rows]),))


# -- reductions ----------------------------------------------------------

def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return ((a, np.broadcast_to(g, a.shape).astype(a.data.dtype)),)

    return _make(data, (a,), backward)


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size if axis is None else np.prod(
        [a.shape[ax] for ax in np.atleast_1d(axis)])
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


# -- nonlinearities ------------------------------------------------------

def relu(a) -> Tensor:
    a = _as_tensor(a)
    data = np.maximum(a.data, 0)
    return _make(data, (a,), lambda g: ((a, g * (a.data > 0)),))


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) on a numpy array, without overflow at either tail."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    data = logistic(a.data)
    return _make(data, (a,), lambda g: ((a, g * data * (1.0 - data)),))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    data = np.exp(a.data)
    return _make(data, (a,), lambda g: ((a, g * data),))


def log(a) -> Tensor:
    a = _as_tensor(a)
    return _make(np.log(a.data), (a,), lambda g: ((a, g / a.data),))


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    data = np.sqrt(a.data)
    return _make(data, (a,), lambda g: ((a, g * 0.5 / data),))


def softmax(a, axis=-1) -> Tensor:
    """Max-subtracted softmax over `axis`; rows sum to 1."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return ((a, y * (g - inner)),)

    return _make(y, (a,), backward)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only where unclipped."""
    a = _as_tensor(a)
    data = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)
    return _make(data, (a,), lambda g: ((a, g * inside),))


def masked_fill(a, fill_mask: np.ndarray, value: float) -> Tensor:
    """Set entries where `fill_mask` is true to `value` (no grad there)."""
    a = _as_tensor(a)
    data = np.where(fill_mask, np.asarray(value, dtype=a.data.dtype), a.data)
    return _make(data, (a,),
                 lambda g: ((a, _unbroadcast(np.where(fill_mask, 0.0, g), a.shape)),))


def layer_norm(x, gamma, beta, eps: float = 1e-6) -> Tensor:
    """Zero-mean unit-variance over the last axis, then affine; one node.

    With xhat = (x - mean) * rstd and rstd = 1/sqrt(var + eps), the backward
    is dx = rstd * (gx - mean(gx) - xhat * mean(gx * xhat)) for gx = g * gamma.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    xc = x.data - x.data.mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * rstd

    def backward(g):
        gx = g * gamma.data
        dx = gx - gx.mean(axis=-1, keepdims=True)
        dx -= xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        dx *= rstd
        return ((x, dx), (gamma, _unbroadcast(g * xhat, gamma.shape)),
                (beta, _unbroadcast(g, beta.shape)))

    return _make(xhat * gamma.data + beta.data, (x, gamma, beta), backward)


def bce_with_logits(z, y) -> Tensor:
    """Mean binary cross entropy of sigmoid(z) against y, finite at any z:
    max(z, 0) - z*y + log1p(exp(-|z|)), gradient (sigmoid(z) - y) / z.size."""
    z = _as_tensor(z)
    x = z.data
    y = np.asarray(y, dtype=x.dtype)
    data = np.mean(np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x))))
    return _make(data, (z,), lambda g: ((z, g * (logistic(x) - y) / x.size),))


def dropout(x, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability `rate`, scale survivors."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return _as_tensor(x)
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    x = _as_tensor(x)
    keep = rng.random(x.shape, dtype=x.data.dtype) >= rate
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.data.dtype)
    data = x.data * keep * scale
    return _make(data, (x,), lambda g: ((x, g * keep * scale),))


# -- initialization and rng ----------------------------------------------

def _entropy_ints(entropy) -> tuple:
    out = []
    for e in entropy:
        if isinstance(e, str):
            out.append(zlib.crc32(e.encode("utf-8")))
        else:
            out.append(int(e))
    return tuple(out)


def seeded_rng(*entropy) -> np.random.Generator:
    """Deterministic generator derived from a tuple of ints / string tags."""
    return np.random.default_rng(np.random.SeedSequence(_entropy_ints(entropy)))


class RngStream:
    """Splittable per-call generators: call i draws from (key..., i).

    Keeps dropout masks reproducible without global state; streams keyed
    by (seed, step) make resumed runs draw identical masks.
    """

    def __init__(self, *key):
        self.key = _entropy_ints(key)
        self.calls = 0

    def generator(self) -> np.random.Generator:
        g = seeded_rng(*self.key, self.calls)
        self.calls += 1
        return g


def xavier_uniform(shape, seed_key, dtype=np.float64) -> np.ndarray:
    """Uniform on [-L, L] with L = sqrt(6 / (fan_in + fan_out))."""
    if len(shape) != 2:
        raise ValueError(f"xavier_uniform expects a 2-D shape, got {shape}")
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    rng = seeded_rng(*seed_key) if isinstance(seed_key, tuple) else seeded_rng(seed_key)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def zero_grads(params) -> None:
    for p in (params.values() if isinstance(params, dict) else params):
        p.zero_grad()


# -- checkpoint file -----------------------------------------------------

_CKPT_MAGIC = b"BFCK"
_CKPT_VERSION = 2


def save_checkpoint(path, entries: dict[str, np.ndarray], config_text: str) -> None:
    """Ordered (name, shape, float32 data) entries, little-endian.

    Header carries the serialized config and its sha256 so a damaged
    header is caught on load.
    """
    cfg = config_text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", _CKPT_VERSION))
        fh.write(struct.pack("<I", len(cfg)))
        fh.write(cfg)
        fh.write(hashlib.sha256(cfg).digest())
        fh.write(struct.pack("<I", len(entries)))
        for name, arr in entries.items():
            nb = name.encode("utf-8")
            a = np.ascontiguousarray(arr, dtype="<f4")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", a.ndim))
            for d in a.shape:
                fh.write(struct.pack("<I", d))
            fh.write(a.data)  # a's own buffer, not a copy


def load_checkpoint(path, keep=None) -> tuple[str, dict[str, np.ndarray]]:
    """Read a checkpoint; a foreign, outdated, damaged or truncated file
    raises FormatError.

    keep(name) selects the entries to read (default: all); the others'
    payloads are seeked over. Every payload, read or not, must fit inside
    the file.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != _CKPT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint file")
        # a short read surfaces as struct.error or ValueError
        try:
            (version,) = struct.unpack("<I", fh.read(4))
            if version != _CKPT_VERSION:
                raise FormatError(f"{path}: unsupported checkpoint version {version} "
                                  f"(expected {_CKPT_VERSION})")
            (cfg_len,) = struct.unpack("<I", fh.read(4))
            cfg = fh.read(cfg_len)
            if fh.read(32) != hashlib.sha256(cfg).digest():
                raise FormatError(f"{path}: corrupt checkpoint (config digest mismatch)")
            (n,) = struct.unpack("<I", fh.read(4))
            entries: dict[str, np.ndarray] = {}
            for _ in range(n):
                (name_len,) = struct.unpack("<H", fh.read(2))
                name = fh.read(name_len).decode("utf-8")
                (ndim,) = struct.unpack("<B", fh.read(1))
                shape = tuple(struct.unpack("<I", fh.read(4))[0] for _ in range(ndim))
                count = int(np.prod(shape)) if shape else 1
                if 4 * count > size - fh.tell():
                    raise ValueError(f"file ends inside entry {name}")
                if keep is None or keep(name):
                    entries[name] = np.fromfile(fh, dtype="<f4", count=count).reshape(shape)
                else:
                    fh.seek(4 * count, os.SEEK_CUR)
            config_text = cfg.decode("utf-8")
        except (struct.error, ValueError) as exc:
            raise FormatError(f"{path}: truncated or corrupt checkpoint ({exc})") from exc
    return config_text, entries
