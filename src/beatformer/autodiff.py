"""Dense tensors with reverse-mode automatic differentiation.

Just enough machinery for the encoder model: matmul with broadcastable
batch dimensions, elementwise arithmetic, softmax, reductions, masking,
dropout, mean over runs of rows, fused linear, attention-head layout,
attention core, (residual) layer norm and BCE-with-logits nodes, and a
topological backward sweep. Data lives in numpy arrays; float64 is the
default so gradient checks are meaningful, float32 is the training dtype.
"""
from __future__ import annotations

import hashlib
import math
import os
import struct
import zlib
from collections.abc import Mapping

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

    `requires_grad` marks the leaves that receive gradients: each plain
    `backward()` adds a leaf's gradient into its `.grad`, in the data's
    dtype, until `zero_grad` resets it to a fresh zero array; interior
    nodes get none. Training never fills `.grad`: adam_step hands each
    leaf's gradient to the optimizer inside the sweep (`backward(on_leaf)`).
    """

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
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
        self.grad = np.zeros_like(self.data)

    def backward(self, on_leaf=None):
        """Reverse topological sweep from a scalar loss.

        Gradients sum across fan-out; leaves without requires_grad are
        skipped. Raises on non-scalar tensors. Each interior node drops its
        parents and closure once processed, so an activation is freed as
        soon as the sweep has passed every node that used it; the graph
        cannot be swept twice.

        A leaf is reached once, right after the last node that used it,
        with its complete gradient. That gradient is added into `.grad`, or,
        when on_leaf is given, passed as on_leaf(leaf, g) and not kept.
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
            # leaf parents below the interior ones: they are sorted last
            # under this node, so swept right after it
            for interior in (False, True):
                for p in node._parents:
                    if (p._backward_fn is not None) == interior and id(p) not in visited:
                        stack.append((p, False))
        grads = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            fn = node._backward_fn
            if fn is None:  # leaf: hand over or accumulate
                if g is not None and node.requires_grad:
                    if on_leaf is not None:
                        on_leaf(node, g)
                    elif node.grad is None:
                        node.grad = g.astype(node.data.dtype, copy=True)
                    else:
                        node.grad += g
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
    """Batched matrix product; backward is dA = dC·Bᵀ, dB = Aᵀ·dC."""
    a, b = _pair(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires tensors of rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    data = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return ((a, _unbroadcast(ga, a.shape)), (b, _unbroadcast(gb, b.shape)))

    return _make(data, (a, b), backward)


def linear(x, w, b) -> Tensor:
    """x·w + b for a weight w [k, n] acting on every row of x [..., k]; one node.

    The product and each gradient run as one flat [rows, k] GEMM, the bias
    is added in place; backward is dx = g·wᵀ, dw = xᵀ·g, db = Σ_rows g.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    k, n = w.shape
    if x.shape[-1] != k:
        raise ValueError(f"linear inner dims disagree: {x.shape} x {w.shape}")
    x2 = x.data.reshape(-1, k)
    data = x2 @ w.data
    data += b.data

    def backward(g):
        g2 = g.reshape(-1, n)
        return ((x, (g2 @ w.data.T).reshape(x.shape)), (w, x2.T @ g2),
                (b, g2.sum(axis=0)))

    return _make(data.reshape(x.shape[:-1] + (n,)), (x, w, b), backward)


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


def _to_heads(x2: np.ndarray, at: tuple, shape: tuple) -> np.ndarray:
    out = np.zeros(shape, dtype=x2.dtype)
    out[at] = x2.reshape(-1, shape[1], shape[3])
    return out


def split_heads(a, rows, shape) -> Tensor:
    """Zeros of `shape` [B, h, S, dk] holding the rows of `a` [len(rows),
    h*dk]: the row at flat position rows[i] = b*S + p goes to [b, :, p],
    its channels j*dk..(j+1)*dk to head j. The inverse of merge_heads."""
    a = _as_tensor(a)
    b, p = np.divmod(rows, shape[2])
    at = (b, slice(None), p)
    return _make(_to_heads(a.data, at, shape), (a,),
                 lambda g: ((a, g[at].reshape(a.shape)),))


def merge_heads(a, rows) -> Tensor:
    """The rows of `a` [B, h, S, dk] at flat positions rows (b*S + p), its
    heads side by side, as [len(rows), h*dk]; split_heads' forward is its
    backward."""
    a = _as_tensor(a)
    b, p = np.divmod(rows, a.shape[2])
    at = (b, slice(None), p)
    return _make(a.data[at].reshape(len(rows), -1), (a,),
                 lambda g: ((a, _to_heads(g, at, a.shape)),))


# -- reductions ----------------------------------------------------------

def mean_rows(a, counts) -> Tensor:
    """The mean of each run of rows of `a` [N, d], the runs counts[i] rows
    long and back to back, as [len(counts), d]; the backward spreads each
    run's gradient, scaled by 1/counts[i], over its rows."""
    a = _as_tensor(a)
    counts = np.asarray(counts)
    scale = (1.0 / counts.astype(np.float64)).astype(a.dtype)[:, None]
    ends = np.cumsum(counts)
    data = np.stack([a.data[e - n : e].sum(axis=0) for e, n in zip(ends, counts)])
    data *= scale
    return _make(data, (a,), lambda g: ((a, np.repeat(g * scale, counts, axis=0)),))


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


def layer_norm(x, gamma, beta, residual=None) -> Tensor:
    """Zero-mean unit-variance over the last axis of x (+ residual), then
    affine; one node, which keeps xhat and its output.

    With xhat = (x - mean) * rstd and rstd = 1/sqrt(var + 1e-6), the backward
    is dx = rstd * (gx - mean(gx) - xhat * mean(gx * xhat)) for gx = g * gamma;
    the residual gets the same dx.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if residual is None:
        parents = (x, gamma, beta)
        xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    else:
        residual = _as_tensor(residual)
        parents = (x, residual, gamma, beta)
        xhat = x.data + residual.data
        xhat -= xhat.mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + 1e-6)
    xhat *= rstd
    out = xhat * gamma.data
    out += beta.data

    def backward(g):
        gx = g * gamma.data
        dx = gx - gx.mean(axis=-1, keepdims=True)
        dx -= xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        dx *= rstd
        pairs = ((x, dx), (gamma, _unbroadcast(g * xhat, gamma.shape)),
                 (beta, _unbroadcast(g, beta.shape)))
        return pairs if residual is None else pairs + ((residual, dx),)

    return _make(out, parents, backward)


NEG_INF = -1e9  # blocked attention score; large-negative instead of -inf to keep float32 NaN-free


def attention(q, k, v, allowed=None) -> tuple[Tensor, np.ndarray]:
    """softmax(q·kᵀ/√d_k)·v over the last two axes, scores where `allowed`
    is false set to NEG_INF before the softmax; one node, which keeps only
    the weights w. Returns the output and w.

    With gw = g·vᵀ, the scores' gradient is w * (gw - Σ_keys gw * w), zero
    where blocked, times the scale; dq = gs·k, dk = gsᵀ·q, dv = wᵀ·g.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    w = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    scale = np.asarray(1.0 / np.sqrt(q.shape[-1])).astype(w.dtype)
    w *= scale
    if allowed is not None:
        blocked = ~allowed
        w = np.where(blocked, np.asarray(NEG_INF, dtype=w.dtype), w)
    w = np.exp(w - w.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)

    def backward(g):
        gw = np.matmul(g, np.swapaxes(v.data, -1, -2))
        gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True))
        if allowed is not None:
            gs = np.where(blocked, 0.0, gs)
        gs *= scale
        gk = np.matmul(np.swapaxes(q.data, -1, -2), gs)
        return ((q, np.matmul(gs, k.data)), (k, np.swapaxes(gk, -1, -2)),
                (v, np.matmul(np.swapaxes(w, -1, -2), g)))

    return _make(np.matmul(w, v.data), (q, k, v), backward), w


def bce_with_logits(z, y) -> Tensor:
    """Mean binary cross entropy of sigmoid(z) against y, finite at any z:
    max(z, 0) - z*y + log1p(exp(-|z|)), gradient (sigmoid(z) - y) / z.size."""
    z = _as_tensor(z)
    x = z.data
    y = np.asarray(y, dtype=x.dtype)
    data = np.mean(np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x))))
    return _make(data, (z,), lambda g: ((z, g * (logistic(x) - y) / x.size),))


def dropout(x, rate: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout by a mask drawn from rng; without one, the identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = _as_tensor(x)
    if rng is None or rate == 0.0:
        return x
    keep = rng.random(x.shape, dtype=x.data.dtype) >= rate
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.data.dtype)
    data = x.data * keep * scale
    return _make(data, (x,), lambda g: ((x, g * keep * scale),))


# -- initialization and rng ----------------------------------------------

def seeded_rng(*entropy) -> np.random.Generator:
    """Deterministic generator derived from a tuple of ints / string tags."""
    ints = [zlib.crc32(e.encode("utf-8")) if isinstance(e, str) else int(e) for e in entropy]
    return np.random.default_rng(np.random.SeedSequence(ints))


def xavier_uniform(shape, seed_key: tuple, dtype=np.float64) -> np.ndarray:
    """Uniform on [-L, L] with L = sqrt(6 / (fan_in + fan_out))."""
    if len(shape) != 2:
        raise ValueError(f"xavier_uniform expects a 2-D shape, got {shape}")
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    # numpy's uniform(-limit, limit) is -limit + (2 * limit) * next_double,
    # one draw per value; computed in place, it is the same bits with fewer
    # passes than the generator's per-value loop
    w = seeded_rng(*seed_key).random(shape)
    w *= 2.0 * limit
    w += -limit
    return w.astype(dtype, copy=False)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.zero_grad()


# -- checkpoint file -----------------------------------------------------

_CKPT_MAGIC = b"BFCK"
_CKPT_VERSION = 2


def save_checkpoint(path, entries: dict[str, np.ndarray], config_text: str) -> None:
    """Ordered (name, shape, float32 data) entries, little-endian.

    Header carries the serialized config and its sha256 so a damaged
    header is caught on load. The file is written beside `path` and then
    renamed over it, so a write that fails or is killed part-way leaves the
    previous file as it was.

    Each entry is handed to the kernel's writeback as soon as it is
    written (posix_fadvise DONTNEED, where the platform offers it), so the
    disk writes it while the next entry is copied. On ext4, a rename over an
    existing file first starts writeback of every block the file has not
    yet placed (auto_da_alloc); started early, that writeback no longer
    stalls the rename, and the data still reaches the disk no later,
    relative to the rename, than before. A posix_fallocate reservation
    would instead skip that writeback, and a power loss in the next half
    minute could leave the renamed file reading as zeros.
    """
    cfg = config_text.encode("utf-8")
    advise = getattr(os, "posix_fadvise", None)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write(struct.pack("<I", _CKPT_VERSION))
            fh.write(struct.pack("<I", len(cfg)))
            fh.write(cfg)
            fh.write(hashlib.sha256(cfg).digest())
            fh.write(struct.pack("<I", len(entries)))
            done = 0
            for name, arr in entries.items():
                nb = name.encode("utf-8")
                a = np.ascontiguousarray(arr, dtype="<f4")
                fh.write(struct.pack("<H", len(nb)))
                fh.write(nb)
                fh.write(struct.pack("<B", a.ndim))
                for d in a.shape:
                    fh.write(struct.pack("<I", d))
                fh.write(a.data)  # a's own buffer, not a copy
                if advise is not None:
                    fh.flush()
                    end = fh.tell()
                    advise(fh.fileno(), done, end - done, os.POSIX_FADV_DONTNEED)
                    done = end
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_index(fh, path, keep=None) -> tuple[str, dict]:
    """The config text and {name: (shape, payload offset)} of each kept
    entry of the open checkpoint fh, checked as CheckpointReader states."""
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
        index, seen = {}, set()
        for _ in range(n):
            (name_len,) = struct.unpack("<H", fh.read(2))
            name = fh.read(name_len).decode("utf-8")
            if name in seen:
                raise FormatError(f"{path}: entry {name} appears twice")
            seen.add(name)
            (ndim,) = struct.unpack("<B", fh.read(1))
            shape = tuple(struct.unpack("<I", fh.read(4))[0] for _ in range(ndim))
            nbytes = 4 * math.prod(shape)  # Python ints: no product wraps around
            if nbytes > size - fh.tell():
                raise ValueError(f"file ends inside entry {name}")
            if keep is None or keep(name):
                index[name] = (shape, fh.tell())
            fh.seek(nbytes, os.SEEK_CUR)
        if fh.tell() != size:
            raise FormatError(f"{path}: {size - fh.tell()} bytes after the last entry")
        return cfg.decode("utf-8"), index
    except (struct.error, ValueError) as exc:
        raise FormatError(f"{path}: truncated or corrupt checkpoint ({exc})") from exc


def load_checkpoint(path, keep=None) -> tuple[str, dict[str, np.ndarray]]:
    """(config text, {name: array}) of a checkpoint's entries that
    keep(name) selects (default: all), each read into its own array by a
    CheckpointReader, which states what is checked and raised."""
    with CheckpointReader(path, keep, role=lambda name: name) as reader:
        return reader.config_text, {name: reader[name].data for name in reader}


class CheckpointReader(Mapping):
    """A checkpoint's entries, each read from the file when it is looked
    up, as a plain Tensor (no gradient). It is the one reader of the
    format: load_checkpoint reads through it.

    Making the reader opens and indexes the file. A foreign, outdated,
    damaged, truncated or overlong file, or one naming an entry twice,
    raises FormatError then: every payload, kept or not, must fit inside
    the file, and the last one must end where the file does. keep(name)
    selects the entries (None: all); the others' payloads are seeked
    over. The file stays open until close(), so a file renamed over the
    path later is never read.

    role(name) names the buffer an entry is read into: entries of one role
    share one flat float32 buffer, sized to the role's largest kept entry,
    and each lookup returns the exact-size prefix of it in the entry's
    shape. So a lookup overwrites what the previous lookup of that role
    returned, and a tensor is valid only until its role is read again.
    With one role per kind of entry (weight, bias, gain, shift),
    inference holds one weight, one bias, one gain and one shift at a
    time; that is safe in an inference forward, which builds no graph and
    uses each weight before it looks up the next of its kind, and nothing
    else may use such a reader. Reads go through the unbuffered file, so
    no byte comes from an earlier read, and a read that ends early is a
    FormatError, never the role's stale values.
    """

    def __init__(self, path, keep, role):
        self.path = path
        self._fh = open(path, "rb", buffering=0)
        try:
            self.config_text, self._index = _read_index(self._fh, path, keep)
        except BaseException:
            self._fh.close()
            raise
        self.shapes = {name: shape for name, (shape, _) in self._index.items()}
        self._role = role
        self._sizes: dict[str, int] = {}
        for name, shape in self.shapes.items():
            key = role(name)
            self._sizes[key] = max(self._sizes.get(key, 0), math.prod(shape))
        self._buffers: dict[str, np.ndarray] = {}

    def __getitem__(self, name) -> Tensor:
        shape, offset = self._index[name]
        role = self._role(name)
        buf = self._buffers.get(role)
        if buf is None:
            buf = self._buffers[role] = np.empty(self._sizes[role], "<f4")
        flat = buf[:math.prod(shape)]
        self._fh.seek(offset)
        view, done = memoryview(flat.view(np.uint8)), 0
        while done < flat.nbytes:
            n = self._fh.readinto(view[done:])
            if not n:
                raise FormatError(f"{self.path}: truncated or corrupt checkpoint "
                                  f"(file ends inside entry {name})")
            done += n
        return Tensor(flat.reshape(shape))

    def __contains__(self, name) -> bool:
        return name in self._index

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "CheckpointReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
