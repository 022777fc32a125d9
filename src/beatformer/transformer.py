"""Encoder model over beat sequences.

Sinusoidal positional encoding, a stack of encoder layers (masked
multi-head self-attention + feed-forward, post-norm residuals), and two
interchangeable output heads: a per-position linear head for next-beat
generation and a pooled logits head for multi-label classification (the
sigmoid is applied by the loss and by the threshold rule). The layers
run on a padded batch's real beats only, packed into [N, d_model] rows;
attention alone sees the padded [batch, seq] layout.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import FormatError

GENERATIVE = "generative"
CLASSIFIER = "classifier"

# trunk fields must agree between a pre-training checkpoint and the
# classifier that reuses it; the head (and its width) may differ
TRUNK_FIELDS = ("d_model", "n_encoders", "n_heads", "dff", "max_pos",
                "dropout_rate", "causal")


@dataclass
class ModelConfig:
    d_model: int = 1000
    n_encoders: int = 5
    n_heads: int = 8
    dff: int = 2048
    max_pos: int = 50
    d_class: int = 28
    dropout_rate: float = 0.1
    head: str = GENERATIVE
    causal: bool = True

    def __post_init__(self):
        for name in ("d_model", "n_encoders", "n_heads", "dff", "max_pos", "d_class"):
            if getattr(self, name) <= 0:
                raise ValueError(f"ModelConfig.{name} must be positive")
        if self.d_model % self.n_heads:
            raise ValueError(f"n_heads={self.n_heads} does not divide d_model={self.d_model}")
        # a weight is drawn in float64, and numpy cannot describe a larger array
        if max(self.d_model, self.dff, self.d_class) * self.d_model > sys.maxsize // 8:
            raise ValueError(f"a weight of d_model={self.d_model}, dff={self.dff}, "
                             f"d_class={self.d_class} has more than {sys.maxsize // 8} "
                             "elements")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.head not in (GENERATIVE, CLASSIFIER):
            raise ValueError(f"unknown head {self.head!r}")

    def with_head(self, head: str) -> "ModelConfig":
        return replace(self, head=head)


def positional_encoding(max_pos: int, d_model: int, dtype=np.float64) -> np.ndarray:
    """pe[p, 2i] = sin(p / 10000^(2i/d)), pe[p, 2i+1] = cos of the same angle."""
    pos = np.arange(max_pos, dtype=np.float64)[:, None]
    idx = np.arange(0, d_model, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, idx / d_model)
    pe = np.zeros((max_pos, d_model))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return pe.astype(dtype)


def build_attention_mask(n_real, seq_len: int, causal: bool = True) -> np.ndarray:
    """Allowed[i, j] for each sequence: causal (j <= i) AND key j unpadded.

    `n_real` scalar -> [seq, seq]; array of batch counts -> [B, 1, seq, seq]
    (the head axis broadcasts).
    """
    j = np.arange(seq_len)
    counts = np.asarray(n_real, dtype=np.int64)
    counts = counts.reshape(-1, 1, 1, 1) if counts.ndim else counts
    return (j < counts) & ((j[None, :] <= j[:, None]) | (not causal))


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                         allowed: np.ndarray | None,
                         return_weights: bool = False):
    """softmax(QKᵀ/√d_k)V with blocked scores set to -1e9 before the softmax."""
    out, weights = ad.attention(q, k, v, allowed)
    if return_weights:
        return out, Tensor(weights)
    return out


def _linear(x: Tensor, params: dict, name: str) -> Tensor:
    return ad.linear(x, params[f"{name}.w"], params[f"{name}.b"])


def multi_head_attention(x: Tensor, params: dict, prefix: str,
                         allowed: np.ndarray, config: ModelConfig,
                         rows: np.ndarray) -> Tensor:
    """Project to q/k/v, split across heads, attend, concatenate, project out.

    x: [N, d_model], the real rows of a [batch, seq] padded layout packed
    sequence by sequence; rows: their flat positions b*seq + p; allowed:
    the [batch, 1, seq, seq] mask. Only the attention core sees the padded
    layout: q, k and v are written into [batch, h, seq, dk] (padded rows
    zero) and its output is gathered back to [N, d_model] before wo. The
    q/k/v projections are d_model -> d_model, split into n_heads heads of
    width dk = d_model // n_heads.
    """
    batch, seq = allowed.shape[0], allowed.shape[-1]
    if seq > config.max_pos:
        raise ValueError(f"sequence length {seq} exceeds max_pos {config.max_pos}")
    h, d = config.n_heads, config.d_model
    shape = (batch, h, seq, d // h)
    q, k, v = (ad.split_heads(_linear(x, params, f"{prefix}.{proj}"), rows, shape)
               for proj in ("wq", "wk", "wv"))
    attended = scaled_dot_attention(q, k, v, allowed)
    return _linear(ad.merge_heads(attended, rows), params, f"{prefix}.wo")


def encoder_layer(x: Tensor, params: dict, prefix: str,
                  allowed: np.ndarray, config: ModelConfig, rows: np.ndarray,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Post-norm residual block: LN(x + Drop(MHA(x))), then LN(a + Drop(FFN(a))).

    x is [N, d_model], packed as multi_head_attention takes it; every op
    but the attention core runs on those N rows alone. Given an rng
    (training), both dropout masks are drawn from it, in that order.
    """
    rate = config.dropout_rate
    attn = multi_head_attention(x, params, f"{prefix}.attn", allowed, config, rows)
    a1 = ad.layer_norm(x, params[f"{prefix}.ln1.gamma"], params[f"{prefix}.ln1.beta"],
                       residual=ad.dropout(attn, rate, rng))
    hidden = ad.relu(_linear(a1, params, f"{prefix}.ffn.w1"))
    ff = _linear(hidden, params, f"{prefix}.ffn.w2")
    return ad.layer_norm(a1, params[f"{prefix}.ln2.gamma"], params[f"{prefix}.ln2.beta"],
                         residual=ad.dropout(ff, rate, rng))


def forward(tokens, n_real, config: ModelConfig, params: dict,
            rng: np.random.Generator | None = None) -> Tensor:
    """Run the encoder stack on token sequences.

    tokens: an array [batch, seq, d_model] with one count of unpadded
    positions per row in n_real, or a single [seq, d_model] sequence with a
    scalar n_real. Only the real beats are computed: their N = sum(n_real)
    rows are packed sequence by sequence, and padded positions exist only
    inside attention. The generative head returns its per-position
    predictions as those packed [N, d_model] rows; the classifier head
    mean-pools each sequence's real rows and returns per-class logits.
    Dropout runs only when rng is given (training), every mask drawn from
    it in forward order.
    """
    x = Tensor(tokens).data  # float32 stays float32, anything else is float64
    counts = np.atleast_1d(np.asarray(n_real, dtype=np.int64))
    seq = x.shape[-2]  # multi_head_attention rejects seq > max_pos
    if counts.size != (x.shape[0] if x.ndim == 3 else 1):
        raise ValueError(f"{counts.size} counts for a batch of shape {x.shape}")
    if np.any(counts <= 0) or np.any(counts > seq):
        raise ValueError(f"every sequence needs 1..{seq} real beats, got {counts.tolist()}")
    # flat positions b*seq + p of the real beats, each sequence's run contiguous
    rows = np.flatnonzero(np.arange(seq) < counts[:, None])
    pe = positional_encoding(seq, config.d_model, dtype=x.dtype)
    h = Tensor(x.reshape(-1, x.shape[-1])[rows] + pe[rows % seq])
    allowed = build_attention_mask(counts, seq, config.causal)
    for i in range(config.n_encoders):
        h = encoder_layer(h, params, f"enc{i}", allowed, config, rows, rng)

    if config.head == GENERATIVE:
        return _linear(h, params, "head")
    out = _linear(ad.mean_rows(h, counts), params, "head")
    return ad.reshape(out, out.shape[1:]) if x.ndim == 2 else out


def param_shapes(config: ModelConfig):
    """Yield (name, shape, kind) for every trainable parameter, in registry order."""
    d = config.d_model
    for i in range(config.n_encoders):
        p = f"enc{i}"
        for proj in ("wq", "wk", "wv"):
            yield f"{p}.attn.{proj}.w", (d, d), "weight"
            yield f"{p}.attn.{proj}.b", (d,), "bias"
        yield f"{p}.attn.wo.w", (d, d), "weight"
        yield f"{p}.attn.wo.b", (d,), "bias"
        yield f"{p}.ffn.w1.w", (d, config.dff), "weight"
        yield f"{p}.ffn.w1.b", (config.dff,), "bias"
        yield f"{p}.ffn.w2.w", (config.dff, d), "weight"
        yield f"{p}.ffn.w2.b", (d,), "bias"
        yield f"{p}.ln1.gamma", (d,), "one"
        yield f"{p}.ln1.beta", (d,), "bias"
        yield f"{p}.ln2.gamma", (d,), "one"
        yield f"{p}.ln2.beta", (d,), "bias"
    out = d if config.head == GENERATIVE else config.d_class
    yield "head.w", (d, out), "weight"
    yield "head.b", (out,), "bias"


def init_params(config: ModelConfig, seed: int = 0, dtype=np.float32,
                keep=None) -> dict[str, Tensor]:
    """Xavier-uniform weights, zero biases, unit layer-norm gains.

    keep(name) selects the parameters made (default: all). A weight's
    draw is keyed by its position in param_shapes, so it is the same
    whichever others are kept.
    """
    params: dict[str, Tensor] = {}
    for idx, (name, shape, kind) in enumerate(param_shapes(config)):
        if keep is not None and not keep(name):
            continue
        if kind == "weight":
            data = ad.xavier_uniform(shape, (seed, 0, idx), dtype=dtype)
        elif kind == "one":
            data = np.ones(shape, dtype=dtype)
        else:
            data = np.zeros(shape, dtype=dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


def count_parameters(config: ModelConfig) -> int:
    return int(sum(int(np.prod(shape)) for _, shape, _ in param_shapes(config)))


def layer_role(name: str) -> str:
    """A parameter's name within its encoder layer ("enc3.attn.wq.w" ->
    "attn.wq.w"); a name outside the encoder stack is its own role."""
    layer, _, role = name.partition(".")
    return role if layer[:3] == "enc" and layer[3:].isdigit() else name


def check_shapes(shapes: dict, config: ModelConfig) -> None:
    """A FormatError unless shapes (name -> shape) holds every parameter of
    config at its shape."""
    for name, shape, _ in param_shapes(config):
        if name not in shapes:
            raise FormatError(f"checkpoint is missing parameter {name}")
        if shapes[name] != shape:
            raise FormatError(
                f"parameter {name}: checkpoint shape {shapes[name]} != expected {shape}")


def params_from_arrays(arrays: dict[str, np.ndarray], config: ModelConfig) -> dict[str, Tensor]:
    """float32 parameters for `config`; a missing or mis-shaped array is a FormatError."""
    check_shapes({name: np.shape(arr) for name, arr in arrays.items()}, config)
    return {name: Tensor(np.asarray(arrays[name], dtype=np.float32), requires_grad=True)
            for name, _, _ in param_shapes(config)}
