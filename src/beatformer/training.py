"""Losses, Adam with warmup schedule, metrics, and the two training loops:
generative next-beat pre-training and supervised multi-label fine-tuning."""
from __future__ import annotations

import json
import math
import os
import time
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import transformer as tf
from .autodiff import Tensor
from .beat_tokenizer import load_tokens
from .ecg_io import read_lines
from .errors import (CheckpointMismatchError, ConfigError, EmptyInputError, FormatError,
                     NonFiniteLossError)

PRETRAIN = "pretrain"
CLASSIFY = "classify"


@dataclass
class OptimizerConfig:
    beta1: float = 0.9
    beta2: float = 0.98
    epsilon: float = 1e-9
    warmup_steps: int = 4000
    d_model: int = 1000
    batch_size: int = 128
    epochs: int = 50
    threshold: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie strictly in (0, 1)")
        # training runs in float32, where a larger epsilon overflows
        if not 0.0 < self.epsilon <= float(np.finfo(np.float32).max):
            raise ValueError(f"epsilon must be positive and finite in float32, "
                             f"got {self.epsilon}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold}")
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")
        if self.d_model < 1:
            raise ValueError(f"optim.d_model must be >= 1, got {self.d_model}")
        # lr_schedule computes in float64, where neither may overflow
        try:
            float(self.d_model)
        except OverflowError as exc:
            raise ValueError("optim.d_model is beyond the float64 range") from exc
        try:
            self.warmup_steps ** 1.5
        except OverflowError as exc:
            raise ValueError("optim.warmup_steps ** 1.5 is beyond the float64 range") from exc
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step_num: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        return cls(
            # np.zeros leaves its pages for the first update to fill; zeros_like
            # writes every one of them here
            m={n: np.zeros(p.data.shape, p.data.dtype) for n, p in params.items()},
            v={n: np.zeros(p.data.shape, p.data.dtype) for n, p in params.items()},
            step_num=0,
        )


def lr_schedule(step_num: int, d_model: int = 1000, warmup_steps: int = 4000) -> float:
    """1/sqrt(d_model) * min(1/sqrt(step), step / warmup^1.5).

    The first branch is computed as 1/sqrt(d_model*step) so that round
    powers come out exact in floating point; the product is taken in
    float64, so a step past its range gives 0 instead of raising.
    """
    if step_num < 1:
        raise ValueError(f"step_num must be >= 1, got {step_num}")
    decay = 1.0 / math.sqrt(float(d_model) * step_num)
    warm = step_num / (math.sqrt(d_model) * warmup_steps ** 1.5)
    return min(decay, warm)


# elements per pass of adam_update: a block of the parameter, its gradient,
# both moments and two scratch rows (6 x 128 KiB in float32) stays in L2
ADAM_BLOCK = 1 << 15


def adam_update(name: str, p: Tensor, g, state: AdamState, cfg: OptimizerConfig,
                lr: float, bc1: float, bc2: float) -> None:
    """Adam's update of one parameter by its gradient g, with the learning
    rate and bias corrections of the step.

    The parameter array and its two moments are updated in place,
    ADAM_BLOCK elements at a time; per element the operations are those of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
    p = p - lr*(m/bc1) / (sqrt(v/bc2) + eps), in that order, so the result
    does not depend on the block size.
    """
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.epsilon
    if not p.data.flags.c_contiguous:
        p.data = np.ascontiguousarray(p.data)
    dtype = p.data.dtype
    g = np.asarray(g, dtype=dtype).reshape(-1)
    # reshape(-1) of a C-contiguous array is a view, so the writes land
    pf, mf, vf = (a.reshape(-1) for a in (p.data, state.m[name], state.v[name]))
    n = min(ADAM_BLOCK, pf.size)
    s1, s2 = np.empty(n, dtype), np.empty(n, dtype)
    for lo in range(0, pf.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, pf.size)
        gb, m, v = g[lo:hi], mf[lo:hi], vf[lo:hi]
        t1, t2 = s1[: hi - lo], s2[: hi - lo]
        m *= b1
        np.multiply(gb, 1.0 - b1, out=t1)
        m += t1
        v *= b2
        np.multiply(gb, gb, out=t1)
        t1 *= 1.0 - b2
        v += t1
        np.divide(m, bc1, out=t1)
        np.divide(v, bc2, out=t2)
        np.sqrt(t2, out=t2)
        t2 += eps
        t1 *= lr
        t1 /= t2
        pf[lo:hi] -= t1


def adam_step(params: dict, state: AdamState, cfg: OptimizerConfig,
              loss: Tensor) -> float:
    """One Adam step over `params`, whose moments state holds, by the
    gradients of `loss`; returns the learning rate used.

    Frozen parameters are simply not passed in. The step runs loss's
    backward sweep and updates each parameter by adam_update where the
    sweep completes its gradient, which is then dropped, so no `.grad`
    buffer is made; a parameter the sweep does not reach is updated with a
    zero gradient. A gradient leaf missing from `params`, or one reached
    twice, is a ValueError.
    """
    t = state.step_num + 1
    lr = lr_schedule(t, cfg.d_model, cfg.warmup_steps)
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    pending = {id(p): name for name, p in params.items()}

    def on_leaf(leaf, g):
        name = pending.pop(id(leaf), None)
        if name is None:
            twice = [n for n, p in params.items() if p is leaf]
            raise ValueError(
                f"parameter {twice[0]} reached twice in one sweep" if twice
                else f"{leaf!r} needs a gradient but is not a trained parameter")
        adam_update(name, leaf, g, state, cfg, lr, bc1, bc2)

    loss.backward(on_leaf)
    for name in pending.values():
        p = params[name]
        adam_update(name, p, np.zeros_like(p.data), state, cfg, lr, bc1, bc2)
    state.step_num = t
    return lr


def mse_loss(pred: Tensor, target: np.ndarray, target_mask) -> Tensor:
    """Mean squared error over supervised positions, all dims pooled.

    target_mask is true at target's supervised positions ([S] or [B, S]
    over target [S, d] or [B, S, d]); pred holds one row per supervised
    position, in order, as [n_supervised, d], the packed rows the
    generative head returns. A pred of another row count is a ValueError.
    """
    target = np.asarray(target)
    rows = target[np.broadcast_to(np.asarray(target_mask, dtype=bool), target.shape[:-1])]
    if rows.shape[0] == 0:
        raise ValueError("target_mask leaves no supervised positions")
    if pred.shape[0] != rows.shape[0]:
        raise ValueError(f"pred has {pred.shape[0]} rows but target_mask marks "
                         f"{rows.shape[0]} supervised positions")
    diff = ad.sub(pred, rows)
    return ad.mul(ad.sum_(ad.mul(diff, diff)), 1.0 / diff.size)


def bce_loss(logits: Tensor, labels) -> Tensor:
    """Binary cross entropy of sigmoid(logits), mean over classes (and batch
    when batched)."""
    y = np.asarray(labels, dtype=logits.data.dtype)
    if y.shape != logits.shape:
        raise ValueError(f"labels shape {y.shape} != logits shape {logits.shape}")
    return ad.bce_with_logits(logits, y)


def threshold_predict(logits: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Multi-hot vector: class positive iff sigmoid(logit) strictly exceeds threshold."""
    return (ad.logistic(logits) > threshold).astype(np.int8)


def pad_batch(rows: list) -> tuple:
    """Zero-pad [n_i, d] token arrays to the longest: ([B, max n_i, d], n_i [B])."""
    n_real = np.array([len(r) for r in rows], dtype=np.int64)
    tokens = np.zeros((len(rows), n_real.max(), rows[0].shape[1]), dtype=rows[0].dtype)
    for b, r in enumerate(rows):
        tokens[b, : len(r)] = r
    return tokens, n_real


# padded rows per inference batch: a batch's activations grow with its count
# times its longest sequence, so a row budget caps inference memory whatever
# the mix of lengths, while 512 rows still keep the weight products large
BATCH_ROWS = 512


def forward_batches(params, config: tf.ModelConfig, sequences: list) -> np.ndarray:
    """Classifier logits for a list of BeatSequences, in their order. The
    sequences are batched shortest first, so each batch pads only to lengths
    close to its own; a batch closes before it would pass BATCH_ROWS padded
    rows, and a longer sequence runs alone. The rows come back in input
    order. Plain tensors over the parameter arrays build no backward graph,
    so no activation outlives its layer.

    A batch reads its sequences' tokens only when it pads them, so over a
    load_dataset index (CachedSequence) inference holds one batch of beats,
    whatever the dataset's size.

    params is a dict of parameter tensors, or an ad.CheckpointReader, whose
    plain tensors are read from the file as each batch's forward reaches
    them: once per batch, each into its kind's one buffer (weight, bias,
    gain, shift), and each valid only until the next of its kind is read.
    So inference holds one parameter of each kind, not one layer."""
    if not isinstance(params, ad.CheckpointReader):
        params = {name: Tensor(p.data) for name, p in params.items()}
    lengths = [s.n_real for s in sequences]
    order = np.argsort(lengths, kind="stable")
    batches = []
    for i in order:
        if not batches or (len(batches[-1]) + 1) * lengths[i] > BATCH_ROWS:
            batches.append([])
        batches[-1].append(i)
    outs = [tf.forward(*pad_batch([sequences[i].tokens for i in b]), config, params).data
            for b in batches]
    return np.concatenate(outs, axis=0)[np.argsort(order)]


def evaluate(params, config: tf.ModelConfig, dataset: list,
             threshold: float = 0.5) -> dict:
    """Classification metrics over (BeatSequence, multi-hot labels) pairs, from
    the logits of forward_batches, which takes params as it does: a batch
    closes before it would pass BATCH_ROWS rows.

    Macro-F1 averages only classes that appear in predictions or labels;
    with no such class it is reported as 0.0.
    """
    if not dataset:
        raise ValueError("evaluate needs a non-empty dataset")
    sequences = [s for s, _ in dataset]
    labels = np.stack([np.asarray(y, dtype=np.int8) for _, y in dataset])
    logits = forward_batches(params, config, sequences)
    preds = threshold_predict(logits, threshold)

    tp = ((preds == 1) & (labels == 1)).sum(axis=0).astype(np.float64)
    fp = ((preds == 1) & (labels == 0)).sum(axis=0).astype(np.float64)
    fn = ((preds == 0) & (labels == 1)).sum(axis=0).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(precision + recall > 0,
                      2 * precision * recall / (precision + recall), 0.0)
    seen = (tp + fp + fn) > 0
    macro_f1 = float(f1[seen].mean()) if seen.any() else 0.0
    tp_all, fp_all, fn_all = tp.sum(), fp.sum(), fn.sum()
    micro_p = tp_all / (tp_all + fp_all) if tp_all + fp_all > 0 else 0.0
    micro_r = tp_all / (tp_all + fn_all) if tp_all + fn_all > 0 else 0.0
    micro_f1 = (2 * micro_p * micro_r / (micro_p + micro_r)
                if micro_p + micro_r > 0 else 0.0)
    exact = float(np.all(preds == labels, axis=1).mean())
    mean_bce = float(bce_loss(Tensor(logits.astype(np.float64)),
                              labels.astype(np.float64)).item())
    return {
        "per_class": [
            {"class": int(c), "precision": float(precision[c]),
             "recall": float(recall[c]), "f1": float(f1[c]),
             "support": int(tp[c] + fn[c])}
            for c in range(labels.shape[1])
        ],
        "macro_f1": macro_f1,
        "micro_f1": float(micro_f1),
        "exact_match": exact,
        "mean_bce": mean_bce,
        "n_samples": len(dataset),
        "threshold": threshold,
    }


def load_manifest(path: str) -> list:
    """Manifest lines: cache path, tab, comma-separated class indices.

    Paths are taken relative to the manifest's directory. The index field
    may be empty (unlabeled record); a manifest without entries is a
    FormatError.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    for lineno, raw in enumerate(read_lines(path), 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        cache, _, idx_field = line.partition("\t")
        cache = cache.strip()
        if not cache:
            raise FormatError(f"{path}:{lineno}: empty cache path")
        if "\0" in cache:
            raise FormatError(f"{path}:{lineno}: NUL byte in cache path {cache!r}")
        try:
            indices = ({int(tok) for tok in idx_field.split(",") if tok.strip()}
                       if idx_field.strip() else None)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad class index list "
                              f"{idx_field!r}") from exc
        full = cache if os.path.isabs(cache) else os.path.join(base, cache)
        entries.append((full, indices))
    if not entries:
        raise FormatError(f"{path}: empty manifest")
    return entries


def multi_hot(indices, d_class: int) -> np.ndarray:
    out = np.zeros(d_class, dtype=np.int8)
    for i in indices:
        if not 0 <= i < d_class:
            raise ValueError(f"class index {i} outside 0..{d_class - 1}")
        out[i] = 1
    return out


def _check_sequence(name: str, seq, labelled: bool, config: tf.ModelConfig,
                   require_labels: bool) -> None:
    """The checks every training or inference sequence passes, each error
    naming the sequence: a token width other than config.d_model is a
    CheckpointMismatchError, more beats than config.max_pos a ConfigError,
    and no labels where they are required a FormatError."""
    if seq.d_model != config.d_model:
        raise CheckpointMismatchError(f"{name}: token width d_model={seq.d_model} does "
                                      f"not match model.d_model={config.d_model}")
    if seq.n_real > config.max_pos:
        raise ConfigError(f"{name}: {seq.n_real} beats exceed "
                          f"model.max_pos={config.max_pos}")
    if require_labels and not labelled:
        raise FormatError(f"{name}: record has no labels but labels are required")


@dataclass(frozen=True, slots=True)
class CachedSequence:
    """A token cache as load_dataset indexes it: its path and the beat count
    and width its header held when it was checked. tokens reads the file
    again through load_tokens on each use, so a dataset holds no beats; a
    cache whose header has changed since is a FormatError naming it."""
    path: str
    n_real: int
    d_model: int

    @property
    def tokens(self) -> np.ndarray:
        seq = load_tokens(self.path)
        if (seq.n_real, seq.d_model) != (self.n_real, self.d_model):
            raise FormatError(
                f"{self.path}: changed since it was checked: {seq.n_real} beats of "
                f"width {seq.d_model}, not {self.n_real} of width {self.d_model}")
        return seq.tokens


def load_dataset(entries: list, config: tf.ModelConfig,
                 require_labels: bool = False) -> list:
    """List of (CachedSequence, multi-hot or None), one per load_manifest
    entry.

    One pass reads every cache through load_tokens, which refuses a bad
    header, size or non-finite value; each then passes _check_sequence, and
    a class index outside config.d_class is a ConfigError; each error names
    the cache. Only the index is kept: each cache is read again when its
    batch needs it, so memory does not grow with the dataset's beats.
    """
    out = []
    for cache, indices in entries:
        seq = load_tokens(cache)
        _check_sequence(cache, seq, indices is not None, config, require_labels)
        seq = CachedSequence(cache, seq.n_real, seq.d_model)
        if indices is None:
            out.append((seq, None))
            continue
        try:
            out.append((seq, multi_hot(indices, config.d_class)))
        except ValueError as exc:
            raise ConfigError(f"{cache}: {exc} (model.d_class={config.d_class})") from exc
    return out


# -- config codec ---------------------------------------------------------
# One key=value text format serves --config files and checkpoint headers:
# "section.field=value" lines, each value parsed by its field's declared type.

def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"expected a boolean, got {raw!r}")
    return low in ("true", "1", "yes")


def parse_list(raw: str) -> list:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


_PARSERS = {int: int, float: float, str: str, bool: _parse_bool, list: parse_list}


def read_config_text(text: str, source: str) -> dict:
    """Flat key=value lines; # starts a comment; keys carry their section prefix."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key}")
        values[key] = value.strip()
    return values


def parse_config(values: dict, sections: dict) -> dict:
    """{"section.field": raw text} -> {section: {field: typed value}}.

    sections maps each section name to its dataclass. A key is known when
    it names a field typed int, float, str, bool or list (or one of those
    `| None`). Unknown keys and unparsable values raise ConfigError.
    """
    hints = {section: typing.get_type_hints(cls) for section, cls in sections.items()}
    kwargs = {section: {} for section in sections}
    for key, raw in values.items():
        section, _, name = key.partition(".")
        tp = hints.get(section, {}).get(name)
        tp = (typing.get_args(tp) or (tp,))[0]  # `X | None` parses as X
        if tp not in _PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[section][name] = _PARSERS[tp](raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key}: cannot parse {raw!r}") from exc
    return kwargs


def config_text(sections: dict) -> str:
    """{section: dataclass instance} as the lines read_config_text reads."""
    return "".join(f"{section}.{f.name}={getattr(obj, f.name)}\n"
                   for section, obj in sections.items() for f in fields(obj))


def config_diff(a, b, names) -> list:
    """One "name: a != b" line per named field where two configs disagree."""
    return [f"{name}: {getattr(a, name)!r} != {getattr(b, name)!r}"
            for name in names if getattr(a, name) != getattr(b, name)]


def save_training_checkpoint(path: str, params: dict, state: AdamState,
                             mcfg: tf.ModelConfig, ocfg: OptimizerConfig,
                             epoch: int, samples: int | None = None):
    """samples, when given, is the count of usable training samples, which
    with the batch size places the step count in the data; --resume
    refuses a dataset of another size."""
    entries = {name: p.data for name, p in params.items()}
    for name in state.m:
        entries[f"opt.m.{name}"] = state.m[name]
        entries[f"opt.v.{name}"] = state.v[name]
    entries["opt.step"] = np.array([state.step_num], dtype=np.float32)
    entries["meta.epoch"] = np.array([epoch], dtype=np.float32)
    if samples is not None:
        entries["meta.samples"] = np.array([samples], dtype=np.float32)
    ad.save_checkpoint(path, entries, config_text({"model": mcfg, "optim": ocfg}))


def _count(path: str, name: str, arr: np.ndarray) -> int:
    """The one finite, non-negative integer a counter entry holds."""
    value = float(arr.flat[0]) if arr.size == 1 else math.nan
    if not (value >= 0 and value.is_integer()):
        raise FormatError(f"{path}: {name} holds {arr.ravel()[:3].tolist()}, not one count")
    return int(value)


def _checkpoint_configs(path: str, header: str) -> tuple:
    """The (model, optim) configs a checkpoint header holds."""
    kwargs = parse_config(read_config_text(header, path),
                          {"model": tf.ModelConfig, "optim": OptimizerConfig})
    try:
        return tf.ModelConfig(**kwargs["model"]), OptimizerConfig(**kwargs["optim"])
    except ValueError as exc:
        raise FormatError(f"{path}: bad checkpoint config: {exc}") from exc


def load_training_checkpoint(path: str, keep=None, stream: bool = False):
    """Returns (model cfg, optim cfg, param arrays, AdamState, counters).

    counters maps each meta.* entry read, by its name after "meta.", to its
    count; a counter or opt.step that is not one finite, non-negative
    integer is a FormatError. keep(name) selects the entries read.

    stream opens a classifier checkpoint for inference. keep is not used
    with it: the model parameters (no opt.* or meta.* entry) come
    back in place of the param arrays as an ad.CheckpointReader that reads
    each as a plain tensor when it is looked up, into one buffer per kind
    of parameter (tf.kind_role), so a tensor is valid only until the next
    of its kind is looked up: the reader serves forward_batches and nothing
    else. A non-classifier head is a CheckpointMismatchError and a
    missing or mis-shaped parameter a FormatError, both raised with the
    reader closed; the caller closes the reader it gets.
    """
    # inference makes its reader here, not in cli: perfbench's tracer times
    # this function as the training.load_checkpoint span, which traced
    # predict reports (its ms and mb) and the hooks tests expect
    if stream:
        reader = ad.CheckpointReader(
            path, lambda name: not name.startswith(("opt.", "meta.")), tf.kind_role)
        try:
            mcfg, ocfg = _checkpoint_configs(path, reader.config_text)
            if mcfg.head != tf.CLASSIFIER:
                raise CheckpointMismatchError(
                    f"{path}: inference needs a classifier checkpoint, "
                    f"got head={mcfg.head!r}")
            try:
                tf.check_shapes(reader.shapes, mcfg)
            except FormatError as exc:
                raise FormatError(f"{path}: {exc}") from exc
        except BaseException:
            reader.close()
            raise
        return mcfg, ocfg, reader, AdamState(), {}
    header, entries = ad.load_checkpoint(path, keep)
    mcfg, ocfg = _checkpoint_configs(path, header)
    params, counters = {}, {}
    state = AdamState()
    for name, arr in entries.items():
        if name.startswith("opt.m."):
            state.m[name[len("opt.m.") :]] = arr
        elif name.startswith("opt.v."):
            state.v[name[len("opt.v.") :]] = arr
        elif name == "opt.step":
            state.step_num = _count(path, name, arr)
        elif name.startswith("meta."):
            counters[name[len("meta.") :]] = _count(path, name, arr)
        else:
            params[name] = arr
    return mcfg, ocfg, params, state, counters


def train(dataset: list, model_config: tf.ModelConfig, optim_config: OptimizerConfig,
          mode: str, seed: int, out_dir: str,
          resume: str | None = None,
          init_checkpoint: str | None = None,
          freeze_trunk: bool = False,
          max_steps: int | None = None) -> dict:
    """Run one training job and leave `model.ckpt` plus `train_log.ndjson`
    in out_dir.

    dataset: (BeatSequence or CachedSequence, multi-hot/None) pairs, as
    load_dataset returns them, each checked as load_dataset checks a cache
    before out_dir is touched. Each step reads the tokens of its batch's
    sequences alone, so over a load_dataset index a run holds one batch of
    beats; a cache changed since load_dataset checked it ends the run with
    its FormatError before that step, and writes no checkpoint as it stops.
    mode selects the head:
    "pretrain" trains the generative next-beat objective with masked MSE,
    "classify" trains the multi-label logits head with BCE-with-logits.
    resume continues an interrupted run (configs, sample count and trained
    parameters must match) from its step count, as if it had never stopped;
    init_checkpoint transfers a pre-trained trunk under a fresh head;
    freeze_trunk trains the head alone, so it needs one of the two.
    max_steps stops the run once the step count reaches it, mid-epoch or
    not; at or below the starting step count no step is taken. The
    checkpoint is written at each epoch end and when the run stops, and
    its meta.epoch counts the epochs completed. A non-finite loss stops
    the run before that step changes the weights, with the checkpoint of
    the step before, and raises NonFiniteLossError.
    """
    if mode not in (PRETRAIN, CLASSIFY):
        raise ValueError(f"unknown training mode {mode!r}")
    if max_steps is not None and max_steps < 0:
        raise ConfigError(f"max_steps must be >= 0, got {max_steps}")
    if resume and init_checkpoint:
        raise ConfigError("--resume and --init-checkpoint are mutually exclusive")
    if freeze_trunk and not (resume or init_checkpoint):
        raise ConfigError("--freeze-trunk needs a trained trunk: give --init-checkpoint "
                          "(or --resume a frozen run)")
    config = model_config.with_head(
        tf.GENERATIVE if mode == PRETRAIN else tf.CLASSIFIER)

    for i, (seq, y) in enumerate(dataset):
        _check_sequence(f"sequence {i}", seq, y is not None, config, mode == CLASSIFY)
    if not dataset:
        raise ValueError("training needs a non-empty dataset")

    # next-beat pre-training needs a second beat to predict
    samples = [(seq, y) for seq, y in dataset if mode == CLASSIFY or seq.n_real >= 2]
    skipped = len(dataset) - len(samples)
    if not samples:
        raise EmptyInputError("no sequence has >= 2 beats; nothing to pre-train on")

    arrays, diff = {}, []
    if resume:
        ck_m, ck_o, arrays, state, counters = load_training_checkpoint(resume)
        # epochs is the run-length target, not a trajectory parameter; a
        # resumed run may extend it
        diff = (config_diff(ck_m, config, [f.name for f in fields(config)])
                + config_diff(ck_o, optim_config,
                              [f.name for f in fields(ck_o) if f.name != "epochs"]))
    elif init_checkpoint:
        # only the trunk is read: the Adam moments and the old head are skipped
        ck_m, _, arrays, _, _ = load_training_checkpoint(
            init_checkpoint, lambda name: not name.startswith(("opt.", "head.")))
        diff = config_diff(ck_m, config, tf.TRUNK_FIELDS)
    if diff:
        raise CheckpointMismatchError(
            f"{resume or init_checkpoint}: checkpoint does not match the requested "
            "configuration:\n  " + "\n  ".join(diff))
    if resume:
        # older checkpoints lack meta.samples
        if counters.get("samples", len(samples)) != len(samples):
            raise CheckpointMismatchError(
                f"{resume}: checkpoint was trained on {counters['samples']} "
                f"samples, this dataset has {len(samples)}; --resume must continue "
                f"over the same dataset")
    else:  # a fresh run draws every parameter, a transfer only the head
        drawn = tf.init_params(config, seed, keep=lambda name: (
            not init_checkpoint or name.startswith("head.")))
        arrays.update((name, p.data) for name, p in drawn.items())
    try:
        params = tf.params_from_arrays(arrays, config)
    except FormatError as exc:  # drawn arrays fit; a checkpoint's may not
        raise FormatError(f"{resume or init_checkpoint}: {exc}") from exc
    for name, p in params.items():
        p.requires_grad = not freeze_trunk or name.startswith("head.")
    trainable = {name: p for name, p in params.items() if p.requires_grad}
    if resume:
        _check_moments(resume, state, trainable)
    else:
        state = AdamState.for_params(trainable)
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    log_path = os.path.join(out_dir, "train_log.ndjson")
    log_mode = "a" if resume else "w"

    # the step count alone places a run: step s is batch k of epoch e for
    # (e, k) = divmod(s, per_epoch), so a resume continues mid-epoch
    bs = optim_config.batch_size
    per_epoch = -(-len(samples) // bs)
    last = optim_config.epochs * per_epoch
    if max_steps is not None:
        last = min(last, max_steps)
    last_loss = stop = None
    with open(log_path, log_mode, encoding="utf-8") as log:
        for step in range(state.step_num, last):
            t0 = time.monotonic()
            epoch, k = divmod(step, per_epoch)
            order = ad.seeded_rng(seed, "shuffle", epoch + 1).permutation(len(samples))
            rng = ad.seeded_rng(seed, "dropout", step + 1)
            # only this step's caches are read, and their beats dropped once
            # the loss is built, before the backward sweep
            batch = [(samples[i][0].tokens, samples[i][1])
                     for i in order[k * bs : (k + 1) * bs]]
            loss = _batch_loss(batch, np.arange(len(batch)), config, params, rng)
            del batch
            last_loss = float(loss.item())
            # adam_step writes the weights during the sweep: check first, and
            # leave the checkpoint of the last finite step
            if not math.isfinite(last_loss):
                stop = NonFiniteLossError(
                    f"step {step + 1}: loss is {last_loss}; stopped before the "
                    f"step changed the weights")
                break
            lr = adam_step(trainable, state, optim_config, loss)
            log.write(json.dumps({
                "epoch": epoch + 1, "step": state.step_num, "lr": lr,
                "loss": last_loss, "mode": mode, "seed": seed,
                "wall_ms": round(1000 * (time.monotonic() - t0), 3),
            }) + "\n")
            if k + 1 == per_epoch and step + 1 < last:
                save_training_checkpoint(ckpt_path, params, state, config,
                                         optim_config, epoch + 1, len(samples))
    save_training_checkpoint(ckpt_path, params, state, config, optim_config,
                             state.step_num // per_epoch, len(samples))
    if stop:
        raise stop
    return {
        "checkpoint": ckpt_path,
        "log": log_path,
        "steps": state.step_num,
        "final_loss": last_loss,
        "mode": mode,
        "skipped_sequences": skipped,
    }


def _check_moments(path: str, state: AdamState, trainable: dict) -> None:
    """A resume's moments: one opt.m and opt.v entry per trained parameter."""
    want = {name: p.shape for name, p in trainable.items()}
    for slot, moments in (("m", state.m), ("v", state.v)):
        have = {name: a.shape for name, a in moments.items()}
        bad = sorted(n for n in have.keys() | want.keys() if have.get(n) != want.get(n))
        if bad:
            raise CheckpointMismatchError(
                f"{path}: the Adam moments do not match the trained parameters "
                f"({len(bad)} mismatched), first opt.{slot}.{bad[0]}: shape "
                f"{have.get(bad[0], 'absent')} in the checkpoint, {want.get(bad[0], 'absent')} "
                f"here; resume with --freeze-trunk exactly when the interrupted run used it")


def _batch_loss(samples: list, batch_idx: np.ndarray, config: tf.ModelConfig,
                params: dict, rng: np.random.Generator) -> Tensor:
    tokens, n_real = pad_batch([samples[i][0] for i in batch_idx])
    if config.head == tf.GENERATIVE:
        # teacher forcing: position i sees beats 0..i and predicts beat i+1
        inputs, targets, counts = tokens[:, :-1], tokens[:, 1:], n_real - 1
        out = tf.forward(inputs, counts, config, params, rng=rng)
        return mse_loss(out, targets, np.arange(inputs.shape[1]) < counts[:, None])
    labels = np.stack([samples[i][1] for i in batch_idx])
    logits = tf.forward(tokens, n_real, config, params, rng=rng)
    return bce_loss(logits, labels.astype(tokens.dtype))
