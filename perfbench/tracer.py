"""Span tracing for the benchmark's traced runs.

The program has no tracing of its own, so the spans are recorded from
here: ``Tracer.install`` replaces each layer's public functions, at the
place their caller looks them up, with a wrapper that opens a span,
calls the original and closes the span; ``uninstall`` puts the originals
back. Spans are kept in memory and written out when the run ends.

A span is ``[name, start_ns, end_ns, parent, rid, extra]``: ``parent`` is
the index of the enclosing span (-1 at the root), ``rid`` the record or
step the work belongs to, ``extra`` a dict of counts measured at the
boundary (bytes, samples, peaks) or None. Backward spans carry in
``extra["fwd"]`` the index of the forward op span that created the node,
whose ancestors give the scope (encoder layer, attention, layer norm).
"""
from __future__ import annotations

import json
import os
import statistics
from time import perf_counter_ns

from beatformer import autodiff, cli, dsp, training, transformer

# autodiff ops whose forward and backward are reported one by one
REPORTED_OPS = ("matmul", "add", "mul", "div", "sub", "sum_", "sqrt", "softmax",
                "masked_fill", "dropout", "relu", "transpose", "reshape", "sigmoid")
# composites and ops wrapped only so their time is attributed
OTHER_OPS = ("layer_norm", "mean", "take", "exp", "log", "clip")


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _record_bytes(path) -> int:
    """Bytes a record occupies on disk: the CSV, or the header plus its .dat."""
    stem, ext = os.path.splitext(path)
    if ext.lower() in (".hea", ".dat"):
        return _file_bytes(stem + ".hea") + _file_bytes(stem + ".dat")
    return _file_bytes(path)


class Patches:
    """Replacements of module attributes or dict entries, undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def __bool__(self):
        return bool(self._undo)

    def swap(self, owner, key, new):
        """Put `new` at owner.key (owner[key] for a dict); returns the old value."""
        if isinstance(owner, dict):
            old, owner[key] = owner[key], new
        else:
            old = getattr(owner, key)
            setattr(owner, key, new)
        self._undo.append((owner, key, old))
        return old

    def restore(self):
        while self._undo:
            owner, key, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.step = 0
        self.patches = Patches()

    # -- spans ------------------------------------------------------------
    def open(self, name: str, rid=None, extra=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        if rid is None:
            rid = self.spans[parent][4] if parent >= 0 else None
        self.spans.append([name, perf_counter_ns(), 0, parent, rid, extra])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = perf_counter_ns()
        # an exception may have skipped inner closes; unwind to this span
        while self.stack and self.stack.pop() != idx:
            pass

    def _close_open(self, name: str):
        for idx in reversed(self.stack):
            if self.spans[idx][0] == name:
                self.close(idx)
                return

    # -- installation -----------------------------------------------------
    def _wrap(self, owner, attr, name, before=None, after=None, rid=None):
        """Span `name` around owner.attr.

        before(args, kwargs) returns the span's extra dict, after(idx, args,
        out) adds to it, rid(args) names the record the span starts.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            extra = before(args, kwargs) if before else None
            idx = tracer.open(name, rid=rid(args) if rid else None, extra=extra)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                after(idx, args, out)
            return out

        orig = self.patches.swap(owner, attr, wrapper)

    def install(self):
        """Wrap every traced function where its caller looks it up."""
        if self.patches:
            raise RuntimeError("tracer already installed")
        w = self._wrap
        # cli from-imports these; _preprocess_one is one record
        w(cli, "_preprocess_one", "cli.record", rid=lambda args: os.path.basename(args[0]))
        w(cli, "load_record", "ecg_io.load_record",
          before=lambda args, kw: {"bytes": _record_bytes(args[0])})
        w(cli, "load_label_map", "ecg_io.load_label_map")
        w(cli, "filter_labels", "ecg_io.filter_labels")
        w(cli, "resample_record", "ecg_io.resample_record")
        w(cli, "fuse_rms", "beat_tokenizer.fuse_rms")
        w(cli, "build_sequence", "beat_tokenizer.build_sequence",
          after=lambda i, a, out: self._set(i, n_real=out.n_real,
                                            positions=out.tokens.shape[0]))
        w(cli, "save_tokens", "beat_tokenizer.save_tokens",
          after=lambda i, a, out: self._set(i, bytes=_file_bytes(a[0])))
        def samples(args, kw):
            return {"samples": int(getattr(args[1], "size", 0))}

        w(cli, "apply_filter", "dsp.apply_filter", before=samples)
        # dsp.bandpass reaches apply_filter through the module globals
        w(dsp, "apply_filter", "dsp.apply_filter", before=samples)
        # cli.DETECTORS is dsp.DETECTORS; the detectors are called through it
        for key in list(dsp.DETECTORS):
            w(dsp.DETECTORS, key, "dsp.detect",
              after=lambda i, a, out: self._set(i, peaks=len(out)))

        # training from-imports load_tokens and calls the rest as globals
        w(training, "load_tokens", "beat_tokenizer.load_tokens")
        w(training, "load_dataset", "training.load_dataset")
        w(training, "train", "training.train")
        w(training, "forward_batches", "training.forward_batches")
        w(training, "mse_loss", "training.loss")
        w(training, "bce_loss", "training.loss")
        w(training, "save_training_checkpoint", "training.save_checkpoint",
          after=lambda i, a, out: self._set(i, bytes=_file_bytes(a[0])))
        w(training, "load_training_checkpoint", "training.load_checkpoint",
          before=lambda args, kw: {"bytes": _file_bytes(args[0])})
        self._wrap_steps()

        # transformer calls its helpers as globals and autodiff as `ad.<op>`
        w(transformer, "forward", "transformer.forward",
          before=lambda args, kw: self._forward_extra(args, kw))
        for fn in ("encoder_layer", "multi_head_attention", "scaled_dot_attention",
                   "positional_encoding", "build_attention_mask"):
            w(transformer, fn, f"transformer.{fn}")
        for op in REPORTED_OPS + OTHER_OPS:
            self._wrap_op(op)
        # a method: wrapped on the class
        w(autodiff.Tensor, "backward", "autodiff.backward")

    def uninstall(self):
        self.patches.restore()

    def _set(self, idx, **values):
        span = self.spans[idx]
        if span[5] is None:
            span[5] = {}
        span[5].update(values)

    @staticmethod
    def _forward_extra(args, kwargs):
        n_real = kwargs.get("n_real", args[1] if len(args) > 1 else None)
        tokens = args[0]
        if n_real is None and hasattr(tokens, "n_real"):
            n_real = tokens.n_real
        shape = getattr(getattr(tokens, "tokens", tokens), "shape", ())
        positions = shape[0] * shape[1] if len(shape) == 3 else (shape[0] if shape else 0)
        real = int(sum(int(n) for n in (n_real if hasattr(n_real, "__len__") else [n_real])))
        return {"n_real": real, "positions": int(positions)}

    def _wrap_steps(self):
        """A training step runs from _batch_loss's call to adam_step's return."""
        tracer = self

        def batch_loss(*args, **kwargs):
            tracer.step += 1
            tracer.open("training.step", rid=f"step{tracer.step}")
            return orig_loss(*args, **kwargs)

        def adam_step(*args, **kwargs):
            idx = tracer.open("training.adam_step")
            try:
                return orig_adam(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer._close_open("training.step")

        orig_loss = self.patches.swap(training, "_batch_loss", batch_loss)
        orig_adam = self.patches.swap(training, "adam_step", adam_step)

    def _wrap_op(self, op: str):
        """Forward span per call; the node's backward closure gets its own span."""
        tracer = self
        name, bwd_name = f"autodiff.{op}", f"autodiff.{op}.bwd"

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            # an identity op (dropout at inference) returns its input, and a
            # composite returns a node an inner op already wrapped
            identity = any(out is a for a in args)
            extra = {"bytes": 0 if identity else out.data.nbytes}
            tracer.spans[idx][5] = extra
            fn = out._backward_fn
            if identity or fn is None or getattr(fn, "_traced", False):
                return out
            extra["node"] = 1

            def backward_fn(g, fn=fn, fwd=idx):
                bidx = tracer.open(bwd_name, extra={"fwd": fwd})
                try:
                    pairs = tuple(fn(g))
                finally:
                    tracer.close(bidx)
                tracer.spans[bidx][5]["bytes"] = sum(
                    getattr(pg, "nbytes", 0) for _, pg in pairs)
                return pairs

            backward_fn._traced = True
            out._backward_fn = backward_fn
            return out

        orig = self.patches.swap(autodiff, op, wrapper)

    # -- output -----------------------------------------------------------
    def dump(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "rid", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- per-layer metrics ----------------------------------------------------

def _ms(ns) -> float:
    return ns / 1e6


def layer_metrics(spans: list, iterations: int) -> dict:
    """Per-layer metrics from the spans of `iterations` traced loop turns.

    Totals are per loop turn; step_* and the graph counts are per training
    step (per forward call when nothing trains). Metrics of layers a
    workload bypasses come out as 0.
    """
    n = max(iterations, 1)
    dur = {}
    calls = {}
    child = [0] * len(spans)
    for s in spans:
        d = s[2] - s[1]
        dur[s[0]] = dur.get(s[0], 0) + d
        calls[s[0]] = calls.get(s[0], 0) + 1
        if s[3] >= 0:
            child[s[3]] += d
    selfd = {}
    for i, s in enumerate(spans):
        selfd[s[0]] = selfd.get(s[0], 0) + (s[2] - s[1]) - child[i]

    def extra_sum(name, key):
        return sum((s[5] or {}).get(key, 0) for s in spans if s[0] == name)

    def durations(name):
        return [_ms(s[2] - s[1]) for s in spans if s[0] == name]

    def p90(values):
        if len(values) < 2:
            return values[0] if values else 0.0
        return statistics.quantiles(values, n=10, method="inclusive")[8]

    def p50(values):
        return statistics.median(values) if values else 0.0

    out = {}
    # ecg_io
    out["ecg_io.load_record.ms"] = _ms(dur.get("ecg_io.load_record", 0)) / n
    out["ecg_io.load_record.calls"] = calls.get("ecg_io.load_record", 0) / n
    out["ecg_io.load_record.mb"] = extra_sum("ecg_io.load_record", "bytes") / 1e6 / n
    out["ecg_io.resample_record.ms"] = _ms(dur.get("ecg_io.resample_record", 0)) / n
    out["ecg_io.load_label_map.ms"] = _ms(dur.get("ecg_io.load_label_map", 0)) / n
    out["ecg_io.load_label_map.calls"] = calls.get("ecg_io.load_label_map", 0) / n
    # dsp
    out["dsp.apply_filter.ms"] = _ms(dur.get("dsp.apply_filter", 0)) / n
    out["dsp.apply_filter.calls"] = calls.get("dsp.apply_filter", 0) / n
    out["dsp.apply_filter.msamples"] = extra_sum("dsp.apply_filter", "samples") / 1e6 / n
    out["dsp.detect.ms"] = _ms(selfd.get("dsp.detect", 0)) / n
    out["dsp.detect.peaks"] = extra_sum("dsp.detect", "peaks") / n
    # scored against the true peaks by the ingest workload, which knows them
    out["dsp.detect.recall"] = out["dsp.detect.precision"] = 0.0
    # beat_tokenizer
    out["beat_tokenizer.fuse_rms.ms"] = _ms(dur.get("beat_tokenizer.fuse_rms", 0)) / n
    out["beat_tokenizer.build_sequence.ms"] = _ms(dur.get("beat_tokenizer.build_sequence", 0)) / n
    out["beat_tokenizer.beats"] = extra_sum("beat_tokenizer.build_sequence", "n_real") / n
    out["beat_tokenizer.save_tokens.ms"] = _ms(dur.get("beat_tokenizer.save_tokens", 0)) / n
    out["beat_tokenizer.save_tokens.mb"] = extra_sum("beat_tokenizer.save_tokens", "bytes") / 1e6 / n
    out["beat_tokenizer.load_tokens.ms"] = _ms(dur.get("beat_tokenizer.load_tokens", 0)) / n
    # share of computed positions that are padding: model positions where
    # the model runs, token positions where only the tokenizer does
    src = "transformer.forward" if calls.get("transformer.forward") else "beat_tokenizer.build_sequence"
    positions = extra_sum(src, "positions")
    out["beat_tokenizer.pad_fraction"] = (
        1.0 - extra_sum(src, "n_real") / positions if positions else 0.0)
    # cli
    records = sorted(durations("cli.record"))
    out["cli.record_ms_p50"] = p50(records)
    out["cli.record_ms_p90"] = p90(records)
    out["cli.self_ms"] = _ms(selfd.get("cli.main", 0) + selfd.get("cli.record", 0)) / n
    # transformer
    out["transformer.forward.ms"] = _ms(dur.get("transformer.forward", 0)) / n
    out["transformer.forward.calls"] = calls.get("transformer.forward", 0) / n
    for fn in ("encoder_layer", "multi_head_attention", "scaled_dot_attention"):
        out[f"transformer.{fn}.self_ms"] = _ms(selfd.get(f"transformer.{fn}", 0)) / n
    out["transformer.positional_encoding.ms"] = _ms(dur.get("transformer.positional_encoding", 0)) / n
    out["transformer.build_attention_mask.ms"] = _ms(dur.get("transformer.build_attention_mask", 0)) / n
    out["transformer.build_attention_mask.calls"] = calls.get("transformer.build_attention_mask", 0) / n
    # autodiff
    for op in REPORTED_OPS:
        out[f"autodiff.{op}.fwd_ms"] = _ms(dur.get(f"autodiff.{op}", 0)) / n
        out[f"autodiff.{op}.bwd_ms"] = _ms(dur.get(f"autodiff.{op}.bwd", 0)) / n
        out[f"autodiff.{op}.calls"] = calls.get(f"autodiff.{op}", 0) / n
        out[f"autodiff.{op}.out_mb"] = extra_sum(f"autodiff.{op}", "bytes") / 1e6 / n
    out["autodiff.layer_norm.fwd_ms"] = _ms(dur.get("autodiff.layer_norm", 0)) / n
    out["autodiff.layer_norm.bwd_ms"] = _ms(_scoped_backward(spans, "autodiff.layer_norm")) / n
    out["autodiff.backward.ms"] = _ms(dur.get("autodiff.backward", 0)) / n
    out["autodiff.backward.self_ms"] = _ms(selfd.get("autodiff.backward", 0)) / n
    steps = calls.get("training.step", 0) or calls.get("transformer.forward", 0)
    nodes = bytes_ = 0
    for s in spans:
        if s[0].startswith("autodiff.") and s[5]:
            nodes += s[5].get("node", 0)
            if s[0] not in ("autodiff.layer_norm", "autodiff.mean"):
                bytes_ += s[5].get("bytes", 0)
    out["autodiff.graph_nodes"] = nodes / steps if steps else 0.0
    out["autodiff.alloc_mb"] = bytes_ / 1e6 / steps if steps else 0.0
    # training
    step_ms = sorted(durations("training.step"))
    out["training.step_ms_p50"] = p50(step_ms)
    out["training.step_ms_p90"] = p90(step_ms)
    out["training.step.other_ms"] = (
        _ms(selfd.get("training.step", 0)) / len(step_ms) if step_ms else 0.0)
    out["training.loss.ms"] = _ms(dur.get("training.loss", 0)) / n
    out["training.adam_step.ms"] = _ms(dur.get("training.adam_step", 0)) / n
    out["training.adam_step.calls"] = calls.get("training.adam_step", 0) / n
    for key in ("save_checkpoint", "load_checkpoint"):
        out[f"training.{key}.ms"] = _ms(dur.get(f"training.{key}", 0)) / n
        out[f"training.{key}.mb"] = extra_sum(f"training.{key}", "bytes") / 1e6 / n
    out["training.load_dataset.ms"] = _ms(dur.get("training.load_dataset", 0)) / n
    out["training.forward_batches.ms"] = _ms(dur.get("training.forward_batches", 0)) / n
    return out


def _scoped_backward(spans: list, scope: str) -> int:
    """Backward time of nodes whose forward op ran inside a `scope` span."""
    memo = {}

    def within(idx):
        path, hit = [], False
        while idx >= 0:
            if idx in memo:
                hit = memo[idx]
                break
            if spans[idx][0] == scope:
                hit = True
                break
            path.append(idx)
            idx = spans[idx][3]
        for i in path:
            memo[i] = hit
        return hit

    return sum(s[2] - s[1] for s in spans
               if s[0].endswith(".bwd") and s[5] and within(s[5]["fwd"]))

