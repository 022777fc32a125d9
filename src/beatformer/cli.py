"""Command-line pipeline: preprocess recordings into token caches, then
pretrain / train / evaluate / predict / inspect.

One flat key=value config file drives everything; flags override config
values, config values override defaults.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import functools
import glob
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import training
from . import transformer as tf
from .beat_tokenizer import build_sequence, fuse_rms, load_tokens, save_tokens, token_span_end
from .dsp import CHUNK, DETECTORS, MIN_FS, apply_filter, design_highpass
from .ecg_io import (
    LabelMap,
    filter_labels,
    load_label_map,
    load_record,
    read_lines,
    rescale_peaks,
    resample_record,
    resampled_length,
    source_samples_needed,
)
from .errors import (BeatformerError, ConfigError, EmptyInputError, InconsistencyError,
                     NoBeatsError)


# highest data.target_fs accepted: ample for ECG, which is sampled at a few
# kHz at most, and far below rates whose resampled lengths overflow an array
MAX_TARGET_FS = 1e5


@dataclass
class PipelineConfig:
    model: tf.ModelConfig = field(default_factory=tf.ModelConfig)
    optim: training.OptimizerConfig = field(default_factory=training.OptimizerConfig)
    detector: str = "two_average"
    lead: str = ""          # detection lead name; empty means first lead
    leads: list | None = None
    label_map: str | None = None
    manifest: str | None = None
    out_dir: str = "out"
    seed: int = 0
    workers: int = 1
    target_fs: float = 500.0
    highpass_hz: float = 0.5


def read_config_file(path: str) -> dict:
    """Flat key=value lines; # starts a comment; keys carry their section prefix."""
    return training.read_config_text("".join(read_lines(path)), path)


def build_config(file_values: dict | None = None,
                 overrides: dict | None = None) -> PipelineConfig:
    """Defaults, overlaid with config-file values, overlaid with flag overrides.

    Unknown or malformed keys raise ConfigError. optim.d_model follows
    model.d_model unless set explicitly.
    """
    kwargs = training.parse_config(file_values or {}, {
        "model": tf.ModelConfig, "optim": training.OptimizerConfig,
        "data": PipelineConfig})
    model_kwargs, optim_kwargs = kwargs["model"], kwargs["optim"]
    if "d_model" in model_kwargs and "d_model" not in optim_kwargs:
        optim_kwargs["d_model"] = model_kwargs["d_model"]
    try:
        model = tf.ModelConfig(**model_kwargs)
        optim = training.OptimizerConfig(**optim_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = PipelineConfig(model=model, optim=optim, **kwargs["data"])

    for name, value in (overrides or {}).items():
        if value is None:
            continue
        cfg = replace(cfg, **{name: value})
    if cfg.seed < 0:
        raise ConfigError(f"data.seed must be >= 0, got {cfg.seed}")
    if cfg.workers < 1:
        raise ConfigError(f"data.workers must be >= 1, got {cfg.workers}")
    for name in ("label_map", "manifest", "out_dir"):
        if "\0" in (getattr(cfg, name) or ""):
            raise ConfigError(f"data.{name} holds a NUL byte: {getattr(cfg, name)!r}")
    for name in ("target_fs", "highpass_hz"):
        if not 0 < getattr(cfg, name) < np.inf:
            raise ConfigError(
                f"data.{name} must be positive and finite, got {getattr(cfg, name)}")
    # the detectors' floor: far below it a token holds a handful of samples
    if cfg.target_fs < MIN_FS:
        raise ConfigError(
            f"data.target_fs must be at least {MIN_FS:g} Hz, got {cfg.target_fs:g}")
    if cfg.target_fs > MAX_TARGET_FS:
        raise ConfigError(
            f"data.target_fs must be at most {MAX_TARGET_FS:g} Hz, got {cfg.target_fs:g}")
    if cfg.detector not in DETECTORS:
        raise ConfigError(
            f"unknown detector {cfg.detector!r}; choose from {sorted(DETECTORS)}")
    return cfg


def _config_from_args(args) -> PipelineConfig:
    file_values = read_config_file(args.config) if args.config else {}
    overrides = {}
    for name in ("seed", "out_dir", "detector", "leads", "label_map",
                 "manifest", "workers"):
        if hasattr(args, name):
            overrides[name] = getattr(args, name)
    return build_config(file_values, overrides)


def _preprocess_one(record_path: str, cfg: PipelineConfig, out_dir: str,
                    lmap: LabelMap | None) -> tuple:
    """Tokenize one record into out_dir: (cache_name, label indices|None);
    a skipped record raises, with its skip reason as the text. lmap is the
    run's parsed label map; without one every record is kept."""
    rec = load_record(record_path)
    if cfg.leads:
        rec = rec.select_leads(cfg.leads)

    label_indices = None
    if lmap is not None:
        label_indices = filter_labels(rec, lmap)
        if label_indices is None:
            raise EmptyInputError("no scored labels")

    hp = design_highpass(cfg.highpass_hz, rec.fs)
    det_idx = 0
    if cfg.lead:
        if cfg.lead not in rec.lead_names:
            raise InconsistencyError(f"no lead named {cfg.lead!r}")
        det_idx = rec.lead_names.index(cfg.lead)
    # the detector reads the whole record (its threshold follows the mean
    # of the whole squared signal); everything after it only reads up to
    # the last tokenized beat
    peaks = DETECTORS[cfg.detector](apply_filter(hp, rec.leads[det_idx]), rec.fs)

    out_len = resampled_length(rec, cfg.target_fs)
    indices = rescale_peaks(peaks.indices, peaks.fs, cfg.target_fs)
    indices = indices[indices < out_len]
    if indices.size == 0:
        raise NoBeatsError("no beats detected")
    end = token_span_end(indices, out_len)
    # apply_filter works whole CHUNKs at a time, so a prefix of whole
    # chunks is filtered bit for bit as within the whole record
    m = source_samples_needed(rec.fs, cfg.target_fs, end)
    m = min(-(-m // CHUNK) * CHUNK, rec.num_samples)
    rec = replace(rec, leads=apply_filter(hp, rec.leads[:, :m]))
    rec = resample_record(rec, cfg.target_fs)
    # a lead counts as active when it is nonzero within the tokenized span
    fused = fuse_rms(replace(rec, leads=rec.leads[:, :end]))
    seq = build_sequence(fused, indices)

    cache_name = f"{rec.source_id}.tokens"
    save_tokens(os.path.join(out_dir, cache_name), seq)
    return cache_name, label_indices


def _preprocess_or_error(record_path: str, cfg: PipelineConfig, out_dir: str,
                         lmap: LabelMap | None) -> tuple | str:
    """_preprocess_one's result, or the skip reason: a record that is skipped
    or cannot be read is a skip line, not the end of the run."""
    try:
        return _preprocess_one(record_path, cfg, out_dir, lmap)
    except (BeatformerError, OSError) as exc:
        return str(exc)


def cmd_preprocess(args) -> int:
    cfg = _config_from_args(args)
    out_dir = cfg.out_dir
    records = sorted(
        glob.glob(os.path.join(args.input_dir, "*.csv"))
        + glob.glob(os.path.join(args.input_dir, "*.hea")))
    if not records:
        raise EmptyInputError(f"no .csv or .hea records in {args.input_dir}")
    os.makedirs(out_dir, exist_ok=True)

    lmap = load_label_map(cfg.label_map) if cfg.label_map else None

    run = functools.partial(_preprocess_or_error, cfg=cfg, out_dir=out_dir, lmap=lmap)
    if cfg.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(cfg.workers) as pool:
            results = list(pool.map(run, records))
    else:
        results = list(map(run, records))

    # records that share a cache name wrote one file in turn, in an order
    # the workers decide: none of them keeps it
    producers: dict[str, list[str]] = {}
    for path, res in zip(records, results):
        if not isinstance(res, str):
            producers.setdefault(res[0], []).append(path)
    for cache_name, paths in producers.items():
        if len(paths) > 1:
            os.remove(os.path.join(out_dir, cache_name))

    manifest_lines = []
    skip_lines = []
    for path, res in zip(records, results):
        if isinstance(res, str):
            skip_lines.append(f"{path}\t{res}")
            continue
        cache_name, indices = res
        others = [other for other in producers[cache_name] if other != path]
        if others:
            skip_lines.append(
                f"{path}\tcache {cache_name} is also made by {', '.join(others)}")
        else:
            label_field = ",".join(str(i) for i in sorted(indices)) if indices else ""
            manifest_lines.append(f"{cache_name}\t{label_field}")

    manifest_path = os.path.join(out_dir, "manifest.tsv")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(manifest_lines) + ("\n" if manifest_lines else ""))
    skip_path = os.path.join(out_dir, "skip_report.txt")
    with open(skip_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(skip_lines) + ("\n" if skip_lines else ""))

    print(f"preprocessed {len(manifest_lines)} of {len(records)} records "
          f"-> {manifest_path} ({len(skip_lines)} skipped, see {skip_path})")
    return 0 if manifest_lines else 1


def _require_manifest(cfg: PipelineConfig) -> str:
    if not cfg.manifest:
        raise ConfigError("no dataset manifest given (data.manifest or --manifest)")
    return cfg.manifest


def _label_map_for(path: str, d_class: int) -> LabelMap:
    lmap = load_label_map(path)
    if lmap.num_classes != d_class:
        raise ConfigError(
            f"label map has {lmap.num_classes} classes but model.d_class is {d_class}")
    return lmap


def cmd_train(args) -> int:
    """`pretrain` and `train`: the subcommand picks the training mode."""
    cfg = _config_from_args(args)
    mode = training.PRETRAIN if args.command == "pretrain" else training.CLASSIFY
    if mode == training.CLASSIFY and cfg.label_map:
        _label_map_for(cfg.label_map, cfg.model.d_class)
    entries = training.load_manifest(_require_manifest(cfg))
    if mode == training.PRETRAIN:  # next-beat pre-training never reads labels
        entries = [(cache, None) for cache, _ in entries]
    dataset = training.load_dataset(entries, cfg.model,
                                    require_labels=(mode == training.CLASSIFY))
    summary = training.train(
        dataset, cfg.model, cfg.optim, mode,
        cfg.seed, cfg.out_dir, resume=args.resume,
        init_checkpoint=args.init_checkpoint, freeze_trunk=args.freeze_trunk,
        max_steps=args.max_steps)
    print(json.dumps(summary))
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config_from_args(args)
    mcfg, ocfg, params, _, _ = training.load_training_checkpoint(args.checkpoint, stream=True)
    with params:
        entries = training.load_manifest(_require_manifest(cfg))
        dataset = training.load_dataset(entries, mcfg, require_labels=True)
        metrics = training.evaluate(params, mcfg, dataset, threshold=ocfg.threshold)
    print(json.dumps(metrics, indent=2))
    return 0


def cmd_predict(args) -> int:
    cfg = _config_from_args(args)
    mcfg, ocfg, params, _, _ = training.load_training_checkpoint(args.checkpoint, stream=True)
    with params:
        entries = training.load_manifest(_require_manifest(cfg))
        dataset = training.load_dataset(entries, mcfg)
        names = None
        if cfg.label_map:
            names = _label_map_for(cfg.label_map, mcfg.d_class).reverse()
        logits = training.forward_batches(params, mcfg, [s for s, _ in dataset])
    preds = training.threshold_predict(logits, ocfg.threshold)
    lines = []
    for (cache, _), row in zip(entries, preds):
        positive = np.flatnonzero(row)
        codes = [names[int(c)] if names else str(int(c)) for c in positive]
        lines.append(f"{os.path.basename(cache)}\t{','.join(codes)}")
    text = "\n".join(lines)
    # the file first: a write that fails leaves stdout empty
    if args.predictions_out:
        with open(args.predictions_out, "w", encoding="utf-8") as fh:
            fh.write(text + ("\n" if text else ""))
    print(text)
    return 0


def cmd_inspect(args) -> int:
    seq = load_tokens(args.cache)
    anchor = seq.d_model // 3
    print(f"{args.cache}: {seq.n_real} real beats, d_model={seq.d_model}")
    for k in range(seq.n_real):
        tok = seq.tokens[k]
        nz = np.flatnonzero(tok)
        span = f"[{nz[0]}, {nz[-1]}]" if nz.size else "(all zero)"
        print(f"  beat {k:2d}: support {span}  min {tok.min():+.4f}  "
              f"max {tok.max():+.4f}  r {tok[anchor]:+.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beatformer",
        description="ECG heartbeats-as-words pipeline: tokenize recordings and "
                    "train a masked transformer encoder on them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, manifest=False):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, default=None, help="RNG seed")
        p.add_argument("--out", dest="out_dir", default=None, help="output directory")
        if manifest:
            p.add_argument("--manifest", default=None, help="dataset manifest path")

    p = sub.add_parser("preprocess", help="tokenize a directory of recordings")
    p.add_argument("input_dir")
    common(p)
    p.add_argument("--detector", choices=sorted(DETECTORS), default=None)
    p.add_argument("--leads", type=training.parse_list, default=None,
                   help="comma-separated lead names to keep")
    p.add_argument("--label-map", dest="label_map", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("pretrain", help="generative next-beat pre-training")
    common(p, manifest=True)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(func=cmd_train, init_checkpoint=None, freeze_trunk=False)

    p = sub.add_parser("train", help="supervised multi-label training")
    common(p, manifest=True)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--init-checkpoint", dest="init_checkpoint", default=None,
                   help="pre-trained checkpoint whose trunk seeds this run")
    p.add_argument("--freeze-trunk", dest="freeze_trunk", action="store_true",
                   help="train only the output head (linear probe)")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--label-map", dest="label_map", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metrics on a labeled manifest")
    common(p, manifest=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="emit predicted class codes per record")
    common(p, manifest=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--label-map", dest="label_map", default=None)
    p.add_argument("--predictions-out", default=None,
                   help="also write predictions to this file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("inspect", help="print token-cache statistics")
    p.add_argument("cache")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BeatformerError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message: name its class instead
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
