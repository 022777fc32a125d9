"""The benchmark's span tracer (perfbench/tracer.py) still finds every
function it wraps, so a rename or removal fails here rather than in a
traced benchmark run. The tracer file is imported as it is, not changed."""
import importlib.util
from pathlib import Path

import numpy as np

from beatformer import autodiff, cli, dsp, training, transformer
from beatformer.autodiff import Tensor
from beatformer.beat_tokenizer import BeatSequence, save_tokens

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = (autodiff, cli, dsp, training, transformer)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    names = {m: dict(vars(m)) for m in MODULES}
    return names, dict(dsp.DETECTORS), Tensor.backward


def test_install_trace_uninstall():
    before = snapshot()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        cfg = transformer.ModelConfig(d_model=8, n_encoders=1, n_heads=2, dff=16,
                                      max_pos=4, d_class=2, dropout_rate=0.0,
                                      head=transformer.CLASSIFIER)
        params = transformer.init_params(cfg, seed=0, dtype=np.float64)
        tokens = autodiff.seeded_rng(1).normal(size=(2, 4, 8))
        logits = transformer.forward(tokens, np.array([2, 4]), cfg, params)
        training.bce_loss(logits, np.array([[1.0, 0.0], [0.0, 1.0]])).backward()
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"transformer.forward", "transformer.encoder_layer", "autodiff.layer_norm",
            "autodiff.layer_norm.bwd", "autodiff.backward"} <= names

    modules, detectors, backward = snapshot()
    for m in MODULES:
        assert all(vars(m)[k] is v for k, v in before[0][m].items()), m.__name__
    assert detectors == before[1]
    assert backward is before[2]


def test_traced_predict_sees_the_inference_path(tmp_path, capsys):
    cfg = transformer.ModelConfig(d_model=8, n_encoders=1, n_heads=2, dff=16,
                                  d_class=3, dropout_rate=0.0,
                                  head=transformer.CLASSIFIER)
    params = transformer.init_params(cfg, seed=0)
    ckpt = str(tmp_path / "m.ckpt")
    training.save_training_checkpoint(ckpt, params, training.AdamState.for_params(params),
                                      cfg, training.OptimizerConfig(d_model=8), 0)
    rng = autodiff.seeded_rng(2)
    for i, n in enumerate((5, 1, 3)):
        save_tokens(str(tmp_path / f"s{i}.tokens"),
                    BeatSequence(rng.normal(size=(n, 8)).astype(np.float32)))
    (tmp_path / "manifest.tsv").write_text("".join(f"s{i}.tokens\t0\n" for i in range(3)))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        rc = cli.main(["predict", "--manifest", str(tmp_path / "manifest.tsv"),
                       "--checkpoint", ckpt])
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        autodiff.sum_(autodiff.matmul(a, rng.normal(size=(4, 2)))).backward()
    finally:
        tracer.uninstall()
    assert rc == 0 and len(capsys.readouterr().out.splitlines()) == 3
    names = {span[0] for span in tracer.spans}
    assert {"training.load_checkpoint", "training.forward_batches", "training.load_dataset",
            "autodiff.matmul", "autodiff.matmul.bwd"} <= names


def test_traced_training_sees_every_step(tmp_path, capsys):
    rng = autodiff.seeded_rng(3)
    for i in range(8):
        save_tokens(str(tmp_path / f"s{i}.tokens"),
                    BeatSequence(rng.normal(size=(3 + i % 4, 8)).astype(np.float32)))
    (tmp_path / "manifest.tsv").write_text("".join(f"s{i}.tokens\t{i % 3}\n" for i in range(8)))
    (tmp_path / "model.cfg").write_text(
        "model.d_model=8\nmodel.n_encoders=1\nmodel.n_heads=2\nmodel.dff=16\n"
        "model.d_class=3\noptim.warmup_steps=8\noptim.batch_size=2\noptim.epochs=1\n")
    common = ["--config", str(tmp_path / "model.cfg"), "--manifest",
              str(tmp_path / "manifest.tsv"), "--seed", "0", "--max-steps", "2"]
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        rcs = [cli.main(["pretrain", "--out", str(tmp_path / "pre")] + common),
               cli.main(["train", "--out", str(tmp_path / "clf"), "--init-checkpoint",
                         str(tmp_path / "pre" / "model.ckpt")] + common)]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rcs == [0, 0]
    spans = tracer.spans
    names = [span[0] for span in spans]
    steps = [span for span in spans if span[0] == "training.step"]
    assert len(steps) == 4 and all(span[2] >= span[1] > 0 for span in steps)
    adam = [span for span in spans if span[0] == "training.adam_step"]
    assert len(adam) == 4 and all(spans[span[3]][0] == "training.step" for span in adam)
    assert names.count("training.load_checkpoint") == 1
    assert names.count("training.save_checkpoint") == 2


def under(spans, idx, name) -> bool:
    """Whether span idx lies (at any depth) inside a span called `name`."""
    idx = spans[idx][3]
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False


def test_packed_encoder_spans_nest_in_forward(tmp_path, capsys):
    rng = autodiff.seeded_rng(4)
    for i, n in enumerate((5, 1, 3, 2)):
        save_tokens(str(tmp_path / f"s{i}.tokens"),
                    BeatSequence(rng.normal(size=(n, 8)).astype(np.float32)))
    (tmp_path / "manifest.tsv").write_text("".join(f"s{i}.tokens\t{i % 3}\n" for i in range(4)))
    (tmp_path / "model.cfg").write_text(
        "model.d_model=8\nmodel.n_encoders=2\nmodel.n_heads=2\nmodel.dff=16\n"
        "model.d_class=3\noptim.warmup_steps=8\noptim.batch_size=4\noptim.epochs=1\n")
    manifest = ["--manifest", str(tmp_path / "manifest.tsv")]
    traced = {}
    for command, args in (("train", ["--config", str(tmp_path / "model.cfg"), "--seed", "0",
                                     "--out", str(tmp_path / "clf")]),
                          ("predict", ["--checkpoint", str(tmp_path / "clf" / "model.ckpt")])):
        tracer = load_tracer().Tracer()
        tracer.install()
        try:
            assert cli.main([command] + manifest + args) == 0
        finally:
            tracer.uninstall()
        traced[command] = tracer.spans
    capsys.readouterr()
    for command, spans in traced.items():
        names = [span[0] for span in spans]
        for fn in ("encoder_layer", "multi_head_attention", "scaled_dot_attention"):
            idx = [i for i, name in enumerate(names) if name == f"transformer.{fn}"]
            assert len(idx) == 2, (command, fn)
            assert all(under(spans, i, "transformer.forward") for i in idx), (command, fn)
        assert all(under(spans, i, "transformer.multi_head_attention")
                   for i, name in enumerate(names) if name == "transformer.scaled_dot_attention")
    assert any(name.endswith(".bwd") for name, *_ in traced["train"])
    assert not any(name.endswith(".bwd") for name, *_ in traced["predict"])
