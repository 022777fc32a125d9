"""The benchmark's span tracer (perfbench/tracer.py) still finds every
function it wraps, so a rename or removal fails here rather than in a
traced benchmark run. The tracer file is imported as it is, not changed."""
import importlib.util
from pathlib import Path

import numpy as np

from beatformer import autodiff, cli, dsp, training, transformer
from beatformer.autodiff import Tensor

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
