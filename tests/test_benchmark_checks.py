"""The benchmark's reload check (perfbench/checks.py) still runs against the
program, so a rename or removal of what it calls fails here rather than in
a benchmark run. The file is imported as it is, not changed."""
import importlib.util
from pathlib import Path

from beatformer import training, transformer

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reloads_at_the_parameter_count(tmp_path):
    checks = load_checks()
    cfg = transformer.ModelConfig(d_model=8, n_encoders=1, n_heads=2, dff=16,
                                  d_class=3, head=transformer.CLASSIFIER)
    params = transformer.init_params(cfg, seed=0)
    ckpt = str(tmp_path / "m.ckpt")
    training.save_training_checkpoint(ckpt, params, training.AdamState.for_params(params),
                                      cfg, training.OptimizerConfig(d_model=8), 1)
    count = transformer.count_parameters(cfg)
    assert checks.reloads(ckpt, count) is True
    assert checks.reloads(ckpt, count + 1) is False
    (tmp_path / "cut.ckpt").write_bytes(Path(ckpt).read_bytes()[:-4])
    assert checks.reloads(str(tmp_path / "cut.ckpt"), count) is False
