"""The benchmark's input generator (perfbench/corpus.py) and the program
agree on the token-cache format, so a format change fails here rather than
as failed operations in a benchmark run. The generator file is imported as
it is, not changed."""
import importlib.util
import json
import os
from pathlib import Path

from beatformer import training
from beatformer import transformer as tf

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"


def load_corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_train_workload_caches_load(tmp_path):
    load_corpus().generate("train", 7, str(tmp_path))
    truth = json.loads((tmp_path / "truth.json").read_text())
    config = tf.ModelConfig(head=tf.CLASSIFIER)
    entries = training.load_manifest(str(tmp_path / "tokens" / "manifest.tsv"))
    dataset = training.load_dataset(entries, config, require_labels=True)
    assert len(dataset) == len(truth["sequences"]) > 0
    for (seq, labels), entry in zip(dataset, truth["sequences"]):
        cache = tmp_path / "tokens" / entry["cache"]
        assert seq.n_real == entry["n_real"], entry["cache"]
        assert seq.d_model == config.d_model
        assert os.path.getsize(cache) == 16 + 4 * entry["n_real"] * 1000
        assert sorted(labels.nonzero()[0].tolist()) == entry["classes"]
