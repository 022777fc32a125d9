"""Reload checkpoints and compare their parameter counts.

    python3 perfbench/checks.py CKPT COUNT [CKPT COUNT ...]

prints a JSON list with one true/false per checkpoint. The train workload
runs it as a child process so that the reload's memory does not count
toward the benchmark process's peak RSS.
"""
import json
import os
import struct
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from beatformer import training  # noqa: E402
from beatformer.errors import BeatformerError  # noqa: E402


def reloads(path: str, count: int) -> bool:
    try:
        _, _, arrays, _, _ = training.load_training_checkpoint(path)
    except (OSError, ValueError, struct.error, BeatformerError):
        return False
    return sum(int(a.size) for a in arrays.values()) == count


def main(argv) -> int:
    pairs = zip(argv[0::2], argv[1::2])
    print(json.dumps([reloads(path, int(count)) for path, count in pairs]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
