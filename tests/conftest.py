import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def pytest_collection_modifyitems(items):
    """A file or reader left open fails the test that left it, except in
    test_acceptance.py, which keeps its own log and checkpoint handles."""
    for item in items:
        if item.path.name != "test_acceptance.py":
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"))
