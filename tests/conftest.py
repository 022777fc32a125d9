import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def pytest_collection_modifyitems(items):
    """A file or reader left open fails the test that left it."""
    for item in items:
        item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
        item.add_marker(pytest.mark.filterwarnings(
            "error::pytest.PytestUnraisableExceptionWarning"))
