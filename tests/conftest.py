import sys
from pathlib import Path

import pytest

# test the in-repo sources even when no (or an older) install is present
SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from srbetti.betti import clear_homology_cache  # noqa: E402


@pytest.fixture(autouse=True)
def cold_homology_cache():
    """Start every test with an empty homology cache, so no test's time or
    cache counts depend on which tests ran before it."""
    clear_homology_cache()
