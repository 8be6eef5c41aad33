import sys
from pathlib import Path

# test the in-repo sources even when no (or an older) install is present
SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
