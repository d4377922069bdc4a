"""The repo benchmark: five workloads, speed-normalised end-to-end
metrics, and a traced per-layer run.  See ``perf/README.md``.

Run it from the repository root: ``python3 -m perf run``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The program under test is imported from the checkout, never from an
# installed copy, so a run always measures the tree it sits in.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
