"""Make the program (``src/``) and the benchmark importable from a checkout.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
