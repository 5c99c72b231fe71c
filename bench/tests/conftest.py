"""Make ``edgebench``, ``run``/``compare`` and the program importable."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
for entry in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
