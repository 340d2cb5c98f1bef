"""Benchmark collection setup: ensure the benchmarks dir is importable.

``tests/`` goes on the path too: the speedup gates time the per-node
reference implementations kept in ``tests/oracles/``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.append(str(HERE.parent / "tests"))
