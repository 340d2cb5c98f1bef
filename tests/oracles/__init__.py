"""Per-node reference implementations of the post-processing stages.

The serving package keeps exactly one implementation per stage: the
vectorized cut sweep, array verification, array pairing, the Kahn
word-level report and batched SCA relations.  The loops below are the
original per-node / per-root / per-adder implementations those replaced,
kept verbatim in ``tests/`` for two jobs only:

* **differential oracles** — ``test_fast_cuts``, ``test_fast_pairing`` and
  ``test_wordlevel_fast`` assert the array path reproduces them exactly;
* **speedup baselines** — ``benchmarks/bench_postprocess_fast.py``,
  ``bench_pairing_fast.py`` and ``bench_wordlevel_fast.py`` gate the array
  path's speedup over them.

Nothing under ``src/`` imports this package.
"""

from .detection import detect_xor_maj
from .pairing import cone_between, extract_adder_tree
from .postprocess import (
    correct_lsb_region,
    extract_from_predictions,
    predictions_to_detection,
)
from .sca import resolve_relation, resolve_relations, verify_multiplier
from .wordlevel import analyze_adder_tree

__all__ = [
    "analyze_adder_tree",
    "cone_between",
    "correct_lsb_region",
    "detect_xor_maj",
    "extract_adder_tree",
    "extract_from_predictions",
    "predictions_to_detection",
    "resolve_relation",
    "resolve_relations",
    "verify_multiplier",
]
