"""One correctness-gate reference run in a fresh interpreter.

Usage: ``python3 perfbench/gate.py JOB OUT``.  ``JOB`` is a pickle of
``(module, function name, args)``; the result of ``function(*args)`` is
pickled to ``OUT``.  Started and waited for by ``common.GateWorkers``.
"""

from __future__ import annotations

import importlib
import pickle
import sys

import common


def main(job_path: str, out_path: str) -> int:
    common.use_checkout_sources()  # before unpickling: args hold repro objects
    with open(job_path, "rb") as stream:
        module, name, args = pickle.load(stream)
    result = getattr(importlib.import_module(module), name)(*args)
    with open(out_path, "wb") as stream:
        pickle.dump(result, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
