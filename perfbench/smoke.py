"""Quick self-check of the benchmark (about 30 s on 2 CPUs).

Run from the root of a checkout::

    python3 perfbench/smoke.py

Every workload runs once untraced and once traced with ``--smoke`` (tiny
widths, few requests).  Each run must exit 0, pass its correctness gate
and print, as its last line, exactly the metrics BENCHMARK.json names for
that mode, each with the unit BENCHMARK.json gives it.  Last, the
benchmark must refuse to run, without printing a result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import common

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def _check_result(stdout: str, expected_units: dict) -> list[str]:
    problems = []
    result = json.loads(stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"gate failed: {result.get('failed')} failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected_units):
        problems.append(f"metric names differ: "
                        f"{sorted(set(metrics) ^ set(expected_units))}")
    for name, unit in expected_units.items():
        entry = metrics.get(name, {})
        if set(entry) != {"value", "unit"} or entry.get("unit") != unit:
            problems.append(f"{name}: {entry!r} (want unit {unit!r})")
    return problems


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if units[0] != common.END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end != END_TO_END_UNITS")
    if units[1] != common.PER_LAYER_UNITS:
        problems.append("BENCHMARK.json per_layer != PER_LAYER_UNITS")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = _run(common.ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n"
                                f"{done.stderr[-2000:]}")
                continue
            problems += [f"{label}: {p}"
                         for p in _check_result(done.stdout, units[trace])]
            print(f"ok  {label}", flush=True)

    # Without the program's sources the benchmark must fail, not report.
    bare = common.TMP_ROOT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy2(common.ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(common.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, spec["workloads"][0]["name"], 0)
        if done.returncode == 0 or done.stdout.strip():
            problems.append("ran without program sources")
        else:
            print("ok  refuses to run without program sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            common.TMP_ROOT.rmdir()
        except OSError:
            pass

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
