"""The repository's benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload reason-large --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the traced variant and prints the per-layer metrics.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
details object (environment, corpus structural hashes, sample counts and,
when traced, the per-netlist span breakdown).  ``--smoke`` shrinks every
workload to tiny inputs for a quick check (see ``smoke.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback

import common

WORKLOADS = ("reason-large", "serve-mixed", "predict-stream")


def _workload_module(name: str):
    if name == "reason-large":
        import reason_large as module
    elif name == "serve-mixed":
        import serve_mixed as module
    else:
        import predict_stream as module
    return module


TIME_UNITS = {"s", "ms"}
RATE_UNITS = {"1/s", "kAND/s"}


def _metrics(outcome: dict, trace: bool, factor: float) -> tuple[dict, dict]:
    """(metrics scaled to the reference speed, the same unscaled)."""
    if trace:
        units = common.PER_LAYER_UNITS
        # A layer the workload never enters reports 0.
        values = {name: outcome["per_layer"].get(name, 0.0) for name in units}
    else:
        units = common.END_TO_END_UNITS
        values = outcome["end_to_end"]
        missing = set(units) - set(values)
        if missing:
            raise RuntimeError(f"workload emitted no {sorted(missing)}")
    scaled, wall = {}, {}
    for name, unit in units.items():
        value = float(values[name])
        wall[name] = value
        if unit in TIME_UNITS:
            value *= factor
        elif unit in RATE_UNITS:
            value /= factor
        scaled[name] = {"value": value, "unit": unit}
    return scaled, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and few requests (quick check)")
    parser.add_argument("--out", default=None,
                        help="also write the details object to this file")
    args = parser.parse_args(argv)

    common.use_checkout_sources()
    # A terminated run still stops its daemons and removes its scratch
    # files: SIGTERM unwinds through the same ``finally`` blocks as errors.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = common.TMP_ROOT / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        module = _workload_module(args.workload)
        outcome = module.run(args.seed, args.seconds, bool(args.trace),
                             args.smoke, tmp)
        factor = common.scale_factor(outcome["calibration_s"])
        metrics, wall_clock = _metrics(outcome, bool(args.trace), factor)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            common.TMP_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass

    details = {"workload": args.workload, "trace": args.trace,
               "seconds": args.seconds, "smoke": args.smoke,
               "environment": common.environment(args.seed),
               "calibration": {"reference_s": common.CAL_REFERENCE_S,
                               "samples_s": outcome["calibration_s"],
                               "factor": factor},
               "wall_clock_metrics": wall_clock,
               **outcome["details"]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump({"details": details, "metrics": metrics}, stream,
                      indent=1, sort_keys=True)
            stream.write("\n")
    print(json.dumps(details, sort_keys=True))
    failed = int(outcome["failed"])
    result = {"correct": failed == 0, "attempted": int(outcome["attempted"]),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
