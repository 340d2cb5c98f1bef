"""Shared pieces of the benchmark: paths, statistics, tracing, environment.

The benchmark runs from the root of a source checkout and imports the
program from ``src/`` of that checkout (never from an installed copy), so
the code it measures is the code next to it.

Tracing follows one rule: spans are recorded by the benchmark's own code,
around calls into the program's public functions.  The traced run installs
timing wrappers (:func:`instrumented`) and a timing kernel backend through
the public ``repro.kernels.register`` / ``set_backend`` API; the untraced
run installs nothing.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import os
import pickle
import platform
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch space for sockets, logs, model files; removed when a run ends.
TMP_ROOT = ROOT / ".perfbench-tmp"
GATE_SCRIPT = Path(__file__).resolve().parent / "gate.py"

# Every metric the benchmark can print, with its unit.  BENCHMARK.json
# lists the same names and units (smoke.py checks that they agree).
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_kands_per_s": "kAND/s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "correct_share": "share",
    "fa_recall": "share",
}

PER_LAYER_UNITS = {
    "aig.aiger.parse_s": "s",
    "aig.graph.shash_s": "s",
    "learn.data.encode_s": "s",
    "learn.fast.forward_s": "s",
    "core.postprocess.extract_s": "s",
    "aig.fast_cuts.sweep_s": "s",
    "core.postprocess.lsb_s": "s",
    "core.postprocess.verify_self_s": "s",
    "reasoning.fast_pairing.pair_s": "s",
    "reasoning.wordlevel.report_s": "s",
    "kernels.merge_level_s": "s",
    "kernels.merge_level_calls": "count",
    "kernels.cone_sweep_s": "s",
    "kernels.cone_sweep_calls": "count",
    "kernels.fa_join_s": "s",
    "kernels.fa_join_calls": "count",
    "kernels.kahn_propagate_s": "s",
    "kernels.kahn_propagate_calls": "count",
    "learn.data.plan_s": "s",
    "learn.data.windows": "count",
    "learn.data.est_peak_window_mb": "MB",
    "serve.client.rtt_ms": "ms",
    "serve.client.outside_daemon_ms": "ms",
    "serve.scheduler.queue_wait_p50_ms": "ms",
    "serve.scheduler.queue_wait_p95_ms": "ms",
    "serve.scheduler.batch_size_mean": "count",
    "serve.service.service_ms": "ms",
    "serve.cache.result_hit_share": "share",
    "serve.service.forward_passes": "count",
    "serve.client.retries": "count",
    "setup.train_s": "s",
    "setup.corpus_s": "s",
    "setup.daemon_boot_s": "s",
    "trace.unattributed_s": "s",
    "trace_overhead_share": "share",
}

# Span names whose self time is reported as ``<name>_s`` (and, for the
# kernels, the number of calls as ``<name>_calls``).
SPAN_METRICS = (
    "aig.aiger.parse", "learn.data.encode", "learn.fast.forward",
    "aig.fast_cuts.sweep", "core.postprocess.lsb",
    "reasoning.fast_pairing.pair", "learn.data.plan",
)
KERNEL_SPANS = ("kernels.merge_level", "kernels.cone_sweep",
                "kernels.fa_join", "kernels.kahn_propagate")
# The root span of one traced netlist; its self time is what no layer
# span covers.
ROOT_SPAN = "netlist"
EXTRACT_SPAN = "core.postprocess.extract"

TIMED_BACKEND = "perfbench-timed"


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``; exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# statistics
def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with >= q% at or below."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# machine-speed calibration
#
# On a shared host the CPU's speed drifts by tens of percent within
# minutes, far more than the changes the benchmark must detect.  So each
# run also times a fixed NumPy kernel between the units of its measured
# work (netlists, pipeline stages), and every time it reports is scaled to
# a reference speed:
#
#     reported = wall * CAL_REFERENCE_S / median(kernel times of the run)
#
# (rates are divided by the same factor).  The kernel is the benchmark's
# own code, so a change to the program moves the reported value in full,
# while a drift of the host's speed moves the kernel and the work alike
# and largely cancels.  CAL_REFERENCE_S is about the kernel's time on the
# 2-vCPU host the baseline was recorded on, so reported times read close
# to that host's wall clock.  The unscaled values are printed in the
# details line.  (``serve-mixed`` takes no samples and reports wall-clock
# times; see its module doc.)
CAL_REFERENCE_S = 0.0055


class Calibration:
    """The calibration kernel (sort, scan, gather) and its samples."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(20231017)
        self._data = rng.random(300_000)
        self._index = rng.integers(0, len(self._data), len(self._data))
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the kernel (median of nine runs) and keep the sample."""
        import numpy as np

        times = []
        for _ in range(9):
            started = time.perf_counter()
            np.sort(self._data)
            np.cumsum(self._data)
            self._data[self._index].sum()
            times.append(time.perf_counter() - started)
        self.samples.append(median(times))


def scale_factor(samples: list[float]) -> float:
    """Wall seconds -> reference seconds for a run (1 when it took none)."""
    return CAL_REFERENCE_S / median(samples) if samples else 1.0


def whole_units(seconds: float, nominal_s: float) -> int:
    """How many whole units of work (passes, rounds) a run measures.

    A run does a fixed amount of work, ``--seconds`` divided by the unit's
    nominal time at the reference speed, rather than stopping on the clock:
    every run of one commit then measures the same mix of inputs.
    """
    return max(1, round(seconds / nominal_s))


class GateWorkers:
    """Correctness-gate reference runs, each in a fresh interpreter.

    :meth:`start` launches one ``perfbench/gate.py`` process per job
    (``function(*args)``, passed by module and name); :meth:`results`
    waits for them in order.  Leaving the ``with`` block kills any still
    running and waits for every one, on every path out, so a run never
    leaves a process behind.  (A ``spawn`` process pool would also start
    multiprocessing's resource tracker, which outlives the run.)
    """

    def __init__(self, tmp: Path) -> None:
        self._tmp = tmp
        self._jobs: list[tuple[subprocess.Popen, Path]] = []

    def __enter__(self) -> "GateWorkers":
        return self

    def __exit__(self, *exc) -> None:
        for process, _ in self._jobs:
            if process.poll() is None:
                process.kill()
        for process, _ in self._jobs:
            process.wait()

    def start(self, function, jobs) -> None:
        for args in jobs:
            index = len(self._jobs)
            job, out = self._tmp / f"gate{index}.job", self._tmp / f"gate{index}.out"
            with open(job, "wb") as stream:
                pickle.dump((function.__module__, function.__name__,
                             tuple(args)), stream)
            process = subprocess.Popen(
                [sys.executable, str(GATE_SCRIPT), str(job), str(out)],
                stdin=subprocess.DEVNULL, stdout=sys.stderr.fileno())
            self._jobs.append((process, out))

    def results(self) -> list:
        out = []
        for process, path in self._jobs:
            if process.wait() != 0:
                raise RuntimeError(f"gate worker exited with {process.returncode}")
            with open(path, "rb") as stream:
                out.append(pickle.load(stream))
        return out


def balanced_halves(items: list, weight) -> list[list]:
    """Split ``items`` in two lists of about equal total ``weight``."""
    halves: list[list] = [[], []]
    totals = [0, 0]
    for item in sorted(items, key=weight, reverse=True):
        lighter = totals.index(min(totals))
        halves[lighter].append(item)
        totals[lighter] += weight(item)
    return [half for half in halves if half]


def repeat_setup(reps: int, build):
    """Run ``build()`` ``reps`` times; return (last result, per-rep timings).

    ``build`` returns ``(product, {part: seconds})``.  Set-up is repeated so
    that its median is steady.
    """
    product, reps_parts = None, []
    for _ in range(reps):
        product, parts = build()
        reps_parts.append(parts)
    return product, reps_parts


def setup_metrics(reps_parts: list[dict]) -> tuple[float, dict]:
    """Median total set-up time and the median of each part."""
    total = median([sum(parts.values()) for parts in reps_parts])
    names = sorted({name for parts in reps_parts for name in parts})
    return total, {name: median([parts.get(name, 0.0) for parts in reps_parts])
                   for name in names}


# ----------------------------------------------------------------------
# tracing
class Tracer:
    """In-memory span recorder for one thread.

    A span is ``[name, start_ns, end_ns, parent_index]``.  Spans nest by
    the order they open and close; the traced code is single-threaded
    (``Gamora.reason`` and the streamed forward run in-process), which
    :meth:`span` checks.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._thread = None

    @contextlib.contextmanager
    def span(self, name: str):
        ident = threading.get_ident()
        if self._thread is None:
            self._thread = ident
        elif ident != self._thread:
            raise RuntimeError(f"span {name!r} opened on a second thread")
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def breakdown(self, root: int) -> dict:
        """Self seconds and calls per span name under span ``root``.

        A layer span's self time is its duration minus its child layer
        spans' durations, so the layer self times under a root sum to the
        root's wall time; the root's own self time is reported as
        ``unattributed``.  Kernel spans are a second axis: a kernel's time
        is reported on its own and stays in the self time of the layer that
        called it (the sweep's self time includes the merge kernel it
        drives).  Inclusive seconds are kept too.
        """
        name, start, end, _ = self.spans[root]
        inside = {root}
        members = []
        for index in range(root + 1, len(self.spans)):
            if self.spans[index][3] in inside:
                inside.add(index)
                members.append(index)
        child_ns: dict[int, int] = {}
        for index in members:
            s_name, s_start, s_end, parent = self.spans[index]
            if s_name not in KERNEL_SPANS:
                child_ns[parent] = child_ns.get(parent, 0) + s_end - s_start
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for index in members:
            s_name, s_start, s_end, _ = self.spans[index]
            self_s[s_name] = self_s.get(s_name, 0.0) + (
                s_end - s_start - child_ns.get(index, 0)) / 1e9
            incl_s[s_name] = incl_s.get(s_name, 0.0) + (s_end - s_start) / 1e9
            calls[s_name] = calls.get(s_name, 0) + 1
        wall = (end - start) / 1e9
        unattributed = (end - start - child_ns.get(root, 0)) / 1e9
        layer_sum = sum(v for k, v in self_s.items() if k not in KERNEL_SPANS)
        if abs(layer_sum + unattributed - wall) > 1e-6:
            raise RuntimeError(f"span tree of {name!r} does not add up")
        return {"wall_s": wall, "unattributed_s": unattributed,
                "self_s": self_s, "inclusive_s": incl_s, "calls": calls}


def no_span(name: str):
    """The untraced stand-in for :meth:`Tracer.span`."""
    return contextlib.nullcontext()


@contextlib.contextmanager
def timed_kernels(tracer: Tracer):
    """Serve every kernel through a timing wrapper around the active backend.

    The wrapper backend is registered through the public registry API and
    selected for the duration of the block; the previous selection is
    restored afterwards.
    """
    from repro import kernels

    requested = kernels.requested_backend()
    for name in kernels.KERNEL_NAMES:
        inner = kernels.get_kernel(name)
        kernels.register(name, TIMED_BACKEND)(
            tracer.wrap(f"kernels.{name}", inner))
    kernels.set_backend(TIMED_BACKEND)
    try:
        yield
    finally:
        kernels.set_backend(requested)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Time the layers ``Gamora.reason`` crosses, plus the kernels.

    Each wrapper replaces a public function at the name its caller looks
    up, so the program runs unchanged apart from the timer calls.  What
    ``extract_from_predictions`` does outside the wrapped sweep, LSB repair
    and pairing (candidate verification) is its self time.
    """
    import repro.aig.fast_cuts as fast_cuts
    import repro.core.api as api
    import repro.core.postprocess as postprocess
    from repro.learn.fast import FastInference

    targets = [
        (api, "build_graph_data", "learn.data.encode"),
        (api, "extract_from_predictions", EXTRACT_SPAN),
        (fast_cuts, "enumerate_cuts_arrays", "aig.fast_cuts.sweep"),
        (postprocess, "correct_lsb_region", "core.postprocess.lsb"),
        (postprocess, "pair_candidates", "reasoning.fast_pairing.pair"),
        (FastInference, "predict", "learn.fast.forward"),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, span_name in targets:
            setattr(owner, attr, tracer.wrap(span_name, getattr(owner, attr)))
        with timed_kernels(tracer):
            yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_metrics(breakdowns: list[dict], per: int) -> dict:
    """Per-layer metrics from traced netlist breakdowns, averaged over ``per``.

    ``per`` is the number of netlists (or requests) the breakdowns cover,
    so every time is seconds per netlist.
    """
    out: dict[str, float] = {}
    names = SPAN_METRICS + KERNEL_SPANS
    for name in names:
        out[f"{name}_s"] = sum(b["self_s"].get(name, 0.0)
                               for b in breakdowns) / per
    for name in KERNEL_SPANS:
        out[f"{name}_calls"] = sum(b["calls"].get(name, 0)
                                   for b in breakdowns) / per
    out["core.postprocess.extract_s"] = sum(
        b["inclusive_s"].get(EXTRACT_SPAN, 0.0) for b in breakdowns) / per
    out["core.postprocess.verify_self_s"] = sum(
        b["self_s"].get(EXTRACT_SPAN, 0.0) for b in breakdowns) / per
    out["trace.unattributed_s"] = sum(
        b["unattributed_s"] for b in breakdowns) / per
    return out


# ----------------------------------------------------------------------
# environment record
def source_digest() -> str:
    """sha256 over the program's source files (the checkout is not a repo)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def digest_strings(strings) -> str:
    """sha256 over a sequence of strings (one line each)."""
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository (not a parent's)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    from repro import kernels

    return {
        "nproc": os.cpu_count(),
        "kernel_backend": kernels.active_backend(),
        "numba_available": kernels.numba_available(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }
