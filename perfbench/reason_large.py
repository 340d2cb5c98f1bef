"""Workload ``reason-large``: ``loads_aag`` -> ``Gamora.reason``, one by one.

Inputs are large AIGER texts (64/128-bit CSA, 64-bit Booth, a 48-bit MAC
of ~25k ANDs).  No cache is involved, so the whole-graph cut sweep of the
post-processing dominates; this is where sweep, parser and pairing work
shows first.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

import common
import corpus
from repro.aig.aiger import loads_aag
from repro.core import Gamora
from repro.generators import csa_multiplier
from repro.reasoning.adder_tree import KIND_FA

# A pass over the corpus takes about 8 s at the reference speed; a run
# makes one pass per 10 s of --seconds.
PASS_NOMINAL_S = 10.0


def train_shallow(tmp):
    """The shallow model trained on the 8-bit CSA, saved for fresh loads."""
    gamora = Gamora(model="shallow")
    gamora.fit([csa_multiplier(8)])
    gamora.inference_kernel()  # compile the deployment kernel up front
    path = tmp / "shallow.npz"
    gamora.save(path)
    return gamora, path


def outcome_digest(outcome) -> str:
    """sha256 over everything ``reason`` answers: labels, tree, rejects."""
    digest = hashlib.sha256()
    for task in sorted(outcome.labels):
        digest.update(task.encode())
        digest.update(np.ascontiguousarray(outcome.labels[task]).tobytes())
    core = outcome.tree.arrays()
    for column in (core.kind, core.sum_var, core.carry_var, core.leaves):
        digest.update(np.ascontiguousarray(column).tobytes())
    extraction = outcome.extraction
    for values in (extraction.rejected_xor, extraction.rejected_maj,
                   sorted(extraction.corrected_vars)):
        digest.update(np.asarray(values, dtype=np.int64).tobytes())
    return digest.hexdigest()


def recovered_full_adders(tree, fa_roots: np.ndarray) -> int:
    """How many traced (sum, carry) full adders the tree contains."""
    if len(fa_roots) == 0:
        return 0
    core = tree.arrays()
    fa = core.kind == KIND_FA
    found = (core.sum_var[fa].astype(np.int64) << 32) | core.carry_var[fa]
    wanted = (fa_roots[:, 0] << 32) | fa_roots[:, 1]
    return int(np.isin(wanted, found).sum())


def reference_outcomes(model_path: str, nets: list) -> list[tuple]:
    """(digest, traced full adders found) per netlist, from a fresh model
    load and a fresh parse (runs in a gate worker)."""
    gamora = Gamora.load(model_path)
    out = []
    for net in nets:
        outcome = gamora.reason(loads_aag(net.text))
        out.append((outcome_digest(outcome),
                    recovered_full_adders(outcome.tree, net.fa_roots)))
    return out


def _setup(seed: int, smoke: bool, tmp):
    started = time.perf_counter()
    gamora, model_path = train_shallow(tmp)
    trained = time.perf_counter()
    nets = corpus.reason_large(seed, smoke)
    done = time.perf_counter()
    return (gamora, model_path, nets), {"setup.train_s": trained - started,
                                        "setup.corpus_s": done - trained}


def _untraced_pass(gamora, nets, calibration: common.Calibration):
    """One timed pass: (latency, outcome digest, parsed AIG) per netlist."""
    results = []
    for net in nets:
        calibration.sample()
        started = time.perf_counter()
        aig = loads_aag(net.text)
        outcome = gamora.reason(aig)
        latency = time.perf_counter() - started
        results.append((latency, outcome_digest(outcome), aig))
    calibration.sample()
    return results


def _traced_pass(gamora, nets, calibration: common.Calibration):
    """One pass with every layer timed; returns (breakdowns, outcomes, shash)."""
    tracer = common.Tracer()
    breakdowns, outcomes, shash_s = [], [], 0.0
    with common.instrumented(tracer):
        for net in nets:
            calibration.sample()
            root = len(tracer.spans)
            with tracer.span(common.ROOT_SPAN):
                with tracer.span("aig.aiger.parse"):
                    aig = loads_aag(net.text)
                outcome = gamora.reason(aig)
            breakdowns.append(tracer.breakdown(root))
            outcomes.append(outcome)
            # Not on the reason path: replayed to time the daemon's
            # cache-key step on the same text.
            started = time.perf_counter()
            aig.structural_hash()
            shash_s += time.perf_counter() - started
    calibration.sample()
    return breakdowns, outcomes, shash_s


def run(seed: int, seconds: float, trace: bool, smoke: bool, tmp) -> dict:
    reps = 1 if smoke else 3
    calibration = common.Calibration()
    (gamora, model_path, nets), setup_reps = common.repeat_setup(
        reps, lambda: _setup(seed, smoke, tmp))
    setup_s, setup_parts = common.setup_metrics(setup_reps)

    # A traced run makes one untraced pass (the overhead's base) and one
    # traced pass.
    passes = 1 if trace else common.whole_units(seconds, PASS_NOMINAL_S)
    latencies, digests = [], []
    last_aigs = {}
    for _ in range(passes):
        for net, (latency, digest, aig) in zip(
                nets, _untraced_pass(gamora, nets, calibration)):
            latencies.append(latency)
            digests.append((net.name, digest))
            last_aigs[net.name] = aig
    if trace:
        breakdowns, outcomes, shash_s = _traced_pass(gamora, nets, calibration)
        # Tracing must not change answers: traced outcomes are gated
        # against the reference exactly like untraced ones.
        digests.extend((net.name, outcome_digest(outcome))
                       for net, outcome in zip(nets, outcomes))

    # Correctness gate: a fresh model load and a fresh parse per netlist.
    halves = common.balanced_halves(nets, lambda net: net.num_ands)
    with common.GateWorkers(tmp) as gates:
        gates.start(reference_outcomes,
                    [(str(model_path), half) for half in halves])
        answers = gates.results()
    reference = {net.name: answer for half, results in zip(halves, answers)
                 for net, answer in zip(half, results)}
    expected = {name: digest for name, (digest, _) in reference.items()}
    recovered = sum(found for _, found in reference.values())
    traced = sum(len(net.fa_roots) for net in nets)
    failed = sum(digest != expected[name] for name, digest in digests)
    attempted = len(digests)

    details = {
        "corpus": [{"name": net.name, "num_ands": net.num_ands,
                    "structural_hash": last_aigs[net.name].structural_hash()}
                   for net in nets],
        "passes": passes,
        "samples": len(latencies),
        "setup_reps": setup_reps,
    }
    if trace:
        layers = common.layer_metrics(breakdowns, len(nets))
        layers["aig.graph.shash_s"] = shash_s / len(nets)
        layers.update(setup_parts)
        layers["trace_overhead_share"] = (
            sum(b["wall_s"] for b in breakdowns) / sum(latencies) - 1.0)
        details["netlists"] = [{"name": net.name, **breakdown}
                               for net, breakdown in zip(nets, breakdowns)]
        return {"attempted": attempted, "failed": failed,
                "calibration_s": calibration.samples,
                "per_layer": layers, "details": details}

    total_ands = sum(net.num_ands for net in nets) * passes
    busy = sum(latencies)
    return {
        "attempted": attempted,
        "failed": failed,
        "calibration_s": calibration.samples,
        "end_to_end": {
            "setup_s": setup_s,
            "throughput_kands_per_s": total_ands / busy / 1e3,
            "requests_per_s": len(latencies) / busy,
            "latency_p50_ms": common.median(latencies) * 1e3,
            "latency_p95_ms": common.percentile(latencies, 95) * 1e3,
            "peak_rss_mb": common.peak_rss_mb(),
            "correct_share": (attempted - failed) / attempted,
            "fa_recall": recovered / traced,
        },
        "details": details,
    }
