"""Workload ``serve-mixed``: the ``serve`` daemon under two closed-loop clients.

``python -m repro serve`` runs in its own process with the CLI defaults
and a cold cache.  Two client threads, each with its own
``SocketDaemonClient`` connection and no think time, send a seeded
request sequence drawn from a pool of 8-32-bit arithmetic netlists; a
share of the requests repeat an earlier netlist.  Repeats are answered
from the result cache (wire, parse, structural hash, scheduler and cache
cost only); new netlists run the whole pipeline and write the cache.

Times here are reported unscaled: the calibration kernel tracks the
in-process NumPy work of the other workloads, but not this two-process,
interpreter-bound load (four runs: throughput spread 0.12 unscaled, 0.22
scaled; latency_p50_ms 0.14 and 0.32).
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import threading
import time

import common
import corpus
from reason_large import recovered_full_adders, train_shallow
from repro.aig.aiger import loads_aag
from repro.core import Gamora
from repro.reasoning.wordlevel import analyze_adder_tree
from repro.serve import SocketDaemonClient

CLIENTS = 2
# A run sends whole rounds of the request stream (so every run has the same
# mix), at least enough for ten requests to lie above the 95th percentile.
MIN_REQUESTS = 200
# Nominal wall time of one round.
ROUND_NOMINAL_S = 5.0
BOOT_TIMEOUT_S = 120.0


class Daemon:
    """One ``python -m repro serve`` process with default settings."""

    def __init__(self, model_path, tmp, index: int) -> None:
        # AF_UNIX paths are short; a path relative to the shared working
        # directory keeps it short wherever the checkout lives.
        self.socket = os.path.relpath(tmp / f"daemon{index}.sock")
        self._log = open(tmp / f"daemon{index}.log", "w", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(common.SRC)
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(model_path),
             "--socket", self.socket],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
        )
        try:
            self._wait_ready(started)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def _wait_ready(self, started: float) -> None:
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"serve exited with {self.process.returncode}"
                                   f"; see {self._log.name}")
            if time.perf_counter() - started > BOOT_TIMEOUT_S:
                raise RuntimeError("serve did not answer ping in time")
            try:
                with SocketDaemonClient(self.socket, timeout=10.0,
                                        retry=None) as client:
                    if client.ping().get("ok"):
                        return
            except OSError:
                pass
            time.sleep(0.005)

    def request_stop(self) -> None:
        """Send the ``shutdown`` op without waiting for the process to end.

        The daemon takes a few idle seconds to exit after it answers, so
        callers overlap that wait with other work and :meth:`stop` later.
        """
        if self.process.poll() is None:
            try:
                with SocketDaemonClient(self.socket, timeout=30.0,
                                        retry=None) as client:
                    client.shutdown()
            except OSError:
                pass

    def stop(self) -> None:
        """Shut the daemon down and wait until its process has ended."""
        self.request_stop()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._log.close()


def _setup(smoke: bool, tmp, index: int):
    started = time.perf_counter()
    _, model_path = train_shallow(tmp)
    trained = time.perf_counter()
    pool = corpus.serve_pool(smoke)
    pooled = time.perf_counter()
    daemon = Daemon(model_path, tmp, index)
    return (model_path, pool, daemon), {
        "setup.train_s": trained - started,
        "setup.corpus_s": pooled - trained,
        "setup.daemon_boot_s": daemon.boot_s,
    }


def _drive(socket_path: str, stream: corpus.RequestStream, requests: int):
    """Closed-loop load; returns (records, wall seconds, client retries).

    A record is ``(netlist index, round-trip seconds, response)``.
    """
    lock = threading.Lock()
    records: list[tuple[int, float, dict]] = []
    errors: list[BaseException] = []
    clients = [SocketDaemonClient(socket_path) for _ in range(CLIENTS)]

    def client_loop(client: SocketDaemonClient) -> None:
        try:
            while True:
                with lock:
                    if stream.issued == requests:
                        return
                    index = stream.next()
                    text = stream.distinct[index].text
                sent = time.perf_counter()
                try:
                    response = client.reason(text)
                except OSError as error:
                    response = {"ok": False, "error": {
                        "type": "transport", "message": repr(error)}}
                rtt = time.perf_counter() - sent
                with lock:
                    records.append((index, rtt, response))
        except BaseException as error:  # re-raised by the caller
            errors.append(error)

    threads = [threading.Thread(target=client_loop, args=(client,))
               for client in clients]
    try:
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    finally:
        retries = sum(client.retriable_errors for client in clients)
        for client in clients:
            client.close()
    if errors:
        raise errors[0]
    return records, wall, retries


def _expected_payload(aig, outcome) -> dict:
    """What the daemon must answer for this netlist (its result body)."""
    report = analyze_adder_tree(aig, outcome.tree)
    tree = outcome.tree
    return {
        "num_full_adders": int(tree.num_full_adders),
        "num_half_adders": int(tree.num_half_adders),
        "num_mismatches": int(outcome.num_mismatches),
        "report": {
            "num_full_adders": int(report.num_full_adders),
            "num_half_adders": int(report.num_half_adders),
            "num_links": int(report.num_links),
            "depth": len(report.ranks),
            "pp_leaves": len(report.pp_leaves),
            "pi_leaves": len(report.pi_leaves),
            "output_roots": len(report.output_roots),
            "summary": report.summary(),
        },
    }


def reference_answers(model_path: str, jobs: list) -> dict:
    """In-process sequential ``reason`` of ``(index, netlist)`` jobs.

    Runs in a gate worker.  Also replays the daemon's ingress
    (``loads_aag`` and the structural hash) on the same texts, which
    nothing inside the daemon times.
    """
    gamora = Gamora.load(model_path)
    out = {}
    for index, net in jobs:
        started = time.perf_counter()
        aig = loads_aag(net.text)
        parsed = time.perf_counter()
        structural_hash = aig.structural_hash()
        hashed = time.perf_counter()
        outcome = gamora.reason(aig)
        out[index] = {
            "payload": _expected_payload(aig, outcome),
            "recovered": recovered_full_adders(outcome.tree, net.fa_roots),
            "parse_s": parsed - started,
            "shash_s": hashed - parsed,
            "structural_hash": structural_hash,
        }
    return out


def run(seed: int, seconds: float, trace: bool, smoke: bool, tmp) -> dict:
    reps = 1 if smoke else 3
    min_requests = 20 if smoke else MIN_REQUESTS
    daemons: list[Daemon] = []
    with common.GateWorkers(tmp) as gates:
        try:
            setup_reps = []
            for index in range(reps):
                (model_path, pool_circuits, daemon), parts = _setup(
                    smoke, tmp, index)
                daemons.append(daemon)
                setup_reps.append(parts)
                if index < reps - 1:
                    daemon.request_stop()  # the last set-up serves the load
            setup_s, setup_parts = common.setup_metrics(setup_reps)

            stream = corpus.RequestStream(pool_circuits, seed)
            rounds = max(math.ceil(min_requests / stream.round_length),
                         common.whole_units(seconds, ROUND_NOMINAL_S))
            records, wall, retries = _drive(daemon.socket, stream,
                                            rounds * stream.round_length)
            with SocketDaemonClient(daemon.socket, retry=None) as client:
                daemon_stats = client.stats()["stats"]
            daemon.request_stop()
            # Correctness gate, in the workers while the daemon exits.
            used = sorted({index for index, _, _ in records})
            halves = common.balanced_halves(
                [(i, stream.distinct[i]) for i in used],
                lambda job: job[1].num_ands)
            gates.start(reference_answers,
                        [(str(model_path), half) for half in halves])
        finally:
            for daemon in daemons:
                daemon.stop()
        # Every daemon has ended and been waited for, the gate workers not
        # yet (they are waited for in ``results``), so the children's
        # peak is the largest daemon's: the one that served the load.
        daemon_peak_mb = common.peak_rss_mb(resource.RUSAGE_CHILDREN)
        reference = {}
        for answer in gates.results():
            reference.update(answer)
    failed = sum(not response.get("ok")
                 or response.get("result") != reference[index]["payload"]
                 for index, _, response in records)
    attempted = len(records)
    nets = stream.distinct

    details = {
        "pool": [{"name": name, "num_ands": getattr(gen, "aig", gen).num_ands,
                  "structural_hash": getattr(gen, "aig", gen).structural_hash()}
                 for name, gen in pool_circuits],
        "request_structural_hashes_sha256": common.digest_strings(
            reference[i]["structural_hash"] for i in used),
        "requests": attempted,
        "distinct_netlists": len(used),
        "setup_reps": setup_reps,
        "errors": [response["error"] for _, _, response in records
                   if not response.get("ok")][:10],
    }
    if trace:
        stats = [response["stats"] for _, _, response in records
                 if response.get("ok")]
        batches = {s["batch_id"]: s for s in stats}.values()
        per = attempted
        layers = {
            "aig.aiger.parse_s": sum(
                reference[i]["parse_s"] for i, _, _ in records) / per,
            "aig.graph.shash_s": sum(
                reference[i]["shash_s"] for i, _, _ in records) / per,
            "learn.data.encode_s": sum(
                b["batch_stats"]["encode_seconds"] for b in batches) / per,
            "learn.fast.forward_s": sum(
                b["batch_stats"]["inference_seconds"] for b in batches) / per,
            "core.postprocess.extract_s": sum(
                b["batch_stats"]["postprocess_seconds"] for b in batches) / per,
            "reasoning.wordlevel.report_s": sum(
                b["batch_stats"]["report_seconds"] for b in batches) / per,
            "serve.client.rtt_ms": common.median(
                [rtt for _, rtt, _ in records]) * 1e3,
            "serve.client.outside_daemon_ms": common.median(
                [rtt - r["stats"]["total_seconds"] for _, rtt, r in records
                 if r.get("ok")]) * 1e3,
            "serve.scheduler.queue_wait_p50_ms": common.median(
                [s["queue_wait_seconds"] for s in stats]) * 1e3,
            "serve.scheduler.queue_wait_p95_ms": common.percentile(
                [s["queue_wait_seconds"] for s in stats], 95) * 1e3,
            "serve.scheduler.batch_size_mean": sum(
                b["batch_size"] for b in batches) / len(batches),
            "serve.service.service_ms": common.median(
                [s["service_seconds"] for s in stats]) * 1e3,
            "serve.cache.result_hit_share": sum(
                s["result_hit"] for s in stats) / per,
            "serve.service.forward_passes": (
                daemon_stats["scheduler"]["num_shards"] / per),
            "serve.client.retries": retries,
            # The load runs exactly as untraced: layer numbers come from
            # the stats every response already carries, and parse/hash
            # are replayed after the load.
            "trace_overhead_share": 0.0,
            **setup_parts,
        }
        return {"attempted": attempted, "failed": failed, "calibration_s": [],
                "per_layer": layers, "details": details}

    latencies = [rtt for _, rtt, _ in records]
    traced = sum(len(nets[i].fa_roots) for i in used)
    return {
        "attempted": attempted,
        "failed": failed,
        "calibration_s": [],
        "end_to_end": {
            "setup_s": setup_s,
            "throughput_kands_per_s": sum(
                nets[i].num_ands for i, _, _ in records) / wall / 1e3,
            "requests_per_s": attempted / wall,
            "latency_p50_ms": common.median(latencies) * 1e3,
            "latency_p95_ms": common.percentile(latencies, 95) * 1e3,
            "peak_rss_mb": daemon_peak_mb,
            "correct_share": (attempted - failed) / attempted,
            "fa_recall": sum(reference[i]["recovered"] for i in used) / traced,
        },
        "details": details,
    }
