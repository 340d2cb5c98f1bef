"""Concurrency and daemon-lifecycle tests for the serving layer.

Three invariant families the always-on daemon depends on:

* **Thread safety** — the structural-hash LRU and the service's lazy
  model fingerprint survive multi-threaded hammering with consistent
  counters and exactly-once builds; concurrent ``reason_many`` calls
  from many threads stay bit-identical to the sequential path.
* **Worker resilience** — a hard post-processing worker crash breaks the
  whole ``ProcessPoolExecutor``; the pool must recover by replacing the
  executor (bounded by ``MAX_EXECUTOR_RESTARTS``) instead of silently
  serving in-process forever.
* **Daemon lifecycle** — concurrent requests coalesce into shared
  micro-batches (fewer forward passes than requests), admission control
  fast-fails with a retriable error, injected worker crashes never lose
  a request, and the warm caches survive a daemon restart through the
  persistent spill.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core import Gamora
from repro.generators import booth_multiplier, csa_multiplier
from repro.learn import TrainConfig
from repro.serve import (
    DaemonClient,
    DaemonServer,
    GamoraDaemon,
    PostprocessPool,
    QueueFullError,
    ReasoningService,
    SchedulerClosedError,
    SocketDaemonClient,
    StructuralHashCache,
)
from repro.serve.workers import FAULT_ENV, MAX_EXECUTOR_RESTARTS

from tests.test_serve_batching import assert_outcome_equal, tree_key


@pytest.fixture(scope="module")
def gamora():
    model = Gamora(model="shallow", train_config=TrainConfig(epochs=60))
    model.fit([csa_multiplier(6)])
    return model


@pytest.fixture(scope="module")
def circuits():
    return [csa_multiplier(4).aig, csa_multiplier(5).aig,
            booth_multiplier(4).aig]


@pytest.fixture(scope="module")
def sequential(gamora, circuits):
    return [gamora.reason(aig) for aig in circuits]


def run_threads(count, target):
    threads = [threading.Thread(target=target, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestCacheThreadSafety:
    def test_hammer_mixed_operations(self):
        cache = StructuralHashCache(capacity=8)
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    key = f"k{rng.integers(0, 16)}"
                    op = rng.integers(0, 3)
                    if op == 0:
                        cache.put(key, "fp", {"payload": key})
                    elif op == 1:
                        value = cache.get(key, "fp")
                        if value is not None:
                            assert value["payload"] == key
                    else:
                        value = cache.get_or_build(
                            key, "fp", lambda k=key: {"payload": k}
                        )
                        assert value["payload"] == key
                    assert len(cache) <= cache.capacity
            except Exception as error:  # surfaced after join
                errors.append(error)

        run_threads(8, worker)
        assert not errors
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] > 0
        assert len(cache) <= cache.capacity

    def test_get_or_build_builds_exactly_once_per_key(self):
        cache = StructuralHashCache(capacity=64)
        built = []  # list.append is atomic under the GIL
        barrier = threading.Barrier(8)

        def worker(_):
            barrier.wait()
            for index in range(16):
                key = f"k{index}"

                def build(k=key):
                    built.append(k)
                    return {"payload": k}

                value = cache.get_or_build(key, "fp", build)
                assert value["payload"] == key

        run_threads(8, worker)
        # Capacity exceeds the key count, so every key builds exactly
        # once: the loser of a race must be served the winner's entry.
        assert sorted(built) == sorted(f"k{i}" for i in range(16))

    def test_model_fingerprint_concurrent_init(self, gamora):
        service = ReasoningService(gamora)
        results = [None] * 8
        barrier = threading.Barrier(8)

        def worker(index):
            barrier.wait()
            results[index] = service._model_fingerprint()

        run_threads(8, worker)
        assert len(set(results)) == 1
        assert results[0] == service._model_fingerprint()


class TestConcurrentReasonMany:
    def test_threads_match_sequential(self, gamora, circuits, sequential):
        service = ReasoningService(gamora)
        batches = [None] * 6
        barrier = threading.Barrier(6)

        def worker(index):
            barrier.wait()
            batches[index] = service.reason_many(circuits)

        run_threads(6, worker)
        for batch in batches:
            assert len(batch) == len(circuits)
            for outcome, expected in zip(batch, sequential):
                assert_outcome_equal(outcome, expected)


class TestExecutorRestart:
    @pytest.fixture()
    def payload(self, gamora, circuits):
        aig = circuits[0]
        return aig, gamora.predict(aig)

    @staticmethod
    def crash_once(pool, payload, monkeypatch):
        """Submit with a hard-crash fault armed; returns the fallback result."""
        aig, labels = payload
        monkeypatch.setenv(FAULT_ENV, "exit")
        handle = pool.submit(aig, labels, False, True, 4)
        extraction, _ = handle.get()  # parent fallback, env not consulted
        monkeypatch.delenv(FAULT_ENV)
        return extraction

    def test_broken_executor_is_replaced(self, payload, monkeypatch,
                                         sequential):
        pool = PostprocessPool(workers=1)
        if not pool.parallel:
            pytest.skip("fork unavailable")
        with pool:
            extraction = self.crash_once(pool, payload, monkeypatch)
            assert tree_key(extraction.tree) == tree_key(sequential[0].tree)
            assert pool.fallbacks == 1
            assert not pool.parallel  # the crash broke the executor
            # Next submit replaces the executor and runs in a worker again.
            aig, labels = payload
            handle = pool.submit(aig, labels, False, True, 4)
            extraction, _ = handle.get()
            assert tree_key(extraction.tree) == tree_key(sequential[0].tree)
            assert pool.restarts == 1
            assert pool.parallel
            assert pool.fallbacks == 1  # the healthy submit cost nothing

    def test_restarts_are_bounded(self, payload, monkeypatch, sequential):
        pool = PostprocessPool(workers=1)
        if not pool.parallel:
            pytest.skip("fork unavailable")
        with pool:
            for _ in range(MAX_EXECUTOR_RESTARTS + 1):
                self.crash_once(pool, payload, monkeypatch)
            assert pool.restarts == MAX_EXECUTOR_RESTARTS
            # Budget exhausted: in-process permanently, results still good.
            aig, labels = payload
            extraction, _ = pool.submit(
                aig, labels, False, True, 4
            ).get()
            assert tree_key(extraction.tree) == tree_key(sequential[0].tree)
            assert not pool.parallel
            assert pool.workers == 0

    def test_service_surfaces_restart_count(self, gamora, circuits,
                                            sequential, monkeypatch):
        """An injected soft fault during reason_many loses nothing and the
        stats carry the pool's fallback/restart counters."""
        service = ReasoningService(gamora, result_cache_size=0)
        monkeypatch.setenv(FAULT_ENV, "1")
        batch = service.reason_many(circuits, postprocess_workers=2)
        monkeypatch.delenv(FAULT_ENV)
        for outcome, expected in zip(batch, sequential):
            assert_outcome_equal(outcome, expected)
        assert batch.stats.postprocess_fallbacks == len(circuits)
        assert batch.stats.postprocess_restarts == 0  # soft faults: no break


class TestDaemonCoalescing:
    def test_concurrent_requests_share_batches(self, gamora, circuits,
                                               sequential, tmp_path):
        run_dir = tmp_path / "runs"
        with GamoraDaemon(gamora, batch_window_ms=250,
                          run_dir=run_dir) as daemon:
            client = DaemonClient(daemon)
            assert client.ping()["ok"]
            responses = [None] * 8
            barrier = threading.Barrier(8)

            def worker(index):
                barrier.wait()
                responses[index] = client.reason(
                    circuits[index % 2], request_id=f"req-{index}"
                )

            run_threads(8, worker)
            assert all(response["ok"] for response in responses)
            # Coalescing: dedup collapses 8 requests over 2 structures
            # into strictly fewer forward passes than requests.
            stats = daemon.scheduler.stats()
            assert stats["completed"] == 8
            assert stats["max_coalesced"] > 1
            assert stats["num_shards"] < 8
            assert stats["batches"] < 8
            # Bit-identity through the whole protocol path.
            for index, response in enumerate(responses):
                expected = sequential[index % 2]
                result = response["result"]
                assert result["num_full_adders"] == expected.tree.num_full_adders
                assert result["num_half_adders"] == expected.tree.num_half_adders
                assert result["num_mismatches"] == expected.num_mismatches
                assert result["report"] is not None
            # Every request got its run-dir stats file.
            for index in range(8):
                record = json.loads(
                    (run_dir / f"req-{index}" / "stats.json").read_text()
                )
                assert record["request_id"] == f"req-{index}"
                assert record["queue_wait_seconds"] >= 0
                assert record["batch_stats"]["batch_size"] >= 1
                assert (record["result_hit"]
                        == (record["shard_index"] is None))

    def test_submit_matches_sequential(self, gamora, circuits, sequential):
        with GamoraDaemon(gamora, batch_window_ms=1) as daemon:
            for aig, expected in zip(circuits, sequential):
                outcome, stats = daemon.submit(aig)
                assert_outcome_equal(outcome, expected)
                assert stats.batch_id >= 1
            # Same circuit again: served from the warm result cache.
            outcome, stats = daemon.submit(circuits[0])
            assert stats.result_hit and stats.shard_index is None
            assert_outcome_equal(outcome, sequential[0])

    def test_mixed_options_split_into_groups(self, gamora, circuits):
        with GamoraDaemon(gamora, batch_window_ms=300) as daemon:
            tickets = [
                daemon.submit_async(circuits[0], correct_lsb=True),
                daemon.submit_async(circuits[0], correct_lsb=False),
            ]
            stats = [ticket.stats(timeout=120) for ticket in tickets]
            # One micro-batch, two option groups, each run separately.
            assert stats[0].batch_id == stats[1].batch_id
            assert stats[0].batch_size == 2
            assert {s.group_size for s in stats} == {1}


class TestBackpressure:
    def test_queue_full_fast_fails_retriable(self, gamora, circuits):
        daemon = GamoraDaemon(gamora, batch_window_ms=2000,
                              max_queue_depth=2)
        daemon.start()
        try:
            admitted = [daemon.submit_async(circuits[0]),
                        daemon.submit_async(circuits[1])]
            with pytest.raises(QueueFullError) as info:
                daemon.submit_async(circuits[2])
            assert info.value.retriable
            assert daemon.scheduler.stats()["rejected"] == 1
        finally:
            daemon.close()
        # Graceful close drained the admitted work.
        for ticket in admitted:
            assert ticket.result(0) is not None

    def test_queue_full_over_the_protocol(self, gamora, circuits):
        daemon = GamoraDaemon(gamora, batch_window_ms=2000,
                              max_queue_depth=1)
        daemon.start()
        try:
            client = DaemonClient(daemon)
            daemon.submit_async(circuits[0])  # occupy the only slot
            response = client.reason(circuits[1])
            assert not response["ok"]
            assert response["error"]["type"] == "queue_full"
            assert response["error"]["retriable"] is True
        finally:
            daemon.close()

    def test_submit_after_close_raises(self, gamora, circuits):
        daemon = GamoraDaemon(gamora, batch_window_ms=1)
        daemon.start()
        daemon.close()
        with pytest.raises(SchedulerClosedError):
            daemon.submit_async(circuits[0])

    def test_stop_without_drain_fails_tickets(self, gamora, circuits):
        daemon = GamoraDaemon(gamora, batch_window_ms=5000)
        daemon.start()
        ticket = daemon.submit_async(circuits[0])
        daemon.scheduler.stop(drain=False)
        with pytest.raises(SchedulerClosedError):
            ticket.result(timeout=10)
        daemon.close()


class TestDaemonFaultRecovery:
    def test_injected_worker_crash_loses_no_request(self, gamora, circuits,
                                                    sequential, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "exit")
        with GamoraDaemon(gamora, batch_window_ms=150, result_cache_size=0,
                          postprocess_workers=2) as daemon:
            client = DaemonClient(daemon)
            responses = [None] * 4
            barrier = threading.Barrier(4)

            def worker(index):
                barrier.wait()
                responses[index] = client.reason(circuits[index % 3])

            run_threads(4, worker)
            assert all(response["ok"] for response in responses)
            for index, response in enumerate(responses):
                expected = sequential[index % 3]
                assert (response["result"]["num_full_adders"]
                        == expected.tree.num_full_adders)
                assert (response["result"]["num_mismatches"]
                        == expected.num_mismatches)

    def test_service_error_fails_only_that_batch(self, gamora, circuits,
                                                 sequential, monkeypatch):
        with GamoraDaemon(gamora, batch_window_ms=1) as daemon:
            def boom(*args, **kwargs):
                raise RuntimeError("injected service failure")

            monkeypatch.setattr(daemon.service, "reason_many", boom)
            ticket = daemon.submit_async(circuits[0])
            with pytest.raises(RuntimeError, match="injected"):
                ticket.result(timeout=120)
            monkeypatch.undo()
            # The scheduler thread survived: the next request succeeds.
            outcome, _ = daemon.submit(circuits[0])
            assert_outcome_equal(outcome, sequential[0])
            assert daemon.scheduler.stats()["failed"] == 1


class TestCachePersistenceAcrossRestart:
    def test_warm_restart_serves_hits(self, gamora, circuits, sequential,
                                      tmp_path):
        cache_dir = tmp_path / "cache"
        with GamoraDaemon(gamora, batch_window_ms=1,
                          cache_dir=cache_dir) as first:
            for aig in circuits:
                first.submit(aig)
        assert first.saved_results == len(circuits)
        assert first.saved_graphs == len(circuits)
        assert first.spill_error is None

        with GamoraDaemon(gamora, batch_window_ms=1,
                          cache_dir=cache_dir) as second:
            assert second.loaded_results == len(circuits)
            assert second.loaded_graphs == len(circuits)
            for aig, expected in zip(circuits, sequential):
                outcome, stats = second.submit(aig)
                assert stats.result_hit
                assert_outcome_equal(outcome, expected)
            assert second.scheduler.stats()["num_shards"] == 0
        # Nothing new was computed, so nothing new spills.
        assert second.saved_results == 0

    def test_spilled_reports_survive(self, gamora, circuits, tmp_path):
        cache_dir = tmp_path / "cache"
        with GamoraDaemon(gamora, batch_window_ms=1,
                          cache_dir=cache_dir) as first:
            report = first.submit(circuits[0])[0].report
        assert report is not None
        with GamoraDaemon(gamora, batch_window_ms=1,
                          cache_dir=cache_dir) as second:
            outcome, stats = second.submit(circuits[0])
            assert stats.result_hit
            assert outcome.report == report


class TestSocketProtocol:
    def test_concurrent_clients_round_trip(self, gamora, circuits,
                                           sequential, tmp_path):
        socket_path = tmp_path / "gamora.sock"
        daemon = GamoraDaemon(gamora, batch_window_ms=200).start()
        server = DaemonServer(daemon, socket_path).start()
        try:
            responses = [None] * 6
            barrier = threading.Barrier(6)

            def worker(index):
                barrier.wait()
                with SocketDaemonClient(socket_path, timeout=300) as client:
                    responses[index] = client.reason(
                        circuits[index % 2], request_id=f"sock-{index}"
                    )

            run_threads(6, worker)
            assert all(response["ok"] for response in responses)
            for index, response in enumerate(responses):
                expected = sequential[index % 2]
                assert response["id"] == f"sock-{index}"
                assert (response["result"]["num_full_adders"]
                        == expected.tree.num_full_adders)
            with SocketDaemonClient(socket_path) as client:
                assert client.ping()["ok"]
                stats = client.stats()
                assert stats["ok"]
                assert stats["stats"]["scheduler"]["completed"] == 6
                assert stats["stats"]["scheduler"]["num_shards"] < 6
        finally:
            server.close()
            daemon.close()
        assert not socket_path.exists()

    def test_bad_requests_get_clean_errors(self, gamora, tmp_path):
        socket_path = tmp_path / "gamora.sock"
        daemon = GamoraDaemon(gamora, batch_window_ms=1).start()
        server = DaemonServer(daemon, socket_path).start()
        try:
            with SocketDaemonClient(socket_path) as client:
                for message, fragment in [
                    ({"op": "reason"}, "netlist"),
                    ({"op": "reason", "netlist": "garbage"}, "unparsable"),
                    ({"op": "warp"}, "unknown op"),
                    ({"op": "reason", "netlist": "aag 0 0 0 0 0",
                      "options": {"warp": 9}}, "unknown options"),
                ]:
                    response = client.request(message)
                    assert not response["ok"]
                    assert fragment in response["error"]["message"] or (
                        response["error"]["type"] == "bad_request"
                    )
                    assert response["error"]["retriable"] is False
                # Option values are checked at the wire boundary: a wrong
                # type is the client's bad_request, never an internal error.
                for options, fragment in [
                    ({"engine": "fast"}, "unknown options"),
                    ({"root_filter": 1}, "root_filter"),
                    ({"correct_lsb": "yes"}, "correct_lsb"),
                    ({"lsb_outputs": "x"}, "lsb_outputs"),
                    ({"lsb_outputs": -1}, "lsb_outputs"),
                    ({"lsb_outputs": True}, "lsb_outputs"),
                    ({"lsb_outputs": 2.5}, "lsb_outputs"),
                ]:
                    response = client.request({
                        "op": "reason", "netlist": "aag 0 0 0 0 0",
                        "options": options,
                    })
                    assert not response["ok"], options
                    assert response["error"]["type"] == "bad_request", options
                    assert fragment in response["error"]["message"], options
                    assert response["error"]["retriable"] is False
                # Valid values still serve.
                response = client.request({
                    "op": "reason", "netlist": "aag 0 0 0 0 0",
                    "options": {"root_filter": True, "correct_lsb": False,
                                "lsb_outputs": 0},
                })
                assert response["ok"], response
                # Malformed JSON doesn't kill the connection.
                client._sock.sendall(b"{not json}\n")
                line = client._reader.readline()
                assert not json.loads(line)["ok"]
                assert client.ping()["ok"]
        finally:
            server.close()
            daemon.close()

    def test_idle_server_closes_promptly(self, gamora, tmp_path):
        """close() wakes the accept thread instead of waiting out its join
        timeout: a started server with no clients shuts down at once."""
        daemon = GamoraDaemon(gamora, batch_window_ms=1).start()
        server = DaemonServer(daemon, tmp_path / "gamora.sock").start()
        accept_thread = server._accept_thread
        try:
            started = time.monotonic()
            server.close()
            elapsed = time.monotonic() - started
        finally:
            daemon.close()
        assert elapsed < 1.0, elapsed
        assert not accept_thread.is_alive()

    def test_shutdown_op_releases_serve_forever(self, gamora, circuits,
                                                tmp_path):
        socket_path = tmp_path / "gamora.sock"
        daemon = GamoraDaemon(gamora, batch_window_ms=1).start()
        server = DaemonServer(daemon, socket_path)
        done = threading.Event()

        def serve():
            server.serve_forever()
            done.set()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30
        while not socket_path.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        with SocketDaemonClient(socket_path) as client:
            assert client.reason(circuits[0])["ok"]
            final = client.shutdown()
            assert final["ok"]
            assert final["stats"]["scheduler"]["completed"] == 1
        assert done.wait(timeout=30)
        thread.join(timeout=30)
        server.close()
        daemon.close()


class TestServeCli:
    @pytest.mark.slow
    def test_serve_boot_reason_shutdown(self, gamora, circuits, tmp_path,
                                        capsys):
        from repro.cli import main

        model_path = tmp_path / "model.npz"
        gamora.save(model_path)
        socket_path = tmp_path / "gamora.sock"
        cache_dir = tmp_path / "cache"
        run_dir = tmp_path / "runs"
        exit_code = []

        def serve():
            exit_code.append(main([
                "serve", str(model_path), "--socket", str(socket_path),
                "--batch-window-ms", "20", "--cache-dir", str(cache_dir),
                "--run-dir", str(run_dir),
            ]))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.monotonic() + 60
        while not socket_path.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert socket_path.exists(), "daemon never bound its socket"
        with SocketDaemonClient(socket_path, timeout=300) as client:
            response = client.reason(circuits[0], request_id="cli-0")
            assert response["ok"]
            client.shutdown()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert exit_code == [0]
        out = capsys.readouterr().out
        assert "served 1 requests" in out
        assert "spilled" in out
        assert (run_dir / "cli-0" / "stats.json").is_file()
        assert (cache_dir / "MODEL.tag").is_file()

    def test_serve_unusable_cache_dir_is_clean_error(self, gamora, tmp_path,
                                                     capsys):
        from repro.cli import main

        model_path = tmp_path / "model.npz"
        gamora.save(model_path)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "foreign.npz").write_bytes(b"not ours")
        code = main(["serve", str(model_path), "--socket",
                     str(tmp_path / "s.sock"), "--cache-dir", str(bad)])
        assert code == 2
        assert "cannot use cache dir" in capsys.readouterr().err
