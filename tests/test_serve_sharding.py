"""Sharded + parallel serving: planner properties and equivalence.

The scaling knobs added on top of the batched service must never change
answers: for any budget (including budgets that split the batch at every
boundary or stream circuits over it in windows) and any worker count (including worker
crashes), ``reason_many`` must return labels and extractions identical to
sequential ``Gamora.reason``.  The planner itself is checked as a pure
function: budget respected, exact partition, deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Gamora
from repro.generators import booth_multiplier, csa_multiplier, squarer
from repro.learn import TrainConfig, estimate_batch_memory, plan_batch
from repro.serve import PostprocessPool, ReasoningService
from repro.serve.workers import (
    AUTO_MIN_TOTAL_ANDS,
    FAULT_ENV,
    fork_available,
    resolve_workers,
)

ZOO = [
    lambda: csa_multiplier(3),
    lambda: csa_multiplier(4),
    lambda: csa_multiplier(5),
    lambda: booth_multiplier(3),
    lambda: squarer(4),
]
SPEC_IDS = st.integers(0, len(ZOO) - 1)


@pytest.fixture(scope="module")
def gamora():
    model = Gamora(model="shallow", train_config=TrainConfig(epochs=60))
    model.fit([csa_multiplier(6)])
    return model


@pytest.fixture(scope="module")
def zoo_graphs(gamora):
    """Encoded graphs for the whole zoo (planner inputs)."""
    service = ReasoningService(gamora)
    return [service.encode(spec()) for spec in ZOO]


@pytest.fixture(scope="module")
def sequential_memo(gamora):
    memo = {}

    def lookup(spec_id):
        if spec_id not in memo:
            memo[spec_id] = gamora.reason(ZOO[spec_id]())
        return memo[spec_id]

    return lookup


def assert_outcome_equal(batched, sequential):
    assert set(batched.labels) == set(sequential.labels)
    for task in sequential.labels:
        np.testing.assert_array_equal(batched.labels[task], sequential.labels[task])
    batched_tree = sorted(
        (a.kind, a.sum_var, a.carry_var, tuple(sorted(a.leaves)))
        for a in batched.tree.adders
    )
    sequential_tree = sorted(
        (a.kind, a.sum_var, a.carry_var, tuple(sorted(a.leaves)))
        for a in sequential.tree.adders
    )
    assert batched_tree == sequential_tree
    assert batched.extraction.rejected_xor == sequential.extraction.rejected_xor
    assert batched.extraction.rejected_maj == sequential.extraction.rejected_maj


class TestShardPlanner:
    """``plan_batch``: the one planner behind every forward step."""

    def test_no_budget_is_single_shard(self, gamora, zoo_graphs):
        steps = plan_batch(gamora.net, zoo_graphs, None)
        assert len(steps) == 1
        indices, plan = steps[0]
        assert indices == list(range(len(zoo_graphs)))
        assert plan.num_windows == 1
        assert plan.num_nodes == sum(g.num_nodes for g in zoo_graphs)
        assert plan.peak_window_bytes == estimate_batch_memory(gamora.net,
                                                               zoo_graphs)
        # One rule with training: None is unbounded, <= 0 raises.
        for budget in (0, -1):
            with pytest.raises(ValueError, match="positive"):
                plan_batch(gamora.net, zoo_graphs, budget)
            with pytest.raises(ValueError, match="positive"):
                ReasoningService(gamora, max_window_bytes=budget)
            with pytest.raises(ValueError, match="positive"):
                ReasoningService(gamora).reason_many([ZOO[0]()],
                                                     max_window_bytes=budget)

    def test_empty_input(self, gamora):
        assert plan_batch(gamora.net, [], 1024) == []

    def test_budget_respected_and_partition_exact(self, gamora, zoo_graphs):
        standalone = [estimate_batch_memory(gamora.net, [g]) for g in zoo_graphs]
        budget = max(standalone) + min(standalone) // 2
        steps = plan_batch(gamora.net, zoo_graphs, budget)
        assert len(steps) > 1  # the budget genuinely splits this batch
        covered = sorted(i for indices, _ in steps for i in indices)
        assert covered == list(range(len(zoo_graphs)))  # exact partition
        for indices, plan in steps:
            assert plan.num_windows == 1  # packed, not split
            assert plan.num_nodes == sum(zoo_graphs[i].num_nodes
                                         for i in indices)
            assert plan.peak_window_bytes <= budget
            assert plan.peak_window_bytes == estimate_batch_memory(
                gamora.net, [zoo_graphs[i] for i in indices]
            )

    def test_oversize_singletons_get_own_shard(self, gamora, zoo_graphs):
        """Every graph over the budget: one windowed step each, within it."""
        standalone = [estimate_batch_memory(gamora.net, [g]) for g in zoo_graphs]
        budget = min(standalone) - 1
        steps = plan_batch(gamora.net, zoo_graphs, budget)
        assert [indices for indices, _ in steps] == [
            [i] for i in range(len(zoo_graphs))
        ]
        for (index,), plan in steps:
            assert plan.num_windows > 1
            assert plan.num_nodes == zoo_graphs[index].num_nodes
            assert plan.peak_window_bytes <= budget

    def test_mixed_oversize_and_packed(self, gamora, zoo_graphs):
        standalone = [estimate_batch_memory(gamora.net, [g]) for g in zoo_graphs]
        # Budget admits everything but the largest graph.
        budget = sorted(standalone)[-2] + 1
        steps = plan_batch(gamora.net, zoo_graphs, budget)
        split = [(indices, plan) for indices, plan in steps
                 if plan.num_windows > 1]
        assert len(split) == 1
        assert standalone[split[0][0][0]] == max(standalone)
        assert split[0][1].peak_window_bytes <= budget
        for _, plan in steps:
            assert plan.peak_window_bytes <= budget

    def test_service_plan_uses_configured_budget(self, gamora, zoo_graphs):
        """plan() must predict what reason_many actually executes."""
        kernel = gamora.inference_kernel()
        standalone = [estimate_batch_memory(kernel, [g]) for g in zoo_graphs]
        budget = max(standalone) + 1
        service = ReasoningService(gamora, max_window_bytes=budget)
        steps = service.plan([spec() for spec in ZOO])  # no override: budget
        assert len(steps) > 1
        assert max(plan.peak_window_bytes for _, plan in steps) <= budget
        batch = service.reason_many([spec() for spec in ZOO])
        assert batch.stats.num_shards == len(steps)
        unbounded = service.plan([spec() for spec in ZOO], None)  # explicit
        assert len(unbounded) == 1

    def test_deterministic(self, gamora, zoo_graphs):
        standalone = [estimate_batch_memory(gamora.net, [g]) for g in zoo_graphs]
        budget = estimate_batch_memory(gamora.net, zoo_graphs) // 2
        # One graph over the budget, so the plan mixes packed and split steps.
        budget = min(budget, max(standalone) - 1)
        first = plan_batch(gamora.net, zoo_graphs, budget)
        second = plan_batch(gamora.net, zoo_graphs, budget)
        assert [indices for indices, _ in first] == \
            [indices for indices, _ in second]
        for (_, one), (_, two) in zip(first, second):
            assert [w.targets.tolist() for w in one.windows] == \
                [w.targets.tolist() for w in two.windows]
        # Execution order follows input order through the first member.
        firsts = [indices[0] for indices, _ in first]
        assert firsts == sorted(firsts)


class TestShardedEquivalence:
    def test_single_graph_shards_match_sequential(self, gamora, zoo_graphs,
                                                  sequential_memo):
        """Budget below every standalone estimate: one circuit per step,
        each streamed in windows."""
        # Budgets for the service come from the deployment kernel's pricing
        # (float32) — the estimator the service itself plans with.
        kernel = gamora.inference_kernel()
        standalone = [estimate_batch_memory(kernel, [g]) for g in zoo_graphs]
        service = ReasoningService(gamora, result_cache_size=0,
                                   max_window_bytes=min(standalone) - 1)
        spec_ids = list(range(len(ZOO)))
        batch = service.reason_many([ZOO[i]() for i in spec_ids])
        assert batch.stats.num_shards == len(ZOO)
        assert batch.stats.streamed_graphs == len(ZOO)  # each split in windows
        for spec_id, outcome in zip(spec_ids, batch):
            assert_outcome_equal(outcome, sequential_memo(spec_id))

    def test_shard_boundary_groups_match_sequential(self, gamora, zoo_graphs,
                                                    sequential_memo):
        """A budget that splits the batch mid-way (the boundary case)."""
        kernel = gamora.inference_kernel()
        standalone = [estimate_batch_memory(kernel, [g]) for g in zoo_graphs]
        budget = max(standalone) + min(standalone) // 2
        service = ReasoningService(gamora, result_cache_size=0,
                                   max_window_bytes=budget)
        spec_ids = [0, 1, 2, 3, 4, 1, 0]  # includes within-batch duplicates
        batch = service.reason_many([ZOO[i]() for i in spec_ids])
        assert 1 < batch.stats.num_shards < len(ZOO)
        assert batch.stats.peak_window_bytes <= budget
        for spec_id, outcome in zip(spec_ids, batch):
            assert_outcome_equal(outcome, sequential_memo(spec_id))

    def test_stats_accumulate_across_shards(self, gamora, zoo_graphs):
        kernel = gamora.inference_kernel()
        standalone = [estimate_batch_memory(kernel, [g]) for g in zoo_graphs]
        service = ReasoningService(gamora, result_cache_size=0,
                                   max_window_bytes=max(standalone) + 1)
        batch = service.reason_many([spec() for spec in ZOO])
        stats = batch.stats
        assert stats.num_shards > 1
        # Totals are summed over shards, not overwritten by the last one.
        assert stats.num_nodes == sum(g.num_nodes for g in zoo_graphs)
        assert stats.num_edges == sum(g.num_edges for g in zoo_graphs)
        assert stats.inference_seconds > 0
        assert stats.postprocess_seconds > 0
        assert f"shards={stats.num_shards}" in stats.summary()

    def test_gamora_reason_many_passes_knobs_through(self, gamora,
                                                     sequential_memo):
        gamora._service = None  # fresh caches for a cold call
        batch = gamora.reason_many(
            [ZOO[0](), ZOO[1]()], max_window_bytes=1, postprocess_workers=0
        )
        assert batch.stats.num_shards == 2
        assert_outcome_equal(batch[0], sequential_memo(0))
        assert_outcome_equal(batch[1], sequential_memo(1))
        gamora._service = None  # do not leak the tiny budget to other tests

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(spec_ids=st.lists(SPEC_IDS, min_size=1, max_size=4),
           budget_div=st.sampled_from([0, 1, 2, 8]))
    def test_property_sharded_matches_unsharded(self, spec_ids, budget_div,
                                                gamora, zoo_graphs,
                                                sequential_memo):
        """Any batch x any budget: identical to sequential reason()."""
        total = estimate_batch_memory(gamora.inference_kernel(), zoo_graphs)
        budget = None if budget_div == 0 else max(total // budget_div, 1)
        service = ReasoningService(gamora, result_cache_size=0,
                                   max_window_bytes=budget)
        batch = service.reason_many([ZOO[i]() for i in spec_ids])
        for spec_id, outcome in zip(spec_ids, batch):
            assert_outcome_equal(outcome, sequential_memo(spec_id))


class TestParallelPostprocess:
    def test_workers_match_sequential(self, gamora, sequential_memo):
        service = ReasoningService(gamora, result_cache_size=0,
                                   postprocess_workers=2)
        spec_ids = [0, 3, 4, 0]
        batch = service.reason_many([ZOO[i]() for i in spec_ids])
        assert batch.stats.postprocess_fallbacks == 0
        for spec_id, outcome in zip(spec_ids, batch):
            assert_outcome_equal(outcome, sequential_memo(spec_id))
        # Cache disabled: labels stay writable, like sequential reason().
        assert batch[0].labels["root"].flags.writeable

    def test_workers_with_sharding_match_sequential(self, gamora, zoo_graphs,
                                                    sequential_memo):
        kernel = gamora.inference_kernel()
        standalone = [estimate_batch_memory(kernel, [g]) for g in zoo_graphs]
        service = ReasoningService(
            gamora, result_cache_size=0,
            max_window_bytes=max(standalone) + 1, postprocess_workers=2,
        )
        spec_ids = [0, 1, 2, 3, 4]
        batch = service.reason_many([ZOO[i]() for i in spec_ids])
        assert batch.stats.num_shards > 1
        for spec_id, outcome in zip(spec_ids, batch):
            assert_outcome_equal(outcome, sequential_memo(spec_id))

    def test_worker_crash_falls_back_in_process(self, gamora, sequential_memo,
                                                monkeypatch):
        """Injected worker faults: every circuit is recovered in-process."""
        monkeypatch.setenv(FAULT_ENV, "1")
        service = ReasoningService(gamora, result_cache_size=0,
                                   postprocess_workers=2)
        spec_ids = [0, 3]
        batch = service.reason_many([ZOO[i]() for i in spec_ids])
        assert batch.stats.postprocess_fallbacks == len(spec_ids)
        for spec_id, outcome in zip(spec_ids, batch):
            assert_outcome_equal(outcome, sequential_memo(spec_id))

    def test_worker_hard_crash_falls_back_in_process(self, gamora,
                                                     sequential_memo,
                                                     monkeypatch):
        """A worker that dies outright (simulated OOM-kill) must not hang:
        the broken executor surfaces the loss and every circuit is
        recovered in-process."""
        monkeypatch.setenv(FAULT_ENV, "exit")
        service = ReasoningService(gamora, result_cache_size=0,
                                   postprocess_workers=2)
        spec_ids = [0, 3]
        batch = service.reason_many([ZOO[i]() for i in spec_ids])
        assert batch.stats.postprocess_fallbacks == len(spec_ids)
        for spec_id, outcome in zip(spec_ids, batch):
            assert_outcome_equal(outcome, sequential_memo(spec_id))

    def test_fork_unavailable_degrades_to_in_process(self, gamora,
                                                     sequential_memo,
                                                     monkeypatch):
        monkeypatch.setattr("repro.serve.workers.fork_available", lambda: False)
        service = ReasoningService(gamora, result_cache_size=0,
                                   postprocess_workers=4)
        batch = service.reason_many([ZOO[0]()])
        assert batch.stats.postprocess_workers == 0  # degraded, not failed
        assert_outcome_equal(batch[0], sequential_memo(0))

    def test_pool_lifecycle(self):
        pool = PostprocessPool(0)
        assert not pool.parallel and pool.workers == 0
        with PostprocessPool(1) as live:
            assert live.parallel == (live.workers > 0)  # False only without fork
        assert not live.parallel  # closed on exit


class TestPersistentResultCache:
    def test_rejects_other_models(self, gamora, tmp_path):
        """A cache dir written under one model must never serve another."""
        service = ReasoningService(gamora)
        service.reason_many([ZOO[0]()])
        spill = tmp_path / "results"
        assert service.save_result_cache(spill) == 1
        # Same model: a fresh service reloads and serves hits.
        twin = ReasoningService(gamora)
        assert twin.load_result_cache(spill) == 1
        reloaded = twin.reason_many([ZOO[0]()])
        assert reloaded.stats.result_hits == 1
        # Disk-reloaded payloads re-acquire the frozen invariant for the
        # array-core tree, not just the labels (pickling drops the flag).
        with pytest.raises(ValueError):
            reloaded[0].extraction.tree.arrays().sum_var[0] = 5
        # Different weights (fresh untrained net): refuse to load...
        other = ReasoningService(Gamora(model="shallow"))
        assert other.load_result_cache(spill) == 0
        assert len(other.result_cache) == 0
        # ...and saving under the other model purges the stale entries.
        other.reason_many([ZOO[1]()])
        assert other.save_result_cache(spill) == 1
        assert twin.load_result_cache(spill) == 0  # stamp changed hands

    def test_older_format_is_invalidated(self, gamora, tmp_path,
                                         monkeypatch):
        """A v5 directory (options keys still carrying the engine field)
        loads nothing, serves cold, and is purged and respilled as v6."""
        assert ReasoningService._CACHE_FORMAT == "gamora-result-cache-v6"
        spill = tmp_path / "results"
        with monkeypatch.context() as patch:
            patch.setattr(ReasoningService, "_CACHE_FORMAT",
                          "gamora-result-cache-v5")
            old = ReasoningService(gamora)
            old.reason_many([ZOO[0]()])
            assert old.save_result_cache(spill) == 1
        marker = spill / ReasoningService._MODEL_MARKER
        assert marker.read_text().startswith("gamora-result-cache-v5:")
        stale = set(spill.glob("*.npz"))
        assert len(stale) == 1

        service = ReasoningService(gamora)
        assert service.load_result_cache(spill) == 0
        cold = service.reason_many([ZOO[0]()])
        assert cold.stats.result_hits == 0
        assert cold.stats.unique_circuits == 1
        assert service.save_result_cache(spill) == 1
        assert marker.read_text().startswith("gamora-result-cache-v6:")
        respilled = set(spill.glob("*.npz"))
        assert len(respilled) == 1 and not respilled & stale
        assert ReasoningService(gamora).load_result_cache(spill) == 1

    def test_never_touches_foreign_directories(self, gamora, tmp_path):
        """Unstamped dirs holding npz files are refused, not cleaned out."""
        service = ReasoningService(gamora)
        service.reason_many([ZOO[0]()])
        # Stamp-less entries (written via the raw cache API) never load...
        bare = tmp_path / "bare"
        service.result_cache.to_dir(bare)
        assert ReasoningService(gamora).load_result_cache(bare) == 0
        # ...and saving into a dir with foreign npz data refuses loudly
        # instead of deleting files the service never wrote.
        foreign = tmp_path / "datasets"
        foreign.mkdir()
        keep = foreign / "irreplaceable.npz"
        keep.write_bytes(b"user data, not ours")
        with pytest.raises(OSError, match="refusing"):
            service.save_result_cache(foreign)
        assert keep.read_bytes() == b"user data, not ours"
        # A user's own file that merely *shares the marker name* does not
        # make the dir service-owned: content is checked, nothing deleted.
        noted = tmp_path / "my-notes"
        noted.mkdir()
        (noted / "MODEL.tag").write_text("my experiment notes\n")
        (noted / "precious.npz").write_bytes(b"experiment data")
        with pytest.raises(OSError, match="refusing"):
            service.save_result_cache(noted)
        assert (noted / "precious.npz").read_bytes() == b"experiment data"
        assert (noted / "MODEL.tag").read_text() == "my experiment notes\n"
        assert ReasoningService.validate_cache_dir(noted) is not None


class TestPersistentGraphCache:
    def test_round_trip_restores_hit_rate(self, gamora, tmp_path):
        service = ReasoningService(gamora)
        service.reason_many([ZOO[0](), ZOO[1]()])
        spill = tmp_path / "graphs"
        assert service.save_graph_cache(spill) == 2
        # A fresh service preloads the encodings: the batch re-encodes
        # nothing (graph hits for every unique circuit).
        twin = ReasoningService(gamora)
        assert twin.load_graph_cache(spill) == 2
        stats = twin.reason_many([ZOO[0](), ZOO[1]()]).stats
        assert stats.graph_hits == 2
        assert stats.graph_misses == 0
        # Repeated saves are incremental: nothing new to write.
        assert service.save_graph_cache(spill) == 0

    def test_loaded_encodings_serve_identical_outcomes(self, gamora,
                                                       sequential_memo,
                                                       tmp_path):
        service = ReasoningService(gamora)
        service.reason_many([ZOO[2]()])
        spill = tmp_path / "graphs"
        service.save_graph_cache(spill)
        twin = ReasoningService(gamora)
        twin.load_graph_cache(spill)
        assert_outcome_equal(twin.reason_many([ZOO[2]()])[0],
                             sequential_memo(2))

    def test_rejects_other_encodings(self, gamora, tmp_path):
        """Encodings depend on feature_mode/direction — a spill written
        under a different encoding must load nothing; a retrained model
        with the same encoding must still load it."""
        service = ReasoningService(gamora)
        service.reason_many([ZOO[0]()])
        spill = tmp_path / "graphs"
        assert service.save_graph_cache(spill) == 1
        other = ReasoningService(
            Gamora(model="shallow", feature_mode="structural"))
        assert other.load_graph_cache(spill) == 0
        assert len(other.graph_cache) == 0
        # Same encoding, different (untrained) weights: graphs stay valid.
        retrained = ReasoningService(Gamora(model="shallow"))
        assert retrained.load_graph_cache(spill) == 1

    def test_never_touches_foreign_directories(self, gamora, tmp_path):
        service = ReasoningService(gamora)
        service.reason_many([ZOO[0]()])
        foreign = tmp_path / "datasets"
        foreign.mkdir()
        keep = foreign / "irreplaceable.npz"
        keep.write_bytes(b"user data, not ours")
        with pytest.raises(OSError, match="refusing"):
            service.save_graph_cache(foreign)
        assert keep.read_bytes() == b"user data, not ours"
        assert ReasoningService.validate_graph_cache_dir(foreign) is not None


class TestAdaptiveWorkerSizing:
    def test_explicit_request_wins(self):
        assert resolve_workers(3, num_payloads=1, total_ands=1) == 3
        assert resolve_workers(0, num_payloads=64, total_ands=10**9) == 0
        assert resolve_workers(-2) == 0

    def test_auto_stays_in_process_for_tiny_workloads(self, monkeypatch):
        monkeypatch.setattr("repro.serve.workers.os.cpu_count", lambda: 8)
        # Single unique circuit: nothing to overlap.
        assert resolve_workers(None, num_payloads=1, total_ands=10**9) == 0
        # Tiny total workload: fork overhead dominates.
        assert resolve_workers(None, num_payloads=4, total_ands=100) == 0

    def test_auto_scales_with_cpus_and_payloads(self, monkeypatch):
        monkeypatch.setattr("repro.serve.workers.os.cpu_count", lambda: 8)
        if not fork_available():
            pytest.skip("no fork on this platform")
        big = AUTO_MIN_TOTAL_ANDS
        # One worker per circuit, capped at cpu_count - 1.
        assert resolve_workers(None, num_payloads=3, total_ands=big) == 3
        assert resolve_workers(None, num_payloads=64, total_ands=big) == 7

    def test_auto_zero_without_fork_or_on_single_core(self, monkeypatch):
        monkeypatch.setattr("repro.serve.workers.fork_available", lambda: False)
        assert resolve_workers(None, num_payloads=8,
                               total_ands=AUTO_MIN_TOTAL_ANDS) == 0
        monkeypatch.setattr("repro.serve.workers.fork_available", lambda: True)
        monkeypatch.setattr("repro.serve.workers.os.cpu_count", lambda: 1)
        assert resolve_workers(None, num_payloads=8,
                               total_ands=AUTO_MIN_TOTAL_ANDS) == 0

    def test_service_default_autosizes_small_batches_in_process(self, gamora,
                                                                sequential_memo):
        """The zoo circuits are tiny, so the default (None) resolves to 0
        workers — results still identical to sequential."""
        service = ReasoningService(gamora, result_cache_size=0)
        assert service.postprocess_workers is None
        batch = service.reason_many([ZOO[0](), ZOO[1]()])
        assert batch.stats.postprocess_workers == 0
        assert_outcome_equal(batch[0], sequential_memo(0))
        assert_outcome_equal(batch[1], sequential_memo(1))

    def test_results_cached_through_parallel_path(self, gamora):
        service = ReasoningService(gamora, postprocess_workers=2)
        cold = service.reason_many([ZOO[0](), ZOO[1]()])
        assert cold.stats.result_hits == 0
        warm = service.reason_many([ZOO[1](), ZOO[0]()])
        assert warm.stats.result_hits == 2
        assert_outcome_equal(warm[0], cold[1])
        assert_outcome_equal(warm[1], cold[0])
