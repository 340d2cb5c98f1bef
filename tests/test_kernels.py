"""Kernel backend registry semantics and numpy/numba bit-identity.

Two invariant families:

* **Registry semantics** — selection precedence (``set_backend`` beats
  ``REPRO_KERNEL`` beats ``auto``), graceful degradation (an explicit
  ``numba`` request without numba warns and serves numpy — never an
  ImportError on a serving path), custom test backends with per-kernel
  numpy fallback, dispatch counting, and the one shared scalar-levels
  cutoff constant.  These run everywhere.
* **Differential bit-identity** — with numba installed, every kernel must
  produce *exactly* the numpy reference's output (same arrays, same
  dtypes-relevant values, same ordering) over the adder-tree circuit
  families and the degenerate graphs.  Bit-identity is what lets the
  result cache ignore the backend entirely, which the cache-sharing
  regression test at the bottom pins structurally.
"""

import numpy as np
import pytest

from repro.aig import AIG
from repro.aig.fast_cuts import enumerate_cuts_arrays
from repro.generators import booth_multiplier, csa_multiplier
from repro.generators.adders import ripple_carry_adder
from repro.kernels import registry
from repro.kernels.registry import (
    BACKEND_ENV,
    KERNEL_NAMES,
    LEVELS_SCALAR_CUTOFF,
    active_backend,
    dispatch_counts,
    get_kernel,
    kernel_stats,
    numba_available,
    register,
    requested_backend,
    reset_dispatch_counts,
    resolve_backend,
    set_backend,
    warmup,
)
from repro.reasoning.adder_tree import extract_adder_tree
from repro.reasoning.wordlevel import analyze_adder_tree
from repro.utils.random_circuits import random_aig

needs_numba = pytest.mark.skipif(
    not numba_available(), reason="numba not installed"
)


@pytest.fixture(autouse=True)
def clean_registry(monkeypatch):
    """Every test sees (and leaves behind) a pristine backend selection."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    set_backend(None)
    reset_dispatch_counts()
    saved = dict(registry._impls)
    yield
    with registry._lock:
        registry._impls.clear()
        registry._impls.update(saved)
        registry._loaded_backends.intersection_update({"numpy", "numba"})
    # Teardown runs before the env monkeypatch is undone; resolve quietly.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        set_backend(None)
    reset_dispatch_counts()


def ripple(width: int) -> AIG:
    aig = AIG()
    a_bits = aig.add_inputs(width, "a")
    b_bits = aig.add_inputs(width, "b")
    sums, cout = ripple_carry_adder(aig, a_bits, b_bits)
    for s in sums:
        aig.add_output(s)
    aig.add_output(cout)
    return aig


def one_level() -> AIG:
    aig = AIG()
    a, b = aig.add_inputs(2)
    aig.add_output(aig.add_and(a, b))
    return aig


def empty() -> AIG:
    aig = AIG()
    aig.add_inputs(3)
    return aig


# Fixture families: the adder-tree shapes the paper cares about plus the
# degenerate edges (single AND, no ANDs at all) and reconvergent noise.
CIRCUITS = {
    "ripple8": lambda: ripple(8),
    "csa8_array": lambda: csa_multiplier(8).aig,
    "csa8_wallace": lambda: csa_multiplier(8, style="wallace").aig,
    "csa6_dadda": lambda: csa_multiplier(6, style="dadda").aig,
    "booth8": lambda: booth_multiplier(8).aig,
    "random0": lambda: random_aig(num_inputs=5, num_ands=60,
                                  num_outputs=3, seed=0),
    "random1": lambda: random_aig(num_inputs=4, num_ands=80,
                                  num_outputs=2, seed=1),
    "one_level": one_level,
    "empty": empty,
}


# ---------------------------------------------------------------------------
# Registry semantics (run with or without numba)
# ---------------------------------------------------------------------------

class TestRegistrySelection:
    def test_default_is_auto(self):
        assert requested_backend() == "auto"
        assert active_backend() in ("numpy", "numba")

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        set_backend(None)  # re-read the env
        assert requested_backend() == "numpy"
        assert active_backend() == "numpy"

    def test_set_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "auto")
        assert set_backend("numpy") == "numpy"
        assert requested_backend() == "numpy"
        assert set_backend(None) == resolve_backend("auto")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_backend("fortran")

    def test_register_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            register("not_a_kernel", "numpy")

    def test_explicit_numba_missing_falls_back_with_warning(self, monkeypatch):
        # Simulate an environment without numba regardless of this one.
        monkeypatch.setattr(registry, "numba_available", lambda: False)
        real_load = registry._load_backend
        monkeypatch.setattr(
            registry, "_load_backend",
            lambda b: False if b == "numba" else real_load(b),
        )
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert set_backend("numba") == "numpy"
        # auto quietly resolves to numpy, no warning.
        assert set_backend("auto") == "numpy"

    def test_serving_path_never_importerror(self, monkeypatch):
        """REPRO_KERNEL=numba with numba absent must still serve."""
        monkeypatch.setenv(BACKEND_ENV, "numba")
        monkeypatch.setattr(registry, "numba_available", lambda: False)
        real_load = registry._load_backend
        monkeypatch.setattr(
            registry, "_load_backend",
            lambda b: False if b == "numba" else real_load(b),
        )
        with pytest.warns(RuntimeWarning):
            set_backend(None)
        assert active_backend() == "numpy"
        record = warmup()  # the daemon boot path
        assert record["backend"] == "numpy"
        tree = extract_adder_tree(csa_multiplier(4).aig)
        assert tree.num_full_adders > 0


class TestDispatchCounting:
    def test_pipeline_counts_every_kernel(self):
        set_backend("numpy")
        reset_dispatch_counts()
        aig = csa_multiplier(6).aig
        tree = extract_adder_tree(aig)
        analyze_adder_tree(aig, tree)
        counts = dispatch_counts()
        for kernel in ("merge_level", "cone_sweep", "fa_join",
                       "kahn_propagate"):
            assert counts[kernel]["numpy"] > 0, kernel
        reset_dispatch_counts()
        assert dispatch_counts() == {}

    def test_kernel_stats_shape(self):
        set_backend("numpy")
        stats = kernel_stats()
        assert stats["backend"] == "numpy"
        assert stats["requested"] == "numpy"
        assert isinstance(stats["numba_available"], bool)
        assert set(stats) == {"backend", "requested", "numba_available",
                              "warmup", "dispatch_counts"}

    def test_warmup_runs_all_kernels_then_resets(self):
        set_backend("numpy")
        record = warmup()
        assert record["backend"] == "numpy"
        assert record["seconds"] >= 0
        # Counters were reset after the warmup's own dispatches.
        assert dispatch_counts() == {}
        assert kernel_stats()["warmup"]["backend"] == "numpy"


class TestCustomBackends:
    def test_partial_backend_falls_back_per_kernel(self):
        calls = []

        @register("fa_join", "probe")
        def probe_join(maj_var, maj_key, xor_var, xor_key):
            calls.append(len(maj_var))
            from repro.kernels.numpy_backend import fa_join
            return fa_join(maj_var, maj_key, xor_var, xor_key)

        set_backend("probe")
        assert active_backend() == "probe"
        aig = csa_multiplier(5).aig
        tree = extract_adder_tree(aig)
        assert tree.num_full_adders > 0
        assert calls, "custom fa_join was not dispatched"
        counts = dispatch_counts()
        # The implemented kernel is counted under the custom backend; the
        # rest transparently served (and counted) as numpy.
        assert counts["fa_join"] == {"probe": len(calls)}
        assert counts["merge_level"] == {"numpy":
                                         counts["merge_level"]["numpy"]}
        assert counts["cone_sweep"]["numpy"] > 0

    def test_unknown_kernel_name_raises(self):
        set_backend("numpy")
        with pytest.raises(KeyError):
            get_kernel("transpose")


class TestLevelsCutoff:
    def test_single_shared_constant(self):
        assert AIG._LEVELS_VECTOR_MIN == LEVELS_SCALAR_CUTOFF

    def test_cutoff_still_monkeypatchable(self, monkeypatch):
        """Tests force the vector path by lowering the class attribute."""
        monkeypatch.setattr(AIG, "_LEVELS_VECTOR_MIN", 0)
        set_backend("numpy")
        reset_dispatch_counts()
        aig = csa_multiplier(4).aig
        lev = aig.levels()
        assert dispatch_counts()["kahn_propagate"]["numpy"] == 1
        scalar = [0] * aig.num_vars
        f0, f1 = aig.fanin_arrays()
        for var in range(1 + aig.num_inputs, aig.num_vars):
            scalar[var] = 1 + max(scalar[f0[var] >> 1], scalar[f1[var] >> 1])
        assert lev == scalar


# ---------------------------------------------------------------------------
# kahn_propagate unit tests (numpy reference vs brute force)
# ---------------------------------------------------------------------------

def brute_longest_path(num: int, edges: list[tuple[int, int]],
                       seed: np.ndarray) -> np.ndarray:
    values = seed.astype(np.int64).copy()
    changed = True
    while changed:
        changed = False
        for src, dst in edges:
            relaxed = max(values[dst], values[src] + 1)
            if relaxed != values[dst]:
                values[dst] = relaxed
                changed = True
    return values


def csr_from_edges(num: int, edges: list[tuple[int, int]]):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    order = np.argsort(src, kind="stable")
    indptr = np.searchsorted(src[order], np.arange(num + 1))
    indegree = np.bincount(dst, minlength=num).astype(np.int64)
    return indptr, dst[order], indegree


@pytest.mark.parametrize("seed", range(5))
def test_kahn_matches_brute_force(seed):
    set_backend("numpy")
    rng = np.random.default_rng(seed)
    num = 30
    edges = [(a, b) for a in range(num) for b in range(a + 1, num)
             if rng.random() < 0.15]
    if not edges:
        edges = [(0, 1)]
    start = rng.integers(0, 3, size=num)
    indptr, consumers, indegree = csr_from_edges(num, edges)
    values = start.astype(np.int64).copy()
    get_kernel("kahn_propagate")(indptr, consumers, indegree, values)
    assert np.array_equal(values, brute_longest_path(num, edges, start))


def test_kahn_empty_graph():
    set_backend("numpy")
    values = np.arange(4, dtype=np.int64)
    get_kernel("kahn_propagate")(
        np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64),
        np.zeros(4, dtype=np.int64), values,
    )
    assert np.array_equal(values, np.arange(4))


# ---------------------------------------------------------------------------
# Differential suite: numba backend must be bit-identical to numpy
# ---------------------------------------------------------------------------

def run_pipeline(aig: AIG, backend: str):
    """Everything the kernels touch, captured under one backend."""
    set_backend(backend)
    cuts = enumerate_cuts_arrays(aig, k=3, max_cuts=10)
    tree = extract_adder_tree(aig)
    report = analyze_adder_tree(aig, tree)
    return cuts, tree, report


@needs_numba
class TestNumbaBitIdentity:
    @pytest.fixture(autouse=True)
    def warm(self):
        warmup("numba")

    @pytest.mark.parametrize("name", sorted(CIRCUITS), ids=str)
    def test_pipeline_identical(self, name):
        build = CIRCUITS[name]
        ref_cuts, ref_tree, ref_report = run_pipeline(build(), "numpy")
        got_cuts, got_tree, got_report = run_pipeline(build(), "numba")
        assert np.array_equal(ref_cuts.leaves, got_cuts.leaves)
        assert np.array_equal(ref_cuts.truths, got_cuts.truths)
        assert np.array_equal(ref_cuts.sizes, got_cuts.sizes)
        assert np.array_equal(ref_cuts.counts, got_cuts.counts)
        assert got_tree.adders == ref_tree.adders
        assert got_tree.consumed == ref_tree.consumed
        assert got_report == ref_report

    @pytest.mark.parametrize("name", sorted(CIRCUITS), ids=str)
    def test_levels_identical(self, name, monkeypatch):
        monkeypatch.setattr(AIG, "_LEVELS_VECTOR_MIN", 0)
        build = CIRCUITS[name]
        set_backend("numpy")
        ref = np.asarray(build().levels_array())
        set_backend("numba")
        got = np.asarray(build().levels_array())
        assert np.array_equal(ref, got)

    def test_numba_actually_dispatches(self):
        set_backend("numba")
        reset_dispatch_counts()
        aig = csa_multiplier(6).aig
        analyze_adder_tree(aig, extract_adder_tree(aig))
        counts = dispatch_counts()
        for kernel in KERNEL_NAMES:
            backends = counts.get(kernel, {})
            assert "numpy" not in backends, (kernel, counts)

    def test_small_pack_limit_identical(self):
        """The compaction path (tiny pack_limit) stays backend-identical."""
        aig = csa_multiplier(6).aig
        set_backend("numpy")
        ref = enumerate_cuts_arrays(aig, max_cuts=6, pack_limit=128)
        set_backend("numba")
        got = enumerate_cuts_arrays(aig, max_cuts=6, pack_limit=128)
        assert np.array_equal(ref.leaves, got.leaves)
        assert np.array_equal(ref.truths, got.truths)
        assert np.array_equal(ref.sizes, got.sizes)
        assert np.array_equal(ref.counts, got.counts)


# ---------------------------------------------------------------------------
# Satellite: backend choice must not fragment the result cache
# ---------------------------------------------------------------------------

class TestCacheSharingAcrossBackends:
    def test_result_cache_hits_across_backends(self):
        """A result computed under one backend is served from cache under
        another: the backend is structurally absent from the options key.

        Uses a numpy-aliasing custom backend so the test runs (and means
        the same thing) whether or not numba is installed; with numba
        present the differential suite above is what makes the aliasing
        sound for the real pair.
        """
        from repro.core import Gamora
        from repro.kernels import numpy_backend
        from repro.learn import TrainConfig
        from repro.serve import ReasoningService

        for kernel in KERNEL_NAMES:
            register(kernel, "mirror")(getattr(numpy_backend, kernel))

        gamora = Gamora(model="shallow", train_config=TrainConfig(epochs=30))
        gamora.fit([csa_multiplier(4)])
        service = ReasoningService(gamora)
        circuit = csa_multiplier(5).aig

        set_backend("numpy")
        service.reason_many([circuit])
        first = service.cache_stats()["result"]
        assert first["misses"] >= 1

        set_backend("mirror")
        service.reason_many([circuit])
        second = service.cache_stats()["result"]
        assert second["hits"] == first["hits"] + 1
        assert second["misses"] == first["misses"]


# ---------------------------------------------------------------------------
# Daemon surfacing
# ---------------------------------------------------------------------------

class TestDaemonSurfacing:
    @pytest.fixture(scope="class")
    def gamora(self):
        from repro.core import Gamora
        from repro.learn import TrainConfig

        model = Gamora(model="shallow", train_config=TrainConfig(epochs=30))
        model.fit([csa_multiplier(4)])
        return model

    def test_ping_and_stats_report_backend(self, gamora):
        from repro.serve import DaemonClient, GamoraDaemon

        set_backend("numpy")
        with GamoraDaemon(gamora) as daemon:
            assert daemon.kernel_warmup is not None
            assert daemon.kernel_warmup["backend"] == "numpy"
            client = DaemonClient(daemon)
            pong = client.ping()
            assert pong["ok"] and pong["kernel_backend"] == "numpy"
            reply = client.reason(csa_multiplier(4).aig, request_id="r1")
            assert reply["ok"]
            assert reply["stats"]["kernel_backend"] == "numpy"
            snap = client.stats()
            kernels = snap["stats"]["kernels"]
            assert kernels["backend"] == "numpy"
            assert kernels["warmup"]["backend"] == "numpy"
            assert kernels["dispatch_counts"], "no dispatches recorded"
