"""Kernel backend registry semantics and numpy/compiled bit-identity.

Two invariant families:

* **Registry semantics** — selection precedence (``set_backend`` beats
  ``REPRO_KERNEL`` beats ``auto``), graceful degradation (an explicit
  ``numba`` or ``c`` request that cannot be served warns and serves numpy
  — never an ImportError or a build error on a serving path), the C
  library's build cache (ownership and permission checks, concurrent
  builders), custom test backends with per-kernel numpy fallback,
  dispatch counting, and the one shared scalar-levels cutoff constant.
  These run everywhere.
* **Differential bit-identity** — for each compiled backend that loads
  here (``c`` wherever a C compiler works, ``numba`` when installed),
  every kernel must produce *exactly* the numpy reference's output (same
  arrays, same dtypes-relevant values, same ordering) over the adder-tree
  circuit families, random circuits and the degenerate graphs.
  Bit-identity is what lets the result cache ignore the backend entirely,
  which the cache-sharing regression test at the bottom pins
  structurally.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.aig import AIG
from repro.aig.fast_cuts import enumerate_cuts_arrays
from repro.generators import booth_multiplier, csa_multiplier
from repro.generators.adders import ripple_carry_adder
from repro.kernels import c_backend, registry
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
needs_c = pytest.mark.skipif(
    not registry._load_backend("c"), reason="the C kernels do not build here"
)
# Every compiled backend, gated on whether it loads in this environment.
COMPILED = [pytest.param("c", marks=needs_c),
            pytest.param("numba", marks=needs_numba)]
# The kernels each compiled backend implements (the rest serve from numpy).
IMPLEMENTED = {"c": {"merge_level", "kahn_propagate"},
               "numba": set(KERNEL_NAMES)}


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
        registry._loaded_backends.intersection_update({"numpy", "numba",
                                                       "c"})
    # Teardown runs before the env monkeypatch is undone; resolve quietly.
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
    # Constant and PI outputs, constant-folded fan-ins.
    "random_const2": lambda: random_aig(num_inputs=6, num_ands=200,
                                        num_outputs=5, seed=2,
                                        allow_constants=True),
    "random_const3": lambda: random_aig(num_inputs=8, num_ands=400,
                                        num_outputs=6, seed=3,
                                        allow_constants=True),
    "one_level": one_level,
    "empty": empty,
}


# ---------------------------------------------------------------------------
# Registry semantics (run with or without numba)
# ---------------------------------------------------------------------------

class TestRegistrySelection:
    def test_default_is_auto(self):
        assert requested_backend() == "auto"
        assert active_backend() in ("numpy", "c", "numba")

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
        # Simulate an environment without numba (and, so that auto has no
        # compiled backend left, without the C kernels) regardless of this
        # one.
        monkeypatch.setattr(registry, "numba_available", lambda: False)
        real_load = registry._load_backend
        monkeypatch.setattr(
            registry, "_load_backend",
            lambda b: False if b in ("numba", "c") else real_load(b),
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
# Differential suite: every compiled backend must be bit-identical to numpy
# ---------------------------------------------------------------------------

# Cut-sweep parameters beyond the pipeline's (k=3, max_cuts=10): a single
# kept cut, a slot count past the candidate grid of most nodes, 2-cuts,
# and no trivial cut.
CUT_PARAMS = {
    "k3m1": dict(k=3, max_cuts=1),
    "k3m40": dict(k=3, max_cuts=40),
    "k2m4": dict(k=2, max_cuts=4),
    "k3m6_no_trivial": dict(k=3, max_cuts=6, include_trivial=False),
}


def run_pipeline(aig: AIG, backend: str):
    """Everything the kernels touch, captured under one backend."""
    set_backend(backend)
    cuts = enumerate_cuts_arrays(aig, k=3, max_cuts=10)
    tree = extract_adder_tree(aig)
    report = analyze_adder_tree(aig, tree)
    return cuts, tree, report


def assert_same_cuts(ref, got) -> None:
    assert np.array_equal(ref.leaves, got.leaves)
    assert np.array_equal(ref.truths, got.truths)
    assert np.array_equal(ref.sizes, got.sizes)
    assert np.array_equal(ref.counts, got.counts)


@pytest.mark.parametrize("backend", COMPILED)
class TestCompiledBitIdentity:
    @pytest.fixture(autouse=True)
    def warm(self, backend):
        warmup(backend)

    @pytest.mark.parametrize("name", sorted(CIRCUITS), ids=str)
    def test_pipeline_identical(self, name, backend):
        build = CIRCUITS[name]
        ref_cuts, ref_tree, ref_report = run_pipeline(build(), "numpy")
        got_cuts, got_tree, got_report = run_pipeline(build(), backend)
        assert_same_cuts(ref_cuts, got_cuts)
        assert got_tree.adders == ref_tree.adders
        assert got_tree.consumed == ref_tree.consumed
        assert got_report == ref_report

    @pytest.mark.parametrize("params", sorted(CUT_PARAMS), ids=str)
    @pytest.mark.parametrize("name", sorted(CIRCUITS), ids=str)
    def test_cut_params_identical(self, name, params, backend):
        aig = CIRCUITS[name]()
        set_backend("numpy")
        ref = enumerate_cuts_arrays(aig, **CUT_PARAMS[params])
        set_backend(backend)
        got = enumerate_cuts_arrays(aig, **CUT_PARAMS[params])
        assert_same_cuts(ref, got)

    @pytest.mark.parametrize("name", sorted(CIRCUITS), ids=str)
    def test_levels_identical(self, name, backend, monkeypatch):
        monkeypatch.setattr(AIG, "_LEVELS_VECTOR_MIN", 0)
        build = CIRCUITS[name]
        set_backend("numpy")
        ref = np.asarray(build().levels_array())
        set_backend(backend)
        got = np.asarray(build().levels_array())
        assert np.array_equal(ref, got)

    def test_actually_dispatches(self, backend):
        set_backend(backend)
        reset_dispatch_counts()
        aig = csa_multiplier(6).aig
        analyze_adder_tree(aig, extract_adder_tree(aig))
        counts = dispatch_counts()
        for kernel in KERNEL_NAMES:
            served = set(counts.get(kernel, {}))
            if kernel in IMPLEMENTED[backend]:
                assert served == {backend}, (kernel, counts)
            else:
                assert served == {"numpy"}, (kernel, counts)

    @pytest.mark.parametrize("params", [None, *sorted(CUT_PARAMS)], ids=str)
    def test_small_pack_limit_identical(self, params, backend):
        """The compaction path (tiny pack_limit) stays backend-identical."""
        aig = csa_multiplier(6).aig
        kwargs = dict(CUT_PARAMS[params]) if params else dict(max_cuts=6)
        slots = kwargs["max_cuts"] + kwargs.get("include_trivial", True)
        kwargs["pack_limit"] = max(128, 6 * slots + 2)
        set_backend("numpy")
        ref = enumerate_cuts_arrays(aig, **kwargs)
        set_backend(backend)
        got = enumerate_cuts_arrays(aig, **kwargs)
        assert_same_cuts(ref, got)


# ---------------------------------------------------------------------------
# The C backend: wrapper checks, build fallback and the build cache
# ---------------------------------------------------------------------------

@needs_c
class TestCWrapper:
    def sweep_columns(self, num_vars: int, slots: int):
        leaves = np.full((num_vars, slots, 3), num_vars, dtype=np.int32)
        truths = np.zeros((num_vars, slots), dtype=np.uint8)
        sizes = np.zeros((num_vars, slots), dtype=np.int8)
        counts = np.zeros(num_vars, dtype=np.int32)
        return leaves, truths, sizes, counts

    def test_in_place_arrays_are_checked_not_copied(self):
        set_backend("c")
        merge = get_kernel("merge_level")
        aig = one_level()
        fanin0, fanin1 = aig.fanin_arrays()
        batch = np.array([aig.num_vars - 1])
        options = dict(k=3, max_cuts=2, include_trivial=True,
                       pad=aig.num_vars, pack_limit=0)
        leaves, truths, sizes, counts = self.sweep_columns(aig.num_vars, 3)
        with pytest.raises(TypeError, match="counts must be"):
            merge(batch, fanin0, fanin1, leaves, truths, sizes,
                  counts.astype(np.int64), **options)
        wide = np.zeros((aig.num_vars, 6), dtype=np.uint8)
        with pytest.raises(TypeError, match="truths must be"):
            merge(batch, fanin0, fanin1, leaves, wide[:, ::2], sizes,
                  counts, **options)
        indegree = np.zeros(3, dtype=np.int64)
        with pytest.raises(TypeError, match="values must be"):
            get_kernel("kahn_propagate")(
                np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64),
                indegree, np.zeros(3, dtype=np.int32))

    def test_out_of_range_input_raises(self):
        set_backend("c")
        aig = one_level()
        fanin0, fanin1 = aig.fanin_arrays()
        columns = self.sweep_columns(aig.num_vars, 3)
        with pytest.raises(ValueError, match="out of range"):
            get_kernel("merge_level")(
                np.array([aig.num_vars]), fanin0, fanin1, *columns,
                k=3, max_cuts=2, include_trivial=True, pad=aig.num_vars,
                pack_limit=0)
        with pytest.raises(ValueError, match="out of range"):
            get_kernel("kahn_propagate")(
                np.array([0, 1, 1], dtype=np.int64),
                np.array([5], dtype=np.int64),
                np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64))


def write_compiler(directory: Path, script: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "cc"
    path.write_text("#!/bin/sh\n" + script + "\n")
    path.chmod(0o755)
    return directory


class TestCBuildFallback:
    @pytest.fixture(autouse=True)
    def unloaded(self, monkeypatch, tmp_path):
        """The c backend not yet loaded, with an empty private cache."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        with registry._lock:
            was_loaded = "c" in registry._loaded_backends
            registry._loaded_backends.discard("c")
            for kernel in KERNEL_NAMES:
                registry._impls.pop((kernel, "c"), None)
        yield
        with registry._lock:
            registry._load_errors.pop("c", None)
            if was_loaded:
                registry._loaded_backends.add("c")

    @pytest.mark.parametrize("compiler", ["missing", "failing"])
    def test_auto_quiet_explicit_warns(self, compiler, monkeypatch, tmp_path):
        if compiler == "missing":
            bin_dir = tmp_path / "empty-bin"
            bin_dir.mkdir()
            reason = "no C compiler"
        else:
            bin_dir = write_compiler(tmp_path / "bin",
                                     "echo broken >&2; exit 1")
            reason = "exited 1"
        monkeypatch.setenv("PATH", str(bin_dir))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert set_backend("auto") != "c"
        with pytest.warns(RuntimeWarning, match=reason):
            assert set_backend("c") == "numpy"
        assert "c" not in registry._loaded_backends
        assert not list((tmp_path / "cache").rglob("*.so*"))

    def test_serving_path_never_build_error(self, monkeypatch, tmp_path):
        """REPRO_KERNEL=c without a working compiler must still serve."""
        monkeypatch.setenv("PATH", str(write_compiler(tmp_path / "bin",
                                                      "exit 3")))
        monkeypatch.setenv(BACKEND_ENV, "c")
        with pytest.warns(RuntimeWarning, match="falling back"):
            set_backend(None)
        assert active_backend() == "numpy"
        record = warmup()  # the daemon boot path
        assert record["backend"] == "numpy"
        tree = extract_adder_tree(csa_multiplier(4).aig)
        assert tree.num_full_adders > 0


def c_kernels_work() -> bool:
    """Run the freshly registered c kahn kernel on a two-edge chain."""
    values = np.zeros(3, dtype=np.int64)
    registry._impls[("kahn_propagate", "c")](
        np.array([0, 1, 2, 2]), np.array([1, 2]),
        np.array([0, 1, 1], dtype=np.int64), values)
    return values.tolist() == [0, 1, 2]


@needs_c
class TestCBuildCache:
    @pytest.fixture()
    def cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        return tmp_path / "cache" / "repro"

    def test_builds_into_private_cache(self, cache):
        path = c_backend.load()
        assert path.parent == cache and path.exists()
        assert cache.stat().st_mode & 0o777 == 0o700
        assert path.stat().st_mode & 0o077 == 0
        assert not list(cache.glob("*.partial"))
        assert c_backend.load() == path  # reused, not rebuilt
        assert c_kernels_work()

    def test_writable_cache_dir_not_used(self, cache):
        cache.mkdir(parents=True)
        cache.chmod(0o777)
        path = c_backend.load()
        assert cache not in path.parents
        assert not path.parent.exists()  # the private build dir is removed
        assert list(cache.iterdir()) == []
        assert c_kernels_work()

    def test_writable_library_not_loaded(self, cache):
        cache.mkdir(parents=True, mode=0o700)
        name = c_backend.library_name(c_backend.compile_command())
        planted = cache / name
        planted.write_bytes(b"not a shared library")
        planted.chmod(0o666)
        path = c_backend.load()  # loading the planted file would raise
        assert path.parent != cache
        assert planted.read_bytes() == b"not a shared library"
        assert c_kernels_work()

    def test_foreign_owner_not_loaded(self, cache, monkeypatch):
        built = c_backend.load()
        assert built.parent == cache
        real_uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: real_uid + 1)
        path = c_backend.load()
        assert path.parent != cache
        assert c_kernels_work()

    def test_concurrent_builders_share_the_cache(self, cache):
        script = (
            "import numpy as np\n"
            "from repro.kernels import c_backend, registry\n"
            "path = c_backend.load()\n"
            "values = np.zeros(3, dtype=np.int64)\n"
            "registry._impls[('kahn_propagate', 'c')](np.array([0, 1, 2, 2]),"
            " np.array([1, 2]), np.array([0, 1, 1]), values)\n"
            "assert values.tolist() == [0, 1, 2]\n"
            "print(path)\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        builders = [subprocess.Popen([sys.executable, "-c", script], env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
                    for _ in range(2)]
        outputs = [builder.communicate(timeout=120) for builder in builders]
        for builder, (out, err) in zip(builders, outputs):
            assert builder.returncode == 0, err
        paths = {Path(out.strip()) for out, _ in outputs}
        assert len(paths) == 1
        (path,) = paths
        assert path.parent == cache
        assert sorted(cache.iterdir()) == [path]


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
