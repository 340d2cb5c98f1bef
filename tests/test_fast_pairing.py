"""Differential tests: array-shaped pairing vs the per-root oracle loop.

``extract_adder_tree`` replaced the per-root Python pairing behind label
generation and prediction post-processing, so it must agree with the
per-root loop of ``tests/oracles/`` *exactly* — same adders in the same
order, same ``consumed`` set — on every netlist family (mirroring
``tests/test_fast_cuts.py`` for the cut sweep).  Both must also be
deterministic functions of the detection *content*: shuffling dict
insertion order or leaf-set list order must not change the tree.
"""

import random
from pathlib import Path

import numpy as np
import pytest

import oracles
from repro.aig import AIG, lit_var, read_aiger
from repro.generators import booth_multiplier, csa_multiplier
from repro.generators.adders import reduce_columns, ripple_carry_adder
from repro.generators.components import full_adder, half_adder
from repro.reasoning import (
    XorMajDetection,
    detect_xor_maj,
    extract_adder_tree,
    ground_truth_labels,
    ha_carry_candidates,
    maximum_bipartite_matching,
)
from repro.reasoning.adder_tree import AdderTree, ExtractedAdder
from repro.reasoning.fast_pairing import PairingCandidates
from repro.utils.random_circuits import random_aig

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.aag"))

# Pairing implementations under test, keyed by parametrize id ("legacy"
# is the per-root oracle).
EXTRACTORS = {"fast": extract_adder_tree,
              "legacy": oracles.extract_adder_tree}


def assert_trees_equal(want: AdderTree, got: AdderTree, tag: str = "") -> None:
    assert got.adders == want.adders, tag
    assert got.consumed == want.consumed, tag
    assert got.links() == want.links(), tag


def assert_engines_agree(aig: AIG, max_cuts: int = 10) -> AdderTree:
    detection = detect_xor_maj(aig, max_cuts=max_cuts)
    legacy = oracles.extract_adder_tree(aig, detection)
    fast = extract_adder_tree(aig, detection)
    assert_trees_equal(legacy, fast, "explicit detection")
    # detection=None: pairing consumes the CutArrays sweep directly.
    fast_sweep = extract_adder_tree(aig, max_cuts=max_cuts)
    assert_trees_equal(legacy, fast_sweep, "shared-sweep path")
    return legacy


def ripple(width: int) -> AIG:
    aig = AIG()
    a_bits = aig.add_inputs(width, "a")
    b_bits = aig.add_inputs(width, "b")
    sums, cout = ripple_carry_adder(aig, a_bits, b_bits)
    for s in sums:
        aig.add_output(s)
    aig.add_output(cout)
    return aig


class TestExtractionEquivalence:
    @pytest.mark.parametrize("width", [2, 4, 8, 16])
    def test_ripple_carry(self, width):
        tree = assert_engines_agree(ripple(width))
        assert tree.num_full_adders == width - 1
        assert tree.num_half_adders == 1

    @pytest.mark.parametrize("width", [3, 4, 8])
    def test_csa_multipliers(self, width):
        gen = csa_multiplier(width)
        tree = assert_engines_agree(gen.aig)
        assert tree.num_full_adders == gen.trace.num_full_adders
        assert tree.num_half_adders == gen.trace.num_half_adders

    @pytest.mark.parametrize("width", [4, 6, 8])
    def test_booth_multipliers(self, width):
        """Booth netlists have coincident leaf sets: the matching is
        genuinely ambiguous, so this exercises the Kuhn remainder path."""
        assert_engines_agree(booth_multiplier(width).aig)

    def test_csa_reduction_block(self):
        aig = AIG()
        rows = [
            {position: [lit] for position, lit in
             enumerate(aig.add_inputs(6, f"r{k}"))}
            for k in range(4)
        ]
        columns = reduce_columns(aig, rows, style="wallace")
        for bits in columns.values():
            for lit in bits:
                aig.add_output(lit)
        assert_engines_agree(aig)

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_aiger_fixtures(self, path):
        assert_engines_agree(read_aiger(path))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_circuits(self, seed):
        aig = random_aig(num_inputs=5, num_ands=40, num_outputs=3, seed=seed)
        assert_engines_agree(aig)

    @pytest.mark.parametrize("seed", range(8))
    def test_dense_reconvergent(self, seed):
        aig = random_aig(num_inputs=3, num_ands=60, num_outputs=2,
                         seed=4000 + seed)
        assert_engines_agree(aig, max_cuts=4)

    def test_degenerate_graphs(self):
        assert_engines_agree(AIG())  # empty
        pis_only = AIG()
        pis_only.add_inputs(4)
        assert_engines_agree(pis_only)
        xor_only = AIG()
        a, b = xor_only.add_inputs(2)
        xor_only.add_output(xor_only.add_xor(a, b))
        tree = assert_engines_agree(xor_only)
        assert not tree.adders  # XOR without a carry AND is not an adder

    def test_single_slices(self):
        fa = AIG()
        a, b, c = fa.add_inputs(3)
        full_adder(fa, a, b, c)
        tree = assert_engines_agree(fa)
        assert (tree.num_full_adders, tree.num_half_adders) == (1, 0)
        ha = AIG()
        a, b = ha.add_inputs(2)
        half_adder(ha, a, b)
        tree = assert_engines_agree(ha)
        assert (tree.num_full_adders, tree.num_half_adders) == (0, 1)

    def test_ground_truth_labels_engine_equivalence(self, csa4):
        fast = ground_truth_labels(csa4.aig)
        detection = oracles.detect_xor_maj(csa4.aig)
        legacy = ground_truth_labels(
            csa4.aig, detection,
            oracles.extract_adder_tree(csa4.aig, detection),
        )
        for task in ("root", "xor", "maj"):
            np.testing.assert_array_equal(fast[task], legacy[task])

    def test_unknown_engine_rejected(self, csa4):
        """The retired ``engine`` keyword is rejected, never ignored."""
        with pytest.raises(TypeError):
            extract_adder_tree(csa4.aig, engine="legacy")


def _shuffled_detection(detection: XorMajDetection,
                        seed: int) -> XorMajDetection:
    """Same content, adversarial insertion and list order."""
    rng = random.Random(seed)

    def scramble(mapping):
        keys = list(mapping)
        rng.shuffle(keys)
        out = {}
        for key in keys:
            sets = list(mapping[key])
            rng.shuffle(sets)
            out[key] = sets
        return out

    return XorMajDetection(xor_roots=scramble(detection.xor_roots),
                           maj_roots=scramble(detection.maj_roots))


class TestDeterminism:
    """The satellite bugfix: pairing must not depend on dict order."""

    @pytest.mark.parametrize("engine", ["fast", "legacy"])
    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_detection_is_irrelevant(self, booth4, engine, seed):
        aig = booth4.aig
        detection = detect_xor_maj(aig)
        extract = EXTRACTORS[engine]
        reference = extract(aig, detection)
        shuffled = _shuffled_detection(detection, seed)
        assert_trees_equal(reference, extract(aig, shuffled))

    def test_engines_agree_on_shuffled_detection(self, booth4):
        aig = booth4.aig
        shuffled = _shuffled_detection(detect_xor_maj(aig), 99)
        assert_trees_equal(
            oracles.extract_adder_tree(aig, shuffled),
            extract_adder_tree(aig, shuffled),
        )

    def test_repeated_runs_identical(self, csa4):
        first = extract_adder_tree(csa4.aig)
        second = extract_adder_tree(csa4.aig)
        assert_trees_equal(first, second)


class TestConsumedInvariant:
    """``consumed`` never overlaps a later match: replaying the emission
    order, every adder's roots must still be free when it is emitted."""

    @pytest.mark.parametrize("engine", ["fast", "legacy"])
    @pytest.mark.parametrize("make", [
        lambda: csa_multiplier(8).aig,
        lambda: booth_multiplier(8).aig,
        lambda: ripple(8),
    ], ids=["csa8", "booth8", "ripple8"])
    def test_no_overlap_with_later_match(self, engine, make):
        aig = make()
        tree = EXTRACTORS[engine](aig)
        consumed_so_far: set[int] = set()
        for adder in tree.adders:
            assert adder.sum_var not in consumed_so_far, adder
            assert adder.carry_var not in consumed_so_far, adder
            leaf_set = set(adder.leaves)
            interior = oracles.cone_between(aig, adder.sum_var, leaf_set)
            interior |= oracles.cone_between(aig, adder.carry_var, leaf_set)
            consumed_so_far |= interior
            consumed_so_far.add(adder.sum_var)
            consumed_so_far.add(adder.carry_var)
        assert consumed_so_far == tree.consumed

    @pytest.mark.parametrize("seed", range(10))
    def test_no_overlap_random(self, seed):
        aig = random_aig(num_inputs=4, num_ands=50, num_outputs=3,
                         seed=5000 + seed)
        tree = extract_adder_tree(aig)
        consumed_so_far: set[int] = set()
        for adder in tree.adders:
            assert adder.sum_var not in consumed_so_far
            assert adder.carry_var not in consumed_so_far
            leaf_set = set(adder.leaves)
            for root in (adder.sum_var, adder.carry_var):
                consumed_so_far |= oracles.cone_between(aig, root, leaf_set)
            consumed_so_far |= {adder.sum_var, adder.carry_var}


class TestLinksDedup:
    """The satellite bugfix: one edge per (producer, consumer) pair."""

    def test_sum_and_carry_into_one_consumer(self):
        tree = AdderTree(adders=[
            ExtractedAdder("HA", 4, 5, (1, 2)),
            ExtractedAdder("FA", 8, 9, (4, 5, 3)),  # reads sum AND carry
        ])
        assert tree.links() == [(0, 1)]

    def test_distinct_consumers_keep_their_edges(self):
        tree = AdderTree(adders=[
            ExtractedAdder("HA", 4, 5, (1, 2)),
            ExtractedAdder("FA", 8, 9, (4, 3, 6)),
            ExtractedAdder("FA", 11, 12, (5, 7, 10)),
        ])
        assert tree.links() == [(0, 1), (0, 2)]

    def test_self_edges_still_excluded(self):
        tree = AdderTree(adders=[ExtractedAdder("HA", 4, 5, (4, 5))])
        assert tree.links() == []

    def test_compressor_chain_extraction(self):
        """End to end: a 4:2 compressor column where one FA reads both
        outputs of the previous stage must produce deduped links."""
        aig = AIG()
        a, b, c, d = aig.add_inputs(4)
        s1, c1 = full_adder(aig, a, b, c)
        s2, c2 = full_adder(aig, s1, c1, d)
        aig.add_output(s2)
        aig.add_output(c2)
        tree = assert_engines_agree(aig)
        links = tree.links()
        assert len(links) == len(set(links))


class TestCarryPoolCache:
    """The satellite bugfix: the HA carry pool is built once per graph."""

    def test_cached_between_calls(self, csa4):
        first = ha_carry_candidates(csa4.aig)
        assert ha_carry_candidates(csa4.aig) is first

    def test_invalidated_on_mutation(self):
        aig = AIG()
        a, b, c = aig.add_inputs(3)
        aig.add_and(a, b)
        before = ha_carry_candidates(aig)
        assert (lit_var(a), lit_var(b)) in before
        aig.add_and(a, c)
        after = ha_carry_candidates(aig)
        assert after is not before
        assert (lit_var(a), lit_var(c)) in after
        # Stale mapping must not have been mutated in place either.
        assert (lit_var(a), lit_var(c)) not in before

    def test_matches_unchached_reference(self, csa4):
        reference: dict[tuple[int, int], list[int]] = {}
        for var, f0, f1 in csa4.aig.iter_ands():
            v0, v1 = f0 >> 1, f1 >> 1
            if v0 == v1:
                continue
            key = (v0, v1) if v0 < v1 else (v1, v0)
            reference.setdefault(key, []).append(var)
        assert ha_carry_candidates(csa4.aig) == reference


class TestMatching:
    def test_maximum_on_crown(self):
        # 2-maj / 2-xor crown: greedy left-to-right would starve one side.
        adjacency = {0: [10], 1: [10, 11]}
        matching = maximum_bipartite_matching(adjacency)
        assert matching == {0: 10, 1: 11}

    def test_augmenting_chain(self):
        adjacency = {0: [10, 11], 1: [10], 2: [11]}
        matching = maximum_bipartite_matching(adjacency)
        assert len(matching) == 2  # maximum: one of {0,1,2} stays unmatched

    @pytest.mark.parametrize("seed", range(10))
    def test_cardinality_matches_networkx(self, seed):
        nx = pytest.importorskip("networkx")

        rng = random.Random(seed)
        adjacency = {
            left: sorted(rng.sample(range(100, 115), rng.randint(1, 4)))
            for left in range(12)
        }
        matching = maximum_bipartite_matching(adjacency)
        graph = nx.Graph()
        for left, partners in adjacency.items():
            for right in partners:
                graph.add_edge(("l", left), ("r", right))
        reference = nx.bipartite.hopcroft_karp_matching(
            graph, top_nodes=[("l", left) for left in adjacency]
        )
        assert len(matching) == len(reference) // 2
        # Sanity: it is a matching over real edges.
        assert len(set(matching.values())) == len(matching)
        for left, right in matching.items():
            assert right in adjacency[left]

    def test_deterministic_under_dict_order(self):
        adjacency = {2: [11, 10], 0: [10], 1: [11, 10]}
        reordered = {0: [10], 1: [10, 11], 2: [10, 11]}
        assert (maximum_bipartite_matching(adjacency)
                == maximum_bipartite_matching(reordered))


class TestPairingCandidates:
    def test_from_cut_arrays_matches_from_detection(self, csa4):
        from repro.aig.fast_cuts import enumerate_cuts_arrays, matched_leaf_sets

        arrays = enumerate_cuts_arrays(csa4.aig, k=3, max_cuts=10)
        xor_sets, maj_sets = matched_leaf_sets(arrays)
        detection = XorMajDetection(xor_roots=xor_sets, maj_roots=maj_sets)
        direct = PairingCandidates.from_cut_arrays(arrays)
        via_dicts = PairingCandidates.from_detection(detection,
                                                     csa4.aig.num_vars)
        for field in ("xor2_var", "xor2_leaves", "xor3_var", "xor3_leaves",
                      "maj_var", "maj_leaves"):
            np.testing.assert_array_equal(getattr(direct, field),
                                          getattr(via_dicts, field), field)

    def test_empty_detection(self):
        cands = PairingCandidates.from_detection(XorMajDetection(), 10)
        assert len(cands.xor2_var) == 0
        assert len(cands.maj_var) == 0

    def test_edge_join_overflow_compaction(self, csa4):
        """A leaf universe too large for a raw num_vars**3 pack must take
        the compaction branch and produce the same edges."""
        from repro.reasoning.fast_pairing import _full_adder_edges

        detection = detect_xor_maj(csa4.aig)
        normal = PairingCandidates.from_detection(detection,
                                                  csa4.aig.num_vars)
        inflated = PairingCandidates.from_detection(detection, 3_000_000)
        assert 3_000_000 ** 3 >= np.iinfo(np.int64).max  # branch really taken
        for got, want in zip(_full_adder_edges(inflated),
                             _full_adder_edges(normal)):
            np.testing.assert_array_equal(got, want)
