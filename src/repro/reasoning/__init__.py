"""Exact symbolic reasoning: the conventional baseline Gamora learns to imitate."""

from repro.reasoning.xor_maj import XorMajDetection, detect_xor_maj, ha_carry_candidates
from repro.reasoning.matching import maximum_bipartite_matching
from repro.reasoning.structural import detect_xor_maj_structural, match_xor_operands
from repro.reasoning.fast_pairing import (
    PairingCandidates,
    batched_cones,
    pair_candidates,
)
from repro.reasoning.adder_tree import (
    NUM_TASK1_CLASSES,
    TASK1_LEAF,
    TASK1_OTHER,
    TASK1_ROOT,
    TASK1_ROOT_LEAF,
    AdderTree,
    AdderTreeArrays,
    ExtractedAdder,
    extract_adder_tree,
    ground_truth_labels,
)
from repro.reasoning.wordlevel import (
    WordLevelReport,
    analyze_adder_tree,
    analyze_adder_trees,
    compare_adder_trees,
    partial_product_leaves,
)

__all__ = [
    "XorMajDetection",
    "detect_xor_maj",
    "ha_carry_candidates",
    "maximum_bipartite_matching",
    "PairingCandidates",
    "batched_cones",
    "pair_candidates",
    "detect_xor_maj_structural",
    "match_xor_operands",
    "NUM_TASK1_CLASSES",
    "TASK1_LEAF",
    "TASK1_OTHER",
    "TASK1_ROOT",
    "TASK1_ROOT_LEAF",
    "AdderTree",
    "AdderTreeArrays",
    "ExtractedAdder",
    "extract_adder_tree",
    "ground_truth_labels",
    "WordLevelReport",
    "analyze_adder_tree",
    "analyze_adder_trees",
    "compare_adder_trees",
    "partial_product_leaves",
]
