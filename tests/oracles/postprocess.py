"""Per-node post-processing: local ``node_cuts`` cones around each flag.

Reference for :mod:`repro.core.postprocess`.  Every flagged node re-derives
a depth-bounded local cone with :func:`~repro.aig.cuts.node_cuts` instead
of reading one shared whole-graph sweep, and pairing runs the per-root loop
of :mod:`oracles.pairing`.  On depth-limit boundary cases a local cone can
truncate cut lists differently from the global enumeration; real adder
structures span few levels, so extractions agree in practice (asserted on
fixtures, multipliers and random circuits by ``tests/test_fast_cuts.py``).
"""

from __future__ import annotations

import numpy as np

from repro.aig.cuts import node_cuts
from repro.aig.graph import AIG, lit_var
from repro.aig.npn import is_maj_truth, is_xor_truth
from repro.core.postprocess import PredictedExtraction, _root_flags
from repro.reasoning.adder_tree import (
    TASK1_LEAF,
    TASK1_OTHER,
    TASK1_ROOT,
    TASK1_ROOT_LEAF,
)
from repro.reasoning.xor_maj import XorMajDetection

from .pairing import extract_adder_tree


def _node_xor_sets(aig: AIG, var: int, max_cuts: int) -> list[tuple[int, ...]]:
    return [
        cut.leaves
        for cut in node_cuts(aig, var, k=3, max_cuts=max_cuts)
        if (cut.size == 2 and is_xor_truth(cut.truth, 2))
        or (cut.size == 3 and is_xor_truth(cut.truth, 3))
    ]


def _node_maj_sets(aig: AIG, var: int, max_cuts: int) -> list[tuple[int, ...]]:
    return [
        cut.leaves
        for cut in node_cuts(aig, var, k=3, max_cuts=max_cuts)
        if cut.size == 3 and is_maj_truth(cut.truth, 3)
    ]


def _node_xor_maj_sets(
    aig: AIG, var: int, max_cuts: int,
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Both classifications from a single cut enumeration (LSB path)."""
    xor_sets: list[tuple[int, ...]] = []
    maj_sets: list[tuple[int, ...]] = []
    for cut in node_cuts(aig, var, k=3, max_cuts=max_cuts):
        if cut.size == 2 and is_xor_truth(cut.truth, 2):
            xor_sets.append(cut.leaves)
        elif cut.size == 3:
            if is_xor_truth(cut.truth, 3):
                xor_sets.append(cut.leaves)
            elif is_maj_truth(cut.truth, 3):
                maj_sets.append(cut.leaves)
    return xor_sets, maj_sets


def predictions_to_detection(
    aig: AIG,
    labels: dict[str, np.ndarray],
    root_filter: bool = True,
    max_cuts: int = 10,
) -> tuple[XorMajDetection, list[int], list[int]]:
    """Turn predicted labels into a cut-verified :class:`XorMajDetection`.

    Re-derives local cuts per flagged node.  Returns the detection and the
    lists of flagged-but-unverifiable nodes.
    """
    is_root = _root_flags(labels)
    xor_flags = np.asarray(labels["xor"]) == 1
    maj_flags = np.asarray(labels["maj"]) == 1
    if root_filter:
        xor_candidates = np.flatnonzero(xor_flags & is_root)
        maj_candidates = np.flatnonzero(maj_flags & is_root)
    else:
        xor_candidates = np.flatnonzero(xor_flags)
        maj_candidates = np.flatnonzero(maj_flags)

    detection = XorMajDetection()
    rejected_xor: list[int] = []
    rejected_maj: list[int] = []
    for var in xor_candidates:
        var = int(var)
        if not aig.is_and(var):
            rejected_xor.append(var)
            continue
        leaf_sets = _node_xor_sets(aig, var, max_cuts)
        if leaf_sets:
            detection.xor_roots[var] = leaf_sets
        else:
            rejected_xor.append(var)
    for var in maj_candidates:
        var = int(var)
        if not aig.is_and(var):
            rejected_maj.append(var)
            continue
        leaf_sets = _node_maj_sets(aig, var, max_cuts)
        if leaf_sets:
            detection.maj_roots[var] = leaf_sets
        else:
            # Half-adder carries are plain ANDs: legitimately MAJ-labeled
            # (MAJ3 with constant input) but with no 3-leaf MAJ cut.  They
            # participate in pairing through the carry pool, not here.
            f0, f1 = (aig.fanins(var) if aig.is_and(var) else (0, 0))
            if lit_var(f0) == lit_var(f1):
                rejected_maj.append(var)
    return detection, rejected_xor, rejected_maj


def correct_lsb_region(
    aig: AIG,
    labels: dict[str, np.ndarray],
    num_outputs: int = 4,
    max_cuts: int = 10,
) -> tuple[dict[str, np.ndarray], set[int]]:
    """Overwrite labels in the low-output cone with exact reasoning."""
    roots = [lit_var(lit) for lit in aig.outputs[:num_outputs]]
    cone_arr = aig.transitive_fanin_array(roots)
    cone_arr = cone_arr[cone_arr > aig.num_inputs]
    cone = set(map(int, cone_arr))
    if not cone:
        return labels, set()

    detection = XorMajDetection()
    for var in sorted(cone):
        xor_sets, maj_sets = _node_xor_maj_sets(aig, var, max_cuts)
        if xor_sets:
            detection.xor_roots[var] = xor_sets
        if maj_sets:
            detection.maj_roots[var] = maj_sets

    patched = {task: np.array(arr, copy=True) for task, arr in labels.items()}
    for var in cone:
        patched["xor"][var] = 1 if var in detection.xor_roots else 0
        patched["maj"][var] = 1 if var in detection.maj_roots else 0

    # Re-derive boundary labels inside the cone from a local extraction.
    local_tree = extract_adder_tree(aig, detection)
    local_roots = local_tree.root_vars()
    local_leaves = local_tree.leaf_vars()
    for adder in local_tree.adders:
        if adder.kind == "HA":
            patched["maj"][adder.carry_var] = 1
    for var in cone:
        if var in local_roots and var in local_leaves:
            patched["root"][var] = TASK1_ROOT_LEAF
        elif var in local_roots:
            patched["root"][var] = TASK1_ROOT
        elif var in local_leaves:
            patched["root"][var] = TASK1_LEAF
        else:
            patched["root"][var] = TASK1_OTHER
    return patched, cone


def extract_from_predictions(
    aig: AIG,
    labels: dict[str, np.ndarray],
    root_filter: bool = False,
    correct_lsb: bool = True,
    lsb_outputs: int = 4,
    max_cuts: int = 10,
) -> PredictedExtraction:
    """Full post-processing pipeline: repair, verify, pair — per node."""
    corrected = set()
    if correct_lsb:
        labels, corrected = correct_lsb_region(
            aig, labels, lsb_outputs, max_cuts,
        )
    detection, rejected_xor, rejected_maj = predictions_to_detection(
        aig, labels, root_filter=root_filter, max_cuts=max_cuts,
    )
    tree = extract_adder_tree(aig, detection)
    return PredictedExtraction(
        tree=tree,
        detection=detection,
        rejected_xor=rejected_xor,
        rejected_maj=rejected_maj,
        corrected_vars=corrected,
    )
