"""Per-node XOR/MAJ detection over Cut objects (the exact-flow oracle)."""

from __future__ import annotations

from repro.aig.cuts import enumerate_cuts
from repro.aig.graph import AIG
from repro.aig.npn import is_maj_truth, is_xor_truth
from repro.reasoning.xor_maj import XorMajDetection


def detect_xor_maj(aig: AIG, max_cuts: int = 10) -> XorMajDetection:
    """Detect all XOR2/XOR3 and MAJ3 roots with one Cut-object loop per node.

    Reference for :func:`repro.reasoning.xor_maj.detect_xor_maj`, which
    must return the same mapping (same roots, same leaf-list order).
    """
    detection = XorMajDetection()
    all_cuts = enumerate_cuts(aig, k=3, max_cuts=max_cuts)
    for var in aig.and_vars():
        xor_cuts: list[tuple[int, ...]] = []
        maj_cuts: list[tuple[int, ...]] = []
        for cut in all_cuts[var]:
            if cut.size == 2 and is_xor_truth(cut.truth, 2):
                xor_cuts.append(cut.leaves)
            elif cut.size == 3:
                if is_xor_truth(cut.truth, 3):
                    xor_cuts.append(cut.leaves)
                elif is_maj_truth(cut.truth, 3):
                    maj_cuts.append(cut.leaves)
        if xor_cuts:
            detection.xor_roots[var] = xor_cuts
        if maj_cuts:
            detection.maj_roots[var] = maj_cuts
    return detection
