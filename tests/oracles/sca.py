"""Per-adder SCA relation resolution (the oracle of the batched resolver)."""

from __future__ import annotations

from repro.aig.graph import AIG
from repro.aig.npn import MAJ3, XOR2, XOR3, apply_transform
from repro.reasoning.adder_tree import AdderTree, extract_adder_tree
from repro.techmap.mapper import _truth_over_leaves
from repro.verify.sca import SCAResult, _AdderRelation, _rewrite_signature


def resolve_relation(aig: AIG, adder) -> _AdderRelation | None:
    """Find flips so that ``(sum ^ sf) + 2·(carry ^ cf) = Σ (leaf ^ f_i)``.

    Mirrors the mapper's polarity resolution; an unresolvable pair (pruned
    cuts) falls back to plain gate-level rewriting for those roots.
    """
    arity = len(adder.leaves)
    sum_truth = _truth_over_leaves(aig, adder.sum_var, adder.leaves)
    carry_truth = _truth_over_leaves(aig, adder.carry_var, adder.leaves)
    if sum_truth is None or carry_truth is None:
        return None
    xor_ref = XOR3 if arity == 3 else XOR2
    carry_ref = MAJ3 if arity == 3 else 0b1000
    identity = tuple(range(arity))
    full = (1 << (1 << arity)) - 1
    for flip_bits in range(1 << arity):
        flips = tuple((flip_bits >> j) & 1 for j in range(arity))
        carry_cell = apply_transform(carry_ref, arity, identity, flips, 0)
        if carry_cell == carry_truth:
            carry_flip = 0
        elif (carry_cell ^ full) == carry_truth:
            carry_flip = 1
        else:
            continue
        xor_cell = apply_transform(xor_ref, arity, identity, flips, 0)
        if xor_cell == sum_truth:
            sum_flip = 0
        elif (xor_cell ^ full) == sum_truth:
            sum_flip = 1
        else:
            continue
        return _AdderRelation(
            adder.sum_var, adder.carry_var, adder.leaves, flips, sum_flip, carry_flip
        )
    return None


def resolve_relations(aig: AIG, tree: AdderTree) -> dict[int, _AdderRelation]:
    """Every adder's relation, one ``node_cuts`` walk per adder; the first
    relation per sum root wins."""
    relations: dict[int, _AdderRelation] = {}
    for adder in tree.adders:
        relation = resolve_relation(aig, adder)
        if relation is not None and relation.sum_var not in relations:
            relations[relation.sum_var] = relation
    return relations


def verify_multiplier(circuit, tree: AdderTree | None = None,
                      max_terms: int = 500_000) -> SCAResult:
    """Adder-aware SCA with relations from :func:`resolve_relations`."""
    if tree is None:
        tree = extract_adder_tree(circuit.aig)
    relations = resolve_relations(circuit.aig, tree)
    return _rewrite_signature(circuit, relations, "adder", max_terms)
