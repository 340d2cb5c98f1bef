"""SCA multiplier verification by algebraic backward rewriting.

This is the downstream application that motivates Gamora (paper Sec. III-A):
symbolic computer algebra verifies an integer multiplier by rewriting the
output word's *signature polynomial* backward through the netlist until it
is expressed over primary inputs, then comparing with the specification
``(Σ 2^i a_i) · (Σ 2^j b_j)``.

Two engines:

* **naive** — every AND node is substituted by the product of its fan-in
  polynomials.  Correct but explodes on carry chains (the published
  motivation for adder-tree extraction).
* **adder-aware** — matched FA/HA slices use the linear identity
  ``sum + 2·carry = a + b + c``: substituting the sum root introduces a
  ``-2·carry`` term that *cancels* the carry already present one weight
  up, so carries vanish from the signature before their nonlinear MAJ
  polynomial is ever needed.  This reproduces the fast algebraic
  rewriting of Yu et al. (TCAD'17) on top of either exact or
  Gamora-predicted adder trees.

Relation resolution is batched: one cone-restricted cut sweep delivers
every root's truth over its slice leaves, matched against the roots' leaf
rows with one fanin-array join, and the polarity search runs as a
vectorized comparison against precomputed flip tables.  The per-adder
``node_cuts`` walk it replaced lives in ``tests/oracles/`` as the
reference; both resolve identical relations on real adder trees, and an
unresolvable pair (pruned cuts) falls back to plain gate-level rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.aig.graph import AIG
from repro.aig.npn import MAJ3, XOR2, XOR3, apply_transform
from repro.reasoning.adder_tree import AdderTree, extract_adder_tree
from repro.utils.timing import Timer
from repro.verify.polynomial import Polynomial

__all__ = ["SCAResult", "TermExplosion", "verify_multiplier", "signature_polynomial"]


class TermExplosion(RuntimeError):
    """Raised when the signature polynomial exceeds the term budget."""


@dataclass
class SCAResult:
    """Outcome of a verification run."""

    ok: bool
    mode: str
    substitutions: int
    peak_terms: int
    seconds: float
    residue_terms: int = 0

    def __repr__(self) -> str:
        status = "VERIFIED" if self.ok else "FAILED"
        return (
            f"SCAResult({status}, mode={self.mode}, "
            f"substitutions={self.substitutions}, peak_terms={self.peak_terms}, "
            f"{self.seconds * 1e3:.1f} ms)"
        )


@dataclass
class _AdderRelation:
    """Polarity-resolved linear relation of one matched adder slice."""

    sum_var: int
    carry_var: int
    leaves: tuple[int, ...]
    leaf_flips: tuple[int, ...]
    sum_flip: int
    carry_flip: int


@lru_cache(maxsize=None)
def _flip_tables(arity: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``(xor_cells, carry_cells, full)`` for every flip combination.

    ``xor_cells[f]`` / ``carry_cells[f]`` are the reference XOR / carry
    truth tables with input ``j`` complemented when bit ``j`` of ``f`` is
    set — the constant-size tables the batched resolver compares every
    adder's truths against at once (2**arity entries, arity ≤ 3).
    """
    xor_ref = XOR3 if arity == 3 else XOR2
    carry_ref = MAJ3 if arity == 3 else 0b1000
    identity = tuple(range(arity))
    combos = [tuple((f >> j) & 1 for j in range(arity))
              for f in range(1 << arity)]
    xor_cells = np.array(
        [apply_transform(xor_ref, arity, identity, flips, 0)
         for flips in combos], dtype=np.int64)
    carry_cells = np.array(
        [apply_transform(carry_ref, arity, identity, flips, 0)
         for flips in combos], dtype=np.int64)
    return xor_cells, carry_cells, (1 << (1 << arity)) - 1


def _truths_over_rows(cuts, vars_: np.ndarray, leaves: np.ndarray,
                      arity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Truth of each root over its leaf row, via one shared cut sweep.

    The fanin-array join of the batched resolver: for query row ``i`` the
    slots of ``vars_[i]`` are compared wholesale against the (pad-aligned)
    leaf row; the first exact match yields the truth.  Returns ``(truth,
    found)`` — a root whose leaf set survives in no enumerated cut (pruned
    lists, or a hand-built slice wider than the k=3 sweep) is simply
    unresolved.
    """
    pad = cuts.num_vars
    # Rows wider than 3 leaves can never match a k<=3 cut; comparing only
    # the first 3 columns keeps the broadcast aligned while the
    # ``sizes == arity`` test below already rules those rows out.
    head = leaves[:, :3]
    target = np.where(head >= 0, head, pad)
    slot_count = cuts.truths.shape[1]
    valid = np.arange(slot_count)[None, :] < cuts.counts[vars_][:, None]
    match = (
        valid
        & (cuts.sizes[vars_] == arity[:, None])
        & np.all(cuts.leaves[vars_] == target[:, None, :], axis=2)
    )
    found = match.any(axis=1)
    slot = np.argmax(match, axis=1)
    truth = cuts.truths[vars_, slot].astype(np.int64)
    return truth, found


def _resolve_relations(aig: AIG, tree: AdderTree,
                       max_cuts: int = 12) -> dict[int, "_AdderRelation"]:
    """All adders' polarity relations in one batch.

    One cut sweep restricted to the roots' fan-in cones replaces every
    per-adder ``node_cuts`` re-derivation; the 2**arity flip search runs
    as one table comparison over all adders of each arity.  Emission
    order (and the first-relation-per-sum-root rule) matches the per-adder
    oracle in ``tests/oracles/`` exactly.
    """
    from repro.aig.fast_cuts import enumerate_cuts_arrays

    core = tree.arrays()
    count = len(core)
    relations: dict[int, _AdderRelation] = {}
    if count == 0:
        return relations
    sum_var = core.sum_var.astype(np.int64)
    carry_var = core.carry_var.astype(np.int64)
    roots = np.unique(np.concatenate([sum_var, carry_var]))
    cuts = enumerate_cuts_arrays(
        aig, k=3, max_cuts=max_cuts, restrict_to=roots.tolist(),
    )
    arity = core.leaf_count.astype(np.int64)
    leaves = core.leaves.astype(np.int64)
    sum_truth, sum_ok = _truths_over_rows(cuts, sum_var, leaves, arity)
    carry_truth, carry_ok = _truths_over_rows(cuts, carry_var, leaves, arity)

    flip_bits = np.full(count, -1, dtype=np.int64)
    sum_flip = np.zeros(count, dtype=np.int64)
    carry_flip = np.zeros(count, dtype=np.int64)
    for width in (2, 3):
        rows = np.flatnonzero((arity == width) & sum_ok & carry_ok)
        if not len(rows):
            continue
        xor_cells, carry_cells, full = _flip_tables(width)
        c_eq = carry_truth[rows, None] == carry_cells[None, :]
        c_neq = carry_truth[rows, None] == (carry_cells ^ full)[None, :]
        x_eq = sum_truth[rows, None] == xor_cells[None, :]
        x_neq = sum_truth[rows, None] == (xor_cells ^ full)[None, :]
        ok = (c_eq | c_neq) & (x_eq | x_neq)
        has = ok.any(axis=1)
        first = np.argmax(ok, axis=1)  # lowest matching flip combo
        hit_rows = rows[has]
        hit_first = first[has]
        flip_bits[hit_rows] = hit_first
        picked = np.arange(len(rows))[has]
        carry_flip[hit_rows] = np.where(c_eq[picked, hit_first], 0, 1)
        sum_flip[hit_rows] = np.where(x_eq[picked, hit_first], 0, 1)

    leaf_rows = core.leaves.tolist()
    arity_list = arity.tolist()
    sums = sum_var.tolist()
    carries = carry_var.tolist()
    flips_list = flip_bits.tolist()
    sflip = sum_flip.tolist()
    cflip = carry_flip.tolist()
    for index in range(count):
        bits = flips_list[index]
        if bits < 0:
            continue
        sv = sums[index]
        if sv in relations:
            continue
        width = arity_list[index]
        relations[sv] = _AdderRelation(
            sv, carries[index], tuple(leaf_rows[index][:width]),
            tuple((bits >> j) & 1 for j in range(width)),
            sflip[index], cflip[index],
        )
    return relations


def signature_polynomial(aig: AIG) -> Polynomial:
    """The output word as a polynomial: ``Σ 2^i · out_i``."""
    signature = Polynomial()
    for index, lit in enumerate(aig.outputs):
        signature = signature + Polynomial.from_literal(lit).scale(1 << index)
    return signature


def _expected_product(a_literals: list[int], b_literals: list[int]) -> Polynomial:
    word_a = Polynomial()
    for index, lit in enumerate(a_literals):
        word_a = word_a + Polynomial.from_literal(lit).scale(1 << index)
    word_b = Polynomial()
    for index, lit in enumerate(b_literals):
        word_b = word_b + Polynomial.from_literal(lit).scale(1 << index)
    return word_a * word_b


def _flip(poly: Polynomial, flip: int) -> Polynomial:
    return Polynomial.constant(1) - poly if flip else poly


def _maj_poly(x: Polynomial, y: Polynomial, z: Polynomial) -> Polynomial:
    pairwise = x * y + x * z + y * z
    return pairwise - (x * y * z).scale(2)


def verify_multiplier(circuit, mode: str = "adder", tree: AdderTree | None = None,
                      max_terms: int = 500_000) -> SCAResult:
    """Verify that a multiplier netlist computes ``a * b``.

    ``circuit`` is a :class:`~repro.generators.GeneratedMultiplier` (or any
    object with ``aig``, ``a_literals``, ``b_literals``).  ``mode`` selects
    the naive or adder-aware engine; ``tree`` optionally supplies the adder
    tree (e.g. one recovered by Gamora) instead of exact extraction.

    Raises :class:`TermExplosion` when the signature outgrows ``max_terms``
    — the expected behavior of the naive engine on non-trivial widths.
    """
    if mode not in ("adder", "naive"):
        raise ValueError(f"unknown SCA mode {mode!r}")
    relations: dict[int, _AdderRelation] = {}
    if mode == "adder":
        if tree is None:
            tree = extract_adder_tree(circuit.aig)
        relations = _resolve_relations(circuit.aig, tree)
    return _rewrite_signature(circuit, relations, mode, max_terms)


def _rewrite_signature(circuit, relations: dict[int, _AdderRelation],
                       mode: str, max_terms: int) -> SCAResult:
    """Backward-rewrite the output signature, using ``relations`` for the
    matched slices and gate-level products everywhere else."""
    aig: AIG = circuit.aig
    # Substitution order: reverse topological, but each carry root is
    # processed immediately after its sum root so the -2*carry term
    # introduced by the sum's linear form cancels first.
    order_key: dict[int, float] = {var: float(var) for var in aig.and_vars()}
    for relation in relations.values():
        order_key[relation.carry_var] = order_key[relation.sum_var] - 0.5
    carry_of = {r.carry_var: r for r in relations.values()}

    signature = signature_polynomial(aig)
    peak = signature.num_terms
    substitutions = 0
    with Timer() as timer:
        for var in sorted(aig.and_vars(), key=lambda v: order_key[v], reverse=True):
            if var not in signature.support():
                continue
            relation = relations.get(var)
            if relation is not None:
                # sum = Σ leaves' - 2*carry', fixed up for polarity.
                leaf_sum = Polynomial()
                for leaf, flip in zip(relation.leaves, relation.leaf_flips):
                    leaf_sum = leaf_sum + _flip(Polynomial.variable(leaf), flip)
                carry = _flip(Polynomial.variable(relation.carry_var),
                              relation.carry_flip)
                replacement = _flip(leaf_sum - carry.scale(2), relation.sum_flip)
            elif var in carry_of:
                relation = carry_of[var]
                operands = [
                    _flip(Polynomial.variable(leaf), flip)
                    for leaf, flip in zip(relation.leaves, relation.leaf_flips)
                ]
                if len(operands) == 2:
                    maj = operands[0] * operands[1]
                else:
                    maj = _maj_poly(*operands)
                replacement = _flip(maj, relation.carry_flip)
            else:
                f0, f1 = aig.fanins(var)
                replacement = Polynomial.from_literal(f0) * Polynomial.from_literal(f1)
            signature = signature.substitute(var, replacement)
            substitutions += 1
            peak = max(peak, signature.num_terms)
            if signature.num_terms > max_terms:
                raise TermExplosion(
                    f"signature grew to {signature.num_terms} terms "
                    f"(budget {max_terms}) after {substitutions} substitutions"
                )
    residue = signature - _expected_product(circuit.a_literals, circuit.b_literals)
    return SCAResult(
        ok=residue.is_zero(),
        mode=mode,
        substitutions=substitutions,
        peak_terms=peak,
        seconds=timer.elapsed,
        residue_terms=residue.num_terms,
    )
