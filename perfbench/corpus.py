"""Seeded netlist corpora for the three workloads.

The program only ever sees AIGER text.  The seed decides the order in
which each netlist declares its primary inputs: a seeded shuffle of the
input lines renumbers the inputs, which gives a structurally distinct
netlist (the structural hash covers input order) with the same gates, the
same AND-node numbering and therefore the same generator-traced adders.
So every seed exercises the same amount of work on different inputs, and
the traced full adders stay valid for measuring recall.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aig.aiger import dumps_aag
from repro.generators import (
    booth_multiplier,
    csa_multiplier,
    dot_product,
    multiply_accumulate,
    squarer,
)


@dataclass
class Netlist:
    """One generated netlist, as text, with its construction ground truth."""

    name: str
    text: str
    num_ands: int
    # (F, 2) int array of traced full adders: (sum var, carry var).  Empty
    # for netlists without a generator trace (techmapped variants).
    fa_roots: np.ndarray = field(repr=False)


def traced_full_adders(generated) -> np.ndarray:
    trace = getattr(generated, "trace", None)
    if trace is None:
        return np.zeros((0, 2), dtype=np.int64)
    rows = [(a.sum_var, a.carry_var) for a in trace.adders if a.kind == "FA"]
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def permute_inputs(text: str, rng: np.random.Generator) -> str:
    """The same AIGER text with its input declarations in a seeded order."""
    lines = text.split("\n")
    num_inputs = int(lines[0].split()[2])
    inputs = lines[1:1 + num_inputs]
    lines[1:1 + num_inputs] = [inputs[i] for i in rng.permutation(num_inputs)]
    return "\n".join(lines)


def netlist(name: str, generated, rng: np.random.Generator) -> Netlist:
    aig = getattr(generated, "aig", generated)
    return Netlist(name, permute_inputs(dumps_aag(aig), rng), aig.num_ands,
                   traced_full_adders(generated))


def reason_large(seed: int, smoke: bool = False) -> list[Netlist]:
    """The 64/128-bit CSA, the 64-bit Booth and a ~25k-AND MAC block."""
    rng = np.random.default_rng([seed, 1])
    if smoke:
        specs = [("csa12", lambda: csa_multiplier(12)),
                 ("booth8", lambda: booth_multiplier(8))]
    else:
        specs = [
            ("csa64", lambda: csa_multiplier(64)),
            ("csa128", lambda: csa_multiplier(128)),
            ("booth64", lambda: booth_multiplier(64)),
            ("mac48", lambda: multiply_accumulate(48)),
        ]
    return [netlist(name, make(), rng) for name, make in specs]


def predict_stream(seed: int, smoke: bool = False) -> list[Netlist]:
    """The 128-bit and 160-bit CSA multipliers."""
    rng = np.random.default_rng([seed, 3])
    widths = (16, 24) if smoke else (128, 160)
    return [netlist(f"csa{w}", csa_multiplier(w), rng) for w in widths]


def serve_pool(smoke: bool = False) -> list[tuple[str, object]]:
    """Base circuits of the serving mix: 8-32-bit arithmetic blocks.

    Returns ``(name, generated)`` pairs; requests are seeded input
    permutations of these (see :class:`RequestStream`).
    """
    from repro.techmap import asap7_like, map_unmap, mcnc_reduced

    if smoke:
        return [("csa8", csa_multiplier(8)), ("booth8", booth_multiplier(8))]
    pool = []
    for width in (8, 16, 24, 32):
        pool.append((f"csa{width}", csa_multiplier(width)))
        pool.append((f"booth{width}", booth_multiplier(width)))
    for width in (12, 20, 28):
        pool.append((f"csa{width}w", csa_multiplier(width, style="wallace")))
    for width in (10, 18, 26):
        pool.append((f"csa{width}d", csa_multiplier(width, style="dadda")))
    for width in (8, 16, 24):
        pool.append((f"mac{width}", multiply_accumulate(width)))
    for width, terms in ((8, 2), (12, 3), (16, 2)):
        pool.append((f"dot{terms}x{width}", dot_product(width, terms)))
    for width in (12, 24, 32):
        pool.append((f"square{width}", squarer(width)))
    pool.append(("csa8_mcnc", map_unmap(csa_multiplier(8).aig,
                                        mcnc_reduced())))
    pool.append(("booth8_mcnc", map_unmap(booth_multiplier(8).aig,
                                          mcnc_reduced())))
    pool.append(("csa8_asap7", map_unmap(csa_multiplier(8).aig,
                                         asap7_like())))
    return pool


class RequestStream:
    """The seeded request sequence of the serving mix.

    The sequence runs in rounds of two requests per pool circuit,
    alternating a new netlist and a repeat.  A new netlist is the next
    circuit of the round's seeded order, with freshly permuted inputs; a
    repeat resends the netlist of a seeded pick among the circuits already
    sent new in this round and not yet repeated.  So every whole round sends
    each circuit once new and once repeated, and runs made of whole rounds
    have the same mix whatever the seed.  The sequence depends only on the
    seed, not on timing.
    """

    def __init__(self, pool: list[tuple[str, object]], seed: int) -> None:
        self._bases = [(name, dumps_aag(getattr(gen, "aig", gen)),
                        getattr(gen, "aig", gen).num_ands,
                        traced_full_adders(gen)) for name, gen in pool]
        self._rng = np.random.default_rng([seed, 2])
        self._order: list[int] = []
        self._repeatable: list[int] = []  # distinct indices, this round
        self.issued = 0
        self.round_length = 2 * len(self._bases)
        self.distinct: list[Netlist] = []

    def next(self) -> int:
        """Index into :attr:`distinct` of the next request's netlist."""
        rng = self._rng
        self.issued += 1
        if self.issued % 2 == 0:
            pick = int(rng.integers(len(self._repeatable)))
            return self._repeatable.pop(pick)
        if not self._order:
            self._order = list(rng.permutation(len(self._bases)))
        name, text, num_ands, fa_roots = self._bases[self._order.pop()]
        self.distinct.append(Netlist(f"{name}#{len(self.distinct)}",
                                     permute_inputs(text, rng), num_ands,
                                     fa_roots))
        self._repeatable.append(len(self.distinct) - 1)
        return len(self.distinct) - 1
