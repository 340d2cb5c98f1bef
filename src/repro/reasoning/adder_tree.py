"""Adder extraction: pair XOR/MAJ roots into FAs/HAs and derive labels.

Implements the second half of conventional reasoning (paper Sec. II-B and
III-B3): XOR and MAJ roots with *identical inputs* are matched into full
adders, XOR2 roots with a matching equal-polarity AND become half adders,
and the matched slices yield the multi-task ground-truth labels:

* Task 1 — adder boundary: ``other / root / leaf / root+leaf``;
* Task 2 — XOR root (binary);
* Task 3 — MAJ root (binary), including matched half-adder carries
  (MAJ3 with a constant input, cf. node 10 of the paper's Fig. 3).

Array core and adapter views
----------------------------
:class:`AdderTree` is stored as a struct-of-arrays core
(:class:`AdderTreeArrays`: kind/sum/carry/leaf int32 columns plus a cached
CSR link index) so the serving-path consumers — word-level analysis,
``compare_adder_trees``, SCA relation resolution — run whole-tree array
passes instead of per-adder Python walks.  The original object views are
preserved as thin accessors: ``tree.adders`` (a list of
:class:`ExtractedAdder`), ``tree.consumed`` (a set), and
``tree.detection`` (an :class:`~repro.reasoning.xor_maj.XorMajDetection`)
are materialized lazily from the arrays on first access, so object-view
callers and the per-root oracle in ``tests/oracles/`` keep working
unchanged while the serving path never pays for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aig.graph import AIG
from repro.reasoning.xor_maj import XorMajDetection, detect_xor_maj
from repro.utils.arrays import sorted_unique

__all__ = [
    "ExtractedAdder",
    "AdderTree",
    "AdderTreeArrays",
    "KIND_FA",
    "KIND_HA",
    "extract_adder_tree",
    "TASK1_OTHER",
    "TASK1_ROOT",
    "TASK1_LEAF",
    "TASK1_ROOT_LEAF",
    "NUM_TASK1_CLASSES",
    "ground_truth_labels",
]

TASK1_OTHER = 0
TASK1_ROOT = 1
TASK1_LEAF = 2
TASK1_ROOT_LEAF = 3
NUM_TASK1_CLASSES = 4

# Kind codes of the array core.  The object view maps them back to the
# ExtractedAdder kind strings.
KIND_FA = 0
KIND_HA = 1
_KIND_NAMES = ("FA", "HA")

# Leaf-column pad of the array core (HA rows use 2 of the 3 slots).  -1 is
# outside the variable range, so membership passes can never match it.
_LEAF_PAD = -1


@dataclass(frozen=True)
class ExtractedAdder:
    """A matched adder slice: sum root, carry root, and input leaves."""

    kind: str  # "FA" or "HA"
    sum_var: int
    carry_var: int
    leaves: tuple[int, ...]


class AdderTreeArrays:
    """Struct-of-arrays core of an :class:`AdderTree`.

    One row per matched slice, in emission order (identical to the legacy
    ``adders`` list order):

    * ``kind`` — ``(A,)`` uint8, :data:`KIND_FA` / :data:`KIND_HA`;
    * ``sum_var`` / ``carry_var`` — ``(A,)`` int32 root variables;
    * ``leaves`` — ``(A, W)`` int32 leaf variables, padded with ``-1``
      (``W`` is 3 for extracted trees);
    * ``leaf_count`` — ``(A,)`` int8 live leaves per row.

    Derived indexes are built lazily and cached: the link edge list /
    CSR fan-out index (:meth:`link_edges` / :meth:`link_csr`), sorted
    root and leaf variable arrays, and the packed ``(sum, carry)`` keys
    :func:`~repro.reasoning.wordlevel.compare_adder_trees` joins on.
    """

    __slots__ = ("kind", "sum_var", "carry_var", "leaves", "leaf_count",
                 "_links", "_link_csr", "_root_vars", "_leaf_vars",
                 "_root_pair_keys")

    def __init__(self, kind: np.ndarray, sum_var: np.ndarray,
                 carry_var: np.ndarray, leaves: np.ndarray,
                 leaf_count: np.ndarray) -> None:
        self.kind = np.asarray(kind, dtype=np.uint8)
        self.sum_var = np.asarray(sum_var, dtype=np.int32)
        self.carry_var = np.asarray(carry_var, dtype=np.int32)
        self.leaves = np.asarray(leaves, dtype=np.int32)
        self.leaf_count = np.asarray(leaf_count, dtype=np.int8)
        self._links = None
        self._link_csr = None
        self._root_vars = None
        self._leaf_vars = None
        self._root_pair_keys = None

    def __len__(self) -> int:
        return len(self.kind)

    # Pickle support for the cached-payload path (__slots__ classes have
    # no __dict__; the derived indexes are dropped and rebuilt on demand).
    def __getstate__(self):
        return (self.kind, self.sum_var, self.carry_var, self.leaves,
                self.leaf_count)

    def __setstate__(self, state) -> None:
        self.__init__(*state)

    @classmethod
    def empty(cls) -> "AdderTreeArrays":
        return cls(np.zeros(0, np.uint8), np.zeros(0, np.int32),
                   np.zeros(0, np.int32),
                   np.full((0, 3), _LEAF_PAD, np.int32),
                   np.zeros(0, np.int8))

    @classmethod
    def from_adders(cls, adders: list[ExtractedAdder]) -> "AdderTreeArrays":
        """Column form of an object-view adder list (the legacy builder)."""
        count = len(adders)
        if count == 0:
            return cls.empty()
        width = max(3, max(len(a.leaves) for a in adders))
        kind = np.fromiter((0 if a.kind == "FA" else 1 for a in adders),
                           np.uint8, count)
        sum_var = np.fromiter((a.sum_var for a in adders), np.int32, count)
        carry_var = np.fromiter((a.carry_var for a in adders), np.int32, count)
        leaves = np.full((count, width), _LEAF_PAD, dtype=np.int32)
        leaf_count = np.zeros(count, dtype=np.int8)
        for row, adder in enumerate(adders):
            leaf_count[row] = len(adder.leaves)
            leaves[row, :len(adder.leaves)] = adder.leaves
        return cls(kind, sum_var, carry_var, leaves, leaf_count)

    def to_adders(self) -> list[ExtractedAdder]:
        """Materialize the object view (lazy ``tree.adders`` accessor)."""
        kinds = self.kind.tolist()
        sums = self.sum_var.tolist()
        carries = self.carry_var.tolist()
        counts = self.leaf_count.tolist()
        rows = self.leaves.tolist()
        return [
            ExtractedAdder(_KIND_NAMES[kinds[i]], sums[i], carries[i],
                           tuple(rows[i][:counts[i]]))
            for i in range(len(kinds))
        ]

    # ------------------------------------------------------------------
    # Cached derived indexes
    # ------------------------------------------------------------------
    def root_vars(self) -> np.ndarray:
        """Sorted unique root variables (sums and carries)."""
        if self._root_vars is None:
            self._root_vars = sorted_unique(np.concatenate(
                [self.sum_var.astype(np.int64),
                 self.carry_var.astype(np.int64)]
            ))
        return self._root_vars

    def leaf_vars(self) -> np.ndarray:
        """Sorted unique leaf variables (pad excluded)."""
        if self._leaf_vars is None:
            flat = self.leaves.ravel().astype(np.int64)
            self._leaf_vars = sorted_unique(flat[flat != _LEAF_PAD])
        return self._leaf_vars

    def root_pair_keys(self) -> np.ndarray:
        """Sorted unique ``(sum << 32) | carry`` keys, one per slice kind.

        The join key :func:`~repro.reasoning.wordlevel.compare_adder_trees`
        intersects — cached here so repeated scoring of the same tree
        (prediction sweeps) packs the roots once.
        """
        if self._root_pair_keys is None:
            self._root_pair_keys = np.unique(
                (self.sum_var.astype(np.int64) << 32)
                | self.carry_var.astype(np.int64)
            )
        return self._root_pair_keys

    def link_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Adder-DAG edges ``(producer_row, consumer_row)``, deduplicated.

        Semantics of the legacy ``AdderTree.links()``: one edge per
        ``(producer, consumer)`` pair even when the consumer reads both the
        sum and the carry of the same producer, in first-occurrence order
        over the consumers' leaf lists — computed by one vectorized
        producer-gather plus a stable sort-dedup instead of the per-adder
        dict walk.
        """
        if self._links is not None:
            return self._links
        count = len(self)
        empty = np.zeros(0, dtype=np.int64)
        if count == 0:
            self._links = (empty, empty)
            return self._links
        bound = int(max(self.sum_var.max(), self.carry_var.max(),
                        self.leaves.max())) + 1
        producer = np.full(bound, -1, dtype=np.int64)
        # Interleaved (sum, carry) assignment per row, rows ascending:
        # duplicate roots resolve exactly like the sequential dict build
        # (last write wins).
        pairs = np.column_stack([self.sum_var, self.carry_var]).ravel()
        producer[pairs] = np.repeat(np.arange(count, dtype=np.int64), 2)
        flat = self.leaves.ravel().astype(np.int64)
        consumer = np.repeat(np.arange(count, dtype=np.int64),
                             self.leaves.shape[1])
        valid = flat != _LEAF_PAD
        flat, consumer = flat[valid], consumer[valid]
        src = producer[flat]
        keep = (src >= 0) & (src != consumer)
        src, consumer = src[keep], consumer[keep]
        if len(src):
            key = src * count + consumer
            order = np.argsort(key, kind="stable")
            ordered = key[order]
            first = np.r_[True, ordered[1:] != ordered[:-1]]
            rows = np.sort(order[first])
            src, consumer = src[rows], consumer[rows]
        self._links = (src, consumer)
        return self._links

    def link_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR fan-out of :meth:`link_edges`: ``(indptr, consumers)``.

        ``consumers[indptr[p]:indptr[p + 1]]`` lists the rows consuming
        producer ``p``'s outputs — the index the word-level Kahn wavefront
        (and any other batched tree consumer) expands frontiers through.
        """
        if self._link_csr is None:
            src, dst = self.link_edges()
            order = np.argsort(src, kind="stable")
            indptr = np.searchsorted(src[order],
                                     np.arange(len(self) + 1, dtype=np.int64))
            self._link_csr = (indptr, dst[order])
        return self._link_csr


class AdderTree:
    """Extraction result with lookup indexes and linkage helpers.

    ``consumed`` holds every variable claimed by a matched slice (roots plus
    cone interiors); nodes in it cannot appear in further matches.

    The canonical storage is the array core (:meth:`arrays`); ``adders``,
    ``consumed`` and ``detection`` are thin object views materialized on
    first access.  Trees may equally be built the legacy way — appending
    :class:`ExtractedAdder` objects to ``adders`` — in which case the array
    core is derived (and re-derived if the list grew since).
    """

    def __init__(self, adders: list[ExtractedAdder] | None = None,
                 detection: XorMajDetection | None = None,
                 consumed: set[int] | None = None,
                 candidates=None,
                 core: AdderTreeArrays | None = None,
                 consumed_mask: np.ndarray | None = None) -> None:
        if core is not None and adders is not None:
            raise ValueError("pass either adders or core, not both")
        self._core = core
        self._core_from_len = len(core) if core is not None else None
        # Core-built trees (the engine path) keep their cached core; trees
        # built from a list re-derive it per arrays() call, because the
        # list is freely mutable and a stale core would silently poison
        # every array consumer.
        self._from_core = core is not None
        self._adders = list(adders) if adders is not None else (
            None if core is not None else [])
        self._detection = detection
        self.candidates = candidates  # PairingCandidates | None (lazy adapter)
        if consumed is not None:
            self._consumed: set[int] | None = set(consumed)
            self._consumed_mask = None
        else:
            self._consumed = None if consumed_mask is not None else set()
            self._consumed_mask = consumed_mask

    # ------------------------------------------------------------------
    # Thin object views over the array core
    # ------------------------------------------------------------------
    @property
    def adders(self) -> list[ExtractedAdder]:
        if self._adders is None:
            self._adders = self._core.to_adders()
            self._core_from_len = len(self._adders)
        # Handing out the mutable list view forfeits the cached core: the
        # caller may mutate it in place (not just append), and a stale
        # core would silently diverge from ``adders`` in every array
        # consumer.  Pure-array paths never touch this property, so the
        # serving pipeline keeps its cached core and link indexes.
        self._from_core = False
        return self._adders

    @property
    def detection(self) -> XorMajDetection | None:
        """The detection behind this tree, adapted from the candidate
        arrays on first access when the fast path never built the dicts."""
        if self._detection is None and self.candidates is not None:
            self._detection = self.candidates.to_detection()
        return self._detection

    @detection.setter
    def detection(self, value: XorMajDetection | None) -> None:
        self._detection = value

    @property
    def consumed(self) -> set[int]:
        if self._consumed is None:
            self._consumed = set(np.flatnonzero(self._consumed_mask).tolist())
        return self._consumed

    @consumed.setter
    def consumed(self, value: set[int]) -> None:
        self._consumed = value
        self._consumed_mask = None

    def arrays(self) -> AdderTreeArrays:
        """The struct-of-arrays core (built from ``adders`` if needed).

        Engine-built trees return their cached core (its derived indexes —
        link CSR, root-pair keys — survive across calls; the materialized
        ``adders`` view is read-only by contract, though appends are still
        detected).  List-built trees re-derive the core on every call:
        their list is freely mutable, including same-length in-place
        replacement, and array consumers must always see the current
        content.
        """
        if self._adders is None:
            return self._core
        if self._from_core and self._core_from_len == len(self._adders):
            return self._core
        self._core = AdderTreeArrays.from_adders(self._adders)
        self._core_from_len = len(self._adders)
        self._from_core = False  # the list holds the truth from here on
        return self._core

    # ------------------------------------------------------------------
    @property
    def num_full_adders(self) -> int:
        if self._adders is None:
            return int(np.count_nonzero(self._core.kind == KIND_FA))
        return sum(1 for a in self._adders if a.kind == "FA")

    @property
    def num_half_adders(self) -> int:
        if self._adders is None:
            return int(np.count_nonzero(self._core.kind == KIND_HA))
        return sum(1 for a in self._adders if a.kind == "HA")

    def root_vars(self) -> set[int]:
        return set(self.arrays().root_vars().tolist())

    def leaf_vars(self) -> set[int]:
        return set(self.arrays().leaf_vars().tolist())

    def by_root(self) -> dict[int, ExtractedAdder]:
        index: dict[int, ExtractedAdder] = {}
        for adder in self.adders:
            index[adder.sum_var] = adder
            index[adder.carry_var] = adder
        return index

    def links(self) -> list[tuple[int, int]]:
        """Edges of the adder DAG: ``(producer_index, consumer_index)``
        whenever one adder's output variable is another adder's leaf.

        Each edge appears once even when the consumer reads *both* the sum
        and the carry of the same producer (routine in compressor trees),
        in first-occurrence order over the consumers' leaf lists.  Backed
        by the cached :meth:`AdderTreeArrays.link_edges` index.
        """
        src, dst = self.arrays().link_edges()
        return list(zip(src.tolist(), dst.tolist()))

    def __eq__(self, other) -> bool:
        """Value equality over the former dataclass fields.

        Matches the pre-array-core ``@dataclass`` semantics — adders,
        detection, consumed — so core-built and list-built trees with the
        same content compare equal.  Comparing a fast-path tree
        materializes its lazy views (equality is not a serving-path
        operation).
        """
        if not isinstance(other, AdderTree):
            return NotImplemented
        return (self.adders == other.adders
                and self.consumed == other.consumed
                and self.detection == other.detection)

    __hash__ = None  # mutable, like the non-frozen dataclass it replaced

    def __repr__(self) -> str:
        return (
            f"AdderTree({self.num_full_adders} FA, "
            f"{self.num_half_adders} HA)"
        )


def extract_adder_tree(aig: AIG, detection: XorMajDetection | None = None,
                       max_cuts: int = 10) -> AdderTree:
    """Pair XOR and MAJ roots with identical inputs into FAs and HAs.

    Full adders are matched first (3-leaf XOR/MAJ pairs); the cone interior
    of each matched adder is consumed so its private XOR/AND sub-structures
    (the shared propagate XOR, the generate AND) cannot be re-extracted as
    spurious half adders — mirroring how exact rewriting consumes matched
    slices.

    Pairing runs on the array core of :mod:`repro.reasoning.fast_pairing`
    — sort-based candidate grouping, vectorized matching, batched cone
    consumption — and is deterministic: candidates are canonically sorted,
    so the tree depends on the detection's content, never its order.  With
    ``detection`` the dict form is flattened first; without it the cut
    sweep, classification and pairing share one
    :class:`~repro.aig.fast_cuts.CutArrays` pass.  The per-root loop this
    replaced lives in ``tests/oracles/`` and produces the same adders in
    the same order, with the same ``consumed`` set.
    """
    from repro.reasoning.fast_pairing import PairingCandidates, pair_candidates

    if detection is not None:
        cands = PairingCandidates.from_detection(detection, aig.num_vars)
    else:
        from repro.aig.fast_cuts import enumerate_cuts_arrays

        cands = PairingCandidates.from_cut_arrays(
            enumerate_cuts_arrays(aig, k=3, max_cuts=max_cuts)
        )
    return pair_candidates(aig, cands, detection=detection)


def ground_truth_labels(aig: AIG, detection: XorMajDetection | None = None,
                        tree: AdderTree | None = None,
                        max_cuts: int = 10) -> dict[str, np.ndarray]:
    """Multi-task node labels over all variables (constant + PIs + ANDs).

    Returns arrays of length ``aig.num_vars``:

    * ``"root"`` — Task 1 classes (other/root/leaf/root+leaf);
    * ``"xor"`` — Task 2 binary XOR-root labels;
    * ``"maj"`` — Task 3 binary MAJ-root labels.
    """
    if detection is None:
        detection = detect_xor_maj(aig, max_cuts=max_cuts)
    if tree is None:
        tree = extract_adder_tree(aig, detection)

    num_vars = aig.num_vars
    xor_label = np.zeros(num_vars, dtype=np.int64)
    maj_label = np.zeros(num_vars, dtype=np.int64)
    root_label = np.zeros(num_vars, dtype=np.int64)

    for var in detection.xor_roots:
        xor_label[var] = 1
    for var in detection.maj_roots:
        maj_label[var] = 1
    for adder in tree.adders:
        if adder.kind == "HA":
            # Matched half-adder carries are MAJ3(a, b, const) — labeled MAJ
            # exactly as ABC's ground truth labels the paper's node 10.
            maj_label[adder.carry_var] = 1

    roots = tree.root_vars()
    leaves = tree.leaf_vars()
    for var in roots:
        root_label[var] = TASK1_ROOT
    for var in leaves:
        root_label[var] = TASK1_ROOT_LEAF if var in roots else TASK1_LEAF
    return {"root": root_label, "xor": xor_label, "maj": maj_label}
