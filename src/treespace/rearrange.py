"""Explicit enumeration, application, and classification of tree rearrangements.

A TBR (tree bisection and reconnection) operation deletes one edge and joins
the two resulting components with a new edge, attached at an arbitrary edge
of each component.  Deleting the edge leaves a degree-2 vertex in a component
of two or more leaves; suppressing it merges two edges into that component's
*scar edge*.  Reconnecting a component at its scar restores its original
attachment point, so:

* the pair (scar, scar) reproduces the input tree and is excluded,
* an operation is SPR (subtree prune and regraft) exactly when at least one
  component reconnects at its scar (a single-leaf component, which offers no
  choice, counts as reconnected at its scar),
* an operation is NNI (nearest neighbour interchange) when it is SPR and the
  other component reconnects at an edge incident to that component's scar:
  the moved subtree swaps places with a subtree adjacent to where it stood.

Every operation is addressed by the split of the bisected edge plus one
partial split per component (the bipartition its reconnection edge induces
inside the component), which makes operations serializable and independent
of internal vertex ids.

Counting a neighbourhood keys each operation's output tree by a hash: the sum
modulo 2^64 of a fixed 64-bit mix of each of its 2n-3 split masks, the
bipartition hashing of HashRF (Sul & Williams, 2008) and of Amenta, Clarke &
St. John's majority tree (2003).  Reconnecting a component at edge r flips
exactly the component edges that contain r, so the hash of its contributed
splits, for every r at once, is a base sum plus a prefix sum down one rooted
walk of the component.  After that O(n^2) preparation per tree, an operation
costs O(1).  The count stays exact: equal trees always share a hash, so a
hash group with one member is one distinct output tree, and the members of
every larger group (the four operations behind each NNI neighbour, plus any
true collision) are re-keyed by their sorted split masks and split.

Enumeration is the brute-force oracle used to verify every closed-form count
in :mod:`treespace.metrics`, so it never consults those formulas.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator

from .errors import InvalidOp, TreeError
from .tree_core import CanonicalForm, Edge, PhyloTree, require_leaves


class OpKind(enum.Enum):
    """Rearrangement classes; NNI ops are SPR ops are TBR ops."""

    NNI = "nni"
    SPR = "spr"
    TBR = "tbr"

    def includes(self, other: "OpKind") -> bool:
        return other in _WITHIN[self]


# The kinds each kind includes.  Tuples, not sets: membership then compares
# by identity instead of calling Enum.__hash__ once per operation.
_WITHIN = {
    OpKind.NNI: (OpKind.NNI,),
    OpKind.SPR: (OpKind.NNI, OpKind.SPR),
    OpKind.TBR: (OpKind.NNI, OpKind.SPR, OpKind.TBR),
}


@dataclass(frozen=True, order=True)
class RearrangementOp:
    """One bisection-and-reconnection move.

    ``bisect_mask`` is the normalized split mask of the deleted edge; side A
    is the leaf set in the mask, side B its complement.  Each reconnect field
    holds the partial-split mask identifying an edge of that component
    (normalized to the side not containing the component's smallest leaf
    index), or None when the component is a single leaf and offers no choice.
    """

    bisect_mask: int
    reconnect_a: int | None
    reconnect_b: int | None

    def to_json(self) -> dict:
        return {
            "bisect_mask": self.bisect_mask,
            "reconnect_a": self.reconnect_a,
            "reconnect_b": self.reconnect_b,
        }

    @classmethod
    def from_json(cls, record: dict) -> "RearrangementOp":
        return cls(
            bisect_mask=record["bisect_mask"],
            reconnect_a=record["reconnect_a"],
            reconnect_b=record["reconnect_b"],
        )


@dataclass(frozen=True)
class NeighbourhoodReport:
    """Counts for one tree and one operation kind.

    ``multiplicity_histogram`` maps output-tree multiplicity (how many
    distinct operations produce that tree) to the number of such outputs.
    """

    n: int
    kind: OpKind
    op_count: int
    neighbourhood_size: int
    multiplicity_histogram: dict[int, int]

    def __post_init__(self) -> None:
        ops = sum(m * c for m, c in self.multiplicity_histogram.items())
        size = sum(self.multiplicity_histogram.values())
        if ops != self.op_count or size != self.neighbourhood_size:
            raise ValueError("multiplicity histogram disagrees with the counts")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind.value,
            "op_count": self.op_count,
            "neighbourhood_size": self.neighbourhood_size,
            "multiplicity_histogram": {str(m): c for m, c in sorted(self.multiplicity_histogram.items())},
        }


# -- split hashing ----------------------------------------------------------

_M64 = (1 << 64) - 1

#: Width in bits of the output-tree hash keys.  Only tests narrow it, to force
#: collisions through the exact re-check.
_HASH_BITS = 64


@lru_cache(maxsize=1 << 16)  # each mask recurs in several components of one tree
def _mix(mask: int) -> int:
    """Fixed 64-bit hash of a normalized split mask (the splitmix64 finaliser)."""
    z = (mask + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


# -- bisection components ---------------------------------------------------


@dataclass
class _Side:
    """One component of a bisected tree, with its reconnection bookkeeping.

    ``above`` maps each ref to the ref of the next edge towards the
    component's smallest leaf (None for the edge at that leaf), in the order
    of a walk from there: every ref comes after the ref above it.
    """

    mask: int
    single: int | None = None  # leaf vertex id when the component is one leaf
    adj: dict[int, tuple[int, ...]] | None = None
    scar_edge: Edge | None = None
    scar_ref: int | None = None  # None for a single leaf, whose only choice is its scar
    refs: tuple[int, ...] = ()
    edge_of_ref: dict[int, Edge] | None = None
    near_scar: frozenset[int] = frozenset()
    above: dict[int, int | None] | None = None

    def is_scar(self, ref: int | None) -> bool:
        return ref == self.scar_ref

    def ref_choices(self) -> tuple[int | None, ...]:
        return (None,) if self.single is not None else self.refs


def _make_side(tree: PhyloTree, mask: int, inside: int, outside: int) -> _Side:
    if mask.bit_count() == 1:
        return _Side(mask=mask, single=inside)

    adj: dict[int, list[int]] = {}
    stack = [inside]
    seen = {inside}
    while stack:
        v = stack.pop()
        nbrs = [w for w in tree.neighbors(v) if not (v == inside and w == outside)]
        adj[v] = nbrs
        for w in nbrs:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    # The cut endpoint has degree 2 now; splice it out.  The merged edge is
    # the scar: reconnecting there restores the original attachment.
    x, y = adj.pop(inside)
    adj[x] = [w if w != inside else y for w in adj[x]]
    adj[y] = [w if w != inside else x for w in adj[y]]
    scar = (x, y) if x < y else (y, x)

    root_leaf = tree.leaf_vertex((mask & -mask).bit_length() - 1)
    start = adj[root_leaf][0]
    parent = {start: root_leaf}
    order = [start]
    dfs = [start]
    while dfs:
        v = dfs.pop()
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
                dfs.append(w)
    below: dict[int, int] = {}
    ref_of_edge: dict[Edge, int] = {}
    for v in reversed(order):
        if len(adj[v]) == 1 and v != root_leaf:
            m = 1 << tree.vertex_leaf_index(v)
        else:
            m = 0
            for w in adj[v]:
                if w != parent[v]:
                    m |= below[w]
        below[v] = m
        p = parent[v]
        ref_of_edge[(v, p) if v < p else (p, v)] = m

    edge_of_ref = {r: e for e, r in ref_of_edge.items()}
    near = frozenset(
        r for e, r in ref_of_edge.items() if e != scar and (e[0] in scar or e[1] in scar)
    )
    return _Side(
        mask=mask,
        adj={v: tuple(ws) for v, ws in adj.items()},
        scar_edge=scar,
        scar_ref=ref_of_edge[scar],
        refs=tuple(sorted(ref_of_edge.values())),
        edge_of_ref=edge_of_ref,
        near_scar=near,
        above={below[v]: below.get(parent[v]) for v in order},
    )


def _side_hashes(side: _Side, full: int) -> dict[int | None, int]:
    """Per reconnection ref, the hash sum modulo 2^64 of the output splits the
    component contributes there (see :func:`_contributions`).

    Reconnecting at ref r contributes h(r) + h(mask ^ r), flips every ref g
    above r from h(g) to h(mask ^ g) and keeps the rest, so
    H[r] = sum_g h(g) + h(mask ^ r) + D[r], where D[r] sums the flips
    h(mask ^ g) - h(g) over the refs g above r: a prefix sum down the walk.
    """
    if side.single is not None:
        return {None: 0}
    mask = side.mask
    total = 0
    flips: dict[int | None, int] = {None: 0}  # per ref: D of the refs just below it
    partial: dict[int, int] = {}
    for r, up in side.above.items():
        c = mask ^ r
        h_r = _mix(r ^ full if r & 1 else r)
        h_c = _mix(c ^ full if c & 1 else c)
        d = flips[up]
        flips[r] = d + h_c - h_r
        partial[r] = h_c + d
        total += h_r
    return {r: (total + p) & _M64 for r, p in partial.items()}


def _bisect(tree: PhyloTree, bisect_mask: int) -> tuple[_Side, _Side]:
    try:
        edge = tree.edge_with_mask(bisect_mask)
    except TreeError:
        raise InvalidOp(f"no edge of the tree induces split mask {bisect_mask:#x}") from None
    far = tree.edge_far_vertex(edge)
    near = edge[0] if edge[1] == far else edge[1]
    side_a = _make_side(tree, bisect_mask, far, near)
    side_b = _make_side(tree, bisect_mask ^ tree.full_mask, near, far)
    return side_a, side_b


_Op = tuple[int, "int | None", "int | None", OpKind]


def _reconnections(mask: int, side_a: _Side, side_b: _Side) -> Iterator[_Op]:
    """Every operation on one bisection as (mask, ref a, ref b, kind).

    Pairs come in lexicographic ref order, without the scar-scar pair, each
    with its most specific kind.  This is the one place the classification
    rule of the module docstring is applied.
    """
    NNI, SPR, TBR = OpKind.NNI, OpKind.SPR, OpKind.TBR
    scar_a, near_a = side_a.scar_ref, side_a.near_scar
    scar_b, near_b = side_b.scar_ref, side_b.near_scar
    refs_b = side_b.ref_choices()
    for ra in side_a.ref_choices():
        at_scar_a = ra == scar_a
        for rb in refs_b:
            if rb == scar_b:
                if at_scar_a:
                    continue
                kind = NNI if ra in near_a else SPR
            elif at_scar_a:
                kind = NNI if rb in near_b else SPR
            else:
                kind = TBR
            yield mask, ra, rb, kind


# -- public operations --------------------------------------------------------


def enumerate_ops(tree: PhyloTree, kind: OpKind = OpKind.TBR) -> list[RearrangementOp]:
    """All distinct operations of the given kind, in a fixed order.

    Per bisection edge: a pendant edge frees one leaf, leaving 2n-6 non-scar
    reconnections of the remaining component; an internal edge with sides of
    a and b leaves offers (2a-3)(2b-3) - 1 reconnection pairs, the excluded
    one being the scar-scar pair that would rebuild the input tree.
    """
    require_leaves(tree)
    within = _WITHIN[kind]
    ops = []
    for mask in tree.split_masks:
        for _, ra, rb, op_kind in _reconnections(mask, *_bisect(tree, mask)):
            if op_kind in within:
                ops.append(RearrangementOp(mask, ra, rb))
    return ops


def _validated_sides(tree: PhyloTree, op: RearrangementOp) -> tuple[_Side, _Side]:
    side_a, side_b = _bisect(tree, op.bisect_mask)
    for side, ref, label in ((side_a, op.reconnect_a, "a"), (side_b, op.reconnect_b, "b")):
        if side.single is not None:
            if ref is not None:
                raise InvalidOp(f"component {label} is a single leaf; reconnect_{label} must be None")
        elif ref not in side.edge_of_ref:
            raise InvalidOp(f"reconnect_{label}={ref!r} is not an edge of component {label}")
    if side_a.is_scar(op.reconnect_a) and side_b.is_scar(op.reconnect_b):
        raise InvalidOp("op reproduces the input tree")
    return side_a, side_b


def classify_op(tree: PhyloTree, op: RearrangementOp) -> OpKind:
    """Most specific class of the op: NNI before SPR before TBR."""
    side_a, side_b = _validated_sides(tree, op)
    pair = (op.reconnect_a, op.reconnect_b)
    reconnections = _reconnections(op.bisect_mask, side_a, side_b)
    return next(kind for _, ra, rb, kind in reconnections if (ra, rb) == pair)


def apply_op(tree: PhyloTree, op: RearrangementOp) -> PhyloTree:
    """Perform the move by explicit graph surgery and return the new tree.

    The chosen reconnection edge of each component is subdivided and the two
    fresh vertices are joined (a single-leaf component is joined directly).
    The result is validated from scratch, and is never equal to the input
    because the scar-scar pair is unrepresentable.
    """
    side_a, side_b = _validated_sides(tree, op)
    next_id = max(tree.vertices()) + 1
    adjacency: dict[int, set[int]] = {}

    def add_edge(u: int, v: int) -> None:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)

    joints = []
    for side, ref in ((side_a, op.reconnect_a), (side_b, op.reconnect_b)):
        if side.single is not None:
            joints.append(side.single)
            continue
        x, y = side.edge_of_ref[ref]
        middle = next_id
        next_id += 1
        for v, ws in side.adj.items():
            for w in ws:
                if v < w and (v, w) != (x, y):
                    add_edge(v, w)
        add_edge(x, middle)
        add_edge(middle, y)
        joints.append(middle)
    add_edge(joints[0], joints[1])

    names = {v: tree.leaf_name(v) for v in tree.vertices() if tree.is_leaf(v)}
    return PhyloTree(adjacency, names)


# -- fast canonical assembly ---------------------------------------------------


def _contributions(side: _Side, ref: int | None) -> list[int]:
    """Output-split masks this component contributes when reconnected at ``ref``.

    Every other component edge g separates the same leaves as before on the
    side away from the attachment point, so g flips to its complement within
    the component exactly when it contains ``ref``; the subdivided edge
    contributes both of its sides.  Masks are plain subsets of the
    component's leaf set, normalized later against the full leaf set.
    """
    if side.single is not None:
        return []
    mask = side.mask
    parts = [mask ^ g if (ref & g) == ref else g for g in side.refs if g != ref]
    parts += (ref, mask ^ ref)
    return parts


def _output_key(full: int, op: _Op, side_a: _Side, side_b: _Side) -> tuple[int, ...]:
    """Exact key of one operation's output tree: its sorted normalized split masks."""
    mask, ra, rb, _ = op
    key = [p ^ full if p & 1 else p for p in _contributions(side_a, ra) + _contributions(side_b, rb)]
    key.append(mask)
    key.sort()
    return tuple(key)


class SurveyEntry:
    """Survey output for one operation kind.

    ``report`` comes from the hash count.  :meth:`output_keys`,
    ``multiplicities`` (output tree to the number of operations producing it)
    and ``forms`` are exact as well, but built on demand, from one
    representative operation per output.
    """

    def __init__(
        self,
        report: NeighbourhoodReport,
        names: tuple[str, ...],
        singles: list[_Op],
        repeated: Counter,
        output_key: Callable[[_Op], tuple[int, ...]],
    ):
        self.report = report
        self._names = names
        self._singles = singles
        self._repeated = repeated
        self._output_key = output_key

    def output_keys(self) -> Iterator[tuple[int, ...]]:
        """The sorted normalized split masks of each distinct output tree, once each."""
        yield from map(self._output_key, self._singles)
        yield from self._repeated

    @cached_property
    def multiplicities(self) -> dict[CanonicalForm, int]:
        names, repeated = self._names, self._repeated
        return {CanonicalForm(key, names): repeated.get(key, 1) for key in self.output_keys()}

    @cached_property
    def forms(self) -> frozenset[CanonicalForm]:
        return frozenset(self.multiplicities)


def neighbourhood(tree: PhyloTree, kind: OpKind = OpKind.TBR) -> tuple[frozenset[CanonicalForm], NeighbourhoodReport]:
    """Distinct trees reachable by one operation of ``kind``, plus the counts."""
    entry = op_survey(tree, (kind,))[kind]
    return entry.forms, entry.report


def op_survey(
    tree: PhyloTree,
    kinds: tuple[OpKind, ...] = (OpKind.NNI, OpKind.SPR, OpKind.TBR),
) -> dict[OpKind, SurveyEntry]:
    """Neighbourhoods and counts for the requested kinds in one enumeration pass.

    Output splits are recombined directly from the component partial splits,
    which is an independent route from apply_op's graph surgery (the two are
    cross-checked in the test suite).  Outputs are grouped by hash and the
    groups of two or more operations are split by exact key (see the module
    docstring).
    """
    require_leaves(tree)
    full = tree.full_mask
    width = (1 << _HASH_BITS) - 1
    wanted = max((_WITHIN[kind] for kind in kinds), key=len, default=())

    sides: dict[int, tuple[_Side, _Side]] = {}
    first: dict[int, _Op] = {}  # hash key -> first operation seen with it
    repeats: list[tuple[int, _Op]] = []
    for mask in tree.split_masks:
        side_a, side_b = sides[mask] = _bisect(tree, mask)
        hash_a, hash_b, hash_mask = _side_hashes(side_a, full), _side_hashes(side_b, full), _mix(mask)
        for op in _reconnections(mask, side_a, side_b):
            if op[3] in wanted:
                key = (hash_mask + hash_a[op[1]] + hash_b[op[2]]) & width
                if first.setdefault(key, op) is not op:
                    repeats.append((key, op))

    def output_key(op: _Op) -> tuple[int, ...]:
        return _output_key(full, op, *sides[op[0]])

    groups: dict[int, list[_Op]] = {}
    for key, op in repeats:
        groups.setdefault(key, [first[key]]).append(op)
    rechecked = [(output_key(op), op[3]) for members in groups.values() for op in members]
    singles = [op for key, op in first.items() if key not in groups]

    entries = {}
    for kind in kinds:
        within = _WITHIN[kind]
        kind_singles = [op for op in singles if op[3] in within]
        repeated = Counter(key for key, op_kind in rechecked if op_kind in within)
        histogram = Counter(repeated.values())
        if kind_singles:
            histogram[1] += len(kind_singles)
        report = NeighbourhoodReport(
            n=tree.n,
            kind=kind,
            op_count=len(kind_singles) + sum(repeated.values()),
            neighbourhood_size=len(kind_singles) + len(repeated),
            multiplicity_histogram=dict(histogram),
        )
        entries[kind] = SurveyEntry(report, tree.leaf_order, kind_singles, repeated, output_key)
    return entries
