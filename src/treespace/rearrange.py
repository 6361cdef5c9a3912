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

Counting a neighbourhood keys each operation's output tree by the sum of
one term for each of its 2n-3 split masks.  Up to 8 leaves
(:data:`_EXACT_LEAVES`) every normalized mask is below 2^n, at most 2^8,
and the term is ``1 << mask``, so the key is the output's split set
written as a bitmap of 2^n bits: exact, and decoded back to the splits by
its set bits.  Above that the term is a fixed 64-bit mix of the mask and the sum is taken
modulo 2^64, the bipartition hashing of HashRF (Sul & Williams, 2008) and
of Amenta, Clarke & St. John's majority tree (2003).  The survey reads the
tree's preorder (its one rooting, at leaf 0), so every subtree is one slice
and the cluster C(v) below each vertex is the split of the edge above it.
Bisecting that edge leaves side A = C(v) and side B, the rest, and every
component edge keeps a cluster of the rooted tree with A at most added or
removed.  Reconnecting a component at edge r flips exactly the component
edges between r and the component's root, so the sum of the terms of its
contributed splits, for every r at once, is a base sum plus a prefix sum
down the slice of v (side A) or down the rest of the preorder (side B):
O(n) per bisection, with no walk of its own.  A reconnection edge has one
address, its position: the refs, sums and texts of a side are lists
indexed by position.  The operations of one bisection are blocks, rows of
A by cols of B, each a position, narrowest kind first (:func:`_blocks`),
and their keys the sums of the two lists at those positions.  One survey
builds the keys of the widest kind asked for.  One rule says which
operations a kind has, on both key paths: the first ``row_ops[kind][v]``
entries of bisection v's row (:class:`_Layout`).  Exact keys are
counted per kind, over its prefixes.  Hashed keys are counted once, and
every kind reads that count.  It stays exact: equal trees always share a
hash, so a key held once is one distinct output tree, of each kind whose
prefix holds its operation.  The operations of every shared key (the four
behind each NNI neighbour, plus any true collision) are re-checked once,
each kept with its index in its row and keyed by its split delta: the
splits removed and added along the two reconnection paths, read from the
clusters as one walk climbs them (:func:`_split_delta`).  Either way an
output is named outside the survey by its sorted split masks.

Which positions each of these steps reads depends only on the tree's rooted
shape, its preorder's parent positions, and many labelled trees share one:
T_7's 945 trees have 9 shapes and T_8's 10,395 have 21.  So the slice ends,
the positions of each side's edges, scar and near-scar edges, the blocks and
each kind's operation count per bisection are built once per shape
(:class:`_Layout`, in a bounded cache), and a tree computes only its own
refs, sums, keys and re-check from its own clusters.

The Newick text of each output, written as
:func:`treespace.newick_io.serialize_newick` writes it, is spliced from
per-bisection pieces cut from the input tree's per-position subtree texts
(:func:`treespace.newick_io.cluster_texts`).  The output of the pair of
positions (i, j) is side B's text with a hole at edge j, and side A's text
rooted at edge i in the hole.  A's text at i does not depend on j: one
rerooting pass down the slice of v gives it at every position of A
(:func:`_texts_a`).  Where the hole sits depends only on B, j and A's
lowest leaf: one pass down the rest of the preorder, rebuilding only the
ancestors of v, gives the text left and right of it at every position of B
(:func:`_holes_b`).  Each operation of :func:`_blocks` then costs one
concatenation, and as the text is canonical a set of the texts holds each
distinct output once.

Enumeration is the brute-force oracle used to verify every closed-form count
in :mod:`treespace.metrics`, so it never consults those formulas.
:func:`apply_op` performs a move by graph surgery over a fresh walk of the
adjacency, independent of the rooted preparation, and is the oracle the
survey is tested against.  The survey's refs, sums, keys, blocks and split
deltas are tested against an exact split-key reference that lives in the
test suite and is built from walks of the adjacency, not from this module.
"""

from __future__ import annotations

import enum
from collections import Counter
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, count
from typing import Container, Iterator, NamedTuple, Sequence

from .errors import InvalidOp
from .newick_io import cluster_texts
from .tree_core import Edge, PhyloTree, require_leaves


class OpKind(enum.Enum):
    """Rearrangement classes; NNI ops are SPR ops are TBR ops."""

    NNI = "nni"
    SPR = "spr"
    TBR = "tbr"


class RearrangementOp(NamedTuple):
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
        return self._asdict()


class _ReportFields(NamedTuple):
    n: int
    kind: OpKind
    op_count: int
    neighbourhood_size: int
    multiplicity_histogram: dict[int, int]


class NeighbourhoodReport(_ReportFields):
    """Counts for one tree and one operation kind.

    ``multiplicity_histogram`` maps output-tree multiplicity (how many
    distinct operations produce that tree) to the number of such outputs,
    both at least 1.
    """

    __slots__ = ()

    def __new__(
        cls, n: int, kind: OpKind, op_count: int, neighbourhood_size: int, multiplicity_histogram: dict[int, int]
    ) -> "NeighbourhoodReport":
        ops = sum(m * c for m, c in multiplicity_histogram.items())
        size = sum(multiplicity_histogram.values())
        if ops != op_count or size != neighbourhood_size:
            raise ValueError("multiplicity histogram disagrees with the counts")
        if any(m < 1 or c < 1 for m, c in multiplicity_histogram.items()):
            raise ValueError("multiplicity histogram has an entry below 1")
        return super().__new__(cls, n, kind, op_count, neighbourhood_size, multiplicity_histogram)

    def to_json(self) -> dict:
        return {
            **self._asdict(),
            "kind": self.kind.value,
            "multiplicity_histogram": {str(m): c for m, c in sorted(self.multiplicity_histogram.items())},
        }


# -- split hashing ----------------------------------------------------------

_M64 = (1 << 64) - 1

#: Width in bits of the hashed output-tree keys, those of trees of more than
#: :data:`_EXACT_LEAVES` leaves.  Only tests narrow it, to force collisions
#: through the exact re-check.
_HASH_BITS = 64

#: Up to this many leaves every normalized split mask is below 2^n <= 2^8,
#: so the sum of ``1 << mask`` over an output's splits is its split set as
#: a bitmap of 2^n bits: an exact key.  Only tests lower it, to drive trees
#: this small through the hash and its re-check.
_EXACT_LEAVES = 8


@lru_cache(maxsize=1 << 16)  # each mask recurs in several components of one tree
def _mix(mask: int) -> int:
    """Fixed 64-bit hash of a normalized split mask (the splitmix64 finaliser)."""
    z = (mask + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


# -- bisection layout -----------------------------------------------------------


#: How many of a bisection's :func:`_blocks` hold each kind's operations.
_BLOCK_COUNT = {OpKind.NNI: 2, OpKind.SPR: 4, OpKind.TBR: 5}

_Blocks = tuple[tuple[Sequence[int], Sequence[int]], ...]


def _blocks(rows: list[int], near_a: tuple[int, ...], cols: list[int], scar_b: int, near_b: tuple[int, ...]) -> _Blocks:
    """The operations of one bisection as blocks of position pairs (i, j),
    narrowest kind first: each of the block's rows of A with each of its
    cols of B, row by row.  ``rows`` and ``cols`` are the positions of the
    edges of A and of B; ``near_a`` and ``near_b`` are those of the edges
    touching each scar, and ``scar_b`` B's scar.

    This is the one place the classification rule of the module docstring
    is applied.  Side A's scar is its first row (:meth:`_Layout._cut` puts
    it there).  The first two blocks are NNI: the scar row at the cols
    touching B's scar and the scar column at the rows touching A's.  SPR
    adds the rest of both; TBR adds every other pair but scar-scar, which
    rebuilds the input tree.  A kind's operations are the first
    :data:`_BLOCK_COUNT` blocks.
    """
    scar_a, rest_rows = rows[0], rows[1:]
    rest_cols = [j for j in cols if j != scar_b]
    return (
        ((scar_a,), near_b),
        (near_a, (scar_b,)),
        ((scar_a,), [j for j in rest_cols if j not in near_b]),
        ([i for i in rest_rows if i not in near_a], (scar_b,)),
        (rest_rows, rest_cols),
    )


class _Cut(NamedTuple):
    """What the tree's shape fixes of the bisection of the edge above one
    preorder position v: side A is the slice of v, side B the rest.

    ``near_a``, ``scar_b`` and ``near_b`` are positions of edges of A and
    of B (see :func:`_blocks`), ``above`` lists v's ancestors above its
    parent p, whose clusters lose A in B, and ``blocks`` are the operations
    of every kind.
    """

    near_a: tuple[int, ...]
    scar_b: int
    near_b: tuple[int, ...]
    above: tuple[int, ...]
    blocks: _Blocks

    def op_at(self, index: int) -> tuple[int, int]:
        """The positions (i, j) of the reconnection edges of A and of B of
        the operation at ``index`` of the bisection's row, in block order."""
        for rows, cols in self.blocks:
            if index < len(rows) * len(cols):
                r, c = divmod(index, len(cols))
                return rows[r], cols[c]
            index -= len(rows) * len(cols)
        raise IndexError("no operation at that index")


class _Layout:
    """Everything of a survey that depends only on the tree's rooted shape,
    its preorder's ``parent`` positions: the slice ends ``end`` (the
    subtree of u is ``u:end[u]``), a :class:`_Cut` per bisection, and per
    kind the length of its operations' prefix of each bisection's key row
    (``row_ops``) and their sum (``op_count``).  The cuts name every
    reconnection edge by its position, and a tree reads its own clusters
    there.  Built once per shape (:func:`_layout`).
    """

    def __init__(self, parent: tuple[int, ...]):
        size = len(parent)
        end = list(range(1, size + 1))
        for u in range(size - 1, 0, -1):
            p = parent[u]
            if end[u] > end[p]:
                end[p] = end[u]
        self.parent, self.end = parent, end
        self.cuts = [self._cut(v) for v in range(size)]
        self.row_ops = {
            kind: [sum(len(rows) * len(cols) for rows, cols in cut.blocks[:span]) for cut in self.cuts]
            for kind, span in _BLOCK_COUNT.items()
        }
        self.op_count = {kind: sum(row_ops) for kind, row_ops in self.row_ops.items()}

    def _cut(self, v: int) -> _Cut:
        """The edges of A are at x, then x+1 .. y-1, then y+1 .. stop-1 (x
        and y are v's children, whose edges merge into the scar, named by
        x), or at v alone when A is the leaf v; those of B are at every
        position but p and the slice of v, or at 0 alone when B is leaf 0."""
        parent, end = self.parent, self.end
        x, stop = v + 1, end[v]
        rows = [v]  # one choice, None, when A is the leaf v
        near_a: tuple[int, ...] = ()
        if x < stop:
            y = end[x]
            rows = [*range(x, y), *range(y + 1, stop)]
            if x + 1 < y:
                near_a += (x + 1, end[x + 1])
            if y + 1 < stop:
                near_a += (y + 1, end[y + 1])
        if v == 0:  # B is leaf 0 alone
            return _Cut(near_a, 0, (), (), _blocks(rows, near_a, [0], 0, ()))
        p = parent[v]
        s = p + 1 if p + 1 != v else stop  # v's sibling, whose edge is B's scar
        near_b: tuple[int, ...] = ()
        if s + 1 < end[s]:
            near_b += (s + 1, end[s + 1])
        pp = parent[p]
        if pp >= 0:
            near_b += (pp, pp + 1 if pp + 1 != p else end[p])
        above = []
        while pp >= 0:
            above.append(pp)
            pp = parent[pp]
        cols = [*range(p), *range(p + 1, v), *range(stop, len(parent))]
        return _Cut(near_a, s, near_b, tuple(above), _blocks(rows, near_a, cols, s, near_b))


@lru_cache(maxsize=32)  # T_8, the largest exhaustive body, has 21 shapes
def _layout(parent: tuple[int, ...]) -> _Layout:
    """The :class:`_Layout` of a rooted shape, shared by its trees."""
    return _Layout(parent)


class _Rooted:
    """The tree's :attr:`~treespace.tree_core.PhyloTree.preorder`, with what
    the survey adds to it.

    Position 0 is the neighbour of leaf 0.  ``parent[u]`` is the position
    above u (-1 above position 0), and ``cluster[u]`` is C(u), the leaves
    below u.  C(u) is also the normalized split mask of the edge above u,
    so the positions number the edges as well.  ``layout`` is the shape's
    :class:`_Layout` and ``end`` its slice ends.

    ``term`` maps a split mask to its part of a key and ``width`` masks a
    sum of terms to the key's bits.  Up to :data:`_EXACT_LEAVES` leaves the
    term is ``1 << mask`` and the width 2^n bits, so a key is the output's
    split set, ``exact``; above, the term is :func:`_mix` and the width
    :data:`_HASH_BITS`.  ``hashes[u]`` is the term of C(u) and ``prefix``
    holds their running sums.
    """

    def __init__(self, tree: PhyloTree):
        parent, cluster, _ = tree.preorder
        self.layout = _layout(parent)
        self.parent, self.cluster, self.end = parent, cluster, self.layout.end
        self.exact = tree.n <= _EXACT_LEAVES
        if self.exact:
            self.term, self.width = (1).__lshift__, (1 << (1 << tree.n)) - 1
        else:
            self.term, self.width = _mix, (1 << _HASH_BITS) - 1
        self.hashes = [*map(self.term, cluster)]
        self.prefix = list(accumulate(self.hashes, initial=0))


# -- bisection sides ----------------------------------------------------------
#
# Side A = C(v) and side B, the rest, of the bisection of the edge above v.
# Each side's refs and its hash sums are read off the tree's clusters into
# lists indexed by position; only the positions its :class:`_Cut` names are
# read back.


def _refs_a(rooted: _Rooted, v: int) -> list[int | None]:
    """Side A's refs by position: the cluster of each edge below v,
    normalized to the side without A's lowest leaf, x's standing for the
    scar (x's edge merged with y's); None at the leaf v."""
    cluster, stop = rooted.cluster, rooted.end[v]
    a = cluster[v]
    low = a & -a
    return [None] * (v + 1) + [c ^ a if c & low else c for c in cluster[v + 1 : stop]]


def _sums_a(rooted: _Rooted, v: int) -> list[int]:
    """Per position of side A, the sum of the terms (:class:`_Rooted`) of
    the output splits A contributes when reconnected there.

    v is suppressed, so its children x and y share the scar edge.
    Reconnected at the scar, every edge gives its own cluster and the scar
    both C(x) and C(y).  Reconnected at the edge above a vertex w below x,
    the scar gives C(y) alone, w gives C(w) and A ^ C(w), and every edge
    between w and x flips from C(u) to A ^ C(u): a prefix sum down x's
    slice.  The same holds below y.
    """
    cluster, parent, end, hashes, prefix = rooted.cluster, rooted.parent, rooted.end, rooted.hashes, rooted.prefix
    term, width = rooted.term, rooted.width
    a = cluster[v]
    x, stop = v + 1, end[v]
    at_scar = prefix[stop] - prefix[x]
    sums = [at_scar & width] * stop  # at the scar x, and 0 at the leaf v
    if x == stop:
        return sums
    y = end[x]
    flips = [0] * stop  # per vertex below x or y: the sum at the edge above it, less its own hash
    flips[x], flips[y] = at_scar - hashes[x], at_scar - hashes[y]
    for u in chain(range(x + 1, y), range(y + 1, stop)):
        d = flips[parent[u]] + term(a ^ cluster[u])
        sums[u] = d & width
        flips[u] = d - hashes[u]
    return sums


def _refs_b(rooted: _Rooted, v: int) -> list[int | None]:
    """Side B's refs by position: the cluster of each edge, with A taken
    out of those of v's ancestors, and None at 0 when B is leaf 0."""
    if v == 0:
        return [None]
    cluster = rooted.cluster
    a = cluster[v]
    refs: list[int | None] = list(cluster)
    for u in rooted.layout.cuts[v].above:
        refs[u] = cluster[u] ^ a
    return refs


def _sums_b(rooted: _Rooted, v: int) -> list[int]:
    """Per position of side B, the sum of the terms (:class:`_Rooted`) of
    the output splits B contributes when reconnected there.

    B stays rooted at leaf 0.  The parent p of v is suppressed, so v's
    sibling s hangs from p's parent and its edge is the scar.  An ancestor
    u of v has the cluster C'(u) = C(u) ^ A in B, every other vertex keeps
    C'(u) = C(u).  Reconnected at the edge above w, B gives C'(u) for every
    edge, C'(w) | A for w, and flips every edge above w to C'(u) | A (the
    side holding leaf 0, normalized): a prefix sum down the preorder, one
    flat pass that reads each edge's hash flipped and kept.
    """
    if v == 0:
        return [0]
    cluster, parent, hashes, prefix = rooted.cluster, rooted.parent, rooted.hashes, rooted.prefix
    term, width = rooted.term, rooted.width
    a, p, stop, size = cluster[v], parent[v], rooted.end[v], len(cluster)
    # Per position but v's slice: the hashes of C'(u) | A and C'(u).
    flipped = [*map(term, map(a.__or__, cluster[:v])), *map(term, map(a.__or__, cluster[stop:]))]
    kept = [*hashes[:v], *hashes[stop:]]
    flipped[p] = kept[p] = 0  # s continues from p's parent
    total = prefix[size] - prefix[stop] + prefix[v] - hashes[p]
    for u in rooted.layout.cuts[v].above:
        flipped[u], kept[u] = hashes[u], term(cluster[u] ^ a)
        total += kept[u] - hashes[u]
    flips = [0] * size + [total]  # per position: the base and its flips up to leaf 0 (the last slot: parent -1)
    sums = [0] * size
    for u, up, down in zip(chain(range(v), range(stop, size)), flipped, kept):
        d = flips[parent[u]] + up
        sums[u] = d & width
        flips[u] = d - down
    return sums


# -- public operations --------------------------------------------------------


def enumerate_ops(tree: PhyloTree, kind: OpKind = OpKind.TBR) -> list[RearrangementOp]:
    """All distinct operations of the given kind, in a fixed order.

    Per bisection edge: a pendant edge frees one leaf, leaving 2n-6 non-scar
    reconnections of the remaining component; an internal edge with sides of
    a and b leaves offers (2a-3)(2b-3) - 1 reconnection pairs, the excluded
    one being the scar-scar pair that would rebuild the input tree.
    """
    require_leaves(tree)
    rooted = _Rooted(tree)
    cluster, cuts, span = rooted.cluster, rooted.layout.cuts, _BLOCK_COUNT[kind]
    ops = []
    for v in sorted(range(len(cluster)), key=cluster.__getitem__):
        refs_a, refs_b = _refs_a(rooted, v), _refs_b(rooted, v)
        # Refs are distinct within a side, and a single leaf's one ref None
        # is never compared with another value.
        pairs = sorted((refs_a[i], refs_b[j]) for rows, cols in cuts[v].blocks[:span] for i in rows for j in cols)
        ops += [RearrangementOp(cluster[v], ra, rb) for ra, rb in pairs]
    return ops


def _check_ref(label: str, ref: int | None, refs: Container[int] | None) -> None:
    """Raises InvalidOp unless ``ref`` is in ``refs``, component ``label``'s refs (None: a single leaf)."""
    if refs is None:
        if ref is not None:
            raise InvalidOp(f"component {label} is a single leaf; reconnect_{label} must be None")
    elif ref not in refs:
        raise InvalidOp(f"reconnect_{label}={ref!r} is not an edge of component {label}")


def _hang(tree: PhyloTree, v: int, up: int, edges: dict[int, Edge]) -> int:
    """The leaf mask below ``v`` with the tree hung from its neighbour ``up``.

    A walk of the adjacency of its own.  Each edge below ``v`` goes into
    ``edges`` as (upper end, lower end), keyed by the leaf mask below it.
    """
    if tree.is_leaf(v):
        return 1 << tree.vertex_leaf_index(v)
    m = 0
    for w in tree.neighbors(v):
        if w != up:
            c = _hang(tree, w, v, edges)
            edges[c] = (v, w)
            m |= c
    return m


def _component_edges(tree: PhyloTree, inside: int, outside: int) -> tuple[dict[int, Edge], int]:
    """Edges of the component of ``inside`` once the edge to ``outside`` is
    cut and ``inside`` spliced out, keyed by their refs, and the scar's ref.

    Each edge's ref is the leaf set on its far side from ``inside``
    (:func:`_hang`), or its complement in the component when that holds the
    component's smallest leaf.
    """
    edges: dict[int, Edge] = {}
    x, y = (w for w in tree.neighbors(inside) if w != outside)
    cx, cy = _hang(tree, x, inside, edges), _hang(tree, y, inside, edges)
    component = cx | cy
    low = component & -component
    refs = {component ^ m if m & low else m: edge for m, edge in edges.items()}
    scar = cy if cx & low else cx
    refs[scar] = (x, y)
    return refs, scar


def apply_op(tree: PhyloTree, op: RearrangementOp) -> PhyloTree:
    """Perform the move by explicit graph surgery and return the new tree.

    The bisected edge is found by a walk of the tree hung from leaf 0
    (:func:`_hang`), each component is walked afresh
    (:func:`_component_edges`), the chosen reconnection edge of each is
    subdivided and the two fresh vertices are joined (a single-leaf
    component is joined directly).  The op is checked against those walks
    alone, never the tree's preorder or the survey's sides.  The result is
    validated from scratch, and is never equal to the input because the
    scar-scar pair is rejected.
    """
    leaf0 = min(filter(tree.is_leaf, tree.vertices()), key=tree.vertex_leaf_index)
    hung: dict[int, Edge] = {}  # (near, far) by mask; no key holds bit 0, so an unnormalized mask names no edge
    for top in tree.neighbors(leaf0):  # none in the one-leaf tree
        hung[_hang(tree, top, leaf0, hung)] = (leaf0, top)
    if op.bisect_mask not in hung:
        raise InvalidOp(f"no edge of the tree induces split mask {op.bisect_mask:#x}")
    near, far = hung[op.bisect_mask]
    next_id = max(tree.vertices()) + 1
    edges: list[Edge] = []
    joints = []
    at_scars = True
    for inside, outside, ref, label in ((far, near, op.reconnect_a, "a"), (near, far, op.reconnect_b, "b")):
        if tree.is_leaf(inside):
            _check_ref(label, ref, None)
            joints.append(inside)
            continue
        component, scar = _component_edges(tree, inside, outside)
        _check_ref(label, ref, component)
        at_scars = at_scars and ref == scar
        x, y = component.pop(ref)
        edges += component.values()
        edges += [(x, next_id), (next_id, y)]
        joints.append(next_id)
        next_id += 1
    if at_scars:
        raise InvalidOp("op reproduces the input tree")
    edges.append((joints[0], joints[1]))

    names = {v: tree.leaf_name(v) for v in tree.vertices() if tree.is_leaf(v)}
    return PhyloTree(edges, names)


# -- hash keys and split deltas -------------------------------------------------


def _hash_keys(rooted: _Rooted, span: int) -> list[list[int]]:
    """Per bisection, the keys of the operations in its first ``span`` blocks, in order."""
    width = rooted.width
    out = []
    for v, cut in enumerate(rooted.layout.cuts):
        base, sums_a, sums_b = rooted.hashes[v], _sums_a(rooted, v), _sums_b(rooted, v)
        keys: list[int] = []
        for rows, cols in cut.blocks[:span]:
            if rows and cols:  # a single-leaf side leaves some blocks empty
                ys = [base + sums_b[j] for j in cols]
                keys += [(sums_a[i] + y) & width for i in rows for y in ys]
        out.append(keys)
    return out


def _split_delta(rooted: _Rooted, v: int, i: int, j: int) -> frozenset[int]:
    """The splits in which the output of the operation at positions (i, j)
    of A and of B, the edge above v bisected, and the input tree differ,
    read from the clusters along the two reconnection paths: equal outputs
    have equal deltas.  What is lost and gained again nets out.

    A reconnected at the edge above i below x (or y) gains A ^ C(i), loses
    C(x) (or C(y)), and swaps C(u) for A ^ C(u) on each vertex between.  B
    reconnected at the edge above j gains C(j) | A, loses C(p), and swaps
    C(u) for C(u) ^ A on each ancestor of j or of s (hung from p's parent)
    but not of both.
    """
    parent, end, cluster = rooted.parent, rooted.end, rooted.cluster
    a = cluster[v]
    lost, gained, path = [], [], []
    if i > v + 1:  # not the scar x, nor the leaf v
        gained.append(cluster[i] ^ a)
        u = parent[i]
        while parent[u] != v:
            path.append(u)
            u = parent[u]
        lost.append(cluster[u])
    if j != rooted.layout.cuts[v].scar_b:
        p = parent[v]
        gained.append(cluster[j] | a)
        lost.append(cluster[p])
        u = parent[j]
        while u >= 0 and not u < v < end[u]:  # the ancestors of j that are not v's
            path.append(u)
            u = parent[u]
        top, u = parent[p] if u == p else u, parent[p]
        while u != top:  # the ancestors of s that are not j's
            path.append(u)
            u = parent[u]
    lost += [cluster[u] for u in path]
    gained += [cluster[u] ^ a for u in path]
    return frozenset(lost).symmetric_difference(gained)


# -- Newick splice ---------------------------------------------------------------


def _join(t: str, c: int, u: str, d: int) -> str:
    """Newick text of a vertex whose children have texts t, u and disjoint clusters c, d."""
    return "(" + t + "," + u + ")" if (c & -c) < (d & -d) else "(" + u + "," + t + ")"


def _texts_a(rooted: _Rooted, texts: list[str], v: int) -> list[str]:
    """Newick text of side A rooted at each of its edges, by position.

    Rooted at the scar, A is the subtree of v.  Rooted at the edge above a
    vertex w below x, its children are the subtree of w and the rest of A
    hung from w's parent q: q's other child beside the rest of A hung from
    q's parent, or y's subtree when q is x.  The same holds below y.
    """
    cluster, parent, end = rooted.cluster, rooted.parent, rooted.end
    a, x, stop = cluster[v], v + 1, end[v]
    out = [texts[v]] * stop  # at the scar x, and at the leaf v
    if x == stop:
        return out
    y = end[x]
    rest = [""] * stop  # per vertex w below x or y: the rest of A, hung from w's parent
    rest[x], rest[y] = texts[y], texts[x]
    for w in chain(range(x + 1, y), range(y + 1, stop)):
        q = parent[w]
        d = q + 1 if q + 1 != w else end[q + 1]  # the sibling of w
        rest[w] = _join(texts[d], cluster[d], rest[q], a ^ cluster[q])
        out[w] = _join(texts[w], cluster[w], rest[w], a ^ cluster[w])
    return out


def _holes_b(rooted: _Rooted, texts: list[str], v: int, lead: str) -> tuple[list[str], list[str]]:
    """Side B's Newick text left and right of a hole at each of its edges,
    by position, for v > 0.

    Reconnecting A at the edge of position j gives the text left + (A's
    text) + right.  B stays rooted at leaf 0 and v's sibling s hangs where
    v's parent p hung, so only the ancestors of v change text, once each,
    with C(u) ^ A as their cluster.  Going down, the subtree that holds the
    hole also holds A, which can move it before its sibling.  The vertex
    next to leaf 0 is written without its parentheses, after ``lead``: "(",
    leaf 0 and ",".
    """
    cluster, parent, end = rooted.cluster, rooted.parent, rooted.end
    a = cluster[v]
    low_a = a & -a
    p, stop = parent[v], end[v]

    def sibling(u: int) -> int:
        q = parent[u]
        return q + 1 if q + 1 != u else end[q + 1]

    text, kept = list(texts), list(cluster)  # per position: its text and cluster in B (p holds s's)
    s = sibling(v)
    text[p], kept[p] = texts[s], cluster[s]
    c = p
    while (u := parent[c]) >= 0:
        d = sibling(c)
        text[u], kept[u] = _join(text[c], kept[c], texts[d], cluster[d]), cluster[u] ^ a
        c = u
    size = len(cluster)
    left, right = [""] * size, [""] * size  # per position: the output's text before and after its subtree's inside
    lefts, rights = [""] * size, [""] * size  # per position: the same around a hole at its edge
    for u in chain(range(p), range(p + 1, v), range(stop, size)):
        w = p if parent[u] == p else u  # s hangs where p hung
        q = parent[w]
        if q < 0:
            before, after = lead, ");"
        else:
            d, m = sibling(w), cluster[u] | a
            if (kept[d] & -kept[d]) < (m & -m):
                before, after = left[q] + text[d] + ",(", ")" + right[q]
            else:
                before, after = left[q] + "(", ")," + text[d] + right[q]
        left[u], right[u] = before, after
        m = kept[u]
        if (m & -m) < low_a:
            lefts[u], rights[u] = before + text[u] + ",", after
        else:
            lefts[u], rights[u] = before, "," + text[u] + after
    return lefts, rights


def _newicks(tree: PhyloTree, rooted: _Rooted, span: int) -> set[str]:
    """The Newick text of each distinct output of the operations in the first ``span`` blocks of each bisection."""
    leaf0, texts = cluster_texts(tree)
    lead = "(" + leaf0 + ","
    outputs: set[str] = set()
    for v, cut in enumerate(rooted.layout.cuts):
        text_a = _texts_a(rooted, texts, v)
        if v:
            lefts, rights = _holes_b(rooted, texts, v, lead)
        else:  # B is leaf 0 alone, so A's root is the vertex next to leaf 0
            text_a, lefts, rights = [t[1:-1] for t in text_a], [lead], [");"]
        for rows, cols in cut.blocks[:span]:
            holes = [(lefts[j], rights[j]) for j in cols]
            outputs.update([f"{left}{text_a[i]}{right}" for i in rows for left, right in holes])
    return outputs


class _Survey:
    """What the entries of one :func:`op_survey` call share: the tree's
    rooting and its shape's layout, the number of blocks the widest kind
    asked for fills, and the keys of that kind's operations (see the module
    docstring).

    A kind's operations are its prefix of each bisection's key row, the
    first ``row_ops[kind][v]`` entries, on both key paths.  Exact keys
    are counted per kind, over those prefixes.  Hashed keys are counted
    once, for the widest kind, and each operation of a shared key is
    re-checked once by :func:`_split_delta` and kept with its index in its
    row; each kind counts the deltas at indices inside its prefixes.
    """

    def __init__(self, tree: PhyloTree, kinds: tuple[OpKind, ...]):
        self.tree = tree
        self.rooted = _Rooted(tree)
        self.span = max(map(_BLOCK_COUNT.__getitem__, kinds), default=_BLOCK_COUNT[OpKind.NNI])

    @cached_property
    def keys(self) -> list[list[int]]:
        """Per bisection, the keys of the widest kind's operations, in block order."""
        return _hash_keys(self.rooted, self.span)

    @cached_property
    def rechecked(self) -> tuple[set[int], list[list[tuple[int, frozenset[int]]]]]:
        """Of hashed keys: the shared keys, and per bisection the index in
        its row and split delta of each operation of one."""
        rooted, keys = self.rooted, self.keys
        counts = Counter(chain.from_iterable(keys))
        shared = set(compress(counts, map((1).__lt__, counts.values())))
        deltas = []
        for v, (cut, row) in enumerate(zip(rooted.layout.cuts, keys)):
            indices = compress(count(), map(shared.__contains__, row))
            deltas.append([(index, _split_delta(rooted, v, *cut.op_at(index))) for index in indices])
        return shared, deltas

    def repeated(self, kind: OpKind) -> Counter:
        """The operations of ``kind``, the first ``row_ops[kind][v]`` of each
        bisection v's row, counted by output: with exact keys every output,
        by key; with hashed keys those of shared keys, by split delta."""
        row_ops = self.rooted.layout.row_ops[kind]
        if self.rooted.exact:
            return Counter(chain.from_iterable(row[:k] for row, k in zip(self.keys, row_ops)))
        return Counter(delta for row, k in zip(self.rechecked[1], row_ops) for index, delta in row if index < k)

    def full_key(self, key: int | frozenset[int]) -> tuple[int, ...]:
        """The sorted split masks of the output with this exact key, or with this split delta."""
        if self.rooted.exact:
            masks = []
            while key:
                low = key & -key
                masks.append(low.bit_length() - 1)
                key ^= low
            return tuple(masks)
        return tuple(sorted(key.symmetric_difference(self.rooted.cluster)))


class SurveyEntry:
    """Survey output for one operation kind.

    ``op_count`` is the size of the kind's prefixes of the key rows, which
    the shape's layout holds, and ``report`` reads the survey's count of
    the kind (:meth:`_Survey.repeated`).  Each output is named by its
    sorted split masks.  :meth:`output_keys` builds them on demand, decoded
    from an exact key, or the input's splits with a split delta flipped:
    that of an operation in the kind's prefix whose hashed key no other
    shares (:func:`_split_delta`), or one of the re-check.  ``repeats``
    reads that count alone, as an output of two or more operations always
    shares its key.  :meth:`newicks` reads no key at all: it splices each
    output's text from the layout's blocks.
    """

    def __init__(self, survey: _Survey, kind: OpKind):
        self._survey, self._kind = survey, kind
        self.op_count = survey.rooted.layout.op_count[kind]

    @cached_property
    def _repeated(self) -> Counter:  # this kind's counted operations, by exact key or split delta
        return self._survey.repeated(self._kind)

    @cached_property
    def report(self) -> NeighbourhoodReport:
        repeated = self._repeated
        unshared = self.op_count - sum(repeated.values())
        histogram = Counter(repeated.values())
        if unshared:
            histogram[1] += unshared
        size = unshared + len(repeated)
        return NeighbourhoodReport(self._survey.tree.n, self._kind, self.op_count, size, dict(histogram))

    def newicks(self) -> set[str]:
        """The Newick text of each distinct output tree, as
        :func:`~treespace.newick_io.serialize_newick` writes it."""
        return _newicks(self._survey.tree, self._survey.rooted, _BLOCK_COUNT[self._kind])

    def output_keys(self) -> Iterator[tuple[int, ...]]:
        """The sorted normalized split masks of each distinct output tree, once each."""
        survey = self._survey
        if self.report.neighbourhood_size > len(self._repeated):  # some output has a hashed key of its own
            rooted, keys, shared = survey.rooted, survey.keys, survey.rechecked[0]
            for v, (cut, row, k) in enumerate(zip(rooted.layout.cuts, keys, rooted.layout.row_ops[self._kind])):
                for index in compress(count(), (key not in shared for key in row[:k])):
                    yield survey.full_key(_split_delta(rooted, v, *cut.op_at(index)))
        yield from map(survey.full_key, self._repeated)

    @cached_property
    def repeats(self) -> dict[tuple[int, ...], int]:
        """The sorted split masks of each output of two or more operations, with its multiplicity."""
        full_key = self._survey.full_key
        return {full_key(key): c for key, c in self._repeated.items() if c > 1}


def op_survey(
    tree: PhyloTree,
    kinds: tuple[OpKind, ...] = (OpKind.NNI, OpKind.SPR, OpKind.TBR),
) -> dict[OpKind, SurveyEntry]:
    """Neighbourhoods and counts for the requested kinds from one preparation.

    Each output's splits are recombined from the tree's clusters at the
    positions of its shape's layout: a route independent of apply_op's graph
    surgery and of the test suite's split-key reference, which are both
    built from walks of the adjacency and cross-checked against it.  One
    pass that builds the keys, run when a report is first read, serves
    every kind (see the module docstring).
    """
    require_leaves(tree)
    survey = _Survey(tree, kinds)
    return {kind: SurveyEntry(survey, kind) for kind in kinds}
