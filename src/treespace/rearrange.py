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
St. John's majority tree (2003).  The survey reads the tree's preorder (its
one rooting, at leaf 0), so every subtree is one slice and the cluster C(v)
below each vertex is the split of the edge above it.  Bisecting that
edge leaves side A = C(v) and side B, the rest, and every component edge
keeps a cluster of the rooted tree with A at most added or removed.
Reconnecting a component at edge r flips exactly the component edges between
r and the component's root, so the hash of its contributed splits, for every
r at once, is a base sum plus a prefix sum down the slice of v (side A) or
down the rest of the preorder (side B): O(n) per bisection, with no walk of
its own.  The operations of a kind in one bisection are two blocks, rows of
A by cols of B (:func:`_blocks`), their keys the sums of the two hash lists
built a block at a time, and all keys are counted at once.  The count stays
exact: equal trees always share a hash, so a hash with one operation is one
distinct output tree, and the operations of every shared hash (the four
behind each NNI neighbour, plus any true collision) are located by position
in their block, re-keyed by their sorted split masks and split.

The Newick text of each output, written as
:func:`treespace.newick_io.serialize_newick` writes it, is spliced from
per-bisection pieces cut from the input tree's per-position subtree texts
(:func:`treespace.newick_io.cluster_texts`).  The output of (ref a, ref b)
is side B's text with a hole at ref b, and side A's text rooted at ref a
in the hole.  A's text at ref a does not depend on ref b: one rerooting
pass down the slice of v gives it at every ref (:func:`_texts_a`).  Where
the hole sits depends only on B, ref b and A's lowest leaf: one pass down
the rest of the preorder, rebuilding only the ancestors of v, gives the
text left and right of it at every ref (:func:`_holes_b`).  Each operation
of :func:`_blocks` then costs one concatenation, and as the text is
canonical a set of the texts holds each distinct output once.

Enumeration is the brute-force oracle used to verify every closed-form count
in :mod:`treespace.metrics`, so it never consults those formulas.
:func:`apply_op` performs a move by graph surgery over a fresh walk of the
adjacency, independent of the rooted preparation, and is the oracle the
survey is tested against.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections import Counter
from functools import cached_property, lru_cache, partial
from itertools import accumulate, chain, compress, count
from typing import Callable, Container, Iterator, NamedTuple, Sequence

from .errors import InvalidOp
from .newick_io import cluster_texts
from .tree_core import CanonicalForm, Edge, PhyloTree, require_leaves


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
    distinct operations produce that tree) to the number of such outputs.
    """

    __slots__ = ()

    def __new__(
        cls, n: int, kind: OpKind, op_count: int, neighbourhood_size: int, multiplicity_histogram: dict[int, int]
    ) -> "NeighbourhoodReport":
        ops = sum(m * c for m, c in multiplicity_histogram.items())
        size = sum(multiplicity_histogram.values())
        if ops != op_count or size != neighbourhood_size:
            raise ValueError("multiplicity histogram disagrees with the counts")
        return super().__new__(cls, n, kind, op_count, neighbourhood_size, multiplicity_histogram)

    def to_json(self) -> dict:
        return {
            **self._asdict(),
            "kind": self.kind.value,
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


class _Rooted:
    """The tree's :attr:`~treespace.tree_core.PhyloTree.preorder`, with what
    the survey adds to it.

    Position 0 is the neighbour of leaf 0.  ``parent[u]`` is the position
    above u (-1 above position 0), the subtree of u is the slice
    ``u:end[u]``, and ``cluster[u]`` is C(u), the leaves below u.  C(u) is
    also the normalized split mask of the edge above u, so the positions
    number the edges as well.  ``hashes[u]`` is h(C(u)) and ``prefix`` holds
    their running sums.
    """

    def __init__(self, tree: PhyloTree):
        _, parent, cluster = tree.preorder
        end = list(range(1, len(parent) + 1))
        for u in range(len(parent) - 1, 0, -1):
            p = parent[u]
            if end[u] > end[p]:
                end[p] = end[u]
        self.parent, self.cluster, self.end = parent, cluster, end
        self.hashes = [_mix(c) for c in cluster]
        self.prefix = list(accumulate(self.hashes, initial=0))


class _Side:
    """One component of a bisected tree and its reconnection choices.

    ``refs`` names each component edge by its partial split, normalized to
    the side without the component's smallest leaf; a single leaf has the
    one choice None.  ``scar`` is the index of the scar edge in ``refs`` and
    ``near`` the indices of the edges touching it.  ``sums[k]`` is the hash
    sum modulo 2^64 of the output splits the component contributes when
    reconnected at ``refs[k]`` (see :func:`_contributions`).
    """

    __slots__ = ("mask", "refs", "scar", "near", "sums")

    def __init__(self, mask: int, refs: list[int | None], scar: int, near: tuple[int, ...], sums: list[int]):
        self.mask = mask
        self.refs = refs
        self.scar = scar
        self.near = near
        self.sums = sums

    @property
    def single(self) -> bool:
        return self.refs[0] is None


def _single(mask: int) -> _Side:
    return _Side(mask, [None], 0, (), [0])


def _side_a(rooted: _Rooted, v: int) -> _Side:
    """Side A = C(v) of the bisection of the edge above v.

    v is suppressed, so its children x and y share the scar edge.
    Reconnected at the scar, every edge gives its own cluster and the scar
    both C(x) and C(y).  Reconnected at the edge above a vertex w below x,
    the scar gives C(y) alone, w gives C(w) and A ^ C(w), and every edge
    between w and x flips from C(u) to A ^ C(u): a prefix sum down x's
    slice.  The same holds below y.
    """
    cluster, parent, end, hashes = rooted.cluster, rooted.parent, rooted.end, rooted.hashes
    a = cluster[v]
    x, stop = v + 1, end[v]
    if x == stop:
        return _single(a)
    y = end[x]
    low = a & -a
    at_scar = rooted.prefix[stop] - rooted.prefix[x]
    refs: list[int | None] = [cluster[x] ^ a if cluster[x] & low else cluster[x]]
    sums = [at_scar & _M64]
    flips = [0] * stop  # per vertex below x or y: its flips up to there
    for top, last in ((x, y), (y, stop)):
        base = at_scar - hashes[top]
        for u in range(top + 1, last):
            c = cluster[u]
            g = _mix(a ^ c)
            d = flips[parent[u]]
            flips[u] = d + g - hashes[u]
            sums.append((base + g + d) & _M64)
            refs.append(c ^ a if c & low else c)
    # refs holds x, then x+1 .. y-1, then y+1 .. stop-1.
    near: tuple[int, ...] = ()
    if x + 1 < y:
        near += (1, end[x + 1] - x)
    if y + 1 < stop:
        near += (y - x, end[y + 1] - x - 1)
    return _Side(a, refs, 0, near, sums)


def _side_b(rooted: _Rooted, v: int) -> _Side:
    """Side B, the rest of the tree, when the edge above v is bisected.

    B stays rooted at leaf 0.  The parent p of v is suppressed, so v's
    sibling s hangs from p's parent and its edge is the scar.  An ancestor
    u of v has the cluster C'(u) = C(u) ^ A in B, every other vertex keeps
    C'(u) = C(u).  Reconnected at the edge above w, B gives C'(u) for every
    edge, C'(w) | A for w, and flips every edge above w to C'(u) | A (the
    side holding leaf 0, normalized): a prefix sum down the preorder.
    """
    cluster, parent, end, hashes = rooted.cluster, rooted.parent, rooted.end, rooted.hashes
    a = cluster[v]
    if v == 0:
        return _single(1)
    p, stop = parent[v], end[v]
    s = p + 1 if p + 1 != v else stop
    flips = [0] * (len(cluster) + 1)  # per vertex: its flips up to leaf 0 (the last slot: parent -1)
    rest = [*range(v), *range(stop, len(cluster))]
    parts: list[int] = []  # per ref: its flipped hash plus the flips above it
    lifted: list[tuple[int, int, int]] = []  # (ref index, position, kept hash) of the ancestors
    # joined = h(C(u) | A), the flipped hash of every vertex that is no ancestor of v
    for u, joined in zip(rest, map(_mix, map(a.__or__, map(cluster.__getitem__, rest)))):
        d = flips[parent[u]]
        if u < v < end[u]:  # an ancestor of v
            if u == p:
                flips[p] = d  # s continues from p's parent
                continue
            kept = _mix(cluster[u] ^ a)
            flips[u] = d + hashes[u] - kept
            lifted.append((len(parts), u, kept))
            parts.append(hashes[u] + d)
        else:
            flips[u] = d + joined - hashes[u]
            parts.append(joined + d)
    prefix = rooted.prefix
    total = prefix[-1] - (prefix[stop] - prefix[v]) - hashes[p]
    refs: list[int | None] = [*cluster[:p], *cluster[p + 1 : v], *cluster[stop:]]
    for k, u, kept in lifted:
        refs[k] ^= a
        total += kept - hashes[u]
    sums = [(total + q) & _M64 for q in parts]

    def index(u: int) -> int:  # refs skip p and the slice of v
        return u - (u > p) if u < v else u - (stop - v) - 1

    near: tuple[int, ...] = ()
    if s + 1 < end[s]:
        near += (index(s + 1), index(end[s + 1]))
    pp = parent[p]
    if pp >= 0:
        near += (index(pp), index(pp + 1 if pp + 1 != p else end[pp + 1]))
    return _Side((cluster[0] | 1) ^ a, refs, index(s), near, sums)


def _blocks(side_a: _Side, side_b: _Side, kind: OpKind) -> tuple[tuple[Sequence[int], Sequence[int]], ...]:
    """The operations of one bisection that are of ``kind`` or narrower, as
    two blocks (rows of A, cols of B): each row with each col is one index
    pair (ref a, ref b), row by row.

    This is the one place the classification rule of the module docstring
    is applied.  Side A's scar is ref 0 (:func:`_side_a` and :func:`_single`
    put it there).  The first block is the scar row, the second the other
    rows: every pair but scar-scar, which rebuilds the input tree, is TBR.
    SPR keeps the scar row and the scar column, and NNI keeps, of those, the
    pairs whose other ref touches its own scar.
    """
    sb = side_b.scar
    if kind is OpKind.NNI:
        return ((0,), side_b.near), (side_a.near, (sb,))
    width = len(side_b.refs)
    cols = range(width) if kind is OpKind.TBR else (sb,)
    return ((0,), (*range(sb), *range(sb + 1, width))), (range(1, len(side_a.refs)), cols)


def _pairs(side_a: _Side, side_b: _Side, kind: OpKind) -> list[tuple[int, int]]:
    """Index pairs (ref a, ref b) of the operations of :func:`_blocks`, in order."""
    return [(i, j) for rows, cols in _blocks(side_a, side_b, kind) for i in rows for j in cols]


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
    cluster = rooted.cluster
    ops = []
    for v in sorted(range(len(cluster)), key=cluster.__getitem__):
        side_a, side_b = _side_a(rooted, v), _side_b(rooted, v)
        refs_a, refs_b = side_a.refs, side_b.refs
        # Refs are distinct within a side, and a single leaf's one ref None
        # is never compared with another value.
        pairs = sorted((refs_a[i], refs_b[j]) for i, j in _pairs(side_a, side_b, kind))
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


# -- fast canonical assembly ---------------------------------------------------


def _contributions(side: _Side, ref: int | None, full: int) -> list[int]:
    """Normalized output-split masks this component contributes when
    reconnected at ``ref``.

    Every other component edge g separates the same leaves as before on the
    side away from the attachment point, so g flips to its complement within
    the component exactly when it contains ``ref``; the subdivided edge
    contributes both of its sides.  A complement within the component side
    that holds leaf 0 is normalized to its complement in the full leaf set,
    so either way it is g ^ A for side A of the bisection.
    """
    if side.single:
        return []
    a = side.mask ^ full if side.mask & 1 else side.mask
    parts = [a ^ g if (ref & g) == ref else g for g in side.refs]  # ref itself gives a ^ ref
    parts.append(ref)
    return parts


def _output_key(full: int, mask: int, ra: int | None, rb: int | None, side_a: _Side, side_b: _Side) -> tuple[int, ...]:
    """Exact key of one operation's output tree: its sorted normalized split masks."""
    key = _contributions(side_a, ra, full) + _contributions(side_b, rb, full)
    key.append(mask)
    key.sort()
    return tuple(key)


_Bisection = tuple[int, _Side, _Side]
_Placed = tuple[int, int, Sequence[int], Sequence[int]]  # (start, bisection, rows, cols)


def _hash_keys(bisections: list[_Bisection], kind: OpKind, width: int) -> tuple[list[int], list[_Placed]]:
    """Hash keys of the operations of ``kind`` or narrower, in :func:`_blocks`
    order per bisection, and each block placed at the position of its first key."""
    keys: list[int] = []
    placed: list[_Placed] = []
    for k, (mask, side_a, side_b) in enumerate(bisections):
        base, sums_a, sums_b = _mix(mask), side_a.sums, side_b.sums
        for rows, cols in _blocks(side_a, side_b, kind):
            placed.append((len(keys), k, rows, cols))
            ys = [sums_b[j] for j in cols]
            keys += [(x + y) & width for x in [base + sums_a[i] for i in rows] for y in ys]
    return keys, placed


def _locator(placed: list[_Placed]) -> Callable[[int], tuple[int, int, int]]:
    """Maps a key position of :func:`_hash_keys` to its operation (bisection, ref a, ref b)."""
    starts = [start for start, _, _, _ in placed]

    def locate(pos: int) -> tuple[int, int, int]:
        start, k, rows, cols = placed[bisect_right(starts, pos) - 1]
        r, c = divmod(pos - start, len(cols))
        return k, rows[r], cols[c]

    return locate


# -- Newick splice ---------------------------------------------------------------


def _join(t: str, c: int, u: str, d: int) -> str:
    """Newick text of a vertex whose children have texts t, u and disjoint clusters c, d."""
    return "(" + t + "," + u + ")" if (c & -c) < (d & -d) else "(" + u + "," + t + ")"


def _texts_a(rooted: _Rooted, texts: list[str], v: int) -> list[str]:
    """Newick text of side A rooted at each of its refs, in :func:`_side_a`'s order.

    Rooted at the scar, A is the subtree of v.  Rooted at the edge above a
    vertex w below x, its children are the subtree of w and the rest of A
    hung from w's parent q: q's other child beside the rest of A hung from
    q's parent, or y's subtree when q is x.  The same holds below y.
    """
    cluster, parent, end = rooted.cluster, rooted.parent, rooted.end
    a, x, stop = cluster[v], v + 1, end[v]
    out = [texts[v]]
    if x == stop:
        return out
    y = end[x]
    rest = [""] * stop  # per vertex w below x or y: the rest of A, hung from w's parent
    rest[x], rest[y] = texts[y], texts[x]
    for w in chain(range(x + 1, y), range(y + 1, stop)):
        q = parent[w]
        d = q + 1 if q + 1 != w else end[q + 1]  # the sibling of w
        rest[w] = _join(texts[d], cluster[d], rest[q], a ^ cluster[q])
        out.append(_join(texts[w], cluster[w], rest[w], a ^ cluster[w]))
    return out


def _holes_b(rooted: _Rooted, texts: list[str], v: int, lead: str) -> tuple[list[str], list[str]]:
    """Side B's Newick text left and right of a hole at each of its refs, in
    :func:`_side_b`'s order, for v > 0.

    Reconnecting A at ref b gives the text left + (A's text) + right.  B
    stays rooted at leaf 0 and v's sibling s hangs where v's parent p hung,
    so only the ancestors of v change text, once each, with C(u) ^ A as
    their cluster.  Going down, the subtree that holds the hole also holds
    A, which can move it before its sibling.  The vertex next to leaf 0 is
    written without its parentheses, after ``lead``: "(", leaf 0 and ",".
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
    lefts: list[str] = []
    rights: list[str] = []
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
            lefts.append(before + text[u] + ",")
            rights.append(after)
        else:
            lefts.append(before)
            rights.append("," + text[u] + after)
    return lefts, rights


def _newicks(tree: PhyloTree, rooted: _Rooted, bisections: list[_Bisection], kind: OpKind) -> set[str]:
    """The Newick text of each distinct output of the operations of ``kind`` or narrower."""
    leaf0, texts = cluster_texts(tree)
    lead = "(" + leaf0 + ","
    outputs: set[str] = set()
    for v, (_, side_a, side_b) in enumerate(bisections):
        text_a = _texts_a(rooted, texts, v)
        if v:
            lefts, rights = _holes_b(rooted, texts, v, lead)
        else:  # B is leaf 0 alone, so A's root is the vertex next to leaf 0
            text_a, lefts, rights = [t[1:-1] for t in text_a], [lead], [");"]
        for rows, cols in _blocks(side_a, side_b, kind):
            holes = [(lefts[j], rights[j]) for j in cols]
            outputs.update([f"{left}{text_a[i]}{right}" for i in rows for left, right in holes])
    return outputs


class SurveyEntry:
    """Survey output for one operation kind.

    ``report`` comes from the hash count.  :meth:`output_keys`,
    ``multiplicities`` (output tree to the number of operations producing it)
    and ``forms`` are exact as well, but built on demand: ``singles`` re-keys
    each operation whose kept hash key no other shares, and ``repeated``
    counts the re-keyed operations of shared hashes.
    ``repeats`` reads ``repeated`` alone: an output of two or more operations
    always shares its hash, so it never needs the walk.  :meth:`newicks`
    reads no key at all: it splices each output's text from the sides.
    """

    def __init__(
        self,
        report: NeighbourhoodReport,
        names: tuple[str, ...],
        singles: Callable[[], Iterator[tuple[int, ...]]],
        repeated: Counter,
        newicks: Callable[[], set[str]],
    ):
        self.report = report
        self._names = names
        self._singles = singles
        self._repeated = repeated
        self._newicks = newicks

    def newicks(self) -> set[str]:
        """The Newick text of each distinct output tree, as
        :func:`~treespace.newick_io.serialize_newick` writes it."""
        return self._newicks()

    def output_keys(self) -> Iterator[tuple[int, ...]]:
        """The sorted normalized split masks of each distinct output tree, once each."""
        yield from self._singles()
        yield from self._repeated

    @cached_property
    def multiplicities(self) -> dict[CanonicalForm, int]:
        names, repeated = self._names, self._repeated
        return {CanonicalForm(key, names): repeated.get(key, 1) for key in self.output_keys()}

    @cached_property
    def repeats(self) -> dict[CanonicalForm, int]:
        """The outputs of two or more operations, each with its multiplicity."""
        names = self._names
        return {CanonicalForm(key, names): c for key, c in self._repeated.items() if c > 1}

    @cached_property
    def forms(self) -> frozenset[CanonicalForm]:
        return frozenset(self.multiplicities)


def op_survey(
    tree: PhyloTree,
    kinds: tuple[OpKind, ...] = (OpKind.NNI, OpKind.SPR, OpKind.TBR),
) -> dict[OpKind, SurveyEntry]:
    """Neighbourhoods and counts for the requested kinds from one preparation.

    Output splits are recombined directly from the component partial splits,
    which is an independent route from apply_op's graph surgery (the two are
    cross-checked in the test suite).  Per kind, the hash keys of its
    operations are counted, and the operations of every key held by two or
    more are re-keyed exactly (see the module docstring).
    """
    require_leaves(tree)
    full = tree.full_mask
    width = (1 << _HASH_BITS) - 1
    rooted = _Rooted(tree)
    bisections = [(mask, _side_a(rooted, v), _side_b(rooted, v)) for v, mask in enumerate(rooted.cluster)]

    rechecked: dict[tuple[int, int, int], tuple[int, ...]] = {}

    def exact(k: int, i: int, j: int) -> tuple[int, ...]:
        mask, side_a, side_b = bisections[k]
        return _output_key(full, mask, side_a.refs[i], side_b.refs[j], side_a, side_b)

    def singles(keys: list[int], shared: set[int], locate: Callable) -> Iterator[tuple[int, ...]]:
        return (exact(*locate(pos)) for pos, key in enumerate(keys) if key not in shared)

    entries = {}
    for kind in kinds:
        keys, placed = _hash_keys(bisections, kind, width)
        locate = _locator(placed)
        counts = Counter(keys)
        shared = set(compress(counts, map((1).__lt__, counts.values())))  # the keys counted more than once
        repeated: Counter = Counter()
        for op in map(locate, compress(count(), map(shared.__contains__, keys))):
            if op not in rechecked:
                rechecked[op] = exact(*op)
            repeated[rechecked[op]] += 1
        unshared = len(counts) - len(shared)
        histogram = Counter(repeated.values())
        if unshared:
            histogram[1] += unshared
        report = NeighbourhoodReport(
            n=tree.n,
            kind=kind,
            op_count=len(keys),
            neighbourhood_size=unshared + len(repeated),
            multiplicity_histogram=dict(histogram),
        )
        entries[kind] = SurveyEntry(
            report,
            tree.leaf_order,
            partial(singles, keys, shared, locate),
            repeated,
            partial(_newicks, tree, rooted, bisections, kind),
        )
    return entries
