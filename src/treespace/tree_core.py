"""Representation and split machinery for unrooted binary phylogenetic trees.

A phylogenetic tree here is an unrooted tree whose vertices all have degree
1 or 3, with a unique label on every degree-1 vertex (leaf).  Leaves are
addressed by an integer index assigned from the sorted label order, so every
bipartition of the leaf set fits in one integer bitmask.  The sorted set of
edge bitmasks is a complete fingerprint of the labelled tree: two trees on
the same leaf set are identical exactly when their split sets are equal.

There is one way to build a tree: :class:`PhyloTree` takes an edge list and
the label of each leaf vertex, and validates them.  The Newick parser, the
generators and :func:`treespace.rearrange.apply_op` all hand it edge
lists; an empty edge list with one label is the one-leaf tree.

Every tree is rooted once, at leaf 0, by :attr:`PhyloTree.preorder`.  Split
masks, Gamma, the rearrangement survey and the complete-tree predicate all
read that one traversal; :func:`~treespace.rearrange.apply_op` walks the
adjacency instead, so that it stays an independent oracle.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    Cyclic,
    DegreeViolation,
    Disconnected,
    DuplicateLabel,
    EmptyLabel,
    TooFewLeaves,
    TooManyLeaves,
)

#: Structural cap so that one split always fits a 64-bit mask.  Closed-form
#: size functions in :mod:`treespace.metrics` are not subject to this cap.
MAX_LEAVES = 64

Edge = tuple[int, int]


def _ordered_names(names: Iterable[str]) -> tuple[str, ...]:
    """Sort labels numerically when all of them are integer literals.

    Trees generated in this package label leaves "1".."n"; numeric-aware
    ordering keeps leaf index i attached to label str(i+1) past n = 9.
    """
    names = list(names)
    try:
        return tuple(sorted(names, key=lambda s: (int(s), s)))
    except ValueError:
        return tuple(sorted(names))


class CanonicalForm(NamedTuple):
    """Order-independent fingerprint of a labelled tree.

    Holds the sorted tuple of all edge split masks plus the sorted leaf
    labels.  Equal forms mean equal labelled trees, independent of vertex
    ids and edge order.
    """

    split_masks: tuple[int, ...]
    leaf_names: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.leaf_names)


class Preorder(NamedTuple):
    """A tree rooted at leaf 0, its other vertices numbered in preorder.

    Position 0 is the neighbour of leaf 0; children are visited in
    descending vertex order.  Per position: its ``vertex`` id, the
    ``parent`` position (-1 above position 0, where leaf 0 hangs) and the
    ``cluster`` mask of the leaves below it.  The cluster below a position
    is the normalized split mask of the edge above it, so the positions
    number the edges as well, and every subtree is the slice that starts at
    its top position.
    """

    vertex: tuple[int, ...]
    parent: tuple[int, ...]
    cluster: tuple[int, ...]


class PhyloTree:
    """An immutable unrooted binary tree on uniquely labelled leaves.

    Built from an edge list, each edge a pair of vertex ids, and the label
    of each leaf vertex.  Vertices are opaque integer ids supplied by the
    caller; only the leaf labels carry meaning.  The constructor checks that
    the edges form a tree (no self-loop, |E| = |V| - 1, connected), that
    every vertex has degree 1 or 3, that exactly the leaves are labelled,
    uniquely, and that there are at most MAX_LEAVES leaves.  All derived
    structure (leaf indices, the rooted preorder, per-edge split masks, the
    canonical form) is computed once and cached.  Instances are safe to
    share between threads.
    """

    def __init__(self, edges: Iterable[Edge], leaf_names: Mapping[int, str]):
        nbrs: dict[int, list[int]] = {}
        pairs: list[Edge] = []
        for u, v in edges:
            if u == v:
                raise Cyclic(f"self-loop at vertex {v}")
            nbrs.setdefault(u, []).append(v)
            nbrs.setdefault(v, []).append(u)
            pairs.append((u, v) if u < v else (v, u))
        for v in leaf_names:
            nbrs.setdefault(v, [])  # a leaf on no edge: the one-leaf tree
        self._adj = {v: tuple(sorted(ws)) for v, ws in nbrs.items()}
        self._edges: tuple[Edge, ...] = tuple(sorted(pairs))
        self._leaf_name: dict[int, str] = dict(leaf_names)
        self._validate()

    # -- validation -----------------------------------------------------

    def _validate(self) -> None:
        adj = self._adj
        if not adj:
            raise Disconnected("tree has no vertices")
        n_vertices = len(adj)
        if len(self._edges) > n_vertices - 1:
            raise Cyclic(f"{len(self._edges)} edges on {n_vertices} vertices")
        if len(self._edges) < n_vertices - 1:
            raise Disconnected(f"{len(self._edges)} edges cannot connect {n_vertices} vertices")

        # BFS connectivity; with |E| = |V| - 1 this also certifies acyclicity.
        start = next(iter(adj))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        if len(seen) != n_vertices:
            raise Disconnected(f"only {len(seen)} of {n_vertices} vertices reachable")

        leaves = set()
        for v, nbrs in adj.items():
            d = len(nbrs)
            if d == 0 and n_vertices == 1:
                leaves.add(v)
            elif d == 1:
                leaves.add(v)
            elif d != 3:
                raise DegreeViolation(f"vertex {v} has degree {d}")

        names = self._leaf_name
        for v in leaves:
            if v not in names:
                raise EmptyLabel(f"leaf vertex {v} has no label")
        for v, name in names.items():
            if v not in leaves:
                raise DegreeViolation(f"label {name!r} attached to internal vertex {v}")
            if not isinstance(name, str) or not name:
                raise EmptyLabel(f"leaf vertex {v} has an empty label")
        if len(set(names.values())) != len(names):
            counts: dict[str, int] = {}
            for name in names.values():
                counts[name] = counts.get(name, 0) + 1
            dup = next(name for name, c in counts.items() if c > 1)
            raise DuplicateLabel(f"label {dup!r} occurs more than once")
        if len(leaves) > MAX_LEAVES:
            raise TooManyLeaves(f"{len(leaves)} leaves exceed the cap of {MAX_LEAVES}")
        self._leaf_vertices = frozenset(leaves)

    # -- basic accessors ------------------------------------------------

    @property
    def n(self) -> int:
        """Number of leaves."""
        return len(self._leaf_vertices)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._adj))

    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def is_leaf(self, v: int) -> bool:
        return v in self._leaf_vertices

    def leaf_name(self, v: int) -> str:
        return self._leaf_name[v]

    @cached_property
    def leaf_order(self) -> tuple[str, ...]:
        """Leaf labels in index order (index i is ``leaf_order[i]``)."""
        return _ordered_names(self._leaf_name.values())

    @cached_property
    def _vertex_by_index(self) -> tuple[int, ...]:
        by_name = {name: v for v, name in self._leaf_name.items()}
        return tuple(by_name[name] for name in self.leaf_order)

    @cached_property
    def _index_by_vertex(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self._vertex_by_index)}

    def vertex_leaf_index(self, v: int) -> int:
        """Leaf index of a leaf vertex id."""
        return self._index_by_vertex[v]

    # -- split machinery -------------------------------------------------

    @cached_property
    def preorder(self) -> Preorder:
        """The tree rooted at leaf 0 (see :class:`Preorder`); empty for n = 1.

        One stack walk from the neighbour of leaf 0, then one pass up the
        positions ORs each cluster into its parent's, so no mask ever holds
        bit 0.
        """
        if self.n <= 1:
            return Preorder((), (), ())
        root = self._vertex_by_index[0]
        adj, index_of = self._adj, self._index_by_vertex
        vertex: list[int] = []
        parent: list[int] = []
        cluster: list[int] = []
        stack = [(adj[root][0], root, -1)]
        while stack:
            v, up, p = stack.pop()
            u = len(vertex)
            vertex.append(v)
            parent.append(p)
            cluster.append(1 << index_of[v] if v in index_of else 0)
            stack += [(w, v, u) for w in adj[v] if w != up]
        for u in range(len(vertex) - 1, 0, -1):
            cluster[parent[u]] |= cluster[u]
        return Preorder(tuple(vertex), tuple(parent), tuple(cluster))

    @cached_property
    def split_masks(self) -> tuple[int, ...]:
        """Sorted masks of all 2n-3 splits (normalized: bit 0 never set)."""
        return tuple(sorted(self.preorder.cluster))

    @cached_property
    def _canonical_form(self) -> CanonicalForm:
        return CanonicalForm(self.split_masks, self.leaf_order)

    def canonical_form(self) -> CanonicalForm:
        return self._canonical_form

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhyloTree):
            return NotImplemented
        return self._canonical_form == other._canonical_form

    def __hash__(self) -> int:
        return hash(self._canonical_form)

    def __repr__(self) -> str:
        return f"PhyloTree(n={self.n}, leaves={list(self.leaf_order)!r})"


def require_leaves(tree_or_n: "PhyloTree | int") -> int:
    """Return the leaf count, raising TooFewLeaves below 4."""
    n = tree_or_n.n if isinstance(tree_or_n, PhyloTree) else int(tree_or_n)
    if n < 4:
        raise TooFewLeaves(f"need at least 4 leaves, got {n}")
    return n
