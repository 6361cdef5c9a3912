"""Representation and split machinery for unrooted binary phylogenetic trees.

A phylogenetic tree here is an unrooted tree whose vertices all have degree
1 or 3, with a unique label on every degree-1 vertex (leaf).  Leaves are
addressed by an integer index assigned from the sorted label order, so every
bipartition of the leaf set fits in one integer bitmask.  The sorted set of
edge bitmasks is a complete fingerprint of the labelled tree: two trees on
the same leaf set are identical exactly when their split sets are equal.

There are two routes into a tree, and both end in the same walk.
:class:`PhyloTree` takes an edge list and the label of each leaf vertex,
and validates them; the Newick parser, the named families,
:func:`~treespace.generators.random_tree` and
:func:`treespace.rearrange.apply_op` all hand it edge lists, and an empty
edge list with one label is the one-leaf tree.  The tree keeps the
adjacency, not the list.  :func:`~treespace.generators.all_trees` instead
grows each tree's adjacency from its parent's by one leaf insertion, whose
degrees and labels are valid by construction, and hands it to a private
constructor with the leaf order it computed once for all of T_n.

Every tree is walked once, from leaf 0, when it is built: that walk checks
that the edges connect every vertex and is the tree's rooting,
:attr:`PhyloTree.preorder`: per position, its parent position, the cluster
of leaves below it and their count.  Split masks, Gamma, the rearrangement
survey and both shape predicates read it;
:func:`~treespace.rearrange.apply_op` walks the adjacency instead, so that
it stays an independent oracle.
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


def _leaf_order(names: Mapping[int, str]) -> list[tuple[str, int]]:
    """(label, vertex) per leaf, in leaf index order: by label, numerically
    when every label is an integer literal.

    Trees generated in this package label leaves "1".."n"; numeric-aware
    ordering keeps leaf index i attached to label str(i+1) past n = 9.
    """
    try:
        return [(s, v) for _, s, v in sorted((int(s), s, v) for v, s in names.items())]
    except ValueError:
        return sorted((s, v) for v, s in names.items())


class CanonicalForm(NamedTuple):
    """Order-independent fingerprint of a labelled tree.

    Holds the sorted tuple of all edge split masks plus the sorted leaf
    labels.  Equal forms mean equal labelled trees, independent of vertex
    ids and edge order.
    """

    split_masks: tuple[int, ...]
    leaf_names: tuple[str, ...]


class Preorder(NamedTuple):
    """A tree rooted at leaf 0, its other vertices numbered in preorder.

    Position 0 is the neighbour of leaf 0; children are visited in
    descending vertex order.  Per position: the ``parent`` position (-1
    above position 0, where leaf 0 hangs), the ``cluster`` mask of the
    leaves below it and their number, ``size``.
    The cluster below a position is the normalized split mask of the edge
    above it, so the positions number the edges as well, and every subtree
    is the slice that starts at its top position.  ``parent`` alone is the
    tree's rooted shape.
    """

    parent: tuple[int, ...]
    cluster: tuple[int, ...]
    size: tuple[int, ...]


def _check_vertices(adj: dict[int, list[int]], names: dict[int, str]) -> None:
    """Raises unless every vertex has degree 1 or 3 and exactly the leaves
    carry labels, unique, non-empty strings, at most MAX_LEAVES of them."""
    leaves = set()
    for v, nbrs in adj.items():
        d = len(nbrs)
        if d == 0 and len(adj) == 1:
            leaves.add(v)
        elif d == 1:
            leaves.add(v)
        elif d != 3:
            raise DegreeViolation(f"vertex {v} has degree {d}")
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


def _walk(adj: dict[int, list[int]], index_of: dict[int, int], root: int) -> Preorder:
    """The preorder of the tree hung from leaf vertex ``root``, and the check
    that the edges connect every vertex.

    One stack walk from the neighbour of ``root`` that pushes each vertex's
    other two neighbours in ascending order, so that the larger is visited
    first, and never turns back along the edge it came by.  Such a walk
    ends only if it meets no cycle, a doubled edge included, so it is
    stopped after |V| - 1 positions.  Given |E| = |V| - 1 and the degrees,
    the edges form a tree exactly when the walk ends there on its own:
    ending sooner, it missed a vertex; going on, it met a cycle, and then
    |E| = |V| - 1 leaves some vertex unreachable.  Then one pass up the
    positions ORs each cluster into its parent's and adds up the sizes, so
    no mask ever holds bit 0.
    """
    limit = len(adj) - 1
    parent: list[int] = []
    cluster: list[int] = []
    size: list[int] = []
    stack = [(adj[root][0], root, -1)]
    pop, push = stack.pop, stack.append
    for u in range(limit):
        if not stack:
            raise Disconnected(f"only {u + 1} of {limit + 1} vertices reachable")
        v, up, p = pop()
        parent.append(p)
        i = index_of.get(v)
        if i is None:
            cluster.append(0)
            size.append(0)
            x, y, z = adj[v]
            if x == up:
                x = z
            elif y == up:
                y = z
            if x > y:
                x, y = y, x
            push((x, v, u))
            push((y, v, u))
        else:
            cluster.append(1 << i)
            size.append(1)
    if stack:
        raise Disconnected(f"{limit} edges on {limit + 1} vertices close a cycle, so some vertex is unreachable")
    for u in range(limit - 1, 0, -1):
        p = parent[u]
        cluster[p] |= cluster[u]
        size[p] += size[u]
    return Preorder(tuple(parent), tuple(cluster), tuple(size))


class PhyloTree:
    """An immutable unrooted binary tree on uniquely labelled leaves.

    Built from an edge list, each edge a pair of vertex ids, and the label
    of each leaf vertex.  Vertices are opaque integer ids supplied by the
    caller; only the leaf labels carry meaning.  The constructor checks that
    there is no self-loop and |E| = |V| - 1, that every vertex has degree 1
    or 3, that exactly the leaves are labelled, uniquely, that there are at
    most MAX_LEAVES leaves, and then, with the one walk that builds the
    :attr:`preorder`, that the edges are connected.  The leaf order and the
    preorder are built there; the split masks and the canonical form on
    first use.  The trees of :func:`~treespace.generators.all_trees` skip
    the checks before the walk (see :meth:`_grown`) and are otherwise the
    same.  Instances are safe to share between threads.
    """

    def __init__(self, edges: Iterable[Edge], leaf_names: Mapping[int, str]):
        adj: dict[int, list[int]] = {}
        edge_count = 0
        for u, v in edges:
            if u == v:
                raise Cyclic(f"self-loop at vertex {v}")
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
            edge_count += 1
        for v in leaf_names:
            adj.setdefault(v, [])  # a leaf on no edge: the one-leaf tree
        names = dict(leaf_names)
        if not adj:
            raise Disconnected("tree has no vertices")
        if edge_count > len(adj) - 1:
            raise Cyclic(f"{edge_count} edges on {len(adj)} vertices")
        if edge_count < len(adj) - 1:
            raise Disconnected(f"{edge_count} edges cannot connect {len(adj)} vertices")
        _check_vertices(adj, names)
        order = _leaf_order(names)
        index_by_vertex = {v: i for i, (_, v) in enumerate(order)}
        self._store(adj, names, tuple(name for name, _ in order), index_by_vertex, order[0][1])

    @classmethod
    def _grown(
        cls,
        adj: dict[int, list[int]],
        leaf_name: dict[int, str],
        leaf_order: tuple[str, ...],
        index_by_vertex: dict[int, int],
        root: int,
    ) -> "PhyloTree":
        """A tree from an adjacency whose degrees and labels are valid by
        construction, with its leaf order, leaf index and the vertex of
        leaf 0 given: no checks, only the walk.  The tree keeps the
        arguments, so the caller must not change them afterwards."""
        tree = cls.__new__(cls)
        tree._store(adj, leaf_name, leaf_order, index_by_vertex, root)
        return tree

    def _store(
        self,
        adj: dict[int, list[int]],
        leaf_name: dict[int, str],
        leaf_order: tuple[str, ...],
        index_by_vertex: dict[int, int],
        root: int,
    ) -> None:
        """The tail both routes share: keep the fields and walk from ``root``."""
        self._adj = adj
        self._leaf_name = leaf_name
        self._leaf_order = leaf_order
        self._index_by_vertex = index_by_vertex
        self._preorder = _walk(adj, index_by_vertex, root) if len(leaf_order) > 1 else Preorder((), (), ())

    # -- basic accessors ------------------------------------------------

    @property
    def n(self) -> int:
        """Number of leaves."""
        return len(self._leaf_order)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._adj))

    def neighbors(self, v: int) -> tuple[int, ...]:
        """The neighbours of vertex ``v``, ascending."""
        return tuple(sorted(self._adj[v]))

    def is_leaf(self, v: int) -> bool:
        return v in self._index_by_vertex

    def leaf_name(self, v: int) -> str:
        return self._leaf_name[v]

    @property
    def leaf_order(self) -> tuple[str, ...]:
        """Leaf labels in index order (index i is ``leaf_order[i]``)."""
        return self._leaf_order

    def vertex_leaf_index(self, v: int) -> int:
        """Leaf index of a leaf vertex id."""
        return self._index_by_vertex[v]

    # -- split machinery -------------------------------------------------

    @property
    def preorder(self) -> Preorder:
        """The tree rooted at leaf 0 (see :class:`Preorder`); empty for n = 1."""
        return self._preorder

    @cached_property
    def split_masks(self) -> tuple[int, ...]:
        """Sorted masks of all 2n-3 splits (normalized: bit 0 never set)."""
        return tuple(sorted(self._preorder.cluster))

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
