"""Shared helpers: the edge lists of T_n by leaf insertion, restriction,
and definitional rearrangement checks built only on restriction and
subtree-swap surgery, independent of the scar-edge classification rules
they are used to validate, a Newick writer independent
of the preorder one, bisection components, the exact split key of each
operation's output and Gamma from an adjacency walk, independent of the
tree's rooted preorder, the cluster-set definition of a complete tree,
the neighbour definition of a caterpillar, and a survey's outputs as
canonical forms."""

from __future__ import annotations

from typing import Iterable, Iterator

import pytest

from treespace import CanonicalForm, PhyloTree
from treespace.tree_core import Edge


def edge_list(tree: PhyloTree) -> list[Edge]:
    """Every edge once, as (lower id, higher id), ascending, read off the adjacency."""
    return [(u, w) for u in tree.vertices() for w in tree.neighbors(u) if u < w]


def reference_insertion_edges(n: int, prefix: tuple[int, ...] = ()) -> Iterator[list[Edge]]:
    """The edge list of every tree of T_n whose insertion code starts with
    ``prefix``, in enumeration order, by leaf insertion on edge lists alone.

    Leaf ``leaf`` (0-based, from 3) subdivides edge i of the current list
    with the new vertex n + leaf - 2; the list drops that edge and appends
    the three new ones.  No adjacency is kept, so it checks the grown
    adjacency of :func:`treespace.all_trees` instead of sharing its route.
    """

    def grow(edges: list[Edge], leaf: int) -> Iterator[list[Edge]]:
        if leaf == n:
            yield edges
            return
        w = n + leaf - 2
        depth = leaf - 3
        for i in range(len(edges)) if depth >= len(prefix) else (prefix[depth],):
            u, v = edges[i]
            yield from grow(edges[:i] + edges[i + 1 :] + [(u, w), (w, v), (w, leaf)], leaf + 1)

    return grow([(0, n), (1, n), (2, n)], 3)


def names_of_mask(tree: PhyloTree, mask: int) -> set[str]:
    return {tree.leaf_order[i] for i in range(tree.n) if mask >> i & 1}


def leaf_zero(tree: PhyloTree) -> int:
    """The vertex of leaf index 0."""
    return min(filter(tree.is_leaf, tree.vertices()), key=tree.vertex_leaf_index)


def cluster_masks(tree: PhyloTree) -> frozenset[int]:
    """Both sides of every split, as plain leaf-index masks."""
    return frozenset(m ^ side for m in tree.split_masks for side in (0, tree.full_mask))


def is_cherry(tree: PhyloTree, first: str, second: str) -> bool:
    """True when the two named leaves form a size-2 cluster."""
    return (1 << tree.leaf_order.index(first) | 1 << tree.leaf_order.index(second)) in cluster_masks(tree)


def restrict(tree: PhyloTree, leaves: Iterable[str]) -> PhyloTree:
    """Minimal subtree connecting ``leaves``, degree-2 vertices suppressed.

    Returns the one- or two-leaf degenerate tree for |leaves| <= 2.
    """
    keep_names = set(leaves)
    keep = {v for v in tree.vertices() if tree.is_leaf(v) and tree.leaf_name(v) in keep_names}
    assert keep and len(keep) == len(keep_names), "restriction needs leaves of the tree"

    adj: dict[int, set[int]] = {v: set(tree.neighbors(v)) for v in tree.vertices()}
    # Shed leaves outside the kept set, then any chains exposed by that.
    prune = [v for v in adj if len(adj[v]) <= 1 and v not in keep]
    while prune:
        v = prune.pop()
        for w in adj.pop(v):
            adj[w].discard(v)
            if len(adj[w]) <= 1 and w not in keep:
                prune.append(w)
    # Splice out degree-2 vertices (kept leaves never have degree 2).
    for v in [v for v, ws in adj.items() if len(ws) == 2]:
        a, b = adj.pop(v)
        adj[a].discard(v)
        adj[b].discard(v)
        adj[a].add(b)
        adj[b].add(a)
    edges = [(v, w) for v, ws in adj.items() for w in ws if v < w]
    return PhyloTree(edges, {v: tree.leaf_name(v) for v in keep})


def cluster_attachments(tree: PhyloTree) -> dict[int, tuple[int, int]]:
    """Per cluster (either side of a split, as a leaf-index mask): the root
    vertex of its subtree and the vertex it attaches to.

    One walk of the adjacency, with the tree hung from leaf 0.
    """
    full = tree.full_mask
    out: dict[int, tuple[int, int]] = {}

    def below(v: int, up: int) -> int:
        kids = [w for w in tree.neighbors(v) if w != up]
        m = sum(below(w, v) for w in kids) if kids else 1 << tree.vertex_leaf_index(v)
        out[m], out[m ^ full] = (v, up), (up, v)
        return m

    root = leaf_zero(tree)
    below(tree.neighbors(root)[0], root)
    return out


def swap_clusters(tree: PhyloTree, attachments: dict[int, tuple[int, int]], y_mask: int, z_mask: int) -> PhyloTree:
    """Exchange the pendant subtrees of two disjoint clusters, given the
    tree's :func:`cluster_attachments`."""
    assert y_mask & z_mask == 0
    ry, ay = attachments[y_mask]
    rz, az = attachments[z_mask]
    dropped = {tuple(sorted((ry, ay))), tuple(sorted((rz, az)))}
    edges: list[Edge] = [e for e in edge_list(tree) if e not in dropped]
    edges += [(ay, rz), (az, ry)]
    names = {v: tree.leaf_name(v) for v in tree.vertices() if tree.is_leaf(v)}
    return PhyloTree(edges, names)


def restriction_preserved(tree: PhyloTree, result: PhyloTree, kept_mask: int) -> bool:
    """T|(X + {x}) == T'|(X + {x}) for one leaf x outside X.

    Holding for one outside leaf is equivalent to holding for all of them,
    so a single arbitrary pick (the lowest outside index) suffices.
    """
    outside = kept_mask ^ tree.full_mask
    x = (outside & -outside).bit_length() - 1
    leaves = names_of_mask(tree, kept_mask) | {tree.leaf_order[x]}
    return restrict(tree, leaves) == restrict(result, leaves)


def spr_definitional(tree: PhyloTree, result: PhyloTree, bisect_mask: int) -> bool:
    """The restriction-based SPR test: one component of the bisection keeps
    its position relative to the other."""
    return restriction_preserved(tree, result, bisect_mask) or restriction_preserved(
        tree, result, bisect_mask ^ tree.full_mask
    )


def nni_definitional(tree: PhyloTree, result: PhyloTree, bisect_mask: int) -> bool:
    """The subtree-swap NNI test.

    The pruned component Y is the side whose restriction (plus one foreign
    leaf) is preserved; the move is an interchange exactly when the result
    equals the tree with Y swapped against some disjoint cluster Z.
    """
    full = tree.full_mask
    attachments = cluster_attachments(tree)
    for y in (bisect_mask, bisect_mask ^ full):
        if not restriction_preserved(tree, result, y):
            continue
        for z in attachments:
            # z must be a different subtree: disjoint from y and not its
            # complement (both sides of one split hang off the same edge).
            if z & y or z | y == full:
                continue
            if swap_clusters(tree, attachments, y, z) == result:
                return True
    return False


def reference_newick(tree: PhyloTree) -> str:
    """Newick text in serialize_newick's format, by recursion over vertices.

    Rooted at the neighbour of leaf index 0, children ordered by their
    smallest leaf index.  It reads only the adjacency, never the preorder,
    so it checks the preorder writer instead of sharing its route.  A label
    holding whitespace or any of ``()[]',:;`` is quoted, each ``'`` doubled.
    """

    def quote(name: str) -> str:
        if any(ch.isspace() or ch in "()[]',:;" for ch in name):
            return "'" + name.replace("'", "''") + "'"
        return name

    def render(v: int, parent: int) -> tuple[int, str]:
        if tree.is_leaf(v):
            return tree.vertex_leaf_index(v), quote(tree.leaf_name(v))
        parts = sorted(render(w, v) for w in tree.neighbors(v) if w != parent)
        return parts[0][0], "(" + ",".join(text for _, text in parts) + ")"

    center = tree.neighbors(leaf_zero(tree))[0]
    parts = sorted(render(w, center) for w in tree.neighbors(center))
    return "(" + ",".join(text for _, text in parts) + ");"


def reference_component(tree: PhyloTree, inside: int, outside: int) -> tuple[int, tuple, object, frozenset]:
    """One component of the tree cut between ``inside`` and ``outside``.

    Returns (leaf mask, sorted refs, scar ref, near-scar refs) in the form
    of rearrange's bisection sides.  The component is walked over the
    adjacency, ``inside`` (degree 2 after the cut) is spliced out, and the
    rest is rooted at its smallest leaf; an edge's ref is the set of leaves
    below it.  It reads leaf indices and the adjacency only, never a split
    or cluster mask of the tree.
    """
    adj: dict[int, list[int]] = {}
    stack = [inside]
    while stack:
        x = stack.pop()
        if x not in adj:
            adj[x] = [y for y in tree.neighbors(x) if (x, y) != (inside, outside)]
            stack += adj[x]
    leaves = sorted((x for x in adj if tree.is_leaf(x)), key=tree.vertex_leaf_index)
    mask = sum(1 << tree.vertex_leaf_index(x) for x in leaves)
    if len(leaves) == 1:
        return mask, (None,), None, frozenset()
    a, b = adj.pop(inside)
    adj[a] = [b if y == inside else y for y in adj[a]]
    adj[b] = [a if y == inside else y for y in adj[b]]

    refs: dict[frozenset, int] = {}

    def below(x: int, parent: int) -> int:
        kids = [y for y in adj[x] if y != parent]
        m = sum(below(y, x) for y in kids) if kids else 1 << tree.vertex_leaf_index(x)
        refs[frozenset((x, parent))] = m
        return m

    root = leaves[0]
    below(adj[root][0], root)
    scar = frozenset((a, b))
    near = frozenset(r for e, r in refs.items() if e != scar and e & scar)
    return mask, tuple(sorted(refs.values())), refs[scar], near


def reference_bisections(tree: PhyloTree) -> list[tuple[int, tuple, tuple]]:
    """Per edge: (side A mask, side A, side B) from :func:`reference_component`,
    side A being the component without leaf index 0."""
    out = []
    for u, w in edge_list(tree):
        one, other = reference_component(tree, u, w), reference_component(tree, w, u)
        side_a, side_b = (other, one) if one[0] & 1 else (one, other)
        out.append((side_a[0], side_a[1:], side_b[1:]))
    return out


def reference_contributions(component: int, refs: tuple, ref: int | None, full: int) -> list[int]:
    """Normalized output-split masks a component with leaf mask
    ``component`` and the :func:`reference_component` refs ``refs``
    contributes when reconnected at ``ref``.

    Every other component edge g separates the same leaves as before on the
    side away from the attachment point, so g flips to its complement within
    the component exactly when it contains ``ref``; the subdivided edge
    contributes both of its sides.  A complement within the component side
    that holds leaf 0 is normalized to its complement in the full leaf set,
    so either way it is g ^ A for side A of the bisection.  A single leaf
    contributes no edge.
    """
    if ref is None:
        return []
    a = component ^ full if component & 1 else component
    parts = [a ^ g if (ref & g) == ref else g for g in refs]  # ref itself gives a ^ ref
    parts.append(ref)
    return parts


def reference_output_key(
    full: int, mask: int, side_a: tuple, side_b: tuple, ra: int | None, rb: int | None
) -> tuple[int, ...]:
    """Exact key of the output of (ref a, ref b), the edge with split
    ``mask`` bisected: its sorted normalized split masks, from the sides
    of :func:`reference_bisections`."""
    key = reference_contributions(mask, side_a[0], ra, full)
    key += reference_contributions(full ^ mask, side_b[0], rb, full)
    key.append(mask)
    key.sort()
    return tuple(key)


def multiplicities(entry, tree: PhyloTree) -> dict[CanonicalForm, int]:
    """Each distinct output of a survey entry of ``tree`` as a canonical
    form, with the number of operations producing it: its ``repeats``
    count, or 1."""
    repeats = entry.repeats
    return {CanonicalForm(k, tree.leaf_order): repeats.get(k, 1) for k in entry.output_keys()}


def reference_gamma(tree: PhyloTree) -> int:
    """Gamma as the sum of |A| * (n - |A|) over the non-trivial splits of
    :func:`reference_bisections`, which walk the adjacency only."""
    n = tree.n
    sizes = (mask.bit_count() for mask, _, _ in reference_bisections(tree))
    return sum(a * (n - a) for a in sizes if 2 <= a <= n - 2)


def reference_is_caterpillar(tree: PhyloTree) -> bool:
    """Every internal vertex has a leaf neighbour, read off the adjacency."""
    return all(
        any(tree.is_leaf(w) for w in tree.neighbors(v)) for v in tree.vertices() if not tree.is_leaf(v)
    )


def _pair_balanced(p: int, q: int) -> bool:
    """One part a power of two 2^j, the other within [2^(j-1), 2^(j+1))."""
    for a, b in ((p, q), (q, p)):
        if a > 0 and a & (a - 1) == 0 and a <= 2 * b and b < 2 * a:
            return True
    return False


def reference_is_complete(tree: PhyloTree) -> bool:
    """The complete-tree conditions checked over every pair of clusters.

    With k such that 3*2^k <= n < 3*2^(k+1): (i) some cluster has exactly
    2^(k+1) leaves, and (ii) every cluster Y with 3 <= |Y| <= 2^(k+1) is the
    union of two clusters, one of size 2^j and the other of size in
    [2^(j-1), 2^(j+1)).  Quadratic in the number of clusters.
    """
    n = tree.n
    k = (n // 3).bit_length() - 1
    bound = 1 << (k + 1)
    masks = cluster_masks(tree)
    if not any(m.bit_count() == bound for m in masks):
        return False
    for y in masks:
        size = y.bit_count()
        if not 3 <= size <= bound:
            continue
        ok = False
        for z in masks:
            if z != y and z & y == z and (y ^ z) in masks:
                if _pair_balanced(z.bit_count(), size - z.bit_count()):
                    ok = True
                    break
        if not ok:
            return False
    return True


@pytest.fixture
def quartet():
    from treespace import parse_newick

    return parse_newick("((1,2),(3,4));").tree
