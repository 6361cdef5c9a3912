"""Extremal shape predicates and the exhaustive scan that verifies them.

Over all trees on n leaves, the TBR neighbourhood is largest exactly for
caterpillars and smallest exactly for complete (maximally balanced) trees.
The scan tallies every labelled tree in T_n by its neighbourhood size and
the two predicates, and checks both characterizations from the tally.  All
three depend only on the tree's rooted shape, so each is computed once per
shape.  With more than one thread, forked children tally the shards of T_n
and send back their tallies, which merge to the serial scan's.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, NamedTuple

from .errors import RangeError
from .metrics import caterpillar_tbr_size, complete_tbr_size, gamma_complete, tbr_size
from .tree_core import PhyloTree, require_leaves


def is_caterpillar(tree: PhyloTree) -> bool:
    """True when every internal vertex has at least one leaf neighbour.

    Read off the tree's preorder: the vertex at position 0 has leaf 0, and
    one at a later position u holding two or more leaves has a leaf child
    when its first child, u + 1, or the other one, holds one leaf.
    """
    require_leaves(tree)
    size = tree.preorder.size
    return all(a < 2 or size[u + 1] == 1 or a - size[u + 1] == 1 for u, a in enumerate(size) if u)


def _is_power_of_two(x: int) -> bool:
    return x > 0 and x & (x - 1) == 0


def _pair_balanced(p: int, q: int) -> bool:
    """One part a power of two 2^j, the other within [2^(j-1), 2^(j+1))."""
    for a, b in ((p, q), (q, p)):
        if _is_power_of_two(a) and a <= 2 * b and b < 2 * a:
            return True
    return False


def is_complete(tree: PhyloTree) -> bool:
    """Direct check of maximal balance over the cluster set.

    With k such that 3*2^k <= n < 3*2^(k+1): (i) some cluster has exactly
    2^(k+1) leaves, and (ii) every cluster Y with 2 <= |Y| <= 2^(k+1) splits
    into two clusters, one of size 2^j and the other of size in
    [2^(j-1), 2^(j+1)) for some j.  Singleton leaf sets count as clusters,
    so a size-2 cluster always passes with j = 0.

    Every cluster is one side of an edge, and the only two clusters it
    splits into are the ones hanging from its end of that edge.  So one
    pass over the tree's preorder checks both sides of the edge above each
    position u: below u, the clusters of u's two children (the first is
    u + 1); above u, the cluster of u's sibling and the n - |C(p)| leaves
    above u's parent p.
    """
    n = require_leaves(tree)
    k = (n // 3).bit_length() - 1
    bound = 1 << (k + 1)
    parent, _, size = tree.preorder
    found = False
    for u, a in enumerate(size):
        if 3 <= a <= bound and not _pair_balanced(size[u + 1], a - size[u + 1]):
            return False
        # Above position 0 is leaf 0 alone, so there b = 1 and p is not read.
        b, p = n - a, parent[u]
        if 3 <= b <= bound and not _pair_balanced(size[p] - a, n - size[p]):
            return False
        found = found or bound in (a, b)
    return found


class ExtremalScanResult(NamedTuple):
    """Outcome of one exhaustive scan of T_n."""

    n: int
    tree_count: int
    max_value: int
    min_value: int
    max_gamma: int
    min_gamma: int
    argmax_count: int
    argmin_count: int
    argmax_all_caterpillar: bool
    argmin_all_complete: bool

    def to_json(self) -> dict:
        return {
            **self._asdict(),
            "caterpillar_formula": caterpillar_tbr_size(self.n),
            "complete_formula": complete_tbr_size(self.n),
            "gamma_complete_formula": gamma_complete(self.n),
        }


def _tallies(trees: Iterable[PhyloTree]) -> Iterator[tuple[int, bool, bool]]:
    """Each tree's (TBR neighbourhood size, is caterpillar, is complete).

    All three read only the tree's preorder ``parent`` positions and the
    leaf counts those fix, so they are computed for the first tree of each
    rooted shape and remembered for the rest of ``trees``.
    """
    memo: dict[tuple[int, ...], tuple[int, bool, bool]] = {}
    for tree in trees:
        parent = tree.preorder.parent
        tally = memo.get(parent)
        if tally is None:
            tally = memo[parent] = (tbr_size(tree), is_caterpillar(tree), is_complete(tree))
        yield tally


class _Accumulator:
    """Associatively mergeable partial scan state: the number of trees with
    each (TBR neighbourhood size, is caterpillar, is complete)."""

    def __init__(self, n: int):
        self.n = n
        self.counts: Counter[tuple[int, bool, bool]] = Counter()

    def update(self, trees: Iterable[PhyloTree]) -> None:
        self.counts.update(_tallies(trees))

    def merge(self, other: "_Accumulator") -> None:
        self.counts.update(other.counts)

    def result(self) -> ExtremalScanResult:
        counts = self.counts
        top = max(v for v, _, _ in counts)
        bottom = min(v for v, _, _ in counts)
        # tbr_size is 4*Gamma - (4n-2)(n-3), monotone in Gamma, so the
        # extremal Gamma values come straight back out of the sizes.
        offset = (4 * self.n - 2) * (self.n - 3)
        return ExtremalScanResult(
            n=self.n,
            tree_count=counts.total(),
            max_value=top,
            min_value=bottom,
            max_gamma=(top + offset) // 4,
            min_gamma=(bottom + offset) // 4,
            argmax_count=sum(c for (v, _, _), c in counts.items() if v == top),
            argmin_count=sum(c for (v, _, _), c in counts.items() if v == bottom),
            # The maximizers are exactly the caterpillars when every tree is
            # at the maximum exactly when it is a caterpillar; likewise below.
            argmax_all_caterpillar=all((v == top) == cat for v, cat, _ in counts),
            argmin_all_complete=all((v == bottom) == comp for v, _, comp in counts),
        )


def _scan_chunk(args: tuple[int, tuple[int, ...]]) -> _Accumulator:
    """Scan one shard of T_n: the trees whose insertion code starts with the prefix."""
    from .generators import all_trees

    n, prefix = args
    acc = _Accumulator(n)
    acc.update(all_trees(n, prefix))
    return acc


def extremal_scan(n: int, threads: int = 1) -> ExtremalScanResult:
    """Scan every tree in T_n (4 <= n <= 8) for TBR-neighbourhood extremes.

    ``threads`` must be at least 1.  With ``threads`` > 1 the shards of T_n
    that :func:`generators.shards` names by insertion-code prefix are
    scanned by :func:`generators.fork_map` in that many forked children, but
    never more than T_n has shards.  Each child builds its own trees, this
    process scans none, and the partial results merge in shard order to the
    same result as the serial scan.
    """
    # Imported here, so that the predicates above load without the enumerator.
    from .generators import all_trees, fork_map, shards

    if not 4 <= n <= 8:
        raise RangeError(f"extremal scan supports 4 <= n <= 8, got {n}")
    if threads < 1:
        raise RangeError(f"threads must be >= 1, got {threads}")
    acc = _Accumulator(n)
    if threads == 1:
        acc.update(all_trees(n))
        return acc.result()
    prefixes = shards(n)
    for part in fork_map(_scan_chunk, [(n, prefix) for prefix in prefixes], min(threads, len(prefixes))):
        acc.merge(part)
    return acc.result()
