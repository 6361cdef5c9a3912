"""Closed-form split statistics and rearrangement-neighbourhood sizes.

Everything here is exact integer arithmetic.  The cubic and the perfect-tree
coefficients that look fractional are evaluated over a common denominator
and checked divisible; a remainder would be an internal error, never a
rounding.  Tree-valued arguments are capped at 64 leaves by tree_core, but
the pure size functions accept n up to (and beyond) 2**20: Python integers
keep every value exact.
"""

from __future__ import annotations

from .errors import NotPerfectSize
from .tree_core import PhyloTree, require_leaves


def gamma(tree: PhyloTree) -> int:
    """Sum of |A|*|B| over all non-trivial splits A|B of the tree.

    The leaf count below each position of the tree's rooted preorder is
    |A| for the split of the edge above it; the walk that built the
    tree counted them, and no split or cluster mask is read.  The test
    suite's ``reference_gamma`` walks the adjacency instead, an independent
    route (the two are property-tested equal).
    """
    n = require_leaves(tree)
    total = 0
    for a in tree.preorder.size:
        # Position 0 holds all n - 1 leaves but leaf 0, and a leaf holds one: trivial splits.
        if 2 <= a <= n - 2:
            total += a * (n - a)
    return total


def nni_size(n: int) -> int:
    """Number of distinct trees one nearest-neighbour interchange away."""
    require_leaves(n)
    return 2 * n - 6


def spr_size(n: int) -> int:
    """Number of distinct trees one subtree-prune-and-regraft move away."""
    require_leaves(n)
    return 2 * (n - 3) * (2 * n - 7)


def spr_op_count(n: int) -> int:
    """Number of distinct SPR operations applicable to any n-leaf tree."""
    require_leaves(n)
    return 4 * (n - 2) * (n - 3)


def tbr_op_count(tree: PhyloTree) -> int:
    """Number of distinct TBR operations applicable to this tree."""
    n = require_leaves(tree)
    return 4 * gamma(tree) - 4 * (n - 2) * (n - 3)


def tbr_size(tree: PhyloTree) -> int:
    """Number of distinct trees one tree-bisection-and-reconnection away."""
    n = require_leaves(tree)
    return 4 * gamma(tree) - (4 * n - 2) * (n - 3)


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"{num} is not divisible by {den}; formula bookkeeping is broken")
    return q


def caterpillar_gamma(n: int) -> int:
    """Split-product sum of the n-leaf caterpillar: sum of i*(n-i), i = 2..n-2."""
    require_leaves(n)
    return _exact_div(n**3 - n, 6) - 2 * (n - 1)


def caterpillar_tbr_size(n: int) -> int:
    """TBR neighbourhood size of the caterpillar: (2n^3 - 12n^2 + 16n + 6) / 3."""
    require_leaves(n)
    return _exact_div(2 * n**3 - 12 * n**2 + 16 * n + 6, 3)


def gamma_complete(n: int) -> int:
    """Closed-form split-product sum of the complete (maximally balanced) tree.

    With n = sum of alpha_i * 2^i, alpha_i = n >> i & 1 (alpha_k = 1):

        sum_{j=1..k-1} [ (S_j - 2^j) * (2n - S_j) + alpha_{j-1} * 2^j * (n - 2^j) ]
            + (alpha_{k-1} - 1) * 2^(k-1) * (n - 2^(k-1))

    where S_j = sum_{i=j..k} alpha_i * 2^i = (n >> j) << j.
    """
    require_leaves(n)
    k = n.bit_length() - 1
    total = 0
    for j in range(1, k):
        s = (n >> j) << j
        total += (s - (1 << j)) * (2 * n - s)
        if n >> (j - 1) & 1:
            total += (1 << j) * (n - (1 << j))
    total += ((n >> (k - 1) & 1) - 1) * (1 << (k - 1)) * (n - (1 << (k - 1)))
    return total


def complete_tbr_size(n: int) -> int:
    """TBR neighbourhood size of the complete tree: 4*gamma_complete(n) - (4n-2)(n-3)."""
    require_leaves(n)
    return 4 * gamma_complete(n) - (4 * n - 2) * (n - 3)


def perfect_form(n: int) -> tuple[str, int]:
    """Classify a perfect size: ("two_fold", k) for n = 2^k, ("three_fold", k)
    for n = 3 * 2^(k-1), both requiring k >= 2.  Raises NotPerfectSize."""
    if n >= 4 and n & (n - 1) == 0:
        return "two_fold", n.bit_length() - 1
    if n >= 6 and n % 3 == 0:
        m = n // 3
        if m & (m - 1) == 0:
            return "three_fold", m.bit_length()
    raise NotPerfectSize(f"{n} is not 2**k or 3*2**(k-1) with k >= 2")


def perfect_tbr_size(n: int) -> int:
    """TBR neighbourhood size of the perfect tree.

    n = 3 * 2^(k-1):  n^2 * (4k - 32/3) + 22n - 6
    n = 2^k:          n^2 * (4k - 13)   + 22n - 6
    """
    form, k = perfect_form(n)
    if form == "three_fold":
        return _exact_div((12 * k - 32) * n * n, 3) + 22 * n - 6
    return n * n * (4 * k - 13) + 22 * n - 6
