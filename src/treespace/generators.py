"""Constructors for named tree families and exhaustive enumeration of T_n.

The caterpillar and the complete tree come from one split rule, each part
of consecutive leaves splitting into a first block and the rest: one leaf
first for the caterpillar, a balanced power of two for the complete tree.
The perfect tree is the complete tree at the perfect sizes.

All generators label leaves "1".."n" left to right, so leaf index i carries
label str(i+1).  Leaf vertices get ids 0..n-1 and internal vertices n and up,
purely for reproducibility; nothing downstream depends on the ids.
"""

from __future__ import annotations

import enum
import itertools
import os
import random
import sys
from typing import BinaryIO, Callable, Iterator, NoReturn, Sequence

from .errors import RangeError, TooManyLeaves
from .metrics import perfect_form
from .tree_core import MAX_LEAVES, Edge, PhyloTree, _leaf_order, require_leaves


class TreeFamily(enum.Enum):
    CATERPILLAR = "caterpillar"
    COMPLETE = "complete"
    PERFECT = "perfect"
    RANDOM = "random"


def _names(n: int) -> dict[int, str]:
    return {i: str(i + 1) for i in range(n)}


def _check_cap(n: int) -> None:
    if n > MAX_LEAVES:
        raise TooManyLeaves(f"tree construction is capped at {MAX_LEAVES} leaves, got {n}")


def _unrooted(n: int, first: Callable[[int], int]) -> PhyloTree:
    """The tree on leaves 0..n-1 built by one split rule.

    Every rooted part of m >= 2 consecutive leaves splits into its first
    ``first(m)`` leaves and the rest, and the two parts of all n leaves are
    joined by one edge.  Each part takes its internal id before its own
    parts, the left one first.
    """
    require_leaves(n)
    _check_cap(n)
    ids = itertools.count(n)
    edges: list[Edge] = []

    def rooted(lo: int, hi: int) -> int:
        if hi - lo == 1:
            return lo
        root, mid = next(ids), lo + first(hi - lo)
        edges.append((root, rooted(lo, mid)))
        edges.append((root, rooted(mid, hi)))
        return root

    edges.append((rooted(0, first(n)), rooted(first(n), n)))
    return PhyloTree(edges, _names(n))


def _balanced(m: int) -> int:
    """The first part of a maximally balanced rooted subtree on m >= 2 leaves.

    The root splits off a block of 2^j leaves, where j is the unique index
    with 3*2^(j-1) <= m < 3*2^j (j = 0 for m = 2), and both parts recurse.
    A block of 2^j leaves splits into halves all the way down, so on
    m = 2^k leaves the subtree is perfectly balanced.
    """
    return 1 << (m // 3).bit_length()


def caterpillar(n: int) -> PhyloTree:
    """The spine tree: internal vertices in a path, every one holding a leaf.

    Every part splits off its first leaf, so leaves attach in label order,
    giving cherries {1,2} and {n-1,n}.
    """
    return _unrooted(n, lambda m: 1)


def complete(n: int) -> PhyloTree:
    """The maximally balanced tree on n leaves.

    Every part, all n leaves included, splits into a first block of
    :func:`_balanced` size, a power of two perfectly balanced below it, and
    a near-balanced remainder.  With 3*2^k <= n < 3*2^(k+1) the top block
    has 2^(k+1) leaves.
    """
    return _unrooted(n, _balanced)


def perfect(n: int) -> PhyloTree:
    """The fully balanced tree; exists only for n = 2^k or n = 3*2^(k-1).

    It is the complete tree at those sizes: n = 2^k gives two-fold symmetry
    about the central edge, n = 3*2^(k-1) three-fold symmetry about the
    root of the top block of 2^k leaves.
    """
    perfect_form(n)
    return complete(n)


def random_tree(n: int, seed: int) -> PhyloTree:
    """A uniform draw from T_n, deterministic per seed.

    Grown by sequential insertion: leaf i+1 subdivides an edge chosen
    uniformly among the 2i-3 edges of the current i-leaf tree, which makes
    every labelled topology equally likely.
    """
    require_leaves(n)
    _check_cap(n)
    rng = random.Random(seed)
    edges = [(0, n), (1, n), (2, n)]
    for leaf in range(3, n):
        u, v = edges.pop(rng.randrange(len(edges)))
        w = n + leaf - 2
        edges.extend([(u, w), (w, v), (w, leaf)])
    return PhyloTree(edges, _names(n))


def all_trees(n: int, prefix: Sequence[int] = ()) -> Iterator[PhyloTree]:
    """Every labelled topology on n leaves exactly once; (2n-5)!! trees.

    The same insertion recursion as random_tree, enumerated exhaustively in
    a fixed order.  Capped at n = 9 (135135 trees).  Beside each partial
    tree's edge list, which fixes the order, the recursion carries its
    adjacency: a copy of the parent's with the four entries the insertion
    changes.  The leaf order is computed once per call, and each finished
    tree skips :class:`PhyloTree`'s checks, which the insertion already
    guarantees, but not its walk.

    A tree's insertion code lists, for leaves 3, 4, ..., n-1 (0-based), the
    index of the edge that leaf subdivides; leaf i has 2i-3 edges to choose
    from.  With ``prefix`` only the trees whose code starts with it are
    yielded, in the same order, so the shards of all codes of one length
    partition T_n into blocks of equal size.
    """
    if not 4 <= n <= 9:
        raise RangeError(f"exhaustive enumeration supports 4 <= n <= 9, got {n}")
    if len(prefix) > n - 3 or any(not 0 <= i < 2 * leaf - 3 for leaf, i in enumerate(prefix, 3)):
        raise RangeError(f"{tuple(prefix)} is not an insertion-code prefix for n = {n}")
    names = _names(n)
    order = _leaf_order(names)
    leaf_order = tuple(name for name, _ in order)
    index_by_vertex = {v: i for i, (_, v) in enumerate(order)}
    root = order[0][1]

    def grow(edges: list[Edge], adj: dict[int, list[int]], leaf: int) -> Iterator[PhyloTree]:
        if leaf == n:
            yield PhyloTree._grown(adj, names, leaf_order, index_by_vertex, root)
            return
        w = n + leaf - 2
        depth = leaf - 3
        for i in range(len(edges)) if depth >= len(prefix) else (prefix[depth],):
            u, v = edges[i]
            rest = edges[:i] + edges[i + 1 :] + [(u, w), (w, v), (w, leaf)]
            grown = adj.copy()
            grown[u] = [w if x == v else x for x in adj[u]]
            grown[v] = [w if x == u else x for x in adj[v]]
            grown[w] = [u, v, leaf]
            grown[leaf] = [w]
            yield from grow(rest, grown, leaf + 1)

    yield from grow([(0, n), (1, n), (2, n)], {0: [n], 1: [n], 2: [n], n: [0, 1, 2]}, 3)


def insertion_prefixes(n: int, length: int) -> Iterator[tuple[int, ...]]:
    """Every insertion-code prefix of ``length`` for T_n, in enumeration order."""
    if not 0 <= length <= n - 3:
        raise RangeError(f"insertion-code prefixes for n = {n} have length 0..{n - 3}, got {length}")
    return itertools.product(*(range(2 * leaf - 3) for leaf in range(3, 3 + length)))


#: Length of the insertion-code prefixes that shard T_n between workers:
#: 3 * 5 * 7 = 105 shards of equal size once n >= 6.
SHARD_PREFIX_LENGTH = 3


def shards(n: int) -> list[tuple[int, ...]]:
    """The insertion-code prefixes that split T_n between workers, in
    enumeration order: 3 shards for n = 4, 15 for n = 5, 105 from n = 6 on."""
    return list(insertion_prefixes(n, min(SHARD_PREFIX_LENGTH, n - 3)))


def fork_map(fn: Callable, tasks: Sequence, workers: int) -> list:
    """``[fn(task) for task in tasks]``, computed in ``workers`` forked children.

    Child k runs tasks k, k + workers, k + 2 * workers, ... and pickles its
    results, or the exception that stopped it, back over a pipe; the results
    come back in task order, and an exception is raised again here.  Every
    child is reaped before this returns, and on an error the unfinished ones
    are killed first.  A child inherits this process's memory, so neither
    ``fn`` nor the tasks are pickled.  Where ``os.fork`` is missing, or
    another thread runs in this process (a child would inherit any lock it
    holds, held for good), this process runs the tasks itself.
    """
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or threading is not None and threading.active_count() > 1:
        return [fn(task) for task in tasks]
    import pickle

    children: list[tuple[int, BinaryIO]] = []
    results = [None] * len(tasks)
    try:
        for k in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _run_child(fn, tasks[k::workers], read, write)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        for k, (pid, pipe) in enumerate(children):
            try:
                ok, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"worker process {pid} ended without sending its results") from None
            if not ok:
                raise value
            results[k::workers] = value
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)  # none is reaped yet, so each pid is still its child's
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return results


def _run_child(fn: Callable, tasks: Sequence, read: int, write: int) -> NoReturn:
    """The body of a :func:`fork_map` child: run the tasks, send the
    pickled outcome down ``write`` and exit without returning to the caller."""
    import pickle

    code = 1
    try:
        os.close(read)
        try:
            outcome = True, [fn(task) for task in tasks]
        except BaseException as exc:
            outcome = False, exc
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an unpicklable result or exception
            data = pickle.dumps((False, RuntimeError(f"a worker's outcome could not be pickled: {exc!r}")))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def tree_count(n: int) -> int:
    """|T_n| = (2n-5)!! for n >= 3."""
    count = 1
    for i in range(3, 2 * n - 4, 2):
        count *= i
    return count


def generate(family: TreeFamily | str, n: int, seed: int | None = None) -> PhyloTree:
    """Dispatch helper used by the command-line interface."""
    family = TreeFamily(family)
    if family is TreeFamily.CATERPILLAR:
        return caterpillar(n)
    if family is TreeFamily.COMPLETE:
        return complete(n)
    if family is TreeFamily.PERFECT:
        return perfect(n)
    return random_tree(n, 0 if seed is None else seed)
