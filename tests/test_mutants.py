"""Planted defects: every gate named here must be able to fail.

Each mutant is a copy of one library function with one defect, applied by
monkeypatch, together with the check meant to catch it: a verify suite at
small n, or a named test of this suite.  A mutant the check lets through
marks a blind gate.  Defects on the hashed key path run with
``rearrange._EXACT_LEAVES`` lowered to 3 and 8-bit hash keys, so that
trees this small are hashed and most of their operations re-checked by
split delta: with full keys only the four operations of each NNI
neighbour share a key, and some defects would only permute them.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Callable, NamedTuple

import pytest
import test_generators
import test_rearrange

from treespace import all_trees, generators, rearrange
from treespace.verify import formulas_suite, redundancy_suite


def split_delta_ignores_joined(rooted, v, walk):
    """:func:`rearrange._split_delta` without the split C(w) | A that B gains."""
    cluster = rooted.cluster
    a = cluster[v]
    lost, flipped, _ = walk
    return frozenset([cluster[u] for u in lost]).symmetric_difference([cluster[u] ^ a for u in flipped])


def delta_walk_skips_ancestors_of_s(layout, v, i, j):
    """:func:`rearrange._delta_walk` without the ancestors of v's sibling s
    that are not w's."""
    parent, end = layout.parent, layout.end
    lost, flipped, joined, path = [], [], (), []
    if i:
        w = v + 1 + i if v + 1 + i < end[v + 1] else v + 2 + i
        u = parent[w]
        while parent[u] != v:
            path.append(u)
            u = parent[u]
        lost.append(u)
        flipped.append(w)
    if j != layout.cuts[v].scar_b:
        p = parent[v]
        w = j if j < p else j + 1 if j < v - 1 else j + end[v] - v + 1
        lost.append(p)
        joined = (w,)
        u = parent[w]
        while u >= 0 and not u < v < end[u]:
            path.append(u)
            u = parent[u]
    return (*lost, *path), (*flipped, *path), joined


def op_at_next_column(self, pos):
    """:meth:`rearrange._Cut.op_at` naming the next column of the block, or
    its last."""
    for block, (rows, cols) in enumerate(self.blocks):
        if pos < len(rows) * len(cols):
            r, c = divmod(pos, len(cols))
            return block, rows[r], cols[min(c + 1, len(cols) - 1)]
        pos -= len(rows) * len(cols)
    raise IndexError("no operation at that position")


def repeated_reads_every_block(self, kind):
    """:meth:`rearrange._Survey.repeated` counting the re-checked operations
    of every kind the survey built, not only those of ``kind``."""
    if self.rooted.exact:
        row_ops = self.rooted.layout.row_ops[kind]
        return Counter(chain.from_iterable(row[:k] for row, k in zip(self.keys, row_ops)))
    return Counter(chain.from_iterable(self.rechecked[1]))


def repeats_keeps_single_outputs(self):
    """``SurveyEntry.repeats`` keeping the outputs of one operation."""
    full_key = self._survey.full_key
    return {full_key(key): c for key, c in self._repeated.items()}


def repeats_drops_one_output(self):
    """``SurveyEntry.repeats`` losing one output of several operations: the
    one with the highest key."""
    full_key = self._survey.full_key
    out = {full_key(key): c for key, c in self._repeated.items() if c > 1}
    out.pop(max(out, default=None), None)
    return out


def complete_rooted_block_too_small(self, leaves):
    """``_Builder.complete_rooted`` splitting off a block one power of two too small."""
    m = len(leaves)
    if m == 1:
        return leaves[0]
    block = 1 << max(0, (m // 3).bit_length() - 1)
    root = self.fresh()
    self.edges.append((root, complete_rooted_block_too_small(self, leaves[:block])))
    self.edges.append((root, complete_rooted_block_too_small(self, leaves[block:])))
    return root


def redundancy_up_to_6() -> None:
    result = redundancy_suite(n_max=6)
    assert result.passed, result.failures[:1]


def formulas_up_to_6() -> None:
    result = formulas_suite(n_max=6)
    assert result.passed, result.failures[:1]


def repeats_are_the_multiple_outputs() -> None:
    test_rearrange.TestHashSurvey.check_repeats(t for n in (4, 5, 6) for t in all_trees(n))


def complete_predicate_and_closed_form() -> None:
    for n in range(4, 33):
        test_generators.TestComplete().test_predicate_and_closed_form(n)


class Mutant(NamedTuple):
    owner: object
    name: str
    defect: Callable
    check: Callable[[], None]
    hashed: bool


MUTANTS = {
    "split_delta_ignores_joined": Mutant(
        rearrange, "_split_delta", split_delta_ignores_joined, redundancy_up_to_6, True
    ),
    "delta_walk_skips_ancestors_of_s": Mutant(
        rearrange, "_delta_walk", delta_walk_skips_ancestors_of_s, formulas_up_to_6, True
    ),
    "op_at_next_column": Mutant(rearrange._Cut, "op_at", op_at_next_column, redundancy_up_to_6, True),
    "repeated_reads_every_block": Mutant(
        rearrange._Survey, "repeated", repeated_reads_every_block, redundancy_up_to_6, True
    ),
    "repeats_keeps_single_outputs": Mutant(
        rearrange.SurveyEntry,
        "repeats",
        property(repeats_keeps_single_outputs),
        repeats_are_the_multiple_outputs,
        False,
    ),
    "repeats_drops_one_output": Mutant(
        rearrange.SurveyEntry,
        "repeats",
        property(repeats_drops_one_output),
        repeats_are_the_multiple_outputs,
        False,
    ),
    "complete_rooted_block_too_small": Mutant(
        generators._Builder,
        "complete_rooted",
        complete_rooted_block_too_small,
        complete_predicate_and_closed_form,
        False,
    ),
}


def hash_small_trees(monkeypatch) -> None:
    """Every tree of 4 or more leaves keyed by an 8-bit hash: most of its
    operations then share a key with another and are re-checked."""
    monkeypatch.setattr(rearrange, "_EXACT_LEAVES", 3)
    monkeypatch.setattr(rearrange, "_HASH_BITS", 8)


CHECKS = {(m.check, m.hashed) for m in MUTANTS.values()}


@pytest.mark.parametrize("check,hashed", sorted(CHECKS, key=lambda c: (c[0].__name__, c[1])))
def test_check_passes_unmutated(monkeypatch, check, hashed):
    if hashed:
        hash_small_trees(monkeypatch)
    check()


@pytest.mark.parametrize("mutant", MUTANTS.values(), ids=MUTANTS.keys())
def test_check_catches_mutant(monkeypatch, mutant):
    if mutant.hashed:
        hash_small_trees(monkeypatch)
    monkeypatch.setattr(mutant.owner, mutant.name, mutant.defect)
    with pytest.raises(AssertionError):
        mutant.check()
