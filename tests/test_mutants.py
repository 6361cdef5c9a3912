"""Planted defects: every gate named here must be able to fail.

Each defect is one entry of MUTANTS: a function (its owner and name), the
text ``old`` of its current source and the text ``new`` that replaces it,
and the check meant to catch it: a verify suite at small n, or a named
test of this suite.  :func:`patched` rebuilds the function from its live
source with that one edit, in its own module's globals.  Under the defect
the check must raise ``raises``; unmutated, it must pass.  A defect that
survives marks a blind gate, which gets a new check, never a looser one.

To add a defect, add one entry, with ``old`` and ``new`` copied from the
file exactly as written, indentation included; ``old`` must occur once in
the function.  The owner is where the check looks the name up: a test
module that imports a function by name gets the patch itself.  A check
should fail on a short comparison, as ``pytest -v`` diffs the values of a
failed assertion in full, and long sequences take it minutes.

Defects on the hashed key path (``hashed``) run with
``rearrange._EXACT_LEAVES`` lowered to 3 and 8-bit hash keys, so that
trees this small are hashed and most of their operations re-checked by
split delta: with full keys only the four operations of each NNI neighbour
share a key, and some defects would only permute them.
"""

from __future__ import annotations

import __future__
import ast
import inspect
import textwrap
import types
import warnings
from contextlib import contextmanager
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

import pytest
import test_cli
import test_extremal
import test_generators
import test_metrics
import test_newick_io
import test_rearrange
import test_tree_core
import test_verify

from treespace import OpKind, all_trees, cli, extremal, generators, metrics, parse_newick, rearrange, tree_core, verify
from treespace.verify import extremal_suite, formulas_suite, redundancy_suite


def patched(owner: object, name: str, old: str, new: str) -> Callable | cached_property:
    """``owner.name`` rebuilt from its current source with the one
    occurrence of ``old`` replaced by ``new``, decorators dropped.

    The new function runs in the original's module globals, so a patched
    library function sees the module as it is at call time, monkeypatches
    included.  A :class:`functools.cached_property` is rebuilt from its
    ``func`` and wrapped again.  Any warning while compiling is an error.
    """
    live = inspect.getattr_static(owner, name)
    func = inspect.unwrap(live.func if isinstance(live, cached_property) else live)
    lines, first = inspect.getsourcelines(func)
    source = "".join(lines)
    found = source.count(old)
    assert found == 1, f"{func.__qualname__}: {old!r} occurs {found} times in its source, not once"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        module = ast.parse(textwrap.dedent(source.replace(old, new)))
        module.body[0].decorator_list.clear()
        ast.increment_lineno(module, first - 1)
        flags = __future__.annotations.compiler_flag
        code = compile(module, inspect.getsourcefile(func), "exec", flags, dont_inherit=True)
    body = next(c for c in code.co_consts if isinstance(c, types.CodeType))
    fn = types.FunctionType(body, func.__globals__, func.__name__, func.__defaults__, func.__closure__)
    fn.__qualname__, fn.__kwdefaults__ = func.__qualname__, func.__kwdefaults__
    if not isinstance(live, cached_property):
        return fn
    wrapped = cached_property(fn)
    wrapped.__set_name__(owner, name)
    return wrapped


class Mutant(NamedTuple):
    owner: object
    name: str
    old: str
    new: str
    check: Callable[[], None]
    hashed: bool = False
    raises: type[BaseException] = AssertionError


@contextmanager
def planted(mutant: Mutant | None, hashed: bool) -> Iterator[None]:
    """The mutant's defect in place (none for None) and, with ``hashed``,
    every tree of 4 or more leaves keyed by an 8-bit hash, all undone on
    exit.  The cache of shape layouts is emptied on the way in and out, so
    that no layout built with or without a defect of ``_blocks`` hides it."""
    rearrange._layout.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            if hashed:
                mp.setattr(rearrange, "_EXACT_LEAVES", 3)
                mp.setattr(rearrange, "_HASH_BITS", 8)
            if mutant:
                mp.setattr(mutant.owner, mutant.name, patched(mutant.owner, mutant.name, mutant.old, mutant.new))
            yield
    finally:
        rearrange._layout.cache_clear()


# -- checks ------------------------------------------------------------------


def redundancy_up_to_6() -> None:
    result = redundancy_suite(n_max=6)
    assert result.passed, result.failures[:1]


def formulas_up_to_6() -> None:
    result = formulas_suite(n_max=6)
    assert result.passed, result.failures[:1]


def extremal_up_to_7() -> None:
    result = extremal_suite(n_max=7)
    assert result.passed, result.failures[:1]


def formulas_closed_forms_once() -> None:
    with pytest.MonkeyPatch.context() as mp:
        test_verify.test_formulas_suite_evaluates_each_closed_form_once(mp)


def extremal_closed_forms_once() -> None:
    with pytest.MonkeyPatch.context() as mp:
        test_verify.test_extremal_suite_evaluates_each_closed_form_once(mp)


def redundancy_check_count() -> None:
    test_verify.test_redundancy_suite_small()


def repeats_are_the_multiple_outputs() -> None:
    test_rearrange.TestHashSurvey.check_repeats(t for n in (4, 5, 6) for t in all_trees(n))


def complete_predicate_and_closed_form() -> None:
    for n in range(4, 33):
        test_generators.TestComplete().test_predicate_and_closed_form(n)


def complete_output_pinned() -> None:
    test_generators.TestFamilyExamples().test_labelled_output_pinned(generators.TreeFamily.COMPLETE)


def is_complete_against_reference() -> None:
    for n in range(4, 9):
        test_extremal.TestIsCompleteReference().test_every_small_tree(n)


def caterpillar_gamma_closed_form() -> None:
    # The test's own body at every n it draws from, without Hypothesis.
    test = test_metrics.TestGamma.test_caterpillar_gamma_closed_form.hypothesis.inner_test
    for n in range(4, 65):
        test(test_metrics.TestGamma(), n)


def perfect_values() -> None:
    for n in test_metrics.PERFECT_NS:
        test_metrics.TestPerfectValues().test_agrees_with_complete_form(n)


def doubled_edge_rejected() -> None:
    test_tree_core.TestBuildTree().test_doubled_edge_beside_a_tree_rejected()


def first_fault_wins() -> None:
    for text, exc, position in test_newick_io.PRECEDENCE:
        test_newick_io.TestNegativeCorpus().test_first_fault_wins(text, exc, position)


def spliced_texts() -> None:
    trees = [t for n in (4, 5, 6) for t in all_trees(n)]
    test_rearrange.TestNewickSplice().test_texts_are_the_exact_outputs(trees, tuple(OpKind))


def sweep_around_every_step() -> None:
    test_verify.test_sweep_matches_closed_form_around_every_step()


def ops_follow_the_scar_rule() -> None:
    trees = [t for n in (4, 5, 6) for t in all_trees(n)]
    test_rearrange.TestRootedPreparation().test_enumerate_ops_follows_the_scar_rule(trees)


def ops_in_order() -> None:
    test_rearrange.TestRootedPreparation().test_enumerate_ops_order(list(all_trees(5)))


def single_leaf_refs_rejected() -> None:
    test_rearrange.TestApply().test_single_leaf_side_takes_no_ref(parse_newick("((1,2),(3,4));").tree)


def scar_scar_rejected() -> None:
    test_rearrange.TestApply().test_scar_scar_unrepresentable(parse_newick("((1,2),(3,4));").tree)


def bad_refs_rejected() -> None:
    test_rearrange.TestApply().test_bad_refs_rejected(parse_newick("((1,2),(3,4));").tree)


def unnormalized_mask_rejected() -> None:
    test_rearrange.TestApply().test_unnormalized_mask_rejected(parse_newick("((1,2),(3,4));").tree)


def parse_error_exits_2() -> None:
    code, out, err = test_cli._call(["info", "-"], b"((1,2,(3,4));\n")
    assert (code, out) == (2, "") and err.startswith("error: "), (code, err)


def failed_verification_exits_1() -> None:
    with pytest.MonkeyPatch.context() as mp:
        test_cli.TestVerify().test_failed_suite_exits_1(mp)


# -- the table ---------------------------------------------------------------

MUTANTS = {
    "split_delta_ignores_joined": Mutant(
        rearrange, "_split_delta", "        gained.append(cluster[j] | a)\n", "", redundancy_up_to_6, True
    ),
    "split_delta_skips_ancestors_of_s": Mutant(
        rearrange, "_split_delta", "while u != top:", "while False:", formulas_up_to_6, True
    ),
    "op_at_next_column": Mutant(
        rearrange._Cut, "op_at", "cols[c]", "cols[min(c + 1, len(cols) - 1)]", redundancy_up_to_6, True
    ),
    # Caught by the report's own check: the count takes in other kinds'
    # outputs, and the single outputs go below zero to keep the sums.
    "repeated_reads_every_block": Mutant(
        rearrange._Survey, "repeated", " for index, delta in row if index < k)", " for index, delta in row)",
        redundancy_up_to_6, hashed=True, raises=ValueError,
    ),
    "repeats_keeps_single_outputs": Mutant(
        rearrange.SurveyEntry, "repeats", " if c > 1}", "}", repeats_are_the_multiple_outputs
    ),
    "repeats_drops_one_output": Mutant(
        rearrange.SurveyEntry, "repeats", "return {full_key(key): c for key, c in self._repeated.items() if c > 1}",
        "return dict(sorted({full_key(key): c for key, c in self._repeated.items() if c > 1}.items())[:-1])",
        repeats_are_the_multiple_outputs,
    ),
    "complete_rooted_block_too_small": Mutant(
        generators, "_balanced", "1 << (m // 3).bit_length()", "1 << max(0, (m // 3).bit_length() - 1)",
        complete_predicate_and_closed_form,
    ),
    # The right shape with its leaves in another order: only the labelled
    # output shows it.
    "complete_remainder_first": Mutant(
        generators, "complete", "_unrooted(n, _balanced)", "_unrooted(n, lambda m: m - _balanced(m))",
        complete_output_pinned,
    ),
    # Closed forms.
    "nni_size_off_by_two": Mutant(metrics, "nni_size", "2 * n - 6", "2 * n - 4", formulas_up_to_6),
    "spr_size_wrong_factor": Mutant(metrics, "spr_size", "(2 * n - 7)", "(2 * n - 6)", formulas_up_to_6),
    "spr_op_count_wrong_factor": Mutant(metrics, "spr_op_count", "(n - 3)", "(n - 2)", formulas_up_to_6),
    "tbr_op_count_wrong_factor": Mutant(metrics, "tbr_op_count", "(n - 2)", "(n - 3)", formulas_up_to_6),
    "tbr_size_wrong_slope": Mutant(metrics, "tbr_size", "(4 * n - 2)", "(4 * n - 6)", formulas_up_to_6),
    "caterpillar_tbr_size_off_by_one": Mutant(
        metrics, "caterpillar_tbr_size", "16 * n + 6", "16 * n + 9", extremal_up_to_7
    ),
    "gamma_complete_drops_octave_term": Mutant(
        metrics, "gamma_complete", "total += ((n >> (k - 1) & 1) - 1)", "total += 0 * ((n >> (k - 1) & 1) - 1)",
        extremal_up_to_7,
    ),
    "caterpillar_gamma_wrong_offset": Mutant(
        test_metrics, "caterpillar_gamma", "- 2 * (n - 1)", "- 2 * n", caterpillar_gamma_closed_form
    ),
    "complete_tbr_size_wrong_factor": Mutant(metrics, "complete_tbr_size", "(n - 3)", "(n - 2)", extremal_up_to_7),
    "perfect_form_three_fold_k_too_large": Mutant(
        metrics, "perfect_form", "m.bit_length()", "m.bit_length() + 1", perfect_values
    ),
    "perfect_tbr_size_wrong_two_fold_slope": Mutant(
        test_metrics, "perfect_tbr_size", "(4 * k - 13)", "(4 * k - 12)", perfect_values
    ),
    "sweep_octave_term_ends_an_octave_early": Mutant(
        test_verify, "complete_tbr_size_sweep", "n = 3 << (k - 1)", "n = 2 << (k - 1)", sweep_around_every_step
    ),
    "sweep_even_step_q_gains_half": Mutant(
        test_verify, "complete_tbr_size_sweep", "q[a::two_j] += two_j\n            t =",
        "q[a::two_j] += half\n            t =", sweep_around_every_step,
    ),
    "sweep_odd_step_p_loses_two_j": Mutant(
        test_verify, "complete_tbr_size_sweep", "p[a::two_j] -= four_j", "p[a::two_j] -= two_j",
        sweep_around_every_step,
    ),
    # The verify tables: a row left out shows in the suite's check count.
    "formulas_row_dropped": Mutant(
        verify, "_check_formula_tree", '        ("|N_NNI|", nni.neighbourhood_size, metrics.nni_size(n)),\n', "",
        formulas_closed_forms_once,
    ),
    "slack_row_dropped": Mutant(
        verify, "_check_redundancy_tree", ' ("SPR", spr.report)', "", redundancy_check_count
    ),
    "extremal_row_dropped": Mutant(
        test_verify, "extremal_suite",
        '            ("min gamma", scan.min_gamma, "closed form", metrics.gamma_complete(n)),\n', "",
        extremal_closed_forms_once,
    ),
    # The survey's sums, blocks, layouts, re-check and spliced texts.
    "sums_a_scar_flips_swapped": Mutant(
        rearrange, "_sums_a", "flips[x], flips[y] = at_scar - hashes[x], at_scar - hashes[y]",
        "flips[x], flips[y] = at_scar - hashes[y], at_scar - hashes[x]", formulas_up_to_6,
    ),
    "sums_b_keeps_ancestors_of_v": Mutant(
        rearrange, "_sums_b", "        total += kept[u] - hashes[u]\n", "", formulas_up_to_6
    ),
    "blocks_one_nni_near_column": Mutant(
        rearrange, "_blocks", "((scar_a,), near_b),", "((scar_a,), near_b[:1]),", formulas_up_to_6
    ),
    "blocks_spr_row_repeats_nni_cols": Mutant(
        rearrange, "_blocks", "[j for j in rest_cols if j not in near_b]", "rest_cols", formulas_up_to_6
    ),
    "blocks_one_nni_near_row": Mutant(
        rearrange, "_blocks", "(near_a, (scar_b,)),", "(near_a[:1], (scar_b,)),", formulas_up_to_6
    ),
    "blocks_spr_column_repeats_nni_rows": Mutant(
        rearrange, "_blocks", "[i for i in rest_rows if i not in near_a]", "rest_rows", formulas_up_to_6
    ),
    "blocks_keep_scar_scar": Mutant(
        rearrange, "_blocks", "rest_rows = rows[0], rows[1:]", "rest_rows = rows[0], rows", formulas_up_to_6
    ),
    "cut_cols_keep_p": Mutant(
        rearrange._Layout, "_cut", "[*range(p), *range(p + 1, v),", "[*range(v),", formulas_up_to_6
    ),
    "cut_second_near_a_names_y": Mutant(
        rearrange._Layout, "_cut", "near_a += (y + 1, end[y + 1])", "near_a += (y, end[y + 1])", formulas_up_to_6
    ),
    "layout_shared_across_shapes": Mutant(
        rearrange, "_layout", "return _Layout(parent)",
        "return _layout.__dict__.setdefault(len(parent), _Layout(parent))", formulas_up_to_6,
    ),
    "split_delta_keeps_parent_split": Mutant(
        rearrange, "_split_delta", "        lost.append(cluster[p])\n", "", redundancy_up_to_6, True
    ),
    "recheck_skips_keys_of_four": Mutant(
        rearrange._Survey, "rechecked", "map((1).__lt__,", "map((4).__lt__,", redundancy_up_to_6, True
    ),
    "refs_a_unnormalized": Mutant(
        rearrange, "_refs_a", "[c ^ a if c & low else c for c in", "[c for c in", ops_follow_the_scar_rule
    ),
    "refs_b_keeps_a_in_ancestors": Mutant(
        rearrange, "_refs_b", "refs[u] = cluster[u] ^ a", "refs[u] = cluster[u]", ops_follow_the_scar_rule
    ),
    "texts_a_orders_rest_by_c_of_q": Mutant(
        rearrange, "_texts_a", "rest[q], a ^ cluster[q])", "rest[q], cluster[q])", spliced_texts
    ),
    # The ancestors of v still hold A, so their children are written in the
    # wrong order: a valid tree, but not the text serialize_newick writes.
    "holes_b_ancestors_keep_a": Mutant(
        rearrange, "_holes_b", "text[u], kept[u] = _join(text[c], kept[c], texts[d], cluster[d]), cluster[u] ^ a",
        "text[u], kept[u] = _join(text[c], kept[c], texts[d], cluster[d]), cluster[u]", spliced_texts,
    ),
    "join_children_reversed": Mutant(rearrange, "_join", "(c & -c) < (d & -d)", "(c & -c) > (d & -d)", spliced_texts),
    # Enumeration and apply_op's own op checks.
    "enumerate_ops_unsorted": Mutant(
        test_rearrange, "enumerate_ops", "sorted(range(len(cluster)), key=cluster.__getitem__)", "range(len(cluster))",
        ops_in_order,
    ),
    "check_ref_takes_single_leaf_ref": Mutant(
        rearrange, "_check_ref", "if ref is not None:", "if False:", single_leaf_refs_rejected,
        raises=pytest.fail.Exception,
    ),
    "apply_op_keeps_scar_scar": Mutant(
        test_rearrange, "apply_op", "if at_scars:", "if False:", scar_scar_rejected, raises=pytest.fail.Exception
    ),
    # Without either lookup check the unknown mask or ref is looked up
    # regardless: a KeyError, not InvalidOp.
    "apply_op_takes_any_bisect_mask": Mutant(
        test_rearrange, "apply_op", "if op.bisect_mask not in hung:", "if False:", unnormalized_mask_rejected,
        raises=KeyError,
    ),
    "check_ref_takes_any_ref": Mutant(
        rearrange, "_check_ref", "elif ref not in refs:", "elif False:", bad_refs_rejected, raises=KeyError
    ),
    # Shape predicates.
    "is_caterpillar_first_child_only": Mutant(
        extremal, "is_caterpillar", " or a - size[u + 1] == 1", "", extremal_up_to_7
    ),
    "is_complete_ignores_size": Mutant(
        test_extremal, "is_complete", "found = found or bound in (a, b)", "found = True", is_complete_against_reference
    ),
    "pair_balanced_strict_lower_bound": Mutant(
        extremal, "_pair_balanced", "a <= 2 * b", "a < 2 * b", complete_predicate_and_closed_form
    ),
    # Input validation.
    "walk_takes_doubled_edge": Mutant(
        tree_core, "_walk", "if stack:", "if False:", doubled_edge_rejected, raises=pytest.fail.Exception
    ),
    "parser_last_fault_wins": Mutant(test_newick_io, "parse_newick", "min(faults)", "max(faults)", first_fault_wins),
    # The command line.
    "parse_error_exits_1": Mutant(test_cli, "main", "return 2", "return 1", parse_error_exits_2),
    "failed_verification_exits_0": Mutant(cli, "cmd_verify", "else 1", "else 0", failed_verification_exits_1),
}


CHECKS = {(m.check, m.hashed) for m in MUTANTS.values()}


@pytest.mark.parametrize("check,hashed", sorted(CHECKS, key=lambda c: (c[0].__name__, c[1])))
def test_check_passes_unmutated(check, hashed):
    with planted(None, hashed):
        check()


@pytest.mark.parametrize("mutant", MUTANTS.values(), ids=MUTANTS.keys())
def test_check_catches_mutant(mutant):
    with planted(mutant, mutant.hashed), pytest.raises(mutant.raises):
        mutant.check()


# -- the harness itself --------------------------------------------------------


def test_every_old_occurs_once_and_is_undone():
    """Each entry's ``old`` is in the current source exactly once (else
    :func:`patched` fails), and leaving :func:`planted` restores the
    target and the key settings."""
    for mutant in MUTANTS.values():
        original = inspect.getattr_static(mutant.owner, mutant.name)
        with planted(mutant, mutant.hashed):
            assert inspect.getattr_static(mutant.owner, mutant.name) is not original
        assert inspect.getattr_static(mutant.owner, mutant.name) is original
    assert (rearrange._EXACT_LEAVES, rearrange._HASH_BITS) == (8, 64)


@pytest.mark.parametrize("old", ["no such text", "len(rows) * len(cols)"], ids=["absent", "twice"])
def test_patch_needs_old_exactly_once(old):
    with pytest.raises(AssertionError, match=r"^_Cut\.op_at: "):
        patched(rearrange._Cut, "op_at", old, "")


def test_patch_reads_the_library_globals(monkeypatch):
    """The patched function looks names up in its own module as it is at
    call time; this test module binds no ``_exact_div``."""
    nni_size = patched(metrics, "nni_size", "return 2 * n - 6", "return _exact_div(2 * n - 6, 1)")
    assert nni_size.__globals__ is vars(metrics) and nni_size(5) == 4
    monkeypatch.setattr(metrics, "_exact_div", lambda num, den: "live")
    assert nni_size(5) == "live"
