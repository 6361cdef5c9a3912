"""Acceptance suite: every exit criterion, exact tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  All comparisons are exact integer equalities or set
equalities; nothing here is approximate.
"""

from __future__ import annotations

import pytest
from conftest import multiplicities

from treespace import (
    NewickSyntaxError,
    OpKind,
    TreeError,
    all_trees,
    caterpillar,
    caterpillar_tbr_size,
    complete,
    complete_tbr_size,
    gamma,
    gamma_complete,
    nni_size,
    parse_newick,
    perfect,
    perfect_tbr_size,
    random_tree,
    serialize_newick,
    spr_op_count,
    spr_size,
    tbr_op_count,
    tbr_size,
)
from treespace.rearrange import op_survey
from treespace.verify import (
    ASYMPTOTIC_C,
    SAMPLE_NS,
    asymptotic_suite,
    extremal_suite,
)

EXHAUSTIVE_NS = (4, 5, 6, 7)
EXPECTED_COUNTS = {4: 3, 5: 15, 6: 105, 7: 945}


def _announce(number: int, name: str):
    """Print the criterion verdict line; re-raise on failure."""

    class _Context:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {number:02d} {name}: {verdict}")
            return False

    return _Context()


@pytest.fixture(scope="module")
def exhaustive_surveys():
    """One enumeration pass per tree of T_4..T_7, shared by criteria 1-4."""
    rows = []
    for n in EXHAUSTIVE_NS:
        count = 0
        for tree in all_trees(n):
            survey = op_survey(tree)
            rows.append((n, tree, survey))
            count += 1
        assert count == EXPECTED_COUNTS[n]
    return rows


def test_criterion_01_tbr_neighbourhood_formula(exhaustive_surveys):
    """Enumerated |N_TBR| equals 4*Gamma - (4n-2)(n-3) on all of T_4..T_7."""
    with _announce(1, "TBR neighbourhood size = closed form (T_4..T_7, exact)"):
        for n, tree, survey in exhaustive_surveys:
            enumerated = survey[OpKind.TBR].report.neighbourhood_size
            assert enumerated == tbr_size(tree), serialize_newick(tree)


def test_criterion_02_operation_counts(exhaustive_surveys):
    """Enumerated |O_TBR| and |O_SPR| equal their closed forms, exact."""
    with _announce(2, "TBR/SPR operation counts = closed forms (T_4..T_7, exact)"):
        for n, tree, survey in exhaustive_surveys:
            assert survey[OpKind.TBR].report.op_count == tbr_op_count(tree), serialize_newick(tree)
            assert survey[OpKind.SPR].report.op_count == spr_op_count(n), serialize_newick(tree)


def test_criterion_03_fixed_size_neighbourhoods(exhaustive_surveys):
    """|N_NNI| = 2n-6 and |N_SPR| = 2(n-3)(2n-7), exhaustive plus 200 random
    trees for each n in SAMPLE_NS."""
    with _announce(3, f"NNI/SPR neighbourhood sizes (exhaustive + 200x{len(SAMPLE_NS)} random, exact)"):
        for n, tree, survey in exhaustive_surveys:
            assert survey[OpKind.NNI].report.neighbourhood_size == nni_size(n)
            assert survey[OpKind.SPR].report.neighbourhood_size == spr_size(n)
        for n in SAMPLE_NS:
            for i in range(200):
                tree = random_tree(n, seed=10_000 * n + i)
                survey = op_survey(tree, (OpKind.SPR, OpKind.NNI))
                assert survey[OpKind.NNI].report.neighbourhood_size == nni_size(n), serialize_newick(tree)
                assert survey[OpKind.SPR].report.neighbourhood_size == spr_size(n), serialize_newick(tree)


def test_criterion_04_redundancy_law(exhaustive_surveys):
    """TBR multiplicities are 1 or 4; the multiplicity-4 outputs are exactly
    the NNI neighbourhood; |O_TBR| - |N_TBR| = 3(2n-6).  Exhaustive n <= 7."""
    with _announce(4, "redundancy law: multiplicities {1,4}, x4 = NNI, slack 3(2n-6)"):
        for n, tree, survey in exhaustive_surveys:
            tbr = survey[OpKind.TBR]
            assert set(tbr.report.multiplicity_histogram) <= {1, 4}, serialize_newick(tree)
            quadruple = {form for form, c in multiplicities(tbr, tree).items() if c == 4}
            assert quadruple == set(multiplicities(survey[OpKind.NNI], tree)), serialize_newick(tree)
            slack = tbr.report.op_count - tbr.report.neighbourhood_size
            assert slack == 3 * (2 * n - 6), serialize_newick(tree)


def test_criterion_05_caterpillar_cubic():
    """tbr_size(caterpillar(n)) equals the cubic (2/3)n^3 - 4n^2 + (16/3)n + 2
    for 4 <= n <= 64; spot values 2, 12, 34, 72, 130 at n = 4..8."""
    with _announce(5, "caterpillar cubic, n = 4..64 exact; spots 2,12,34,72,130"):
        for n in range(4, 65):
            assert caterpillar_tbr_size(n) == tbr_size(caterpillar(n)), n
        spots = [caterpillar_tbr_size(n) for n in range(4, 9)]
        assert spots == [2, 12, 34, 72, 130]


def test_criterion_06_perfect_tree_values():
    """tbr_size(perfect(n)) = 30, 106, 1114 at n = 6, 8, 16; both closed forms
    agree at n in {12, 24, 32, 48, 64}."""
    with _announce(6, "perfect-tree sizes 30/106/1114 and closed-form agreement"):
        for n, expected in ((6, 30), (8, 106), (16, 1114)):
            assert tbr_size(perfect(n)) == expected
            assert perfect_tbr_size(n) == expected
        for n in (12, 24, 32, 48, 64):
            value = tbr_size(perfect(n))
            assert value == perfect_tbr_size(n) == complete_tbr_size(n), n


def test_criterion_07_complete_closed_form():
    """gamma(complete(n)) equals the binary-expansion closed form for
    4 <= n <= 64; spot values 42 at n=7 and 216 at n=12."""
    with _announce(7, "complete-tree gamma closed form, n = 4..64 exact"):
        for n in range(4, 65):
            assert gamma(complete(n)) == gamma_complete(n), n
        assert gamma_complete(7) == 42
        assert gamma_complete(12) == 216


def test_criterion_08_extremal_characterizations():
    """For n in {5,6,7,8}: the arg-max set over all of T_n is exactly the
    caterpillar set and the arg-min set exactly the complete set, as set
    equalities over the labelled trees."""
    with _announce(8, "extremal characterizations over T_5..T_8 (set equality)"):
        result = extremal_suite(n_max=8)
        assert result.passed, result.failures
        for n in ("5", "6", "7", "8"):
            scan = result.details["scans"][n]
            assert scan["argmax_all_caterpillar"], n
            assert scan["argmin_all_complete"], n


def test_criterion_09_asymptotic_consistency():
    """Sweep complete_tbr_size(n) to n = 2^20: remainder against
    4 n^2 floor(log2 n) bounded by C n^2 with a single pinned C, and the
    ratio increases toward 1 along n = 3*2^k."""
    with _announce(9, f"asymptotic sweep to 2^20, pinned C = {ASYMPTOTIC_C}"):
        result = asymptotic_suite(limit=1 << 20)
        assert result.passed, result.failures
        assert result.details["observed_c"] <= ASYMPTOTIC_C


NEGATIVE_CORPUS = [
    "",
    "(;",
    "(1,2;",
    "((1,2),(3,4))",
    "((1,2),(3,4)));",
    "(1,,2);",
    "(1,2,());",
    "(1,2,3); trailing",
    "(1,2,3,4,5);",
    "(1,2,(3,3));",
    "((1,2,3),(4,5));",
    "(1,(2),3);",
    "(1:x,2,3);",
    "('abc,1,2);",
    "(1,2,(3,4)oops);",
]


def test_criterion_10_parser_robustness():
    """Round-trip canonical-form preservation on 1000 random trees with
    n in [4, 20], and rejection of the whole negative corpus with
    position-bearing errors."""
    with _announce(10, "parser: 1000 round trips + negative corpus rejection"):
        for i in range(1000):
            n = 4 + i % 17  # cycles through 4..20
            tree = random_tree(n, seed=31 * i)
            doc = parse_newick(serialize_newick(tree))
            assert doc.tree.canonical_form() == tree.canonical_form()
        for text in NEGATIVE_CORPUS:
            with pytest.raises(TreeError) as info:
                parse_newick(text)
            if isinstance(info.value, NewickSyntaxError):
                assert 0 <= info.value.position <= len(text)
            else:
                assert "position" in str(info.value)
