"""Closed forms: split statistic and neighbourhood sizes.

Frozen expected values were computed from first principles: split products
enumerated by hand for the small named trees, and every formula plug-in
double-checked against the enumeration oracle in test_rearrange /
test_acceptance.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_gamma

from treespace import (
    MAX_LEAVES,
    NotPerfectSize,
    TooFewLeaves,
    all_trees,
    caterpillar,
    caterpillar_gamma,
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
    spr_op_count,
    spr_size,
    tbr_op_count,
    tbr_size,
)


class TestGamma:
    def test_quartet(self, quartet):
        assert gamma(quartet) == 4  # single 2|2 split

    def test_caterpillar6(self):
        # splits 2|4, 3|3, 4|2 -> 8 + 9 + 8
        assert gamma(caterpillar(6)) == 25

    def test_perfect6(self):
        # three 2|4 splits
        assert gamma(perfect(6)) == 24

    def test_rejects_small(self):
        with pytest.raises(TooFewLeaves):
            gamma(parse_newick("(1,2,3);").tree)

    @given(st.integers(4, 64), st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_split_enumeration(self, n, seed):
        """The one-pass subtree-count route equals the explicit split route."""
        t = random_tree(n, seed)
        sizes = (m.bit_count() for m in t.split_masks)
        by_splits = sum(a * (n - a) for a in sizes if 2 <= a <= n - 2)
        assert gamma(t) == by_splits

    @pytest.mark.parametrize("n", range(4, 8))
    def test_agrees_with_adjacency_oracle_exhaustively(self, n):
        """gamma and split_masks share the rooted preorder; the oracle does not."""
        assert all(gamma(t) == reference_gamma(t) for t in all_trees(n))

    @given(st.integers(8, 64), st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_adjacency_oracle_random(self, n, seed):
        t = random_tree(n, seed)
        assert gamma(t) == reference_gamma(t)

    @given(st.integers(4, 64))
    @settings(max_examples=30, deadline=None)
    def test_caterpillar_gamma_closed_form(self, n):
        assert caterpillar_gamma(n) == gamma(caterpillar(n))


class TestFixedSizeFormulas:
    @pytest.mark.parametrize("n,expected", [(4, 2), (6, 6), (10, 14)])
    def test_nni(self, n, expected):
        assert nni_size(n) == expected

    @pytest.mark.parametrize("n,expected", [(4, 2), (5, 12), (6, 30)])
    def test_spr(self, n, expected):
        assert spr_size(n) == expected

    @pytest.mark.parametrize("n,expected", [(4, 8), (5, 24), (6, 48)])
    def test_spr_ops(self, n, expected):
        assert spr_op_count(n) == expected

    def test_spr_ops_minus_three_nni(self):
        assert spr_op_count(6) - 3 * nni_size(6) == spr_size(6)

    def test_rejects_small(self):
        for fn in (nni_size, spr_size, spr_op_count):
            with pytest.raises(TooFewLeaves):
                fn(3)


class TestTbrFormulas:
    def test_quartet_values(self, quartet):
        assert tbr_op_count(quartet) == 8
        assert tbr_size(quartet) == 2

    def test_caterpillar_op_counts(self):
        assert tbr_op_count(caterpillar(5)) == 24
        assert tbr_op_count(caterpillar(6)) == 52

    def test_caterpillar6_size(self):
        assert tbr_size(caterpillar(6)) == 34

    def test_perfect6_size(self):
        assert tbr_size(perfect(6)) == 30


class TestCaterpillarCubic:
    # Oracle-computed: the cubic (2n^3 - 12n^2 + 16n + 6)/3 at n = 4..8,
    # confirmed by exhaustive neighbourhood enumeration in test_acceptance.
    @pytest.mark.parametrize("n,expected", [(4, 2), (5, 12), (6, 34), (7, 72), (8, 130)])
    def test_small_values(self, n, expected):
        assert caterpillar_tbr_size(n) == expected

    @given(st.integers(4, 64))
    @settings(max_examples=40, deadline=None)
    def test_matches_tree_route(self, n):
        assert caterpillar_tbr_size(n) == tbr_size(caterpillar(n))


class TestCompleteClosedForm:
    @pytest.mark.parametrize("n,expected", [(6, 24), (7, 42), (12, 216)])
    def test_spot_values(self, n, expected):
        assert gamma_complete(n) == expected

    @given(st.integers(4, 64))
    @settings(max_examples=61, deadline=None)
    def test_matches_construction(self, n):
        assert gamma_complete(n) == gamma(complete(n))

    @pytest.mark.parametrize("n,expected", [(6, 30), (12, 450), (8, 106)])
    def test_tbr_size_spot_values(self, n, expected):
        assert complete_tbr_size(n) == expected


# Every perfect size up to 2^20: 2^k, and 3 * 2^(k-1), for k >= 2.
PERFECT_NS = sorted([1 << k for k in range(2, 21)] + [3 << k for k in range(1, 19)])


class TestPerfectValues:
    @pytest.mark.parametrize("n,expected", [(6, 30), (8, 106), (16, 1114)])
    def test_headline_values(self, n, expected):
        assert perfect_tbr_size(n) == expected

    @pytest.mark.parametrize("n", PERFECT_NS)
    def test_agrees_with_complete_form(self, n):
        """The perfect and complete trees coincide at every perfect n <= 2^20;
        the surveyed tree is checked where trees can be built."""
        assert perfect_tbr_size(n) == complete_tbr_size(n)
        if n <= MAX_LEAVES:
            assert perfect_tbr_size(n) == tbr_size(perfect(n))

    @pytest.mark.parametrize("n", [5, 7, 9, 10, 18, 20])
    def test_rejects_non_perfect(self, n):
        with pytest.raises(NotPerfectSize):
            perfect_tbr_size(n)


class TestSandwich:
    @given(st.integers(4, 14), st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_complete_min_caterpillar_max(self, n, seed):
        value = tbr_size(random_tree(n, seed))
        assert complete_tbr_size(n) <= value <= caterpillar_tbr_size(n)
