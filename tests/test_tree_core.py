"""Tree construction, validation, splits, clusters, and canonical forms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cluster_masks, edge_list, is_cherry, restrict

from treespace import (
    Cyclic,
    DegreeViolation,
    Disconnected,
    DuplicateLabel,
    PhyloTree,
    TooManyLeaves,
    caterpillar,
    parse_newick,
    perfect,
    random_tree,
)

QUARTET_EDGES = [(1, 5), (2, 5), (5, 6), (6, 3), (6, 4)]
QUARTET_NAMES = {1: "1", 2: "2", 3: "3", 4: "4"}


def is_trivial(tree, mask):
    """True when the split with this mask cuts off a single leaf."""
    return mask.bit_count() in (1, tree.n - 1)


class TestBuildTree:
    def test_quartet_counts(self):
        t = PhyloTree(QUARTET_EDGES, QUARTET_NAMES)
        assert t.n == 4
        assert len(t.vertices()) == 6  # 2n - 2
        assert len(edge_list(t)) == 5  # 2n - 3

    def test_path_graph_rejected(self):
        with pytest.raises(DegreeViolation):
            PhyloTree([(0, 1), (1, 2), (2, 3)], {0: "a", 3: "b"})

    def test_disjoint_cherries_rejected(self):
        with pytest.raises(Disconnected):
            PhyloTree([(0, 1), (2, 3)], {0: "a", 1: "b", 2: "c", 3: "d"})
        with pytest.raises(Disconnected):  # a labelled vertex on no edge
            PhyloTree([(0, 1)], {0: "a", 1: "b", 2: "c"})
        with pytest.raises(Disconnected):
            PhyloTree([], {})

    def test_cycle_rejected(self):
        with pytest.raises(Cyclic):
            PhyloTree([(0, 1), (1, 2), (2, 0)], {})
        with pytest.raises(Cyclic):
            PhyloTree([(0, 1), (1, 1)], {0: "a"})
        with pytest.raises(Cyclic):  # the same edge twice
            PhyloTree([(0, 1), (1, 0)], {0: "a", 1: "b"})

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabel):
            PhyloTree(QUARTET_EDGES, {1: "x", 2: "x", 3: "3", 4: "4"})

    def test_leaf_cap(self):
        with pytest.raises(TooManyLeaves):
            caterpillar(65)

    def test_cycle_beside_a_tree_rejected(self, monkeypatch):
        """|E| = |V| - 1 and every degree 1 or 3, but a hexagon with six
        pendant leaves and a separate 3-leaf star: the walk from leaf 0,
        on the hexagon, would go round it for ever, and must stop."""
        import signal

        hexagon = [(10 + i, 10 + (i + 1) % 6) for i in range(6)] + [(10 + i, i) for i in range(6)]
        star = [(20, 6), (20, 7), (20, 8)]
        names = {v: "abcdefghi"[v] for v in range(9)}

        def too_slow(*args):
            raise TimeoutError("the validating walk did not stop")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(5)
        try:
            with pytest.raises(Disconnected):
                PhyloTree(hexagon + star, names)
            with pytest.raises(Disconnected):  # leaf 0 on the star: the walk ends early
                PhyloTree(hexagon + star, {v: "abcdefghi"[(v + 3) % 9] for v in range(9)})
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_doubled_edge_beside_a_tree_rejected(self):
        """A doubled edge gives its ends degree 3 and leaves |E| = |V| - 1
        with a separate cherry: the walk must not take the doubled edge for
        one edge, or its far side twice, and pass."""
        with pytest.raises(Disconnected):
            PhyloTree([(0, 1), (1, 2), (1, 2), (2, 3), (4, 5)], {0: "a", 3: "b", 4: "c", 5: "d"})
        with pytest.raises(Disconnected):
            PhyloTree([(0, 1), (1, 2), (2, 1), (2, 3), (4, 5)], {0: "c", 3: "d", 4: "a", 5: "b"})

    def test_degenerate_sizes(self):
        single = PhyloTree([], {0: "only"})
        assert single.n == 1 and edge_list(single) == []
        pair = PhyloTree([(0, 1)], {0: "a", 1: "b"})
        assert pair.n == 2 and len(edge_list(pair)) == 1


class TestSplits:
    def test_quartet_splits(self, quartet):
        s = quartet.split_masks
        assert len(s) == 5
        nontrivial = [m for m in s if not is_trivial(quartet, m)]
        assert len(nontrivial) == 1
        assert nontrivial[0].bit_count() == 2 and quartet.n - nontrivial[0].bit_count() == 2

    def test_caterpillar6_nontrivial_splits(self):
        # Read off the spine: {1,2}, {1,2,3}, {1,2,3,4} against the rest.
        t = caterpillar(6)
        nontrivial = {m ^ t.full_mask for m in t.split_masks if not is_trivial(t, m)}
        assert nontrivial == {0b11, 0b111, 0b1111}

    def test_three_leaf_star_all_trivial(self):
        t = parse_newick("(1,2,3);").tree
        s = t.split_masks
        assert len(s) == 3 and all(is_trivial(t, m) for m in s)

    def test_split_counts_random(self):
        for seed in range(5):
            t = random_tree(9, seed)
            s = t.split_masks
            assert len(s) == 2 * 9 - 3
            assert sum(is_trivial(t, m) for m in s) == 9
            assert sum(not is_trivial(t, m) for m in s) == 9 - 3

    @pytest.mark.parametrize("n", [4, 9, 33, 64])
    def test_preorder_sizes_count_the_cluster(self, n):
        for seed in range(3):
            parent, cluster, size = random_tree(n, seed).preorder
            assert size == tuple(c.bit_count() for c in cluster)
            assert all(cluster[p] & cluster[u] == cluster[u] for u, p in enumerate(parent) if p >= 0)

    def test_split_normalization(self):
        t = random_tree(10, 3)
        for mask in t.split_masks:
            assert not mask & 1
            assert 1 <= mask.bit_count() <= 9


class TestCanonicalForm:
    def test_vertex_numbering_invariance(self):
        other = PhyloTree([(10, 70), (20, 70), (70, 80), (80, 30), (80, 40)],
                          {10: "1", 20: "2", 30: "3", 40: "4"})
        base = PhyloTree(QUARTET_EDGES, QUARTET_NAMES)
        assert base.canonical_form() == other.canonical_form()

    def test_different_topologies_differ(self):
        a = parse_newick("((1,2),(3,4));").tree
        b = parse_newick("((1,3),(2,4));").tree
        assert a.canonical_form() != b.canonical_form()

    def test_figure_pair_differs(self):
        t1 = caterpillar(6)
        t2 = parse_newick("(1,3,(2,(5,(4,6))));").tree
        assert t1.canonical_form() != t2.canonical_form()

    @given(st.integers(4, 20), st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_relabelling_invariance(self, n, seed):
        """Permuting vertex ids and shuffling the edge list changes nothing."""
        t = random_tree(n, seed)
        rng = random.Random(seed + 1)
        ids = list(t.vertices())
        relabel = dict(zip(ids, rng.sample(range(1000, 1000 + len(ids)), len(ids))))
        edges = [(relabel[u], relabel[v]) for u, v in edge_list(t)]
        rng.shuffle(edges)
        names = {relabel[v]: t.leaf_name(v) for v in ids if t.is_leaf(v)}
        assert PhyloTree(edges, names).canonical_form() == t.canonical_form()

    def test_numeric_aware_leaf_order(self):
        t = caterpillar(12)
        assert t.leaf_order == tuple(str(i) for i in range(1, 13))


class TestRestrict:
    """The test suite's restriction, the reference of the definitional SPR/NNI checks."""

    def test_three_subset_is_star(self):
        t = caterpillar(6)
        r = restrict(t, ["1", "2", "3"])
        assert r.n == 3 and all(is_trivial(r, m) for m in r.split_masks)

    def test_full_leaf_set_identity(self):
        t = random_tree(8, 2)
        assert restrict(t, t.leaf_order).canonical_form() == t.canonical_form()

    def test_caterpillar_restriction_topology(self):
        r = restrict(caterpillar(6), ["1", "2", "5", "6"])
        assert r == parse_newick("((1,2),(5,6));").tree

    def test_degenerate_sizes(self):
        t = caterpillar(5)
        assert restrict(t, ["3"]).n == 1
        assert restrict(t, ["2", "4"]).n == 2


class TestClusters:
    def test_quartet_cherries(self, quartet):
        assert is_cherry(quartet, "1", "2")
        assert is_cherry(quartet, "3", "4")
        assert not is_cherry(quartet, "1", "3")

    @pytest.mark.parametrize("n", [5, 7, 10])
    def test_caterpillar_has_two_cherries(self, n):
        t = caterpillar(n)
        cherries = [m for m in cluster_masks(t) if m.bit_count() == 2]
        assert len(cherries) == 2

    def test_perfect6_has_three_cherries(self):
        t = perfect(6)
        assert sum(1 for m in cluster_masks(t) if m.bit_count() == 2) == 3

    def test_clusters_are_both_sides(self):
        t = random_tree(7, 5)
        masks = cluster_masks(t)
        full = t.full_mask
        assert all(m ^ full in masks for m in masks)
        assert len(masks) == 2 * len(t.split_masks)


class TestInvariants:
    @given(st.integers(4, 16), st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_shape_counts(self, n, seed):
        t = random_tree(n, seed)
        degrees = [len(t.neighbors(v)) for v in t.vertices()]
        assert all(d in (1, 3) for d in degrees)
        assert len(t.vertices()) == 2 * n - 2
        assert len(edge_list(t)) == 2 * n - 3
