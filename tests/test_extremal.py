"""Extremal predicates and exhaustive arg-max/arg-min scans."""

import sys
from collections import Counter

import pytest

from conftest import cluster_masks, reference_is_caterpillar, reference_is_complete

from treespace import (
    OpKind,
    PhyloTree,
    RangeError,
    all_trees,
    apply_op,
    caterpillar,
    complete,
    enumerate_ops,
    extremal,
    extremal_scan,
    gamma_complete,
    is_caterpillar,
    is_complete,
    parse_newick,
    perfect,
    random_tree,
    tbr_size,
)
from treespace.generators import shards
from treespace.verify import extremal_suite


class TestIsCaterpillar:
    def test_constructed_caterpillars(self):
        assert is_caterpillar(caterpillar(7))

    def test_perfect8_is_not(self):
        assert not is_caterpillar(perfect(8))

    def test_every_t5_tree_is(self):
        assert all(is_caterpillar(t) for t in all_trees(5))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_agrees_with_adjacency_reference(self, n):
        """The preorder reading against every internal vertex's neighbours."""
        trees = list(all_trees(n))
        assert [is_caterpillar(t) for t in trees] == [reference_is_caterpillar(t) for t in trees]

    def test_agrees_with_adjacency_reference_large(self):
        trees = [random_tree(n, n) for n in range(9, 65)]
        trees += [f(n) for f in (caterpillar, complete) for n in range(9, 65, 5)]
        trees += [perfect(n) for n in (8, 12, 16, 24, 32, 48, 64)]
        assert [is_caterpillar(t) for t in trees] == [reference_is_caterpillar(t) for t in trees]


class TestIsComplete:
    @pytest.mark.parametrize("n", range(4, 33))
    def test_constructed_completes(self, n):
        assert is_complete(complete(n))

    def test_caterpillar8_is_not(self):
        assert not is_complete(caterpillar(8))

    def test_perfect6_is(self):
        assert is_complete(perfect(6))

    def test_every_t4_and_t5_tree_is(self):
        # With the 2^(k+1) bound at 2, both conditions are vacuous beyond
        # cherries, and every binary tree has a cherry.
        assert all(is_complete(t) for t in all_trees(4))
        assert all(is_complete(t) for t in all_trees(5))

    def test_near_balanced_impostor_rejected(self):
        """A tree with a balanced 4-block can still fail on the complementary
        4-cluster; this shape has a (1,3) split there."""
        t = parse_newick("((1,2),(3,4),(5,(6,(7,8))));").tree
        assert not is_complete(t)

    def test_spider_without_four_cluster_rejected(self):
        t = parse_newick("((1,2),(3,(4,5)),(6,(7,8)));").tree
        assert {m.bit_count() for m in cluster_masks(t)} == {1, 2, 3, 5, 6, 7}
        assert not is_complete(t)


class TestIsCompleteReference:
    """The one-pass predicate against the quadratic cluster-set definition."""

    @pytest.mark.parametrize("n", range(4, 9))
    def test_every_small_tree(self, n):
        """Up to n = 7 the size condition never decides a verdict; T_8 is
        the first T_n where it does."""
        for t in all_trees(n):
            assert is_complete(t) == reference_is_complete(t)

    def test_named_shapes(self):
        shapes = [f(n) for n in range(4, 65) for f in (caterpillar, complete)]
        shapes += [perfect(n) for n in (4, 6, 8, 12, 16, 24, 32, 48, 64)]
        for t in shapes:
            assert is_complete(t) == reference_is_complete(t)

    @pytest.mark.parametrize("n", [16, 32, 48, 64])
    def test_nni_neighbours_of_complete(self, n):
        t = complete(n)
        neighbours = {apply_op(t, op) for op in enumerate_ops(t, OpKind.NNI)}
        assert len(neighbours) == 2 * n - 6
        for out in neighbours:
            assert is_complete(out) == reference_is_complete(out)


class TestScan:
    def test_n4(self):
        scan = extremal_scan(4)
        assert scan.max_value == scan.min_value == 2
        assert scan.argmax_count == scan.argmin_count == 3
        assert scan.argmax_all_caterpillar and scan.argmin_all_complete

    def test_n6(self):
        scan = extremal_scan(6)
        assert (scan.max_value, scan.min_value) == (34, 30)
        assert scan.argmax_count == 90  # labelled caterpillars: 6!/8
        assert scan.argmin_count == 15  # labelled perfect trees: 6!/48
        assert scan.argmax_all_caterpillar and scan.argmin_all_complete
        assert scan.min_gamma == gamma_complete(6) == 24

    def test_n7(self):
        scan = extremal_scan(7)
        assert (scan.max_value, scan.min_value) == (72, 64)
        assert scan.argmax_count == 630
        assert scan.argmin_count == 315
        assert scan.argmax_all_caterpillar and scan.argmin_all_complete

    def test_range(self):
        with pytest.raises(RangeError):
            extremal_scan(9)

    def test_threads_agree(self):
        assert extremal_scan(5, threads=2).to_json() == extremal_scan(5).to_json()

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(RangeError, match=f"threads must be >= 1, got {threads}"):
            extremal_scan(5, threads=threads)


class TestShapeTally:
    """The scan computes each tree's tally once per rooted shape."""

    @pytest.mark.parametrize("n", range(4, 9))
    def test_equals_the_direct_tally(self, n):
        """Tree by tree, the remembered tally is the tree's own, and the
        accumulator counts them as a direct Counter does."""
        trees = list(all_trees(n))
        direct = [(tbr_size(t), is_caterpillar(t), is_complete(t)) for t in trees]
        assert list(extremal._tallies(trees)) == direct
        acc = extremal._Accumulator(n)
        acc.update(trees)
        assert acc.counts == Counter(direct)

    def test_each_shape_once_per_memo(self, monkeypatch):
        """is_complete runs once per rooted shape in a serial scan, and at
        most once per shape in each shard's chunk."""
        calls: list = []
        original = extremal.is_complete
        monkeypatch.setattr(extremal, "is_complete", lambda tree: calls.append(tree.preorder.parent) or original(tree))
        assert extremal_scan(8).tree_count == 10395
        assert sorted(calls) == sorted({tree.preorder.parent for tree in all_trees(8)})
        chunk_calls = 0
        for prefix in shards(7):
            calls.clear()
            assert extremal._scan_chunk((7, prefix)).counts.total() == 9
            assert len(calls) == len(set(calls))
            chunk_calls += len(calls)
        assert chunk_calls < 945


class TestVerdictsCanFail:
    """One tree of T_6 on which a predicate disagrees with the scan turns
    that predicate's verdict False and fails the extremal suite."""

    VERDICTS = {
        "is_caterpillar": ("argmax_all_caterpillar", "max_value", "maximizer set is not exactly the caterpillar set"),
        "is_complete": ("argmin_all_complete", "min_value", "minimizer set is not exactly the complete-tree set"),
    }

    @pytest.mark.parametrize("predicate", VERDICTS)
    @pytest.mark.parametrize("flag", [False, True], ids=["extreme-unflagged", "flagged-not-extreme"])
    def test_one_wrong_flag(self, monkeypatch, predicate, flag):
        verdict, extreme, message = self.VERDICTS[predicate]
        original = getattr(extremal, predicate)
        # The theorem holds, so a tree the predicate holds for is at the
        # extreme and any other tree is not.
        target = next(t for t in all_trees(6) if original(t) != flag)
        monkeypatch.setattr(extremal, predicate, lambda t: flag if t == target else original(t))
        scan = extremal_scan(6)
        assert (extremal.tbr_size(target) == getattr(scan, extreme)) != flag
        assert not getattr(scan, verdict)
        other = next(v for v, _, _ in self.VERDICTS.values() if v != verdict)
        assert getattr(scan, other)
        suite = extremal_suite(n_max=6)
        assert not suite.passed
        assert [f["message"] for f in suite.failures] == [f"n=6: {message}"]


@pytest.fixture(scope="module")
def serial_scans():
    return {n: extremal_scan(n) for n in range(4, 9)}


class TestParallelScan:
    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("n", range(4, 9))
    def test_equals_serial(self, serial_scans, n, threads):
        # Field-by-field equality, the argmax and argmin counts and verdicts included.
        assert extremal_scan(n, threads=threads) == serial_scans[n]

    def test_workers_build_their_own_trees(self, serial_scans, monkeypatch):
        """No tree crosses a process boundary as Newick text."""

        def refuse(*args, **kwargs):
            raise AssertionError("the parallel scan went through Newick")

        for name, module in list(sys.modules.items()):
            if name == "treespace" or name.startswith("treespace."):
                for attr in ("parse_newick", "serialize_newick"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        assert extremal_scan(7, threads=2) == serial_scans[7]

    def test_no_canonical_forms(self, serial_scans, monkeypatch):
        """The scan tallies trees without computing their canonical forms."""

        def refuse(tree):
            raise AssertionError("the scan computed a canonical form")

        monkeypatch.setattr(PhyloTree, "_canonical_form", property(refuse))
        assert extremal_scan(7) == serial_scans[7]
        assert extremal_scan(7, threads=2) == serial_scans[7]

    def test_trees_are_never_revalidated(self, serial_scans, monkeypatch):
        """all_trees grows its trees without PhyloTree's checks, here and in
        the scan's workers."""

        def refuse(tree, *args, **kwargs):
            raise AssertionError("a tree of T_n went through PhyloTree.__init__")

        monkeypatch.setattr(PhyloTree, "__init__", refuse)
        assert sum(1 for _ in all_trees(7)) == 945
        assert extremal_scan(7, threads=2) == serial_scans[7]
