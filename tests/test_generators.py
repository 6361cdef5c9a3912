"""Tree families, the exhaustive T_n enumerator and the workers that share it."""

import hashlib
import os
import threading
import time
from collections import Counter

import pytest

from conftest import edge_list, is_cherry, reference_insertion_edges

from treespace import (
    NotPerfectSize,
    PhyloTree,
    RangeError,
    TooFewLeaves,
    all_trees,
    caterpillar,
    complete,
    gamma,
    gamma_complete,
    is_caterpillar,
    is_complete,
    parse_newick,
    perfect,
    random_tree,
    serialize_newick,
    tree_count,
)
from treespace.generators import TreeFamily, fork_map, generate, insertion_prefixes, shards

#: The perfect sizes up to the leaf cap: n = 2^k and n = 3*2^(k-1), k >= 2.
PERFECT_SIZES = (4, 6, 8, 12, 16, 24, 32, 48, 64)


class TestCaterpillar:
    def test_n4_is_quartet(self, quartet):
        assert caterpillar(4) == quartet

    def test_n6_shape_and_gamma(self):
        t = caterpillar(6)
        assert is_cherry(t, "1", "2") and is_cherry(t, "5", "6")
        assert gamma(t) == 25

    def test_n5_gamma(self):
        assert gamma(caterpillar(5)) == 12

    @pytest.mark.parametrize("n", range(4, 65, 6))
    def test_predicate(self, n):
        assert is_caterpillar(caterpillar(n))

    def test_rejects_small(self):
        with pytest.raises(TooFewLeaves):
            caterpillar(3)


class TestComplete:
    def test_n6_is_perfect_six(self):
        t = complete(6)
        assert t == perfect(6)
        assert gamma(t) == 24

    def test_n7_gamma(self):
        # cluster sizes: one 4-block plus a (2,1) remainder; products 12+10+10+10
        assert gamma(complete(7)) == 42

    def test_n12_gamma(self):
        # products 32+64+80+40
        assert gamma(complete(12)) == 216

    @pytest.mark.parametrize("n", range(4, 33))
    def test_predicate_and_closed_form(self, n):
        t = complete(n)
        assert is_complete(t)
        assert gamma(t) == gamma_complete(n)

    def test_predicates_hold_to_the_leaf_cap(self):
        for n in range(33, 65):
            assert is_complete(complete(n))
            assert is_caterpillar(caterpillar(n))


class TestPerfect:
    @pytest.mark.parametrize("n,expected_gamma", [(8, 64), (16, 480)])
    def test_gamma(self, n, expected_gamma):
        assert gamma(perfect(n)) == expected_gamma

    @pytest.mark.parametrize("n", [6, 8, 12, 16, 24, 32, 48, 64])
    def test_same_form_as_complete(self, n):
        assert perfect(n).canonical_form() == complete(n).canonical_form()

    @pytest.mark.parametrize("n", PERFECT_SIZES)
    def test_symmetry_in_split_sizes(self, n):
        """The non-trivial splits by their smaller side.  n = 2^k: the
        central split of n/2, then 2^(k-j) splits of 2^j on both sides of
        it.  n = 3*2^(k-1): 3*2^(k-1-j) splits of 2^j, the same in each of
        the three branches at the central vertex."""
        smaller = (min(mask.bit_count(), n - mask.bit_count()) for mask in perfect(n).split_masks)
        sides = Counter(side for side in smaller if side > 1)
        if n & (n - 1) == 0:
            k = n.bit_length() - 1
            expected = {n // 2: 1, **{1 << j: 1 << (k - j) for j in range(1, k - 1)}}
        else:
            k = (n // 3).bit_length()
            expected = {1 << j: 3 << (k - 1 - j) for j in range(1, k)}
        assert sides == expected

    @pytest.mark.parametrize("n", [3, 5, 7, 10, 20])
    def test_rejects_other_sizes(self, n):
        with pytest.raises(NotPerfectSize):
            perfect(n)


class TestRandomTree:
    def test_deterministic_per_seed(self):
        assert random_tree(12, 99) == random_tree(12, 99)
        assert random_tree(12, 99) != random_tree(12, 100)

    def test_n4_lands_on_the_three_topologies(self):
        seen = {random_tree(4, seed).canonical_form() for seed in range(60)}
        assert len(seen) == 3

    def test_uniform_over_t5(self):
        """15000 draws from T_5: each of the 15 topologies within 3 sigma of
        its expected 1000 hits (sigma ~ 30.5)."""
        from collections import Counter

        counts = Counter(random_tree(5, seed).canonical_form() for seed in range(15000))
        assert len(counts) == 15
        for c in counts.values():
            assert abs(c - 1000) <= 3 * 30.6

    def test_bounds(self):
        with pytest.raises(TooFewLeaves):
            random_tree(3, 0)


class TestAllTrees:
    @pytest.mark.parametrize("n,count", [(4, 3), (5, 15), (6, 105), (7, 945)])
    def test_counts(self, n, count):
        assert tree_count(n) == count
        assert sum(1 for _ in all_trees(n)) == count

    def test_n8_count(self):
        assert sum(1 for _ in all_trees(8)) == 10395

    def test_pairwise_distinct_forms(self):
        forms = {t.canonical_form() for t in all_trees(6)}
        assert len(forms) == 105

    def test_all_valid(self):
        for t in all_trees(5):
            assert len(edge_list(t)) == 2 * 5 - 3

    def test_range(self):
        with pytest.raises(RangeError):
            next(all_trees(10))
        with pytest.raises(RangeError):
            next(all_trees(3))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_prefix_shards_concatenate_to_all_trees(self, n):
        whole = list(all_trees(n))
        for length in range(n - 2):
            shards = [list(all_trees(n, prefix)) for prefix in insertion_prefixes(n, length)]
            assert [t for shard in shards for t in shard] == whole
            assert len({len(shard) for shard in shards}) == 1

    def test_n8_shards_of_prefix_length_3(self):
        """The parallel extremal scan's shards of T_8: 105 blocks of 99 trees."""
        sizes = [sum(1 for _ in all_trees(8, prefix)) for prefix in insertion_prefixes(8, 3)]
        assert sizes == [99] * 105

    @pytest.mark.parametrize("prefix", [(3,), (0, 5), (0, 0, 0, 0), (-1,)])
    def test_bad_prefix(self, prefix):
        with pytest.raises(RangeError):
            next(all_trees(6, prefix))

    def test_prefix_length_range(self):
        with pytest.raises(RangeError):
            insertion_prefixes(6, 4)

    @pytest.mark.parametrize("n,count", [(4, 3), (5, 15), (6, 105), (8, 105)])
    def test_shards(self, n, count):
        assert shards(n) == list(insertion_prefixes(n, min(3, n - 3))) and len(shards(n)) == count


class TestGrownTrees:
    """Each tree of T_n grows its adjacency from its parent's and skips the
    constructor's checks; it must equal the validated build of the same
    edge list."""

    @staticmethod
    def check(n, prefix=()):
        names = {i: str(i + 1) for i in range(n)}
        count = 0
        for grown, edges in zip(all_trees(n, prefix), reference_insertion_edges(n, prefix), strict=True):
            built = PhyloTree(edges, names)
            assert grown.preorder == built.preorder  # parent, cluster and size
            assert grown.leaf_order == built.leaf_order
            assert grown.vertices() == built.vertices()
            assert all(grown.neighbors(v) == built.neighbors(v) for v in built.vertices())
            assert grown.canonical_form() == built.canonical_form()
            count += 1
        return count

    @pytest.mark.parametrize("n", range(4, 9))
    def test_equals_the_validated_build(self, n):
        assert self.check(n) == tree_count(n)

    def test_every_shard_of_t6(self):
        assert [self.check(6, prefix) for prefix in shards(6)] == [1] * 105


class TestForkMap:
    def test_results_in_task_order(self):
        """Child k runs tasks k, k + 3, ...; the results come back in task order."""
        out = fork_map(lambda x: (x * x, os.getpid()), list(range(8)), 3)
        assert [square for square, _ in out] == [x * x for x in range(8)]
        pids = [pid for _, pid in out]
        assert os.getpid() not in pids
        assert [pids.index(pid) for pid in pids] == [i % 3 for i in range(8)]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failure_kills_the_other_workers(self):
        """The first worker fails at once; the second, which would sleep a
        minute, is killed and reaped before the error is raised here."""

        def task(i):
            if i == 0:
                raise KeyError("first worker")
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(KeyError, match="first worker"):
            fork_map(task, [0, 1], 2)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unpicklable_result(self):
        with pytest.raises(RuntimeError, match="could not be pickled"):
            fork_map(lambda x: (lambda: x), [1, 2], 2)

    def test_without_fork_runs_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert fork_map(lambda x: (x, os.getpid()), [1, 2, 3], 2) == [(x, os.getpid()) for x in (1, 2, 3)]

    def test_beside_another_thread_runs_here(self):
        """A fork would copy the locks another thread holds, so none is made."""
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            assert fork_map(lambda x: (x, os.getpid()), [1, 2, 3], 2) == [(x, os.getpid()) for x in (1, 2, 3)]
        finally:
            release.set()
            other.join(60)
        assert not other.is_alive()


#: SHA-256 of the Newick lines each named family writes, one tree a line:
#: n = 4..64, the perfect tree at its sizes.
LABELLED_OUTPUT = {
    TreeFamily.CATERPILLAR: (range(4, 65), "aeb4ff1ba50caa901b5f948d1e9779910590060ef2f4432ab35527f0a86d0674"),
    TreeFamily.COMPLETE: (range(4, 65), "66ee09193201047cffb9fbf7fbf3094d279c6eacf7ad430d0f056cc839f59f8a"),
    TreeFamily.PERFECT: (PERFECT_SIZES, "c76d9eb34536de10e36068fc3399a2de5c528cdba6bcc319ff6dff6ede6274a5"),
}


class TestFamilyExamples:
    def test_perfect6_matches_literal_newick(self):
        assert perfect(6) == parse_newick("(1,2,((3,4),(5,6)));").tree

    @pytest.mark.parametrize("family", LABELLED_OUTPUT, ids=lambda family: family.value)
    def test_labelled_output_pinned(self, family):
        """The labelled trees themselves, not only their shapes: the shape
        predicates and Gamma hold for any labelling of the right shape."""
        sizes, digest = LABELLED_OUTPUT[family]
        text = "".join(serialize_newick(generate(family, n)) + "\n" for n in sizes)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
