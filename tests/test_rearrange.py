"""Enumeration, application, and classification of rearrangement operations.

The deeper semantic checks validate the scar-edge rules against the
definitional criteria (restriction equality for SPR, subtree swap for NNI)
implemented independently in conftest.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    multiplicities,
    nni_definitional,
    reference_bisections,
    reference_contributions,
    reference_output_key,
    restrict,
    restriction_preserved,
    spr_definitional,
)

from treespace import (
    CanonicalForm,
    InvalidOp,
    NeighbourhoodReport,
    OpKind,
    PhyloTree,
    RearrangementOp,
    TooFewLeaves,
    all_trees,
    apply_op,
    caterpillar,
    complete,
    enumerate_ops,
    nni_size,
    parse_newick,
    random_tree,
    serialize_newick,
    spr_op_count,
    spr_size,
    tbr_op_count,
    tbr_size,
)
from treespace import rearrange
from treespace.rearrange import (
    _hash_keys,
    _layout,
    _refs_a,
    _refs_b,
    _Rooted,
    _split_delta,
    _sums_a,
    _sums_b,
    _Survey,
    op_survey,
)

# The classes each kind of operation includes: NNI ops are SPR ops are TBR ops.
WITHIN = {
    OpKind.NNI: {OpKind.NNI},
    OpKind.SPR: {OpKind.NNI, OpKind.SPR},
    OpKind.TBR: {OpKind.NNI, OpKind.SPR, OpKind.TBR},
}


def leaf_mask(tree, *names):
    return sum(1 << tree.leaf_order.index(name) for name in names)


def kind_of(tree, op):
    """Most specific kind whose operations include ``op``: NNI before SPR before TBR."""
    return next(kind for kind in OpKind if op in set(enumerate_ops(tree, kind)))


def scar_refs(tree, mask):
    """(scar ref of side A, scar ref of side B) of the bisection, from the adjacency walk."""
    ((_, side_a, side_b),) = [b for b in reference_bisections(tree) if b[0] == mask]
    return side_a[1], side_b[1]


class TestEnumerate:
    def test_quartet_tbr_ops(self, quartet):
        ops = enumerate_ops(quartet, OpKind.TBR)
        assert len(ops) == 8  # 4 pendant edges x 2; the internal edge gives (1)(1)-1 = 0
        assert len(set(ops)) == 8

    def test_caterpillar5_spr_ops(self):
        assert len(enumerate_ops(caterpillar(5), OpKind.SPR)) == 24

    @pytest.mark.parametrize("seed", range(4))
    def test_t6_tbr_matches_gamma_formula(self, seed):
        t = random_tree(6, seed)
        assert len(enumerate_ops(t, OpKind.TBR)) == tbr_op_count(t)

    def test_deterministic_order(self):
        t = random_tree(7, 9)
        assert enumerate_ops(t, OpKind.TBR) == enumerate_ops(t, OpKind.TBR)

    def test_kind_nesting_of_op_sets(self):
        t = random_tree(7, 3)
        nni = set(enumerate_ops(t, OpKind.NNI))
        spr = set(enumerate_ops(t, OpKind.SPR))
        tbr = set(enumerate_ops(t, OpKind.TBR))
        assert nni <= spr <= tbr
        for op in spr:
            assert kind_of(t, op) in WITHIN[OpKind.SPR]

    def test_rejects_small(self):
        with pytest.raises(TooFewLeaves):
            enumerate_ops(parse_newick("(1,2,3);").tree)


class TestApply:
    def test_quartet_leaf_regraft(self, quartet):
        # Prune leaf 1, regraft onto the pendant edge of 3.
        op = RearrangementOp(
            bisect_mask=quartet.full_mask ^ 1,
            reconnect_a=leaf_mask(quartet, "3"),
            reconnect_b=None,
        )
        result = apply_op(quartet, op)
        assert result == parse_newick("((1,3),(2,4));").tree

    def test_figure_tbr_move(self):
        """Bisect the central edge of the 1..6 caterpillar and reconnect at
        the pendant edges of 2 and 5: one TBR move to the 1,3,2,5,4,6 order."""
        t1 = caterpillar(6)
        op = RearrangementOp(
            bisect_mask=leaf_mask(t1, "4", "5", "6"),
            reconnect_a=leaf_mask(t1, "5"),
            reconnect_b=leaf_mask(t1, "2"),
        )
        t2 = apply_op(t1, op)
        assert t2 == parse_newick("(1,3,(2,(5,(4,6))));").tree
        assert kind_of(t1, op) is OpKind.TBR
        # Deleting the new edge gives the same forest as the bisection did.
        for side in ({"1", "2", "3"}, {"4", "5", "6"}):
            assert restrict(t1, side) == restrict(t2, side)
        # Not an SPR: neither component can be regrafted onto the other.
        assert not spr_definitional(t1, t2, op.bisect_mask)

    def test_figure_spr_move(self):
        """Same bisection, but component {4,5,6} keeps its rooting: an SPR
        move to the 1,3,2,4,5,6 order (also reachable as an interchange)."""
        t1 = caterpillar(6)
        mask = leaf_mask(t1, "4", "5", "6")
        scar_a, _ = scar_refs(t1, mask)
        op = RearrangementOp(mask, scar_a, leaf_mask(t1, "2"))
        t3 = apply_op(t1, op)
        assert t3 == parse_newick("(1,3,(2,(4,(5,6))));").tree
        assert kind_of(t1, op) in (OpKind.NNI, OpKind.SPR)
        assert spr_definitional(t1, t3, mask)

    def test_output_valid_and_distinct(self):
        for seed in range(3):
            t = random_tree(6, seed)
            for op in enumerate_ops(t, OpKind.TBR):
                out = apply_op(t, op)
                assert out.n == t.n
                assert out.canonical_form() != t.canonical_form()

    def test_scar_scar_unrepresentable(self, quartet):
        internal = leaf_mask(quartet, "3", "4")
        with pytest.raises(InvalidOp):
            apply_op(quartet, RearrangementOp(internal, *scar_refs(quartet, internal)))

    def test_single_leaf_side_takes_no_ref(self, quartet):
        """A component that is one leaf offers no reconnection edge, so a
        ref there is refused even when the other side's is valid: for side
        A on a pendant edge, and for side B when it is leaf 0."""
        ops = {op.bisect_mask: op for op in enumerate_ops(quartet)}  # a valid op of each bisection
        leaf_a, leaf_b = ops[leaf_mask(quartet, "3")], ops[quartet.full_mask ^ 1]
        for bad in (leaf_a._replace(reconnect_a=leaf_a.reconnect_b), leaf_b._replace(reconnect_b=leaf_b.reconnect_a)):
            with pytest.raises(InvalidOp, match="is a single leaf"):
                apply_op(quartet, bad)

    def test_bad_refs_rejected(self, quartet):
        with pytest.raises(InvalidOp):
            apply_op(quartet, RearrangementOp(0b0110, 1, None))  # not an edge split
        with pytest.raises(InvalidOp):
            apply_op(
                quartet,
                RearrangementOp(quartet.full_mask ^ 1, 0b0110, None),  # bogus component edge
            )

    def test_unnormalized_mask_rejected(self, quartet):
        """A bisect mask holding leaf 0 names no edge: masks are normalized."""
        op = enumerate_ops(quartet)[0]
        bad = RearrangementOp(op.bisect_mask ^ quartet.full_mask, op.reconnect_a, op.reconnect_b)
        with pytest.raises(InvalidOp):
            apply_op(quartet, bad)
        assert bad not in set(enumerate_ops(quartet))

    def test_independent_of_the_survey_sides(self, monkeypatch):
        """apply_op validates and performs every op without the rooted
        preparation or the sides the survey is built on."""
        trees = list(all_trees(6))
        expected = [(tree, op, apply_op(tree, op)) for tree in trees for op in enumerate_ops(tree, OpKind.TBR)]

        def refuse(*args):
            raise AssertionError("apply_op used the survey's bisection sides")

        for name in ("_Rooted", "_layout", "_refs_a", "_refs_b", "_sums_a", "_sums_b"):
            monkeypatch.setattr(rearrange, name, refuse)
        for tree, op, want in expected:
            assert apply_op(tree, op) == want
        op = expected[0][1]
        for bad in (
            RearrangementOp(op.bisect_mask ^ trees[0].full_mask, op.reconnect_a, op.reconnect_b),
            RearrangementOp(0, op.reconnect_a, op.reconnect_b),
        ):
            with pytest.raises(InvalidOp):
                apply_op(trees[0], bad)

    def test_independent_of_the_preorder(self, monkeypatch):
        """apply_op finds the bisected edge by a walk of its own: with the
        tree's preorder unreadable it still performs every TBR op of T_6 and
        rejects masks that name no edge."""
        cases = [(tree, op) for tree in all_trees(6) for op in enumerate_ops(tree, OpKind.TBR)]
        expected = [apply_op(tree, op) for tree, op in cases]

        def refuse(tree):
            raise AssertionError("apply_op read the tree's preorder")

        monkeypatch.setattr(PhyloTree, "preorder", property(refuse))
        outputs = [apply_op(tree, op) for tree, op in cases]
        tree, op = cases[0]
        for bad in (
            RearrangementOp(op.bisect_mask ^ tree.full_mask, op.reconnect_a, op.reconnect_b),
            RearrangementOp(0, op.reconnect_a, op.reconnect_b),
        ):
            with pytest.raises(InvalidOp):
                apply_op(tree, bad)
        monkeypatch.undo()  # comparing trees reads their preorder
        assert outputs == expected


class TestNeighbourhood:
    def test_quartet_tbr(self, quartet):
        entry = op_survey(quartet, (OpKind.TBR,))[OpKind.TBR]
        forms, report = multiplicities(entry, quartet), entry.report
        assert len(forms) == 2
        assert report.op_count == 8
        assert report.multiplicity_histogram == {4: 2}

    def test_t6_nni_is_six(self):
        for seed in range(3):
            report = op_survey(random_tree(6, seed), (OpKind.NNI,))[OpKind.NNI].report
            assert report.neighbourhood_size == 6

    def test_caterpillar6_tbr(self):
        report = op_survey(caterpillar(6), (OpKind.TBR,))[OpKind.TBR].report
        assert report.neighbourhood_size == 34
        assert report.op_count == 52

    def test_survey_matches_apply_route(self):
        """The split-recombination fast path equals graph surgery output by
        output, including multiplicities."""
        from collections import Counter

        for tree in list(all_trees(5))[::3] + [random_tree(n, s) for n in (6, 7) for s in range(3)]:
            by_surgery = Counter()
            for op in enumerate_ops(tree, OpKind.TBR):
                by_surgery[apply_op(tree, op).canonical_form()] += 1
            survey = op_survey(tree, (OpKind.TBR,))[OpKind.TBR]
            assert multiplicities(survey, tree) == dict(by_surgery)

    def test_neighbourhood_nesting(self):
        for seed in range(3):
            t = random_tree(8, seed)
            nni, spr, tbr = (
                frozenset(multiplicities(op_survey(t, (kind,))[kind], t))
                for kind in (OpKind.NNI, OpKind.SPR, OpKind.TBR)
            )
            assert nni <= spr <= tbr

    def test_forest_symmetry(self):
        """Deleting the inserted edge undoes the move at the forest level."""
        t = random_tree(7, 4)
        for op in enumerate_ops(t, OpKind.TBR)[::5]:
            out = apply_op(t, op)
            a_names = {t.leaf_order[i] for i in range(t.n) if op.bisect_mask >> i & 1}
            b_names = set(t.leaf_order) - a_names
            assert restrict(t, a_names) == restrict(out, a_names)
            assert restrict(t, b_names) == restrict(out, b_names)


class TestClassification:
    def test_leaf_regraft_next_to_origin_is_nni(self):
        t = caterpillar(6)
        ops = [
            op
            for op in enumerate_ops(t, OpKind.NNI)
            if op.bisect_mask.bit_count() in (1, t.n - 1)
        ]
        assert ops
        for op in ops:
            assert kind_of(t, op) is OpKind.NNI

    def test_spr_proper_exists(self):
        t = caterpillar(6)
        op = RearrangementOp(t.full_mask ^ 1, leaf_mask(t, "5"), None)
        assert kind_of(t, op) is OpKind.SPR

    def test_matches_definitional_checks_exhaustively(self):
        """Scar rules == restriction/swap definitions on every op of every
        tree with up to 6 leaves."""
        trees = list(all_trees(4)) + list(all_trees(5)) + list(all_trees(6))
        for t in trees:
            nni, spr = (set(enumerate_ops(t, kind)) for kind in (OpKind.NNI, OpKind.SPR))
            for op in enumerate_ops(t, OpKind.TBR):
                out = apply_op(t, op)
                kind = OpKind.NNI if op in nni else OpKind.SPR if op in spr else OpKind.TBR
                assert (kind in (OpKind.NNI, OpKind.SPR)) == spr_definitional(
                    t, out, op.bisect_mask
                )
                assert (kind is OpKind.NNI) == nni_definitional(t, out, op.bisect_mask)

    def test_spr_restriction_holds_for_every_foreign_leaf(self):
        """When the preserved-restriction test passes for one outside leaf it
        passes for all of them."""
        t = random_tree(6, 8)
        for op in enumerate_ops(t, OpKind.SPR):
            out = apply_op(t, op)
            full = t.full_mask
            for kept in (op.bisect_mask, op.bisect_mask ^ full):
                if not restriction_preserved(t, out, kept):
                    continue
                keep_names = {t.leaf_order[i] for i in range(t.n) if kept >> i & 1}
                for i in range(t.n):
                    if kept >> i & 1:
                        continue
                    probe = keep_names | {t.leaf_order[i]}
                    assert restrict(t, probe) == restrict(out, probe)


class TestCountFormulas:
    @given(st.integers(4, 9), st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_op_counts_random(self, n, seed):
        t = random_tree(n, seed)
        assert len(enumerate_ops(t, OpKind.TBR)) == tbr_op_count(t)
        assert len(enumerate_ops(t, OpKind.SPR)) == spr_op_count(n)
        assert len(enumerate_ops(t, OpKind.NNI)) == 4 * nni_size(n)

    @given(st.integers(4, 8), st.integers(0, 10**9))
    @settings(max_examples=15, deadline=None)
    def test_neighbourhood_sizes_random(self, n, seed):
        t = random_tree(n, seed)
        report = op_survey(t, (OpKind.TBR,))[OpKind.TBR].report
        assert report.neighbourhood_size == tbr_size(t)


#: How many of :func:`reference_blocks` hold each kind's operations.
REFERENCE_BLOCK_COUNT = {OpKind.NNI: 2, OpKind.SPR: 4, OpKind.TBR: 5}


def reference_blocks(side_a, side_b) -> list[set]:
    """The five blocks of one bisection, narrowest kind first, as sets of
    (ref a, ref b) built from :func:`reference_component`'s refs, scar and
    near-scar refs by the module docstring's rule."""
    (refs_a, scar_a, near_a), (refs_b, scar_b, near_b) = side_a, side_b
    rest_a, rest_b = set(refs_a) - {scar_a}, set(refs_b) - {scar_b}
    return [
        {(scar_a, rb) for rb in near_b},
        {(ra, scar_b) for ra in near_a},
        {(scar_a, rb) for rb in rest_b - near_b},
        {(ra, scar_b) for ra in rest_a - near_a},
        {(ra, rb) for ra in rest_a for rb in rest_b},
    ]


def exact_multiplicities(tree):
    """Per kind, output multiplicities keyed by every operation's sorted split
    masks, the operations and keys both from the adjacency walk's sides."""
    counts = {kind: Counter() for kind in OpKind}
    for mask, side_a, side_b in reference_bisections(tree):
        blocks = reference_blocks(side_a, side_b)
        for kind, counter in counts.items():
            for block in blocks[: REFERENCE_BLOCK_COUNT[kind]]:
                for ra, rb in block:
                    counter[reference_output_key(tree.full_mask, mask, side_a, side_b, ra, rb)] += 1
    return {
        kind: {CanonicalForm(key, tree.leaf_order): c for key, c in counter.items()}
        for kind, counter in counts.items()
    }


#: ``_EXACT_LEAVES`` per key path: below 4 every tree is hashed, and at 8
#: the trees of at most 8 leaves are keyed by their exact split bitmaps.
KEY_PATHS = {"hashed": 3, "exact": rearrange._EXACT_LEAVES}


def key_paths(monkeypatch, tree):
    """Sets each key path in turn, and yields its name once the tree is
    known to take it."""
    for path, leaves in KEY_PATHS.items():
        monkeypatch.setattr(rearrange, "_EXACT_LEAVES", leaves)
        assert _Rooted(tree).exact == (path == "exact" and tree.n <= 8)
        yield path


class TestHashSurvey:
    def test_forced_collisions_are_split_exactly(self, monkeypatch):
        """With 8-bit hash keys most groups merge distinct trees; the exact
        re-check must still give the sorted-key route's counts and forms,
        and so must exact keys."""
        monkeypatch.setattr(rearrange, "_HASH_BITS", 8)
        trees = [t for n in (4, 5, 6, 7) for t in all_trees(n)]
        large = [random_tree(16, 3), random_tree(24, 4)]
        for tree in trees + large:
            exact = exact_multiplicities(tree)
            for path in key_paths(monkeypatch, tree):
                for kind, entry in op_survey(tree).items():
                    want = exact[kind]
                    assert multiplicities(entry, tree) == want, (path, kind, tree)
                    keys = list(entry.output_keys())
                    assert len(set(keys)) == len(keys) == len(want)
                    assert entry.report == NeighbourhoodReport(
                        n=tree.n,
                        kind=kind,
                        op_count=sum(want.values()),
                        neighbourhood_size=len(want),
                        multiplicity_histogram=dict(Counter(want.values())),
                    )
        for tree in large:
            # More TBR neighbours than 8-bit keys: by pigeonhole some hash
            # group held distinct trees, and the re-check split it.
            assert tbr_size(tree) > 1 << 8

    def test_forced_collisions_each_kind_alone(self, monkeypatch):
        """The same exact re-check with one kind asked for at a time, so each
        kind's keys are counted and located without the others', and the
        same on exact keys."""
        monkeypatch.setattr(rearrange, "_HASH_BITS", 8)
        trees = [t for n in (4, 5, 6, 7) for t in all_trees(n)] + [random_tree(16, 3), random_tree(24, 4)]
        for tree in trees:
            exact = exact_multiplicities(tree)
            for path in key_paths(monkeypatch, tree):
                for kind in OpKind:
                    want = exact[kind]
                    entry = op_survey(tree, (kind,))[kind]
                    assert multiplicities(entry, tree) == want, (path, kind, tree)
                    assert entry.report == NeighbourhoodReport(
                        n=tree.n,
                        kind=kind,
                        op_count=sum(want.values()),
                        neighbourhood_size=len(want),
                        multiplicity_histogram=dict(Counter(want.values())),
                    )

    @pytest.mark.parametrize(
        "tree",
        [
            random_tree(16, 1),
            random_tree(32, 2),
            random_tree(48, 3),
            random_tree(64, 4),
            caterpillar(64),
            complete(64),
        ],
        ids=["random16", "random32", "random48", "random64", "caterpillar64", "complete64"],
    )
    def test_large_trees_match_closed_forms(self, tree):
        n = tree.n
        survey = op_survey(tree)
        tbr = survey[OpKind.TBR].report
        size = tbr_size(tree)
        assert (tbr.neighbourhood_size, tbr.op_count) == (size, tbr_op_count(tree))
        assert tbr.multiplicity_histogram == {1: size - (2 * n - 6), 4: 2 * n - 6}
        assert survey[OpKind.SPR].report.neighbourhood_size == spr_size(n)
        assert survey[OpKind.NNI].report.neighbourhood_size == nni_size(n)

    @staticmethod
    def check_repeats(trees) -> int:
        """Asserts ``repeats`` on every kind against the adjacency walk's
        reference multiplicities; returns how many outputs of one operation
        the survey's count holds: those the exact re-check saw, or every one
        on exact keys."""
        singles = 0
        for tree in trees:
            exact = exact_multiplicities(tree)
            for kind, entry in op_survey(tree).items():
                want = {f.split_masks: c for f, c in exact[kind].items() if c > 1}
                assert entry.repeats == want, (kind, tree)
                singles += sum(c == 1 for c in entry._repeated.values())
        return singles

    def test_repeats_are_the_multiple_outputs(self):
        """``repeats``, read from the survey's count alone, holds exactly the
        outputs of two or more operations."""
        self.check_repeats(t for n in (4, 5, 6, 7) for t in all_trees(n))

    def test_repeats_under_forced_collisions(self, monkeypatch):
        """With 8-bit keys, distinct outputs of one operation each share a
        hash and are re-checked too; ``repeats`` must still leave them out,
        and leave out the single outputs of exact keys."""
        monkeypatch.setattr(rearrange, "_HASH_BITS", 8)
        trees = [t for n in (4, 5, 6) for t in all_trees(n)] + [random_tree(n, n) for n in range(7, 13)]
        for path, leaves in KEY_PATHS.items():
            monkeypatch.setattr(rearrange, "_EXACT_LEAVES", leaves)
            singles = self.check_repeats(trees)
            if path == "hashed":
                assert singles > 0


DELTA_TREES = {
    "T4-T7": ([t for n in (4, 5, 6, 7) for t in all_trees(n)], OpKind.TBR),
    "random8-24": ([random_tree(n, n) for n in range(8, 25)], OpKind.TBR),
    "caterpillar64-complete64": ([caterpillar(64), complete(64)], OpKind.NNI),
}


class TestOneCount:
    """One hash count of the widest kind serves every kind, and each
    operation of a shared key is re-checked once by ``_split_delta``.  On
    both key paths a kind's operations are the first ``row_ops[kind][v]``
    positions of bisection v's key row."""

    @pytest.mark.parametrize("trees,kind", DELTA_TREES.values(), ids=DELTA_TREES.keys())
    def test_delta_keys_are_exact(self, trees, kind):
        """Flipping an operation's split delta in the input's splits gives its
        sorted-key output, and two operations (of ``kind``, which includes
        the narrower kinds) have equal deltas exactly when their sorted keys
        are equal."""
        for tree in trees:
            rooted, splits = _Rooted(tree), frozenset(tree.split_masks)
            sides = {mask: (side_a, side_b) for mask, side_a, side_b in reference_bisections(tree)}
            by_delta: dict = {}
            by_key: dict = {}
            for v, (mask, cut) in enumerate(zip(rooted.cluster, rooted.layout.cuts)):
                refs_a, refs_b = _refs_a(rooted, v), _refs_b(rooted, v)
                pairs = [(i, j) for rows, cols in cut.blocks[: REFERENCE_BLOCK_COUNT[kind]] for i in rows for j in cols]
                for i, j in pairs:
                    delta = _split_delta(rooted, v, i, j)
                    key = reference_output_key(tree.full_mask, mask, *sides[mask], refs_a[i], refs_b[j])
                    assert splits ^ delta == frozenset(key), (tree, v, i, j)
                    assert by_delta.setdefault(delta, key) == key
                    assert by_key.setdefault(key, delta) == delta

    def test_every_subset_of_kinds_reads_one_count(self, monkeypatch):
        """With 8-bit keys, so that distinct outputs collide, each kind of a
        survey of two or three kinds, in either order, reports as that kind
        surveyed alone; on exact keys too."""
        monkeypatch.setattr(rearrange, "_HASH_BITS", 8)
        trees = [t for n in (4, 5, 6) for t in all_trees(n)] + [random_tree(n, n) for n in (9, 12, 16)]
        subsets = [kinds for r in (2, 3) for kinds in itertools.combinations(OpKind, r)]
        for tree in trees:
            for path in key_paths(monkeypatch, tree):
                alone = {kind: op_survey(tree, (kind,))[kind] for kind in OpKind}
                for kinds in subsets + [kinds[::-1] for kinds in subsets]:
                    for kind, entry in op_survey(tree, kinds).items():
                        assert entry.report == alone[kind].report, (path, kinds, kind, tree)
                        assert multiplicities(entry, tree) == multiplicities(alone[kind], tree)
                        assert entry.repeats == alone[kind].repeats

    def test_exact_keys_are_the_split_bitmaps(self):
        """Up to 8 leaves each operation's key is the sum of 1 << mask over
        its sorted-key output's splits, and decodes back to those splits."""
        trees = [t for n in (4, 5, 6, 7) for t in all_trees(n)] + list(all_trees(8))[::50]
        for tree in trees:
            rooted, survey = _Rooted(tree), _Survey(tree, (OpKind.TBR,))
            assert rooted.exact
            sides = {mask: (side_a, side_b) for mask, side_a, side_b in reference_bisections(tree)}
            for v, (mask, cut, row) in enumerate(zip(rooted.cluster, rooted.layout.cuts, _hash_keys(rooted, 5))):
                refs_a, refs_b = _refs_a(rooted, v), _refs_b(rooted, v)
                pairs = [(i, j) for rows, cols in cut.blocks for i in rows for j in cols]
                assert len(row) == len(pairs)
                for key, (i, j) in zip(row, pairs):
                    want = reference_output_key(tree.full_mask, mask, *sides[mask], refs_a[i], refs_b[j])
                    assert key == sum(1 << m for m in want), (tree, v, i, j)
                    assert survey.full_key(key) == want

    def test_exact_keys_skip_the_recheck(self, monkeypatch):
        """A survey of at most 8 leaves reads every kind without a split
        delta; one of 9 leaves re-checks its shared keys by split delta."""

        def refuse(*args):
            raise AssertionError("the survey re-checked a key")

        monkeypatch.setattr(rearrange, "_split_delta", refuse)
        for n in range(4, 9):
            for tree in (caterpillar(n), complete(n), random_tree(n, n)):
                for entry in op_survey(tree).values():
                    entry.report, entry.repeats, list(entry.output_keys())
        with pytest.raises(AssertionError, match="re-checked"):
            op_survey(random_tree(9, 9), (OpKind.NNI,))[OpKind.NNI].report

    def test_one_split_delta_per_shared_operation(self, monkeypatch):
        """With 8-bit keys, a survey of all three kinds computes the split
        delta of each operation whose key is shared exactly once, when every
        kind's report and repeats are read."""
        monkeypatch.setattr(rearrange, "_HASH_BITS", 8)
        calls = []
        split_delta = rearrange._split_delta
        monkeypatch.setattr(rearrange, "_split_delta", lambda *args: calls.append(args[1:]) or split_delta(*args))
        tree = random_tree(12, 5)
        counts = Counter(itertools.chain.from_iterable(_hash_keys(_Rooted(tree), 5)))
        shared_ops = sum(c for c in counts.values() if c > 1)
        assert 0 < shared_ops < sum(counts.values())
        for entry in op_survey(tree).values():
            entry.report, entry.repeats
        assert len(calls) == len(set(calls)) == shared_ops

    def test_one_key_building_pass(self, monkeypatch):
        """Whatever kinds are asked for, an op_survey call builds its hash
        keys once, and not before something reads the count."""
        calls = []
        build = rearrange._hash_keys
        monkeypatch.setattr(rearrange, "_hash_keys", lambda *args: calls.append(args) or build(*args))
        tree = random_tree(12, 5)
        for kinds in (kinds for r in (1, 2, 3) for kinds in itertools.combinations(OpKind, r)):
            calls.clear()
            survey = op_survey(tree, kinds)
            assert not calls
            for entry in survey.values():
                entry.report, entry.repeats, list(entry.output_keys())
            assert len(calls) == 1, kinds


def cut_positions(cut) -> tuple[set[int], set[int]]:
    """The positions a cut's blocks name: the union of their rows, and of their cols."""
    return {i for rows, _ in cut.blocks for i in rows}, {j for _, cols in cut.blocks for j in cols}


REFERENCE_TREES = {
    "T4-T7": [t for n in (4, 5, 6, 7) for t in all_trees(n)],
    "random16-64": [random_tree(n, n) for n in range(16, 65, 8)],
    "caterpillar64": [caterpillar(64)],
    "complete64": [complete(64)],
}


class TestRootedPreparation:
    """The sides built from the rooting at leaf 0 against an adjacency walk."""

    @pytest.mark.parametrize("trees", REFERENCE_TREES.values(), ids=REFERENCE_TREES.keys())
    def test_sides_match_adjacency_walk(self, trees):
        """Each side's refs, scar and near-scar refs, read at the layout's positions."""
        for tree in trees:
            rooted = _Rooted(tree)
            for mask, want_a, want_b in reference_bisections(tree):
                v = rooted.cluster.index(mask)
                cut = rooted.layout.cuts[v]
                rows, cols = cut_positions(cut)
                (scar_a,), _ = cut.blocks[0]
                sides = (
                    (_refs_a(rooted, v), rows, scar_a, cut.near_a),
                    (_refs_b(rooted, v), cols, cut.scar_b, cut.near_b),
                )
                for (refs, at, scar, near), (want_refs, want_scar, want_near) in zip(sides, (want_a, want_b)):
                    assert tuple(sorted((refs[k] for k in at), key=lambda r: -1 if r is None else r)) == want_refs
                    assert refs[scar] == want_scar
                    assert frozenset(refs[k] for k in near) == want_near

    @pytest.mark.parametrize(
        "trees,exact_leaves",
        [(trees, KEY_PATHS["exact"]) for trees in REFERENCE_TREES.values()]
        + [(REFERENCE_TREES["T4-T7"], KEY_PATHS["hashed"])],
        ids=[*REFERENCE_TREES, "T4-T7-hashed"],
    )
    def test_sums_hash_the_contributions(self, monkeypatch, trees, exact_leaves):
        """Each prefix sum equals the sum of the terms of the splits it
        stands for, in the key's width: exact up to 8 leaves, hashed above
        (and below, in T4-T7-hashed)."""
        monkeypatch.setattr(rearrange, "_EXACT_LEAVES", exact_leaves)
        for tree in trees[::7]:
            rooted, full = _Rooted(tree), tree.full_mask
            for mask, side_a, side_b in reference_bisections(tree):
                v = rooted.cluster.index(mask)
                rows, cols = cut_positions(rooted.layout.cuts[v])
                sides = (
                    (mask, side_a, _refs_a(rooted, v), _sums_a(rooted, v), rows),
                    (full ^ mask, side_b, _refs_b(rooted, v), _sums_b(rooted, v), cols),
                )
                for component, (want_refs, _, _), refs, sums, at in sides:
                    for k in at:
                        parts = reference_contributions(component, want_refs, refs[k], full)
                        assert sum(map(rooted.term, parts)) & rooted.width == sums[k]

    @pytest.mark.parametrize(
        "trees",
        [list(all_trees(5)), list(all_trees(6)), list(all_trees(7))[::50], [random_tree(16, 5)]],
        ids=["T5", "T6", "T7-sample", "random16"],
    )
    def test_enumerate_ops_order(self, trees):
        """Bisections by mask, then refs of A, then refs of B, ascending; the
        narrower kinds keep that order."""
        for tree in trees:
            tbr = [
                RearrangementOp(mask, ra, rb)
                for mask, (refs_a, scar_a, _), (refs_b, scar_b, _) in sorted(reference_bisections(tree))
                for ra in refs_a
                for rb in refs_b
                if (ra, rb) != (scar_a, scar_b)
            ]
            assert enumerate_ops(tree, OpKind.TBR) == tbr
            for kind in (OpKind.SPR, OpKind.NNI):
                ops = enumerate_ops(tree, kind)
                members = set(ops)
                assert ops == [op for op in tbr if op in members]

    @pytest.mark.parametrize("trees", REFERENCE_TREES.values(), ids=REFERENCE_TREES.keys())
    def test_enumerate_ops_follows_the_scar_rule(self, trees):
        """Each kind's ops, built from the adjacency walk's (refs, scar, near)
        by the module docstring's rule: SPR when a component reconnects at
        its scar (a single leaf always does), NNI when the other one then
        reconnects at an edge touching its own scar."""
        for tree in trees:
            want = {kind: [] for kind in OpKind}
            for mask, (refs_a, scar_a, near_a), (refs_b, scar_b, near_b) in sorted(reference_bisections(tree)):
                for ra in refs_a:
                    for rb in refs_b:
                        if (ra, rb) == (scar_a, scar_b):
                            continue
                        op = RearrangementOp(mask, ra, rb)
                        want[OpKind.TBR].append(op)
                        if ra == scar_a or rb == scar_b:
                            want[OpKind.SPR].append(op)
                        if (ra == scar_a and rb in near_b) or (rb == scar_b and ra in near_a):
                            want[OpKind.NNI].append(op)
            for kind, ops in want.items():
                assert enumerate_ops(tree, kind) == ops, kind


LAYOUT_TREES = {
    "T4-T7": [t for n in (4, 5, 6, 7) for t in all_trees(n)],
    "random8-24": [random_tree(n, seed) for n in range(8, 25) for seed in (n, n + 100)],
}

CUT_TREES = {
    "T4-T7": LAYOUT_TREES["T4-T7"],
    "random8-64": [random_tree(n, n) for n in range(8, 65)],
}


class TestShapeLayout:
    """What a tree's rooted shape fixes is built once per shape."""

    def test_one_layout_per_shape(self):
        """Labelled trees of one shape share the layout object; another shape has its own."""
        by_shape: dict = {}
        for tree in all_trees(7):
            by_shape.setdefault(tree.preorder.parent, []).append(tree)
        assert len(by_shape) == 9
        layouts = set()
        for trees in by_shape.values():
            first, other = trees[0], trees[-1]
            assert first.canonical_form() != other.canonical_form()
            assert _Rooted(first).layout is _Rooted(other).layout
            layouts.add(id(_Rooted(first).layout))
        assert len(layouts) == len(by_shape)

    @pytest.mark.parametrize("trees", CUT_TREES.values(), ids=CUT_TREES.keys())
    def test_cuts_name_edges_by_position(self, trees):
        """A's rows are the slice of v but v and its second child y, with the
        scar at its first child x, or v alone when A is a leaf; B's cols are
        every position but v's parent p and the slice, or 0 alone when B is
        leaf 0; and B's scar is v's sibling.  Slices and children are read
        off the parent positions alone."""
        for tree in trees:
            parent = tree.preorder.parent
            below = [{u} for u in range(len(parent))]  # the positions of each subtree
            children: list[list[int]] = [[] for _ in parent]
            for u in range(len(parent) - 1, 0, -1):
                below[parent[u]] |= below[u]
                children[parent[u]].insert(0, u)
            for v, cut in enumerate(_layout(parent).cuts):
                rows, cols = cut_positions(cut)
                if children[v]:
                    x, y = children[v]
                    assert (cut.blocks[0][0], rows) == ((x,), below[v] - {v, y}), (tree, v)
                else:
                    assert rows == {v}, (tree, v)
                if v:
                    p = parent[v]
                    assert cols == set(range(len(parent))) - below[v] - {p}, (tree, v)
                    assert {cut.scar_b} == set(children[p]) - {v}, (tree, v)
                else:
                    assert (cols, cut.scar_b) == ({0}, 0), tree

    @pytest.mark.parametrize("trees", LAYOUT_TREES.values(), ids=LAYOUT_TREES.keys())
    def test_blocks_and_counts_match_adjacency_walk(self, trees):
        """Each bisection's blocks, read through the tree's refs, are the
        blocks the adjacency walk's sides give, pair for pair, and each
        kind's operation count sums its first blocks."""
        for tree in trees:
            rooted = _Rooted(tree)
            want = {mask: reference_blocks(side_a, side_b) for mask, side_a, side_b in reference_bisections(tree)}
            counts = dict.fromkeys(OpKind, 0)
            for v, cut in enumerate(rooted.layout.cuts):
                refs_a, refs_b = _refs_a(rooted, v), _refs_b(rooted, v)
                blocks = want.pop(rooted.cluster[v])
                assert len(cut.blocks) == len(blocks) == 5
                for (rows, cols), block in zip(cut.blocks, blocks):
                    pairs = [(refs_a[i], refs_b[j]) for i in rows for j in cols]
                    assert len(pairs) == len(block) and set(pairs) == block, (tree, v)
                for kind in OpKind:
                    counts[kind] += sum(map(len, blocks[: REFERENCE_BLOCK_COUNT[kind]]))
            assert not want
            assert rooted.layout.op_count == counts

    def test_cache_stays_bounded(self):
        """200 surveys of random 64-leaf trees, nearly all of distinct shapes,
        leave no more layouts than the cache's bound."""
        bound = _layout.cache_info().maxsize
        misses = _layout.cache_info().misses
        for seed in range(200):
            tree = random_tree(64, seed)
            assert op_survey(tree, (OpKind.NNI,))[OpKind.NNI].op_count == 4 * (2 * 64 - 6)
            assert _layout.cache_info().currsize <= bound
        assert _layout.cache_info().misses - misses > bound
        assert _layout.cache_info().currsize == bound


SPLICE_TREES = {
    "T4-T7": ([t for n in (4, 5, 6, 7) for t in all_trees(n)], tuple(OpKind)),
    "random8-16": ([random_tree(n, n) for n in range(8, 17, 2)], tuple(OpKind)),
    "random20-64": ([random_tree(n, n) for n in range(20, 65, 4)], (OpKind.NNI,)),
    "caterpillar64-complete64": ([caterpillar(64), complete(64)], (OpKind.NNI,)),
    "quoted7": ([parse_newick("(('a b','it''s'),c,(('d e',f),('g''h',i)));").tree], tuple(OpKind)),
}


class TestNewickSplice:
    @pytest.mark.parametrize("trees,kinds", SPLICE_TREES.values(), ids=SPLICE_TREES.keys())
    def test_texts_are_the_exact_outputs(self, trees, kinds):
        """Each spliced text, parsed back, is the tree of one exact output
        key, one to one, and there are as many texts as neighbours.  Each is
        the text serialize_newick writes for that tree."""
        parsed: dict[str, PhyloTree] = {}  # the outputs of small trees recur across inputs
        for tree in trees:
            for kind, entry in op_survey(tree, kinds).items():
                texts = entry.newicks()
                for text in texts.difference(parsed):
                    parsed[text] = parse_newick(text).tree
                    assert serialize_newick(parsed[text]) == text, (kind, tree)
                outputs = [parsed[text] for text in texts]
                assert all(out.leaf_order == tree.leaf_order for out in outputs)
                assert Counter(out.split_masks for out in outputs) == Counter(entry.output_keys()), (kind, tree)
                assert len(texts) == entry.report.neighbourhood_size
