"""The package's value types: validation on construction, immutability and
ordering.

They are named tuples, so they are immutable, compare, order and hash by
their field tuples, and also compare equal to the plain tuple of their
fields: ``Split(6, 4) == (6, 4)``.
"""

import pickle
import random

import pytest

from treespace import (
    CanonicalForm,
    NeighbourhoodReport,
    OpKind,
    RearrangementOp,
    Split,
    enumerate_ops,
    extremal_scan,
    parse_newick,
    random_tree,
)
from treespace.verify import formulas_suite


class TestSplit:
    def test_mask_holding_leaf_0_is_complemented(self):
        assert Split(0b0001, 4) == Split(0b1110, 4)
        assert Split(0b0001, 4).mask == 0b1110
        assert Split(0b1011, 5).mask == 0b10100
        assert Split(0b0110, 4).mask == 0b0110

    @pytest.mark.parametrize("mask, n", [(0, 4), (0b1111, 4), (1 << 4, 4), (-2, 4), (0b11, 0), (0b1, -3)])
    def test_bad_mask_or_n(self, mask, n):
        with pytest.raises(ValueError):
            Split(mask, n)

    def test_sides(self):
        s = Split(0b0110, 5)
        assert (s.a, s.b, s.is_trivial) == (2, 3, False)
        assert Split(0b0100, 5).is_trivial

    def test_pickle_round_trip(self):
        s = Split(0b1101, 4)
        assert pickle.loads(pickle.dumps(s)) == s == Split(0b0010, 4)

    def test_equals_plain_tuple(self):
        assert Split(6, 4) == (6, 4)
        assert hash(Split(6, 4)) == hash((6, 4))


def test_neighbourhood_report_checks_its_histogram():
    fields = dict(n=5, kind=OpKind.NNI, op_count=16, neighbourhood_size=4, multiplicity_histogram={4: 4})
    assert NeighbourhoodReport(**fields).op_count == 16
    for bad in ({"op_count": 15}, {"neighbourhood_size": 5}, {"multiplicity_histogram": {4: 3, 1: 4}}):
        with pytest.raises(ValueError, match="disagrees"):
            NeighbourhoodReport(**{**fields, **bad})


def instances():
    tree = random_tree(6, 1)
    report = NeighbourhoodReport(5, OpKind.TBR, 6, 3, {1: 2, 4: 1})
    return [
        Split(0b0110, 4),
        tree.canonical_form(),
        parse_newick("(1,2,(3,4));"),
        enumerate_ops(tree)[0],
        report,
        extremal_scan(4),
        formulas_suite(n_max=4),
    ]


@pytest.mark.parametrize("value", instances(), ids=lambda v: type(v).__name__)
def test_frozen(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = 1


def fields(value):
    return tuple(getattr(value, name) for name in value._fields)


def test_ops_sort_by_field_tuples():
    ops = enumerate_ops(random_tree(7, 2))
    shuffled = ops[:]
    random.Random(0).shuffle(shuffled)
    assert sorted(shuffled) == sorted(ops, key=fields)
    assert sorted(shuffled)[0] == min(ops, key=fields)


def test_forms_sort_by_field_tuples():
    forms = [random_tree(n, seed).canonical_form() for n in (5, 6) for seed in range(6)]
    forms.append(CanonicalForm(forms[0].split_masks, ("a", "b", "c", "d", "e")))
    assert sorted(forms) == sorted(forms, key=fields)


def test_splits_sort_by_field_tuples():
    splits = [Split(m, n) for n in (5, 6) for m in range(2, 1 << n, 2)]
    random.Random(1).shuffle(splits)
    assert sorted(splits) == sorted(splits, key=fields)
    assert sorted(splits)[:2] == [Split(2, 5), Split(2, 6)]


def test_op_equality_and_hash():
    op = RearrangementOp(6, 2, None)
    assert op == RearrangementOp(bisect_mask=6, reconnect_a=2, reconnect_b=None)
    assert len({op, RearrangementOp(6, 2, None)}) == 1
