"""The package's value types: validation on construction, immutability and
ordering.

They are named tuples, so they are immutable, compare, order and hash by
their field tuples, and also compare equal to the plain tuple of their
fields: ``RearrangementOp(6, 2, None) == (6, 2, None)``.
"""

import random

import pytest

from treespace import (
    CanonicalForm,
    NeighbourhoodReport,
    OpKind,
    RearrangementOp,
    enumerate_ops,
    extremal_scan,
    parse_newick,
    random_tree,
)
from treespace.verify import formulas_suite


def test_neighbourhood_report_checks_its_histogram():
    fields = dict(n=5, kind=OpKind.NNI, op_count=16, neighbourhood_size=4, multiplicity_histogram={4: 4})
    assert NeighbourhoodReport(**fields).op_count == 16
    for bad in ({"op_count": 15}, {"neighbourhood_size": 5}, {"multiplicity_histogram": {4: 3, 1: 4}}):
        with pytest.raises(ValueError, match="disagrees"):
            NeighbourhoodReport(**{**fields, **bad})
    # Each of these keeps both sums right.
    for histogram in ({4: 4, 1: 0}, {4: 4, 0: 0}, {6: 3, -2: 1}):
        with pytest.raises(ValueError, match="below 1"):
            NeighbourhoodReport(**{**fields, "multiplicity_histogram": histogram})


def instances():
    tree = random_tree(6, 1)
    report = NeighbourhoodReport(5, OpKind.TBR, 6, 3, {1: 2, 4: 1})
    return [
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


def test_op_equality_and_hash():
    op = RearrangementOp(6, 2, None)
    assert op == RearrangementOp(bisect_mask=6, reconnect_a=2, reconnect_b=None)
    assert len({op, RearrangementOp(6, 2, None)}) == 1
    assert op == (6, 2, None) and hash(op) == hash((6, 2, None))
