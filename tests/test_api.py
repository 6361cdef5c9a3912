"""The package's surface: adding or removing a public name changes this
test, and every name a module of the package imports is read in it."""

import ast
from pathlib import Path

import pytest

import treespace
from treespace import PhyloTree

PUBLIC = {
    # exceptions
    "Cyclic",
    "DegreeViolation",
    "Disconnected",
    "DuplicateLabel",
    "EmptyLabel",
    "InvalidOp",
    "NewickSyntaxError",
    "NotPerfectSize",
    "RangeError",
    "TooFewLeaves",
    "TooManyLeaves",
    "TreeError",
    # tree_core
    "MAX_LEAVES",
    "CanonicalForm",
    "PhyloTree",
    # newick_io
    "BRANCH_LENGTHS_DISCARDED",
    "ROOT_SUPPRESSED",
    "NewickDoc",
    "parse_newick",
    "serialize_newick",
    # metrics
    "caterpillar_gamma",
    "caterpillar_tbr_size",
    "complete_tbr_size",
    "gamma",
    "gamma_complete",
    "nni_size",
    "perfect_tbr_size",
    "spr_op_count",
    "spr_size",
    "tbr_op_count",
    "tbr_size",
    # rearrange
    "NeighbourhoodReport",
    "OpKind",
    "RearrangementOp",
    "apply_op",
    "enumerate_ops",
    "op_survey",
    # generators
    "TreeFamily",
    "all_trees",
    "caterpillar",
    "complete",
    "perfect",
    "random_tree",
    "tree_count",
    # extremal
    "ExtremalScanResult",
    "extremal_scan",
    "is_caterpillar",
    "is_complete",
    # the submodules the package imports
    "errors",
    "extremal",
    "generators",
    "metrics",
    "newick_io",
    "rearrange",
    "tree_core",
}


# The public members of PhyloTree.
TREE_PUBLIC = {
    "canonical_form",
    "full_mask",
    "is_leaf",
    "leaf_name",
    "leaf_order",
    "n",
    "neighbors",
    "preorder",
    "split_masks",
    "vertex_leaf_index",
    "vertices",
}


# The public members of a survey entry.
SURVEY_ENTRY_PUBLIC = {
    "newicks",
    "op_count",
    "output_keys",
    "repeats",
    "report",
}


def test_public_names():
    assert set(treespace.__all__) == PUBLIC


def test_tree_public_members():
    assert {name for name in dir(PhyloTree) if not name.startswith("_")} == TREE_PUBLIC


def test_survey_entry_public_members(quartet):
    entry = treespace.op_survey(quartet)[treespace.OpKind.TBR]
    assert {name for name in dir(entry) if not name.startswith("_")} == SURVEY_ENTRY_PUBLIC


def test_benchmark_tracer_installs(monkeypatch):
    """The benchmark's tracer wraps library names by attribute, so every
    name it wraps must still exist; uninstall puts the originals back."""
    from treespace import rearrange

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    original = rearrange.apply_op, PhyloTree.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rearrange.apply_op is not original[0]
    finally:
        tracer.uninstall()
    assert (rearrange.apply_op, PhyloTree.__init__) == original


def unread_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import and never reads, in
    order; ``from __future__`` imports bind no name.  A stand-in for a
    linter's unused-import rule that needs the stdlib alone."""
    module = ast.parse(source)
    imported = []
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize(
    "source,unread",
    [
        ("from __future__ import annotations\nimport os.path\nos.sep", []),
        ("import os.path as p, sys\nfrom typing import Callable as C, Iterator\nx: C\nsys.argv", ["p", "Iterator"]),
    ],
    ids=["read", "unread"],
)
def test_unread_imports_finds_them(source, unread):
    """Reads through an attribute or an annotation count; a name bound and
    never read is reported, under its alias."""
    assert unread_imports(source) == unread


@pytest.mark.parametrize("path", sorted(Path(treespace.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []
