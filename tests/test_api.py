"""The package's surface: adding or removing a public name changes this
test, and every name a module of the package imports is read in it."""

import ast
import io
import re
import tokenize
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


#: Tokens that are no code: layout, comments and the end of the source.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code: a token other than
    a comment, outside every module, class and function docstring.  A token
    over several lines counts on each; blank lines never count."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def test_code_lines_counts_code_only():
    """Docstrings at every level, comments and blank lines are left out; a
    string that is no docstring counts on each of its lines."""
    source = '''"""Module
docstring."""

# a comment
def f(x):  # trailing
    """Function docstring."""
    return (x +
            1)

class C:
    """Class docstring."""
    text = """one
two"""
'''
    assert code_lines(source) == 6


def unread_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """The module-level functions, classes and assigned names of the
    ``sources`` (by module name) that no source reads, as ``module.name``,
    unless ``exported``.  A read is a load of the name, an attribute of
    that name, a from-import of it, or a ``getattr`` with an f-string
    the name matches.  Dunder names are the interpreter's to read."""
    defined, read, patterns = [], set(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr" and len(node.args) > 1:
                if isinstance(name := node.args[1], ast.JoinedStr):
                    parts = [re.escape(v.value) if isinstance(v, ast.Constant) else r"\w+" for v in name.values]
                    patterns.append(re.compile("".join(parts)))
    return [
        f"{module}.{name}"
        for module, name in defined
        if not (name in read or name in exported or name.startswith("__") or any(p.fullmatch(name) for p in patterns))
    ]


def test_unread_definitions_finds_them():
    """A definition read by name, by attribute, by a from-import or through
    a getattr f-string counts; one read nowhere is reported."""
    sources = {
        "a": "def f(): pass\ndef g(): f()\nX = 1\nclass C: pass\ndef __dir__(): pass\ndef x_suite(): pass\n",
        "b": "from a import X\nimport a\na.C\nY: int = 2\nZ = getattr(a, f'{X}_suite')\n",
    }
    assert unread_definitions(sources, {"Z"}) == ["a.g", "b.Y"]


def test_every_definition_is_read():
    """Nothing at module level in the package is left that the package
    neither reads nor exports."""
    package = Path(treespace.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    exported = {name for names in treespace._EXPORTS.values() for name in names}
    assert unread_definitions(sources, exported) == []


#: What the test oracles in conftest.py may import from treespace, by the
#: module that defines it: the tree, its canonical form and edges, the
#: errors, and the parser for the ``quartet`` fixture.  Never the survey,
#: the closed forms, the suites, the extremal predicates or the Newick
#: writer, which the oracles check.
ORACLE_IMPORTS = {
    "tree_core": {"PhyloTree", "CanonicalForm", "Edge"},
    "errors": set(treespace._EXPORTS["errors"]),
    "newick_io": {"parse_newick"},
}


def treespace_imports(source: str) -> set[tuple[str, str]]:
    """(defining module, name) of each name ``source`` imports from
    treespace; a whole module is (its name, "*"), the package ("", "*")."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {(a.name.partition(".")[2], "*") for a in node.names if a.name.partition(".")[0] == "treespace"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "treespace":
            module = node.module.partition(".")[2]
            for name in (alias.name for alias in node.names):
                if module:
                    found.add((module, name))
                elif name in treespace._EXPORTS:
                    found.add((name, "*"))
                else:
                    found.add((treespace._MODULE_OF[name], name))
    return found


def test_treespace_imports_resolves_each_name():
    source = (
        "import treespace.verify\n"
        "from treespace import rearrange, PhyloTree, gamma\n"
        "from treespace.newick_io import _quote\n"
    )
    assert treespace_imports(source) == {
        ("verify", "*"),
        ("rearrange", "*"),
        ("tree_core", "PhyloTree"),
        ("metrics", "gamma"),
        ("newick_io", "_quote"),
    }


def test_oracles_import_only_the_tree_and_the_parser():
    """The brute-force routes stay independent of what they check."""
    imports = treespace_imports((Path(__file__).parent / "conftest.py").read_text())
    assert {("tree_core", "PhyloTree"), ("newick_io", "parse_newick")} <= imports
    assert sorted((module, name) for module, name in imports if name not in ORACLE_IMPORTS.get(module, ())) == []


if __name__ == "__main__":
    # Code lines per module of the package and in total, with the package
    # on the path: PYTHONPATH=src python tests/test_api.py
    counts = {path.name: code_lines(path.read_text()) for path in sorted(Path(treespace.__file__).parent.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
