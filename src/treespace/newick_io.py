"""Newick parsing and serialization for unrooted binary trees.

The unrooted convention is a top-level trifurcation ``(A,B,C);``.  Rooted
bifurcating input is accepted: the degree-2 root is suppressed and reported
through the ``RootSuppressed`` warning.  Branch lengths are parsed and
discarded (``BranchLengthsDiscarded`` warning); internal node labels have no
meaning for a purely topological tree and are rejected.

The parser reads the text once.  It keeps a stack of the open ``(`` nodes,
appends a ``(parent, child)`` edge and a leaf name as it reads, and hands
the edge list to :class:`PhyloTree`.

The writer builds the text of every subtree of the tree's preorder once
(:func:`cluster_texts`); ``neighbourhood --emit-trees`` cuts the same texts
into the pieces it splices each neighbour from.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import DegreeViolation, DuplicateLabel, EmptyLabel, NewickSyntaxError, TooFewLeaves
from .tree_core import Edge, PhyloTree

ROOT_SUPPRESSED = "RootSuppressed"
BRANCH_LENGTHS_DISCARDED = "BranchLengthsDiscarded"

# Whitespace; \s matches exactly the characters str.isspace accepts.
_SPACE = re.compile(r"\s*").match
# An unquoted label (anything but structure or whitespace), then whitespace.
_UNQUOTED = re.compile(r"([^(),:;'\[\]\s]*)\s*").match
# A quoted label, '' standing for one quote, then whitespace.  The closing
# quote may not be followed by another, so a '' pair is never split and
# "'''a" is unterminated.
_QUOTED = re.compile(r"'((?:[^']|'')*)'(?!')\s*").match
# The ',' or ')' after a subtree, with the whitespace around it.
_SEPARATOR = re.compile(r"\s*([,)])\s*").match
# Labels to quote on output: any structural character, or any whitespace.
_NEEDS_QUOTES = re.compile(r"[(),:;'\[\]\s]").search


class NewickDoc(NamedTuple):
    """A parsed Newick statement: the tree plus parse warnings."""

    tree: PhyloTree
    warnings: tuple[str, ...]


def _branch_length(text: str, pos: int) -> int:
    """Check the branch length whose ':' is at ``pos``; return where it ends."""
    start = end = _SPACE(text, pos + 1).end()
    while end < len(text) and (text[end].isdigit() or text[end] in "+-.eE"):
        end += 1
    try:
        float(text[start:end])
    except ValueError:
        raise NewickSyntaxError("malformed branch length", start, "a number") from None
    return end


def parse_newick(text: str) -> NewickDoc:
    """Parse one Newick statement into an unrooted binary tree.

    Raises NewickSyntaxError (with a character position) for malformed
    input, and DegreeViolation / DuplicateLabel / EmptyLabel for well-formed
    strings describing an invalid tree.  Syntax and empty-label errors are
    raised where they are read.  Degree and duplicate-label faults wait
    until the statement has parsed; then the one whose node starts earliest
    in the text is raised.
    """
    pos = _SPACE(text).end()
    if pos == len(text):
        raise NewickSyntaxError("empty input", pos, "a Newick statement")
    # Vertex ids are handed out in text order, which is preorder; 0 is the root.
    edges: list[Edge] = []
    names: dict[int, str] = {}
    seen: set[str] = set()
    start: list[int] = []  # text position of each vertex
    kids: list[int] = []  # child count of each vertex
    open_nodes: list[int] = []  # the '(' vertices not yet closed
    faults: list[tuple[int, type, str]] = []  # (position, class, message)
    saw_length = False
    while True:
        v = len(start)
        start.append(pos)
        kids.append(0)
        if text.startswith("(", pos):
            open_nodes.append(v)
            pos = _SPACE(text, pos + 1).end()
            continue
        if text.startswith("'", pos):
            m = _QUOTED(text, pos)
            if m is None:
                raise NewickSyntaxError("unterminated quoted label", pos)
            if not m[1]:
                raise EmptyLabel(f"empty quoted label at position {pos}")
            name = m[1].replace("''", "'")
        else:
            m = _UNQUOTED(text, pos)
            name = m[1]
            if not name:
                raise EmptyLabel(f"missing leaf label at position {pos}")
        if name in seen:
            faults.append((pos, DuplicateLabel, f"label {name!r} reused at position {pos}"))
        seen.add(name)
        names[v] = name
        pos = m.end()
        if text.startswith(":", pos):
            pos, saw_length = _branch_length(text, pos), True
        # Hang the finished node on its parent, closing every ')' that follows.
        while open_nodes:
            edges.append((open_nodes[-1], v))
            kids[open_nodes[-1]] += 1
            m = _SEPARATOR(text, pos)
            if m is None:
                raise NewickSyntaxError("unbalanced parenthesis", _SPACE(text, pos).end(), "',' or ')'")
            pos = m.end()
            if m[1] == ",":
                break
            if pos < len(text) and text[pos] not in ",():;":
                raise NewickSyntaxError("internal node labels are not supported", pos)
            if text.startswith(":", pos):
                pos, saw_length = _branch_length(text, pos), True
            v = open_nodes.pop()
            if open_nodes and kids[v] != 2:
                message = f"internal node at position {start[v]} has {kids[v]} children; binary trees need exactly 2"
                faults.append((start[v], DegreeViolation, message))
        else:
            break
    pos = _SPACE(text, pos).end()
    if not text.startswith(";", pos):
        raise NewickSyntaxError("unterminated statement", pos, "';'")
    pos = _SPACE(text, pos + 1).end()
    if pos != len(text):
        raise NewickSyntaxError("trailing characters after ';'", pos)

    # The root starts before every other node, so its fault comes first.
    if kids[0] == 1:
        raise DegreeViolation(f"root at position {start[0]} has a single child")
    if kids[0] > 3:
        raise DegreeViolation(f"root at position {start[0]} has {kids[0]} children; at most 3 are allowed")
    if faults:
        _, fault, message = min(faults)
        raise fault(message)
    warnings = []
    if kids[0] == 2:
        # Rooted bifurcating input: drop the root, join its children.
        warnings.append(ROOT_SUPPRESSED)
        a, b = (w for u, w in edges if u == 0)
        edges = [e for e in edges if e[0]] + [(a, b)]
    if saw_length:
        warnings.append(BRANCH_LENGTHS_DISCARDED)
    return NewickDoc(tree=PhyloTree(edges, names), warnings=tuple(warnings))


def _quote(name: str) -> str:
    if _NEEDS_QUOTES(name) is None:
        return name
    return "'" + name.replace("'", "''") + "'"


def cluster_texts(tree: PhyloTree) -> tuple[str, list[str]]:
    """The quoted label of leaf 0, and per :attr:`~PhyloTree.preorder`
    position the Newick text of the subtree below it, for n >= 2.

    Children are ordered by their smallest leaf index.  Positions are
    written last to first, so both children of a vertex are written before
    it: the first child is the next position, the second the other child
    seen.
    """
    parent, cluster, _ = tree.preorder
    names = {1 << i: _quote(name) for i, name in enumerate(tree.leaf_order)}  # by one-bit mask
    texts = [names.get(c, "") for c in cluster]  # "" at the internal positions
    second = {}  # internal position -> its second child
    for u in range(len(cluster) - 1, -1, -1):
        if not texts[u]:
            x, y = u + 1, second[u]
            cx, cy = cluster[x], cluster[y]
            first, last = (x, y) if (cx & -cx) < (cy & -cy) else (y, x)
            texts[u] = "(" + texts[first] + "," + texts[last] + ")"
        p = parent[u]
        if p + 1 != u:
            second[p] = u
    return names[1], texts


def serialize_newick(tree: PhyloTree) -> str:
    """Deterministic Newick text for a tree with n >= 3.

    The text is rooted at the vertex adjacent to leaf 0 and children are
    ordered by their smallest leaf index (see :func:`cluster_texts`), so
    isomorphic labelled trees give identical text.
    """
    if tree.n < 3:
        raise TooFewLeaves(f"serialization needs n >= 3, got n = {tree.n}")
    leaf0, texts = cluster_texts(tree)
    return "(" + leaf0 + "," + texts[0][1:-1] + ");"
