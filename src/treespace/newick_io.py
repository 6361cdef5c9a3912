"""Newick parsing and serialization for unrooted binary trees.

The unrooted convention is a top-level trifurcation ``(A,B,C);``.  Rooted
bifurcating input is accepted: the degree-2 root is suppressed and reported
through the ``RootSuppressed`` warning.  Branch lengths are parsed and
discarded (``BranchLengthsDiscarded`` warning); internal node labels have no
meaning for a purely topological tree and are rejected.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import DegreeViolation, DuplicateLabel, EmptyLabel, NewickSyntaxError, TooFewLeaves
from .tree_core import PhyloTree

ROOT_SUPPRESSED = "RootSuppressed"
BRANCH_LENGTHS_DISCARDED = "BranchLengthsDiscarded"

# Characters that end an unquoted label, besides the whitespace skip_ws skips.
_LABEL_END = frozenset("(),:;'[]")
# Labels to quote on output: any structural character, or any character the
# parser would skip as whitespace (str.isspace, which is exactly what \s matches).
_NEEDS_QUOTES = re.compile(r"[(),:;'\[\]\s]").search


class NewickDoc(NamedTuple):
    """A parsed Newick statement: the tree plus parse warnings."""

    tree: PhyloTree
    warnings: tuple[str, ...]


class _Node:
    """A node of the parse tree: where it starts, its label, its children."""

    __slots__ = ("pos", "label", "children")

    def __init__(self, pos: int, label: str | None = None):
        self.pos = pos
        self.label = label
        self.children: list[_Node] = []


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.saw_length = False

    def error(self, message: str, expected: str | None = None, pos: int | None = None) -> NewickSyntaxError:
        return NewickSyntaxError(message, self.pos if pos is None else pos, expected)

    def skip_ws(self) -> None:
        text = self.text
        while self.pos < len(text) and text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> _Node:
        self.skip_ws()
        if not self.peek():
            raise self.error("empty input", expected="a Newick statement")
        root = self.subtree()
        self.skip_ws()
        if self.peek() != ";":
            raise self.error("unterminated statement", expected="';'")
        self.pos += 1
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing characters after ';'")
        return root

    def subtree(self) -> _Node:
        """One subtree, parsed with an explicit stack so nesting depth is unbounded."""
        open_nodes: list[_Node] = []
        while True:
            self.skip_ws()
            start = self.pos
            if self.peek() == "(":
                self.pos += 1
                open_nodes.append(_Node(pos=start))
                continue
            node = _Node(pos=start, label=self.label())
            self.branch_length()
            # Attach the finished node, closing every ')' that follows it.
            while open_nodes:
                open_nodes[-1].children.append(node)
                self.skip_ws()
                if self.peek() == ",":
                    self.pos += 1
                    break
                if self.peek() != ")":
                    raise self.error("unbalanced parenthesis", expected="',' or ')'")
                self.pos += 1
                self.skip_ws()
                if self.peek() and self.peek() not in ",():;":
                    raise self.error("internal node labels are not supported")
                self.branch_length()
                node = open_nodes.pop()
            else:
                return node

    def label(self) -> str:
        self.skip_ws()
        start = self.pos
        text = self.text
        if self.peek() == "'":
            self.pos += 1
            out = []
            while True:
                if self.pos >= len(text):
                    raise self.error("unterminated quoted label", pos=start)
                ch = text[self.pos]
                if ch == "'":
                    if self.pos + 1 < len(text) and text[self.pos + 1] == "'":
                        out.append("'")
                        self.pos += 2
                        continue
                    self.pos += 1
                    break
                out.append(ch)
                self.pos += 1
            name = "".join(out)
            if not name:
                raise EmptyLabel(f"empty quoted label at position {start}")
            return name
        while self.pos < len(text) and not (text[self.pos] in _LABEL_END or text[self.pos].isspace()):
            self.pos += 1
        if self.pos == start:
            raise EmptyLabel(f"missing leaf label at position {start}")
        return text[start : self.pos]

    def branch_length(self) -> None:
        self.skip_ws()
        if self.peek() != ":":
            return
        self.pos += 1
        self.skip_ws()
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isdigit() or text[self.pos] in "+-.eE"):
            self.pos += 1
        token = text[start : self.pos]
        try:
            float(token)
        except ValueError:
            raise self.error("malformed branch length", expected="a number", pos=start) from None
        self.saw_length = True


def _collect(root: _Node) -> tuple[dict[int, set[int]], dict[int, str], list[str]]:
    """Turn the parse tree into adjacency + leaf labels, unrooting as needed.

    Vertex ids are handed out in preorder, children left to right.
    """
    warnings: list[str] = []
    adjacency: dict[int, set[int]] = {}
    leaf_names: dict[int, str] = {}
    kids = root.children
    if not kids:
        # A bare labelled leaf, e.g. "A;"
        leaf_names[0] = root.label
        return adjacency, leaf_names, warnings
    if len(kids) == 1:
        raise DegreeViolation(f"root at position {root.pos} has a single child")
    if len(kids) > 3:
        raise DegreeViolation(
            f"root at position {root.pos} has {len(kids)} children; at most 3 are allowed"
        )
    # Preorder walk over (node, id of the vertex it hangs from); next node last.
    if len(kids) == 2:
        # Rooted bifurcating input: drop the root, join its children.  The
        # first child's subtree takes ids from 0, so its top vertex is 0.
        warnings.append(ROOT_SUPPRESSED)
        stack: list[tuple[_Node, int | None]] = [(kids[1], 0), (kids[0], None)]
        counter = 0
    else:
        stack = [(child, 0) for child in reversed(kids)]
        counter = 1  # vertex 0 is the centre of the trifurcation
    seen: set[str] = set()
    while stack:
        node, parent = stack.pop()
        if not node.children:
            if node.label in seen:
                raise DuplicateLabel(f"label {node.label!r} reused at position {node.pos}")
            seen.add(node.label)
            leaf_names[counter] = node.label
        elif len(node.children) != 2:
            raise DegreeViolation(
                f"internal node at position {node.pos} has {len(node.children)} children; "
                "binary trees need exactly 2"
            )
        if parent is not None:
            adjacency.setdefault(parent, set()).add(counter)
            adjacency.setdefault(counter, set()).add(parent)
        stack.extend((child, counter) for child in reversed(node.children))
        counter += 1
    return adjacency, leaf_names, warnings


def parse_newick(text: str) -> NewickDoc:
    """Parse one Newick statement into an unrooted binary tree.

    Raises NewickSyntaxError (with a character position) for malformed
    input, and DegreeViolation / DuplicateLabel / EmptyLabel for well-formed
    strings describing an invalid tree.
    """
    parser = _Parser(text)
    root = parser.parse()
    adjacency, leaf_names, warnings = _collect(root)
    if parser.saw_length:
        warnings.append(BRANCH_LENGTHS_DISCARDED)
    if not adjacency:
        ((v, name),) = leaf_names.items()
        tree = PhyloTree({v: ()}, {v: name})
    else:
        tree = PhyloTree(adjacency, leaf_names)
    return NewickDoc(tree=tree, warnings=tuple(warnings))


def _quote(name: str) -> str:
    if _NEEDS_QUOTES(name) is None:
        return name
    return "'" + name.replace("'", "''") + "'"


@lru_cache(maxsize=16)  # one --emit-trees call writes every output on the same names
def _leaf_text(names: tuple[str, ...]) -> dict[int, str]:
    """The quoted label of each leaf, keyed by its one-bit mask."""
    return {1 << i: _quote(name) for i, name in enumerate(names)}


def newick_from_splits(masks: Iterable[int], names: Sequence[str]) -> str:
    """Deterministic Newick text of the tree with these splits, for n >= 3.

    ``masks`` are the normalized masks (bit 0 never set) of all 2n-3 splits
    of one binary tree on the leaves ``names`` (index order).  Rooted at leaf
    0, each mask is the cluster below one edge.  The text is rooted at the
    internal vertex adjacent to leaf 0 and children are ordered by their
    smallest leaf index, so isomorphic labelled trees give identical text.

    Clusters are built smallest first.  Clusters sharing a lowest leaf are
    nested, so the largest one built so far with cluster m's lowest leaf is
    m's first child, and the rest of m is its second child.
    """
    n = len(names)
    if n < 3:
        raise TooFewLeaves(f"serialization needs n >= 3, got n = {n}")
    text = dict(_leaf_text(tuple(names)))  # a copy: each cluster's text is added to it
    top = {}  # lowest leaf bit -> largest cluster built so far with that lowest leaf
    for m in sorted(masks, key=int.bit_count):
        if m & (m - 1):
            low = m & -m
            first = top.get(low, low)
            text[m] = "(" + text[first] + "," + text[m ^ first] + ")"
            top[low] = m
    return "(" + text[1] + "," + text[((1 << n) - 1) ^ 1][1:-1] + ");"


def serialize_newick(tree: PhyloTree) -> str:
    """Deterministic Newick text for a tree with n >= 3 (see :func:`newick_from_splits`)."""
    return newick_from_splits(tree.split_masks, tree.leaf_order)
