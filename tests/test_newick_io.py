"""Parser and serializer: round trips, determinism, and the negative corpus."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_list, is_cherry, reference_newick
from treespace import (
    BRANCH_LENGTHS_DISCARDED,
    ROOT_SUPPRESSED,
    DegreeViolation,
    DuplicateLabel,
    EmptyLabel,
    NewickSyntaxError,
    PhyloTree,
    TooFewLeaves,
    TooManyLeaves,
    TreeError,
    caterpillar,
    parse_newick,
    perfect,
    random_tree,
    serialize_newick,
)
from treespace.generators import complete


class TestParse:
    def test_rooted_quartet_suppressed(self):
        doc = parse_newick("((1,2),(3,4));")
        assert ROOT_SUPPRESSED in doc.warnings
        assert is_cherry(doc.tree, "1", "2") and is_cherry(doc.tree, "3", "4")

    def test_perfect_six(self):
        doc = parse_newick("(1,2,((3,4),(5,6)));")
        t = doc.tree
        assert doc.warnings == ()
        sizes = [m.bit_count() for m in t.split_masks]
        nontrivial = [a for a in sizes if a not in (1, t.n - 1)]
        assert [sorted((a, t.n - a)) for a in nontrivial] == [[2, 4], [2, 4], [2, 4]]
        assert t == perfect(6)

    def test_branch_lengths_discarded(self):
        doc = parse_newick("(1:0.1,2:0.2,(3:0.3,4:0.4):0.5);")
        assert BRANCH_LENGTHS_DISCARDED in doc.warnings
        assert doc.tree == parse_newick("(1,2,(3,4));").tree

    def test_quoted_labels(self):
        t = parse_newick("('a b',c,('it''s',d));").tree
        assert set(t.leaf_order) == {"a b", "c", "it's", "d"}

    @pytest.mark.parametrize("label,name", [("''''", "'"), ("'a'''", "a'"), ("'''a'", "'a"), ("'a''''b'", "a''b")])
    def test_quote_pairs_never_split(self, label, name):
        assert parse_newick(f"({label},c,d);").tree.leaf_order == (name, "c", "d")

    def test_regexes_compile_on_python_3_10(self):
        """Possessive quantifiers and atomic groups need Python 3.11; the package supports 3.10."""
        from treespace import newick_io

        bound = [getattr(f, "__self__", None) for f in vars(newick_io).values()]
        patterns = [p.pattern for p in bound if isinstance(p, re.Pattern)]
        assert len(patterns) >= 4
        for pattern in patterns:
            assert not re.search(r"[*+?}]\+|\(\?>", pattern), pattern

    def test_whitespace_tolerated(self):
        t = parse_newick(" ( 1 , 2 , ( 3 , 4 ) ) ; ").tree
        assert t == parse_newick("(1,2,(3,4));").tree

    @pytest.mark.parametrize("space", [" ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u3000", "\u2028"])
    def test_whitespace_ends_unquoted_labels(self, space):
        """Any character the parser skips as whitespace ends an unquoted label, as a space does."""
        with pytest.raises(NewickSyntaxError):
            parse_newick(f"(a{space}b,c,d);")
        assert parse_newick(f"(a{space},c,d);").tree.leaf_order == ("a", "c", "d")
        assert parse_newick(f"({space}a,c{space},d);").tree.leaf_order == ("a", "c", "d")
        # Quoted, the same character stays part of the label.
        assert parse_newick(f"('a{space}b',c,d);").tree.leaf_order == ("a" + space + "b", "c", "d")

    def test_degenerate_inputs(self):
        assert parse_newick("A;").tree.n == 1
        doc = parse_newick("(A,B);")
        assert doc.tree.n == 2 and ROOT_SUPPRESSED in doc.warnings


# Inputs with several faults, each with the error that is raised and the
# position it names: syntax errors come first, then the degree or
# duplicate-label fault whose node starts earliest in the text.
PRECEDENCE = [
    ("'''a", NewickSyntaxError, 0),  # '' is a quote inside the label, which never closes
    ("(1,(2),3", NewickSyntaxError, 8),  # unclosed, before the one-child node counts
    ("((1,1,(2)),3,4);", DegreeViolation, 1),  # three children, before the duplicate and (2)
    ("(1,1,(2,3,4));", DuplicateLabel, 3),  # before the three-child node
    ("(a,a,b)x;", NewickSyntaxError, 7),  # an internal label, before the duplicate counts
]

NEGATIVE_CORPUS = [
    ("", NewickSyntaxError),
    (";", EmptyLabel),
    ("(;", EmptyLabel),
    ("(1,2;", NewickSyntaxError),
    ("((1,2),(3,4))", NewickSyntaxError),
    ("((1,2),(3,4)));", NewickSyntaxError),
    ("(1,2),(3,4));", NewickSyntaxError),
    ("(1,,2);", EmptyLabel),
    ("(1,2,());", EmptyLabel),
    ("(1,2,3); trailing", NewickSyntaxError),
    ("(1,2,3,4);", DegreeViolation),
    ("(1,2,3,4,5);", DegreeViolation),
    ("((1,2,3),(4,5));", DegreeViolation),
    ("(1,(2),3);", DegreeViolation),
    ("(1,2,(3,3));", DuplicateLabel),
    ("(1,1,2);", DuplicateLabel),
    ("(1:x,2,3);", NewickSyntaxError),
    ("('abc,1,2);", NewickSyntaxError),
    ("(1,2,(3,4)oops);", NewickSyntaxError),
    ("(1,2,'');", EmptyLabel),
    *((text, exc) for text, exc, _ in PRECEDENCE),
]


class TestNegativeCorpus:
    @pytest.mark.parametrize("text,exc", NEGATIVE_CORPUS)
    def test_rejected(self, text, exc):
        with pytest.raises(exc):
            parse_newick(text)

    @pytest.mark.parametrize(
        "text,exc", [(t, e) for t, e in NEGATIVE_CORPUS if e is NewickSyntaxError]
    )
    def test_syntax_errors_carry_positions(self, text, exc):
        with pytest.raises(NewickSyntaxError) as info:
            parse_newick(text)
        assert 0 <= info.value.position <= len(text)

    @pytest.mark.parametrize("text,exc,position", PRECEDENCE)
    def test_first_fault_wins(self, text, exc, position):
        with pytest.raises(TreeError) as info:
            parse_newick(text)
        assert type(info.value) is exc
        assert re.search(rf"\bat position {position}\b", str(info.value))

    def test_non_syntax_errors_name_positions(self):
        for text in ["(1,,2);", "(1,2,(3,3));", "(1,(2),3);"]:
            with pytest.raises(TreeError) as info:
                parse_newick(text)
            assert "position" in str(info.value)


class TestSerialize:
    def test_quartet_deterministic_form(self, quartet):
        assert serialize_newick(quartet) == "(1,2,(3,4));"

    def test_caterpillar5(self):
        assert serialize_newick(caterpillar(5)) == "(1,2,(3,(4,5)));"

    def test_three_leaf_star(self):
        assert serialize_newick(parse_newick("(3,1,2);").tree) == "(1,2,3);"

    def test_serialization_is_function_of_canonical_form(self):
        a = parse_newick("((4,3),(2,1));").tree
        b = parse_newick("(3,4,(1,2));").tree
        assert a == b
        assert serialize_newick(a) == serialize_newick(b)

    def test_quoting_round_trip(self):
        text = "('a b',c,('it''s',d));"
        t = parse_newick(text).tree
        assert parse_newick(serialize_newick(t)).tree == t

    def test_too_few_leaves(self):
        with pytest.raises(TooFewLeaves):
            serialize_newick(parse_newick("A;").tree)

    @pytest.mark.parametrize("label", ["\x0bb", "c\x0c", "d\x1ce", "\x85f", "g h", "\u3000i", "j\u2028"])
    def test_whitespace_labels_quoted(self, label):
        """Every character the parser skips as whitespace forces quotes."""
        t = parse_newick(f"('{label}',x,(y,z));").tree
        text = serialize_newick(t)
        assert f"'{label}'" in text
        assert parse_newick(text).tree == t

    @pytest.mark.parametrize("family", [caterpillar, complete])
    def test_matches_reference_writer(self, family):
        for n in range(4, 65):
            t = family(n)
            assert serialize_newick(t) == reference_newick(t)


class TestDeepInput:
    DEPTH = 3000

    def test_deep_single_child_nesting(self):
        with pytest.raises(DegreeViolation):
            parse_newick("(" * self.DEPTH + "a,b,c" + ")" * self.DEPTH + ";")

    def test_deep_unclosed(self):
        with pytest.raises(NewickSyntaxError):
            parse_newick("(" * self.DEPTH + "a")

    def test_deep_binary_tree(self):
        text = "".join(f"({i}," for i in range(self.DEPTH)) + "a" + ")" * self.DEPTH + ";"
        with pytest.raises(TooManyLeaves):
            parse_newick(text)


_NEWICK_CHARS = "(),:;'[] \t\n\r\x0b\x85.1e-+ab"
_LABELS = st.sampled_from(["a", "b", "c", "d", "1", "'x y'", "''", "a:1", "b:-2e1", "c:x", ""])


def _subtrees(children):
    return st.lists(children, min_size=0, max_size=4).map(lambda kids: "(" + ",".join(kids) + ")")


_NEWICKISH = st.builds(
    lambda body, end: body + end,
    st.recursive(_LABELS, _subtrees, max_leaves=30),
    st.sampled_from([";", "", ";;", " ; ", ":1;"]),
)


class TestFuzz:
    @given(st.one_of(st.text(alphabet=_NEWICK_CHARS, max_size=40), st.text(max_size=20), _NEWICKISH))
    @settings(max_examples=400, deadline=None)
    def test_tree_or_tree_error(self, text):
        """parse_newick returns a tree or raises TreeError, never anything else."""
        try:
            doc = parse_newick(text)
        except TreeError:
            return
        assert isinstance(doc.tree, PhyloTree)


class TestRoundTrip:
    @given(st.integers(4, 20), st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_preserved(self, n, seed):
        t = random_tree(n, seed)
        doc = parse_newick(serialize_newick(t))
        assert doc.tree.canonical_form() == t.canonical_form()

    @given(st.integers(4, 20), st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_serialize_idempotent(self, n, seed):
        t = random_tree(n, seed)
        once = serialize_newick(t)
        assert serialize_newick(parse_newick(once).tree) == once

    @given(st.integers(3, 64), st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_serialize_matches_reference_writer(self, n, seed):
        t = parse_newick("(1,2,3);").tree if n == 3 else random_tree(n, seed)
        text = serialize_newick(t)
        assert parse_newick(text).tree == t
        assert text == reference_newick(t)

    @given(st.integers(4, 64), st.integers(0, 10**9), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_free_form_text(self, n, seed, rooted, rng):
        """Text written unrooted or rooted at an edge, with whitespace, quoted
        labels and branch lengths, parses back to the tree it was written from."""
        drawn = random_tree(n, seed)
        suffixes = ["", "", " it's", "\tx y", "''"]
        names = {v: drawn.leaf_name(v) + rng.choice(suffixes) for v in drawn.vertices() if drawn.is_leaf(v)}
        tree = PhyloTree(edge_list(drawn), names)
        text, has_lengths = free_form_newick(tree, rooted, rng)
        doc = parse_newick(text)
        assert doc.tree == tree
        warnings = (ROOT_SUPPRESSED,) * rooted + (BRANCH_LENGTHS_DISCARDED,) * has_lengths
        assert doc.warnings == warnings


_SPACES = [" ", "\t", "\n", "\r", "\x0b", "\x85", "\u3000"]
_LENGTHS = ["1", "0.25", "2e-3", "+1.5", "-3", "1E5", ".5"]


def free_form_newick(tree: PhyloTree, rooted: bool, rng) -> tuple[str, bool]:
    """Newick text of ``tree`` and whether it holds a branch length.

    A writer of its own: rooted at a random edge or unrooted at a random
    internal vertex, children in random order, random whitespace between
    tokens, labels quoted when they must be and sometimes when they need not,
    and random branch lengths.
    """
    has_length = False

    def space() -> str:
        return rng.choice(_SPACES) * rng.randint(1, 2) if rng.random() < 0.3 else ""

    def length() -> str:
        nonlocal has_length
        if rng.random() < 0.1:
            has_length = True
            return space() + ":" + space() + rng.choice(_LENGTHS)
        return ""

    def label(name: str) -> str:
        if set(name) & set(" \t'") or rng.random() < 0.2:
            return "'" + name.replace("'", "''") + "'"
        return name

    def render(v: int, up: int) -> str:
        if tree.is_leaf(v):
            text = label(tree.leaf_name(v))
        else:
            kids = [w for w in tree.neighbors(v) if w != up]
            rng.shuffle(kids)
            text = "(" + ",".join(render(w, v) for w in kids) + space() + ")"
        return space() + text + space() + length()

    if rooted:
        u, w = rng.choice(edge_list(tree))
        body = render(u, w) + "," + render(w, u)
    else:
        centre = rng.choice([v for v in tree.vertices() if not tree.is_leaf(v)])
        kids = list(tree.neighbors(centre))
        rng.shuffle(kids)
        body = ",".join(render(w, centre) for w in kids)
    text = space() + "(" + body + space() + ")" + length() + space() + ";" + space()
    return text, has_length
