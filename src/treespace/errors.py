"""Exception hierarchy shared by all treespace modules."""


class TreeError(Exception):
    """Base class for every error raised by this package."""


class DegreeViolation(TreeError):
    """A vertex has a degree other than 1 or 3."""


class Disconnected(TreeError):
    """The edge set does not describe a connected graph."""


class Cyclic(TreeError):
    """The edge set contains a cycle."""


class DuplicateLabel(TreeError):
    """Two leaves carry the same label."""


class EmptyLabel(TreeError):
    """A leaf label is empty or missing."""


class TooFewLeaves(TreeError):
    """The operation needs more leaves than the tree (or size) has."""


class TooManyLeaves(TreeError):
    """The leaf count exceeds the structural cap (64)."""


class NotPerfectSize(TreeError):
    """n is not of the form 2**k or 3*2**(k-1) with k >= 2."""


class RangeError(TreeError):
    """A size argument lies outside the supported range."""


class InvalidOp(TreeError):
    """A rearrangement op does not apply to the given tree."""


class NewickSyntaxError(TreeError):
    """Malformed Newick input.

    Attributes:
        position: 0-based character offset of the offending token.
        expected: short description of what would have been legal there.
    """

    def __init__(self, message: str, position: int, expected: str | None = None):
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.position = position
        self.expected = expected
