"""Exception types shared across the package.

Every error raised on purpose by matchforge derives from MatchforgeError,
so callers can catch one type at the CLI boundary.  Names describe the
violated precondition rather than the module that noticed it.
"""

from __future__ import annotations


class MatchforgeError(Exception):
    """Base class for all matchforge errors."""


# ---------------------------------------------------------------------------
# graph construction


class SelfLoop(MatchforgeError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(MatchforgeError):
    """The same unordered vertex pair appears twice."""


class VertexOutOfRange(MatchforgeError):
    """A vertex id falls outside 0..n-1, or n exceeds the supported limit."""


class EdgeOutOfRange(MatchforgeError):
    """An edge id falls outside 0..m-1."""


class NotCubic(MatchforgeError):
    """A vertex has degree other than three.  Carries the offending vertex."""

    def __init__(self, vertex: int, degree: int):
        super().__init__(f"vertex {vertex} has degree {degree}, expected 3")
        self.vertex = vertex
        self.degree = degree


class NotConnected(MatchforgeError):
    """The graph has more than one connected component."""


# ---------------------------------------------------------------------------
# generators


class UnknownLabel(MatchforgeError):
    """A catalog label is not recognised."""


class BadParameters(MatchforgeError):
    """Generator parameters violate their stated ranges."""


class SpecInvalid(MatchforgeError):
    """A composite-construction description fails validation."""


# ---------------------------------------------------------------------------
# searches and enumeration


class BudgetExceeded(MatchforgeError):
    """An enumeration or search refused to run or to continue past its
    stated limit.

    Deliberately distinct from a negative answer: the caller must not
    confuse "no witness exists" with "gave up looking".
    """


# ---------------------------------------------------------------------------
# matchings


class NoPerfectMatching(MatchforgeError):
    """The graph admits no perfect matching but one was required."""


class IncludeNotMatching(MatchforgeError):
    """An edge set given as a matching is not one."""


# ---------------------------------------------------------------------------
# weights


class BadWeights(MatchforgeError):
    """A weight vector is malformed: wrong length, negative, or all zero."""


# ---------------------------------------------------------------------------
# mesh handling


class ParseError(MatchforgeError):
    """An input file does not conform to its declared format."""


class NotTriangular(MatchforgeError):
    """A mesh face is not a triangle."""


class NotClosed(MatchforgeError):
    """A mesh is not a closed, consistently oriented 2-manifold."""


class Degenerate(MatchforgeError):
    """A mesh face has zero area or repeated vertices."""


# ---------------------------------------------------------------------------
# self-checks


class InternalError(MatchforgeError):
    """An engine's own exactness check failed: a bug, not a bad input."""
