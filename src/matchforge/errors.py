"""Exception types shared across the package.

Every error raised on purpose by matchforge derives from MatchforgeError,
so callers can catch one type at the CLI boundary.  Names describe the
violated precondition rather than the module that noticed it.  Budget,
the limits of the exponential searches, sits next to BudgetExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass


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

    def __reduce__(self):  # pickle rebuilds it from the fields, not the message
        return type(self), (self.vertex, self.degree)


class NotConnected(MatchforgeError):
    """The graph has more than one connected component."""


# ---------------------------------------------------------------------------
# input formats


class ParseError(MatchforgeError):
    """An input file does not conform to its declared format: an edge
    list, graph6, OFF, weights CSV or certificate."""


# ---------------------------------------------------------------------------
# generators


class UnknownLabel(MatchforgeError):
    """A catalog label is not recognised."""


class BadParameters(MatchforgeError):
    """Generator parameters violate their stated ranges."""


# ---------------------------------------------------------------------------
# searches and enumeration


class BudgetExceeded(MatchforgeError):
    """An enumeration or search refused to run or to continue past its
    stated limit.

    Deliberately distinct from a negative answer: the caller must not
    confuse "no witness exists" with "gave up looking".  Carries the
    Budget field that refused (budget), its effective limit, and how
    far the run got (reached, always above limit): the vertex count,
    the matchings found or masks seen, or the nodes visited.
    """

    MESSAGES = {
        "vertex_limit": "{reached} vertices exceeds the enumeration limit {limit}",
        "perfect_count": "more than {limit} perfect matchings",
        "maximal_count": "more than {limit} maximal matchings",
        "search_nodes": "search budget exhausted after {reached} nodes",
        "witness_nodes": "witness search passed {limit} nodes",
    }

    def __init__(self, budget: str, limit: int, reached: int):
        super().__init__(self.MESSAGES[budget].format(limit=limit, reached=reached))
        self.budget = budget
        self.limit = limit
        self.reached = reached

    def __reduce__(self):  # pickle rebuilds it from the fields, not the message
        return type(self), (self.budget, self.limit, self.reached)


@dataclass(frozen=True)
class Budget:
    """The limits of every exponential search.  vertex_limit fences
    both matching enumerations (None: 26 vertices for perfect and 20
    for maximal ones), the counts bound the matchings each lists,
    search_nodes bounds tait_coloring and hamiltonian_cycle, and
    witness_nodes find_independent_set_bound."""

    vertex_limit: int | None = None
    perfect_count: int = 10**5
    maximal_count: int = 10**6
    search_nodes: int = 10**8
    witness_nodes: int = 10**7

    def enumeration_count(self, n: int, perfect: bool) -> int:
        """The count limit of a perfect (or maximal) matching
        enumeration on n vertices, after refusing an n over the
        vertex limit."""
        limit = self.vertex_limit
        if limit is None:
            limit = 26 if perfect else 20
        if n > limit:
            raise BudgetExceeded("vertex_limit", limit, n)
        return self.perfect_count if perfect else self.maximal_count


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
