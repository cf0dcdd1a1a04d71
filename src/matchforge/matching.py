"""Matchings over rational edge weights: enumeration and optimisation.

Matchings are frozensets of edge ids.  Weight vectors are tuples of
nonnegative Fractions indexed by edge id, with at least one positive
entry.  Every operation is deterministic: enumeration streams are
sorted lexicographically by their sorted edge-id tuples, and argmax
selections take the lexicographically first optimum.

The enumerators build integer edge masks (bit e for edge e): one
depth-first search per kind, _perfect_masks and _maximal_masks, which
eta.py reads directly; the public enumerators decode them into
frozensets.  Each search runs on an explicit stack of int tuples: the
free vertices as a vertex mask (bit v for vertex v), the neighbours of
exposed vertices as another (_maximal_masks only), and the matching's
key.  A node decides one free vertex, in each way that it can be
decided.  No tuple changes once pushed, so backtracking is a pop with
nothing to undo.  Both searches collect the keys of their leaves and
sort them once at the end, so the order in which a search visits its
leaves does not matter.  Exact eta passes _maximal_masks its orbit
leaders, a set of edge ids; it then lists only the maximal matchings
whose lowest edge is one of them, by starting one search per leader.

The key of a matching on m edges is one int, rmask << m | mask: the
edge mask in its low m bits and, above them, the reversed mask (bit
m-1-e for edge e).  Each edge adds its two bits at once, and the low m
bits of a key are its mask.  The keys sort in descending order, by
this lemma on the reversed masks: on a family of sets none of which
contains another, ascending order of the sorted edge tuples is
descending order of the reversed masks.  For two such sets the
smallest edge of their symmetric difference decides both orders, and
the set holding it comes first in each: its tuple is the smaller one
at that position (the other set still has an element there, as it is
not a subset), and its reversed mask holds the highest differing bit.
Keys order as their reversed masks do, since the high bits decide and
the reversed mask determines the mask.  No maximal matching contains
another, and all perfect matchings of a graph have n/2 edges, so both
streams are sorted lexicographically.  Nested sets break the lemma:
(0,) comes before (0, 1), yet its reversed mask is the smaller.

Every optimisation runs the blossom method, at any graph size; the
enumerators serve the exact eta scan and the tests.  The blossom runs
on integers: integer_weights scales each weight vector by the LCM of
its denominators, the only place where rationals become ints.  The
argmax functions, and eta's witness re-evaluation, add an exact
tie-break to those ints (_lex_tiebreak), so the blossom's unique
optimum is the lexicographically first one.  A best perfect matching
is a best matching under a weight shift, and one engine run gives the
best matching and the best perfect matching (best_matchings): the run
resumes under the shift where the unshifted run ends.  Callers whose
weights are already ints over a common scale (mesh qualities, the
tie-broken weights) enter at best_integer_matchings.  Only the
matchings are decoded from an engine run, except in
perfect_matching_dual, which returns the dual too.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .blossom import max_weight_matching_pairs
from .errors import (
    BadWeights,
    Budget,
    BudgetExceeded,
    InternalError,
    NoPerfectMatching,
    ParseError,
)
from .graphs import Graph, neighbor_masks


def validate_weights(g: Graph, weights: Sequence) -> tuple[Fraction, ...]:
    """Coerce to Fractions and enforce the weight-function contract."""
    if len(weights) != g.m:
        raise BadWeights(f"expected {g.m} weights, got {len(weights)}")
    out = tuple(Fraction(w) for w in weights)
    if any(w < 0 for w in out):
        raise BadWeights("weights must be nonnegative")
    if g.m and all(w == 0 for w in out):
        raise BadWeights("at least one weight must be positive")
    return out


def uniform_weights(g: Graph) -> tuple[Fraction, ...]:
    return tuple(Fraction(1) for _ in range(g.m))


def matching_weight(weights: Sequence, m: Iterable[int]) -> Fraction:
    return sum((Fraction(weights[e]) for e in m), Fraction(0))


def is_matching(g: Graph, edge_ids: Iterable[int]) -> bool:
    used: set[int] = set()
    for e in edge_ids:
        if not 0 <= e < g.m:
            return False
        u, v = g.endpoints(e)
        if u in used or v in used:
            return False
        used.update((u, v))
    return True


def saturated(g: Graph, m: Iterable[int]) -> frozenset[int]:
    out: set[int] = set()
    for e in m:
        out.update(g.endpoints(e))
    return frozenset(out)


def unsaturated(g: Graph, m: Iterable[int]) -> tuple[int, ...]:
    sat = saturated(g, m)
    return tuple(v for v in range(g.n) if v not in sat)


def _decode(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, ascending: edge ids, or vertices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _sorted_masks(found: list[int], m: int) -> list[int]:
    """The masks of the keys found, on m edges, in the order of the
    module docstring's lemma: descending key."""
    found.sort(reverse=True)
    low = (1 << m) - 1
    return [key & low for key in found]


def _options(g: Graph) -> list[list[tuple[int, int]]]:
    """Per vertex, its matching branches in reversed adjacency order:
    (neighbour's vertex bit, the edge's key bits) for each edge.
    Pushed in this order, they pop in adjacency order."""
    m = g.m
    return [
        [(1 << u, 1 << (2 * m - 1 - e) | 1 << e) for u, e in reversed(g.adj[v])]
        for v in range(g.n)
    ]


def _perfect_masks(g: Graph, *, budget: Budget = Budget()) -> list[int]:
    """The masks of all perfect matchings, in the order of
    enumerate_perfect_matchings, with its limits and its errors.

    The search of _maximal_masks without exposure: a node is (free
    vertices, key), and matches its lowest free vertex to each free
    neighbour.
    """
    limit = budget.enumeration_count(g.n, perfect=True)
    if g.n % 2:
        return []
    options = _options(g)
    found: list[int] = []
    stack = [((1 << g.n) - 1, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        free, key = pop()
        if not free:
            if len(found) >= limit:
                raise BudgetExceeded("perfect_count", limit, len(found) + 1)
            found.append(key)
            continue
        low = free & -free
        free ^= low
        for ubit, bits in options[low.bit_length() - 1]:
            if free & ubit:
                push((free ^ ubit, key | bits))
    return _sorted_masks(found, g.m)


def _maximal_masks(
    g: Graph, *, budget: Budget = Budget(), leaders: Sequence[int] | None = None
) -> list[int]:
    """The masks of all maximal matchings, in the order of
    enumerate_maximal_matchings, with its limits and its errors.

    A node of the search is a tuple of ints: (free vertices, blocked
    vertices, key), bit v of a vertex mask for vertex v; the blocked
    vertices are the neighbours of the vertices left exposed so far.
    A matching is maximal exactly when no two exposed vertices are
    adjacent, so a free vertex that is blocked must be matched.  A
    node decides its lowest free blocked vertex v, if it has one, by
    matching v to each free neighbour; it has no child when v has none,
    so a dead branch ends as soon as one vertex is stuck.  Otherwise
    it decides its lowest free vertex v: matched to each free
    neighbour, or left exposed, which blocks v's neighbours.  Each
    leaf has every vertex decided, and every maximal matching is one
    leaf.  A child is built as a new tuple from its parent's ints, and
    no tuple changes once pushed, so a node needs no undo step: when
    its subtree is done, the next pop is its next sibling, in the
    state it was pushed with.

    With leaders, ascending edge ids, only the maximal matchings whose
    lowest edge is a leader are listed, in the same order: the stream
    above filtered to them.  The search starts once per leader r, from
    a root with r matched, on the one option table; the root's edge
    bound, the key bits of the edges r..m-1, is what keeps every edge
    below r out.  So it lists exactly the maximal matchings that hold r
    and no lower edge: an edge below r is never matched, and blocking
    still keeps every two exposed vertices apart.  One descending sort
    of all the keys gives stream order.  budget.maximal_count bounds
    the masks listed.
    """
    limit = budget.enumeration_count(g.n, perfect=False)
    m = g.m
    options = _options(g)
    nbrs = neighbor_masks(g)
    full = (1 << g.n) - 1
    roots = [(full, 0, (1 << m) - 1)]  # (free vertices, key, the edges it offers as key bits)
    if leaders is not None:
        roots = []
        for r in leaders:
            u, v = g.edges[r]
            above = (1 << m) - (1 << r)  # the edges r..m-1, as key bits
            roots.append((full ^ 1 << u ^ 1 << v, 1 << (2 * m - 1 - r) | 1 << r, above))
    found: list[int] = []
    for free, key, above in roots:
        stack = [(free, 0, key)]
        pop, push = stack.pop, stack.append
        while stack:
            free, blocked, key = pop()
            if not free:
                if len(found) >= limit:
                    raise BudgetExceeded("maximal_count", limit, len(found) + 1)
                found.append(key)
                continue
            low = free & blocked or free  # blocked vertices come first
            low &= -low
            free ^= low
            v = low.bit_length() - 1
            if not low & blocked:  # v may be left exposed
                push((free, blocked | nbrs[v], key))
            for ubit, bits in options[v]:
                if free & ubit and bits & above:
                    push((free ^ ubit, blocked, key | bits))
    return _sorted_masks(found, m)


def enumerate_perfect_matchings(
    g: Graph, *, budget: Budget = Budget()
) -> tuple[frozenset[int], ...]:
    """All perfect matchings, lexicographically sorted.

    Branches on the lowest unsaturated vertex, so each matching is
    produced exactly once.  Raises BudgetExceeded if the graph is over
    the budget's vertex limit or more than its perfect_count matchings
    exist.  The search keeps its own stack of pending nodes, so its
    depth is not bounded by the interpreter's recursion limit.  A
    decode of _perfect_masks.
    """
    return tuple(frozenset(_decode(mask)) for mask in _perfect_masks(g, budget=budget))


def enumerate_maximal_matchings(
    g: Graph, *, budget: Budget = Budget()
) -> tuple[frozenset[int], ...]:
    """All maximal matchings, lexicographically sorted.

    Each vertex is either matched or committed to stay exposed; an
    exposed vertex may never see an exposed neighbour, which is exactly
    maximality.  A vertex next to an exposed one is decided first, as
    it must be matched; otherwise the lowest undecided vertex is
    matched to each undecided neighbour, or left exposed.  Budgets
    (maximal_count for the count) and the explicit stack as in
    enumerate_perfect_matchings.  A decode of _maximal_masks.
    """
    return tuple(frozenset(_decode(mask)) for mask in _maximal_masks(g, budget=budget))


def integer_weights(weights: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, scale): Fraction weights times scale, the LCM of their
    denominators, so ints[e] / scale == weights[e].  The only place
    where rationals become ints: the engine's weights, lp.solve's rows
    and objective, and berge_witness's cover, whose cover_count is the
    scale.  A positive scale keeps every comparison, so the engine
    makes the same choices as it would over the rationals."""
    scale = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (scale // w.denominator) for w in weights], scale


def _engine(g: Graph, ints: Sequence[int], shift: int | None = None):
    """The blossom's raw result(s) on int edge weights (see
    blossom.max_weight_matching_pairs): one without a shift, two with."""
    pair_weight = dict(zip(g.edges, ints))
    adjacency = [[u for u, _ in row] for row in g.adj]
    return max_weight_matching_pairs(g.n, pair_weight, adjacency, shift)


def _edge_ids(g: Graph, pairs) -> frozenset[int]:
    """The engine's matched pairs as edge ids."""
    out = set()
    for u, v in pairs:
        eid = g.edge_id(u, v)
        if eid is None:
            raise InternalError(f"blossom matched a non-edge {(u, v)}")
        out.add(eid)
    return frozenset(out)


def _shifted_engine(g: Graph, ints: Sequence[int], scale: int) -> tuple:
    """One engine run on ints and on ints shifted by scale + sum(ints):
    the two raw results and the shift.

    In the units of the weights ints / scale the shift is 1 + sum(w):
    any larger matching then beats any smaller one, so the optimum
    under the shift has maximum cardinality and, among perfect
    matchings, maximum original weight.
    """
    shift = scale + sum(ints)
    first, second = _engine(g, ints, shift)
    return first, second, shift


def best_integer_matchings(g: Graph, ints: Sequence[int], scale: int) -> tuple:
    """best_matchings for the weights ints[e] / scale: one nonnegative
    int per edge, at least one positive, over a positive int scale.
    Decodes only the two matchings.  When scale is a multiple of the
    LCM that integer_weights would take, ints and the shift are the
    same multiple of its, so by Scaling in the blossom module the
    matchings are those of best_matchings."""
    if len(ints) != g.m or min(ints, default=0) < 0 or (g.m and not any(ints)):
        raise BadWeights("expected one nonnegative int per edge, one positive")
    if scale < 1:
        raise BadWeights(f"scale must be a positive int, got {scale}")
    first, second, _ = _shifted_engine(g, ints, scale)
    best_perfect = _edge_ids(g, second[0])
    return _edge_ids(g, first[0]), best_perfect if len(best_perfect) * 2 == g.n else None


def _lex_tiebreak(weights: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, scale): int weights over a common scale whose unique
    optimum is the lexicographically first optimum of the given ones.

    With L the LCM of the denominators, two matching weights differ by
    a multiple of 1/L.  Edge e gains 2**(m-1-e) / (2**m L), and one
    matching's gains add up to less than 1/L, so an optimum of the new
    weights is an optimum of the old ones.  Among those it holds the
    lowest-numbered edge where two differ: the first sorted edge tuple
    among matchings of one size, and among maximal matchings too, since
    no two of them are nested.  Every new weight is positive, so the
    new optimum is maximal.

    The new weights are built as ints over scale 2**m L: ints[e] is
    integer_weights' ints[e] << m, plus 2**(m-1-e).  As Fractions in
    lowest terms, the same weights have denominators whose LCM, the
    scale integer_weights takes, is 2**m L / c for a positive int c,
    and integer_weights' ints are these divided by c.  The shift of
    best_integer_matchings is c times apart too, so by Scaling in the
    blossom module the engine returns the same matchings on both.
    """
    ints, scale = integer_weights(weights)
    m = len(ints)
    return [(x << m) + (1 << (m - 1 - e)) for e, x in enumerate(ints)], scale << m


def best_matchings(g: Graph, weights: Sequence) -> tuple:
    """(maximum-weight matching, best perfect matching or None) from one
    engine run.  These are the engine's own optima, without the
    lexicographic tie-break of the argmax functions; the second is the
    matching of perfect_matching_dual."""
    return best_integer_matchings(g, *integer_weights(validate_weights(g, weights)))


def max_weight_matching(g: Graph, weights: Sequence) -> frozenset[int]:
    """A matching of maximum total weight: the lexicographically first
    optimum among the maximal matchings, one of which is optimal because
    the weights are nonnegative.
    """
    ints, _ = _lex_tiebreak(validate_weights(g, weights))
    return _edge_ids(g, _engine(g, ints)[0])


def perfect_matching_dual(g: Graph, weights: Sequence) -> tuple:
    """Best perfect matching, with a perfect-matching dual that proves it:
    returns (P, potentials, odd sets), the dual of value w(P).  One
    engine run under the shift of best_matchings; lowering its
    potentials by half the shift turns the shifted run's dual into
    one of value w(P) for the original weights.  Raises
    NoPerfectMatching when none exists.
    """
    w = validate_weights(g, weights)
    if g.n % 2:
        raise NoPerfectMatching("odd vertex count")
    ints, scale = integer_weights(w)
    _, (pairs, potentials, odd_sets), shift = _shifted_engine(g, ints, scale)
    pm = _edge_ids(g, pairs)
    if len(pm) * 2 != g.n:
        raise NoPerfectMatching("no perfect matching exists")
    unit = 2 * scale  # the blossom's duals are doubled
    return (
        pm,
        tuple(Fraction(y - shift, unit) for y in potentials),
        tuple((b, Fraction(z, unit)) for b, z in odd_sets),
    )


def max_weight_perfect_matching(g: Graph, weights: Sequence) -> frozenset[int]:
    """The lexicographically first perfect matching of maximum total
    weight.  Raises NoPerfectMatching when none exists.  The matching
    of perfect_matching_dual under _lex_tiebreak, without its dual.
    """
    tiebroken = _lex_tiebreak(validate_weights(g, weights))
    if g.n % 2:
        raise NoPerfectMatching("odd vertex count")
    best_perfect = best_integer_matchings(g, *tiebroken)[1]
    if best_perfect is None:
        raise NoPerfectMatching("no perfect matching exists")
    return best_perfect


def _perfect_matching(g: Graph) -> frozenset[int] | None:
    """A perfect matching of g, or None: a maximum-cardinality matching."""
    if g.n % 2:
        return None
    m = _edge_ids(g, _engine(g, [1] * g.m)[0])
    return m if len(m) * 2 == g.n else None


def has_perfect_matching(g: Graph) -> bool:
    """Polynomial check via maximum-cardinality matching."""
    return _perfect_matching(g) is not None


# ---------------------------------------------------------------------------
# weight I/O and random draws


_WEIGHT_LITERAL = re.compile(r"[+-]?\d+(/\d+)?")


def parse_weight_csv(text: str, m: int) -> tuple[Fraction, ...]:
    """Read "edge_id,value" lines; value is an integer or "num/den",
    with an optional sign.

    Every edge id 0..m-1 must appear exactly once.  Comment lines start
    with '#'.  Any other value, a decimal or an exponent among them, is
    refused before Fraction reads it: Fraction would expand an exponent
    such as 1e10000000 digit by digit.
    """
    values: dict[int, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'edge_id,value'")
        if not _WEIGHT_LITERAL.fullmatch(parts[1]):
            raise ParseError(f"line {lineno}: {parts[1]!r} is not an integer or num/den")
        try:
            eid = int(parts[0])
            val = Fraction(parts[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if not 0 <= eid < m:
            raise ParseError(f"line {lineno}: edge id {eid} not in 0..{m - 1}")
        if eid in values:
            raise ParseError(f"line {lineno}: duplicate edge id {eid}")
        values[eid] = val
    missing = [e for e in range(m) if e not in values]
    if missing:
        raise ParseError(f"missing weights for edge ids {missing[:5]}")
    return tuple(values[e] for e in range(m))


def format_weight_csv(weights: Sequence[Fraction]) -> str:
    lines = [
        f"{eid},{w.numerator}/{w.denominator}"
        for eid, w in enumerate(Fraction(x) for x in weights)
    ]
    return "\n".join(lines) + "\n"


def random_weights(g: Graph, rng: random.Random) -> tuple[Fraction, ...]:
    """Small random rationals, a numerator in 0..12 over a denominator
    in 1..6 per edge, with at least one positive entry."""
    while True:
        w = tuple(Fraction(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(g.m))
        if any(x > 0 for x in w):
            return w
