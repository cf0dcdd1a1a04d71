"""Matchings over rational edge weights: enumeration and optimisation.

Matchings are frozensets of edge ids.  Weight vectors are tuples of
nonnegative Fractions indexed by edge id, with at least one positive
entry.  Every operation is deterministic: enumeration streams are
sorted lexicographically by their sorted edge-id tuples, and argmax
selections take the lexicographically first optimum.

The enumerators build integer edge masks (bit e for edge e): one
depth-first search per kind, _perfect_masks and _maximal_masks, which
eta.py reads directly; the public enumerators decode them into
frozensets.  Each search also keeps the reversed mask (bit m-1-e
for edge e) and sorts on it, descending, by this lemma: on a family of
sets none of which contains another, ascending order of the sorted
edge tuples is descending order of the reversed masks.  For two such
sets the smallest edge of their symmetric difference decides both
orders, and the set holding it comes first in each: its tuple is the
smaller one at that position (the other set still has an element
there, as it is not a subset), and its reversed mask holds the highest
differing bit.  No maximal matching contains another, and all perfect
matchings of a graph have n/2 edges, so both streams are sorted
lexicographically.  Nested sets break the lemma: (0,) comes before
(0, 1), yet its reversed mask is the smaller.

Every optimisation runs the blossom method, at any graph size; the
enumerators serve the exact eta scan and the tests.  The argmax
functions add an exact tie-break to the weights (_lex_tiebreak), so
the blossom's unique optimum is the lexicographically first one.  The
blossom runs on integers: _blossom_argmax scales each weight vector by
the LCM of its denominators, the only place where rationals become
ints.  A best perfect matching is a best matching under a weight
shift, and one engine run gives the best matching and the best
perfect matching (best_matchings): the run resumes under the shift
where the unshifted run ends.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

from .blossom import max_weight_matching_pairs
from .errors import (
    BadWeights,
    BudgetExceeded,
    InternalError,
    NoPerfectMatching,
    ParseError,
)
from .graphs import Graph

# Enumeration refuses larger graphs unless the caller raises the limits.
PERFECT_VERTEX_LIMIT = 26
MAXIMAL_VERTEX_LIMIT = 20
PERFECT_COUNT_BUDGET = 10**5
MAXIMAL_COUNT_BUDGET = 10**6

Matching = frozenset

WeightVector = tuple


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


def is_maximal_matching(g: Graph, m: frozenset[int]) -> bool:
    if not is_matching(g, m):
        return False
    sat = saturated(g, m)
    return all(u in sat or v in sat for u, v in g.edges)


def _decode(mask: int) -> tuple[int, ...]:
    """The edge ids of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _sorted_masks(found: list[tuple[int, int]]) -> list[int]:
    """The masks of (rmask, mask) pairs in the order of the module
    docstring's lemma: descending rmask."""
    found.sort(reverse=True)
    return [mask for _, mask in found]


def _options(g: Graph) -> list[list]:
    """Per vertex, its branches in adjacency order: (neighbour, mask bit,
    reversed-mask bit) for each edge, then None."""
    top = g.m - 1
    return [
        [(u, 1 << e, 1 << (top - e)) for u, e in g.adj[v]] + [None] for v in range(g.n)
    ]


def _perfect_masks(
    g: Graph,
    *,
    vertex_limit: int | None = PERFECT_VERTEX_LIMIT,
    count_budget: int = PERFECT_COUNT_BUDGET,
) -> list[int]:
    """The masks of all perfect matchings, in the order of
    enumerate_perfect_matchings, with its limits and its errors."""
    if vertex_limit is None:
        vertex_limit = PERFECT_VERTEX_LIMIT
    if g.n > vertex_limit:
        raise BudgetExceeded(
            f"{g.n} vertices exceeds the enumeration limit {vertex_limit}"
        )
    if g.n % 2:
        return []
    n, options = g.n, _options(g)
    found: list[tuple[int, int]] = []
    sat = [False] * n
    mask = rmask = 0
    stack: list[list] = []  # [branch vertex, next branch, branch to undo]
    v = 0  # every vertex below v is saturated
    while True:
        while v < n and sat[v]:
            v += 1
        if v == n:
            if len(found) >= count_budget:
                raise BudgetExceeded(f"more than {count_budget} perfect matchings")
            found.append((rmask, mask))
        else:
            sat[v] = True
            stack.append([v, 0, None])
        # backtrack to the deepest branch vertex with a neighbour left
        while stack:
            frame = stack[-1]
            v, i, undo = frame
            if undo is not None:
                u, bit, rbit = undo
                sat[u] = False
                mask ^= bit
                rmask ^= rbit
            row = options[v]
            while True:
                option = row[i]
                i += 1
                if option is None:
                    break
                u, bit, rbit = option
                if not sat[u]:
                    sat[u] = True
                    mask |= bit
                    rmask |= rbit
                    frame[1] = i
                    frame[2] = option
                    break
            if option is not None:
                break
            sat[v] = False
            stack.pop()
        else:
            return _sorted_masks(found)


def _maximal_masks(
    g: Graph,
    *,
    vertex_limit: int | None = MAXIMAL_VERTEX_LIMIT,
    count_budget: int = MAXIMAL_COUNT_BUDGET,
) -> list[int]:
    """The masks of all maximal matchings, in the order of
    enumerate_maximal_matchings, with its limits and its errors.

    The branch after a vertex's neighbours (None in its row) leaves it
    exposed, which is allowed only while none of its neighbours is
    exposed; exposed[v] counts those neighbours.
    """
    if vertex_limit is None:
        vertex_limit = MAXIMAL_VERTEX_LIMIT
    if g.n > vertex_limit:
        raise BudgetExceeded(
            f"{g.n} vertices exceeds the enumeration limit {vertex_limit}"
        )
    UNDECIDED, MATCHED, EXPOSED = 0, 1, 2
    n, options = g.n, _options(g)
    neighbours = [g.neighbors(v) for v in range(n)]
    state = [UNDECIDED] * n
    exposed = [0] * n  # exposed neighbours of each vertex
    found: list[tuple[int, int]] = []
    mask = rmask = 0
    # [branch vertex, next branch, branch to undo]; True undoes exposure
    stack: list[list] = []
    v = 0  # every vertex below v is decided
    while True:
        while v < n and state[v] != UNDECIDED:
            v += 1
        if v == n:
            if len(found) >= count_budget:
                raise BudgetExceeded(f"more than {count_budget} maximal matchings")
            found.append((rmask, mask))
        else:
            state[v] = MATCHED
            stack.append([v, 0, None])
        while stack:
            frame = stack[-1]
            v, i, undo = frame
            if undo is True:  # exposure is the last branch: v is done
                for w in neighbours[v]:
                    exposed[w] -= 1
                state[v] = UNDECIDED
                stack.pop()
                continue
            if undo is not None:
                u, bit, rbit = undo
                state[u] = UNDECIDED
                mask ^= bit
                rmask ^= rbit
            row = options[v]
            while True:
                option = row[i]
                i += 1
                if option is None:
                    break
                u, bit, rbit = option
                if state[u] == UNDECIDED:
                    state[u] = MATCHED
                    mask |= bit
                    rmask |= rbit
                    frame[1] = i
                    frame[2] = option
                    break
            if option is not None:
                break
            if exposed[v]:
                state[v] = UNDECIDED
                stack.pop()
                continue
            state[v] = EXPOSED
            for w in neighbours[v]:
                exposed[w] += 1
            frame[2] = True
            break
        else:
            return _sorted_masks(found)


def enumerate_perfect_matchings(
    g: Graph,
    *,
    vertex_limit: int | None = PERFECT_VERTEX_LIMIT,
    count_budget: int = PERFECT_COUNT_BUDGET,
) -> tuple[frozenset[int], ...]:
    """All perfect matchings, lexicographically sorted.

    Branches on the lowest unsaturated vertex, so each matching is
    produced exactly once.  Raises BudgetExceeded if the graph is over
    vertex_limit (None: PERFECT_VERTEX_LIMIT) or more than count_budget
    matchings exist.  The search keeps its own stack, one frame per
    matched pair, so its depth is not bounded by the interpreter's
    recursion limit.  A decode of _perfect_masks.
    """
    masks = _perfect_masks(g, vertex_limit=vertex_limit, count_budget=count_budget)
    return tuple(frozenset(_decode(mask)) for mask in masks)


def enumerate_maximal_matchings(
    g: Graph,
    *,
    vertex_limit: int | None = MAXIMAL_VERTEX_LIMIT,
    count_budget: int = MAXIMAL_COUNT_BUDGET,
) -> tuple[frozenset[int], ...]:
    """All maximal matchings, lexicographically sorted.

    Each vertex is either matched or committed to stay exposed; an
    exposed vertex may never see an exposed neighbour, which is exactly
    maximality.  The lowest undecided vertex is matched to each
    undecided neighbour in adjacency order, then left exposed.  Budgets
    and the explicit stack as in enumerate_perfect_matchings; a
    vertex_limit of None means MAXIMAL_VERTEX_LIMIT.  A decode of
    _maximal_masks.
    """
    masks = _maximal_masks(g, vertex_limit=vertex_limit, count_budget=count_budget)
    return tuple(frozenset(_decode(mask)) for mask in masks)


def _blossom_argmax(
    g: Graph, weights: Sequence[Fraction], shift: Fraction | None = None
) -> tuple:
    """Run the integer blossom on the weights times the LCM of their
    denominators; a positive scale keeps every comparison, so the
    engine makes the same choices as it would over the rationals.
    Returns (matching, potentials, odd sets), the duals in the original
    units.  With a shift > 0 the scale covers its denominator too, and
    one engine run returns two such results: for the weights, then for
    the weights plus the shift."""
    fracs = [Fraction(weights[eid]) for eid in range(g.m)]
    dens = [w.denominator for w in fracs]
    if shift is not None:
        dens.append(shift.denominator)
    scale = math.lcm(*dens)
    pair_weight = {
        (u, v): w.numerator * (scale // w.denominator)
        for (u, v), w in zip(g.edges, fracs)
    }
    adjacency = [[u for u, _ in g.adj[v]] for v in range(g.n)]
    unit = 2 * scale  # the blossom's duals are doubled

    def result(pairs, potentials, odd_sets):
        out = set()
        for u, v in pairs:
            eid = g.edge_id(u, v)
            if eid is None:
                raise InternalError(f"blossom matched a non-edge {(u, v)}")
            out.add(eid)
        odd_sets = tuple((b, Fraction(z, unit)) for b, z in odd_sets)
        return frozenset(out), tuple(Fraction(y, unit) for y in potentials), odd_sets

    if shift is None:
        return result(*max_weight_matching_pairs(g.n, pair_weight, adjacency))
    int_shift = shift.numerator * (scale // shift.denominator)
    first, second = max_weight_matching_pairs(g.n, pair_weight, adjacency, int_shift)
    return result(*first), result(*second)


def _shifted_run(g: Graph, w: tuple[Fraction, ...]) -> tuple:
    """The maximum-weight matching of w, and (P, potentials, odd sets)
    of the best perfect matching P with its dual, or None when g has
    none; one engine run answers both.

    Every weight is shifted by 1 + sum(w): any larger matching then
    beats any smaller one, so the optimum under the shift has maximum
    cardinality and, among perfect matchings, maximum original weight.
    Lowering its potentials by half the shift turns its dual into one
    of value w(P) for the original weights.
    """
    shift = Fraction(1) + sum(w, Fraction(0))
    (best, _, _), (m, potentials, odd_sets) = _blossom_argmax(g, w, shift)
    if len(m) * 2 != g.n:
        return best, None
    half = shift / 2
    return best, (m, tuple(y - half for y in potentials), odd_sets)


def _lex_tiebreak(weights: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Weights whose unique optimum is the lexicographically first
    optimum of the given ones.

    With L the LCM of the denominators, two matching weights differ by
    a multiple of 1/L.  Edge e gains 2**(m-1-e) / (2**m L), and one
    matching's gains add up to less than 1/L, so an optimum of the new
    weights is an optimum of the old ones.  Among those it holds the
    lowest-numbered edge where two differ: the first sorted edge tuple
    among matchings of one size, and among maximal matchings too, since
    no two of them are nested.  Every new weight is positive, so the
    new optimum is maximal.
    """
    m = len(weights)
    unit = math.lcm(*(w.denominator for w in weights)) << m
    return tuple(w + Fraction(1 << (m - 1 - e), unit) for e, w in enumerate(weights))


def blossom_max_matching(g: Graph, weights: Sequence) -> frozenset[int]:
    """Maximum-weight matching via the blossom engine, any graph size."""
    return _blossom_argmax(g, validate_weights(g, weights))[0]


def best_matchings(g: Graph, weights: Sequence) -> tuple:
    """(maximum-weight matching, best perfect matching or None) from one
    engine run: the matchings that blossom_max_matching and
    shift_perfect_matching return."""
    best, best_perfect = _shifted_run(g, validate_weights(g, weights))
    return best, None if best_perfect is None else best_perfect[0]


def max_weight_matching(g: Graph, weights: Sequence) -> frozenset[int]:
    """A matching of maximum total weight: the lexicographically first
    optimum among the maximal matchings, one of which is optimal because
    the weights are nonnegative.
    """
    return _blossom_argmax(g, _lex_tiebreak(validate_weights(g, weights)))[0]


def perfect_matching_dual(g: Graph, weights: Sequence) -> tuple:
    """Best perfect matching, with a perfect-matching dual that proves it:
    returns (P, potentials, odd sets), the dual of value w(P).  One
    engine run under the shift of _shifted_run.  Raises
    NoPerfectMatching when none exists.
    """
    w = validate_weights(g, weights)
    if g.n % 2:
        raise NoPerfectMatching("odd vertex count")
    best_perfect = _shifted_run(g, w)[1]
    if best_perfect is None:
        raise NoPerfectMatching("no perfect matching exists")
    return best_perfect


def shift_perfect_matching(g: Graph, weights: Sequence) -> frozenset[int]:
    """Best perfect matching via the blossom engine and a weight shift;
    perfect_matching_dual without the dual."""
    return perfect_matching_dual(g, weights)[0]


def max_weight_perfect_matching(g: Graph, weights: Sequence) -> frozenset[int]:
    """The lexicographically first perfect matching of maximum total
    weight.  Raises NoPerfectMatching when none exists.
    """
    return shift_perfect_matching(g, _lex_tiebreak(validate_weights(g, weights)))


def _perfect_matching(g: Graph) -> frozenset[int] | None:
    """A perfect matching of g, or None: a maximum-cardinality matching."""
    if g.n % 2 or any(g.degree(v) == 0 for v in range(g.n)):
        return None
    m = _blossom_argmax(g, uniform_weights(g))[0] if g.n else frozenset()
    return m if len(m) * 2 == g.n else None


def has_perfect_matching(g: Graph) -> bool:
    """Polynomial check via maximum-cardinality matching."""
    return _perfect_matching(g) is not None


# ---------------------------------------------------------------------------
# weight I/O and random draws


def parse_weight_csv(text: str, m: int) -> tuple[Fraction, ...]:
    """Read "edge_id,value" lines; value is "num/den" or an integer.

    Every edge id 0..m-1 must appear exactly once.  Comment lines start
    with '#'.
    """
    values: dict[int, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'edge_id,value'")
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


def random_weights(
    g: Graph,
    rng: random.Random,
    max_numerator: int = 12,
    max_denominator: int = 6,
) -> tuple[Fraction, ...]:
    """Small random rationals with at least one positive entry."""
    while True:
        w = tuple(
            Fraction(rng.randint(0, max_numerator), rng.randint(1, max_denominator))
            for _ in range(g.m)
        )
        if any(x > 0 for x in w):
            return w
