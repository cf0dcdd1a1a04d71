"""The matching ratio eta and its machine-checkable certificates.

For a weighting w (nonnegative rationals, not all zero) define the
ratio of the best perfect matching weight to the best matching weight.
eta(g) is the worst case over all weightings.  It lives in [0, 1]:
it is 0 exactly when some edge lies outside every perfect matching,
and 1 exactly when every maximal matching is perfect.

eta_exact computes the value by linear programming over the reciprocal:
for each maximal matching M, the largest weight M can carry while every
perfect matching stays at weight <= 1 is

    s(M) = max { w(M) : w(P) <= 1 for every perfect matching P, w >= 0 }

and 1/eta = max_M s(M).  An optimal w may be supported on M itself
(dropping other coordinates never hurts the objective and only relaxes
the constraints), which keeps each LP tiny.  With w supported on M, the
row of P reads w(P & M) <= 1, so it depends only on the trace P & M.
The LP keeps one row per trace that is maximal under inclusion: with
w >= 0, the row of a trace is implied by the row of any trace that
contains it, so the dropped rows never change s(M) or the feasible set.
The returned witness is re-evaluated through the independent matching
engines before the result is accepted; a mismatch raises InternalError.

Most LPs never run: a greedy cover bounds s(M) from above first.  The
dual of s(M) is a fractional cover of M by perfect matchings (Lovasz
1975, "On the ratio of optimal integral and fractional covers"), so a
cover of M q times over proves a bound by weak duality.  Let c
traces t_i = P_i & M, repeats allowed, cover every edge of M at least q
times.  A feasible w has w(t_i) <= w(P_i) <= 1, so q w(M) <= sum w(t_i)
<= c, and s(M) <= c/q.  With the best s so far p/q in lowest terms, M
is skipped when a greedy cover of fold q needs at most p traces: then
s(M) <= best s, so M fails the strict s > best test that picks the
result, and the value, the argmax and its LP assignment are those of
the full scan.  One routine, _cover_count, counts both covers; only
its rows and its fold differ.  The cheap cover runs first: the whole
perfect matchings as rows, with q = 1 and p = floor(best s).  A mask
that passes it gets its maximal traces once; the cover of fold q runs
over them, and they are the LP's rows if it runs.

eta = 0 is decided before the scan, from the perfect matchings it needs
anyway: eta is 0 iff the OR of their masks misses an edge, and the
lowest missing bit is the first edge, in id order, that is_eta_zero
would name.  No blossom runs for it.  Only when the perfect-matching
enumeration is over budget does is_eta_zero decide, in a few engine
rounds on g, each a best perfect matching under weight 1 on the edges
that no perfect matching found so far holds, so that an eta-zero graph
past the enumeration limits still gets its answer; a graph it finds
eta-zero-free gets the enumeration's error.  Deciding eta = 0 before
the maximal enumeration, which by default refuses from 21 vertices
rather than 27, keeps its answer there too.

The scan runs over integer edge masks (bit e for edge e) from start
to end: it reads the sorted mask streams of matching._maximal_masks
and matching._perfect_masks, and decodes edge ids only for the LPs
that run.  It meets each automorphism orbit of maximal matchings once.
An automorphism sigma of g permutes the perfect matchings, so
s(sigma M) = s(M).  When M is met, the masks of its whole orbit (its
closure under the generators from symmetry.edge_automorphisms, each
applied to a mask through one lookup table per 8 edge ids) join a set
of seen masks, and a later M in that set is skipped before its greedy
cover or its LP.  This changes no output.  The best s so far never
decreases, and once M is met it is at least s(M): either M's LP was
solved, or one of M's greedy covers showed that s(M) is at most the
best s.  So a skipped orbit-mate would fail the strict s > best test
that picks the result, and the value, the argmax and its LP
assignment are those of the full scan.

So the scan reads only the masks that can start an orbit: with a
nontrivial group, matching._maximal_masks lists only the maximal
matchings whose lowest edge is an orbit leader, the lowest edge of its
edge orbit (symmetry.edge_orbit_leaders), in the same order.  This
changes no decision of the scan.  If M's lowest edge e is not a
leader, some automorphism sigma maps e to a lower edge, and sigma M,
whose lowest edge is then below e, comes before M in the lexicographic
stream.  So M's orbit was met before M, and the full scan skips M.
The first mask of every orbit is therefore a leader mask, and the
seen set holds the same masks at every leader mask as in the full
scan.

The budget's maximal_count keeps its exact meaning: the scan refuses
exactly when g has more maximal matchings than that.  Every orbit has
a leader mask, so once every leader mask's orbit is closed, the seen
set holds every maximal matching.  The scan refuses as soon as the
seen set outgrows the budget.  The leader enumeration refuses past the
budget too, which is sound, as its masks are some of g's maximal
matchings.  With a trivial group, the enumeration lists every maximal
matching and alone enforces the budget.

After the stop at s = 3 below, the scan returns at once when a count
bound proves the budget holds.  Maximal matchings of g are maximal
independent sets of its line graph, which has m vertices, so there are
at most 3^(m/3) of them (Moon and Moser 1965); when 3^m <= limit^3, g
has at most limit of them and the scan cannot refuse.  Otherwise the
orbits of the remaining leader masks are still closed, with no greedy
cover and no LP, before the result is returned, so the refusal stays
exact.

On a bridgeless graph with every degree 3, the scan also stops once
the best s reaches 3.  There every odd vertex set has an odd number of
boundary edges, at least 3 of them, so the all-1/3 vector lies in the
perfect-matching polytope (Edmonds): it is a convex combination of
perfect matchings P.  A feasible w has w(P) <= 1 for each of them, so
w(E)/3 <= 1, and s(M) <= w(E) <= 3 for every M.  No later M can pass
the strict s > best test, so the value, the argmax and its LP
assignment are again those of the full scan.  The paper's lower bound
eta >= 1/3 is the same fact.

Certificates bound eta from one side and carry enough raw data for
verify() to recheck the claim from scratch.  A cap comes from one
blossom call, with the Edmonds dual that proves it (see cap_certificate).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

from .blossom import dual_objective
from .classify import is_bridgeless, is_independent
from .errors import (
    BadParameters,
    Budget,
    BudgetExceeded,
    IncludeNotMatching,
    InternalError,
    NoPerfectMatching,
    ParseError,
)
from .graphs import Graph, neighbor_masks, subgraph
from .lp import OPTIMAL, program, solve, solve_ints
from .matching import (
    _decode,
    _lex_tiebreak,
    _maximal_masks,
    _perfect_masks,
    _perfect_matching,
    best_integer_matchings,
    has_perfect_matching,
    integer_weights,
    is_matching,
    matching_weight,
    max_weight_matching,
    perfect_matching_dual,
    saturated,
    unsaturated,
    validate_weights,
)
from .symmetry import edge_automorphisms, edge_orbit_leaders

CAP_UPPER = "cap_upper"
INDEPENDENT_SET_UPPER = "independent_set_upper"
BERGE_COVER_LOWER = "berge_cover_lower"
ODD_COMPONENT_UPPER = "odd_component_upper"


@dataclass(frozen=True)
class EtaResult:
    """eta value plus a witness weighting that attains it.

    argmax_matching is the lexicographically first maximum-weight
    maximal matching under the witness, of weight argmax_weight, and
    worst_pm_weight the best perfect matching weight; their quotient
    reproduces value exactly.
    """

    value: Fraction
    witness_weights: tuple[Fraction, ...]
    argmax_matching: tuple[int, ...]
    argmax_weight: Fraction
    worst_pm_weight: Fraction


@dataclass(frozen=True)
class BoundCertificate:
    """A one-sided bound on eta with its supporting structure.

    kind selects the payload:
      cap_upper: matching M + cap, bound = cap / |M|; a perfect matching
          meeting M in cap edges, and a dual of value cap for the weights
          [e in M]: potentials (one per vertex) and odd_sets (B, z)
      independent_set_upper: maximal matching + its exposed vertex set,
          bound = (n - 2|S|) / (n - |S|)
      berge_cover_lower: perfect matchings with multiplicities covering
          every edge cover_count times, 3 * cover_count in total;
          bound = 1/3 from below
      odd_component_upper: a cap_upper payload plus the components
          left when the matching's endpoints are deleted

    The JSON format is the table _PAYLOAD, one row per payload field.
    """

    kind: str
    bound: Fraction
    matching: tuple[int, ...] | None = None
    independent_set: tuple[int, ...] | None = None
    cap: int | None = None
    families: tuple[tuple[tuple[int, ...], int], ...] | None = None
    cover_count: int | None = None
    component_list: tuple[tuple[int, ...], ...] | None = None
    perfect_matching: tuple[int, ...] | None = None
    potentials: tuple[Fraction, ...] | None = None
    odd_sets: tuple[tuple[tuple[int, ...], Fraction], ...] | None = None


# ---------------------------------------------------------------------------
# the two degenerate cases


def is_eta_zero(g: Graph) -> tuple[bool, int | None]:
    """True with the first edge, in id order, that lies in no perfect
    matching.

    unseen, every edge off one perfect matching at first, holds every
    edge in none.  Each round runs the engine on g for a best perfect
    matching P under the weights [e in unseen].  If P meets unseen, its
    edges leave it; if not, P is optimal at weight 0, so no perfect
    matching meets unseen, which is then exactly the edges in none.
    """
    pm = _perfect_matching(g)
    if pm is None:
        raise NoPerfectMatching("eta needs a graph with a perfect matching")
    unseen = set(range(g.m)) - pm
    while unseen:
        pm = best_integer_matchings(g, [int(e in unseen) for e in range(g.m)], 1)[1]
        if unseen.isdisjoint(pm):
            return True, min(unseen)
        unseen -= pm
    return False, None


def is_eta_one(g: Graph) -> tuple[bool, frozenset[int] | None]:
    """True iff every maximal matching is perfect.

    Returns (True, None), or (False, witness) with a maximal matching
    that is not perfect.  For connected g the answer is True exactly
    for K_2n and K_n,n (Sumner, "Randomly matchable graphs", 1979).

    A maximal matching leaves v exposed exactly when its edges saturate
    N(v), or vu could join it for an exposed neighbour u.  Conversely a
    matching of g - v that saturates N(v) grows greedily over g - v into
    a maximal matching of g that exposes v: every edge at v ends in a
    matched vertex.  Such a matching exists iff one exists among the
    edges of g - v that touch N(v), the local graph of v.  Weighted by
    the number of N(v) vertices it covers, a matching of the local graph
    weighs as many N(v) vertices as it saturates, so a maximum-weight
    one saturates N(v) iff any does.

    So each v, in id order, costs one max_weight_matching on its local
    graph, built on its own ends (graphs.subgraph) so that the blossom's
    size follows v's neighbourhood, not g.  The first optimum that
    saturates N(v), extended greedily in edge-id order over g - v, is
    the witness.
    """
    if not has_perfect_matching(g):
        raise NoPerfectMatching("eta needs a graph with a perfect matching")
    for v in range(g.n):
        nbrs = set(g.neighbors(v))
        local = sorted({eid for u in nbrs for x, eid in g.adj[u] if x != v})
        if not local:
            continue  # no edge of g - v touches N(v)
        weights = [(a in nbrs) + (b in nbrs) for a, b in map(g.edges.__getitem__, local)]
        best = max_weight_matching(subgraph(g, local), weights)
        if sum(weights[e] for e in best) < len(nbrs):
            continue
        chosen = {local[e] for e in best}
        busy = {v}.union(*(g.edges[eid] for eid in chosen))
        for eid, (a, b) in enumerate(g.edges):
            if a not in busy and b not in busy:
                chosen.add(eid)
                busy.update((a, b))
        return False, frozenset(chosen)
    return True, None


# ---------------------------------------------------------------------------
# exact value


def _cover_count(mask: int, rows: Sequence[int], fold: int, bound: int) -> int:
    """Rows needed to cover every bit of mask fold times, greedily.

    c rows (repeats allowed) that cover each edge of M fold times show
    s(M) <= c / fold when each row is a perfect matching or its trace
    on M (see the module docstring); used only to skip an LP when the
    count is at most bound.  Layer k holds the bits still to be covered
    more than k times: top is layer 0 and deep the layers below it, so
    a row's gain, the sum of its overlaps with the layers, is the cover
    demand left on its edges; the first row of greatest gain is taken,
    and each of its bits leaves the highest layer that holds it.  A
    row's gain is one popcount, plus the deep layers' only at fold > 1
    and only for a row that meets top.  Past bound the count does not
    matter, so it returns bound + 1 as soon as the cover needs more
    than bound rows; an edge that no row covers runs the count past
    bound too.
    """
    top = mask
    deep = [mask] * (fold - 1)
    count = 0
    while top:
        if count == bound:
            return bound + 1
        best_gain = 0
        best_row = 0
        for row in rows:
            gain = (row & top).bit_count()
            if deep and gain:
                for layer in deep:
                    hit = row & layer
                    if not hit:
                        break  # the layers are nested
                    gain += hit.bit_count()
            if gain > best_gain:
                best_gain = gain
                best_row = row
        if deep:
            top, *deep = [
                layer & ~best_row | upper & best_row
                for layer, upper in zip([top, *deep], [*deep, 0])
            ]
        else:
            top &= ~best_row
        count += 1
    return count


def _maximal_traces(m_mask: int, pm_masks: Sequence[int]) -> list[int]:
    """Traces P & M of the perfect matchings on M, maximal under inclusion.

    Empty and repeated traces are dropped, and so is every trace that
    another one strictly contains.  Sorted, so the LP's rows come in a
    fixed order.
    """
    traces = {pm & m_mask for pm in pm_masks}
    traces.discard(0)
    kept: list[int] = []
    # a strict superset has more bits, so it is seen (or dominated) first
    for t in sorted(traces, key=int.bit_count, reverse=True):
        for u in kept:
            if t & u == t:
                break
        else:
            kept.append(t)
    return sorted(kept)


def _support_lp_max(
    mask: int, traces: Sequence[int]
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """max sum(w_e) over the edges e of mask, s.t. each PM's restriction
    <= 1; the assignment lists w_e by ascending e.

    mask is an edge mask (bit e for edge e), as the scan reads it from
    matching._maximal_masks, whose keys keep it in their low m bits, and
    traces are its maximal traces (_maximal_traces): one row each, which
    is exact because w >= 0.  The rows are built as 0/1 ints and solved
    by lp.solve_ints.
    """
    edges = _decode(mask)
    rows = [[*(t >> e & 1 for e in edges), 1] for t in traces]
    sol = solve_ints([-1] * len(edges), rows)
    if sol.status != OPTIMAL or sol.assignment is None:
        raise InternalError(f"support LP for {edges} ended {sol.status}")
    return -sol.value, sol.assignment


def _orbit_tables(gens: Sequence[Sequence[int]]) -> list[list[list[int]]]:
    """Per edge permutation, one lookup table per chunk of 8 edge ids:
    entry b of chunk c is the image of the mask b << 8c.

    A table is filled by doubling: the entries with bit j set are those
    without it, ORed with the image of that bit.  The last chunk's table
    covers only the edges it holds.
    """
    out = []
    for perm in gens:
        tables = []
        for lo in range(0, len(perm), 8):
            tab = [0]
            for e in perm[lo : lo + 8]:
                bit = 1 << e
                tab += [x | bit for x in tab]
            tables.append(tab)
        out.append(tables)
    return out


def _add_orbit(
    mask: int, tables: Sequence[Sequence[Sequence[int]]], seen: set[int]
) -> None:
    """Add every image of mask under the group whose generators gave
    tables (see _orbit_tables); the image of a mask under one generator
    is the OR of one lookup per chunk."""
    seen.add(mask)
    frontier = [mask]
    while frontier:
        m = frontier.pop()
        for chunks in tables:
            image = 0
            rest = m
            for tab in chunks:
                image |= tab[rest & 255]
                rest >>= 8
            if image not in seen:
                seen.add(image)
                frontier.append(image)


def eta_exact(g: Graph, *, budget: Budget = Budget()) -> EtaResult:
    """Exact eta by LP over the enumerated matchings.

    Refuses graphs over the budget's vertex limit, or with more than
    its maximal_count maximal matchings or perfect_count perfect ones,
    though only orbit leaders' maximal matchings are enumerated (see
    the module docstring).  The result carries a witness weighting,
    re-evaluated through the matching engines before returning.

    eta = 0 is read off the perfect-matching masks: the first edge that
    none of them covers carries the witness weight.  When that
    enumeration is over budget, is_eta_zero decides instead; if it
    finds no such edge, the enumeration's BudgetExceeded is raised.
    Raises NoPerfectMatching when g has no perfect matching, and
    BadParameters when g has no edges to weight.
    """
    try:
        pm_masks = _perfect_masks(g, budget=budget)
    except BudgetExceeded:
        zero, bad_edge = is_eta_zero(g)
        if not zero:
            raise
    else:
        if not pm_masks:
            raise NoPerfectMatching("eta needs a graph with a perfect matching")
        missing = ((1 << g.m) - 1) & ~reduce(or_, pm_masks)
        zero, bad_edge = missing != 0, (missing & -missing).bit_length() - 1
    if zero:
        w = [Fraction(int(e == bad_edge)) for e in range(g.m)]
        return _witness_result(g, w, Fraction(1), Fraction(0))
    if not g.m:  # the empty graph: its empty matching is perfect
        raise BadParameters("graph has no edges, so eta is undefined")

    gens = edge_automorphisms(g)
    maximals = _maximal_masks(
        g, budget=budget, leaders=edge_orbit_leaders(gens, g.m) if gens else None
    )
    tables = _orbit_tables(gens)
    # s(M) <= 3 on a bridgeless cubic graph (see the module docstring)
    cubic = all(len(row) == 3 for row in g.adj)
    ceiling = 3 if cubic and is_bridgeless(g)[0] else None

    best_s: Fraction | None = None
    best_floor = 0  # floor(best_s): a cover count is <= best_s iff <= this
    best_mask = 0
    best_assignment: tuple[Fraction, ...] | None = None
    limit = budget.maximal_count
    seen: set[int] = set()  # masks of the orbits met so far
    stopped = False  # at the ceiling: only the budget is left to check
    for mask in maximals:
        if mask in seen:
            continue
        _add_orbit(mask, tables, seen)
        if len(seen) > limit:
            raise BudgetExceeded("maximal_count", limit, len(seen))
        if stopped or (
            best_s is not None
            and _cover_count(mask, pm_masks, 1, best_floor) <= best_floor
        ):
            continue
        traces = _maximal_traces(mask, pm_masks)
        if best_s is not None and _cover_count(
            mask, traces, best_s.denominator, best_s.numerator
        ) <= best_s.numerator:
            continue
        s, assignment = _support_lp_max(mask, traces)
        if best_s is None or s > best_s:
            best_s = s
            best_floor = s.numerator // s.denominator
            best_mask = mask
            best_assignment = assignment
            stopped = best_s == ceiling
            if stopped and (not gens or 3**g.m <= limit**3):
                break  # within budget: every maximal matching listed, or the count bound
    if best_s is None or best_s < 1:
        raise InternalError(f"LP scan ended with s = {best_s}, expected >= 1")

    w = [Fraction(0)] * g.m
    for e, val in zip(_decode(best_mask), best_assignment):
        w[e] = val
    return _witness_result(g, w, best_s, Fraction(1))


def _witness_result(
    g: Graph, weights: Sequence[Fraction], best: Fraction, worst: Fraction
) -> EtaResult:
    """The EtaResult of a witness weighting, re-evaluated independently:
    one blossom run on the lexicographically tie-broken int weights
    (matching._lex_tiebreak) must find a best matching of weight best
    and a best perfect matching of weight worst (those of
    max_weight_matching and max_weight_perfect_matching), or
    InternalError is raised.
    """
    w = validate_weights(g, weights)
    arg, pm = best_integer_matchings(g, *_lex_tiebreak(w))
    if pm is None:
        raise NoPerfectMatching("no perfect matching exists")
    got = (matching_weight(w, arg), matching_weight(w, pm))
    if got != (best, worst):
        raise InternalError(
            f"witness re-evaluates to {got[1]}/{got[0]}, the scan found {worst}/{best}"
        )
    return EtaResult(
        value=worst / best,
        witness_weights=w,
        argmax_matching=tuple(sorted(arg)),
        argmax_weight=best,
        worst_pm_weight=worst,
    )


# ---------------------------------------------------------------------------
# upper bounds from maximal matchings


def _exposed_bound(n: int, s: int) -> Fraction:
    return Fraction(n - 2 * s, n - s)


def maximal_matching_bound(g: Graph, m: Iterable[int]) -> BoundCertificate:
    """Upper bound from one maximal matching.

    Weighting the matching 1 and everything else 0 caps every perfect
    matching at |V|/2 - |S| of the |M| weight units, which yields
    bound (n - 2|S|) / (n - |S|) with S the exposed vertices.
    """
    mm = frozenset(m)
    if not is_matching(g, mm):
        raise IncludeNotMatching("bound needs a matching")
    exposed = unsaturated(g, mm)
    if not is_independent(g, exposed):
        raise BadParameters("matching is not maximal")
    if not mm:
        raise BadParameters("graph has no edges, so eta is undefined")
    return BoundCertificate(
        kind=INDEPENDENT_SET_UPPER,
        bound=_exposed_bound(g.n, len(exposed)),
        matching=tuple(sorted(mm)),
        independent_set=exposed,
    )


def best_maximal_matching_bound(
    g: Graph, *, budget: Budget = Budget()
) -> BoundCertificate:
    """The strongest exposed-set bound: scan for a minimum maximal matching.

    The bound shrinks as the exposed set grows, so the full scan keeps
    the first maximal matching of minimum size (the stream is sorted,
    which fixes the tie-break).
    """
    maximals = _maximal_masks(g, budget=budget)
    return maximal_matching_bound(g, _decode(min(maximals, key=int.bit_count)))


def find_independent_set_bound(
    g: Graph, set_size: int, *, budget: Budget = Budget()
) -> BoundCertificate | None:
    """Witness search: an independent S, |S| = set_size, with g - S matchable.

    A perfect matching of g - S is then a maximal matching of g exposing
    exactly S, so it certifies the exposed-set bound without scanning
    every maximal matching.  Vertices are tried in ascending order; the
    first witness wins.  Returns None if no such set exists.  The search
    keeps its path in chosen rather than on the interpreter's stack.
    A full node whose remainder g - S has a component of odd size has
    no perfect matching there, so it is refused by a flood fill before
    g - S is built.  An isolated vertex is such a component, so g - S
    is then the subgraph of its edges (graphs.subgraph), its vertices
    in ascending order.  One blossom run gives its first perfect
    matching in lexicographic order, or None.
    """
    if set_size < 0 or set_size > g.n:
        raise BadParameters(f"set size {set_size} out of range")
    if (g.n - set_size) % 2:
        return None
    limit = budget.witness_nodes
    nbrs = neighbor_masks(g)
    full = (1 << g.n) - 1
    chosen: list[int] = []
    taken = 0  # the mask of chosen
    nodes = 0
    v = 0  # the first candidate of the node being visited
    while True:
        nodes += 1
        if nodes > limit:
            raise BudgetExceeded("witness_nodes", limit, nodes)
        if len(chosen) == set_size:
            rest = full & ~taken
            if not any(c.bit_count() % 2 for c in _mask_components(nbrs, rest)):
                kept = [e for e, (a, b) in enumerate(g.edges) if rest >> a & rest >> b & 1]
                sub = subgraph(g, kept)
                pm = best_integer_matchings(sub, *_lex_tiebreak([1] * sub.m))[1]
                if pm is not None:
                    return maximal_matching_bound(g, frozenset(kept[e] for e in pm))
            v = g.n  # a full node adds no vertex
        # the next vertex to add: this node's first candidate from v, else
        # the next candidate of the deepest ancestor that has one left
        while True:
            if g.n - v >= set_size - len(chosen):  # room for the rest
                while v < g.n and nbrs[v] & taken:
                    v += 1
                if v < g.n:
                    break
            if not chosen:
                return None
            u = chosen.pop()
            taken ^= 1 << u
            v = u + 1
        chosen.append(v)
        taken |= 1 << v
        v += 1


def _mask_components(nbrs: Sequence[int], rest: int) -> Iterator[int]:
    """The components of the subgraph induced on the vertex mask rest,
    as vertex masks, in order of their lowest vertex, found by a flood
    fill over nbrs (bit u of nbrs[v] set for each neighbour u of v)."""
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= nbrs[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & rest & ~comp
            comp |= frontier
        yield comp
        rest &= ~comp


# ---------------------------------------------------------------------------
# cap bounds


def cap_certificate(g: Graph, m: Iterable[int]) -> BoundCertificate:
    """Upper bound cap/|m| where cap = max edges of m inside one perfect
    matching.

    Weighting m 1 and the rest 0 makes some matching worth |m| while no
    perfect matching exceeds cap.  One best perfect matching under these
    weights attains cap, and its Edmonds dual, of value cap, proves that
    no perfect matching does better; both go into the certificate.
    Raises NoPerfectMatching when g has no perfect matching.
    """
    mm = tuple(sorted(frozenset(m)))
    if not mm:
        raise BadParameters("cap bound needs a nonempty matching")
    if not is_matching(g, mm):
        raise IncludeNotMatching("cap bound needs a matching")
    in_m = frozenset(mm)
    pm, potentials, odd_sets = perfect_matching_dual(g, [e in in_m for e in range(g.m)])
    cap = len(pm & in_m)
    return BoundCertificate(
        kind=CAP_UPPER,
        bound=Fraction(cap, len(mm)),
        matching=mm,
        cap=cap,
        perfect_matching=tuple(sorted(pm)),
        potentials=potentials,
        odd_sets=odd_sets,
    )


def find_cap_matching(
    g: Graph, size: int, max_cap: int, *, budget: Budget = Budget()
) -> frozenset[int] | None:
    """First matching of the given size whose cap is at most max_cap.

    Matchings are tried in lexicographic edge-id order.  The cap of a
    candidate is its largest overlap with any perfect matching, the
    cap that cap_certificate computes and certifies.  Returns None when
    no matching of that size passes.

    The search prunes on partial caps.  Adding edges never lowers an
    overlap, so once some perfect matching meets the partial matching
    in more than max_cap edges, no matching below that node passes.
    Skipping such a node skips no passing matching, and the order of
    the rest is kept, so the first answer is the one the unpruned
    search returns.  One overlap counter per perfect matching is
    raised when an edge is pushed and lowered when it is popped; an
    edge is refused when a perfect matching through it is already at
    max_cap.  Every matching that reaches full size has passed.  The
    search keeps its path in chosen rather than on the interpreter's
    stack.
    """
    if size < 1 or max_cap < 0:
        raise BadParameters("need size >= 1 and max_cap >= 0")
    pm_masks = _perfect_masks(g, budget=budget)
    if not pm_masks:
        raise NoPerfectMatching("cap search needs perfect matchings")
    edges = g.edges
    # the perfect matchings through each edge, by index into pm_masks
    through = [
        [i for i, pm in enumerate(pm_masks) if pm >> eid & 1] for eid in range(g.m)
    ]
    overlap = [0] * len(pm_masks)
    used = [False] * g.n
    chosen: list[int] = []
    eid = 0  # the next candidate edge of the deepest node
    while True:
        if len(chosen) == size:
            return frozenset(chosen)
        last = g.m - (size - len(chosen))  # leaves room for the rest
        while eid <= last and (
            used[edges[eid][0]]
            or used[edges[eid][1]]
            or any(overlap[i] == max_cap for i in through[eid])
        ):
            eid += 1
        if eid <= last:
            u, v = edges[eid]
            used[u] = used[v] = True
            chosen.append(eid)
            for i in through[eid]:
                overlap[i] += 1
            eid += 1
            continue
        # this node is done: undo its parent's choice and try the next edge
        if not chosen:
            return None
        eid = chosen.pop()
        u, v = edges[eid]
        used[u] = used[v] = False
        for i in through[eid]:
            overlap[i] -= 1
        eid += 1


def odd_component_cert(g: Graph, f: Iterable[int]) -> BoundCertificate:
    """Cap bound justified by parity: delete f's endpoints, list components.

    Each odd component must send one vertex to the deleted set in any
    perfect matching, which limits how many edges of f a perfect
    matching can use.  The certificate is cap_certificate's, plus the
    components.
    """
    cert = cap_certificate(g, f)
    comps = _components_without(g, cert.matching)
    return replace(cert, kind=ODD_COMPONENT_UPPER, component_list=comps)


def _components_without(g: Graph, m: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The components of g less the ends of m, as graphs.components lists them."""
    nbrs = neighbor_masks(g)
    rest = ((1 << g.n) - 1) & ~sum(1 << v for v in saturated(g, m))
    return tuple(map(_decode, _mask_components(nbrs, rest)))


# ---------------------------------------------------------------------------
# the 1/3 lower bound witness


def berge_witness(g: Graph, *, budget: Budget = Budget()) -> BoundCertificate:
    """A family of perfect matchings covering every edge equally often.

    Solves the packing LP: maximise the total weight of a rational
    combination mu of perfect matchings, with the coverage of every
    edge at most 1/3.  Each perfect matching meets each vertex once, so
    the three edges at a vertex carry coverage summing to sum(mu); the
    optimum is at most 1, and optimum 1 forces coverage exactly 1/3
    everywhere (attained on every bridgeless cubic graph).  Clearing
    denominators gives 3k matchings covering each edge k times.
    Uniform weights then show that no weighting pushes the best perfect
    matching below a third of the best matching, hence eta >= 1/3.

    The LP is stated on unit rows, coverage at most 1 with optimum 3,
    so its solution x is 3 mu.  That is the same LP with every variable
    scaled by 3: its integer tableau starts as the 1/3 rows' tableau
    with each matching's column divided by 3, which keeps the sign of
    every reduced cost and the order of every ratio test, so Bland's
    rule takes the same pivots to the same vertex.  On unit rows more
    pivots have p == det, which lp._pivot does without rescaling the
    other rows.  integer_weights reads the cover off x: cover_count is
    the LCM k of x's denominators, and a matching's multiplicity is
    its x times k, so each edge is covered k times by 3k matchings.
    The least multiple of 3 that clears every entry of mu is 3k, so
    this is the cover that clearing mu's denominators gives.

    Raises BadParameters on a graph with a bridge, a vertex of degree
    other than 3, or an optimum below 1.
    """
    ok, bridge = is_bridgeless(g)
    if not ok:
        raise BadParameters(f"graph has a bridge (edge {bridge})")
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise BadParameters("the uniform cover needs every degree to be 3")
    pm_masks = _perfect_masks(g, budget=budget)
    if not pm_masks:
        raise NoPerfectMatching("no perfect matchings to combine")
    rows = [([p >> eid & 1 for p in pm_masks], 1) for eid in range(g.m)]
    sol = solve(program([-1] * len(pm_masks), rows))
    if sol.status != OPTIMAL or sol.value != -3:
        raise BadParameters("no uniform fractional cover; graph not as claimed")
    lam, cover = integer_weights(sol.assignment)
    families = tuple((_decode(p), l) for p, l in zip(pm_masks, lam) if l > 0)
    if sum(l for _, l in families) != 3 * cover:
        raise InternalError("uniform cover does not add up to 3 * cover_count")
    return BoundCertificate(
        kind=BERGE_COVER_LOWER,
        bound=Fraction(1, 3),
        families=families,
        cover_count=cover,
    )


# ---------------------------------------------------------------------------
# verification and serialisation


def verify(g: Graph, cert: BoundCertificate) -> tuple[bool, str]:
    """Recheck a certificate from its raw data, by arithmetic alone.

    A cap is attained by the stated perfect matching, and the stated
    dual proves that no perfect matching meets M in more edges.
    """
    try:
        required = _REQUIRED[cert.kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind read from JSON
        return False, f"unknown certificate kind {cert.kind!r}"
    if any(getattr(cert, name) is None for name in required):
        return False, "missing payload"
    # the ids as written, not their set, so that a repeated id fails
    if "matching" in required and not (cert.matching and is_matching(g, cert.matching)):
        return False, "matching field is not a nonempty matching"

    if cert.kind == INDEPENDENT_SET_UPPER:
        exposed = unsaturated(g, cert.matching)
        if tuple(cert.independent_set) != exposed:
            return False, "stated set is not the exposed vertex set"
        if not is_independent(g, exposed):
            return False, "exposed set not independent (matching not maximal)"
        if cert.bound != _exposed_bound(g.n, len(exposed)):
            return False, "bound does not match the exposed-set formula"
        return True, "ok"

    if cert.kind in (CAP_UPPER, ODD_COMPONENT_UPPER):
        m = frozenset(cert.matching)
        p = cert.perfect_matching
        if 2 * len(p) != g.n or not is_matching(g, p):
            return False, "perfect_matching field is not a perfect matching"
        met = len(m.intersection(p))
        if met != cert.cap:
            return False, f"perfect matching meets {met} edges, not cap {cert.cap}"
        if len(cert.potentials) != g.n:
            return False, "potentials do not give one value per vertex"
        weights = {uv: int(e in m) for e, uv in enumerate(g.edges)}
        value = dual_objective(weights, cert.potentials, cert.odd_sets)
        if value != cert.cap:  # None: infeasible
            return False, f"dual value is {value}, certificate says cap {cert.cap}"
        if cert.bound != Fraction(cert.cap, len(m)):
            return False, "bound is not cap / |matching|"
        if cert.kind == ODD_COMPONENT_UPPER:
            if cert.component_list is None:
                return False, "missing components"
            if tuple(cert.component_list) != _components_without(g, m):
                return False, "component list does not match the deletion"
        return True, "ok"

    # the kind left is BERGE_COVER_LOWER
    k = cert.cover_count
    if k < 1:
        return False, "cover count must be positive"
    if cert.bound != Fraction(1, 3):
        return False, "bound of this kind is always 1/3"
    total = 0
    coverage = [0] * g.m
    for edges, mult in cert.families:
        if mult < 1:
            return False, "multiplicities must be positive"
        if len(edges) * 2 != g.n or not is_matching(g, edges):
            return False, "family member is not a perfect matching"
        total += mult
        for e in edges:
            coverage[e] += mult
    if total != 3 * k:
        return False, f"family size {total} is not 3 * {k}"
    if any(c != k for c in coverage):
        return False, "coverage is not uniform"
    return True, "ok"


def encode(x):
    """The JSON value of x: a Fraction as {"num", "den"} strings, which
    keep arbitrary precision; None, int, str and bool as they are; a
    tuple or list as a list of encoded items; a dataclass instance as an
    object of its encoded fields, in field order."""
    if isinstance(x, Fraction):
        return {"num": str(x.numerator), "den": str(x.denominator)}
    if x is None or isinstance(x, (int, str)):  # a bool is an int
        return x
    if isinstance(x, (tuple, list)):
        return list(map(encode, x))
    return {f.name: encode(getattr(x, f.name)) for f in fields(x)}


# The reader accepts only what cert_to_json writes: an id or a count is
# a JSON integer (not a bool, a float or a string), a list is a JSON
# list, a rational is {"num", "den"} in the decimal form that str(int)
# writes with den > 0, and an object has no key beyond its format's.
# Anything else raises ParseError.


def _int(x) -> int:
    if type(x) is not int:
        raise ParseError(f"expected an integer, got {x!r}")
    return x


def _list(xs) -> list:
    if type(xs) is not list:
        raise ParseError(f"expected a list, got {xs!r}")
    return xs


_INT = {int}


def _ints(xs) -> tuple[int, ...]:
    if not {*map(type, _list(xs))} <= _INT:
        raise ParseError(f"expected a list of integers, got {xs!r}")
    return tuple(xs)


def _pair(d, a: str, b: str) -> tuple:
    """The values of a and b in d, a JSON object with no other key."""
    if type(d) is not dict or len(d) != 2:
        raise ParseError(f"expected an object with keys {a!r} and {b!r}, got {d!r}")
    return d[a], d[b]


def _frac(num, den) -> Fraction:
    try:
        p, q = int(num), int(den)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad rational {num!r}/{den!r}") from exc
    if str(p) != num or str(q) != den or q <= 0:
        raise ParseError(f"bad rational {num!r}/{den!r}")
    return Fraction(p, q)


def _fracs(ys) -> tuple[Fraction, ...]:
    """A list of rationals, each an object with keys num and den."""
    out = []
    for y in _list(ys):
        if type(y) is not dict or len(y) != 2:
            raise ParseError(f"bad rational {y!r}")
        out.append(_frac(y["num"], y["den"]))
    return tuple(out)


def _families(fams) -> tuple:
    out = []
    for f in _list(fams):
        edges, k = _pair(f, "edges", "multiplicity")
        out.append((_ints(edges), _int(k)))
    return tuple(out)


def _odd_sets(ss) -> tuple:
    pairs = (_pair(s, "vertices", "value") for s in _list(ss))
    return tuple((_ints(b), _frac(*_pair(z, "num", "den"))) for b, z in pairs)


# The certificate format: one row per BoundCertificate payload field, in
# field order, as (field, JSON key, writer, reader).  A field that is
# None is left out of the JSON, and a key that is absent reads as None.
# Fields of ids are written by list, which is faster than encode's walk
# item by item; the families and odd_sets rows write records of their
# own shape.
_PAYLOAD = (
    ("matching", "matching", list, _ints),
    ("independent_set", "independent_set", list, _ints),
    ("cap", "cap", encode, _int),
    ("families", "families",
     lambda fams: [{"edges": list(e), "multiplicity": k} for e, k in fams],
     _families),
    ("cover_count", "cover_count", encode, _int),
    ("component_list", "components", lambda cs: list(map(list, cs)),
     lambda cs: tuple(map(_ints, _list(cs)))),
    ("perfect_matching", "perfect_matching", list, _ints),
    ("potentials", "potentials", encode, _fracs),
    ("odd_sets", "odd_sets",
     lambda ss: [{"vertices": list(b), "value": encode(z)} for b, z in ss],
     _odd_sets),
)
# The payload fields that verify needs before it checks each kind; the
# odd kind's components are checked after its cap.
_CAP_FIELDS = ("matching", "cap", "perfect_matching", "potentials", "odd_sets")
_REQUIRED = {
    INDEPENDENT_SET_UPPER: ("matching", "independent_set"),
    CAP_UPPER: _CAP_FIELDS,
    ODD_COMPONENT_UPPER: _CAP_FIELDS,
    BERGE_COVER_LOWER: ("families", "cover_count"),
}
# The JSON keys a file of each kind may hold: kind, bound, and the keys
# of the kind's own fields, which for the odd kind add its components.
# A kind the reader does not know holds no payload key.
_KIND_KEYS = {
    kind: {"kind", "bound", *(key for name, key, _, _ in _PAYLOAD if name in required)}
    for kind, required in _REQUIRED.items()
}
_KIND_KEYS[ODD_COMPONENT_UPPER].add("components")


def cert_to_json(cert: BoundCertificate) -> dict:
    out: dict = {"kind": cert.kind, "bound": encode(cert.bound)}
    for name, key, write, _ in _PAYLOAD:
        value = getattr(cert, name)
        if value is not None:
            out[key] = write(value)
    return out


def cert_from_json(data: dict) -> BoundCertificate:
    """The certificate of a JSON object in the format cert_to_json
    writes; any other input raises ParseError."""
    if type(data) is not dict:
        raise ParseError("malformed certificate: not a JSON object")
    try:
        keys = _KIND_KEYS[data.get("kind")]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        keys = {"kind", "bound"}
    if not data.keys() <= keys:
        unknown = sorted(data.keys() - keys)
        raise ParseError(f"malformed certificate: unknown keys {unknown}")
    try:
        return BoundCertificate(
            data["kind"],
            _frac(*_pair(data["bound"], "num", "den")),
            *[read(data[key]) if key in data else None for _, key, _, read in _PAYLOAD],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate: {exc}") from exc
