"""Maximum-weight matching via the primal-dual blossom method.

This follows Galil's formulation of Edmonds' algorithm in the shape
popularised by van Rantwijk's implementation: O(n^3), with explicit
S/T labels, nested blossoms and four delta cases.  All arithmetic is
on Python ints: callers scale rational weights to integers first.
Vertex duals are kept doubled, so a tight edge joins duals of equal
parity; every S-vertex is tied by tight edges to an exposed vertex, all
of which share one dual, so the slack of an S-S edge is even and
halving it with // is exact (and checked).  Every call returns its
final duals, which dual_objective (also used by eta.verify) must show
to be optimal, or InternalError is raised, as it is when any label,
base or mate invariant of the search breaks.

Vertices are 0..n-1.  Weights arrive as a mapping from ordered pairs
(u, v), u < v, to nonnegative ints.

Scaling.  If every weight, and the shift, is c times another call's
for one positive rational c, every dual, slack and step of the run is
c times the other run's: each is a sum, difference, minimum or half
of such quantities, and a halved S-S slack is even in both runs.  So
every comparison and tie goes the same way, and the two calls return
the same matchings, with duals c times apart.

Layout.  All state lives in flat lists indexed by id.  Vertices are
0..n-1; a nontrivial blossom takes an id in n..2n-1 from a free list
when it forms and returns it when it expands, so "b >= n" tells a
blossom from a vertex.  A missing entry is 0 (labels), -1 (mate,
parent, base) or None.  nbrs[v] holds (u, 2 * w_vu) in adjacency[v]
order, and best edges are stored as (v, u, 2 * w_vu), so every slack
dualvar[v] + dualvar[u] - 2 * w_vu is computed inline.  Each stage
starts from exposed, the exposed vertices in id order: an augmentation
matches two of them and no matched vertex is exposed again, so the list
is filtered after each augmentation, and no stage walks all of mate.  A
dual step moves dualvar and blossomdual in place, over the vertices of
forest (see Tie order) and the top-level blossoms; only the resume's
result for w (see Resume) is read off copies.

Nesting.  Blossoms nest up to n/2 deep, past the interpreter's stack,
so expand_blossom and augment_blossom are generators that yield each
sub-blossom to walk into next, and one function, _nested, runs both on
an explicit stack.  Both walk one path round a blossom's cycle, the
even-length side from a child to the base, which toward_base spells
once as a start, a step and each edge oriented along the walk:
expand_blossom relabels the children on it in mid-stage, and
augment_blossom flips the matching along it.

Tie order.  Each dual step keeps the first candidate that is strictly
smaller, so the scan order decides ties: a lower type before a higher
one, and within a type vertices 0..n-1 first, then live blossoms in
creation order.  The blossomdual dict supplies that order (a key is
inserted when its blossom forms and deleted when it expands, so a
reused id still sorts by its new creation), and every pass over
blossoms, as well as the odd_sets output, iterates it.  Two stage
sets, emptied when a stage starts, bound what a dual step reads of the
vertices.  touched holds the vertices whose best edge the stage set;
best edges are cleared with it, so only these can offer a type-2 or
type-3 step.  forest holds the vertices the stage labelled, among them
every vertex of a labelled top-level blossom, so a step moves the
duals of forest alone.  touched is read in id order, so within a
vertex type the step takes the least (slack, vertex id), as a scan of
0..n-1 does.

Resume.  A best perfect matching is a maximum-weight matching under
w + S for a large enough shift S, and one run can find both optima.
The run on w + S starts with every dualvar S above the run on w.  With
S added to every dualvar and 2S to every stored doubled weight, every
slack, every blossom dual and the parity of every S-S slack stay as
they were; of the four dual step candidates only the first,
min(dualvar), changes, and it grows by S.  A step of another type is
taken only when it is strictly below min(dualvar) (ties keep the first
candidate), so it is below min(dualvar) + S too.  Hence the run on
w + S makes the same choices as the run on w, every dualvar S higher,
until the run on w takes a type-1 step, which is its last.  Called with
a shift, the engine reads the result for w off at that step, with the
step applied to copies of the duals; then it holds S as an offset,
extra = S, and chooses the step again.  dualvar, nbrs and the stored
best edges stay as they are: they stand for dualvar + S and doubled
weights 2S higher, which by the argument above leaves every slack,
blossom dual and S-S parity unchanged, so only the type-1 candidate
reads the offset, as min(dualvar) + extra, and the final duals are
dualvar + extra.  From there it is the fresh run on w + S.  When no
vertex is exposed at that step, no label is set and nothing moves, so
both results share one matching and the second's potentials are the
first's plus S.

Tightness.  The scan traverses an edge between two top-level blossoms
exactly when its slack is at most 0.  The usual formulation also keeps
a per-stage list of edges once found tight, and traverses a listed
edge without reading its slack; the two tests agree on every edge the
scan reads.  An edge is listed only at slack <= 0 and with one end in
an S-blossom, in three places: the scan itself; a type-2 or type-3
step, which brings its edge's slack to 0; and the even path of a
mid-stage expansion, whose edges are tight because the expanding
blossom's dual is 0 and each joins a T child to an S child.  No S
label is removed within a stage, and a dual step moves the slack of an
edge with an S end by -delta (to a free end), 0 (to a T end) or
-2 delta (to an S end), never up.  So a listed edge between two
different top-level blossoms always has slack <= 0, and the slack
alone decides.

Forest replay.  Before the stage loop, _forest_replay replays its
leading stages from the empty matching on one alternating forest kept
across stages: the exposed vertices and all they reach by tight edges,
labelled S and T, with a heap of S-to-free and S-to-S edges keyed by
the value of total, the sum of the dual steps so far, at which each
turns tight.  Three arguments let it skip the loop's rescans.

Lazy duals.  A labelled vertex stores its dual plus total (S) or minus
total (T), so a dual step is one assignment to total, an S-T edge is
tight when the stored values of its ends add up to 2w, and a key holds
while the edge's ends keep their labels.  Every exposed vertex has
been S at every step, so its dual is top - total, the least, and the
key of a type-1 step is top.  A stage that hands back puts back the
duals it started from: those of the vertices it labelled from a log,
the others from the total at its start.

The start.  Under the empty matching every vertex is its own S tree
and edge uv an S-S entry keyed top - w_uv, so a tight edge is a zero
step.

Order-free stages.  While no tight edge joins two S vertices, a vertex
that a tight edge reaches from an S vertex is T, so the S and T sets
are the same in any scan order, and a step strictly below every other
candidate, type 1 included, makes its edge alone tight, so any order
takes it.  A T vertex has one tight S neighbour besides its mate, its
parent.  An S-T edge keeps its slack under every step, and an older S
vertex tight to a new T vertex would have tied with the step that grew
the tree.  The vertices an augmentation frees are tight only to each
other, along the two trees and their joining edge (an edge to the rest
of the forest would have tied with that edge), so a tree that grows
among free vertices meets each once.  Hence a unique S-S edge between
two trees is the only augmenting path of tight edges, and every scan
order augments along it.  Tied keys replay only when all are S-S
edges, no tree holds a T vertex and no two share a vertex.  Each then
joins two exposed vertices, and matching one leaves the others tight
and makes no edge tight (an edge at its ends is keyed above the tie),
so the loop matches them one per stage, in any order, with no further
step, and the replay matches them all at once.  Any other tie, a
type-1 step (the end, or the resume) and an S-S edge inside one tree
(a blossom) hand back to the loop for good; with no blossom formed, a
stage starts from mate and dualvar alone.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import InternalError


def dual_objective(weights, potentials, odd_sets):
    """sum(y) + sum(z * (|B| // 2)) for potentials y (one per vertex) and
    odd_sets of (B, z), or None unless every B is an odd set of distinct
    vertices, every z >= 0, and every edge uv has y_u + y_v plus the z of
    the sets holding both ends >= w_uv.  A value bounds every perfect
    matching's weight, and every matching's if all y >= 0.

    Odd-set membership is kept only for the vertices in some set, and
    read only for an edge whose potentials alone fall short: every z is
    checked nonnegative first, so the sets can only add to the cover."""
    n = len(potentials)
    member: dict[int, set[int]] = {}  # set indices by vertex
    total = sum(potentials)
    for i, (vertices, z) in enumerate(odd_sets):
        distinct = set(vertices)
        if len(distinct) % 2 == 0 or len(distinct) != len(vertices) or z < 0:
            return None
        if min(distinct) < 0 or max(distinct) >= n:
            return None
        for v in distinct:
            member.setdefault(v, set()).add(i)
        total += z * (len(distinct) // 2)
    for (u, v), w in weights.items():
        cover = potentials[u] + potentials[v]
        if cover < w:
            if u in member and v in member:
                cover += sum(odd_sets[i][1] for i in member[u] & member[v])
            if cover < w:
                return None
    return total


def _forest_replay(n, nbrs, top, mate, dualvar) -> None:
    """Replay the engine's leading stages from the empty matching on one
    alternating forest kept across augmentations (see Forest replay in
    the module docstring), writing only mate and dualvar.  At the first
    stage it cannot replay it puts back that stage's starting duals and
    returns, so a stage costs a few heap steps and a pass over the
    neighbours of the trees it augmented, not a pass over every vertex."""
    label = [1] * n  # 1 = S, 2 = T; every vertex starts as an exposed root
    root = list(range(n))  # the exposed vertex atop each labelled vertex's tree
    parent = [-1] * n  # the S vertex each T vertex hangs from
    members = {r: [r] for r in range(n)}  # exposed vertex -> its tree
    # a labelled vertex stores its dual plus total (S) or minus total (T),
    # so a dual step adds to total, the sum of the steps taken, alone
    total = 0
    tees = 0  # the T vertices of the forest
    # (total at which the edge turns tight, lower end, upper end, 2w) per
    # edge from S to unlabelled or S to S; an entry is live while it joins
    # such ends and its key still holds, and least() drops the others
    heap = [(top - w2 // 2, v, u, w2) for v in range(n) for u, w2 in nbrs[v] if v < u]
    heapify(heap)
    log: list[tuple[int, int]] = []  # (vertex, dual) per vertex the stage labels

    def offer(a: int, b: int, w2: int) -> None:
        key, rest = divmod(dualvar[a] + dualvar[b] - w2, label[a] + label[b])
        if rest:
            raise InternalError("blossom: odd slack on an S-S edge")
        heappush(heap, (key, a, b, w2) if a < b else (key, b, a, w2))

    def attach(x: int, s: int) -> int:
        """Label x T below S vertex s and its mate S; return the mate."""
        nonlocal tees
        y = mate[x]
        if y == -1 or label[y]:
            raise InternalError("blossom: a replayed T vertex has no free mate")
        log.extend(((x, dualvar[x]), (y, dualvar[y])))
        label[x], label[y] = 2, 1
        dualvar[x] -= total
        dualvar[y] += total
        parent[x] = s
        root[x] = root[y] = r = root[s]
        members[r] += (x, y)
        tees += 1
        return y

    def grow(queue: list[int]) -> None:
        """Scan the new S vertices of queue and those they label."""
        pops = 0
        while queue:
            pops += 1
            if pops > n:
                raise InternalError("blossom: the replayed forest labels a vertex twice")
            s = queue.pop()
            for x, w2 in nbrs[s]:
                lx = label[x]
                if lx == 0 and dualvar[s] + dualvar[x] - w2 <= total:
                    queue.append(attach(x, s))
                elif lx != 2:
                    offer(s, x, w2)

    def flip(s: int, x: int) -> None:
        """Match S vertex s to x and flip the path from s up its tree."""
        for _ in range(n):
            t = mate[s]
            mate[s] = x
            if t == -1:
                return
            s, x = parent[t], t
            mate[t] = s
        raise InternalError("blossom: a replayed path does not reach its root")

    def least():
        """The live entries of least key, copies dropped, or None at a tie
        that the scan order would decide: ties replay only as disjoint
        S-S edges in a forest without T vertices."""
        tied: list[tuple[int, int, int, int]] = []
        ends: set[int] = set()
        both_s = True
        while heap:
            if tied and heap[0][0] > tied[0][0]:
                break
            key, a, b, w2 = entry = heappop(heap)
            la, lb = label[a], label[b]
            if la + lb != 1 and la * lb != 1 or tied and entry == tied[-1]:
                continue
            if dualvar[a] + dualvar[b] - w2 != key * (la + lb):
                continue  # an end changed label since the entry was made
            tied.append(entry)
            ends.update((a, b))
            both_s = both_s and la == lb
            if len(tied) > 1 and (tees or not both_s or len(ends) < 2 * len(tied)):
                return None
        return tied

    def stage_edges():
        """Take the stage's dual steps until its augmenting edges are
        tight and return them, or None where the stage loop must run
        the stage."""
        nonlocal total
        for _ in range(n // 2 + 1):  # each step but the last labels a T
            tied = least()
            if not tied or tied[0][0] >= top:
                return None  # a tie, or a type-1 step (its key is top)
            total, a, b, _ = tied[0]
            if label[a] != label[b]:  # S to unlabelled: grow that tree
                s, x = (a, b) if label[a] == 1 else (b, a)
                grow([attach(x, s)])
                continue
            if root[a] == root[b]:
                return None  # the stage folds a blossom
            return tied
        raise InternalError("blossom: a replayed stage does not end")

    for _ in range(n // 2 + 1):  # each replayed stage augments
        start = total
        log.clear()
        edges = stage_edges()
        if edges is None:
            # put back the duals the stage started from
            for v, y in log:
                label[v], dualvar[v] = 0, y
            for v in range(n):
                if label[v]:
                    dualvar[v] -= start if label[v] == 1 else -start
            return
        freed = []
        for _, a, b, _ in edges:
            flip(a, b)
            flip(b, a)
            freed += members.pop(root[a]) + members.pop(root[b])
        for v in freed:
            if label[v] == 2:
                tees -= 1
                dualvar[v] += total
            else:
                dualvar[v] -= total
            label[v] = 0
        # the freed vertices are free, and none is tight to an S vertex
        # (see Forest replay)
        for x in freed:
            for s, w2 in nbrs[x]:
                if label[s] == 1:
                    offer(s, x, w2)
    raise InternalError("blossom: the replay outlasts its augmentations")


def _nested(walk, *args) -> None:
    """Run the generator walk(*args), and depth first walk(*sub) for
    each sub it yields, on an explicit stack (see Nesting above)."""
    stack = [walk(*args)]
    while stack:
        for sub in stack[-1]:
            stack.append(walk(*sub))
            break
        else:
            stack.pop()


def max_weight_matching_pairs(
    n: int,
    weights: dict[tuple[int, int], int],
    adjacency: list[list[int]],
    shift: int | None = None,
):
    """Return a maximum-weight matching as a set of (u, v), u < v, with
    its duals against the weights 2 * w: one potential per vertex, and
    (sorted leaves, value) of each blossom whose dual is positive.

    adjacency[v] lists v's neighbours in a fixed order; ties in the
    dual updates resolve by that order, so results are deterministic.
    With an int shift S > 0, return two such results: the one for w,
    and the one a fresh call on the weights w + S returns (see Resume
    in the module docstring).
    """
    if n == 0 or not weights:
        if shift is None:
            return set(), [0] * n, []
        return (set(), [0] * n, []), (set(), [0] * n, [])

    maxweight = max(0, max(weights.values()))
    # nbrs[v]: (u, 2 * w_vu) for each neighbour u, in adjacency[v] order
    nbrs = [
        [(u, 2 * weights[(v, u) if v < u else (u, v)]) for u in adjacency[v]]
        for v in range(n)
    ]
    size = 2 * n
    zeros = [0] * size
    nones = [None] * size

    # mate[v]: vertex matched to v, or -1.
    mate = [-1] * n
    # label on top-level blossoms: 1 = S, 2 = T (5 marks scan breadcrumbs).
    label = zeros[:]
    # labeledge[b]: edge (v, w) through which b obtained its label.
    labeledge = nones[:]
    # inblossom[v]: top-level blossom containing vertex v.
    inblossom = list(range(n))
    blossomparent = [-1] * size
    blossombase = list(range(n)) + [-1] * n
    # sub-blossoms of a blossom, base first, and the edge joining each
    # child to the next one (edges[i] runs from childs[i] to childs[i + 1],
    # and edges[-1] from the last child back to the base)
    blossomchilds: list = nones[:]
    blossomedges: list = nones[:]
    # least-slack (v, u, 2 * w) edges to other S-blossoms, per blossom
    mybestedges: list = nones[:]
    bestedge: list = nones[:]
    dualvar = [maxweight] * n
    # live blossom -> dual; iteration follows creation order
    blossomdual: dict[int, int] = {}
    freeids = list(range(size - 1, n - 1, -1))
    queue: list[int] = []
    # the two stage sets (see Tie order in the module docstring)
    touched: set[int] = set()
    forest: set[int] = set()
    # each vertex whose mate this stage wrote, and the mate it had: if
    # mate was symmetric before, only these can break it, so the end of
    # a stage checks them alone; the first stage checks every vertex,
    # the pairs of the forest replay included
    wrote = list(range(n))

    def leaves(b: int) -> list[int]:
        """The vertices of b; a vertex is its own only leaf."""
        out = []
        stack = [b]
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(blossomchilds[t])
            else:
                out.append(t)
        return out

    def assign_label(w: int, t: int, v) -> None:
        # a T label passes an S label on to the mate of its base
        while True:
            b = inblossom[w]
            if label[w] or label[b]:
                raise InternalError("blossom: labelling a labelled vertex")
            label[w] = label[b] = t
            labeledge[w] = labeledge[b] = None if v is None else (v, w)
            bestedge[w] = bestedge[b] = None
            ls = leaves(b)
            forest.update(ls)
            if t == 1:
                queue.extend(ls)
                return
            v = blossombase[b]
            w, t = mate[v], 1

    def t_above(bs: int) -> int:
        """The T-blossom above S-blossom bs, or -1 at a root; a root's base
        must be exposed, and bs labelled S through its base's mate by a T."""
        e = labeledge[bs]
        if e is None:
            if mate[blossombase[bs]] != -1:
                raise InternalError("blossom: a root S-blossom has a matched base")
            return -1
        if e[0] != mate[blossombase[bs]]:
            raise InternalError("blossom: an S label not via the base's mate")
        bt = inblossom[e[0]]
        if label[bt] != 2:
            raise InternalError("blossom: an S-blossom's parent is not T")
        return bt

    def scan_blossom(v: int, w: int) -> int:
        """Walk both alternating paths to find a common ancestor
        S-blossom; return its base, or -1 if the paths reach two
        different exposed vertices."""
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            if label[b] != 1:
                raise InternalError("blossom: scan reached a non-S blossom")
            path.append(b)
            label[b] = 5
            bt = t_above(b)
            v = -1 if bt == -1 else labeledge[bt][0]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def cycle_half(bx: int, bb: int, b: int, message: str) -> tuple[list, list]:
        """The sub-blossoms from bx along label edges to bb, bb left out,
        made children of b, and the label edge of each; a walk that meets
        one twice, as a corrupt label edge can make it, raises."""
        subs, edgs = [], []
        while bx != bb:
            if blossomparent[bx] == b:
                raise InternalError("blossom: a cycle path meets itself")
            blossomparent[bx] = b
            subs.append(bx)
            edgs.append(labeledge[bx])
            if label[bx] != 2 and (label[bx] != 1 or labeledge[bx][0] != mate[blossombase[bx]]):
                raise InternalError(message)
            bx = inblossom[labeledge[bx][0]]
        return subs, edgs

    def add_blossom(base: int, v: int, w: int) -> None:
        """Fold the cycle through (v, w) and their paths to base into one blossom."""
        bb = inblossom[base]
        b = freeids.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        first, firstedges = cycle_half(
            inblossom[v], bb, b, "blossom: a bad label on the cycle's first path"
        )
        second, secondedges = cycle_half(
            inblossom[w], bb, b, "blossom: a bad label on the cycle's second path"
        )
        # the cycle runs from bb up the first path, across (v, w) and
        # back down the second, whose label edges it crosses backwards
        blossomchilds[b] = path = [bb, *reversed(first), *second]
        blossomedges[b] = [*reversed(firstedges), (v, w), *[(j, i) for i, j in secondedges]]
        if label[bb] != 1:
            raise InternalError("blossom: the new blossom's base is not S")
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for leaf in leaves(b):
            if label[inblossom[leaf]] == 2:
                queue.append(leaf)
            inblossom[leaf] = b
        # recompute best edges out of the new blossom
        bestedgeto: dict[int, tuple[int, int, int]] = {}
        for bv in path:
            nblist = mybestedges[bv]
            if nblist is None:
                nblist = [(leaf, u, w2) for leaf in leaves(bv) for u, w2 in nbrs[leaf]]
            mybestedges[bv] = None
            for k in nblist:
                i, j, w2 = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if bj != b and label[bj] == 1:
                    e = bestedgeto.get(bj)
                    if e is None or dualvar[i] + dualvar[j] - w2 < (
                        dualvar[e[0]] + dualvar[e[1]] - e[2]
                    ):
                        bestedgeto[bj] = k
            bestedge[bv] = None
        mybestedges[b] = best = list(bestedgeto.values())
        # min keeps the first of equal slacks, as every other pick does
        bestedge[b] = min(
            best, key=lambda k: dualvar[k[0]] + dualvar[k[1]] - k[2], default=None
        )

    def toward_base(b: int, i: int):
        """The even-length walk round blossom b from its child i to the
        base: the start index j, the step, and edge(j), the edge from
        childs[j] to the next child on the walk, oriented that way."""
        edges = blossomedges[b]
        if i & 1:
            return i - len(edges), 1, edges.__getitem__
        return i, -1, lambda j: edges[j - 1][::-1]

    def expand_blossom(b: int, endstage: bool):
        """Dissolve blossom b, relabelling its pieces if mid-stage; yields
        (child, endstage) for each child to dissolve too (see _nested)."""
        childs = blossomchilds[b]
        for s in childs:
            blossomparent[s] = -1
            if s >= n and endstage and blossomdual[s] == 0:
                yield s, endstage
            else:
                for leaf in leaves(s):
                    inblossom[leaf] = s
        if (not endstage) and label[b] == 2:
            # relabel along the even-length side of the cycle from
            # the entry child to the base
            entrychild = inblossom[labeledge[b][1]]
            j, jstep, edge = toward_base(b, childs.index(entrychild))
            v, w = labeledge[b]
            while j != 0:
                label[w] = 0
                label[edge(j)[1]] = 0
                assign_label(w, 2, v)
                j += jstep
                v, w = edge(j)
                j += jstep
            bw = childs[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w)
            bestedge[bw] = None
            j += jstep
            while childs[j] != entrychild:
                bv = childs[j]
                if label[bv] == 1:
                    j += jstep
                    continue
                for leaf in leaves(bv):
                    if label[leaf]:
                        break
                if label[leaf]:
                    if label[leaf] != 2:
                        raise InternalError("blossom: a reached child is not T")
                    if inblossom[leaf] != bv:
                        raise InternalError("blossom: a T leaf outside its child")
                    label[leaf] = 0
                    label[mate[blossombase[bv]]] = 0
                    assign_label(leaf, 2, labeledge[leaf][0])
                j += jstep
        label[b] = 0
        labeledge[b] = bestedge[b] = mybestedges[b] = None
        blossomchilds[b] = blossomedges[b] = None
        blossomparent[b] = blossombase[b] = -1
        del blossomdual[b]
        freeids.append(b)

    def augment_blossom(b: int, v: int):
        """Swap matched/unmatched edges inside blossom b so v becomes its
        base; yields (child, vertex) for each child to rebase (see _nested)."""
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
            if t < 0:
                raise InternalError("blossom: augmenting a blossom from outside it")
        if t >= n:
            yield (t, v)
        childs = blossomchilds[b]
        edges = blossomedges[b]
        i = childs.index(t)
        j, jstep, edge = toward_base(b, i)
        while j != 0:
            j += jstep
            t = childs[j]
            w, x = edge(j)
            if t >= n:
                yield (t, w)
            j += jstep
            t = childs[j]
            if t >= n:
                yield (t, x)
            wrote.extend((w, mate[w], x, mate[x]))
            mate[w] = x
            mate[x] = w
        blossomchilds[b] = childs = childs[i:] + childs[:i]
        blossomedges[b] = edges[i:] + edges[:i]
        blossombase[b] = blossombase[childs[0]]
        if blossombase[b] != v:
            raise InternalError("blossom: augmenting did not rebase the blossom")

    def augment_matching(v: int, w: int) -> None:
        """Flip matching parity along the augmenting path through (v, w).
        Each side climbs from its end of (v, w) to its root through at
        most n S-blossoms, one per step, as a path holds each vertex
        once; a side that takes more steps raises InternalError."""
        for (s, j) in ((v, w), (w, v)):
            for _ in range(n):
                bs = inblossom[s]
                if label[bs] != 1:
                    raise InternalError("blossom: an augmenting path leaves S")
                bt = t_above(bs)
                if bs >= n:
                    _nested(augment_blossom, bs, s)
                wrote.extend((s, mate[s]))
                mate[s] = j
                if bt == -1:
                    break
                s, j = labeledge[bt]
                if blossombase[bt] != labeledge[bs][0]:
                    raise InternalError("blossom: a T-blossom entered off its base")
                if bt >= n:
                    _nested(augment_blossom, bt, j)
                wrote.extend((j, mate[j]))
                mate[j] = s
            else:
                raise InternalError("blossom: an augmenting path does not reach its root")

    def step(delta: int, ys: list[int], zs: dict[int, int]) -> tuple[list[int], dict[int, int]]:
        """Apply a dual step of delta to vertex duals ys and blossom duals
        zs, which are dualvar and blossomdual or copies of them; return
        both.  Only the vertices of forest move."""
        for v in forest:
            lbl = label[inblossom[v]]
            if lbl == 1:
                ys[v] -= delta
            elif lbl == 2:
                ys[v] += delta
        for b, z in zs.items():
            if blossomparent[b] == -1:
                if label[b] == 1:
                    zs[b] = z + delta
                elif label[b] == 2:
                    zs[b] = z - delta
        return ys, zs

    def finish(ys: list[int], zs: dict[int, int], extra: int) -> tuple:
        """The matching with duals ys and zs, which must prove it
        optimal for the weights w + extra."""
        pairs = {(v, mate[v]) for v in range(n) if v < mate[v]}
        covered = {v for p in pairs for v in p}
        odd_sets = [(tuple(sorted(leaves(b))), 2 * z) for b, z in zs.items() if z]
        doubled = {e: 2 * (w + extra) for e, w in weights.items()}
        value = dual_objective(doubled, ys, odd_sets)
        weight = sum(weights[p] + extra for p in pairs)
        if len(covered) != 2 * len(pairs) or min(ys) < 0 or value != 2 * weight:
            raise InternalError("blossom: the final duals do not prove optimality")
        return pairs, ys, odd_sets

    _forest_replay(n, nbrs, maxweight, mate, dualvar)
    # the exposed vertices in id order; an augmentation matches two of
    # them, and a matched vertex stays matched
    exposed = [v for v in range(n) if mate[v] == -1]

    # the result for w when resuming under a shift, and the shift once
    # applied: from then on the vertex duals are dualvar plus extra
    first = None
    extra = 0

    # Each stage tries to find one augmenting path.
    while 1:
        label[:] = zeros
        labeledge[:] = nones
        bestedge[:] = nones
        for b in blossomdual:
            mybestedges[b] = None
        queue.clear()
        touched.clear()
        forest.clear()

        for v in exposed:
            if inblossom[v] != v:
                assign_label(v, 1, None)
            elif label[v]:
                raise InternalError("blossom: labelling a labelled vertex")
            else:  # as assign_label would: labeledge and bestedge are clear
                label[v] = 1
                queue.append(v)
                forest.add(v)

        augmented = 0
        while 1:
            while queue and (not augmented):
                v = queue.pop()
                if label[inblossom[v]] != 1:
                    raise InternalError("blossom: a queued vertex is not S")
                bv = inblossom[v]
                for w, w2 in nbrs[v]:
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    kslack = dualvar[v] + dualvar[w] - w2
                    if kslack <= 0:  # tight (see Tightness in the module docstring)
                        lbw = label[bw]
                        if lbw == 0:
                            assign_label(w, 2, v)
                        elif lbw == 1:
                            base = scan_blossom(v, w)
                            if base != -1:
                                add_blossom(base, v, w)
                                bv = inblossom[v]
                            else:
                                augment_matching(v, w)
                                augmented = 1
                                break
                        elif label[w] == 0:
                            if lbw != 2:
                                raise InternalError("blossom: a tight edge into a non-T blossom")
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label[bw] == 1:
                        e = bestedge[bv]
                        if e is None or kslack < dualvar[e[0]] + dualvar[e[1]] - e[2]:
                            bestedge[bv] = (v, w, w2)
                            if bv < n:
                                touched.add(bv)
                    elif label[w] == 0:
                        e = bestedge[w]
                        if e is None or kslack < dualvar[e[0]] + dualvar[e[1]] - e[2]:
                            bestedge[w] = (v, w, w2)
                            touched.add(w)
            if augmented:
                break

            # no augmenting path under the current duals: pick the
            # smallest dual step that changes the structure; a tie keeps
            # the first candidate, type 1 before 2 before 3 before 4,
            # and within a type vertices before blossoms and blossoms in
            # creation order.  Each type keeps its own first strict
            # minimum below the type-1 step, so one pass over the
            # touched vertices in id order and one over the blossoms
            # find them all.
            delta = d2 = d3 = d4 = max(0, min(dualvar) + extra)
            for v in sorted(touched):
                e = bestedge[v]
                if e is None:
                    continue
                if label[inblossom[v]] == 0:
                    d = dualvar[e[0]] + dualvar[e[1]] - e[2]
                    if d < d2:
                        d2, e2 = d, e
                elif label[v] == 1 and blossomparent[v] == -1:
                    kslack = dualvar[e[0]] + dualvar[e[1]] - e[2]
                    if kslack % 2:
                        raise InternalError("blossom: odd slack on an S-S edge")
                    if kslack // 2 < d3:
                        d3, e3 = kslack // 2, e
            for b, z in blossomdual.items():
                if blossomparent[b] != -1:
                    continue
                if label[b] == 1:
                    e = bestedge[b]
                    if e is not None:
                        kslack = dualvar[e[0]] + dualvar[e[1]] - e[2]
                        if kslack % 2:
                            raise InternalError("blossom: odd slack on an S-S edge")
                        if kslack // 2 < d3:
                            d3, e3 = kslack // 2, e
                elif label[b] == 2 and z < d4:
                    d4, b4 = z, b
            deltatype = 1
            if d2 < delta:
                delta, deltatype, deltaedge = d2, 2, e2
            if d3 < delta:
                delta, deltatype, deltaedge = d3, 3, e3
            if d4 < delta:
                delta, deltatype, deltablossom = d4, 4, b4
            if deltatype == 1 and shift:
                # the run on w ends here: keep its result, then go on as
                # the run on w + S, with S held as the offset extra
                first = finish(*step(delta, dualvar[:], dict(blossomdual)), 0)
                extra, shift = shift, None
                continue
            step(delta, dualvar, blossomdual)

            if deltatype == 1:
                break
            elif deltatype == 2 or deltatype == 3:
                v = deltaedge[0]
                if label[inblossom[v]] != 1:
                    raise InternalError("blossom: a least-slack edge off S")
                queue.append(v)
            else:
                _nested(expand_blossom, deltablossom, False)

        if any(v != -1 and mate[v] != -1 and mate[mate[v]] != v for v in wrote):
            raise InternalError("blossom: the matching is not symmetric")
        wrote.clear()
        if not augmented:
            break
        exposed = [v for v in exposed if mate[v] == -1]

        # discard blossoms that no longer pay their way
        for b in list(blossomdual):
            if (
                b in blossomdual
                and blossomparent[b] == -1
                and label[b] == 1
                and blossomdual[b] == 0
            ):
                _nested(expand_blossom, b, True)

    last = finish([y + extra for y in dualvar], blossomdual, extra)
    return last if first is None else (first, last)
