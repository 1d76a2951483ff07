"""Orientations of graphs and the semi-transitivity machinery.

An orientation assigns a direction to every edge.  It is semi-transitive when
it is acyclic and, for every arc u->v, the sub-orientation induced by u, v and
all vertices lying on directed u->v paths is transitive; a graph is
word-representable exactly when it admits such an orientation, so the
backtracking search here, `_orient`, doubles as the representability
decision procedure.  It keeps its own stack, so it takes graphs of any size
and stops only at a verdict or when its budget runs out.  Its forced-arc
propagation works on adjacency bitmasks and assigns each forced arc the moment
a rule forces it, so a propagation that fails stops at its first conflict.
It orients its first edge one way only: reversing every arc of a
semi-transitive orientation gives another one (it stays acyclic, and a
reversed shortcut is a shortcut), so some witness takes that direction.  The
unrestricted search tried that direction first too, so witnesses are
unchanged; only refutations shrink.

Transitive orientations (comparability) and 3-colorings give two cheaper
certificate routes.  Transitive orientations come from Golumbic's TRO
algorithm (*Algorithmic Graph Theory and Perfect Graphs*, ch. 5), which
orients one implication class at a time.  It runs in polynomial time and
always reaches a verdict, so it takes no budget, and its `nodes_expanded`
counts implication classes.  A transitive orientation is semi-transitive,
so a comparability graph is decided by its TRO witness alone.  Every
neighborhood of a word-representable graph is a comparability graph, which
gives the fast necessary test `neighborhood_filter`.  It decides each
neighborhood from its core, the neighborhood less the vertices adjacent to
all or none of the rest of it: a universal vertex (made a source) or an
isolated one added to a comparability graph keeps it one, and induced
subgraphs of comparability graphs are comparability graphs (Golumbic, ch. 5).
So only a core of 6 or more vertices reaches TRO; a smaller one is a
comparability graph unless it is C5.  The filter tries the largest
neighborhoods first, which are the likeliest to fail.  The decision
procedure `find_semi_transitive` takes these routes in turn:
comparability, then the filter, then the search.
"""

from __future__ import annotations

import time
from operator import xor

from .graphs import _bits
from .outcome import (
    REFUTED,
    WITNESS,
    SearchOutcome,
    _Budget,
    run_search,
)
from .words import word_to_graph


class Orientation:
    """A direction for every edge of a base graph.

    `succ[v]` is the 0-indexed bitmask of out-neighbors of vertex v+1.
    """

    __slots__ = ("graph", "succ")

    def __init__(self, graph, arcs):
        arcs = list(arcs)
        succ = [0] * graph.n
        for u, v in arcs:
            if not graph.has_edge(u, v):
                raise ValueError(f"arc ({u},{v}) is not an edge of the base graph")
            succ[u - 1] |= 1 << (v - 1)
        if len(arcs) != graph.m or not _orients_each_edge_once(graph.adj, succ):
            raise ValueError("orientation must cover every edge exactly once")
        self.graph = graph
        self.succ = tuple(succ)

    @classmethod
    def _from_succ(cls, graph, succ):
        o = cls.__new__(cls)
        o.graph = graph
        o.succ = tuple(succ)
        return o

    def arcs(self):
        return [(u + 1, v + 1) for u in range(self.graph.n) for v in _bits(self.succ[u])]

    def __eq__(self, other):
        return (
            isinstance(other, Orientation)
            and self.graph == other.graph
            and self.succ == other.succ
        )

    def __hash__(self):
        return hash((self.graph, self.succ))

    def __repr__(self):
        return f"Orientation({self.graph.n}, {self.arcs()!r})"


def topological_order(o):
    """A topological order of the arcs, or None if there is a directed cycle."""
    n = o.graph.n
    indeg = [0] * n
    for u in range(n):
        for v in _bits(o.succ[u]):
            indeg[v] += 1
    stack = [v for v in range(n) if indeg[v] == 0]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for w in _bits(o.succ[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return order if len(order) == n else None


def is_acyclic(o):
    return topological_order(o) is not None


def _orients_each_edge_once(adj, succ):
    """Whether the arcs `succ` lie on edges of `adj` and orient every edge
    exactly once."""
    pred = [0] * len(adj)
    for u, s in enumerate(succ):
        if s & ~adj[u]:
            return False
        bit = 1 << u
        for v in _bits(s):
            pred[v] |= bit
    # given the arcs lie on edges, an edge oriented twice or not at all
    # leaves its bit out of succ ^ pred
    return tuple(map(xor, succ, pred)) == tuple(adj)


def is_transitive(o):
    """True iff u->v and v->w always imply the arc u->w."""
    return _transitive(o.succ)


def _transitive(succ):
    for su in succ:
        reach = 0
        for v in _bits(su):
            reach |= succ[v]
        if reach & ~su:
            return False
    return True


def is_semi_transitive(o):
    """Acyclicity plus, for every arc u->v, transitivity of the
    sub-orientation induced by u, v and the vertices between them."""
    order = topological_order(o)
    if order is None:
        return False
    return _shortcut_free(o.succ, order)


def _shortcut_free(succ, order):
    """Whether the sub-orientation on every arc's interval is transitive,
    for an acyclic succ table and a topological order of it.

    The interval of an arc u->v holds u, v and the vertices between them;
    every path between two of its vertices stays inside it, so it fails to
    be transitive exactly when some a in it has a descendant b in it that is
    not a successor of a: a shortcut, with a at u or between, and b between
    or at v.  One reverse pass over the order carries, for each vertex x,
    its descendants and its ends: the vertices reachable from (or equal to)
    a non-successor descendant of x or of one of x's descendants.  Such a
    descendant a of x, or x itself, and such a b give a shortcut on the
    interval of exactly the arcs x->v with v among the ends of x, so the
    test fails when an arc's head is among its tail's ends.
    """
    n = len(succ)
    desc = [0] * n
    ends = [0] * n
    for x in reversed(order):
        s = succ[x]
        d, e = s, 0
        for w in _bits(s):
            d |= desc[w]
            e |= ends[w]
        far = d & ~s
        e |= far
        for z in _bits(far):
            e |= desc[z]
        if e & s:
            return False
        desc[x] = d
        ends[x] = e
    return True


def word_to_orientation(w):
    """Orient each edge of the word's graph from the letter whose first
    occurrence comes earlier; always semi-transitive for representing words."""
    g = word_to_graph(w)
    first = {}
    for i, c in enumerate(w):
        first.setdefault(c, i)
    return _orient_by_rank(g, [first[v] for v in g.vertices()])


def _orient_by_rank(g, rank):
    """Orient every edge of g from the end of lower rank; `rank` lists the
    ranks of vertices 1..n, and the two ends of an edge never tie."""
    succ = [0] * g.n
    for u, v in g.edges():
        if rank[u - 1] > rank[v - 1]:
            u, v = v, u
        succ[u - 1] |= 1 << (v - 1)
    return Orientation._from_succ(g, succ)


# -- backtracking search for a semi-transitive orientation --------------------


def _orient(g, budget, detail=None):
    """First semi-transitive orientation of g in branch order, else None: an
    edge-by-edge search with forced-arc propagation.  `detail`, when given,
    gets `conflicts`: the number of propagations that failed, kept current
    so that it holds when the budget stops the search too.

    Propagation closes directed triangles (the third edge of a triangle with
    a directed 2-path is forced away from a 3-cycle) and completes
    quadrilaterals: for a directed 2-path u->x->v and a common neighbor w of
    u and v, unless both u,v and w,x are adjacent, the only completion that
    avoids cycles and shortcuts is u->w, w->v.  Propagation is conservative;
    each complete assignment is still checked by `is_semi_transitive`.

    The root edge a-b (depth 0) is branched as a->b only.  The reverse of a
    semi-transitive orientation is semi-transitive, so if one exists, one
    holds a->b, and since propagation only adds arcs that every completion
    must hold, the a->b subtree contains it.

    A depth-first search over one explicit stack, so its depth is bounded
    by the budget alone.  Each entry is a branch point whose arc
    propagated: the edge's index, the trail of that arc, and the arc left
    to try on the edge (None once both are tried, and at the root edge).
    Every arc a propagation assigns is on its trail, so undoing the trail
    restores the state before it, whether the propagation failed or is
    backed out of.  Every node ticks the budget once: the root, and each
    branch whose arc propagates without contradiction.
    """
    adj = g.adj
    succ = [0] * g.n
    pred = [0] * g.n
    deg = [a.bit_count() for a in adj]
    # branch on edges with high-degree endpoints first: the edges are
    # bucketed by the lower degree of their ends, and each bucket keeps
    # lexicographic order
    buckets = [[] for _ in range(g.n)]
    for u, a in enumerate(adj):
        for v in _bits(a >> u + 1 << u + 1):
            buckets[min(deg[u], deg[v])].append((u, v))
    edges = [e for bucket in reversed(buckets) for e in bucket]
    if detail is None:
        detail = {}
    detail["conflicts"] = 0

    def propagate(a, b, trail):
        """Assign arc a->b, on an unoriented edge, and every arc it forces,
        recording them on trail; False on contradiction.

        A forced arc is assigned the moment a rule forces it, a mask at a
        time, after one mask test against the arcs already assigned the
        other way, so a contradiction stops the propagation at once.  The
        trail is also the queue: each arc's consequences are drawn in turn,
        and its cycle test runs then, over `succ` with the arcs forced but
        not yet drawn, which all lie in the closure.  The forced arcs form
        one least closure, whatever order they are drawn in, so the outcome
        and the arcs assigned do not depend on it.
        """
        succ[a] |= 1 << b
        pred[b] |= 1 << a
        trail.append((a, b))
        for a, b in trail:
            bit_a, bit_b = 1 << a, 1 << b
            if succ[b] and pred[a]:  # does a->b close a directed cycle?
                seen = frontier = bit_b
                while frontier:
                    reach = 0
                    for v in _bits(frontier):
                        reach |= succ[v]
                    if reach & bit_a:
                        return False
                    frontier = reach & ~seen
                    seen |= frontier
            # triangle closure: a->b->c forces a->c, and c->a->b forces c->b
            common = adj[a] & adj[b]
            heads = succ[b] & common
            tails = pred[a] & common
            # quadrilateral completion around every new 2-path u->x->v
            # through a->b: it forces u->w->v for the common neighbours w of
            # u and v other than x, less x's neighbours when u, v are adjacent
            if pred[a]:
                for u in _bits(pred[a]):  # u->a->b
                    w = adj[u] & adj[b] & ~bit_a
                    if adj[u] & bit_b:
                        w &= ~adj[a]
                    tails |= w
                    if w & pred[u]:
                        return False  # some c->u is assigned against u->c
                    w &= ~succ[u]
                    if w:
                        succ[u] |= w
                        bit = 1 << u
                        for c in _bits(w):
                            pred[c] |= bit
                            trail.append((u, c))
            if succ[b]:
                for v in _bits(succ[b]):  # a->b->v
                    w = adj[a] & adj[v] & ~bit_b
                    if adj[a] >> v & 1:
                        w &= ~adj[b]
                    heads |= w
                    if w & succ[v]:
                        return False
                    w &= ~pred[v]
                    if w:
                        pred[v] |= w
                        bit = 1 << v
                        for c in _bits(w):
                            succ[c] |= bit
                            trail.append((c, v))
            if heads & pred[a]:
                return False
            heads &= ~succ[a]
            if heads:
                succ[a] |= heads
                for c in _bits(heads):
                    pred[c] |= bit_a
                    trail.append((a, c))
            if tails & succ[b]:
                return False
            tails &= ~pred[b]
            if tails:
                pred[b] |= tails
                for c in _bits(tails):
                    succ[c] |= bit_b
                    trail.append((c, b))
        return True

    stack = []
    depth = 0
    while True:
        budget.tick()
        while depth < len(edges):
            a, b = edges[depth]
            if not (succ[a] >> b | succ[b] >> a) & 1:  # a-b is unoriented
                break
            depth += 1
        if depth < len(edges):
            arc = edges[depth]
            rest = (b, a) if depth else None
        else:
            o = Orientation._from_succ(g, succ)
            if is_semi_transitive(o):
                return o
            arc = None
        while True:  # the next arc that propagates, here or further up
            if arc is not None:
                trail = []
                a, b = arc
                if propagate(a, b, trail):
                    stack.append((depth, trail, rest))
                    depth += 1
                    break
                detail["conflicts"] += 1
                arc, rest = rest, None
            elif stack:
                depth, trail, arc = stack.pop()
                rest = None
            else:
                return None
            for x, y in reversed(trail):  # the arc that failed or is backed out of
                succ[x] &= ~(1 << y)
                pred[y] &= ~(1 << x)


# -- transitive orientations (comparability) ----------------------------------


def _transitive_orientation(adj):
    """Golumbic's TRO on adjacency masks: (succ, classes), with succ None
    when an implication class meets its own reverse.

    Each round takes an edge x-y that is still unoriented and closes the arc
    x->y under Gamma-forcing in the graph of unoriented edges: a->b forces
    a->c and c->b for every c adjacent to one end only.  The class is then
    oriented and its edges removed.
    """
    n = len(adj)
    rem = list(adj)
    succ = [0] * n
    classes = 0
    for x in range(n):
        while rem[x]:
            y = (rem[x] & -rem[x]).bit_length() - 1
            classes += 1
            out = [0] * n  # out[a]: heads of the class's arcs from a
            into = [0] * n  # into[b]: tails of the class's arcs into b
            out[x], into[y] = 1 << y, 1 << x
            stack = [(x, y)]
            touched = 1 << x | 1 << y  # the ends of the class's arcs
            while stack:
                a, b = stack.pop()
                bit_a, bit_b = 1 << a, 1 << b
                ra, rb = rem[a], rem[b]
                new = ra & ~rb & ~bit_b & ~out[a]
                if new:
                    if new & into[a]:
                        return None, classes
                    out[a] |= new
                    touched |= new
                    for c in _bits(new):
                        into[c] |= bit_a
                        stack.append((a, c))
                new = rb & ~ra & ~bit_a & ~into[b]
                if new:
                    if new & out[b]:
                        return None, classes
                    into[b] |= new
                    touched |= new
                    for c in _bits(new):
                        out[c] |= bit_b
                        stack.append((c, b))
            for v in _bits(touched):
                rem[v] &= ~(out[v] | into[v])
                succ[v] |= out[v]
    return succ, classes


def _comparability(adj):
    """TRO's (succ, classes) for the masks `adj`, with succ checked to orient
    every edge once, transitively; succ is None for no comparability graph."""
    succ, classes = _transitive_orientation(adj)
    # no acyclicity test: on a shortest directed cycle, transitivity closes a
    # shorter one, down to both directions of one edge, which the first rules out
    if succ is not None and not (_orients_each_edge_once(adj, succ) and _transitive(succ)):
        raise AssertionError("TRO returned no transitive orientation of the graph")
    return succ, classes


def find_transitive(g):
    """Transitive orientation (comparability certificate) or refutation, by
    Golumbic's TRO algorithm (*Algorithmic Graph Theory and Perfect Graphs*,
    ch. 5).

    TRO orients one implication class at a time and refutes the graph as
    soon as a class contains both directions of an edge; otherwise the union
    of the classes is transitive.  It takes polynomial time and always
    reaches a verdict, so it takes no budget and no size ceiling;
    `nodes_expanded` counts the implication classes.
    """
    start = time.monotonic()
    succ, classes = _comparability(g.adj)
    elapsed = time.monotonic() - start
    if succ is None:
        return SearchOutcome(REFUTED, None, classes, elapsed)
    return SearchOutcome(WITNESS, Orientation._from_succ(g, succ), classes, elapsed)


def is_permutationally_representable(g):
    """A graph is representable by a concatenation of permutations exactly
    when it is a comparability graph."""
    return find_transitive(g).found


def neighborhood_filter(g):
    """Necessary condition: every vertex neighborhood of a word-representable
    graph is a comparability graph.  Returns the first failing vertex, in
    the order below, or None.

    The vertices are tried in decreasing order of degree, ties by index: a
    larger neighborhood is likelier to hold a core that is not a
    comparability graph, so a refutation tends to come sooner.  The order
    decides only which failing vertex is returned, not whether one is.

    Each neighborhood is decided from its core: the neighborhood less its
    vertices adjacent to all of the rest of it or to none of it.  Adding a
    universal vertex (made a source) or an isolated vertex to a comparability
    graph keeps it one, and induced subgraphs of comparability graphs are
    comparability graphs, so the neighborhood is a comparability graph exactly
    when its core is (Golumbic, *Algorithmic Graph Theory and Perfect Graphs*,
    ch. 5).  A core under 5 vertices passes, since every graph on at most 4
    vertices is a comparability graph; a core of exactly 5 fails only when it
    is 2-regular, since C5 is the only graph on 5 vertices that is not one;
    a larger core goes to TRO on g's masks cut to the core, other vertices'
    zeroed.
    """
    adj = g.adj
    degree = [hood.bit_count() for hood in adj]
    # a hood under 5 vertices has a core under 5; the sort is stable, so
    # ties keep index order
    large = [v for v, d in enumerate(degree) if d > 4]
    for v in sorted(large, key=degree.__getitem__, reverse=True):
        hood = adj[v]
        top = degree[v] - 1  # a universal vertex's degree in the hood
        core = 0
        for u in _bits(hood):
            if 0 < (adj[u] & hood).bit_count() < top:
                core |= 1 << u
        size = core.bit_count()
        if size < 5:
            continue
        if size == 5:
            if all((adj[u] & core).bit_count() == 2 for u in _bits(core)):
                return v + 1  # the core is C5
            continue
        cut = [0] * g.n
        for u in _bits(core):
            cut[u] = adj[u] & core
        if _comparability(cut)[0] is None:
            return v + 1
    return None


def find_semi_transitive(g, max_nodes=None, max_seconds=None, *, budget=None):
    """Decide word-representability: a semi-transitive orientation of g or a
    refutation, whose `detail["route"]` names the route that settled it:

    - "comparability": TRO's transitive orientation, checked by
      `_comparability`, is the witness (a transitive orientation is
      semi-transitive); neither the filter nor the search runs;
    - "filter": some neighborhood (its vertex in `detail["vertex"]`) is not
      a comparability graph, a refutation with no search nodes;
    - "search": the orientation search decides, or runs out of the budget.
      Its refutations are exhaustive over the orientations with the root
      edge one way, and reversal covers the rest.

    TRO and the filter are polynomial and take no budget; no route has a
    size ceiling, and `elapsed` covers the whole call on every route.  A
    caller that runs several searches under one limit passes its `_Budget`
    as `budget`, which then replaces `max_nodes` and `max_seconds`.
    """
    if budget is None:
        budget = _Budget(max_nodes, max_seconds)
    start = time.monotonic()
    tro = find_transitive(g)
    if tro.found:
        return SearchOutcome(
            WITNESS,
            tro.witness,
            tro.nodes_expanded,
            time.monotonic() - start,
            {"route": "comparability"},
        )
    v = neighborhood_filter(g)
    if v is not None:
        return SearchOutcome(
            REFUTED, None, 0, time.monotonic() - start, {"route": "filter", "vertex": v}
        )
    detail = {"route": "search"}
    out = run_search(
        lambda: _orient(g, budget, detail),
        budget,
        lambda o: _orients_each_edge_once(g.adj, o.succ) and is_semi_transitive(o),
        detail,
    )
    return SearchOutcome(
        out.status, out.witness, out.nodes_expanded, time.monotonic() - start, detail
    )


def is_word_representable(g, max_nodes=None, max_seconds=None):
    """Whether g is word-representable, decided by `find_semi_transitive`."""
    return find_semi_transitive(g, max_nodes, max_seconds).require_conclusive().found


# -- 3-colorability route ------------------------------------------------------


def three_color(g, max_nodes=None, max_seconds=None):
    """Proper 3-coloring by backtracking (colors 1..3), or refutation.

    Vertices are colored in descending degree order; the first vertex is
    pinned to color 1 and the second color is introduced only once.  The
    search keeps its own stack of palettes, so the budget is its only
    limit.  Each node ticks the budget once: the empty coloring, and each
    vertex given a color.
    """
    budget = _Budget(max_nodes, max_seconds)
    order = sorted(range(g.n), key=lambda v: -g.adj[v].bit_count())
    color = [0] * g.n  # 0 = uncolored

    def kernel():
        palettes = []  # the palette before each colored position
        i = palette = c = 0  # c: the last color tried at position i
        budget.tick()
        while i < g.n:
            v = order[i]
            taken = 0
            for u in _bits(g.adj[v]):
                taken |= 1 << color[u]
            limit = min(3, palette + 1)
            c += 1
            while c <= limit and taken >> c & 1:
                c += 1
            if c <= limit:
                color[v] = c
                palettes.append(palette)
                i, palette, c = i + 1, max(palette, c), 0
                budget.tick()
            elif palettes:  # back up to the last colored position
                i -= 1
                palette = palettes.pop()
                c, color[order[i]] = color[order[i]], 0
            else:
                return None
        return tuple(color)

    return run_search(
        kernel,
        budget,
        lambda c: all(c[u - 1] != c[v - 1] for u, v in g.edges()),
    )


def orientation_from_coloring(g, coloring):
    """Orient every edge from the smaller to the larger color class.

    For a proper coloring with at most 3 colors the longest directed path has
    three vertices, so the result is semi-transitive.
    """
    colors = set(coloring)
    if len(coloring) != g.n or len(colors) > 3:
        raise ValueError("need a coloring of all vertices with at most 3 colors")
    for u, v in g.edges():
        if coloring[u - 1] == coloring[v - 1]:
            raise ValueError(f"coloring is not proper on edge ({u},{v})")
    return _orient_by_rank(g, coloring)
