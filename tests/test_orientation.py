import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import atlas_graphs, words_over
from wordrep import families
from wordrep.graphs import (
    CeilingExceeded,
    Graph,
    _bits,
    add_apex,
    induced_subgraph,
    is_connected,
    line_graph,
)
from wordrep.orientation import (
    Orientation,
    _decide,
    _OrientSearch,
    _orients_each_edge_once,
    find_semi_transitive,
    find_transitive,
    is_acyclic,
    is_permutationally_representable,
    is_semi_transitive,
    is_transitive,
    is_word_representable,
    neighborhood_filter,
    orientation_from_coloring,
    three_color,
    word_to_orientation,
)
from wordrep.outcome import BudgetExhausted, _Budget, _OutOfBudget
from wordrep.words import word_to_graph


def test_orientation_validation():
    g = families.cycle(3)
    with pytest.raises(ValueError):
        Orientation(g, [(1, 2), (2, 3)])  # edge (1,3) missing
    with pytest.raises(ValueError):
        Orientation(g, [(1, 2), (2, 1), (2, 3), (3, 1)])  # doubly oriented
    with pytest.raises(ValueError):
        Orientation(g, [(1, 2), (1, 2), (2, 3), (1, 3)])  # one arc twice
    with pytest.raises(ValueError):
        Orientation(g, [(1, 2), (2, 3), (1, 4)])
    with pytest.raises(ValueError):
        Orientation(families.path(3), [(0, 2), (1, 2)])  # vertex 0 is no vertex


def test_is_acyclic():
    g = families.cycle(3)
    assert not is_acyclic(Orientation(g, [(1, 2), (2, 3), (3, 1)]))
    assert is_acyclic(Orientation(g, [(1, 2), (2, 3), (1, 3)]))
    k4 = families.complete(4)
    tournament = Orientation(k4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    assert is_acyclic(tournament)


def test_is_transitive():
    k4 = families.complete(4)
    tournament = Orientation(k4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    assert is_transitive(tournament)
    p3 = families.path(3)
    assert not is_transitive(Orientation(p3, [(1, 2), (2, 3)]))
    assert is_transitive(Orientation(p3, [(1, 2), (3, 2)]))


def test_semi_transitive_c4_shortcut():
    c4 = families.cycle(4)
    shortcut = Orientation(c4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert is_acyclic(shortcut)
    assert not is_semi_transitive(shortcut)
    parallel = Orientation(c4, [(1, 2), (2, 3), (1, 4), (4, 3)])
    assert is_semi_transitive(parallel)


def test_transitive_implies_semi_transitive(rng):
    for _ in range(50):
        n = rng.randint(3, 6)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.6]
        g = Graph(n, edges)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        pos = {v: i for i, v in enumerate(order)}
        o = Orientation(g, [(u, v) if pos[u] < pos[v] else (v, u) for u, v in edges])
        if is_transitive(o):
            assert is_semi_transitive(o)


def test_word_to_orientation_fixture():
    o = word_to_orientation((2, 4, 2, 1, 3, 4, 1))
    assert sorted(o.arcs()) == [(1, 3), (2, 4), (4, 1), (4, 3)]
    assert is_semi_transitive(o)
    o = word_to_orientation((1, 2, 3))
    assert sorted(o.arcs()) == [(1, 2), (1, 3), (2, 3)]
    assert is_transitive(o)
    assert word_to_orientation((1, 2, 1, 2)).arcs() == [(1, 2)]


def test_word_orientations_semi_transitive_exhaustive():
    for a in (2, 3, 4):
        for w in words_over(a, 7):
            assert is_semi_transitive(word_to_orientation(w))


def test_word_orientations_semi_transitive_random(rng):
    for _ in range(200):
        n = rng.randint(2, 5)
        w = tuple(rng.randint(1, n) for _ in range(rng.randint(n, 8)))
        if len(set(w)) != n:
            continue
        assert is_semi_transitive(word_to_orientation(w))


def test_find_semi_transitive_ground_truth(all_graphs_upto_5):
    for n in range(1, 6):
        for g in all_graphs_upto_5[n]:
            assert find_semi_transitive(g).found
    assert find_semi_transitive(families.wheel(5)).refuted
    assert find_semi_transitive(families.wheel(7)).refuted
    assert find_semi_transitive(families.wheel(6)).found
    assert find_semi_transitive(families.petersen()).found
    for n in (3, 4, 5):
        assert find_semi_transitive(families.prism(n)).found
        assert find_semi_transitive(families.crown(n)).found


def test_find_semi_transitive_witness_verified():
    out = find_semi_transitive(families.prism(4))
    assert out.found and is_semi_transitive(out.witness)
    assert out.witness.graph == families.prism(4)


def test_find_semi_transitive_ceiling_and_budget():
    with pytest.raises(CeilingExceeded):
        find_semi_transitive(families.crown(7))
    out = find_semi_transitive(families.wheel(7), max_nodes=5)
    assert out.status == "budget_exhausted"
    with pytest.raises(BudgetExhausted):
        out.require_conclusive()


def test_line_graph_refutations():
    assert find_semi_transitive(line_graph(families.wheel(4))).refuted
    assert find_semi_transitive(line_graph(families.wheel(5))).refuted
    assert find_semi_transitive(line_graph(families.complete(5))).refuted


def test_find_transitive():
    assert find_transitive(families.cycle(5)).refuted
    assert find_transitive(families.cycle(7)).refuted
    assert find_transitive(families.cycle(4)).found
    assert find_transitive(families.cycle(6)).found
    for n in (2, 3, 4, 5):
        out = find_transitive(families.crown(n))
        assert out.found and is_transitive(out.witness) and is_acyclic(out.witness)


def test_is_permutationally_representable():
    fig1 = Graph(4, [(1, 2), (2, 3), (2, 4), (3, 4)])
    assert is_permutationally_representable(fig1)
    assert word_to_graph((2, 1, 3, 4, 2, 3, 4, 1)) == fig1  # two concatenated permutations
    assert not is_permutationally_representable(families.cycle(5))
    assert not is_permutationally_representable(families.cycle(7))


def test_apex_equivalence_exhaustive(all_graphs_upto_5):
    for n in range(1, 6):
        for h in all_graphs_upto_5[n]:
            assert is_permutationally_representable(h) == is_word_representable(add_apex(h))


def test_apex_fixtures():
    assert not is_permutationally_representable(families.cycle(5))
    assert is_permutationally_representable(families.cycle(6))
    assert is_permutationally_representable(families.complete(3))


def test_orients_each_edge_once():
    triangle = families.cycle(3).adj
    assert _orients_each_edge_once(triangle, [0b110, 0b100, 0])  # 1->2, 1->3, 2->3
    assert not _orients_each_edge_once(triangle, [0b110, 0, 0])  # 2-3 left out
    assert not _orients_each_edge_once(triangle, [0b110, 0b101, 0])  # 1-2 both ways
    assert not _orients_each_edge_once(triangle, [0b111, 0b100, 0])  # a loop at 1
    path = families.path(3).adj  # 1-2, 2-3
    assert not _orients_each_edge_once(path, [0b110, 0b100, 0])  # 1->3 is no edge
    assert not _orients_each_edge_once(path, [0b110, 0b100, 0b001])  # nor 1->3, 3->1
    assert _orients_each_edge_once(families.empty(2).adj, [0, 0])


def test_decide_is_the_filter_then_the_search():
    out = _decide(families.wheel(5), _Budget())
    assert out.refuted and out.nodes_expanded == 0
    for g in (
        families.petersen(),
        families.prism(3),
        families.co_t2(),
        families.max_degree_four_counterexample(),
    ):
        assert neighborhood_filter(g) is None
        out, search = _decide(g, _Budget()), find_semi_transitive(g)
        assert (out.status, out.witness, out.nodes_expanded) == (
            search.status,
            search.witness,
            search.nodes_expanded,
        ), g
    assert _decide(families.petersen(), _Budget(max_nodes=1)).status == "budget_exhausted"
    with pytest.raises(CeilingExceeded):
        _decide(families.empty(13), _Budget())


def test_neighborhood_filter():
    assert neighborhood_filter(families.wheel(5)) is not None  # hub sees C5
    assert neighborhood_filter(families.petersen()) is None
    assert neighborhood_filter(families.co_t2()) is None
    assert neighborhood_filter(families.max_degree_four_counterexample()) is None


def test_figure_derived_counterexamples():
    for g in (families.co_t2(), families.max_degree_four_counterexample()):
        assert not is_word_representable(g)
    assert max(
        families.max_degree_four_counterexample().degree(v) for v in range(1, 8)
    ) == 4


def test_neighborhood_necessity(connected_upto_6):
    for n in range(1, 7):
        for g in connected_upto_6[n]:
            if is_word_representable(g):
                assert neighborhood_filter(g) is None


def test_three_color():
    assert three_color(families.petersen()).found
    assert three_color(families.complete(4)).refuted
    assert three_color(families.crown(5)).found
    out = three_color(families.cycle(6))
    assert out.found and len(set(out.witness)) <= 2


def test_orientation_from_coloring():
    pet = families.petersen()
    col = three_color(pet).witness
    o = orientation_from_coloring(pet, col)
    assert is_semi_transitive(o)
    k3 = families.complete(3)
    o = orientation_from_coloring(k3, (1, 2, 3))
    assert is_transitive(o)
    with pytest.raises(ValueError):
        orientation_from_coloring(k3, (1, 1, 2))
    with pytest.raises(ValueError):
        orientation_from_coloring(families.empty(4), (1, 2, 3, 4))


def test_orientation_from_coloring_always_semi_transitive(connected_upto_6):
    for n in range(1, 7):
        for g in connected_upto_6[n]:
            out = three_color(g)
            if out.found:
                assert is_semi_transitive(orientation_from_coloring(g, out.witness))


def test_is_word_representable_fixtures():
    assert is_word_representable(families.complete(6))
    assert is_word_representable(families.prism(3))
    assert not is_word_representable(families.wheel(5))


def _oracle_semi_transitive(o):
    """Independent checker: acyclicity plus, for every arc x->y, transitivity
    of the sub-orientation induced by every simple directed x->y path with at
    least three edges (straight path enumeration, no closure tricks)."""
    n = o.graph.n
    succ = [set() for _ in range(n)]
    for u, v in o.arcs():
        succ[u - 1].add(v - 1)

    # acyclicity by DFS coloring
    color = [0] * n

    def has_cycle(v):
        color[v] = 1
        for w in succ[v]:
            if color[w] == 1 or (color[w] == 0 and has_cycle(w)):
                return True
        color[v] = 2
        return False

    if any(color[v] == 0 and has_cycle(v) for v in range(n)):
        return False

    def paths(x, y):
        stack = [(x, [x])]
        while stack:
            v, path = stack.pop()
            for w in succ[v]:
                if w == y:
                    yield path + [y]
                elif w not in path:
                    stack.append((w, path + [w]))

    for x in range(n):
        for y in succ[x]:
            for path in paths(x, y):
                if len(path) < 4:
                    continue
                verts = set(path)
                ok = all(
                    c in succ[a]
                    for a in verts
                    for b in succ[a] & verts
                    for c in succ[b] & verts
                )
                if not ok:
                    return False
    return True


def test_semi_transitive_matches_oracle_on_all_small_orientations():
    for n in range(2, 6):
        for g in generate_all(n):
            edges = g.edges()
            for mask in range(1 << len(edges)):
                arcs = [
                    (u, v) if mask >> i & 1 else (v, u)
                    for i, (u, v) in enumerate(edges)
                ]
                o = Orientation(g, arcs)
                assert is_semi_transitive(o) == _oracle_semi_transitive(o)


def test_find_semi_transitive_matches_orientation_enumeration():
    # the search's verdict must agree with brute force over all orientations
    for n in range(2, 6):
        for g in generate_all(n):
            edges = g.edges()
            exists = False
            for mask in range(1 << len(edges)):
                arcs = [
                    (u, v) if mask >> i & 1 else (v, u)
                    for i, (u, v) in enumerate(edges)
                ]
                if _oracle_semi_transitive(Orientation(g, arcs)):
                    exists = True
                    break
            assert find_semi_transitive(g).found == exists


def generate_all(n):
    from wordrep.enumeration import generate

    return generate(n, connected=False)


def test_triple_subdivision_of_k5_is_representable():
    from wordrep.graphs import subdivide

    g = families.complete(5)
    for u, v in families.complete(5).edges():
        g = subdivide(g, (u, v), 3)
    assert g.n == 5 + 2 * 10
    # 25 vertices is past the search ceiling; certify through a 3-coloring
    coloring = three_color(g)
    assert coloring.found
    assert is_semi_transitive(orientation_from_coloring(g, coloring.witness))


_BAD_WITNESS_SCRIPT = """
import sys
from wordrep import families, orientation

if sys.flags.optimize != 1:
    raise SystemExit("not run with -O")

def raises(call):
    try:
        call()
    except AssertionError:
        return True
    return False

# a directed triangle is no orientation of a graph with a word
orientation._OrientSearch.search = lambda self: [0b010, 0b100, 0b001]
semi = raises(lambda: orientation.find_semi_transitive(families.cycle(3)))
# an orientation with no arcs leaves every edge of Petersen unoriented
orientation._OrientSearch.search = lambda self: [0] * self.n
semi_empty = raises(lambda: orientation.find_semi_transitive(families.petersen()))
# 1->2->3 without the arc 1->3 is not transitive
orientation._transitive_orientation = lambda adj: ([0b010, 0b100, 0b000], 1)
trans = raises(lambda: orientation.find_transitive(families.path(3)))
# no arcs at all is no transitive orientation of C4
orientation._transitive_orientation = lambda adj: ([0] * len(adj), 1)
trans_empty = raises(lambda: orientation.find_transitive(families.cycle(4)))
# blind to neighbours, the coloring search paints K3 with one color
orientation._bits = lambda mask: iter(())
color = raises(lambda: orientation.three_color(families.complete(3)))
print(semi, semi_empty, trans, trans_empty, color)
"""


def test_witness_checks_survive_optimize():
    # `python -O` strips assert statements, so a witness check must raise
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BAD_WITNESS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 5


# -- references from before the bitmask rewrite ----------------------------------
#
# The transitive-orientation backtracker that TRO replaced, and the
# semi-transitive search's arc application and propagation as they were
# before they moved onto mask operations, kept verbatim apart from their
# names.


class _ReferenceTransSearch:
    """Backtracking search for a transitive orientation.

    Orienting a->b forces a->c for c adjacent to a but not b, and c->b for c
    adjacent to b but not a; 2-paths close transitively or contradict when
    the closing edge is absent.
    """

    def __init__(self, g, budget):
        self.g = g
        self.n = g.n
        self.adj = g.adj
        self.succ = [0] * g.n
        self.pred = [0] * g.n
        self.budget = budget
        self.edges = [(u - 1, v - 1) for u, v in g.edges()]

    def _apply(self, a, b, trail):
        if self.succ[b] >> a & 1:
            return False
        if self.succ[a] >> b & 1:
            return True
        self.succ[a] |= 1 << b
        self.pred[b] |= 1 << a
        trail.append((a, b))
        return True

    def _propagate(self, a, b, trail):
        queue = [(a, b)]
        qi = 0
        while qi < len(queue):
            a, b = queue[qi]
            qi += 1
            was_new = not (self.succ[a] >> b & 1)
            if not self._apply(a, b, trail):
                return False
            if not was_new:
                continue
            mask_b = self.adj[b] & ~self.adj[a] & ~(1 << a)
            for c in _bits(mask_b):
                queue.append((c, b))
            mask_a = self.adj[a] & ~self.adj[b] & ~(1 << b)
            for c in _bits(mask_a):
                queue.append((a, c))
            for c in _bits(self.succ[b]):
                if not self.adj[a] >> c & 1:
                    return False
                queue.append((a, c))
            for c in _bits(self.pred[a]):
                if not self.adj[c] >> b & 1:
                    return False
                queue.append((c, b))
        return True

    def search(self, depth=0):
        if not self.budget.tick():
            raise _OutOfBudget
        while depth < len(self.edges):
            a, b = self.edges[depth]
            if (self.succ[a] >> b | self.succ[b] >> a) & 1:
                depth += 1
                continue
            for first, second in ((a, b), (b, a)):
                trail = []
                if self._propagate(first, second, trail):
                    result = self.search(depth + 1)
                    if result is not None:
                        return result
                for x, y in reversed(trail):
                    self.succ[x] &= ~(1 << y)
                    self.pred[y] &= ~(1 << x)
            return None
        return list(self.succ)


def reference_trans_search(g):
    """The old search's verdict: is g a comparability graph?"""
    if g.m == 0:
        return True
    return _ReferenceTransSearch(g, _Budget()).search() is not None


class _ReferenceOrientSearch(_OrientSearch):
    def _reaches(self, src, dst):
        seen = 1 << src
        frontier = seen
        target = 1 << dst
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= self.succ[v]
            if nxt & target:
                return True
            frontier = nxt & ~seen
            seen |= frontier
        return False

    def _apply(self, a, b, trail):
        """Add arc a->b if consistent; record on trail.  False on conflict."""
        if self.succ[b] >> a & 1:
            return False  # already oriented the other way
        if self.succ[a] >> b & 1:
            return True
        if self._reaches(b, a):
            return False  # would close a directed cycle
        self.succ[a] |= 1 << b
        self.pred[b] |= 1 << a
        trail.append((a, b))
        return True

    def _propagate(self, a, b, trail):
        """Force consequences of arc a->b; False on contradiction."""
        queue = [(a, b)]
        qi = 0
        while qi < len(queue):
            a, b = queue[qi]
            qi += 1
            if self.succ[a] >> b & 1:
                continue  # already applied, consequences already queued
            if not self._apply(a, b, trail):
                return False
            # triangle closure
            for c in _bits(self.adj[a] & self.adj[b]):
                if self.succ[c] >> a & 1:
                    queue.append((c, b))
                if self.succ[b] >> c & 1:
                    queue.append((a, c))
            # quadrilateral completion around every new 2-path through a->b
            for u, x, v in self._two_paths(a, b):
                uv_adjacent = self.adj[u] >> v & 1
                for w in _bits(self.adj[u] & self.adj[v] & ~(1 << x)):
                    if uv_adjacent and self.adj[w] >> x & 1:
                        continue
                    queue.append((u, w))
                    queue.append((w, v))
        return True

    def _two_paths(self, a, b):
        for p in _bits(self.pred[a]):
            yield p, a, b
        for s in _bits(self.succ[b]):
            yield a, b, s


def reference_semi_transitive(g):
    """(succ or None, nodes) of the search with the old propagation."""
    budget = _Budget()
    return _ReferenceOrientSearch(g, budget).search(), budget.nodes


def _random_connected(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(9, 12)
        p = rng.uniform(0.3, 0.8)
        g = Graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p])
        if is_connected(g):
            out.append(g)
    return out


def test_find_transitive_matches_reference_search():
    for g in atlas_graphs():
        assert find_transitive(g).found == reference_trans_search(g), g
    hoods = 0
    for g in _random_connected(300, seed=11):
        for v in g.vertices():
            hood = induced_subgraph(g, g.neighbors(v))
            assert find_transitive(hood).found == reference_trans_search(hood), (g, v)
            hoods += 1
    assert hoods > 2500


def _brute_force_comparability(g):
    """Whether some orientation of g, out of all 2^m, is transitive."""
    edges = g.edges()
    for mask in range(1 << len(edges)):
        arcs = {(u, v) if mask >> i & 1 else (v, u) for i, (u, v) in enumerate(edges)}
        if all((a, c) in arcs for a, b in arcs for b2, c in arcs if b == b2):
            return True
    return False


def test_find_transitive_matches_brute_force():
    from conftest import all_labeled_graphs

    for n in range(6):
        for g in all_labeled_graphs(n):
            assert find_transitive(g).found == _brute_force_comparability(g), g
    assert not _brute_force_comparability(families.cycle(5))  # it can refute


def test_find_transitive_counts_implication_classes():
    # one class per round, each taken in the graph of the edges still
    # unoriented: P3 and C4 are one class; K3 has no non-edge, so 1->2 is a
    # class alone, after which 1->3 forces 2->3 in the path that is left
    assert find_transitive(families.path(3)).nodes_expanded == 1
    assert find_transitive(families.cycle(4)).nodes_expanded == 1
    assert find_transitive(families.complete(3)).nodes_expanded == 2
    assert find_transitive(Graph(4, [(1, 2), (3, 4)])).nodes_expanded == 2
    assert find_transitive(families.empty(3)).nodes_expanded == 0


def test_semi_transitive_search_matches_reference_propagation():
    graphs = [g for g in atlas_graphs() if g.m and is_connected(g)]
    graphs += _random_connected(300, seed=12)
    for g in graphs:
        out = find_semi_transitive(g)
        succ, nodes = reference_semi_transitive(g)
        assert out.nodes_expanded == nodes, g
        assert (out.witness.succ if out.found else None) == (
            tuple(succ) if succ is not None else None
        ), g
