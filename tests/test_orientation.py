import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import atlas_graphs, shallow_stack, words_over
from wordrep import families, orientation
from wordrep.graphs import (
    Graph,
    _bits,
    add_apex,
    canonical_form,
    induced_subgraph,
    is_connected,
    line_graph,
    subdivide,
)
from wordrep.orientation import (
    Orientation,
    _orient,
    _orients_each_edge_once,
    _shortcut_free,
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
    topological_order,
    word_to_orientation,
)
from wordrep.outcome import (
    BUDGET_EXHAUSTED,
    REFUTED,
    WITNESS,
    BudgetExhausted,
    _Budget,
    _OutOfBudget,
    run_search,
)
from wordrep.repnum import permutational_representation_number
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


def raw_search(g):
    """(succ or None, nodes) of the orientation search alone, without the
    comparability and filter routes."""
    budget = _Budget()
    o = _orient(g, budget)
    return (None if o is None else o.succ), budget.nodes


def search_result(out):
    """(succ or None, nodes) of an outcome, to compare with `raw_search`."""
    return (out.witness.succ if out.found else None), out.nodes_expanded


def test_find_semi_transitive_ceiling_and_budget():
    crown = families.crown(7)
    out = find_semi_transitive(crown)
    assert out.found and is_semi_transitive(out.witness)
    succ, _ = raw_search(crown)  # TRO settles the crown; the search takes it too
    assert is_semi_transitive(Orientation._from_succ(crown, succ))
    out = find_semi_transitive(families.petersen(), max_nodes=3)
    assert out.status == "budget_exhausted"
    assert out.detail == {"route": "search", "conflicts": 0}
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
    out = find_semi_transitive(families.wheel(5))
    assert out.refuted and out.nodes_expanded == 0
    for g in (
        families.petersen(),
        families.prism(3),
        families.co_t2(),
        families.max_degree_four_counterexample(),
    ):
        assert neighborhood_filter(g) is None
        out = find_semi_transitive(g)
        assert set(out.detail) == {"route", "conflicts"}, g
        assert out.detail["route"] == "search", g
        assert search_result(out) == raw_search(g), g
    assert find_semi_transitive(families.petersen(), max_nodes=1).status == "budget_exhausted"
    assert find_semi_transitive(families.empty(13)).detail == {"route": "comparability"}


def test_decide_skips_the_filter_on_comparability_graphs(monkeypatch):
    filtered, searched = [], []
    real_filter, real_search = orientation.neighborhood_filter, orientation._orient
    monkeypatch.setattr(
        orientation, "neighborhood_filter", lambda g: filtered.append(g) or real_filter(g)
    )
    monkeypatch.setattr(
        orientation,
        "_orient",
        lambda g, budget, detail: searched.append(g) or real_search(g, budget, detail),
    )
    for g in (families.crown(4), families.complete(6), families.path(7), families.empty(3)):
        out, tro = find_semi_transitive(g), find_transitive(g)
        assert out.found and out.detail == {"route": "comparability"}
        assert (out.witness, out.nodes_expanded) == (tro.witness, tro.nodes_expanded)
        assert is_semi_transitive(out.witness)
    assert filtered == searched == []
    out = find_semi_transitive(families.wheel(5))
    assert out.refuted and out.detail == {"route": "filter", "vertex": 6}
    assert filtered == [families.wheel(5)] and searched == []
    out = find_semi_transitive(families.prism(3))
    assert out.found and out.detail == {"route": "search", "conflicts": 0}
    assert searched == [families.prism(3)]


def test_elapsed_covers_every_route(monkeypatch):
    # a stub clock that only the routes' work moves: each TRO run by 1, the
    # filter by 10 and the search by 100
    now = [0.0]

    def advancing(step, call):
        def timed(*args):
            now[0] += step
            return call(*args)

        return timed

    monkeypatch.setattr(orientation, "time", SimpleNamespace(monotonic=lambda: now[0]))
    for name, step in (
        ("_transitive_orientation", 1),
        ("neighborhood_filter", 10),
        ("_orient", 100),
    ):
        monkeypatch.setattr(orientation, name, advancing(step, getattr(orientation, name)))
    for g, route, elapsed in (
        (families.path(3), "comparability", 1),
        (families.wheel(5), "filter", 11),
        (families.prism(3), "search", 111),
    ):
        out = find_semi_transitive(g)
        assert (out.detail["route"], out.elapsed) == (route, elapsed), g


def test_neighborhood_filter():
    assert neighborhood_filter(families.wheel(5)) is not None  # hub sees C5
    assert neighborhood_filter(families.petersen()) is None
    assert neighborhood_filter(families.co_t2()) is None
    assert neighborhood_filter(families.max_degree_four_counterexample()) is None


def reference_neighborhood_filter(g):
    """`neighborhood_filter` as it was when it built each neighbourhood."""
    for v in g.vertices():
        if not find_transitive(induced_subgraph(g, g.neighbors(v))).found:
            return v
    return None


@st.composite
def _graphs_upto(draw, top):
    n = draw(st.integers(min_value=0, max_value=top))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def _core_sizes(g, upto):
    """(core size, largest vertex) of the neighbourhoods of 5 or more
    vertices among vertices 1..upto; the core is the neighbourhood less its
    vertices adjacent to all or none of the rest of it."""
    sizes = []
    for v in range(1, upto + 1):
        hood = set(g.neighbors(v))
        if len(hood) >= 5:
            degrees = [len(hood.intersection(g.neighbors(u))) for u in hood]
            sizes.append((sum(0 < d < len(hood) - 1 for d in degrees), max(hood)))
    return sizes


def test_neighborhood_filter_matches_reference():
    hits = 0
    cases = {"under 5": 0, "5": 0, "TRO": 0, "TRO past 12 bits": 0}

    def check(g):
        v = neighborhood_filter(g)
        assert v == reference_neighborhood_filter(g), g
        for size, top in _core_sizes(g, g.n if v is None else v):
            cases["under 5" if size < 5 else "5" if size == 5 else "TRO"] += 1
            cases["TRO past 12 bits"] += size > 5 and top > 12
        return v is not None

    for g in atlas_graphs() + _random_connected(300, seed=13):
        hits += check(g)
    assert hits == 21 + 137  # atlas graphs, random graphs

    # masks wider than the 12-bit table of `_bits`, and cores of 6 or more
    @settings(max_examples=300, deadline=None, database=None)
    @given(_graphs_upto(14))
    def check_random(g):
        check(g)

    check_random()
    assert all(cases.values()), cases


def test_graphs_below_five_vertices_are_comparability_graphs():
    # why `neighborhood_filter` passes every core under 5 vertices, and fails
    # a core of 5 only when it is C5
    for n in range(1, 5):
        assert all(find_transitive(g).found for g in generate_all(n)), n
    failing = [g for g in generate_all(5) if not find_transitive(g).found]
    assert [canonical_form(g) for g in failing] == [canonical_form(families.cycle(5))]


def test_universal_and_isolated_vertices_keep_comparability():
    # why `neighborhood_filter` may strip a neighbourhood to its core
    for n in range(1, 7):
        for g in generate_all(n):
            found = find_transitive(g).found
            assert find_transitive(add_apex(g)).found == found, g
            assert find_transitive(Graph(n + 1, g.edges())).found == found, g


def test_neighborhood_filter_sends_only_cores_of_six_to_tro(monkeypatch):
    calls = []
    real = orientation._transitive_orientation
    monkeypatch.setattr(
        orientation, "_transitive_orientation", lambda adj: calls.append(adj) or real(adj)
    )
    # K8's neighbourhoods are K7s, all universal; W5's hub sees C5, its own
    # core; W6's hub sees C6, which only TRO settles
    for g, vertex, tro_calls in (
        (families.complete(8), None, 0),
        (families.wheel(5), 6, 0),
        (families.wheel(6), None, 1),
    ):
        calls.clear()
        assert neighborhood_filter(g) == vertex, g
        assert len(calls) == tro_calls, g


def test_decide_routes_agree_with_the_search():
    routes = set()

    def check(g):
        out = find_semi_transitive(g)
        routes.add(out.detail["route"])
        raw, tro = raw_search(g), find_transitive(g)
        assert out.found == (raw[0] is not None), g
        assert (out.detail["route"] == "comparability") == tro.found, g
        if tro.found:
            assert is_semi_transitive(out.witness), g
            assert out.witness == tro.witness, g
        elif out.detail["route"] == "filter":
            assert out.refuted and out.nodes_expanded == 0, g
            assert out.detail["vertex"] == neighborhood_filter(g), g
        else:
            assert search_result(out) == raw, g

    for g in atlas_graphs() + _random_connected(300, seed=13):
        check(g)
    assert routes == {"comparability", "filter", "search"}

    @settings(max_examples=300, deadline=None, database=None)
    @given(_graphs_upto(10))
    def check_random(g):
        check(g)

    check_random()


def test_comparability_has_no_ceiling():
    # TRO is polynomial: it settles the hub's 14-vertex neighbourhood in W14,
    # a C14 that is its own core, and the 14-vertex crown
    assert neighborhood_filter(families.wheel(14)) is None
    crown = families.crown(7)
    assert crown.n == 14
    out = find_transitive(crown)
    assert out.found and is_transitive(out.witness)
    assert is_permutationally_representable(crown)
    assert is_word_representable(families.wheel(14))


def _from_networkx(h):
    """A networkx graph labelled 1..n in its node order."""
    index = {v: i + 1 for i, v in enumerate(h.nodes())}
    return Graph(len(index), [(index[u], index[v]) for u, v in h.edges()])


def test_decide_past_twelve_vertices():
    # no size ceiling: TRO and the filter settle these at any size, and the
    # search runs until it reaches a verdict or the budget runs out
    import networkx as nx

    k5_subdivided = families.complete(5)
    for u, v in families.complete(5).edges():
        k5_subdivided = subdivide(k5_subdivided, (u, v), 3)
    cases = [
        (families.crown(8), "comparability", True, None),
        (_from_networkx(nx.heawood_graph()), "comparability", True, None),
        (_from_networkx(nx.hypercube_graph(4)), "comparability", True, None),
        (_from_networkx(nx.grid_2d_graph(5, 5)), "comparability", True, None),
        (families.wheel(13), "filter", False, 0),
        (_from_networkx(nx.paley_graph(17).to_undirected()), "filter", False, 0),
        (families.cycle(1501), "search", True, 1503),
        (families.prism(401), "search", True, 811),
        (_from_networkx(nx.mycielski_graph(5)), "search", False, 254),
        (_from_networkx(nx.tutte_graph()), "search", True, 47405),
        (k5_subdivided, "search", True, 31),
    ]
    for g, route, found, nodes in cases:
        assert g.n > 12
        out = find_semi_transitive(g)
        assert (out.detail["route"], out.found) == (route, found), g
        if nodes is not None:
            assert out.nodes_expanded == nodes, g
        if found:
            assert is_semi_transitive(out.witness), g
    assert raw_search(families.wheel(13))[1] == 1036


def test_orientation_search_keeps_no_stack_per_edge():
    # 101 edges deep: a search that recursed once per branch point would
    # run out of a stack of 50 frames
    with shallow_stack():
        out = find_semi_transitive(families.cycle(101))
    assert out.found and is_semi_transitive(out.witness)


def test_permutation_order_is_checked(monkeypatch):
    # 4->1->2 and 4->3->2 orient C4 without 4->2; taken unchecked, this order
    # made the search refute C4 at 2 permutations, although C4 has dimension 2
    forged = lambda adj: ([0b0010, 0, 0b0010, 0b0101], 1)
    monkeypatch.setattr(orientation, "_transitive_orientation", forged)
    with pytest.raises(AssertionError):
        permutational_representation_number(families.cycle(4))


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


def reference_three_color(g, max_nodes=None, max_seconds=None):
    """`three_color` as it was when it recursed once per vertex, verbatim
    apart from its name and its 64-vertex ceiling, which went with it."""
    budget = _Budget(max_nodes, max_seconds)
    order = sorted(range(g.n), key=lambda v: -g.adj[v].bit_count())
    color = [0] * g.n  # 0 = uncolored

    def assign(i, palette):
        budget.tick()
        if i == g.n:
            return True
        v = order[i]
        limit = min(3, palette + 1)
        for c in range(1, limit + 1):
            if any(color[u] == c for u in _bits(g.adj[v])):
                continue
            color[v] = c
            if assign(i + 1, max(palette, c)):
                return True
            color[v] = 0
        return False

    return orientation.run_search(
        lambda: tuple(color) if assign(0, 0) else None,
        budget,
        lambda c: all(c[u - 1] != c[v - 1] for u, v in g.edges()),
    )


def test_three_color_matches_the_recursive_search():
    statuses = set()
    for g in atlas_graphs():
        for max_nodes in (None, 5):
            out, ref = three_color(g, max_nodes), reference_three_color(g, max_nodes)
            assert (out.status, out.witness, out.nodes_expanded) == (
                ref.status,
                ref.witness,
                ref.nodes_expanded,
            ), (g, max_nodes)
            statuses.add(out.status)
    assert statuses == {"witness", "refuted", "budget_exhausted"}


def test_three_color_keeps_its_own_stack():
    # one node per vertex: a recursion would need 101 frames
    with shallow_stack():
        out = three_color(families.cycle(101))
    assert out.found and out.nodes_expanded == 102
    assert sorted(set(out.witness)) == [1, 2, 3]


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
    # a 3-coloring certifies it without the orientation search, which finds
    # a witness too (test_decide_past_twelve_vertices)
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

forge = orientation.Orientation._from_succ
# a directed cycle is no semi-transitive orientation; C5 passes TRO and the
# filter, so the search gives the witness
cycle = [0b00010, 0b00100, 0b01000, 0b10000, 0b00001]
orientation._orient = lambda g, budget, detail: forge(g, cycle)
semi = raises(lambda: orientation.find_semi_transitive(families.cycle(5)))
# an orientation with no arcs leaves every edge of Petersen unoriented
orientation._orient = lambda g, budget, detail: forge(g, [0] * g.n)
semi_empty = raises(lambda: orientation.find_semi_transitive(families.petersen()))
# 1->2->3 without the arc 1->3 is not transitive
orientation._transitive_orientation = lambda adj: ([0b010, 0b100, 0b000], 1)
trans = raises(lambda: orientation.find_transitive(families.path(3)))
# no arcs at all is no transitive orientation of C4
orientation._transitive_orientation = lambda adj: ([0] * len(adj), 1)
trans_empty = raises(lambda: orientation.find_transitive(families.cycle(4)))
# nor of the C6 that is the hub's neighbourhood in W6 (its own core)
hood = raises(lambda: orientation.neighborhood_filter(families.wheel(6)))
# blind to neighbours, the coloring search paints K3 with one color
orientation._bits = lambda mask: iter(())
color = raises(lambda: orientation.three_color(families.complete(3)))
print(semi, semi_empty, trans, trans_empty, hood, color)
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
    assert proc.stdout.split() == ["True"] * 6


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


# The semi-transitive search as the class it was before it became the
# function `_orient`, kept verbatim: the reference that `_orient` must match
# node for node, and the base of the two searches below.


class _OrientSearch:
    """Edge-by-edge orientation search with forced-arc propagation.

    Propagation closes directed triangles (the third edge of a triangle with
    a directed 2-path is forced away from a 3-cycle) and completes
    quadrilaterals: for a directed 2-path u->x->v and a common neighbor w of
    u and v, unless both u,v and w,x are adjacent, the only completion that
    avoids cycles and shortcuts is u->w, w->v.  Propagation is conservative;
    each complete assignment is still verified by the full shortcut check.

    The root edge a-b (depth 0) is branched as a->b only.  The reverse of a
    semi-transitive orientation is semi-transitive, so if one exists, one
    holds a->b, and since propagation only adds arcs that every completion
    must hold, the a->b subtree contains it.
    """

    def __init__(self, g, budget):
        self.g = g
        self.n = g.n
        self.adj = g.adj
        self.succ = [0] * g.n
        self.pred = [0] * g.n
        self.budget = budget
        deg = [a.bit_count() for a in self.adj]
        # branch on edges with high-degree endpoints first: the edges are
        # bucketed by the lower degree of their ends, and each bucket keeps
        # lexicographic order
        buckets = [[] for _ in range(g.n)]
        for u, a in enumerate(self.adj):
            for v in _bits(a >> u + 1 << u + 1):
                buckets[min(deg[u], deg[v])].append((u, v))
        self.edges = [e for bucket in reversed(buckets) for e in bucket]

    def _propagate(self, a, b, trail):
        """Add arc a->b and every arc it forces, recording them on trail;
        False on contradiction.

        The forced arcs form one least closure, whatever order the queue
        takes them in, so the outcome and the arcs added do not depend on it.
        """
        adj, succ, pred = self.adj, self.succ, self.pred
        queue = [(a, b)]
        for a, b in queue:
            bit_a, bit_b = 1 << a, 1 << b
            if succ[a] & bit_b:
                continue  # already applied, consequences already queued
            if succ[b] & bit_a:
                return False  # already oriented the other way
            if succ[b] and pred[a]:  # would a->b close a directed cycle?
                seen = frontier = bit_b
                while frontier:
                    reach = 0
                    for v in _bits(frontier):
                        reach |= succ[v]
                    if reach & bit_a:
                        return False
                    frontier = reach & ~seen
                    seen |= frontier
            succ[a] |= bit_b
            pred[b] |= bit_a
            trail.append((a, b))
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
                    w &= ~succ[u]
                    if w:
                        queue += [(u, c) for c in _bits(w)]
            if succ[b]:
                for v in _bits(succ[b]):  # a->b->v
                    w = adj[a] & adj[v] & ~bit_b
                    if adj[a] >> v & 1:
                        w &= ~adj[b]
                    heads |= w
                    w &= ~pred[v]
                    if w:
                        queue += [(c, v) for c in _bits(w)]
            heads &= ~succ[a]
            if heads:
                queue += [(a, c) for c in _bits(heads)]
            tails &= ~pred[b]
            if tails:
                queue += [(c, b) for c in _bits(tails)]
        return True

    def search(self):
        """First semi-transitive completion in branch order, else None.

        A depth-first search over one explicit stack, so its depth is bounded
        by the budget alone.  Each entry is a branch point whose arc
        propagated: the edge's index, the trail of that arc, and the arc
        left to try on the edge (None once both are tried, and at the root
        edge).  Every node ticks the budget once: the root, and each branch
        whose arc propagates without contradiction.
        """
        edges, succ, pred = self.edges, self.succ, self.pred
        stack = []
        depth = 0
        while True:
            self.budget.tick()
            while depth < len(edges):
                a, b = edges[depth]
                if not (succ[a] >> b | succ[b] >> a) & 1:  # a-b is unoriented
                    break
                depth += 1
            if depth < len(edges):
                arc = edges[depth]
                rest = (b, a) if depth else None
            else:
                order = topological_order(Orientation._from_succ(self.g, succ))
                if order is not None and _shortcut_free(succ, order):
                    return list(succ)
                arc = None
            while True:  # the next arc that propagates, here or further up
                if arc is not None:
                    trail = []
                    a, b = arc
                    if self._propagate(a, b, trail):
                        stack.append((depth, trail, rest))
                        depth += 1
                        break
                    arc, rest = rest, None
                elif stack:
                    depth, trail, arc = stack.pop()
                    rest = None
                else:
                    return None
                for x, y in reversed(trail):  # the arc that failed or is backed out of
                    succ[x] &= ~(1 << y)
                    pred[y] &= ~(1 << x)


class _ReferenceOrientSearch(_OrientSearch):
    # inherits `search`, root-edge pruning included, so it checks the
    # propagation only and is no unpruned oracle (`_UnprunedOrientSearch` is)

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


def reference_transitive_orientation(adj):
    """`_transitive_orientation` as it was when each class swept every
    vertex, verbatim apart from its name."""
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
            while stack:
                a, b = stack.pop()
                new = rem[a] & ~rem[b] & ~(1 << b) & ~out[a]
                if new:
                    if new & into[a]:
                        return None, classes
                    out[a] |= new
                    for c in _bits(new):
                        into[c] |= 1 << a
                        stack.append((a, c))
                new = rem[b] & ~rem[a] & ~(1 << a) & ~into[b]
                if new:
                    if new & out[b]:
                        return None, classes
                    into[b] |= new
                    for c in _bits(new):
                        out[c] |= 1 << b
                        stack.append((c, b))
            for v in range(n):
                rem[v] &= ~(out[v] | into[v])
                succ[v] |= out[v]
    return succ, classes


def test_transitive_orientation_matches_the_full_sweep():
    # the graphs and the neighbourhood cuts that `neighborhood_filter` hands
    # to TRO: the same orientation, refutation and class count
    cases = [g.adj for g in atlas_graphs()]
    for g in _random_connected(300, seed=14):
        cases.append(g.adj)
        for hood in g.adj:
            cases.append([a & hood if hood >> u & 1 else 0 for u, a in enumerate(g.adj)])
    refuted = 0
    for adj in cases:
        out = orientation._transitive_orientation(adj)
        assert out == reference_transitive_orientation(adj), adj
        refuted += out[0] is None
    assert 0 < refuted < len(cases)


def test_arc_checks_match_their_generator_forms():
    # `_orients_each_edge_once` and `_transitive` against the one-expression
    # forms they had, on random arc tables with arcs missing, doubled and
    # off the edges
    rng = random.Random(15)
    seen = set()
    for _ in range(4000):
        n = rng.randint(1, 8)
        pairs = itertools.combinations(range(1, n + 1), 2)
        adj = Graph(n, [e for e in pairs if rng.random() < 0.6]).adj
        succ = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            # 0: unoriented, 1: u->v, 2: v->u, 3: both; rarely an arc off the edges
            if adj[u] >> v & 1:
                way = rng.choice((1, 2) * 12 + (0, 3))
            else:
                way = rng.choice((0,) * 30 + (1, 3))
            succ[u] |= (way & 1) << v
            succ[v] |= (way >> 1) << u
        pred = [0] * n
        for u, s in enumerate(succ):
            for v in _bits(s):
                pred[v] |= 1 << u
        once = all(not s & ~a for s, a in zip(succ, adj)) and all(
            s ^ p == a for s, p, a in zip(succ, pred, adj)
        )
        transitive = not any(succ[v] & ~su for su in succ for v in _bits(su))
        assert _orients_each_edge_once(adj, succ) == once, (adj, succ)
        assert orientation._transitive(succ) == transitive, succ
        seen.add((once, transitive))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_search_branches_on_edges_by_their_lower_degree():
    # descending lower end degree, ties in lexicographic order: the order of
    # a stable sort of `g.edges()` on that key
    for g in atlas_graphs() + _random_connected(100, seed=16):
        deg = [a.bit_count() for a in g.adj]
        edges = [(u - 1, v - 1) for u, v in g.edges()]
        expected = sorted(edges, key=lambda e: -min(deg[e[0]], deg[e[1]]))
        assert _OrientSearch(g, _Budget()).edges == expected, g


def _random_graphs(count, seed, low, high, density):
    """`count` seeded graphs on `low` to `high` vertices, connected or not,
    each with an edge probability drawn from the range `density`."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(low, high)
        p = rng.uniform(*density)
        pairs = itertools.combinations(range(1, n + 1), 2)
        out.append(Graph(n, [e for e in pairs if rng.random() < p]))
    return out


def _orient_against_the_class(g, max_nodes=None):
    """`_orient` and the frozen `_OrientSearch` on g, each under a budget of
    `max_nodes`: their (status, succ, nodes) must agree, and `_orient`'s
    outcome is returned."""
    new, old = _Budget(max_nodes), _Budget(max_nodes)
    out = run_search(lambda: _orient(g, new), new, lambda o: True)
    ref = run_search(lambda: _OrientSearch(g, old).search(), old, lambda succ: True)
    assert search_result(out) == (
        None if ref.witness is None else tuple(ref.witness),
        ref.nodes_expanded,
    ), g
    assert out.status == ref.status, g
    return out


def test_orient_matches_the_class_it_replaced():
    graphs = [g for n in range(1, 8) for g in generate_all(n)] + atlas_graphs()
    graphs += _random_graphs(300, seed=17, low=9, high=14, density=(0.2, 0.8))
    statuses = set()
    for g in graphs:
        out = _orient_against_the_class(g)
        statuses.add(out.status)
        # a budget one node short stops both at the same last node
        if out.nodes_expanded > 1:
            stopped = _orient_against_the_class(g, max_nodes=out.nodes_expanded - 1)
            assert stopped.status == BUDGET_EXHAUSTED, g
    assert statuses == {WITNESS, REFUTED}
    sparse = [
        _orient_against_the_class(g, max_nodes=20_000).status
        for g in _random_graphs(20, seed=18, low=20, high=40, density=(0.05, 0.15))
    ]
    assert set(sparse) == {WITNESS, REFUTED, BUDGET_EXHAUSTED}


@st.composite
def _graphs_of_any_density(draw, top):
    """Graphs on 0..top vertices, each pair an edge with one drawn probability."""
    n = draw(st.integers(min_value=0, max_value=top))
    p = draw(st.floats(min_value=0, max_value=1))
    rng = draw(st.randoms(use_true_random=False))
    pairs = itertools.combinations(range(1, n + 1), 2)
    return Graph(n, [e for e in pairs if rng.random() < p])


@settings(max_examples=200, deadline=None, database=None)
@given(_graphs_of_any_density(12))
def test_orient_matches_the_class_on_any_density(g):
    # propagation assigns each forced arc when it is forced; the class
    # assigned it when it was dequeued, and both reach the same closure
    out = _orient_against_the_class(g)
    if out.nodes_expanded > 1:
        stopped = _orient_against_the_class(g, max_nodes=out.nodes_expanded - 1)
        assert stopped.status == BUDGET_EXHAUSTED, g


class _CountingOrientSearch(_OrientSearch):
    """The frozen class, counting the propagations that fail."""

    conflicts = 0

    def _propagate(self, a, b, trail):
        if super()._propagate(a, b, trail):
            return True
        self.conflicts += 1
        return False


def _class_conflicts(g, max_nodes=None):
    ref = _CountingOrientSearch(g, _Budget(max_nodes))
    try:
        ref.search()
    except _OutOfBudget:
        pass
    return ref.conflicts


def test_search_reports_its_conflicts():
    import networkx as nx

    graphs = [g for n in range(1, 8) for g in generate_all(n)]
    graphs.append(_from_networkx(nx.mycielski_graph(5)))
    searched = 0
    for g in graphs:
        out = find_semi_transitive(g)
        if out.detail["route"] != "search":
            assert "conflicts" not in out.detail, g
            continue
        searched += 1
        assert out.detail["conflicts"] == _class_conflicts(g), g
        if out.nodes_expanded > 1:
            nodes = out.nodes_expanded - 1
            stopped = find_semi_transitive(g, max_nodes=nodes)
            assert stopped.status == BUDGET_EXHAUSTED, g
            assert stopped.detail["conflicts"] == _class_conflicts(g, nodes), g
    assert searched > 100
    # M5 is refuted, and each of its 254 nodes leaves one failed propagation
    assert (out.refuted, out.nodes_expanded, out.detail["conflicts"]) == (True, 254, 254)


def test_semi_transitive_search_matches_reference_propagation():
    graphs = [g for g in atlas_graphs() if g.m and is_connected(g)]
    graphs += _random_connected(300, seed=12)
    for g in graphs:
        succ, nodes = reference_semi_transitive(g)
        assert raw_search(g) == ((tuple(succ) if succ is not None else None), nodes), g


class _UnprunedOrientSearch(_OrientSearch):
    """The search branching both ways on every edge, the root edge too."""

    search = lambda self: self._extend(0)

    def _extend(self, depth):
        self.budget.tick()
        while depth < len(self.edges):
            a, b = self.edges[depth]
            if (self.succ[a] >> b | self.succ[b] >> a) & 1:
                depth += 1
                continue
            for first, second in ((a, b), (b, a)):
                trail = []
                if self._propagate(first, second, trail):
                    result = self._extend(depth + 1)
                    if result is not None:
                        return result
                for x, y in reversed(trail):
                    self.succ[x] &= ~(1 << y)
                    self.pred[y] &= ~(1 << x)
            return None
        order = orientation.topological_order(Orientation._from_succ(self.g, self.succ))
        if order is not None and orientation._shortcut_free(self.succ, order):
            return list(self.succ)
        return None


def test_root_edge_pruning_matches_the_unpruned_search():
    graphs = [g for n in range(1, 7) for g in generate_all(n)]
    graphs += atlas_graphs() + _random_connected(300, seed=13)
    refuted = 0
    for g in graphs:
        if not g.m:
            continue
        found, nodes = raw_search(g)
        budget = _Budget()
        succ = _UnprunedOrientSearch(g, budget).search()
        assert found == (tuple(succ) if succ is not None else None), g
        if found:
            assert nodes == budget.nodes, g
        else:
            # the root's two subtrees are mirror images, so a refutation
            # keeps the root and one of them
            assert nodes < budget.nodes == 2 * nodes - 1, g
            refuted += 1
    assert refuted > 0
    for g in (families.wheel(5), families.wheel(7), families.co_t2()):
        assert raw_search(g)[0] is None, g


def _reverse(o):
    """The orientation with every arc of o turned round."""
    pred = [0] * o.graph.n
    for u, s in enumerate(o.succ):
        for v in _bits(s):
            pred[v] |= 1 << u
    return Orientation._from_succ(o.graph, pred)


def test_reversal_preserves_semi_transitivity():
    from conftest import all_labeled_graphs

    for n in range(2, 6):
        for g in all_labeled_graphs(n):
            edges = g.edges()
            for mask in range(1 << len(edges)):
                o = Orientation(
                    g, [(u, v) if mask >> i & 1 else (v, u) for i, (u, v) in enumerate(edges)]
                )
                assert _oracle_semi_transitive(_reverse(o)) == _oracle_semi_transitive(o), o
    for g in atlas_graphs():
        out = find_semi_transitive(g)
        if out.found:
            assert is_semi_transitive(_reverse(out.witness)), g
