import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import words_over
from wordrep import families
from wordrep.graphs import CeilingExceeded, Graph, add_apex, line_graph
from wordrep.orientation import (
    Orientation,
    apex_representability_check,
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
from wordrep.outcome import BudgetExhausted
from wordrep.words import word_to_graph


def test_orientation_validation():
    g = families.cycle(3)
    with pytest.raises(ValueError):
        Orientation(g, [(1, 2), (2, 3)])  # edge (1,3) missing
    with pytest.raises(ValueError):
        Orientation(g, [(1, 2), (2, 1), (2, 3), (3, 1)])  # doubly oriented
    with pytest.raises(ValueError):
        Orientation(g, [(1, 2), (2, 3), (1, 4)])


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
            assert apex_representability_check(h) == is_word_representable(add_apex(h))


def test_apex_fixtures():
    assert not apex_representability_check(families.cycle(5))
    assert apex_representability_check(families.cycle(6))
    assert apex_representability_check(families.complete(3))


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
# 1->2->3 without the arc 1->3 is not transitive
orientation._TransSearch.search = lambda self: [0b010, 0b100, 0b000]
trans = raises(lambda: orientation.find_transitive(families.path(3)))
# blind to neighbours, the coloring search paints K3 with one color
orientation._bits = lambda mask: iter(())
color = raises(lambda: orientation.three_color(families.complete(3)))
print(semi, trans, color)
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
    assert proc.stdout.split() == ["True", "True", "True"]
