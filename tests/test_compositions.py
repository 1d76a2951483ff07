"""The graph operations and families that are defined by composition give
the same labelled graphs as the direct constructions they replaced.

The references below are the direct constructions, kept verbatim: each
relabels and rebuilds its edge list by hand.  The comparisons are `==`,
which compares labelled adjacency, not isomorphism type.
"""

import itertools
import random

import pytest

from conftest import all_labeled_graphs
from wordrep import families
from wordrep.graphs import (
    Graph,
    connect_by_edge,
    glue_at_vertex,
    rooted_product,
    substitute_module,
)


def ref_rooted_product(g, h, root):
    if not 1 <= root <= h.n:
        raise ValueError(f"root {root} not a vertex of h")
    rest = [v for v in h.vertices() if v != root]
    block = len(rest)
    edges = list(g.edges())
    for i in range(g.n):
        relabel = {root: i + 1}
        for j, v in enumerate(rest):
            relabel[v] = g.n + i * block + j + 1
        for u, v in h.edges():
            edges.append((relabel[u], relabel[v]))
    return Graph(g.n + g.n * block, edges)


def ref_substitute_module(g, v, m):
    if not 1 <= v <= g.n:
        raise ValueError(f"vertex {v} not in graph")
    old = [u for u in g.vertices() if u != v]
    index = {u: i + 1 for i, u in enumerate(old)}
    edges = [(index[a], index[b]) for a, b in g.edges() if v not in (a, b)]
    hood = [index[u] for u in g.neighbors(v)]
    base = len(old)
    for a, b in m.edges():
        edges.append((base + a, base + b))
    for w in range(1, m.n + 1):
        for u in hood:
            edges.append((u, base + w))
    return Graph(base + m.n, edges)


def ref_glue_at_vertex(g, h, u, v):
    if not 1 <= u <= g.n:
        raise ValueError(f"vertex {u} not in first graph")
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} not in second graph")
    rest = [w for w in h.vertices() if w != v]
    relabel = {v: u}
    for j, w in enumerate(rest):
        relabel[w] = g.n + j + 1
    edges = list(g.edges()) + [(relabel[a], relabel[b]) for a, b in h.edges()]
    return Graph(g.n + h.n - 1, edges)


def ref_connect_by_edge(g, h, u, v):
    if not 1 <= u <= g.n:
        raise ValueError(f"vertex {u} not in first graph")
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} not in second graph")
    edges = list(g.edges()) + [(a + g.n, b + g.n) for a, b in h.edges()]
    edges.append((u, v + g.n))
    return Graph(g.n + h.n, edges)


def ref_ladder(n):
    if n < 1:
        raise ValueError("ladder needs n >= 1")
    edges = [(i, n + i) for i in range(1, n + 1)]
    edges += [(i, i + 1) for i in range(1, n)]
    edges += [(n + i, n + i + 1) for i in range(1, n)]
    return Graph(2 * n, edges)


def ref_prism(n):
    if n < 3:
        raise ValueError("prism needs n >= 3")
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    edges += [(n + i, n + i % n + 1) for i in range(1, n + 1)]
    edges += [(i, n + i) for i in range(1, n + 1)]
    return Graph(2 * n, edges)


def ref_crown(n):
    if n < 1:
        raise ValueError("crown needs n >= 1")
    edges = [
        (i, n + j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j
    ]
    return Graph(2 * n, edges)


def _corpus():
    """Graph(0), every labelled graph on 1-3 vertices, and 20 seeded random
    graphs on 1-6 vertices."""
    rng = random.Random(21)
    out = [Graph(0)]
    for n in range(1, 4):
        out.extend(all_labeled_graphs(n))
    for _ in range(20):
        n = rng.randint(1, 6)
        out.append(Graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]))
    return out


CORPUS = _corpus()


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


def _same(f, ref, *args):
    assert _outcome(f, *args) == _outcome(ref, *args), (f.__name__, args)


def test_connect_and_glue_match_direct_constructions():
    """Every pair, every u and v, one label out of range on each side."""
    for g, h in itertools.product(CORPUS, repeat=2):
        for u in range(0, g.n + 2):
            for v in range(0, h.n + 2):
                _same(connect_by_edge, ref_connect_by_edge, g, h, u, v)
                _same(glue_at_vertex, ref_glue_at_vertex, g, h, u, v)


def test_rooted_product_matches_direct_construction():
    for g, h in itertools.product(CORPUS, repeat=2):
        for root in range(0, h.n + 2):
            _same(rooted_product, ref_rooted_product, g, h, root)


def test_rooted_product_of_a_long_path():
    g, h = families.path(200), families.path(4)
    assert rooted_product(g, h, 1) == ref_rooted_product(g, h, 1)


def test_substitute_module_matches_direct_construction():
    for g, m in itertools.product(CORPUS, repeat=2):
        for v in range(0, g.n + 2):
            _same(substitute_module, ref_substitute_module, g, v, m)


@pytest.mark.parametrize(
    "name, ref",
    [("ladder", ref_ladder), ("prism", ref_prism), ("crown", ref_crown)],
)
def test_families_match_direct_constructions(name, ref):
    for n in range(-1, 13):
        _same(getattr(families, name), ref, n)
