import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_labeled_graphs, brute_force_isomorphic, relabel
from wordrep import families
from wordrep.enumeration import _augmentations, generate
from wordrep.graphs import (
    CANONICAL_CEILING,
    CeilingExceeded,
    Graph,
    add_apex,
    automorphisms,
    canonical_form,
    cartesian_product,
    complement,
    connect_by_edge,
    contains_induced,
    contract_edge,
    delete_vertex,
    disjoint_union,
    glue_at_vertex,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    line_graph,
    max_clique_size,
    rooted_product,
    subdivide,
    substitute_module,
)


def test_from_edge_list_basics():
    k2 = Graph(2, [(1, 2)])
    assert k2.edges() == [(1, 2)]
    fig1 = Graph(4, [{1, 2}, {2, 3}, {2, 4}, {3, 4}])
    assert fig1.edges() == [(1, 2), (2, 3), (2, 4), (3, 4)]
    assert Graph(3, []).m == 0
    # duplicates collapse
    assert Graph(2, [(1, 2), (2, 1)]).m == 1


def test_from_edge_list_errors():
    with pytest.raises(ValueError):
        Graph(2, [(1, 3)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])


def test_degrees_and_neighbors():
    g = families.wheel(5)
    assert g.degree(6) == 5
    assert g.neighbors(6) == (1, 2, 3, 4, 5)
    assert g.degree_sequence() == (3, 3, 3, 3, 3, 5)
    # vertex 0 must not read the row of vertex n
    path = families.path(3)
    assert path.has_edge(2, 3) and not path.has_edge(0, 2)
    assert not path.has_edge(2, 0) and not path.has_edge(2, 4)


def test_complement():
    assert complement(families.complete(3)) == families.empty(3)
    g = disjoint_union(families.cycle(5), families.empty(1))
    assert is_isomorphic(complement(g), families.wheel(5))


def test_complement_involution(rng):
    for _ in range(20):
        n = rng.randint(1, 8)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        assert complement(complement(g)) == g


def test_line_graph():
    assert is_isomorphic(line_graph(families.path(4)), families.path(3))
    assert is_isomorphic(line_graph(families.complete(3)), families.complete(3))
    assert is_isomorphic(line_graph(families.claw()), families.complete(3))
    for n in range(3, 9):
        assert is_isomorphic(line_graph(families.cycle(n)), families.cycle(n))
    with pytest.raises(ValueError):
        line_graph(families.empty(2))


def test_cartesian_product():
    assert is_isomorphic(cartesian_product(families.path(2), families.path(2)), families.cycle(4))
    g = families.prism(3)
    assert cartesian_product(families.complete(1), g) == g
    h = cartesian_product(families.cycle(5), families.path(3))
    assert h.n == 15 and h.m == 5 * 2 + 3 * 5


def test_cartesian_counts(rng):
    for _ in range(10):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        g = Graph(n1, [e for e in itertools.combinations(range(1, n1 + 1), 2) if rng.random() < 0.5])
        h = Graph(n2, [e for e in itertools.combinations(range(1, n2 + 1), 2) if rng.random() < 0.5])
        p = cartesian_product(g, h)
        assert p.n == g.n * h.n
        assert p.m == g.n * h.m + h.n * g.m


def test_rooted_product():
    g = families.cycle(5)
    assert rooted_product(g, families.complete(1), 1) == g
    p = rooted_product(families.complete(2), families.path(2), 1)
    assert is_isomorphic(p, families.path(4))
    # ladder rungs hang one pendant per cycle vertex
    r = rooted_product(families.cycle(5), families.path(2), 1)
    assert r.n == 10 and r.m == 10
    with pytest.raises(ValueError):
        rooted_product(g, families.path(2), 3)


def test_substitute_module():
    assert is_isomorphic(substitute_module(families.complete(2), 1, families.complete(2)), families.complete(3))
    g = families.wheel(5)
    assert is_isomorphic(substitute_module(g, 2, families.complete(1)), g)
    s = substitute_module(families.prism(3), 1, families.complete(3))
    assert s.n == 8 and s.m == families.prism(3).m - 3 + 3 + 3 * 3
    with pytest.raises(ValueError):
        substitute_module(g, 9, families.complete(1))


def test_add_apex():
    assert add_apex(families.cycle(5)) == families.wheel(5)
    assert is_isomorphic(add_apex(families.empty(1)), families.complete(2))
    assert add_apex(families.crown(3)) == families.crown_apex(3)


def test_subdivide():
    assert is_isomorphic(subdivide(families.complete(2), (1, 2), 2), families.path(3))
    assert is_isomorphic(subdivide(families.cycle(3), (1, 2), 3), families.cycle(5))
    with pytest.raises(ValueError):
        subdivide(families.empty(2), (1, 2), 2)
    with pytest.raises(ValueError):
        subdivide(families.complete(2), (1, 2), 1)


def test_contract_edge():
    assert contract_edge(families.complete(2), (1, 2)) == Graph(1)
    assert is_isomorphic(contract_edge(families.cycle(4), (2, 3)), families.cycle(3))
    assert is_isomorphic(contract_edge(families.path(3), (1, 2)), families.path(2))
    with pytest.raises(ValueError):
        contract_edge(families.empty(3), (1, 2))


def test_subdivide_contract_roundtrip():
    g = families.wheel(4)
    s = subdivide(g, (1, 2), 3)  # path 1 - 6 - 7 - 2
    back = contract_edge(s, (1, 6))
    assert is_isomorphic(back, subdivide(g, (1, 2), 2))


def test_glue_and_connect():
    assert is_isomorphic(glue_at_vertex(families.complete(2), families.complete(2), 2, 1), families.path(3))
    assert is_isomorphic(connect_by_edge(families.complete(2), families.complete(2), 2, 1), families.path(4))
    with pytest.raises(ValueError):
        glue_at_vertex(families.complete(2), families.complete(2), 3, 1)


def test_connectivity():
    assert is_connected(families.petersen())
    assert not is_connected(disjoint_union(families.complete(2), families.complete(2)))
    assert is_connected(Graph(1))


def test_max_clique_size():
    assert max_clique_size(families.complete(5)) == 5
    assert max_clique_size(families.cycle(5)) == 2
    assert max_clique_size(families.prism(3)) == 3
    assert max_clique_size(families.empty(4)) == 1
    assert max_clique_size(families.wheel(5)) == 3


def test_contains_induced():
    assert contains_induced(families.wheel(5), families.cycle(5))
    assert not contains_induced(families.complete(4), families.cycle(4))
    assert contains_induced(families.petersen(), families.path(4))
    assert not contains_induced(families.petersen(), families.complete(3))


def test_contains_induced_monotone(rng):
    g = families.prism(4)
    for h in (families.cycle(4), families.path(4), families.claw()):
        if contains_induced(g, h):
            for v in h.vertices():
                assert contains_induced(g, delete_vertex(h, v))


def test_canonical_form_matches_brute_force_n4():
    graphs = list(all_labeled_graphs(4))
    forms = [canonical_form(g) for g in graphs]
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert (forms[i] == forms[j]) == brute_force_isomorphic(graphs[i], graphs[j])


def test_canonical_form_invariant_under_relabeling(rng, connected_upto_6):
    import itertools as it

    for n in (5, 6):
        for g in connected_upto_6[n]:
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(relabel(g, tuple(perm)))


def test_canonical_form_separates_n5_sample(rng, all_graphs_upto_5):
    graphs = all_graphs_upto_5[5].graphs
    for _ in range(60):
        g, h = rng.sample(graphs, 2)
        assert canonical_form(g) != canonical_form(h)
        assert not brute_force_isomorphic(g, h)


def test_canonical_petersen_two_constructions(petersen):
    # pentagon plus pentagram vs disjointness graph of the 2-subsets of a 5-set
    pairs = list(itertools.combinations(range(1, 6), 2))
    edges = [
        (i + 1, j + 1)
        for i, j in itertools.combinations(range(len(pairs)), 2)
        if not set(pairs[i]) & set(pairs[j])
    ]
    kneser = Graph(10, edges)
    assert canonical_form(kneser) == canonical_form(petersen)
    assert is_isomorphic(kneser, petersen)


# -- reference canonical form ---------------------------------------------------
#
# The exhaustive search that defined the encoding before the search was
# pruned, kept verbatim apart from its names.  It walks every cell-respecting
# ordering whose prefix is not larger than the best bitstring found so far,
# which is up to n! orderings for K_n, so it is run on n <= 8 only.


def _reference_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reference_refine_cells(g):
    color = {v: bin(g.adj[v]).count("1") for v in range(g.n)}
    while True:
        sig = {
            v: (color[v], tuple(sorted(color[u] for u in _reference_bits(g.adj[v]))))
            for v in range(g.n)
        }
        palette = sorted(set(sig.values()))
        new = {v: palette.index(sig[v]) for v in range(g.n)}
        if len(palette) == len(set(color.values())):
            color = new
            break
        color = new
    cells = {}
    for v in range(g.n):
        cells.setdefault(color[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def reference_canonical_form(g):
    if g.n > CANONICAL_CEILING:
        raise CeilingExceeded(f"canonical form supports n <= {CANONICAL_CEILING}")
    if g.n == 0:
        return b"\x00"
    cells = _reference_refine_cells(g)
    slot_cell = []  # position -> cell index
    for ci, cell in enumerate(cells):
        slot_cell.extend([ci] * len(cell))
    n = g.n
    best = None
    perm = []
    used = [False] * n

    def search(bits):
        nonlocal best
        pos = len(perm)
        if pos == n:
            if best is None or bits < best:
                best = bits
            return
        for v in cells[slot_cell[pos]]:
            if used[v]:
                continue
            nb = bits + [g.adj[v] >> perm[i] & 1 for i in range(pos)]
            if best is not None and nb > best[: len(nb)]:
                continue
            perm.append(v)
            used[v] = True
            search(nb)
            perm.pop()
            used[v] = False

    search([])
    header = bytes([n]) + bytes(len(c) for c in cells)
    packed = bytearray()
    acc = 0
    for i, b in enumerate(best):
        acc = acc << 1 | b
        if i % 8 == 7:
            packed.append(acc)
            acc = 0
    if len(best) % 8:
        packed.append(acc << (8 - len(best) % 8))
    return header + b"|" + bytes(packed)


def _complete_multipartite(*parts):
    part_of = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(part_of)
    return Graph(
        n,
        [(u + 1, v + 1) for u, v in itertools.combinations(range(n), 2) if part_of[u] != part_of[v]],
    )


def test_canonical_form_matches_reference_on_augmentations():
    # every child generate() canonicalizes on the way to 7 vertices
    children = [c for parent in generate(6, connected=False) for c in _augmentations(parent)]
    assert len(children) == 156 * 64
    for child in children:
        assert canonical_form(child) == reference_canonical_form(child)


def test_canonical_form_matches_reference_on_twin_heavy_graphs(rng):
    graphs = [Graph(0)]
    for n in range(1, 9):
        graphs += [families.complete(n), families.empty(n)]
    graphs += [families.star(m) for m in range(1, 8)]
    graphs += [_complete_multipartite(a, b) for a in range(1, 5) for b in range(a, 9 - a)]
    graphs += [
        _complete_multipartite(*parts)
        for parts in [(1, 1, 2), (2, 2, 2), (1, 2, 3), (2, 3, 3), (1, 1, 2, 4), (2, 2, 2, 2)]
    ]
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, tuple(perm))
        assert canonical_form(g) == canonical_form(h) == reference_canonical_form(h)


def test_canonical_form_at_ceiling_twins(rng):
    for g in (families.complete(10), families.empty(10)):
        perm = list(range(10))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(relabel(g, tuple(perm)))


@st.composite
def relabeled_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=CANONICAL_CEILING))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, k in zip(pairs, keep) if k])
    return g, relabel(g, tuple(draw(st.permutations(range(n)))))


@settings(max_examples=300, deadline=None, database=None)
@given(relabeled_pairs())
def test_canonical_form_invariant_property(pair):
    g, h = pair
    assert canonical_form(g) == canonical_form(h)


def test_canonical_ceiling():
    with pytest.raises(CeilingExceeded):
        canonical_form(families.empty(11))


def test_automorphisms():
    assert len(automorphisms(families.complete(4))) == 24
    assert len(automorphisms(families.cycle(5))) == 10
    assert len(automorphisms(families.wheel(5))) == 10
    assert len(automorphisms(families.petersen())) == 120


def test_induced_subgraph_and_delete():
    g = families.wheel(5)
    assert is_isomorphic(induced_subgraph(g, [1, 2, 3, 4, 5]), families.cycle(5))
    assert is_isomorphic(delete_vertex(g, 6), families.cycle(5))


def reference_induced_subgraph(g, keep):
    """`induced_subgraph` as it was before it was built from masks."""
    keep = sorted(set(keep))
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u] + 1, index[v] + 1)
        for u, v in itertools.combinations(keep, 2)
        if g.has_edge(u, v)
    ]
    return Graph(len(keep), edges)


def test_induced_subgraph_matches_reference(rng):
    for _ in range(300):
        n = rng.randint(0, 12)
        g = Graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5])
        keep = [v for v in g.vertices() if rng.random() < 0.6]
        rng.shuffle(keep)
        keep += keep[: rng.randint(0, len(keep))]  # repeats collapse
        assert induced_subgraph(g, keep) == reference_induced_subgraph(g, keep)
    with pytest.raises(ValueError):
        induced_subgraph(families.cycle(4), [1, 5])
    with pytest.raises(ValueError):
        induced_subgraph(families.cycle(4), [0, 2])
