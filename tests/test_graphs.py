import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_labeled_graphs,
    atlas_graphs,
    brute_force_isomorphic,
    networkx_automorphisms,
    relabel,
    shallow_stack,
)
from wordrep import families, graphs
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
    _automorphism_generators,
    _bits,
    _from_masks,
    _refine_cells,
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
    for v in (0, 4):
        with pytest.raises(ValueError):
            path.neighbors(v)
        with pytest.raises(ValueError):
            path.degree(v)


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


def test_max_clique_size_matches_networkx():
    import networkx as nx

    for g in atlas_graphs():
        h = nx.Graph()
        h.add_nodes_from(g.vertices())
        h.add_edges_from(g.edges())
        assert max_clique_size(g) == max((len(c) for c in nx.find_cliques(h)), default=0), g


def test_max_clique_size_keeps_its_own_stack():
    # one branch per clique vertex: a recursion would need 1000 frames
    with shallow_stack():
        assert max_clique_size(families.complete(1000)) == 1000


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


def reference_contains_induced(g, h):
    """`contains_induced` as it was when it recursed once per vertex of h."""
    if h.n > g.n:
        return False
    if h.n == 0:
        return True
    order = []
    placed = 0
    rem = set(range(h.n))
    while rem:
        v = max(rem, key=lambda x: ((h.adj[x] & placed).bit_count(), h.adj[x].bit_count()))
        order.append(v)
        placed |= 1 << v
        rem.remove(v)
    gdeg = [g.adj[v].bit_count() for v in range(g.n)]
    hdeg = [h.adj[v].bit_count() for v in range(h.n)]
    image = [0] * h.n
    used = [False] * g.n

    def place(k):
        hv = order[k]
        for gv in range(g.n):
            if used[gv] or gdeg[gv] < hdeg[hv]:
                continue
            ok = True
            for j in range(k):
                hu = order[j]
                if bool(h.adj[hv] >> hu & 1) != bool(g.adj[gv] >> image[hu] & 1):
                    ok = False
                    break
            if not ok:
                continue
            image[hv] = gv
            used[gv] = True
            if k + 1 == h.n or place(k + 1):
                used[gv] = False
                return True
            used[gv] = False
        return False

    return place(0)


def test_contains_induced_matches_the_recursive_search():
    atlas = atlas_graphs()
    small = [h for h in atlas if h.n <= 4 and is_connected(h)]
    for g in atlas:
        for h in small:
            assert contains_induced(g, h) == reference_contains_induced(g, h), (g, h)
    rng = random.Random(24)

    def random_graph(n):
        p = rng.random()
        return Graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p])

    found = 0
    for _ in range(500):
        g = random_graph(rng.randint(0, 12))
        if g.n and rng.random() < 0.5:  # an induced subgraph, relabeled
            keep = rng.sample(range(1, g.n + 1), rng.randint(1, g.n))
            h = relabel(induced_subgraph(g, keep), rng.sample(range(len(keep)), len(keep)))
        else:
            h = random_graph(rng.randint(0, 12))
        expected = reference_contains_induced(g, h)
        assert contains_induced(g, h) == expected, (g, h)
        found += expected
    assert 100 < found < 500


def test_contains_induced_keeps_its_own_stack():
    # one position per vertex of h: a recursion would need 1000 frames
    with shallow_stack():
        assert contains_induced(families.empty(1000), families.empty(1000))


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
    # every child of the 6-vertex graphs, of which generate() canonicalizes
    # those whose new vertex has maximum degree
    children = [
        c
        for parent in generate(6, connected=False)
        for c in _augmentations(parent, range(1 << parent.n))
    ]
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
    n = CANONICAL_CEILING
    for g in (families.complete(n), families.empty(n)):
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(relabel(g, tuple(perm)))


@st.composite
def graphs_upto(draw, top=CANONICAL_CEILING):
    n = draw(st.integers(min_value=0, max_value=top))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def relabeled_pairs(draw):
    g = draw(graphs_upto())
    return g, relabel(g, tuple(draw(st.permutations(range(g.n)))))


@settings(max_examples=300, deadline=None, database=None)
@given(relabeled_pairs())
def test_canonical_form_invariant_property(pair):
    g, h = pair
    assert canonical_form(g) == canonical_form(h)


@settings(max_examples=300, deadline=None, database=None)
@given(graphs_upto(), st.data())
def test_last_follows_relabeling_property(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    h = relabel(g, tuple(perm))
    assert canonical_form(h) == canonical_form(g)
    assert h._last == sum(1 << perm[v] for v in range(g.n) if g._last >> v & 1)


def test_canonical_ceiling():
    g = families.empty(13)
    for _ in range(2):  # no key is stored, so every call raises
        with pytest.raises(CeilingExceeded):
            canonical_form(g)
    with pytest.raises(CeilingExceeded):
        automorphisms(g, 1)
    with pytest.raises(CeilingExceeded):
        is_isomorphic(g, families.empty(13))


# `_refine_cells` as it was when it sorted a tuple of neighbour colours for
# every vertex in every round, kept verbatim apart from its name.  The
# refinement on colour masks must give the same cells in the same order,
# since the canonical bytes list the cell sizes and order the placements.


def _sorting_refine_cells(g):
    n = g.n
    nbrs = [[u for u in range(n) if a >> u & 1] for a in g.adj]
    color = [len(nb) for nb in nbrs]
    k = len(set(color))
    while k < n:  # a discrete partition cannot split further
        sig = [(c, tuple(sorted([color[u] for u in nb]))) for c, nb in zip(color, nbrs)]
        palette = sorted(set(sig))
        rank = {s: i for i, s in enumerate(palette)}
        color = [rank[s] for s in sig]
        if len(palette) == k:
            break
        k = len(palette)
    cells = {}
    for v, c in enumerate(color):
        cells.setdefault(c, []).append(v)
    return [cells[c] for c in sorted(cells)]


def test_refine_cells_matches_sorting_reference_on_augmentations():
    # every child of every graph on up to 6 vertices: all graphs to n = 7,
    # in every labelling generate() builds
    count = 0
    for n in range(1, 7):
        for parent in generate(n, connected=False):
            for child in _augmentations(parent, range(1 << parent.n)):
                assert _refine_cells(child) == _sorting_refine_cells(child)
                count += 1
    assert count == sum(k * 2**n for n, k in {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}.items())


def test_refine_cells_matches_sorting_reference_random(rng):
    for _ in range(2000):
        n = rng.randint(0, CANONICAL_CEILING)
        p = rng.random()
        g = Graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p])
        assert _refine_cells(g) == _sorting_refine_cells(g)


@settings(max_examples=300, deadline=None, database=None)
@given(graphs_upto())
def test_refine_cells_matches_sorting_reference_property(g):
    assert _refine_cells(g) == _sorting_refine_cells(g)


# generate() rejects a child before its canonical search when the new vertex
# is not in the last refined cell, which is sound only if `_last` lies in it


def _last_in_last_cell(g):
    canonical_form(g)
    last_cell = sum(1 << v for v in _refine_cells(g)[-1]) if g.n else 0
    return not g._last & ~last_cell


@settings(max_examples=300, deadline=None, database=None)
@given(graphs_upto())
def test_last_lies_in_the_last_cell_property(g):
    assert _last_in_last_cell(g)


def test_last_lies_in_the_last_cell_on_augmentations():
    # every child of every graph on up to 6 vertices, as generate() labels them
    for n in range(1, 7):
        for parent in generate(n, connected=False):
            for child in _augmentations(parent, range(1 << parent.n)):
                assert _last_in_last_cell(child)


# -- the canonical key kept on each Graph -------------------------------------


def test_canonical_key_computed_once_per_object(monkeypatch):
    calls = []
    compute = graphs._canonical_key
    monkeypatch.setattr(graphs, "_canonical_key", lambda g, cells: calls.append(g) or compute(g, cells))
    g = families.petersen()
    key = canonical_form(g)
    assert canonical_form(g) is key and calls == [g]
    h = Graph(g.n, g.edges())  # an equal graph is another object
    assert canonical_form(h) == key and len(calls) == 2


def test_derived_graphs_start_without_a_key():
    g = families.wheel(5)
    canonical_form(g)
    assert g._key is not None
    derived = [
        Graph(g.n, g.edges()),
        _from_masks(g.n, g.adj),
        complement(g),
        delete_vertex(g, 6),
        relabel(g, (1, 2, 3, 4, 5, 0)),
    ]
    for h in derived:
        assert h._key is None


def test_pickle_keeps_the_key():
    g = families.petersen()
    fresh = pickle.loads(pickle.dumps(g))
    assert fresh == g and fresh._key is None
    key = canonical_form(g)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy._key == key and copy._last == g._last


def test_equality_and_hash_ignore_the_key():
    g, h = families.cycle(6), families.cycle(6)
    canonical_form(g)
    assert g._key is not None and h._key is None
    assert g == h and hash(g) == hash(h)
    assert len({g, h}) == 1


def _icosahedron():
    import networkx as nx

    return Graph(12, [(u + 1, v + 1) for u, v in nx.icosahedral_graph().edges()])


def test_automorphisms(atlas_groups):
    assert len(automorphisms(families.complete(4))) == 24
    assert len(automorphisms(families.cycle(5))) == 10
    assert len(automorphisms(families.wheel(5))) == 10
    assert len(automorphisms(families.petersen())) == 120
    c6 = families.cycle(6)
    more = [
        families.petersen(),
        _icosahedron(),
        cartesian_product(families.complete(4), families.complete(3)),
        disjoint_union(c6, c6),
        families.cycle(11),
        families.cycle(12),
        families.crown(6),
    ]
    for g, group in atlas_groups + [(g, networkx_automorphisms(g)) for g in more]:
        auts = automorphisms(g)
        assert auts[0] == tuple(range(g.n))
        assert len(auts) == len(group) and set(auts) == group, g


def _is_automorphism(g, a):
    return sorted(a) == list(range(g.n)) and all(
        g.adj[a[v]] == sum(1 << a[u] for u in _bits(g.adj[v])) for v in range(g.n)
    )


def test_automorphisms_limit():
    for limit in (0, -3):
        with pytest.raises(ValueError):
            automorphisms(families.cycle(5), limit)
    assert automorphisms(families.cycle(5), 1) == [(0, 1, 2, 3, 4)]
    assert automorphisms(Graph(0), 1) == [()]


def reference_automorphisms(g, limit=None):
    """`automorphisms` as it was when it recursed once per position,
    verbatim apart from its name and its argument checks."""
    n = g.n
    _, earlier_twins, _, orderings = graphs._least_orderings(g, _refine_cells(g))
    mates = [1 << v | twins for v, twins in enumerate(earlier_twins)]  # v's twin class
    for v, twins in enumerate(earlier_twins):
        for u in _bits(twins):
            mates[u] |= 1 << v
    first = orderings[0]
    perm = [0] * n
    out = []

    def place(order, i, unused):
        """Map first[i:] onto twins of order[i:]; True once `limit` is reached."""
        if i == n:
            out.append(tuple(perm))
            return len(out) == limit
        for v in _bits(mates[order[i]] & unused):
            perm[first[i]] = v
            if place(order, i + 1, unused & ~(1 << v)):
                return True
        return False

    for order in orderings:
        if place(order, 0, (1 << n) - 1):
            break
    return out


def test_automorphisms_match_the_recursive_search():
    # the same automorphisms in the same order, so `limit` cuts at the same
    # one: on every graph of at most 7 vertices and on a relabelling of each
    rng = random.Random(17)
    cases = [Graph(0)]
    for n in range(1, 8):
        for g in generate(n, connected=False):
            cases += [g, relabel(g, tuple(rng.sample(range(n), n)))]
    for g in cases:
        for limit in (1, 2, 2048, None):
            assert automorphisms(g, limit) == reference_automorphisms(g, limit), (g, limit)


def test_automorphisms_capped_at_twelve_vertices():
    # each group has far more than 2048 members; the uniform search takes
    # the first 2048
    k3, k33, c4 = families.complete(3), _complete_multipartite(3, 3), families.cycle(4)
    for g in [
        families.complete(12),
        families.empty(12),
        _complete_multipartite(6, 6),
        disjoint_union(c4, disjoint_union(c4, c4)),
        disjoint_union(k33, k33),
        disjoint_union(k3, disjoint_union(k3, disjoint_union(k3, k3))),
    ]:
        auts = automorphisms(g, 2048)
        assert len(set(auts)) == len(auts) == 2048
        assert auts[0] == tuple(range(12))
        assert all(_is_automorphism(g, a) for a in auts)


def generated_group(gens, n):
    """Every product of the permutations `gens` (0-indexed tuples)."""
    identity = tuple(range(n))
    group = {identity}
    todo = [identity]
    while todo:
        p = todo.pop()
        for s in gens:
            q = tuple(s[v] for v in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


def test_automorphism_generators_generate_the_group(atlas_groups):
    # generate augments one neighbourhood per orbit of these generators, so
    # a missing automorphism would keep isomorphic children
    for g, group in atlas_groups:
        assert generated_group(_automorphism_generators(g), g.n) == group
    assert len(generated_group(_automorphism_generators(families.petersen()), 10)) == 120


@settings(max_examples=100, deadline=None, database=None)
@given(graphs_upto(8), st.data())
def test_automorphism_generators_follow_relabeling_property(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    h = relabel(g, tuple(perm))
    gens = _automorphism_generators(g)
    assert all(_is_automorphism(g, a) for a in gens)
    group = generated_group(gens, g.n)
    conjugated = set()
    for a in group:
        c = [0] * g.n
        for v in range(g.n):
            c[perm[v]] = perm[a[v]]
        conjugated.add(tuple(c))
    relabeled = generated_group(_automorphism_generators(h), h.n)
    assert relabeled == conjugated
    assert group == networkx_automorphisms(g)


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
