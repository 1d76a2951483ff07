import pytest

from wordrep import families
from wordrep.graphs import Graph, add_apex, disjoint_union, is_isomorphic
from wordrep.words import avoids_pattern, is_uniform, word_to_graph


def test_make_dispatch():
    assert families.make("wheel", 5) == add_apex(families.cycle(5))
    assert families.make("petersen").n == 10
    assert families.make("claw") == families.star(3)
    with pytest.raises(ValueError):
        families.make("blancmange", 3)
    with pytest.raises(ValueError):
        families.make("cycle")
    with pytest.raises(ValueError):
        families.make("petersen", 5)
    with pytest.raises(ValueError):
        families.make("cycle", 2)


def test_small_wheel_error_names_the_wheel():
    for n in (2, 0, -1):
        with pytest.raises(ValueError, match=r"^wheel needs n >= 3$"):
            families.wheel(n)
    assert families.wheel(3) == families.complete(4)


def test_family_identities():
    assert is_isomorphic(families.crown(3), families.cycle(6))
    assert is_isomorphic(families.prism(4), families.crown(4))
    assert is_isomorphic(families.ladder(2), families.cycle(4))
    assert families.prism(4).degree_sequence() == (3,) * 8


def test_crown_structure():
    for n in range(1, 6):
        g = families.crown(n)
        assert g.n == 2 * n
        assert g.degree_sequence() == (n - 1,) * (2 * n)
        # bipartite: parts 1..n and n+1..2n carry no internal edges
        assert all(not g.has_edge(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))
        assert all(not g.has_edge(u, u + n) for u in range(1, n + 1))


def test_petersen_structure():
    g = families.petersen()
    assert g.degree_sequence() == (3,) * 10
    assert g.m == 15
    assert g.has_edge(1, 6) and g.has_edge(6, 8) and not g.has_edge(6, 7)


def test_known_representants_verify():
    cases = [
        ("complete", 4),
        ("complete", 1),
        ("empty", 1),
        ("empty", 5),
        ("path", 1),
        ("path", 2),
        ("path", 6),
        ("cycle", 3),
        ("cycle", 6),
        ("ladder", 1),
        ("ladder", 2),
        ("ladder", 3),
        ("ladder", 4),
        ("star", 4),
        ("petersen", None),
    ]
    for name, param in cases:
        w = families.known_representant(name, param)
        assert w is not None, (name, param)
        g = families.make(name, param)
        if name == "petersen":
            assert is_isomorphic(word_to_graph(w), g)
        else:
            assert word_to_graph(w) == g


def test_known_representant_absent_when_no_construction():
    assert families.known_representant("prism", 3) is None
    assert families.known_representant("crown", 4) is None
    assert families.known_representant("ladder", 5) is None
    assert families.known_representant("wheel", 6) is None


def test_cycle_word_fixture():
    assert families.cycle_two_representant(6) == (1, 6, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5)
    for n in range(3, 9):
        w = families.cycle_two_representant(n)
        assert is_uniform(w, 2)
        assert word_to_graph(w) == families.cycle(n)


def test_petersen_words_both_verify():
    g = families.petersen()
    for w in families.PETERSEN_WORDS:
        assert is_uniform(w, 3)
        assert is_isomorphic(word_to_graph(w), g)


def test_tree_representant_base_cases():
    assert families.tree_two_representant(Graph(2, [(1, 2)])) == (1, 2, 1, 2)
    w = families.tree_two_representant(families.path(3))
    assert word_to_graph(w) == families.path(3)
    w = families.tree_two_representant(families.star(3))
    assert is_uniform(w, 2)
    assert word_to_graph(w) == families.star(3)


def test_tree_representant_exhaustive_free_trees():
    import networkx as nx

    for n in range(2, 10):
        for tree in nx.nonisomorphic_trees(n):
            g = Graph(n, [(u + 1, v + 1) for u, v in tree.edges()])
            w = families.tree_two_representant(g)
            assert is_uniform(w, 2)
            assert word_to_graph(w) == g


def test_tree_representant_rejects_non_trees():
    with pytest.raises(ValueError):
        families.tree_two_representant(families.cycle(4))
    with pytest.raises(ValueError):
        families.tree_two_representant(Graph(1))
    with pytest.raises(ValueError):
        families.tree_two_representant(disjoint_union(families.path(2), families.path(2)))


def test_forest_representant(rng):
    for _ in range(20):
        parts = [families.path(rng.randint(1, 4)) for _ in range(rng.randint(2, 3))]
        f = parts[0]
        for p in parts[1:]:
            f = disjoint_union(f, p)
        w = families.forest_two_representant(f)
        assert is_uniform(w, 2)
        assert word_to_graph(w) == f
    # components with interleaved labels, isolated vertices and K2s
    for _ in range(100):
        n = rng.randint(1, 12)
        labels = rng.sample(range(1, n + 1), n)
        edges = [(labels[i], labels[rng.randrange(i)]) for i in range(1, n) if rng.random() < 0.6]
        f = Graph(n, edges)
        w = families.forest_two_representant(f)
        assert is_uniform(w, 2)
        assert word_to_graph(w) == f


@pytest.mark.parametrize(
    "n, edges, word",
    [
        (7, [(5, 2), (2, 7), (3, 6)], (1, 1, 2, 5, 7, 2, 7, 5, 3, 6, 3, 6, 4, 4)),
        (8, [(8, 1), (1, 5), (5, 3), (6, 4), (4, 2)], (1, 5, 8, 1, 8, 3, 5, 3, 2, 4, 2, 6, 4, 6, 7, 7)),
        (
            9,
            [(9, 2), (9, 4), (9, 6), (1, 8), (3, 5), (5, 7)],
            (1, 8, 1, 8, 2, 9, 2, 4, 6, 9, 6, 4, 3, 5, 3, 7, 5, 7),
        ),
    ],
)
def test_forest_representant_words_pinned(n, edges, word):
    assert families.forest_two_representant(Graph(n, edges)) == word


def test_forest_representant_rejects_cycles():
    for g in (families.cycle(4), families.complete(3), disjoint_union(families.path(2), families.cycle(3))):
        with pytest.raises(ValueError, match=r"^input is not a forest$"):
            families.forest_two_representant(g)


def test_pattern_fixtures():
    w = families.pattern_avoiding_fixture("cycle", 5, (1, 3, 2))
    assert w == (4, 5, 3, 4, 2, 3, 1, 2)
    assert avoids_pattern(w, (1, 3, 2))
    assert word_to_graph(w) == families.cycle(5)
    w = families.pattern_avoiding_fixture("cycle", 4, (1, 3, 2))
    assert w == (3, 4, 2, 3, 1, 2)
    for n in (3, 4, 5, 6):
        w = families.pattern_avoiding_fixture("complete", n, (1, 3, 2))
        assert avoids_pattern(w, (1, 3, 2)) and word_to_graph(w) == families.complete(n)
        w = families.pattern_avoiding_fixture("complete", n, (1, 2, 3))
        assert avoids_pattern(w, (1, 2, 3)) and word_to_graph(w) == families.complete(n)
        assert is_uniform(w, 2)
    assert families.pattern_avoiding_fixture("cycle", 5, (1, 2, 3)) is None
    with pytest.raises(ValueError):
        families.pattern_avoiding_fixture("prism", 3, (1, 3, 2))
