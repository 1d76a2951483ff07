import itertools

import networkx as nx
import pytest

from wordrep import families
from wordrep.graphs import Graph
from wordrep.io import (
    from_edge_list_text,
    from_graph6,
    orientation_to_dot,
    read_graph6_file,
    to_dot,
    to_edge_list_text,
    to_graph6,
    write_graph6_file,
)
from wordrep.orientation import word_to_orientation


def _nx_graph6(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from((u - 1, v - 1) for u, v in g.edges())
    return nx.to_graph6_bytes(G, header=False).decode().strip()


@pytest.mark.parametrize(
    "g",
    [
        families.petersen(),
        families.wheel(5),
        families.prism(4),
        families.empty(1),
        families.empty(62),
        families.complete(7),
        families.crown(5),
        Graph(3, [(1, 3)]),
    ],
)
def test_graph6_bit_exact_and_roundtrip(g):
    mine = to_graph6(g)
    assert mine == _nx_graph6(g)
    assert from_graph6(mine) == g


def test_graph6_random_roundtrip(rng):
    for _ in range(50):
        n = rng.randint(1, 12)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.4]
        g = Graph(n, edges)
        assert to_graph6(g) == _nx_graph6(g)
        assert from_graph6(to_graph6(g)) == g


def test_graph6_decodes_as_networkx(rng):
    for n in [0, 1, 2, 62] + [rng.randint(3, 61) for _ in range(60)]:
        p = rng.random()
        pairs = itertools.combinations(range(1, n + 1), 2)
        text = _nx_graph6(Graph(n, [e for e in pairs if rng.random() < p]))
        h = nx.from_graph6_bytes(text.encode())
        g = from_graph6(text)
        assert g.n == h.number_of_nodes() == n
        assert sorted(g.edges()) == sorted((min(u, v) + 1, max(u, v) + 1) for u, v in h.edges())


def test_graph6_header_prefix_accepted():
    g = families.cycle(5)
    assert from_graph6(">>graph6<<" + to_graph6(g)) == g


def test_graph6_errors():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("I")  # truncated body for n=10
    for text in ("Bwx", "Bwxyz", "@x", "?x", "I" + "?" * 8 + "w"):  # bytes past the body
        with pytest.raises(nx.NetworkXError):
            nx.from_graph6_bytes(text.encode())
        with pytest.raises(ValueError):
            from_graph6(text)
    with pytest.raises(ValueError):
        to_graph6(families.empty(63))


def test_graph6_file_io(tmp_path):
    graphs = [families.wheel(5), families.cycle(7), families.crown(3)]
    path = tmp_path / "corpus.g6"
    write_graph6_file(path, graphs)
    assert read_graph6_file(path) == graphs


def test_edge_list_roundtrip():
    g = families.prism(3)
    text = to_edge_list_text(g)
    assert text.splitlines()[0] == "6 9"
    assert from_edge_list_text(text) == g


def test_edge_list_errors():
    with pytest.raises(ValueError):
        from_edge_list_text("")
    with pytest.raises(ValueError):
        from_edge_list_text("2 2\n1 2\n")
    with pytest.raises(ValueError, match="distinct edges"):
        from_edge_list_text("3 2\n1 2\n2 1\n")


def test_dot_output():
    g = Graph(3, [(1, 2)])
    assert to_dot(g) == "graph g {\n  1;\n  2;\n  3;\n  1 -- 2;\n}\n"
    o = word_to_orientation((1, 2, 1, 2))
    assert orientation_to_dot(o) == "digraph g {\n  1;\n  2;\n  1 -> 2;\n}\n"
