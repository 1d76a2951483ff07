"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own clever paths: graph
isomorphism is brute force over label permutations, words are checked by the
raw alternation definition, and networkx supplies externally generated
corpora.  Tests compare the library against these, never against itself.
"""

import itertools
import random

import pytest

from wordrep import families
from wordrep.enumeration import generate
from wordrep.graphs import Graph


def brute_force_isomorphic(g, h):
    """Reference isomorphism test: try every label permutation."""
    if g.n != h.n or g.m != h.m:
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(
            (g.adj[u] >> v & 1) == (h.adj[perm[u]] >> perm[v] & 1)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


def brute_force_word_graph(w):
    """Graph of a word straight from the alternation definition."""
    letters = sorted(set(w))
    n = max(letters)
    edges = []
    for x, y in itertools.combinations(range(1, n + 1), 2):
        proj = [c for c in w if c in (x, y)]
        if proj and all(a != b for a, b in zip(proj, proj[1:])) and len(set(proj)) == 2:
            edges.append((x, y))
    return Graph(n, edges)


def relabel(g, perm):
    """Apply a permutation (0-indexed tuple) to g's labels."""
    return Graph(
        g.n, [(perm[u - 1] + 1, perm[v - 1] + 1) for u, v in g.edges()]
    )


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def atlas_graphs():
    """The 1,253 graphs of networkx's atlas (n <= 7), labelled 1..n."""
    import networkx as nx

    out = []
    for h in nx.graph_atlas_g():
        index = {v: i + 1 for i, v in enumerate(h.nodes())}
        out.append(Graph(h.number_of_nodes(), [(index[u], index[v]) for u, v in h.edges()]))
    return out


def words_over(alphabet_size, max_len):
    """All words over exactly {1..alphabet_size} (every letter present)."""
    letters = range(1, alphabet_size + 1)
    for length in range(alphabet_size, max_len + 1):
        for w in itertools.product(letters, repeat=length):
            if len(set(w)) == alphabet_size:
                yield w


@pytest.fixture(scope="session")
def rng():
    return random.Random(20250810)


@pytest.fixture(scope="session")
def connected_upto_6():
    return {n: generate(n, connected=True) for n in range(1, 7)}


@pytest.fixture(scope="session")
def all_graphs_upto_5():
    return {n: generate(n, connected=False) for n in range(1, 6)}


@pytest.fixture(scope="session")
def petersen():
    return families.petersen()
