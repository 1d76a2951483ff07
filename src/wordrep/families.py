"""Named graph families and the explicit representant constructions that are
known in closed form (trees, cycles, ladders, complete/empty graphs, the two
3-uniform Petersen words, and the pattern-avoiding words for cycles and
complete graphs).

Labeling conventions, fixed so that the word fixtures verify exactly:
  path/cycle   vertices 1..n in path/cyclic order
  ladder       rails 1..n and n+1..2n (primed labels map to i' -> n+i)
  prism        outer cycle 1..n, inner cycle n+1..2n, rungs (i, n+i)
  crown        parts 1..n and n+1..2n with the matching (i, n+i) removed
  wheel        rim cycle 1..n, hub n+1
  star K_{1,m} center 1, leaves 2..m+1
  petersen     outer cycle 1..5, inner pentagram 6..10, spokes (i, i+5)
"""

from __future__ import annotations

from .graphs import Graph, add_apex, cartesian_product, complement, connected_components, is_connected
from .words import word_to_graph


def complete(n):
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def empty(n):
    return Graph(n)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n):
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def ladder(n):
    if n < 1:
        raise ValueError("ladder needs n >= 1")
    return cartesian_product(path(2), path(n))


def prism(n):
    if n < 3:
        raise ValueError("prism needs n >= 3")
    return cartesian_product(path(2), cycle(n))


def crown(n):
    """Complete bipartite K_{n,n} minus the perfect matching (i, n+i)."""
    if n < 1:
        raise ValueError("crown needs n >= 1")
    return complement(cartesian_product(complete(2), complete(n)))


def crown_apex(n):
    """Crown graph plus an all-adjacent vertex 2n+1."""
    if n < 1:
        raise ValueError("crown_apex needs n >= 1")
    return add_apex(crown(n))


def wheel(n):
    """Cycle of length n plus a hub n+1."""
    if n < 3:
        raise ValueError("wheel needs n >= 3")
    return add_apex(cycle(n))


def star(m):
    """K_{1,m}: center 1, leaves 2..m+1."""
    if m < 1:
        raise ValueError("star needs m >= 1")
    return Graph(m + 1, [(1, i) for i in range(2, m + 2)])


def claw():
    return star(3)


def petersen():
    edges = [(i, i % 5 + 1) for i in range(1, 6)]
    edges += [(i, i + 5) for i in range(1, 6)]
    edges += [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return Graph(10, edges)


def co_t2():
    """The 7-vertex, 15-edge non-word-representable graph in which every
    vertex neighborhood is nevertheless a comparability graph (entered from
    a published drawing; its stated properties are verified in the tests)."""
    return Graph(
        7,
        [
            (5, 7), (5, 2), (5, 3), (5, 6), (2, 3), (2, 1), (2, 4), (2, 7),
            (1, 3), (1, 4), (6, 3), (6, 4), (6, 7), (4, 7), (4, 3),
        ],
    )


def max_degree_four_counterexample():
    """The 7-vertex non-word-representable graph of maximum degree 4, again
    with every neighborhood a comparability graph (figure-derived: the
    drawing's long horizontal stroke reads as the path 4-2-3-5)."""
    return Graph(
        7,
        [
            (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 3), (3, 5),
            (6, 2), (6, 3), (6, 7), (7, 4), (7, 5),
        ],
    )


_MAKERS = {
    "complete": complete,
    "empty": empty,
    "path": path,
    "cycle": cycle,
    "ladder": ladder,
    "prism": prism,
    "crown": crown,
    "crown_apex": crown_apex,
    "wheel": wheel,
    "star": star,
}
_FIXED = {"claw": claw, "petersen": petersen}  # the families that take no parameter
FAMILY_NAMES = (*_MAKERS, *_FIXED)


def make(name, param=None):
    """Build a named family member: make("wheel", 5) -> W5."""
    if name in _FIXED:
        if param not in (None, 0):
            raise ValueError(f"{name} takes no parameter")
        return _FIXED[name]()
    if name not in _MAKERS:
        raise ValueError(f"unknown family {name!r} (choose from {FAMILY_NAMES})")
    if param is None:
        raise ValueError(f"family {name!r} needs a parameter")
    return _MAKERS[name](param)


# -- representant constructions ----------------------------------------------


def tree_two_representant(t):
    """2-uniform word for a tree, by the leaf insertion of
    `forest_two_representant`."""
    if t.n < 2 or t.m != t.n - 1 or not is_connected(t):
        raise ValueError("input is not a tree with at least 2 vertices")
    return forest_two_representant(t)


def forest_two_representant(f):
    """2-uniform word for a forest, by leaf insertion.

    Leaves are peeled, largest label first, until every vertex left is
    isolated; a tree on at least 2 vertices has at least 2 leaves, so what is
    left is the least vertex of each component.  The word starts as x x for
    each of them in increasing order, and re-attaching a leaf x at y turns
    w1 y w2 y w3 into w1 y w2 x y x w3 (so an edge {y, x} reads y x y x).
    The word is verified against the input before returning.
    """
    if f.m != f.n - len(connected_components(f)):
        raise ValueError("input is not a forest")
    degrees = [f.degree(v) for v in f.vertices()]
    alive = set(f.vertices())
    removed = []
    while leaves := [v for v in alive if degrees[v - 1] == 1]:
        leaf = max(leaves)
        parent = next(u for u in f.neighbors(leaf) if u in alive)
        removed.append((leaf, parent))
        alive.remove(leaf)
        degrees[leaf - 1] -= 1
        degrees[parent - 1] -= 1
    word = [x for x in sorted(alive) for _ in range(2)]
    for leaf, parent in reversed(removed):
        second = word.index(parent, word.index(parent) + 1)
        word[second : second + 1] = [leaf, parent, leaf]
    w = tuple(word)
    if word_to_graph(w) != f:
        raise AssertionError("forest construction produced a non-representing word")
    return w


def cycle_two_representant(n):
    """2-uniform word for the cycle 1..n: represent the path 1..n, make a
    one-letter cyclic shift (harmless on a uniform word), then swap the
    first two letters to close the cycle."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    p = tree_two_representant(path(n))
    w = (p[0], p[-1], *p[1:-1])  # the shift puts p[-1] first, the swap second
    if word_to_graph(w) != cycle(n):
        raise AssertionError("cycle construction produced a non-representing word")
    return w


_LADDER_WORDS = {
    # primed labels already mapped by i' -> n+i
    1: (1, 2, 1, 2),
    2: (3, 2, 1, 4, 2, 3, 4, 1),
    3: (1, 5, 4, 3, 2, 6, 3, 5, 6, 1, 2, 4),
    4: (5, 2, 1, 7, 6, 4, 3, 8, 4, 7, 8, 2, 3, 5, 6, 1),
}

PETERSEN_WORDS = (
    (1, 3, 8, 7, 2, 9, 6, 10, 7, 4, 9, 3, 5, 4, 1, 2, 8, 3, 10, 7, 6, 8, 5, 10, 1, 9, 4, 5, 6, 2),
    (1, 3, 4, 10, 5, 8, 6, 7, 9, 10, 2, 7, 3, 4, 1, 2, 8, 3, 5, 10, 6, 8, 1, 9, 7, 2, 6, 4, 9, 5),
)


def known_representant(name, param=None):
    """A verified word-representant where a closed construction exists, else
    None (searching is then the caller's fallback)."""
    if name == "complete":
        return tuple(range(1, param + 1))
    if name == "empty":
        if param == 1:
            return (1,)
        return tuple(range(1, param + 1)) + tuple(range(param, 0, -1))
    if name == "path":
        return tuple(range(1, param + 1)) if param < 2 else tree_two_representant(path(param))
    if name == "cycle":
        return cycle_two_representant(param)
    if name == "ladder":
        if param in _LADDER_WORDS:
            return _LADDER_WORDS[param]
        return None
    if name in ("star", "claw"):
        m = 3 if name == "claw" else param
        return tree_two_representant(star(m))
    if name == "petersen":
        return PETERSEN_WORDS[0]
    return None


# -- pattern-avoiding fixtures -------------------------------------------------


def pattern_avoiding_fixture(name, param, pattern):
    """Closed-form pattern-avoiding representants for cycles and complete
    graphs.  The 123-avoiding cycle word has no sound closed form here, so
    callers should search for it instead (None is returned)."""
    t = tuple(pattern)
    if name == "complete":
        n = param
        dec = tuple(range(n, 0, -1))
        if t == (1, 3, 2):
            return dec
        if t == (1, 2, 3):
            return dec + dec
    if name == "cycle":
        n = param
        if t == (1, 3, 2):
            out = []
            for j in range(n - 1, 0, -1):
                out.extend((j, j + 1))
            return tuple(out)
        if t == (1, 2, 3):
            return None
    raise ValueError(f"no fixture for family {name!r} with pattern {t!r}")
