"""Checks the benchmark applies to wordrep's outputs.

Every function here is written from a definition and shares no code with
wordrep, so a defect in the library cannot hide itself by also breaking the
check.  Graphs are given as (n, adjacency bitmasks), 0-indexed: bit j of
adj[i] is set when vertices i+1 and j+1 are adjacent.
"""

from __future__ import annotations

import itertools
import math

# Connected graphs on n unlabeled vertices (OEIS A001349).
CONNECTED_GRAPHS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

# Connected non-word-representable graphs on n vertices (Kitaev's survey: the
# 5-wheel is the only one on six vertices, then 25 on seven and 929 on eight).
NON_REPRESENTABLE = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1, 7: 25, 8: 929}

# Representation numbers of the connected graphs on n vertices.  Only K_n
# needs k = 1; every graph on at most five vertices is a circle graph, hence
# 2-representable; the n = 7 split is the published census.
REPRESENTATION_NUMBERS = {
    1: {1: 1},
    2: {1: 1},
    3: {1: 1, 2: 1},
    4: {1: 1, 2: 5},
    5: {1: 1, 2: 20},
    7: {1: 1, 2: 788, 3: 39, math.inf: 25},
}


def bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def masks_from_edges(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return tuple(adj)


def is_connected(n, adj):
    if n == 0:
        return True
    seen, frontier = 1, 1
    while frontier:
        reach = 0
        for v in bits(frontier):
            reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def is_complete(n, adj):
    return all(adj[v] == ((1 << n) - 1) & ~(1 << v) for v in range(n))


def graph6(n, adj):
    """graph6 encoding: N(n) = chr(n + 63), then the upper triangle read
    column by column, six bits per byte, each byte offset by 63."""
    if not 0 <= n <= 62:
        raise ValueError("graph6 short form holds 0..62 vertices")
    upper = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    upper += [0] * (-len(upper) % 6)
    body = (
        chr(63 + int("".join(map(str, upper[k : k + 6])), 2))
        for k in range(0, len(upper), 6)
    )
    return chr(n + 63) + "".join(body)


def three_colorable(n, adj):
    """Exhaustive backtracking over colourings of vertices 1..n in order."""
    color = [-1] * n

    def place(v):
        if v == n:
            return True
        for c in range(3 if v else 1):  # vertex 1 may be fixed to colour 0
            if all(color[u] != c for u in bits(adj[v] & ((1 << v) - 1))):
                color[v] = c
                if place(v + 1):
                    return True
        color[v] = -1
        return False

    return place(0)


def represents(word, n, adj):
    """True iff the word uses exactly letters 1..n and two letters alternate
    (their projection never repeats a letter) exactly when they are adjacent."""
    if set(word) != set(range(1, n + 1)):
        return False
    for x, y in itertools.combinations(range(1, n + 1), 2):
        projection = [c for c in word if c == x or c == y]
        alternating = all(a != b for a, b in zip(projection, projection[1:]))
        if alternating != bool(adj[x - 1] >> (y - 1) & 1):
            return False
    return True


def contains_pattern(word, pattern):
    """True iff some subsequence of the word is order-isomorphic to the
    pattern: every pair of its letters compares (<, =, >) as the matching
    pattern letters do."""
    m = len(pattern)
    for positions in itertools.combinations(range(len(word)), m):
        letters = [word[p] for p in positions]
        if all(
            (letters[i] > letters[j]) - (letters[i] < letters[j])
            == (pattern[i] > pattern[j]) - (pattern[i] < pattern[j])
            for i, j in itertools.combinations(range(m), 2)
        ):
            return True
    return False


def is_semi_transitive(n, adj, succ):
    """Checks an orientation (succ[v]: out-neighbour bitmask) against the
    definition: every edge is oriented exactly one way, there is no directed
    cycle, and there is no shortcut.

    A shortcut is a directed path v0 -> ... -> vk, k >= 3, with the arc
    v0 -> vk, in which some arc vi -> vj (i < j) is missing.  In an acyclic
    orientation that holds exactly when, for some arc u -> v, two vertices x
    and y that lie on directed u-v paths have a directed path from x to y
    but no arc x -> y: splice u ~> x ~> y ~> v into one path.
    """
    for v in range(n):
        if succ[v] & ~adj[v]:
            return False
        for u in bits(adj[v]):
            if (succ[v] >> u & 1) == (succ[u] >> v & 1):
                return False
    order = []
    indegree = [sum(succ[u] >> v & 1 for u in range(n)) for v in range(n)]
    ready = [v for v in range(n) if indegree[v] == 0]
    while ready:
        v = ready.pop()
        order.append(v)
        for w in bits(succ[v]):
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    if len(order) != n:
        return False
    reach = [0] * n  # vertices reachable by a directed path of length >= 1
    for v in reversed(order):
        for w in bits(succ[v]):
            reach[v] |= (1 << w) | reach[w]
    for u in range(n):
        for v in bits(succ[u]):
            on_path = (1 << u) | (1 << v)
            for x in bits(reach[u]):
                if reach[x] >> v & 1:
                    on_path |= 1 << x
            for x in bits(on_path):
                if reach[x] & on_path & ~succ[x]:
                    return False
    return True
