"""Simple unoriented graphs on vertices 1..n, plus the graph operations that
preserve or probe word-representability: complement, line graph, products,
module substitution, subdivision/contraction, gluing, induced-subgraph
detection, clique number, and an isomorphism-grade canonical form.

Adjacency is stored as one integer bitmask per vertex (bit j set on vertex i's
mask means i is adjacent to vertex j+1).  Graphs are immutable; every
operation returns a new Graph.
"""

from __future__ import annotations

import itertools

CANONICAL_CEILING = 10


class CeilingExceeded(ValueError):
    """Input is larger than the documented complexity ceiling of an operation."""


class Graph:
    """Simple graph with vertex set {1, ..., n} and symmetric, irreflexive edges."""

    __slots__ = ("n", "adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for e in edges:
            u, v = e
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge {e!r} out of range 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        self.n = n
        self.adj = tuple(adj)  # 0-indexed neighbor bitmasks

    # -- basic accessors ---------------------------------------------------

    def vertices(self):
        return range(1, self.n + 1)

    def edges(self):
        """Edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1)
            v = u + 1
            while m:
                if m & 1:
                    out.append((u + 1, v + 1))
                m >>= 1
                v += 1
        return out

    @property
    def m(self):
        return sum(bin(a).count("1") for a in self.adj) // 2

    def has_edge(self, u, v):
        n = self.n
        return 0 < u <= n and 0 < v <= n and u != v and bool(self.adj[u - 1] >> (v - 1) & 1)

    def neighbors(self, v):
        return tuple(u + 1 for u in _bits(self.adj[v - 1]))

    def degree(self, v):
        return bin(self.adj[v - 1]).count("1")

    def degree_sequence(self):
        return tuple(sorted(bin(a).count("1") for a in self.adj))

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph({self.n}, {self.edges()!r})"


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- unary operations ------------------------------------------------------


def complement(g):
    """Flip adjacency off the diagonal."""
    full = (1 << g.n) - 1
    return _from_masks(g.n, [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)])


def _from_masks(n, masks):
    g = Graph.__new__(Graph)
    g.n = n
    g.adj = tuple(masks)
    return g


def line_graph(g):
    """Graph on the edges of g, joined when they share an endpoint.

    Vertex i of the result is the i-th edge of g in lexicographic order.
    """
    es = g.edges()
    if not es:
        raise ValueError("line graph of an edgeless graph is undefined here")
    pairs = []
    for i, j in itertools.combinations(range(len(es)), 2):
        a, b = es[i], es[j]
        if a[0] in b or a[1] in b:
            pairs.append((i + 1, j + 1))
    return Graph(len(es), pairs)


def add_apex(g):
    """Add vertex n+1 adjacent to every existing vertex."""
    masks = [g.adj[v] | (1 << g.n) for v in range(g.n)]
    masks.append((1 << g.n) - 1)
    return _from_masks(g.n + 1, masks)


def induced_subgraph(g, keep):
    """Induced subgraph on `keep` (an iterable of vertices), relabeled 1..k
    preserving the relative order of the kept labels."""
    keep = sorted(set(keep))
    if keep and not (1 <= keep[0] and keep[-1] <= g.n):
        raise ValueError(f"vertices to keep must lie in 1..{g.n}")
    keep_mask = sum(1 << (v - 1) for v in keep)
    new_bit = {v - 1: 1 << i for i, v in enumerate(keep)}
    masks = []
    for v in keep:
        mask = 0
        for u in _bits(g.adj[v - 1] & keep_mask):
            mask |= new_bit[u]
        masks.append(mask)
    return _from_masks(len(keep), masks)


def delete_vertex(g, v):
    return induced_subgraph(g, [u for u in g.vertices() if u != v])


# -- binary operations -----------------------------------------------------


def cartesian_product(g, h):
    """Box product: vertex (u, u') becomes (u-1)*n(h) + u', row-major."""
    nh = h.n
    edges = []
    for u in g.vertices():
        for a, b in h.edges():
            edges.append(((u - 1) * nh + a, (u - 1) * nh + b))
    for a, b in g.edges():
        for u in h.vertices():
            edges.append(((a - 1) * nh + u, (b - 1) * nh + u))
    return Graph(g.n * nh, edges)


def rooted_product(g, h, root):
    """Attach a copy of h to every vertex of g, identified at `root`.

    Vertex i of g keeps label i and plays the root of copy i; the non-root
    vertices of copy i follow in blocks after n(g), preserving their order.
    """
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


def substitute_module(g, v, m):
    """Replace vertex v of g by the graph m; every vertex of m inherits v's
    neighborhood.  The remaining g-vertices are compacted to 1..n(g)-1 in
    order; m's vertices follow."""
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


def subdivide(g, edge, parts):
    """Replace `edge` by a simple path with `parts` edges; the parts-1 new
    vertices are appended after n in path order."""
    u, v = edge
    if not g.has_edge(u, v):
        raise ValueError(f"{edge!r} is not an edge")
    if parts < 2:
        raise ValueError("parts must be at least 2")
    edges = [e for e in g.edges() if set(e) != {u, v}]
    chain = [u] + [g.n + i for i in range(1, parts)] + [v]
    edges.extend(zip(chain, chain[1:]))
    return Graph(g.n + parts - 1, edges)


def contract_edge(g, edge):
    """Merge the endpoints of `edge` and drop loops/parallel edges.

    The merged vertex inherits the smaller endpoint's label; labels above the
    larger endpoint shift down by one.
    """
    u, v = edge
    if not g.has_edge(u, v):
        raise ValueError(f"{edge!r} is not an edge")
    a, b = min(u, v), max(u, v)
    def relabel(w):
        if w == b:
            return a
        return w - 1 if w > b else w
    edges = set()
    for x, y in g.edges():
        x, y = relabel(x), relabel(y)
        if x != y:
            edges.add((min(x, y), max(x, y)))
    return Graph(g.n - 1, edges)


def glue_at_vertex(g, h, u, v):
    """Disjoint union of g and h with vertex u of g identified with vertex v
    of h.  g keeps its labels; h's other vertices follow after n(g) in order."""
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


def connect_by_edge(g, h, u, v):
    """Disjoint union of g and h joined by the new edge {u in g, v in h};
    h's vertices are shifted up by n(g)."""
    if not 1 <= u <= g.n:
        raise ValueError(f"vertex {u} not in first graph")
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} not in second graph")
    edges = list(g.edges()) + [(a + g.n, b + g.n) for a, b in h.edges()]
    edges.append((u, v + g.n))
    return Graph(g.n + h.n, edges)


def disjoint_union(g, h):
    edges = list(g.edges()) + [(a + g.n, b + g.n) for a, b in h.edges()]
    return Graph(g.n + h.n, edges)


# -- connectivity ----------------------------------------------------------


def is_connected(g):
    if g.n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def connected_components(g):
    """Vertex sets of the components, each sorted, ordered by least vertex."""
    unvisited = (1 << g.n) - 1
    comps = []
    while unvisited:
        start = unvisited & -unvisited
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        comps.append([v + 1 for v in _bits(seen)])
        unvisited &= ~seen
    return comps


# -- cliques ---------------------------------------------------------------


def max_clique_size(g):
    """Exact clique number by branch and bound on bitmasks."""
    best = 0
    order = sorted(range(g.n), key=lambda v: bin(g.adj[v]).count("1"))

    def expand(cand, size):
        nonlocal best
        if size + bin(cand).count("1") <= best:
            return
        if not cand:
            best = max(best, size)
            return
        for v in order:
            bit = 1 << v
            if not cand & bit:
                continue
            expand(cand & g.adj[v], size + 1)
            cand &= ~bit
            if size + bin(cand).count("1") <= best:
                return

    expand((1 << g.n) - 1, 0)
    return best


# -- induced subgraph detection ---------------------------------------------


def contains_induced(g, h):
    """True iff some vertex subset of g induces a copy of h."""
    if h.n > g.n:
        return False
    if h.n == 0:
        return True
    # place h's vertices most-connected-first so adjacency constraints bite early
    order = []
    placed = 0
    rem = set(range(h.n))
    while rem:
        v = max(rem, key=lambda x: (bin(h.adj[x] & placed).count("1"), bin(h.adj[x]).count("1")))
        order.append(v)
        placed |= 1 << v
        rem.remove(v)
    gdeg = [bin(g.adj[v]).count("1") for v in range(g.n)]
    hdeg = [bin(h.adj[v]).count("1") for v in range(h.n)]
    image = [0] * h.n  # h-vertex -> g-vertex (0-indexed)
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


# -- canonical form and isomorphism ------------------------------------------


def _refine_cells(g):
    """Order-invariant vertex partition by iterated neighbor-color counting.

    Colors start as degrees; each round recolors a vertex by the rank of
    (its color, the sorted tuple of its neighbors' colors) and stops once a
    round splits no cell.  Returns a list of cells (lists of 0-indexed
    vertices); the cell order and membership depend only on the isomorphism
    type.
    """
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


def canonical_form(g):
    """Label-invariant encoding: equal bytes iff isomorphic graphs.

    The encoding is the vertex count, the ordered cell sizes of the refined
    degree partition, and the lexicographically least column-major
    upper-triangle adjacency bitstring over all orderings that list each
    cell's vertices contiguously in cell order.  Placing the vertex at
    position k appends its column, its adjacency to the k vertices before
    it, so the orderings form a tree of prefixes.  The tree is searched
    level by level with two prunings, neither of which can lose the least
    bitstring:

    - Only the prefixes whose bits are least among all prefixes of their
      length are extended.  Every ordering has the same number of bits, so
      each completion of a larger prefix is larger than each completion of
      the least one.
    - Of two unused twins (vertices whose neighborhoods agree apart from
      each other) only the one listed first in its cell is placed next.
      Swapping them is an automorphism that fixes every placed vertex, so
      the two subtrees hold the same bitstrings.

    Twins reduce K_n and the empty graph to a single path, where the full
    tree has n! leaves.  Graphs with many automorphisms and no twins, such
    as the Petersen graph, still keep many equal least prefixes, since each
    automorphism maps one to another.
    """
    if g.n > CANONICAL_CEILING:
        raise CeilingExceeded(f"canonical form supports n <= {CANONICAL_CEILING}")
    n = g.n
    if n == 0:
        return b"\x00"
    adj = g.adj
    cells = _refine_cells(g)
    earlier_twins = [0] * n  # mask of v's twins listed before v in its cell
    for cell in cells:
        for i, v in enumerate(cell):
            for u in cell[:i]:
                if not (adj[u] ^ adj[v]) & ~(1 << u | 1 << v):
                    earlier_twins[v] |= 1 << u
    slots = [cell for cell in cells for _ in cell]  # position -> its cell
    level = [((), (1 << n) - 1)]  # least prefixes as (placed vertices, unused mask)
    bits = 0
    for pos, cell in enumerate(slots):
        least = None
        for placed, unused in level:
            for v in cell:
                if not unused >> v & 1 or earlier_twins[v] & unused:
                    continue
                a = adj[v]
                col = 0
                for p in placed:
                    col = col << 1 | (a >> p & 1)
                if least is None or col < least:
                    least, survivors = col, []
                if col == least:
                    survivors.append((placed + (v,), unused & ~(1 << v)))
        bits = bits << pos | least
        level = survivors
    total = n * (n - 1) // 2
    header = bytes([n]) + bytes(len(c) for c in cells)
    return header + b"|" + (bits << (-total % 8)).to_bytes((total + 7) // 8, "big")


def is_isomorphic(g, h):
    if g.n != h.n or g.m != h.m or g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)


def automorphisms(g, limit=None):
    """All adjacency-preserving permutations as 0-indexed tuples.

    With `limit`, stops after that many are found (the identity always
    included); any subset is still sound for symmetry pruning.
    """
    cells = _refine_cells(g)
    cell_of = {}
    for ci, cell in enumerate(cells):
        for v in cell:
            cell_of[v] = ci
    n = g.n
    perm = [0] * n
    used = [False] * n
    out = []

    def place(v):
        if limit is not None and len(out) >= limit:
            return
        if v == n:
            out.append(tuple(perm))
            return
        for w in range(n):
            if used[w] or cell_of[w] != cell_of[v]:
                continue
            ok = True
            for u in range(v):
                if bool(g.adj[v] >> u & 1) != bool(g.adj[w] >> perm[u] & 1):
                    ok = False
                    break
            if ok:
                perm[v] = w
                used[w] = True
                place(v + 1)
                used[w] = False
                if limit is not None and len(out) >= limit:
                    return

    place(0)
    return out
