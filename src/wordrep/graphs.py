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

CANONICAL_CEILING = 12


class CeilingExceeded(ValueError):
    """Input is larger than the documented complexity ceiling of an operation."""


class Graph:
    """Simple graph with vertex set {1, ..., n} and symmetric, irreflexive edges.

    `_key` holds the graph's canonical form once `canonical_form` has
    computed it, and None until then.  `canonical_form` also sets `_last`,
    the mask of the vertices that can be placed last in canonical order,
    which is unset before.  Equality and hashing ignore both.
    """

    __slots__ = ("n", "adj", "_key", "_last")

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
        self._key = None

    # -- basic accessors ---------------------------------------------------

    def vertices(self):
        return range(1, self.n + 1)

    def edges(self):
        """Edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        return [(u + 1, v + 1) for u, a in enumerate(self.adj) for v in _bits(a >> u + 1 << u + 1)]

    @property
    def m(self):
        return sum(a.bit_count() for a in self.adj) // 2

    def has_edge(self, u, v):
        n = self.n
        return 0 < u <= n and 0 < v <= n and u != v and bool(self.adj[u - 1] >> (v - 1) & 1)

    def neighbors(self, v):
        return tuple(u + 1 for u in _bits(self._row(v)))

    def degree(self, v):
        return self._row(v).bit_count()

    def _row(self, v):
        if not 0 < v <= self.n:
            raise ValueError(f"vertex {v} out of range 1..{self.n}")
        return self.adj[v - 1]

    def degree_sequence(self):
        return tuple(sorted(a.bit_count() for a in self.adj))

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph({self.n}, {self.edges()!r})"


def _bit_table(width):
    """Entry m is the ascending tuple of the set bits of m, for m < 2**width."""
    table = [()]
    for i in range(width):
        table += [bits + (i,) for bits in table]
    return table


_TABLE_BITS = 12
_BIT_TABLE = _bit_table(_TABLE_BITS)


def _bits(mask):
    """The positions of the set bits of `mask`, ascending.  Masks of up to
    12 bits are looked up in a table built at import; wider ones, which the
    graphs past 12 vertices bring to the operations, the decision procedure
    and the orientation search, are walked bit by bit."""
    if not mask >> _TABLE_BITS:
        return _BIT_TABLE[mask]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- unary operations ------------------------------------------------------


def complement(g):
    """Flip adjacency off the diagonal."""
    full = (1 << g.n) - 1
    return _from_masks(g.n, [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)])


def _from_masks(n, masks):
    g = Graph.__new__(Graph)
    g.n = n
    g.adj = tuple(masks)
    g._key = None
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
    """Attach a copy of h to every vertex of g, identified at `root`: h
    glued at `root` to vertex 1, 2, ..., n(g) of g in turn.

    Vertex i of g keeps label i and plays the root of copy i; the non-root
    vertices of copy i follow in blocks after n(g), preserving their order.
    """
    if not 1 <= root <= h.n:
        raise ValueError(f"root {root} not a vertex of h")
    edges, copy = g.edges(), h.edges()
    for i in g.vertices():
        base = g.n + (i - 1) * (h.n - 1)
        label = {w: i if w == root else base + w - (w > root) for w in h.vertices()}
        edges += [(label[a], label[b]) for a, b in copy]
    return Graph(g.n * h.n, edges)


def substitute_module(g, v, m):
    """Replace vertex v of g by the graph m; every vertex of m inherits v's
    neighborhood: m is joined to N(v) beside g, then v is deleted.  The
    remaining g-vertices are compacted to 1..n(g)-1 in order; m's vertices
    follow."""
    if not 1 <= v <= g.n:
        raise ValueError(f"vertex {v} not in graph")
    join = [(u, g.n + w) for u in g.neighbors(v) for w in m.vertices()]
    return delete_vertex(Graph(g.n + m.n, disjoint_union(g, m).edges() + join), v)


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
    of h: the edge of `connect_by_edge` contracted.  g keeps its labels; h's
    other vertices follow after n(g) in order."""
    return contract_edge(connect_by_edge(g, h, u, v), (u, g.n + v))


def connect_by_edge(g, h, u, v):
    """Disjoint union of g and h joined by the new edge {u in g, v in h};
    h's vertices are shifted up by n(g)."""
    if not 1 <= u <= g.n:
        raise ValueError(f"vertex {u} not in first graph")
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} not in second graph")
    return Graph(g.n + h.n, disjoint_union(g, h).edges() + [(u, g.n + v)])


def disjoint_union(g, h):
    return _from_masks(g.n + h.n, g.adj + tuple(a << g.n for a in h.adj))


# -- connectivity ----------------------------------------------------------


def is_connected(g):
    return len(_component_masks(g)) <= 1


def connected_components(g):
    """Vertex sets of the components, each sorted, ordered by least vertex."""
    return [[v + 1 for v in _bits(mask)] for mask in _component_masks(g)]


def _component_masks(g):
    """The components of g as masks of 0-indexed vertices, ordered by least
    vertex."""
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
        comps.append(seen)
        unvisited &= ~seen
    return comps


# -- cliques ---------------------------------------------------------------


def max_clique_size(g):
    """Exact clique number by branch and bound on bitmasks.

    A depth-first search over one explicit stack, so the recursion limit
    does not bound the clique.  Each entry is a node: the candidates that
    extend the clique, its size, and the position in `order` from which
    the next branch vertex is sought.  A node branches on its first
    candidate v and pushes, beneath the child that takes v, itself without
    v, so branches are taken in `order`.
    """
    best = 0
    order = sorted(range(g.n), key=lambda v: g.adj[v].bit_count())
    stack = [((1 << g.n) - 1, 0, 0)]
    while stack:
        cand, size, i = stack.pop()
        if size + cand.bit_count() <= best:
            continue
        if not cand:
            best = size
            continue
        while not cand >> order[i] & 1:
            i += 1
        v = order[i]
        stack.append((cand & ~(1 << v), size, i + 1))
        stack.append((cand & g.adj[v], size + 1, 0))
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
        v = max(rem, key=lambda x: ((h.adj[x] & placed).bit_count(), h.adj[x].bit_count()))
        order.append(v)
        placed |= 1 << v
        rem.remove(v)
    gdeg = [g.adj[v].bit_count() for v in range(g.n)]
    hdeg = [h.adj[v].bit_count() for v in range(h.n)]
    # depth-first over the positions of `order`, keeping its own stack of
    # the placed positions: gv is the next g-vertex to try for the next
    # h-vertex hv, whose image must have exactly the neighbours `want`
    # among the `used` images
    n, gadj = g.n, g.adj
    image = [0] * h.n  # h-vertex -> g-vertex (0-indexed)
    stack = []  # the `want` of each placed position
    used = placed = want = gv = 0
    while True:
        hv = order[len(stack)]
        least = hdeg[hv]
        while gv < n and (used >> gv & 1 or gdeg[gv] < least or gadj[gv] & used != want):
            gv += 1
        if gv < n:
            if len(stack) + 1 == h.n:
                return True
            image[hv] = gv
            used |= 1 << gv
            placed |= 1 << hv
            stack.append(want)
            want = sum(1 << image[u] for u in _bits(h.adj[order[len(stack)]] & placed))
            gv = 0
        elif stack:
            want = stack.pop()
            hv = order[len(stack)]
            gv = image[hv]
            used &= ~(1 << gv)
            placed &= ~(1 << hv)
            gv += 1
        else:
            return False


# -- canonical form and isomorphism ------------------------------------------


def _refine_cells(g):
    """Order-invariant vertex partition by iterated neighbor-color counting.

    Colors start as the ranks of the degrees.  Each round recolors a vertex
    by the rank of (its color, the sorted tuple of its neighbors' colors)
    and stops once a round splits no cell.  Returns a list of cells (lists
    of 0-indexed vertices); the cell order and membership depend only on
    the isomorphism type.

    The tuples are never built.  Colors only ever split degree classes, so
    the vertices of one color have tuples of one length, and two such
    tuples compare in the reverse order of their vectors of neighbor counts
    per color, lowest color first: of two equally long sorted tuples, the
    one with more neighbors of the lowest color where the counts differ is
    the smaller.  Since the rank puts the old color first, a round replaces
    each cell in place by its parts, in decreasing order of that vector.

    Only the counts to the cells that split in the previous round are read,
    from the masks of those cells, and only non-singleton cells are split.
    Two vertices of one cell had equal counts to every cell of the round
    before, since that is why they share a color; a cell that did not split
    is still one of those, so the counts to it are equal within every cell,
    and leaving them out of the vectors changes neither which vertices part
    nor the order of the parts.  In the first round every degree class
    counts as split.  The counts are packed in base n+1 into one integer
    per vertex, which orders like the vector.
    """
    n = g.n
    adj = g.adj
    by_degree = {}
    for v, a in enumerate(adj):
        by_degree.setdefault(a.bit_count(), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    split = [sum(1 << v for v in cell) for cell in cells]  # masks of the new cells
    base = n + 1
    while split and len(cells) < n:  # a discrete partition cannot split further
        refined = []
        new = []
        for cell in cells:
            if len(cell) == 1:
                refined.append(cell)
                continue
            parts = {}
            for v in cell:
                a = adj[v]
                packed = 0
                for mask in split:
                    packed = packed * base + (a & mask).bit_count()
                parts.setdefault(packed, []).append(v)
            if len(parts) == 1:
                refined.append(cell)
                continue
            for packed in sorted(parts, reverse=True):
                part = parts[packed]
                refined.append(part)
                new.append(sum(1 << v for v in part))
        cells, split = refined, new
    return cells


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

    Refinement starts from degrees and only ever splits a cell into parts
    ranked within it, so the cells stay in order of degree: the last cell
    holds only vertices of maximum degree, and the vertex placed last is
    one of them.  Since every vertex of `_last` below is in the last cell,
    `generate` drops a child whose new vertex is outside it before the
    search, and runs the search on the cells it already refined.

    The search also yields `g._last`, the mask of the vertices that end a
    least ordering: the last vertices of the orderings that survive, each
    with its earlier twins.  That is the orbit of the canonical last vertex
    under the automorphisms of g.  Any two least orderings differ by an
    automorphism, so every vertex of the orbit ends one.  Twin pruning
    keeps, for every least ordering, its rearrangement that lists each twin
    class in cell order, which ends in the last-listed twin of the same
    class; the earlier twins put back the rest of the class.  So every
    automorphism is, in exactly one way, the map from the first survivor to
    a survivor with that survivor's twin classes rearranged among their
    positions.  `automorphisms` lists Aut(g) that way, and
    `_automorphism_generators` reads generators of it off the survivors.

    The key is computed once per Graph object, on the first call, and kept
    on the object; later calls return it.
    """
    if g.n > CANONICAL_CEILING:
        raise CeilingExceeded(f"canonical form supports n <= {CANONICAL_CEILING}")
    if g._key is None:
        g._key, g._last = _canonical_key(g, _refine_cells(g))
    return g._key


def _canonical_key(g, cells):
    """`canonical_form` of g and the mask `_last`, computed afresh from
    the refined cells of g."""
    n = g.n
    if n == 0:
        return b"\x00", 0
    _, earlier_twins, bits, orderings = _least_orderings(g, cells)
    last = 0
    for order in orderings:
        last |= 1 << order[-1] | earlier_twins[order[-1]]
    total = n * (n - 1) // 2
    header = bytes([n]) + bytes(len(c) for c in cells)
    key = header + b"|" + (bits << (-total % 8)).to_bytes((total + 7) // 8, "big")
    return key, last


def _automorphism_generators(g):
    """Permutations, as 0-indexed tuples like `automorphisms`, that generate
    the automorphism group of g, read off the search of `canonical_form`:
    the maps from the first survivor to the others, and the transpositions
    of each vertex and the first of its earlier twins, which generate every
    permutation within twin classes.
    """
    n = g.n
    _, earlier_twins, _, orderings = _least_orderings(g, _refine_cells(g))
    first = orderings[0]
    gens = []
    for order in orderings[1:]:
        perm = [0] * n
        for u, v in zip(first, order):
            perm[u] = v
        gens.append(tuple(perm))
    for v, twins in enumerate(earlier_twins):
        if twins:
            u = (twins & -twins).bit_length() - 1
            perm = list(range(n))
            perm[u], perm[v] = v, u
            gens.append(tuple(perm))
    return gens


def _least_orderings(g, cells):
    """The search of `canonical_form` over the refined cells `cells` of g.

    Returns the cells, the mask of each vertex's twins listed
    before it in its cell, the least bitstring as an integer, and the
    orderings (tuples of 0-indexed vertices) that reach it under twin
    pruning.
    """
    n = g.n
    adj = g.adj
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
    return cells, earlier_twins, bits, [placed for placed, _ in level]


def is_isomorphic(g, h):
    if g.n != h.n or g.m != h.m or g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)


def automorphisms(g, limit=None):
    """All adjacency-preserving permutations as 0-indexed tuples, the
    identity first, read off the search of `canonical_form` (see there).
    With `limit` (at least 1), stops after that many; any subset is still
    sound for symmetry pruning.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    if g.n > CANONICAL_CEILING:
        raise CeilingExceeded(f"automorphisms support n <= {CANONICAL_CEILING}")
    n = g.n
    _, earlier_twins, _, orderings = _least_orderings(g, _refine_cells(g))
    mates = [1 << v | twins for v, twins in enumerate(earlier_twins)]  # v's twin class
    for v, twins in enumerate(earlier_twins):
        for u in _bits(twins):
            mates[u] |= 1 << v
    first = orderings[0]
    perm = [0] * n
    out = []
    for order in orderings:
        # depth first, mapping first[i] to each unused twin of order[i] in
        # increasing order; rest[i] holds the twins left to try at position i
        rest, unused, i = [], (1 << n) - 1, 0
        while True:
            left = mates[order[i]] & unused if i < n else 0
            if i == n:
                out.append(tuple(perm))
                if len(out) == limit:
                    return out
            while not left and rest:  # back up to a position with a twin left
                i -= 1
                unused |= 1 << perm[first[i]]
                left = rest.pop()
            if not left:
                break
            v = (left & -left).bit_length() - 1
            perm[first[i]] = v
            unused &= ~(1 << v)
            rest.append(left & (left - 1))
            i += 1
    return out
