"""Graph serialization: graph6, plain edge-list text, and DOT export.

graph6 is implemented bit-exactly: a length header N(n) (single byte n+63
for n <= 62), then the upper triangle of the adjacency matrix read column by
column, packed into 6-bit groups, each offset by 63.  This lets corpora from
external generators be ingested for cross-validation.
"""

from __future__ import annotations

from .graphs import Graph, _bits, _from_masks

# each 6-bit group with its bits in reverse order, so that a group's first
# bit lands lowest
_REVERSED = tuple(int(f"{v:06b}"[::-1], 2) for v in range(64))


def to_graph6(g):
    if g.n > 62:
        raise ValueError("only short-form graph6 (n <= 62) is supported")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(g.adj[i] >> j & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = value << 1 | b
        chars.append(chr(value + 63))
    return "".join(chars)


def from_graph6(text):
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<") :]
    if not text:
        raise ValueError("empty graph6 string")
    n = ord(text[0]) - 63
    if n < 0 or n > 62:
        raise ValueError("only short-form graph6 (n <= 62) is supported")
    need = (n * (n - 1) // 2 + 5) // 6
    body = text[1:]
    if len(body) != need:
        raise ValueError(f"graph6 body for n={n} needs {need} bytes, got {len(body)}")
    bits = 0  # bit k is the k-th bit of the body
    for pos, ch in enumerate(body):
        value = ord(ch) - 63
        if not 0 <= value < 64:
            raise ValueError(f"invalid graph6 byte {ch!r}")
        bits |= _REVERSED[value] << 6 * pos
    adj = [0] * n
    for j in range(1, n):  # column j starts at bit j(j - 1)/2
        lower = bits >> (j * (j - 1) // 2) & ((1 << j) - 1)
        adj[j] = lower
        for i in _bits(lower):
            adj[i] |= 1 << j
    return _from_masks(n, adj)


def read_graph6_file(path):
    graphs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                graphs.append(from_graph6(line))
    return graphs


def write_graph6_file(path, graphs):
    with open(path, "w") as fh:
        for g in graphs:
            fh.write(to_graph6(g) + "\n")


# -- edge-list text ------------------------------------------------------------


def to_edge_list_text(g):
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list_text(text):
    lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError('first line must be "n m"')
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        u, v = ln.split()
        edges.append((int(u), int(v)))
    g = Graph(n, edges)
    if g.m != m:
        raise ValueError(f"expected {m} distinct edges, found {g.m}")
    return g


# -- DOT export ----------------------------------------------------------------


def to_dot(g):
    lines = ["graph g {"]
    for v in g.vertices():
        lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def orientation_to_dot(o):
    lines = ["digraph g {"]
    for v in o.graph.vertices():
        lines.append(f"  {v};")
    for u, v in o.arcs():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
