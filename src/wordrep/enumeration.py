"""Exhaustive generation of non-isomorphic graphs and the census of
non-word-representable ones.

Generation is by canonical augmentation: level n is built from level n-1 by
attaching a new vertex of maximum degree, with one neighborhood from each
orbit of the parent's automorphism group, and a child is kept only when the
new vertex is in the orbit of its canonical last vertex, so each isomorphism
class appears exactly once.  That orbit lies in the last cell of the
child's refined partition, so a child whose new vertex is outside it is
dropped before the canonical search.  Representability decisions
are independent per graph and can be distributed over worker processes; a
line-oriented checkpoint file makes long runs resumable.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from dataclasses import dataclass

from .graphs import (
    CeilingExceeded,
    Graph,
    canonical_form,
    delete_vertex,
    is_connected,
    _automorphism_generators,
    _bits,
    _component_masks,
    _from_masks,
    _generators,
    _key_and_last,
    _least_orderings,
    _refine_cells,
)
from .orientation import find_semi_transitive, is_word_representable
from .outcome import BudgetExhausted, _check_limits

GENERATION_CEILING = 9
FINAL_VERDICTS = ("representable", "non_representable")
# Tasks per pool chunk.  Each chunk is a round trip through the parent, whose
# CPU a worker needs on a 2-core machine: census(generate(8), jobs=2) took
# 1.61 s at 8 (0.69 s of it parent CPU), 1.28 s at 32, 0.99 s at 128, 0.94 s
# at 256, 0.98 s at 512 (0.08 s parent CPU), 1.03 s at 1,024 and 1.01 s at
# len(todo) // (4 * jobs) = 1,389, where the tail leaves one worker idle.
_CHUNK = 512


@dataclass
class Corpus:
    """Non-isomorphic graphs on n vertices (connected ones only, if filtered)."""

    n: int
    graphs: list
    provenance: str = "generated"
    connected_only: bool = False

    def __len__(self):
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)


def _augmentations(parent, hoods):
    """The graphs made by adding vertex n+1 to `parent` with each
    neighborhood in `hoods` (masks over the parent's vertices)."""
    n = parent.n
    out = []
    for hood in hoods:
        masks = [parent.adj[v] | ((hood >> v & 1) << n) for v in range(n)]
        masks.append(hood)
        out.append(_from_masks(n + 1, masks))
    return out


def _max_degree_hoods(parent):
    """The neighborhoods, in increasing order, that give the new vertex the
    maximum degree of the child: at least the parent's maximum degree, and
    no neighbor already at it when equal."""
    degrees = [a.bit_count() for a in parent.adj]
    top = max(degrees)
    at_top = sum(1 << v for v, d in enumerate(degrees) if d == top)
    return [
        hood
        for hood in range(1 << parent.n)
        if hood.bit_count() > top or (hood.bit_count() == top and not hood & at_top)
    ]


def _orbit_firsts(masks, gens):
    """The least mask of each orbit, in increasing order, of the vertex
    masks `masks` (listed in increasing order and closed under the group)
    under the group that the permutations `gens` generate."""
    seen = set()
    firsts = []
    for mask in masks:
        if mask in seen:
            continue
        firsts.append(mask)
        seen.add(mask)
        todo = [mask]
        while todo:
            m = todo.pop()
            for perm in gens:
                image = 0
                for v in _bits(m):
                    image |= 1 << perm[v]
                if image not in seen:
                    seen.add(image)
                    todo.append(image)
    return firsts


def _next_level(graphs, connected=False, last=False):
    """The next level by canonical augmentation, in increasing order of
    canonical form, from the current one in the same order; with
    `connected`, its connected graphs only (see `generate`).  Each child is
    refined once: the cells serve the last-cell test and then the canonical
    search, which leaves the child's `_key` and `_last` and, unless the
    level is the `last`, its `_gens` for the next call.  A parent without
    `_gens`, such as the one-vertex graph, has its generators searched for.
    """
    level = []
    for parent in graphs:
        m = parent.n
        gens = getattr(parent, "_gens", None)
        if gens is None:
            gens = _automorphism_generators(parent)
        hoods = _orbit_firsts(_max_degree_hoods(parent), gens)
        if connected:
            comps = _component_masks(parent)
            hoods = [hood for hood in hoods if all(hood & comp for comp in comps)]
        for child in _augmentations(parent, hoods):
            cells = _refine_cells(child)
            if cells[-1][-1] != m:  # cells list their vertices in increasing order
                continue
            search = _least_orderings(child, cells)
            child._key, child._last = _key_and_last(child, *search)
            if child._last >> m & 1:
                if not last:
                    child._gens = _generators(*search)
                level.append(child)
    level.sort(key=lambda child: child._key)
    return level


def generate(n, connected=True):
    """Corpus of all non-isomorphic graphs on exactly n vertices, in order
    of canonical form.

    Level k+1 is built from level k by canonical augmentation (McKay,
    "Isomorph-free exhaustive generation", 1998).  A child G is a parent P
    plus vertex m with some neighborhood, and is kept when
    1. m has the maximum degree in G (tested on the masks),
    2. the neighborhood is the least of its orbit under Aut(P), whose
       generators are read off P's own canonical search, the one that
       kept P at level k: one neighborhood per Aut(P)-orbit, and
    3. m is in the orbit of the canonical last vertex of G, the mask
       `G._last` that the canonical search leaves.  That mask lies in the
       last cell of G's refined partition, so a child with m outside that
       cell fails the test before the search, which runs only on the
       others, on the cells already refined.
    Every class appears once.  Take any graph of the class and its
    canonical last vertex x, which has maximum degree: the parent
    isomorphic to it minus x has a child isomorphic to it with m in place
    of x, which passes test 1.  The least neighborhood in the Aut(P)-orbit
    of its neighborhood gives a child isomorphic to it by a map fixing m,
    which passes all three tests.  A child passing test 3 is its graph minus a vertex of
    that orbit, and all such deletions are isomorphic, so no other parent
    passes it.  Two children of P that pass it are isomorphic only by a
    map fixing m, which an automorphism of P induces, so their
    neighborhoods share an orbit and test 2 keeps one.

    The labelled graphs are those that keeping the first child of each
    canonical form among P's children that pass tests 1 and 3 would give:
    by the above, those of one form are the children of one orbit, whose
    first in increasing order is the orbit's least neighborhood, and the
    children of one orbit pass or fail test 3 together.  No dictionary
    spans all the children of a level.

    With `connected`, the last level skips each neighborhood that misses a
    component of P: its child is disconnected, and every other child is
    connected, so the graphs, their labels and their order are those of
    the connected members of `generate(n, False)`.
    """
    if not 1 <= n <= GENERATION_CEILING:
        raise CeilingExceeded(f"generation supports 1 <= n <= {GENERATION_CEILING}")
    graphs = [Graph(1)]
    for k in range(2, n + 1):
        graphs = _next_level(graphs, connected and k == n, k == n)
    return Corpus(n, graphs, "generated", connected)


def corpus_from_graphs(n, graphs, provenance, connected=True):
    """Wrap externally supplied graphs (e.g. a graph6 file) as a corpus,
    verifying vertex count, deduplicating on canonical form."""
    seen = {}
    for g in graphs:
        if g.n != n:
            raise ValueError(f"expected graphs on {n} vertices, got {g.n}")
        if connected and not is_connected(g):
            continue
        seen.setdefault(canonical_form(g), g)
    return Corpus(n, [seen[k] for k in sorted(seen)], provenance, connected)


# -- representability census ---------------------------------------------------


def decide_graph(task):
    """Worker: decide one graph given (key, adj, max_nodes, max_seconds),
    where key is the graph's canonical hex, computed once by the caller, and
    adj is the graph's tuple of neighbor masks (`Graph.adj`).

    Returns (key, verdict, nodes) where verdict is "representable",
    "non_representable", or "budget" when inconclusive.
    """
    key, adj, max_nodes, max_seconds = task
    outcome = find_semi_transitive(_from_masks(len(adj), adj), max_nodes, max_seconds)
    if not outcome.conclusive:
        return key, "budget", outcome.nodes_expanded
    verdict = "representable" if outcome.found else "non_representable"
    return key, verdict, outcome.nodes_expanded


def _load_checkpoint(path):
    """Verdicts from the well-formed lines of a checkpoint file, and whether
    its last line lacks a newline.

    A line is well formed when it ends in a newline and has three
    tab-separated fields: a key, a final verdict and an integer node count.
    Any other line, such as one cut short by a crash (even inside its node
    count) or a "budget" line, is ignored, so its graph is decided again.
    """
    verdicts = {}
    torn = False
    if path and os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                torn = not line.endswith("\n")
                if torn:
                    break  # only the last line can lack its newline
                parts = line[:-1].split("\t")
                if len(parts) == 3 and parts[1] in FINAL_VERDICTS and parts[2].isdecimal():
                    verdicts[parts[0]] = parts[1]
    return verdicts, torn


def census(
    corpus,
    jobs=1,
    checkpoint=None,
    max_nodes=None,
    max_seconds=None,
    progress=None,
):
    """Map every corpus member to a representability verdict.

    Returns {canonical hex: verdict}; order of evaluation never affects the
    result.  With `jobs` > 1 the verdicts arrive from the worker pool a
    chunk of up to 512 graphs at a time.  With `checkpoint`, verdicts are
    appended to the file as they arrive, one flushed line each, and
    already-decided graphs are skipped on resume.  Raises BudgetExhausted if
    any member's search was cut short, since a census with budget holes
    cannot certify counts.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    _check_limits(max_nodes, max_seconds)
    verdicts, torn = _load_checkpoint(checkpoint)
    todo = []
    keys = []
    for g in corpus:
        key = canonical_form(g).hex()
        keys.append(key)
        if key not in verdicts:
            todo.append((key, g.adj, max_nodes, max_seconds))
    with contextlib.ExitStack() as stack:
        sink = stack.enter_context(open(checkpoint, "a")) if checkpoint else None
        if torn:
            sink.write("\n")  # never glue a new line onto a cut-off one
        if jobs > 1 and len(todo) > 1:
            pool = stack.enter_context(multiprocessing.Pool(jobs))
            results = pool.imap_unordered(decide_graph, todo, chunksize=_CHUNK)
        else:
            results = map(decide_graph, todo)
        for i, (key, verdict, nodes) in enumerate(results):
            verdicts[key] = verdict
            if sink:
                sink.write(f"{key}\t{verdict}\t{nodes}\n")
                sink.flush()
            if progress:
                progress(i + 1, len(todo))
    out = {key: verdicts.get(key, "budget") for key in keys}
    undecided = sum(out[key] == "budget" for key in keys)
    if undecided:
        raise BudgetExhausted(
            f"{undecided} of {len(keys)} graphs hit the search budget; "
            "counts would not be trustworthy"
        )
    return out


def count_non_representable(corpus, **kw):
    """Number of corpus members that are not word-representable; every
    refutation behind the count is exhaustive."""
    verdicts = census(corpus, **kw)
    return sum(1 for v in verdicts.values() if v == "non_representable")


def non_representable_members(corpus, **kw):
    """Corpus members that are not word-representable, in corpus order."""
    graphs = list(corpus)  # read once: a one-shot iterable has no second pass
    verdicts = census(graphs, **kw)
    # each member's key is the canonical form that the census cached on it
    return [g for g in graphs if verdicts[g._key.hex()] == "non_representable"]


def minimal_non_representable(corpus, **kw):
    """Non-representable members all of whose vertex-deleted subgraphs are
    representable."""
    members = non_representable_members(corpus, **kw)
    return _minimal(members, kw.get("max_nodes"), kw.get("max_seconds"))


def _minimal(members, max_nodes=None, max_seconds=None):
    """The non-representable `members` all of whose vertex-deleted subgraphs
    are representable.  Like the census, each subgraph's decision gets
    `max_nodes` and `max_seconds`, and raises BudgetExhausted when it cannot
    finish within them."""
    minimal = []
    for g in members:
        if all(
            is_word_representable(delete_vertex(g, v), max_nodes, max_seconds)
            for v in g.vertices()
        ):
            minimal.append(g)
    return minimal
