"""Representant synthesis by pruned exhaustive search.

`find_k_uniform_word` searches the k-uniform words over the graph's alphabet;
its refutations are exhaustive, which makes `representation_number` exact.
The pattern-avoiding search drops uniformity (extending a word to uniform can
introduce pattern occurrences) and instead bounds letter multiplicities:
any word avoiding a length-3 pattern uses a degree>=2 letter at most twice
and a letter adjacent to such a vertex at most three times, and for 132 a
representable graph always has a witness with every letter at most twice.

All searches are deterministic: letters are tried in increasing order, and
all of them grow the word one letter at a time over the same `_PairState`.
The uniform search breaks two symmetries.  It keeps the word's
first-occurrence sequence lexicographically minimal within the graph's
automorphism group, which is sound because relabeling by an automorphism
maps representants to representants of the same labeled graph (and pruning
against any subset of the group stays sound, so huge groups are capped).
And it starts every word with letter 1: a cyclic shift of a uniform
representant represents the same graph (Kitaev & Pyatkin), so some witness
starts with 1, and the lex-min image of that witness still starts with 1,
because no automorphism maps 1 below 1.  The unrestricted search tried
letter 1 first too, so witnesses are unchanged; only refutations shrink.
"""

from __future__ import annotations

import math
import time
from itertools import permutations

from .graphs import CeilingExceeded, automorphisms, max_clique_size, _bits
from .orientation import ORIENTATION_CEILING, _decide
from .outcome import (
    REFUTED,
    WITNESS,
    SearchOutcome,
    _Budget,
    run_search,
)
from .words import as_pattern, contains_pattern, word_to_graph

LENGTH_CEILING = 36
AUTOMORPHISM_CAP = 2048


class _PairState:
    """A word under construction and the state of every letter pair, as
    per-letter bitmasks (bit y of a mask stands for letter y+1).

    - `before[x]`: for a placed x, the letters whose last copy comes before
      x's last copy or that are not placed yet; 0 while x is unplaced.
    - `broken[x]`: the non-neighbours y whose projection onto {x, y} has
      stopped alternating.
    - `placed`, `low`: the letters with a copy in the word, and with fewer
      than two copies left.

    Right after x is placed, x is the last letter of every pair {x, y}, so
    the tests on the pairs at x are mask tests.  `place` builds new lists
    and returns the old ones, which `unplace` puts back.
    """

    def __init__(self, g, caps):
        self.full = (1 << g.n) - 1
        self.adj = g.adj
        self.nonadj = [self.full & ~(a | 1 << x) for x, a in enumerate(g.adj)]
        self.unbroken = sum(m.bit_count() for m in self.nonadj) // 2
        self.rem = list(caps)
        self.low = sum(1 << x for x, c in enumerate(caps) if c < 2)
        self.before = [0] * g.n
        self.broken = [0] * g.n
        self.placed = 0
        self.word = []  # 1-indexed letters, so pattern checks read naturally

    def moves(self):
        """The letters that may come next, in increasing order.

        A move x has a copy left, would not repeat in the projection of an
        edge at x, and leaves every alternating non-edge at x breakable:
        once x's last copy is placed, only two more copies of the other
        letter can break it.  A uniform word needs no test that x's
        neighbours keep copies to follow x: when all k copies of a neighbour
        y are placed and x can still follow, the projection onto {x, y}
        alternates and ends in y, so it holds k - 1 copies of x and x has
        one copy left.
        """
        adj, nonadj, before, broken = self.adj, self.nonadj, self.before, self.broken
        out = []
        for x, r in enumerate(self.rem):
            if not r or adj[x] & before[x]:
                continue
            if r == 1 and nonadj[x] & self.low & ~(broken[x] | before[x]):
                continue
            out.append(x)
        return out

    def place(self, x):
        bit = 1 << x
        before, broken = self.before, self.broken
        undo = (before, broken, self.placed, self.low, self.unbroken)
        new = before[x] & self.nonadj[x] & ~broken[x]
        if new:  # x follows x in these pairs' projections
            broken = broken[:]
            broken[x] |= new
            for y in _bits(new):
                broken[y] |= bit
            self.broken = broken
            self.unbroken -= new.bit_count()
        keep = ~bit
        before = [b & keep for b in before]
        before[x] = self.full & keep
        self.before = before
        self.placed |= bit
        self.rem[x] -= 1
        if self.rem[x] < 2:
            self.low |= bit
        self.word.append(x + 1)
        return undo

    def unplace(self, x, undo):
        self.before, self.broken, self.placed, self.low, self.unbroken = undo
        self.rem[x] += 1
        self.word.pop()

    def is_witness(self):
        """Every letter is placed and every non-edge has stopped alternating."""
        return self.placed == self.full and not self.unbroken


class _UniformSearch:
    """Position-by-position search for a k-uniform representant.

    Invariants kept after every placement: every adjacent pair's projection
    still strictly alternates, and every non-adjacent pair can still end up
    non-alternating with the remaining copies.  Reaching full length thus
    guarantees a representant.
    """

    def __init__(self, g, k, budget, auts):
        self.k = k
        self.length = g.n * k
        self.budget = budget
        self.state = _PairState(g, [k] * g.n)
        self.auts = [a for a in auts if any(a[i] != i for i in range(g.n))]
        self.active = list(range(len(self.auts)))  # fix word prefix pointwise

    def search(self):
        self.budget.tick()
        state = self.state
        if len(state.word) == self.length:
            return tuple(state.word)
        moves = state.moves()
        if not state.word:  # only letter 1 may start it (see the module docstring)
            moves = [x for x in moves if x == 0]
        for x in moves:
            new_letter = state.rem[x] == self.k
            saved_active = None
            if new_letter:
                ok = True
                survivors = []
                for ai in self.active:
                    image = self.auts[ai][x]
                    if image < x:
                        ok = False
                        break
                    if image == x:
                        survivors.append(ai)
                if not ok:
                    continue
                saved_active = self.active
                self.active = survivors
            undo = state.place(x)
            result = self.search()
            if result is not None:
                return result
            state.unplace(x, undo)
            if new_letter:
                self.active = saved_active
        return None


def find_k_uniform_word(
    g,
    k,
    max_nodes=None,
    max_seconds=None,
    length_ceiling=LENGTH_CEILING,
    *,
    budget=None,
    auts=None,
):
    """Search for a k-uniform word representing the labeled graph g.

    A refuted outcome is exhaustive over all k-uniform words; neither
    symmetry reduction (automorphisms, cyclic shifts) prunes the last witness.
    A caller that searches several k passes its `_Budget` as `budget`, which
    then replaces `max_nodes` and `max_seconds`, and the list
    `automorphisms(g, limit=AUTOMORPHISM_CAP)` as `auts`.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n * k > length_ceiling:
        raise CeilingExceeded(
            f"word length {g.n * k} exceeds ceiling {length_ceiling}"
        )
    if g.n == 0:
        return SearchOutcome(WITNESS, (), 0, 0.0)
    if budget is None:
        budget = _Budget(max_nodes, max_seconds)
    if auts is None:
        auts = automorphisms(g, limit=AUTOMORPHISM_CAP)
    searcher = _UniformSearch(g, k, budget, auts)
    return run_search(searcher.search, budget, lambda w: word_to_graph(w) == g)


def representation_number(g, max_nodes=None, max_seconds=None):
    """Least k such that g has a k-uniform representant; math.inf when the
    orientation search refutes representability outright.

    Every non-complete representable graph is 2(n - clique number)-uniform
    representable, so the loop is capped by that bound.  `max_nodes` and
    `max_seconds` bound the whole call: the orientation search and every
    uniform search share one budget.
    """
    return _representation(g, _Budget(max_nodes, max_seconds))[0]


def _representation(g, budget):
    """`representation_number` under `budget`, returned with a k-uniform
    representant for the least k (None when g is not representable)."""
    if not _decide(g, budget, ORIENTATION_CEILING).require_conclusive().found:
        return math.inf, None
    auts = automorphisms(g, limit=AUTOMORPHISM_CAP)
    bound = max(1, 2 * (g.n - max_clique_size(g)))
    for k in range(1, bound + 1):
        outcome = find_k_uniform_word(g, k, budget=budget, auts=auts).require_conclusive()
        if outcome.found:
            return k, outcome.witness
    raise AssertionError(
        "representable graph had no witness within the uniform bound"
    )


# -- pattern-avoiding search ---------------------------------------------------


def _ends_with_occurrence(word, z, t):
    """Would appending letter z to word create an occurrence of pattern t?

    The word must avoid t, as every word the searches extend does, so any
    occurrence in the extended word ends at z.
    """
    # specialize the two patterns with completeness guarantees
    if t == (1, 3, 2):
        lo = None
        for c in word:
            if lo is not None and lo < z and c > z:
                return True
            if lo is None or c < lo:
                lo = c
        return False
    if t == (1, 2, 3):
        lo = None
        for c in word:
            if lo is not None and lo < c < z:
                return True
            if lo is None or c < lo:
                lo = c
        return False
    return contains_pattern((*word, z), t)


def multiplicity_caps(g, t):
    """Per-vertex copy caps for a t-avoiding representant search.

    For a pattern of length m = k+1: a vertex of degree >= k carries at most
    k copies in any t-avoiding representant, and a vertex adjacent to such a
    vertex at most k+1.  For t = 132 every vertex is capped at 2 (a
    132-representable graph always has such a witness).  Vertices covered by
    neither rule get max(3, k+1), and the search is then only complete
    within that cap.
    """
    t = as_pattern(t)
    k = len(t) - 1
    caps = {}
    covered = {}
    for v in g.vertices():
        if g.degree(v) >= k:
            caps[v] = k
            covered[v] = True
        elif any(g.degree(u) >= k for u in g.neighbors(v)):
            caps[v] = k + 1
            covered[v] = True
        else:
            caps[v] = max(3, k + 1)
            covered[v] = False
    if t == (1, 3, 2):
        caps = {v: min(2, c) for v, c in caps.items()}
        covered = {v: True for v in covered}
    return caps, all(covered.values())


class _PatternSearch:
    """Search for a t-avoiding representant within per-letter copy caps.

    No automorphism symmetry breaking here: relabeling letters preserves the
    represented graph but not pattern avoidance (labeling matters), so every
    labeled word within the caps must be considered.  Every non-edge is
    checked once on the empty word; after that a placement changes only the
    pairs at the placed letter, so only those are checked again.
    """

    def __init__(self, g, t, caps, budget):
        self.t = t
        self.budget = budget
        caps = [caps[v] for v in g.vertices()]
        self.length = sum(caps)
        self.state = _PairState(g, caps)
        # a non-edge stops alternating only by xx or yy in its projection,
        # so on the empty word it needs a copy of each letter and two of one
        self.hopeless = any(
            min(caps[x], caps[y]) < 1 or max(caps[x], caps[y]) < 2
            for x in range(g.n)
            for y in _bits(self.state.nonadj[x])
        )

    def search(self):
        self.budget.tick()
        state = self.state
        if state.is_witness():
            return tuple(state.word)
        if self.hopeless or len(state.word) == self.length:
            return None
        # edges never go infeasible here (we may simply stop placing a
        # letter), but a still-alternating non-edge must remain breakable
        for x in state.moves():
            if _ends_with_occurrence(state.word, x + 1, self.t):
                continue
            undo = state.place(x)
            result = self.search()
            if result is not None:
                return result
            state.unplace(x, undo)
        return None


def find_pattern_avoiding_word(g, t, max_nodes=None, max_seconds=None):
    """Search for a t-avoiding word representing the labeled graph g.

    For t in {132, 123} refutations are exhaustive whenever every vertex is
    covered by the multiplicity theorems (always, for 132); the outcome's
    detail records the caps used and whether the refutation is complete.
    """
    t = as_pattern(t)
    caps, complete = multiplicity_caps(g, t)
    budget = _Budget(max_nodes, max_seconds)
    searcher = _PatternSearch(g, t, caps, budget)
    return run_search(
        searcher.search,
        budget,
        lambda w: word_to_graph(w) == g and not contains_pattern(w, t),
        {"caps": caps, "exhaustive": complete, "pattern": t},
    )


def count_pattern_avoiding_representants(g, t, max_len):
    """Exact number of t-avoiding words of length <= max_len representing the
    labeled graph g."""
    t = as_pattern(t)
    if g.n**max_len > 10**8:
        raise CeilingExceeded("alphabet**length too large for exhaustive count")
    state = _PairState(g, [max_len] * g.n)
    count = 0

    def rec():
        nonlocal count
        if state.is_witness():
            count += 1
        if len(state.word) == max_len:
            return
        for x in state.moves():
            if not _ends_with_occurrence(state.word, x + 1, t):
                undo = state.place(x)
                rec()
                state.unplace(x, undo)

    rec()
    return count


# -- representation by concatenations of permutations ---------------------------


def permutational_representation_number(g, max_p=3, perm_ceiling=6):
    """Least p such that a concatenation of p permutations of the vertices
    represents g, or a refutation up to max_p.

    A pair alternates in a concatenation of permutations exactly when every
    permutation orders it the same way, so edges must agree with the first
    permutation everywhere and every non-edge must flip somewhere.
    """
    if g.n > perm_ceiling:
        raise CeilingExceeded(f"permutation search supports n <= {perm_ceiling}")
    start = time.monotonic()
    n = g.n
    nodes = 0
    if n == 0:
        return SearchOutcome(WITNESS, (), 0, 0.0, {"permutations": 0})
    edges = [(u - 1, v - 1) for u, v in g.edges()]
    nonedges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not g.adj[u] >> v & 1
    ]

    def acyclic_topo(relation):
        """Topological order of `relation` arcs, preferring small labels."""
        indeg = [0] * n
        succ = [0] * n
        for a, b in relation:
            succ[a] |= 1 << b
            indeg[b] += 1
        out = []
        avail = [v for v in range(n) if indeg[v] == 0]
        while avail:
            v = min(avail)
            avail.remove(v)
            out.append(v)
            for w in _bits(succ[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    avail.append(w)
        return out if len(out) == n else None

    for p in range(1, max_p + 1):
        if p == 1:
            if not nonedges:
                word = tuple(range(1, n + 1))
                return SearchOutcome(
                    WITNESS, word, nodes, time.monotonic() - start,
                    {"permutations": 1},
                )
            continue
        for first in permutations(range(n)):
            nodes += 1
            pos = [0] * n
            for i, v in enumerate(first):
                pos[v] = i
            arcs = [(a, b) if pos[a] < pos[b] else (b, a) for a, b in edges]
            base_order = [(a, b) if pos[a] < pos[b] else (b, a) for a, b in nonedges]

            def extend(perms_used, still_agreeing):
                nonlocal nodes
                remaining_perms = p - perms_used
                if remaining_perms == 0:
                    return [] if not still_agreeing else None
                if remaining_perms == 1:
                    relation = arcs + [(b, a) for a, b in still_agreeing]
                    order = acyclic_topo(relation)
                    if order is None:
                        return None
                    return [tuple(order)]
                # enumerate linear extensions of the edge arcs, classic DFS
                result = None

                def linext(chosen, chosen_mask):
                    nonlocal nodes, result
                    if result is not None:
                        return
                    if len(chosen) == n:
                        nodes += 1
                        cpos = [0] * n
                        for i, v in enumerate(chosen):
                            cpos[v] = i
                        next_agreeing = [
                            (a, b)
                            for a, b in still_agreeing
                            if (cpos[a] < cpos[b]) == (pos[a] < pos[b])
                        ]
                        tail = extend(perms_used + 1, next_agreeing)
                        if tail is not None:
                            result = [tuple(chosen)] + tail
                        return
                    for v in range(n):
                        if chosen_mask >> v & 1:
                            continue
                        if any(
                            not chosen_mask >> a & 1 for a, b in arcs if b == v
                        ):
                            continue
                        chosen.append(v)
                        linext(chosen, chosen_mask | 1 << v)
                        chosen.pop()
                        if result is not None:
                            return

                linext([], 0)
                return result

            tail = extend(1, base_order)
            if tail is not None:
                seq = [first] + tail
                word = tuple(v + 1 for perm in seq for v in perm)
                if word_to_graph(word) != g:
                    raise AssertionError("permutation search verification failed")
                return SearchOutcome(
                    WITNESS, word, nodes, time.monotonic() - start,
                    {"permutations": p},
                )
    return SearchOutcome(
        REFUTED, None, nodes, time.monotonic() - start, {"max_p": max_p}
    )
