"""Representant synthesis by pruned exhaustive search.

`find_k_uniform_word` searches the k-uniform words over the graph's alphabet;
its refutations are exhaustive, which makes `representation_number` exact.
The pattern-avoiding search drops uniformity (extending a word to uniform can
introduce pattern occurrences) and instead bounds letter multiplicities:
any word avoiding a length-3 pattern uses a degree>=2 letter at most twice
and a letter adjacent to such a vertex at most three times, and for 132 a
representable graph always has a witness with every letter at most twice.

All searches are one walk, `_walk`, which grows the word one letter at a
time, in increasing order, so every search is deterministic.  Each search
says only when it is done and which letters it bars at a node, as a mask
computed from the word and its placed letters: the pattern searches bar the
letters that would complete an occurrence of the pattern, and the uniform
search bars by symmetry, with one bar per graph, `_symmetry_bar(g)`, which
`representation_number` shares across every k it tries.

The uniform search breaks two symmetries.  It keeps the word's
first-occurrence sequence lexicographically minimal within the graph's
automorphism group, which is sound because relabeling by an automorphism
maps representants to representants of the same labeled graph (and pruning
against any subset of the group stays sound, so huge groups are capped,
and graphs above the 12 vertices of `automorphisms` get no such pruning).
And it starts every word with letter 1: a cyclic shift of a uniform
representant represents the same graph (Kitaev & Pyatkin), so some witness
starts with 1, and the lex-min image of that witness still starts with 1,
because no automorphism maps 1 below 1.  The unrestricted search tried
letter 1 first too, so witnesses are unchanged; only refutations shrink.
"""

from __future__ import annotations

import math

from .graphs import CANONICAL_CEILING, automorphisms, _bits
from .orientation import _comparability, find_semi_transitive
from .outcome import (
    WITNESS,
    SearchOutcome,
    _Budget,
    run_search,
)
from .words import as_pattern, contains_pattern, word_to_graph

AUTOMORPHISM_CAP = 2048


def _walk(g, caps, budget, bar, done):
    """Depth-first search from the empty word over g, within the per-letter
    copy caps `caps`, for a word on which `done(word, placed, loose)` holds;
    that word is returned as a tuple of 1-indexed letters (so pattern checks
    read naturally), or None once the search has run out of words.

    The state of every letter pair is kept as per-letter bitmasks (bit y of
    a mask stands for letter y+1); the callbacks get the first two:
    - `placed`: the letters with a copy in the word.
    - `loose`: the letters with a non-neighbour whose pair still alternates.
    - `rem[x]`: the copies of x left.
    - `before[x]`: for a placed x, the letters whose last copy comes before
      x's last copy or that are not placed yet; 0 while x is unplaced.
    - `broken[x]`: the non-neighbours y whose projection onto {x, y} has
      stopped alternating.
    - `low`, `spent`: the letters with fewer than two copies left, and with
      none left.
    - `blocked`: the placed letters x with a neighbour in `before[x]`, whose
      next copy would repeat in that edge's projection.

    The search is one loop over its own stack, so its depth is bounded by
    the budget and the caps alone: each entry holds a placed letter, the
    moves left at the node it was placed from, and the pair state as it was
    before it.  Each node ticks `budget` once and then tries, in increasing
    order, each move outside the mask `bar(word, placed)`.  A search may bar
    only letters whose subtrees hold no word it wants.

    Right after x is placed, x is the last letter of every pair {x, y}, so
    the tests on the pairs at x are mask tests.  Placing x blocks x when it
    has neighbours, and can unblock only the blocked neighbours of x, which
    alone are rechecked.  No list is changed in place: a placement builds
    new ones and stacks the old ones to put back.

    A move x has a copy left (not in `spent`), would not repeat in the
    projection of an edge at x (not in `blocked`), and leaves every
    alternating non-edge at x breakable: once x's last copy is placed, only
    two more copies of the other letter can break it, so a letter with one
    copy left and an alternating non-edge (in `loose`) is tested against the
    letters in `low`.  So after every placement every adjacent pair's
    projection still strictly alternates, and every non-adjacent pair can
    still end up non-alternating with the remaining copies: a uniform word
    that reaches full length is a representant, and a word with every letter
    placed and nothing loose is a representant.  A uniform word needs no
    test that x's neighbours keep copies to follow x: when all k copies of a
    neighbour y are placed and x can still follow, the projection onto
    {x, y} alternates and ends in y, so it holds k - 1 copies of x and x has
    one copy left.  A search that may stop short of its caps never needs
    it: a letter can simply get no more copies.
    """
    full, adj = (1 << g.n) - 1, g.adj
    nonadj = [full & ~(a | 1 << x) for x, a in enumerate(adj)]
    rem = list(caps)
    before, broken = [0] * len(rem), [0] * len(rem)
    low = sum(1 << x for x, r in enumerate(rem) if r < 2)
    spent = sum(1 << x for x, r in enumerate(rem) if not r)
    placed = blocked = 0
    loose = sum(1 << x for x, m in enumerate(nonadj) if m)
    word, stack = [], []
    while True:
        budget.tick()
        if done(word, placed, loose):
            return tuple(word)
        moves = full & ~(spent | blocked | bar(word, placed))
        for x in _bits(moves & low & loose):
            if nonadj[x] & low & ~(broken[x] | before[x]):
                moves ^= 1 << x
        while not moves:
            if not stack:
                return None
            x, moves, before, broken, low, spent, placed, blocked, loose = stack.pop()
            rem[x] += 1
            word.pop()
        bit = moves & -moves
        x = bit.bit_length() - 1
        stack.append((x, moves ^ bit, before, broken, low, spent, placed, blocked, loose))
        new = before[x] & nonadj[x] & ~broken[x]
        if new:  # x follows x in these pairs' projections
            broken = broken[:]
            broken[x] |= new
            if broken[x] == nonadj[x]:
                loose ^= bit
            for y in _bits(new):
                broken[y] |= bit
                if broken[y] == nonadj[y]:
                    loose ^= 1 << y
        keep = ~bit
        before = [b & keep for b in before]
        before[x] = full & keep
        for y in _bits(adj[x] & blocked):
            if not adj[y] & before[y]:
                blocked ^= 1 << y
        if adj[x]:
            blocked |= bit
        placed |= bit
        rem[x] -= 1
        if rem[x] < 2:
            low |= bit
            if not rem[x]:
                spent |= bit
        word.append(x + 1)


def _symmetry_bar(g):
    """The uniform search's symmetry policy for g, as a bar for `_walk`:
    only letter 1 may start the word, and each automorphism that fixes
    every placed letter bars the letters it maps lower.  The placed
    letters of a uniform word are its first-occurrence prefix, so that
    prefix stays least in its orbit (see the module docstring).  The mask
    depends only on the placed set, not on k, so one bar serves every k."""
    auts = automorphisms(g, limit=AUTOMORPHISM_CAP) if g.n <= CANONICAL_CEILING else ()
    rules = []  # the letters each automorphism fixes, and those it maps lower
    for a in auts:
        fixed = lowered = 0
        for x, y in enumerate(a):
            if y == x:
                fixed |= 1 << x
            elif y < x:
                lowered |= 1 << x
        rules.append((fixed, lowered))
    memo = {0: ~1}

    def bar(word, placed):
        barred = memo.get(placed)
        if barred is None:
            barred = 0
            for fixed, lowered in rules:
                if not placed & ~fixed:
                    barred |= lowered
            memo[placed] = barred
        return barred

    return bar


def find_k_uniform_word(g, k, max_nodes=None, max_seconds=None, *, budget=None, bar=None):
    """Search for a k-uniform word representing the labeled graph g.

    A refuted outcome is exhaustive over all k-uniform words; neither
    symmetry reduction (automorphisms, cyclic shifts) prunes the last witness.
    A caller that searches several k passes its `_Budget` as `budget`, which
    then replaces `max_nodes` and `max_seconds`, and `_symmetry_bar(g)` as
    `bar`, so the symmetry rules are compiled once for all k.  Without one,
    the bar is built inside the timed search, so `elapsed` covers it.

    No size ceiling: only a verdict or the budget stops the search, and with
    no budget memory bounds a long word (one undo record per letter).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n == 0:
        return SearchOutcome(WITNESS, (), 0, 0.0)
    if budget is None:
        budget = _Budget(max_nodes, max_seconds)
    length = g.n * k

    def kernel():
        return _walk(
            g,
            [k] * g.n,
            budget,
            bar or _symmetry_bar(g),
            lambda word, placed, loose: len(word) == length,
        )

    return run_search(kernel, budget, lambda w: word_to_graph(w) == g)


def representation_number(g, max_nodes=None, max_seconds=None):
    """Least k such that g has a k-uniform representant; math.inf when the
    decision procedure (the neighbourhood filter or the orientation search)
    refutes representability outright.

    Every non-complete representable graph is 2(n - clique number)-uniform
    representable, so the loop is capped by that bound, read from a greedy
    clique.  `max_nodes` and `max_seconds` bound the whole call: the
    orientation search and every uniform search share one budget.
    """
    return _representation(g, _Budget(max_nodes, max_seconds))[0]


def _representation(g, budget):
    """`representation_number` under `budget`, returned with a k-uniform
    representant for the least k (None when g is not representable).

    The k loop stops at 2(n - c), or 1 for a complete graph, for a greedy
    clique of c vertices: no lower than the theorem's bound, in n mask
    operations, where the exact clique number is exponential and takes no
    budget.  The `AssertionError` after the loop checks the theorem."""
    if not find_semi_transitive(g, budget=budget).require_conclusive().found:
        return math.inf, None
    bar = _symmetry_bar(g)
    clique = 0
    for v in sorted(range(g.n), key=lambda v: -g.adj[v].bit_count()):
        if not clique & ~g.adj[v]:
            clique |= 1 << v
    bound = max(1, 2 * (g.n - clique.bit_count()))
    for k in range(1, bound + 1):
        outcome = find_k_uniform_word(g, k, budget=budget, bar=bar).require_conclusive()
        if outcome.found:
            return k, outcome.witness
    raise AssertionError("representable graph had no witness within the uniform bound")


# -- pattern-avoiding search ---------------------------------------------------


def _occurrence_mask(word, t, n):
    """The letters z of 1..n, as bit z - 1, whose appending to word creates
    an occurrence of pattern t.

    The word must avoid t, as every word the searches extend does, so any
    occurrence in the extended word ends at z.
    """
    # specialize the two patterns with completeness guarantees
    if t == (1, 3, 2):
        # z lies strictly between the prefix minimum and a later, larger letter
        mask = 0
        lo = word[0] if word else 0
        for c in word:
            if lo < c:
                mask |= (1 << c - 1) - (1 << lo)
            else:
                lo = c
        return mask
    if t == (1, 2, 3):
        # z lies above the least letter that has a smaller letter before it
        least = n
        lo = word[0] if word else 0
        for c in word:
            if lo < c:
                if c < least:
                    least = c
            else:
                lo = c
        return (1 << n) - (1 << least)
    return sum(1 << z - 1 for z in range(1, n + 1) if contains_pattern((*word, z), t))


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
    if t == (1, 3, 2):
        return {v: 2 for v in g.vertices()}, True
    k = len(t) - 1
    caps = {}
    complete = True
    for v in g.vertices():
        if g.degree(v) >= k:
            caps[v] = k
        elif any(g.degree(u) >= k for u in g.neighbors(v)):
            caps[v] = k + 1
        else:
            caps[v] = max(3, k + 1)
            complete = False
    return caps, complete


def find_pattern_avoiding_word(g, t, max_nodes=None, max_seconds=None):
    """Search for a t-avoiding word representing the labeled graph g.

    For t in {132, 123} refutations are exhaustive whenever every vertex is
    covered by the multiplicity theorems (always, for 132); the outcome's
    detail records the caps used and whether the refutation is complete.

    The walk bars the letters that would complete an occurrence of t, and
    no symmetry: relabeling letters preserves the represented graph but not
    pattern avoidance (labeling matters), so every labeled word within the
    caps must be considered.  Every non-edge is checked once on the empty
    word, at the cost of one node; after that a placement changes only the
    pairs at the placed letter, which the walk checks again.
    """
    t = as_pattern(t)
    caps, complete = multiplicity_caps(g, t)
    detail = {"caps": caps, "exhaustive": complete, "pattern": t}
    if g.n == 0:  # the empty word, which `word_to_graph` rejects
        return SearchOutcome(WITNESS, (), 0, 0.0, detail)
    budget = _Budget(max_nodes, max_seconds)
    full = (1 << g.n) - 1

    def kernel():
        # a non-edge stops alternating only by xx or yy in its projection,
        # so on the empty word it needs a copy of each letter and two of one
        rem = [caps[v] for v in g.vertices()]
        hopeless = any(
            min(rem[x], rem[y]) < 1 or max(rem[x], rem[y]) < 2
            for x in range(g.n)
            for y in range(x + 1, g.n)
            if not g.adj[x] >> y & 1
        )
        return _walk(
            g,
            rem,
            budget,
            lambda word, placed: -1 if hopeless else _occurrence_mask(word, t, g.n),
            lambda word, placed, loose: placed == full and not loose,
        )

    return run_search(
        kernel,
        budget,
        lambda w: word_to_graph(w) == g and not contains_pattern(w, t),
        detail,
    )


def count_pattern_avoiding_representants(g, t, max_len, max_nodes=None, max_seconds=None):
    """Exact number of t-avoiding words of length <= max_len representing the
    labeled graph g: the witnesses of a walk that bars every letter at
    max_len and otherwise the letters completing an occurrence of t.

    `max_nodes` and `max_seconds` are the count's only limit: the walk keeps
    its own stack, and `BudgetExhausted` is raised once they are spent."""
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    t = as_pattern(t)
    budget = _Budget(max_nodes, max_seconds)
    full = (1 << g.n) - 1
    count = 0

    def done(word, placed, loose):
        nonlocal count
        count += placed == full and not loose
        return False

    def kernel():
        _walk(
            g,
            [max_len] * g.n,
            budget,
            lambda word, placed: -1 if len(word) == max_len else _occurrence_mask(word, t, g.n),
            done,
        )
        return count

    # a count has no witness to check
    return run_search(kernel, budget, lambda count: True).require_conclusive().witness


# -- representation by concatenations of permutations ---------------------------


def permutational_representation_number(g, max_nodes=None, max_seconds=None):
    """Least p such that a concatenation of p permutations of the vertices
    represents g, refuted only when g is not a comparability graph.
    `max_nodes` and `max_seconds` bound the search over every p, and are
    its only limit: it keeps its own stack, so neither the order's size nor
    its number of critical pairs is capped.  `elapsed` covers the whole call.

    A pair alternates in such a concatenation exactly when every permutation
    orders it the same way, so the permutations must be linear extensions of
    a transitive orientation P of g whose intersection is P (Kitaev & Seif):
    only comparability graphs qualify, and p is the dimension of P, which is
    the same for every transitive orientation of g.  A family of linear
    extensions realizes P exactly when it reverses every critical pair
    (a, b): a and b incomparable, every predecessor of a a predecessor of b,
    and every successor of b a successor of a (Trotter, *Combinatorics and
    Partially Ordered Sets*).  The search gives each critical pair one of p
    extensions of P, each kept transitively closed, branching on the
    unreversed pair that the fewest extensions can still take.  One
    extension per critical pair, reversing it, realizes P, which bounds p.
    """
    budget = _Budget(max_nodes, max_seconds)
    n = g.n
    if n == 0:
        return SearchOutcome(WITNESS, (), 0, 0.0, {"permutations": 0})
    detail = {}

    def kernel():
        succ, _ = _comparability(g.adj)
        if succ is None:
            return None
        pred = [sum(1 << a for a in range(n) if succ[a] >> b & 1) for b in range(n)]
        pairs = [
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b
            and not g.adj[a] >> b & 1
            and pred[a] & ~pred[b] == 0
            and succ[b] & ~succ[a] == 0
        ]

        def realize(p):
            """At most p extensions of P, as (succ, pred) masks of closed
            orders, that reverse every critical pair, or None.

            A depth-first search over its own stack: each entry holds a node's
            extensions, the pair it branches on and the options left to try."""
            exts, stack = [], []
            while True:
                budget.tick()
                best = None
                for a, b in pairs:
                    if any(up[b] >> a & 1 for up, _ in exts):
                        continue
                    # b->a keeps an extension acyclic unless it holds a->b; unused
                    # extensions are all P, so only the first of them is tried
                    options = [i for i, (up, _) in enumerate(exts) if not up[a] >> b & 1]
                    if len(exts) < p:
                        options.append(len(exts))
                    if best is None or len(options) < len(best[2]):
                        best = (a, b, options)
                if best is None:
                    return exts
                a, b, options = best
                while not options:
                    if not stack:
                        return None
                    exts, a, b, options = stack.pop()
                i = options.pop(0)
                stack.append((exts, a, b, options))
                up, down = map(list, exts[i] if i < len(exts) else (succ, pred))
                low, high = down[b] | 1 << b, up[a] | 1 << a
                for x in _bits(low):
                    up[x] |= high
                for y in _bits(high):
                    down[y] |= low
                exts = exts[:i] + [(up, down)] + exts[i + 1 :]

        for p in range(1, max(1, len(pairs)) + 1):
            exts = realize(p)
            if exts is not None:
                detail["permutations"] = p
                # extensions left unused are P itself; in a closed order,
                # x below y has more successors than y
                return tuple(
                    v + 1
                    for up, _ in exts + [(succ, pred)] * (p - len(exts))
                    for v in sorted(range(n), key=lambda v: -up[v].bit_count())
                )
        raise AssertionError("no realizer of a transitive orientation within its critical pairs")

    return run_search(kernel, budget, lambda w: word_to_graph(w) == g, detail)

