"""Words over integer alphabets and their alternation semantics.

A word is any sequence of letters drawn from {1, 2, ...}; functions return
tuples.  Two letters alternate in a word when the projection onto just those
two letters strictly alternates between them; the graph of a word joins
exactly the alternating pairs.
"""

from __future__ import annotations

from collections import Counter

from .graphs import _bits, _from_masks


def as_word(letters):
    w = tuple(int(x) for x in letters)
    if any(x < 1 for x in w):
        raise ValueError("letters must be positive integers")
    return w


def alternates(w, x, y):
    """True iff letters x and y strictly alternate in w."""
    if x == y:
        raise ValueError("letters must be distinct")
    proj = [c for c in w if c in (x, y)]
    if x not in proj:
        raise ValueError(f"letter {x} does not occur")
    if y not in proj:
        raise ValueError(f"letter {y} does not occur")
    return all(a != b for a, b in zip(proj, proj[1:]))


def word_to_graph(w):
    """The graph on {1..n} whose edges are the alternating pairs of w.

    The alphabet of w must be exactly {1..n}; gaps are rejected.
    """
    w = as_word(w)
    if not w:
        raise ValueError("empty word represents no graph")
    alphabet = set(w)
    n = max(alphabet)
    if len(alphabet) != n:  # the first five missing letters lie in 1..len(alphabet) + 5
        shown = [x for x in range(1, min(n, len(alphabet) + 5) + 1) if x not in alphabet]
        raise ValueError(f"alphabet has gaps, missing {shown} ({n - len(alphabet)} in all)")
    # a pair stops alternating when one of its letters recurs with no copy
    # of the other in between: at each recurrence of x, every letter outside
    # `since`, the letters seen since the last copy of x, loses its edge to x
    full = (1 << n) - 1
    adj = [full ^ 1 << x for x in range(n)]
    last = [-1] * n
    for i, c in enumerate(w):
        x = c - 1
        prev = last[x]
        if prev >= 0:
            since = 0
            for y, p in enumerate(last):
                if p > prev:
                    since |= 1 << y
            for y in _bits(adj[x] & ~since):
                adj[y] &= ~(1 << x)
            adj[x] &= since
        last[x] = i
    return _from_masks(n, adj)


def is_uniform(w, k=None):
    """True iff every letter of w occurs exactly k times (k inferred if omitted)."""
    counts = Counter(w)
    if not counts:
        return True
    values = set(counts.values())
    if k is None:
        return len(values) == 1
    return values == {k}


def initial_permutation(w):
    """The letters of w that occur fewer than the maximum number of times,
    listed in order of their leftmost occurrence.  Empty for uniform words."""
    w = as_word(w)
    counts = Counter(w)
    if not counts:
        return ()
    top = max(counts.values())
    seen = set()
    out = []
    for c in w:
        if counts[c] < top and c not in seen:
            seen.add(c)
            out.append(c)
    return tuple(out)


def extend_to_uniform(w):
    """Prepend initial permutations until every letter occurs equally often.

    The result is k-uniform with k the maximum multiplicity of w, and it
    represents the same graph: prepending one copy of each deficient letter
    in leftmost order preserves every pairwise alternation relation.
    """
    w = as_word(w)
    while True:
        p = initial_permutation(w)
        if not p:
            return w
        w = p + w


def cyclic_shift(w):
    """Move the last letter to the front (for uniform words this preserves
    the represented graph; for non-uniform words it may not)."""
    w = as_word(w)
    if not w:
        return w
    return (w[-1],) + w[:-1]


def delete_letter(w, v):
    """Drop all copies of v (the word of the vertex-deleted subgraph)."""
    return tuple(c for c in as_word(w) if c != v)


# -- classical patterns ------------------------------------------------------


def as_pattern(letters):
    """Validate a classical pattern: a word over {1..k} containing each of
    1..k at least once."""
    t = tuple(int(x) for x in letters)
    if not t:
        raise ValueError("empty pattern")
    k = max(t)
    if set(t) != set(range(1, k + 1)):
        raise ValueError("pattern must use every letter 1..k")
    return t


def contains_pattern(w, pattern):
    """True iff some subsequence of w is order-isomorphic to the pattern.

    Order-isomorphic means the matched letters compare exactly as the
    pattern letters do, including equalities.  A pattern of length 3 takes
    one pass over the word; a longer one tries subsequences by backtracking
    over its own stack of matched positions, so it does not recurse.
    """
    w = tuple(w)
    t = as_pattern(pattern)
    m = len(t)
    if m > len(w):
        return False
    if m == 3:
        return _contains_three(w, t)
    chosen = []  # the positions matched to t[0], t[1], ...
    i = 0  # the next position to try for t[len(chosen)]
    while len(chosen) < m:
        ti = len(chosen)
        if i > len(w) - (m - ti):
            if not chosen:
                return False
            i = chosen.pop() + 1
            continue
        c, b = w[i], t[ti]
        if all((a < b) == (w[j] < c) and (a == b) == (w[j] == c) for a, j in zip(t, chosen)):
            chosen.append(i)
        i += 1
    return True


def _sign(x, y):
    return (x > y) - (x < y)


def _contains_three(w, t):
    """`contains_pattern` for a pattern t = (a, b, c) of length 3, in one
    pass over the middle letter of an occurrence.

    With letters replaced by their ranks, `prefix` and `suffix` are the
    masks of the letters before and after the current letter y.  An
    occurrence with y in the middle needs some x of the prefix and z of the
    suffix that compare with y as a and c compare with b, and with each
    other as a with c: a common letter when a = c, else the least x below
    the greatest z when a < c, or the greatest x above the least z when
    a > c.
    """
    a, b, c = t
    left, right, ends = _sign(a, b), _sign(c, b), _sign(a, c)
    rank = {x: r for r, x in enumerate(sorted(set(w)))}
    w = [rank[x] for x in w]
    count = [0] * len(rank)
    for y in w:
        count[y] += 1
    prefix, suffix = 0, (1 << len(rank)) - 1
    for y in w:
        count[y] -= 1
        if not count[y]:
            suffix &= ~(1 << y)
        below, at = (1 << y) - 1, 1 << y
        sides = (at, ~(below | at), below)  # indexed by sign: equal, above, below
        xs, zs = prefix & sides[left], suffix & sides[right]
        if xs and zs:
            if ends == 0:
                if xs & zs:
                    return True
            elif ends < 0:
                if (xs & -xs).bit_length() < zs.bit_length():
                    return True
            elif xs.bit_length() > (zs & -zs).bit_length():
                return True
        prefix |= at
    return False


def avoids_pattern(w, pattern):
    return not contains_pattern(w, pattern)
