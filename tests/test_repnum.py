import itertools
import math
import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_labeled_graphs, atlas_graphs, relabel
from wordrep import families
from wordrep.enumeration import generate
from wordrep.graphs import CeilingExceeded, Graph, _bits, automorphisms, complement
from wordrep.orientation import find_transitive
from wordrep.outcome import REFUTED, WITNESS, BudgetExhausted, SearchOutcome, _Budget, _OutOfBudget
from wordrep.repnum import (
    AUTOMORPHISM_CAP,
    _ends_with_occurrence,
    _representation,
    count_pattern_avoiding_representants,
    find_k_uniform_word,
    find_pattern_avoiding_word,
    multiplicity_caps,
    permutational_representation_number,
    representation_number,
)
from wordrep.words import avoids_pattern, is_uniform, word_to_graph


def test_uniform_search_fixtures():
    out = find_k_uniform_word(families.complete(3), 1)
    assert out.found and sorted(out.witness) == [1, 2, 3]
    assert find_k_uniform_word(families.prism(3), 2).refuted
    out = find_k_uniform_word(families.cycle(6), 2)
    assert out.found
    assert word_to_graph((1, 6, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5)) == families.cycle(6)


def test_uniform_search_witness_properties(rng):
    for g, k in [
        (families.cycle(5), 2),
        (families.crown(3), 2),
        (families.prism(3), 3),
        (families.empty(4), 2),
    ]:
        out = find_k_uniform_word(g, k)
        assert out.found
        assert is_uniform(out.witness, k)
        assert word_to_graph(out.witness) == g


def test_uniform_search_monotone_in_k():
    # a (k+1)-witness exists whenever a k-witness does
    for g in (families.cycle(5), families.prism(3), families.path(4)):
        k = representation_number(g)
        assert find_k_uniform_word(g, k).found
        assert find_k_uniform_word(g, k + 1).found


def test_uniform_search_ceiling():
    with pytest.raises(CeilingExceeded):
        find_k_uniform_word(families.petersen(), 4)
    with pytest.raises(ValueError):
        find_k_uniform_word(families.complete(2), 0)


def test_uniform_search_budget():
    out = find_k_uniform_word(families.wheel(5), 5, max_nodes=50)
    assert out.status == "budget_exhausted"


def test_representation_numbers():
    for n in range(1, 7):
        assert representation_number(families.complete(n)) == 1
    for n in range(2, 7):
        assert representation_number(families.empty(n)) == 2
    for n in range(4, 8):
        assert representation_number(families.cycle(n)) == 2
    assert representation_number(families.prism(3)) == 3
    assert representation_number(families.wheel(5)) == math.inf


def test_representation_number_trees(connected_upto_6):
    for n in range(3, 7):
        trees = [g for g in connected_upto_6[n] if g.m == n - 1]
        for t in trees:
            assert representation_number(t) == 2


# -- pattern-avoiding search ---------------------------------------------------


def test_multiplicity_caps():
    caps, complete = multiplicity_caps(families.star(6), (1, 2, 3))
    assert caps[1] == 2  # center has degree 6
    assert all(caps[v] == 3 for v in range(2, 8))  # leaves adjoin the center
    assert complete
    caps, complete = multiplicity_caps(families.empty(2), (1, 2, 3))
    assert not complete  # isolated vertices escape both multiplicity rules
    caps, complete = multiplicity_caps(families.empty(2), (1, 3, 2))
    assert complete and set(caps.values()) == {2}


def test_star_123_refuted_exhaustively():
    out = find_pattern_avoiding_word(families.star(6), (1, 2, 3))
    assert out.refuted
    assert out.detail["exhaustive"]


def test_star_labelings_132_match_brute_force():
    # independent oracle: every word with letter multiplicities <= 2, checked
    # by alternation and 132 containment written out here, not by wordrep.words
    def alternate(w, x, y):
        proj = [c for c in w if c in (x, y)]
        return all(a != b for a, b in zip(proj, proj[1:]))

    def contains_132(w):
        return any(w[i] < w[k] < w[j] for i, j, k in itertools.combinations(range(len(w)), 3))

    def represents_star(w, center):
        return all(
            alternate(w, x, y) == (center in (x, y))
            for x, y in itertools.combinations((1, 2, 3, 4), 2)
        )

    def brute(center):
        for length in range(4, 9):
            for w in itertools.product((1, 2, 3, 4), repeat=length):
                if any(w.count(c) > 2 or not w.count(c) for c in (1, 2, 3, 4)):
                    continue
                if not contains_132(w) and represents_star(w, center):
                    return True
        return False

    for center in (1, 2, 3, 4):
        g = Graph(4, [(center, v) for v in (1, 2, 3, 4) if v != center])
        out = find_pattern_avoiding_word(g, (1, 3, 2))
        assert out.found == brute(center)
        if out.found:
            w = tuple(out.witness)
            assert set(w) == {1, 2, 3, 4} and not contains_132(w) and represents_star(w, center)
    # the center-4 labeling has a 132-avoiding representant, e.g. 3432141
    assert brute(4)


def test_pattern_witnesses_verified():
    for g, t in [
        (families.cycle(4), (1, 3, 2)),
        (families.cycle(5), (1, 3, 2)),
        (families.cycle(5), (1, 2, 3)),
        (families.complete(4), (1, 3, 2)),
        (families.complete(4), (1, 2, 3)),
        (families.path(5), (1, 2, 3)),
    ]:
        out = find_pattern_avoiding_word(g, t)
        assert out.found
        assert avoids_pattern(out.witness, t)
        assert word_to_graph(out.witness) == g
        if t == (1, 3, 2):
            assert all(out.witness.count(c) <= 2 for c in set(out.witness))


def test_prisms_not_132_representable():
    out = find_pattern_avoiding_word(families.prism(3), (1, 3, 2))
    assert out.refuted and out.detail["exhaustive"]


def test_count_fixtures():
    assert count_pattern_avoiding_representants(families.complete(4), (1, 3, 2), 7) == 27
    assert count_pattern_avoiding_representants(families.complete(5), (1, 3, 2), 8) == 72
    assert count_pattern_avoiding_representants(families.complete(1), (1, 3, 2), 3) == 3
    assert count_pattern_avoiding_representants(families.complete(3), (1, 3, 2), 6) == (
        2 + 1 + sum([1, 1, 2, 5])
    )


def test_count_ceiling():
    with pytest.raises(CeilingExceeded):
        count_pattern_avoiding_representants(families.complete(9), (1, 3, 2), 12)


def test_count_catalan_formula():
    # 2 + C(n-2) + sum_{i<=n} C(i) for the complete graph on n letters
    catalan = [1, 1, 2, 5, 14, 42, 132]
    for n in (3, 4, 5):
        expect = 2 + catalan[n - 2] + sum(catalan[: n + 1])
        got = count_pattern_avoiding_representants(families.complete(n), (1, 3, 2), n + 3)
        assert got == expect


def test_perm_representation_numbers():
    assert permutational_representation_number(families.complete(3)).detail["permutations"] == 1
    assert permutational_representation_number(families.empty(2)).detail["permutations"] == 2
    out = permutational_representation_number(families.crown(3))
    assert out.found and out.detail["permutations"] == 3
    assert word_to_graph(out.witness) == families.crown(3)
    assert permutational_representation_number(families.cycle(5)).refuted


def test_perm_number_two_matches_brute_force():
    # oracle: the graphs that some pair of permutations represents, by the
    # alternation definition written out here, not by wordrep.words
    for n in range(6):
        letters = range(1, n + 1)
        two = {
            frozenset(_alternating_pairs(p1 + p2))
            for p1 in itertools.permutations(letters)
            for p2 in itertools.permutations(letters)
        }
        for g in all_labeled_graphs(n):
            out = permutational_representation_number(g, max_p=2)
            mine = out.found and out.detail["permutations"] <= 2
            assert mine == (frozenset(g.edges()) in two), g


def test_perm_ceiling():
    with pytest.raises(CeilingExceeded):
        permutational_representation_number(families.empty(13))


# -- reference searches -----------------------------------------------------------
#
# The uniform and pattern searches as they were before both moved onto the
# bitmask pair state, kept verbatim apart from their names: n x n tables of the
# last-placed letter and of broken pairs, updated in O(n) per placement, every
# root letter tried by the uniform search, and every pair rechecked after each
# placement by the pattern search.  `_reference_ends_with_occurrence` keeps
# only the 132 and 123 branches, the two patterns the tests run.


def _reference_pair_tables(g):
    """last-occurring letter (-1 if none) and broken flag per letter pair."""
    n = g.n
    last = [[-1] * n for _ in range(n)]
    broken = [[False] * n for _ in range(n)]
    return last, broken


class _ReferenceUniformSearch:
    def __init__(self, g, k, budget):
        self.g = g
        self.n = g.n
        self.k = k
        self.adj = g.adj
        self.budget = budget
        self.remaining = [k] * g.n
        self.last, self.broken = _reference_pair_tables(g)
        self.word = []
        auts = automorphisms(g, limit=AUTOMORPHISM_CAP)
        self.auts = [a for a in auts if any(a[i] != i for i in range(g.n))]
        self.active = list(range(len(self.auts)))  # fix word prefix pointwise

    def _placeable(self, x):
        if self.remaining[x] == 0:
            return False
        lx = self.last[x]
        for y in _bits(self.adj[x]):
            if lx[y] == x:
                return False  # adjacent pair would repeat in projection
        return True

    def _feasible_after(self, x):
        rem = self.remaining
        lx = self.last[x]
        bx = self.broken[x]
        for y in range(self.n):
            if y == x:
                continue
            if self.adj[x] >> y & 1:
                if rem[y] == 0 and rem[x] > 0:
                    return False  # no copies of y left to separate future x's
            else:
                if bx[y]:
                    continue
                last = lx[y]
                if last == x:
                    if rem[x] == 0 and rem[y] < 2:
                        return False
                elif last == y:
                    if rem[y] == 0 and rem[x] < 2:
                        return False
                else:  # neither placed yet
                    if not (
                        (rem[x] >= 2 and rem[y] >= 1)
                        or (rem[y] >= 2 and rem[x] >= 1)
                    ):
                        return False
        return True

    def _place(self, x):
        trail = []
        lx = self.last[x]
        bx = self.broken[x]
        adjx = self.adj[x]
        for y in range(self.n):
            if y == x:
                continue
            old = lx[y]
            trail.append((y, old, bx[y]))
            if old == x and not adjx >> y & 1:
                bx[y] = self.broken[y][x] = True
            lx[y] = self.last[y][x] = x
        self.remaining[x] -= 1
        self.word.append(x)
        return trail

    def _unplace(self, x, trail):
        self.word.pop()
        self.remaining[x] += 1
        for y, old, was_broken in reversed(trail):
            self.last[x][y] = self.last[y][x] = old
            self.broken[x][y] = self.broken[y][x] = was_broken

    def search(self, depth=0):
        if not self.budget.tick():
            raise _OutOfBudget
        if depth == self.n * self.k:
            return tuple(c + 1 for c in self.word)
        for x in range(self.n):
            if not self._placeable(x):
                continue
            new_letter = self.remaining[x] == self.k
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
            trail = self._place(x)
            if self._feasible_after(x):
                result = self.search(depth + 1)
                if result is not None:
                    return result
            self._unplace(x, trail)
            if new_letter:
                self.active = saved_active
        return None


def reference_uniform_search(g, k, automorphism_rule=True, cyclic_rule=False):
    """(the first witness in the old branch order or None, nodes).  Without
    the automorphism rule nothing is pruned but infeasible placements; the
    cyclic rule lets only letter 1 start the word."""
    budget = _Budget()
    searcher = _ReferenceUniformSearch(g, k, budget)
    if not automorphism_rule:
        searcher.auts, searcher.active = [], []
    if cyclic_rule:
        placeable = searcher._placeable
        searcher._placeable = lambda x: (x == 0 or bool(searcher.word)) and placeable(x)
    return searcher.search(), budget.nodes


def _reference_ends_with_occurrence(word, t):
    """Does some occurrence of pattern t end at the last letter of word?"""
    m = len(t)
    L = len(word)
    if L < m:
        return False
    z = word[-1]
    if t == (1, 3, 2):
        lo = None
        for j in range(L - 1):
            if lo is not None and lo < z and word[j] > z:
                return True
            if lo is None or word[j] < lo:
                lo = word[j]
        return False
    if t == (1, 2, 3):
        lo = None
        for j in range(L - 1):
            if lo is not None and lo < word[j] < z:
                return True
            if lo is None or word[j] < lo:
                lo = word[j]
        return False
    raise NotImplementedError(t)


class _ReferencePatternSearch:
    def __init__(self, g, t, caps, budget):
        self.g = g
        self.n = g.n
        self.t = t
        self.adj = g.adj
        self.budget = budget
        self.caps = [caps[v] for v in g.vertices()]
        self.remaining = list(self.caps)
        self.last, self.broken = _reference_pair_tables(g)
        self.word = []  # 1-indexed letters, so pattern checks read naturally
        self.missing = g.n

    def _is_witness(self):
        if self.missing:
            return False
        for x in range(self.n):
            bx = self.broken[x]
            for y in range(x + 1, self.n):
                if not (self.adj[x] >> y & 1) and not bx[y]:
                    return False
        return True

    def _placeable(self, x):
        if self.remaining[x] == 0:
            return False
        lx = self.last[x]
        for y in _bits(self.adj[x]):
            if lx[y] == x:
                return False
        return True

    def _feasible_after(self):
        # edges never go infeasible here (we may simply stop placing a
        # letter), but a still-alternating non-edge must remain breakable
        rem = self.remaining
        for x in range(self.n):
            lx = self.last[x]
            bx = self.broken[x]
            for y in range(x + 1, self.n):
                if self.adj[x] >> y & 1 or bx[y]:
                    continue
                last = lx[y]
                if last == x:
                    if rem[x] == 0 and rem[y] < 2:
                        return False
                elif last == y:
                    if rem[y] == 0 and rem[x] < 2:
                        return False
                else:
                    if not (
                        (rem[x] >= 2 and rem[y] >= 1)
                        or (rem[y] >= 2 and rem[x] >= 1)
                    ):
                        return False
        return True

    def _place(self, x):
        trail = []
        lx = self.last[x]
        bx = self.broken[x]
        adjx = self.adj[x]
        for y in range(self.n):
            if y == x:
                continue
            old = lx[y]
            trail.append((y, old, bx[y]))
            if not adjx >> y & 1 and old == x:
                bx[y] = self.broken[y][x] = True
            lx[y] = self.last[y][x] = x
        if self.remaining[x] == self.caps[x]:
            self.missing -= 1
        self.remaining[x] -= 1
        self.word.append(x + 1)
        return trail

    def _unplace(self, x, trail):
        self.word.pop()
        self.remaining[x] += 1
        if self.remaining[x] == self.caps[x]:
            self.missing += 1
        for y, old, was_broken in reversed(trail):
            self.last[x][y] = self.last[y][x] = old
            self.broken[x][y] = self.broken[y][x] = was_broken

    def search(self):
        if not self.budget.tick():
            raise _OutOfBudget
        if self._is_witness():
            return tuple(self.word)
        if len(self.word) == sum(self.caps):
            return None
        for x in range(self.n):
            if not self._placeable(x):
                continue
            trail = self._place(x)
            if not _reference_ends_with_occurrence(self.word, self.t) and self._feasible_after():
                result = self.search()
                if result is not None:
                    return result
            self._unplace(x, trail)
        return None


def reference_pattern_search(g, t):
    """(witness or None, nodes) of the old pattern search."""
    budget = _Budget()
    searcher = _ReferencePatternSearch(g, t, multiplicity_caps(g, t)[0], budget)
    return searcher.search(), budget.nodes


def _graphs_and_relabelings(rng):
    for n in range(1, 7):
        for g in generate(n, connected=False):
            yield g
            for _ in range(2):
                perm = list(range(n))
                rng.shuffle(perm)
                yield relabel(g, perm)


def test_uniform_search_matches_reference():
    rng = random.Random(4)
    for g in _graphs_and_relabelings(rng):
        for k in (1, 2, 3):
            out = find_k_uniform_word(g, k)
            assert out.witness == reference_uniform_search(g, k)[0], (g, k)
            assert out.status == ("witness" if out.witness else "refuted")
            # the same tree as the old one cut down to its letter-1 subtree
            expected = reference_uniform_search(g, k, cyclic_rule=True)
            assert (out.witness, out.nodes_expanded) == expected, (g, k)


def test_uniform_verdicts_match_unpruned_search():
    # no automorphism rule and every root letter: only infeasible words go
    rng = random.Random(5)
    for g in _graphs_and_relabelings(rng):
        for k in (1, 2, 3):
            witness, _ = reference_uniform_search(g, k, automorphism_rule=False)
            assert find_k_uniform_word(g, k).found == (witness is not None), (g, k)


def test_pattern_search_matches_reference():
    for n in (5, 6):
        for g in generate(n):
            for t in ((1, 3, 2), (1, 2, 3)):
                out = find_pattern_avoiding_word(g, t)
                assert (out.witness, out.nodes_expanded) == reference_pattern_search(g, t), (g, t)
    # under 21 every letter of P3 is capped at one copy, so its non-edge can
    # never break; the old search saw that after each root placement
    out = find_pattern_avoiding_word(families.path(3), (2, 1))
    assert out.refuted and out.nodes_expanded == 1


def _reference_any_ends_with_occurrence(word, z, t):
    """Would some occurrence of pattern t end at letter z appended to word?"""
    m = len(t)
    L = len(word)
    if L + 1 < m:
        return False
    if m == 3:
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

    def extend(ti, start, chosen):
        if ti == m - 1:
            for tj in range(m - 1):
                a, b = t[tj], t[m - 1]
                x = chosen[tj]
                if (a < b) != (x < z) or (a == b) != (x == z):
                    return False
            return True
        for i in range(start, L):
            c = word[i]
            ok = True
            for tj in range(ti):
                a, b = t[tj], t[ti]
                x = chosen[tj]
                if (a < b) != (x < c) or (a == b) != (x == c):
                    ok = False
                    break
            if ok:
                chosen.append(c)
                if extend(ti + 1, i + 1, chosen):
                    return True
                chosen.pop()
        return False

    return extend(0, 0, [])


def _patterns(m):
    """Every pattern of length m: the words over 1..k that use each letter."""
    return [
        t
        for t in itertools.product(range(1, m + 1), repeat=m)
        if set(t) == set(range(1, max(t) + 1))
    ]


def test_ends_with_occurrence_matches_reference():
    # on words that avoid t, the only kind the searches extend, every
    # occurrence in the extended word ends at the new letter
    rng = random.Random(7)
    patterns = [t for m in (2, 3, 4) for t in _patterns(m)]
    assert len(patterns) == 3 + 13 + 75
    checked = 0
    for t in patterns:
        words = 0
        while words < 40:
            n = rng.randint(1, 5)
            word = [rng.randint(1, n) for _ in range(rng.randint(0, 9))]
            if not avoids_pattern(word, t):
                continue
            words += 1
            for z in range(1, n + 2):
                expected = _reference_any_ends_with_occurrence(word, z, t)
                assert _ends_with_occurrence(word, z, t) == expected, (word, z, t)
                checked += expected
    assert checked > 500  # the occurrences, not only their absence, are compared


def test_representation_returns_its_witness():
    k, witness = _representation(families.prism(3), _Budget())
    assert k == 3 and is_uniform(witness, 3)
    assert word_to_graph(witness) == families.prism(3)
    assert _representation(families.wheel(5), _Budget()) == (math.inf, None)
    assert _representation(families.complete(4), _Budget())[0] == 1


def test_uniform_search_starts_with_letter_one():
    # the cyclic-shift rule: W5's hub no longer starts a word, the rim
    # letters were one orbit already, so only the refutations get cheaper
    wheel = families.wheel(5)
    for k in (2, 3):
        assert find_k_uniform_word(wheel, k).nodes_expanded < reference_uniform_search(wheel, k)[1]
    for g in (families.cycle(5), families.crown(3), families.path(5)):
        assert find_k_uniform_word(g, 2).witness[0] == 1


# -- word symmetries ------------------------------------------------------------


def _alternating_pairs(w):
    """Pairs of letters whose projection alternates, by the definition."""
    out = set()
    for x, y in itertools.combinations(sorted(set(w)), 2):
        proj = [c for c in w if c in (x, y)]
        if all(a != b for a, b in zip(proj, proj[1:])):
            out.add((x, y))
    return out


@st.composite
def uniform_words(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    return tuple(draw(st.permutations([c for c in range(1, n + 1) for _ in range(k)])))


@settings(max_examples=300, deadline=None, database=None)
@given(uniform_words(), st.integers(0, 23))
def test_cyclic_shift_and_reversal_keep_the_graph(w, shift):
    shift %= len(w)
    shifted = w[shift:] + w[:shift]
    edges = _alternating_pairs(w)
    assert _alternating_pairs(shifted) == edges
    assert _alternating_pairs(w[::-1]) == edges
    g = word_to_graph(w)
    assert set(g.edges()) == edges
    assert word_to_graph(shifted) == g == word_to_graph(w[::-1])


# -- one budget and one automorphism group per call -------------------------------


def test_representation_number_budget_covers_the_whole_call(monkeypatch):
    # the orientation search and every k share one budget: Petersen refutes
    # k = 2 in 88,363 nodes and needs more than the rest for k = 3
    ticks = 0
    tick = _Budget.tick

    def counted(self):
        nonlocal ticks
        ticks += 1
        return tick(self)

    monkeypatch.setattr(_Budget, "tick", counted)
    for max_nodes in (20_000, 200_000):
        ticks = 0
        with pytest.raises(BudgetExhausted):
            representation_number(families.petersen(), max_nodes=max_nodes)
        assert ticks <= max_nodes + 1, max_nodes


def test_representation_number_computes_automorphisms_once(monkeypatch):
    from wordrep import repnum

    calls = []
    monkeypatch.setattr(
        repnum, "automorphisms", lambda g, limit=None: calls.append(g) or automorphisms(g, limit)
    )
    assert representation_number(families.prism(3)) == 3  # tries k = 1, 2, 3
    assert len(calls) == 1


# -- permutation representation -------------------------------------------------
#
# `permutational_representation_number` as it was before it became a poset
# dimension search, kept verbatim apart from its name: every first
# permutation, then the linear extensions of its edge arcs, for n <= 6.


def reference_permutational_representation_number(g, max_p=3, perm_ceiling=6):
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


def _perm_number(out):
    return out.detail["permutations"] if out.found else None


def _represents(w, g):
    return _alternating_pairs(w) == set(g.edges())


def test_perm_number_matches_reference():
    # the reference tries p = 1, 2, ... in turn whatever max_p is, so one run
    # at max_p = 3 gives its answer for every smaller max_p
    for g in [g for g in atlas_graphs() if g.n <= 6]:
        expected = _perm_number(reference_permutational_representation_number(g))
        for max_p in (1, 2, 3):
            out = permutational_representation_number(g, max_p=max_p)
            if expected is None or expected > max_p:
                assert out.refuted, (g, max_p)
            else:
                assert _perm_number(out) == expected, (g, max_p)
                assert len(out.witness) == expected * g.n and _represents(out.witness, g)


def _random_comparability_graph(rng, n):
    """The comparability graph of a random order on n elements: arcs drawn
    along a shuffled ranking, then closed transitively."""
    rank = list(range(n))
    rng.shuffle(rank)
    density = rng.random()
    up = [0] * n
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < density:
                up[rank[i]] |= 1 << rank[j] | up[rank[j]]
    return Graph(n, [(a + 1, b + 1) for a in range(n) for b in _bits(up[a])])


def test_perm_number_dushnik_miller():
    # dimension <= 2 exactly when the complement is a comparability graph
    # too (Dushnik & Miller), and dimension does not depend on the labels
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        n = rng.randint(7, 12)
        g = _random_comparability_graph(rng, n)
        out = permutational_representation_number(g, max_p=6)
        p = _perm_number(out)
        assert p is not None and _represents(out.witness, g), g
        assert (p <= 2) == find_transitive(complement(g)).found, g
        perm = list(range(n))
        rng.shuffle(perm)
        assert _perm_number(permutational_representation_number(relabel(g, perm), max_p=6)) == p
        seen.add(p)
    assert {1, 2, 3} <= seen


def test_perm_number_crowns():
    # crown(k) has dimension k; every two of its k critical pairs (i, k + i)
    # conflict in one extension, so for each p the search assigns p of them
    # without backtracking and finds no room for the next: p + 1 nodes
    for k in range(2, 7):
        g = families.crown(k)
        out = permutational_representation_number(g, max_p=6)
        assert _perm_number(out) == k and _represents(out.witness, g)
        assert out.nodes_expanded == sum(p + 1 for p in range(1, k + 1))
        assert permutational_representation_number(g, max_p=k - 1).refuted
