import itertools
import math
import random
import time
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_labeled_graphs, atlas_graphs, relabel, shallow_stack
from wordrep import families
from wordrep.enumeration import generate
from wordrep.graphs import (
    CeilingExceeded,
    Graph,
    _bits,
    automorphisms,
    complement,
    is_connected,
    max_clique_size,
)
from wordrep.orientation import (
    _comparability,
    find_semi_transitive,
    find_transitive,
    is_permutationally_representable,
)
from wordrep.outcome import (
    REFUTED,
    WITNESS,
    BudgetExhausted,
    SearchOutcome,
    _Budget,
    _OutOfBudget,
    run_search,
)
from wordrep.repnum import (
    AUTOMORPHISM_CAP,
    _occurrence_mask,
    _representation,
    _symmetry_bar,
    _walk,
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


def test_uniform_search_has_no_size_ceiling():
    # the budget alone stops a long word: 40 letters, then 200,000
    out = find_k_uniform_word(families.petersen(), 4, max_nodes=1000)
    assert out.status == "budget_exhausted"
    with pytest.raises(ValueError):
        find_k_uniform_word(families.complete(2), 0)
    out = find_k_uniform_word(families.complete(2), 100_000, max_nodes=1000)
    assert out.status == "budget_exhausted" and out.nodes_expanded == 1001


def test_representation_number_past_twelve_vertices():
    assert representation_number(families.complete(200)) == 1
    assert representation_number(families.path(19)) == 2  # 38 letters
    assert representation_number(families.wheel(13)) == math.inf  # by the filter


def test_uniform_bound_needs_no_exact_clique_number():
    # the complete multipartite graph with 20 parts of 3 vertices has clique
    # number 20, which an exact branch and bound, taking no budget, proves
    # only after about 3^19 nodes; the greedy clique that caps the k loop
    # costs n mask operations, so the budget alone bounds the call
    parts = Graph(60, [(u, v) for u, v in itertools.combinations(range(1, 61), 2) if (u - 1) // 3 != (v - 1) // 3])
    budget = _Budget()
    k, witness = _representation(parts, budget)
    assert k == 2 and word_to_graph(witness) == parts
    assert budget.nodes == 122
    with pytest.raises(BudgetExhausted, match="after 100 nodes"):
        representation_number(parts, max_nodes=100)


def test_pattern_search_keeps_no_stack_per_letter():
    # the witness has 79 letters: a walk that recursed once per letter
    # would run out of a stack of 50 frames
    with shallow_stack():
        out = find_pattern_avoiding_word(families.empty(40), (1, 3, 2))
    assert out.found and len(out.witness) == 79
    assert word_to_graph(out.witness) == families.empty(40)
    assert avoids_pattern(out.witness, (1, 3, 2))


def test_uniform_search_past_the_automorphism_ceiling():
    # above 12 vertices the search prunes by no automorphism
    out = find_k_uniform_word(families.complete(13), 1)
    assert out.found and out.witness == tuple(range(1, 14))
    assert find_k_uniform_word(families.cycle(13), 1).refuted


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


def test_pattern_search_accepts_the_null_graph():
    # the empty word, as the uniform search and the count give the null graph
    for t in ((1, 3, 2), (1, 2, 3)):
        out = find_pattern_avoiding_word(Graph(0), t)
        assert out.found and out.witness == () and out.nodes_expanded == 0
        assert out.detail == {"caps": {}, "exhaustive": True, "pattern": t}
    assert find_k_uniform_word(Graph(0), 2).witness == ()
    assert count_pattern_avoiding_representants(Graph(0), (1, 3, 2), 3) == 1


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


def test_count_has_no_size_ceiling():
    # the budget alone stops the count: K1 once took a node per letter
    # past a size guard, and complete(9) up to 12 letters takes 54,309
    assert count_pattern_avoiding_representants(families.complete(1), (1, 3, 2), 1000) == 1000
    assert count_pattern_avoiding_representants(Graph(0), (1, 3, 2), 1000) == 1
    with pytest.raises(BudgetExhausted, match="after 10001 nodes"):
        count_pattern_avoiding_representants(families.complete(9), (1, 3, 2), 12, max_nodes=10_000)
    assert count_pattern_avoiding_representants(families.complete(4), (1, 3, 2), 7, max_nodes=10_000) == 27


def test_count_rejects_negative_length():
    # once a recursion without end, or the counts 11 and 12
    for g in (families.empty(2), families.path(3), families.complete(3)):
        with pytest.raises(ValueError):
            count_pattern_avoiding_representants(g, (1, 3, 2), -1)
    assert count_pattern_avoiding_representants(families.complete(3), (1, 3, 2), 0) == 0


def test_count_catalan_formula():
    # 2 + C(n-2) + sum_{i<=n} C(i) for the complete graph on n letters
    catalan = [1, 1, 2, 5, 14, 42, 132]
    for n in (3, 4, 5):
        expect = 2 + catalan[n - 2] + sum(catalan[: n + 1])
        got = count_pattern_avoiding_representants(families.complete(n), (1, 3, 2), n + 3)
        assert got == expect


def test_count_matches_brute_force():
    # oracle: every word over 1..n up to max_len, with the alternation and
    # pattern definitions written out here, not by wordrep.words
    def represented_edges(word, n):
        edges = set()
        for x, y in itertools.combinations(range(1, n + 1), 2):
            projection = [c for c in word if c in (x, y)]
            if all(a != b for a, b in zip(projection, projection[1:])):
                edges.add((x, y))
        return frozenset(edges)

    def contains(word, t):
        pairs = list(itertools.combinations(range(len(t)), 2))
        return any(
            all(
                (w[i] < w[j]) == (t[i] < t[j]) and (w[i] == w[j]) == (t[i] == t[j])
                for i, j in pairs
            )
            for w in itertools.combinations(word, len(t))
        )

    # 213 and 112 take `_occurrence_mask`'s general route, by `contains_pattern`
    patterns = ((1, 3, 2), (1, 2, 3), (2, 1), (2, 1, 3), (1, 1, 2))
    cases = positive = 0
    for n, max_len in ((1, 6), (2, 6), (3, 6), (4, 5)):
        tally = {}
        for length in range(n, max_len + 1):
            for word in itertools.product(range(1, n + 1), repeat=length):
                if len(set(word)) == n:
                    key = represented_edges(word, n)
                    for t in patterns:
                        if not contains(word, t):
                            tally[key, t] = tally.get((key, t), 0) + 1
        for g in all_labeled_graphs(n):
            for t in patterns:
                expected = tally.get((frozenset(g.edges()), t), 0)
                assert count_pattern_avoiding_representants(g, t, max_len) == expected, (g, t)
                cases += 1
                positive += expected > 0
    assert (cases, positive) == (375, 149)  # not only empty counts are compared


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
            out = permutational_representation_number(g)
            mine = out.found and out.detail["permutations"] <= 2
            assert mine == (frozenset(g.edges()) in two), g


def test_perm_number_budget():
    # the crown on 6 + 6 vertices needs 6 permutations, found in 27 nodes
    crown = families.crown(6)
    out = permutational_representation_number(crown, max_nodes=27)
    assert out.found and out.detail["permutations"] == 6 and out.nodes_expanded == 27
    for limits in ({"max_nodes": 26}, {"max_nodes": 5}, {"max_seconds": 0}):
        out = permutational_representation_number(crown, **limits)
        assert out.status == "budget_exhausted" and out.witness is None, limits
    for limits in ({"max_nodes": -1}, {"max_seconds": -1.0}):
        with pytest.raises(ValueError):
            permutational_representation_number(crown, **limits)


def test_perm_elapsed_covers_the_whole_call(monkeypatch):
    # a stub clock that only the call's work moves: TRO by 1, each search
    # node by 100 and the witness check by 10
    from wordrep import outcome, repnum

    now = [0.0]

    def advancing(step, call):
        def timed(*args):
            now[0] += step
            return call(*args)

        return timed

    monkeypatch.setattr(outcome, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(repnum, "_comparability", advancing(1, repnum._comparability))
    monkeypatch.setattr(repnum, "word_to_graph", advancing(10, repnum.word_to_graph))
    monkeypatch.setattr(_Budget, "tick", advancing(100, _Budget.tick))
    for g, status, elapsed in (
        (families.cycle(5), REFUTED, 1),  # refuted by TRO
        (families.crown(3), WITNESS, 1 + 9 * 100 + 10),  # 9 nodes for p = 1, 2, 3
    ):
        out = permutational_representation_number(g)
        assert (out.status, out.elapsed) == (status, elapsed), g


def test_elapsed_covers_the_witness_check(monkeypatch):
    # a stub clock that only the witness check moves, by 10
    from wordrep import outcome, repnum

    now = [0.0]

    def checked(w):
        now[0] += 10
        return word_to_graph(w)

    monkeypatch.setattr(outcome, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(repnum, "word_to_graph", checked)
    for out in (
        find_k_uniform_word(families.cycle(6), 2),
        find_pattern_avoiding_word(families.cycle(5), (1, 3, 2)),
    ):
        assert (out.status, out.elapsed) == (WITNESS, 10)


def test_perm_search_has_no_size_ceiling():
    out = permutational_representation_number(families.empty(13))
    assert _perm_number(out) == 2 and word_to_graph(out.witness) == families.empty(13)
    # crown(20) has 40 vertices and 20 critical pairs to reverse: a search
    # that recursed once per pair would run out of a stack of 50 frames
    with shallow_stack():
        out = permutational_representation_number(families.crown(20))
    assert _perm_number(out) == 20 and out.nodes_expanded == 230
    assert word_to_graph(out.witness) == families.crown(20)


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
                assert _occurrence_mask(word, t, n + 1) >> z - 1 & 1 == expected, (word, z, t)
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


def test_uniform_elapsed_covers_building_the_symmetry_bar(monkeypatch):
    # a stub clock that only the call's work moves: the automorphism group
    # by 1000 and each search node by 1
    from wordrep import outcome, repnum

    now = [0.0]

    def advancing(step, call):
        def timed(*args, **kw):
            now[0] += step
            return call(*args, **kw)

        return timed

    monkeypatch.setattr(outcome, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(repnum, "automorphisms", advancing(1000, repnum.automorphisms))
    monkeypatch.setattr(_Budget, "tick", advancing(1, _Budget.tick))
    out = find_k_uniform_word(families.prism(6), 2, max_nodes=1)  # stops at its 2nd tick
    assert (out.status, out.elapsed) == ("budget_exhausted", 1000 + 2)
    out = find_k_uniform_word(families.cycle(6), 2)
    assert out.found and out.elapsed == 1000 + out.nodes_expanded
    # a bar the caller passes is built before the call, outside its time
    bar = _symmetry_bar(families.cycle(6))
    out = find_k_uniform_word(families.cycle(6), 2, bar=bar)
    assert out.found and out.elapsed == out.nodes_expanded


def test_representation_number_builds_one_symmetry_bar(monkeypatch):
    from wordrep import repnum

    calls = []
    build = repnum._symmetry_bar
    monkeypatch.setattr(repnum, "_symmetry_bar", lambda g: calls.append(g) or build(g))
    assert representation_number(families.prism(3)) == 3  # tries k = 1, 2, 3
    assert len(calls) == 1


def test_shared_symmetry_bar_matches_a_fresh_bar_per_k(connected_upto_6):
    # the barred mask depends only on the placed set, so the memo that every
    # k shares changes neither the witness nor the node total
    for graphs in connected_upto_6.values():
        for g in graphs:
            budget = _Budget()
            k, witness = _representation(g, budget)
            fresh = _Budget()
            assert find_semi_transitive(g, budget=fresh).found == (witness is not None)
            out = None
            for j in range(1, k + 1) if witness else ():
                out = find_k_uniform_word(g, j, budget=fresh, bar=_symmetry_bar(g))
            assert (out and out.witness) == witness and fresh.nodes == budget.nodes, g


# `_representation` as it was while a word-length ceiling refused long words:
# it read the clique bound only once k = 1 was refuted.


def reference_representation(g, budget):
    if not find_semi_transitive(g, budget=budget).require_conclusive().found:
        return math.inf, None
    bar = _symmetry_bar(g)
    k = bound = 1
    while k <= bound:
        outcome = find_k_uniform_word(g, k, budget=budget, bar=bar).require_conclusive()
        if outcome.found:
            return k, outcome.witness
        if k == 1:
            bound = 2 * (g.n - max_clique_size(g))
        k += 1
    raise AssertionError(
        "representable graph had no witness within the uniform bound"
    )


def test_representation_matches_the_reference():
    for g in atlas_graphs():
        if not is_connected(g):
            continue
        budget, reference = _Budget(), _Budget()
        assert _representation(g, budget) == reference_representation(g, reference), g
        assert budget.nodes == reference.nodes, g
    stops = []
    for search in (_representation, reference_representation):
        budget = _Budget(max_nodes=200_000)
        with pytest.raises(BudgetExhausted) as stop:
            search(families.petersen(), budget)
        stops.append((str(stop.value), budget.nodes))
    assert stops[0] == stops[1]


# `_PairState` as it was while each node looped over every letter for its
# moves and called `place` and `unplace`, kept verbatim apart from its name
# and docstrings.


class _ReferencePairState:
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
        return self.placed == self.full and not self.unbroken

    def walk(self, budget, bar, done):
        adj, nonadj = self.adj, self.nonadj
        stack = []
        while True:
            budget.tick()
            if done():
                return True
            barred = bar(self)
            before, broken, low = self.before, self.broken, self.low
            moves = 0
            for x, r in enumerate(self.rem):
                if not r or adj[x] & before[x] or barred >> x & 1:
                    continue
                if r == 1 and nonadj[x] & low & ~(broken[x] | before[x]):
                    continue
                moves |= 1 << x
            while not moves:
                if not stack:
                    return False
                x, moves, undo = stack.pop()
                self.unplace(x, undo)
            x = (moves & -moves).bit_length() - 1
            stack.append((x, moves & moves - 1, self.place(x)))


def _reference_walk(g, caps, budget, bar, done):
    """`_ReferencePairState.walk` called as `_walk` is: the callbacks get the
    word, the placed letters and the loose ones (those with a non-neighbour
    whose pair still alternates), and the finished word or None comes back.
    The loose letters are read off `broken`, and a witness by them is one by
    the reference's own `is_witness`."""
    state = _ReferencePairState(g, caps)

    def stop():
        loose = sum(1 << x for x, m in enumerate(state.nonadj) if m & ~state.broken[x])
        assert (state.placed == state.full and not loose) == state.is_witness()
        return done(state.word, state.placed, loose)

    found = state.walk(budget, lambda s: bar(s.word, s.placed), stop)
    return tuple(state.word) if found else None


def _visits(walk, g, caps, bar, stop):
    """The words on which `walk` over g within `caps` calls `done`, in
    order and each with whether it is a witness, then the walk's node
    count, its verdict and the word it leaves; `stop(word, witness)` is the
    search's own test of a finished word."""
    full = (1 << g.n) - 1
    budget = _Budget()
    words = []

    def done(word, placed, loose):
        words.append((tuple(word), placed == full and not loose))
        return stop(*words[-1])

    found = walk(g, caps, budget, bar, done)
    return words, budget.nodes, found is not None, found or ()


def _assert_same_visits(g, caps, make_bar, stop):
    expected = _visits(_reference_walk, g, caps, make_bar(), stop)
    assert _visits(_walk, g, caps, make_bar(), stop) == expected, (g, caps)
    return expected[1]


def test_walk_visits_the_words_of_the_reference_walk():
    # the same words reach `done` in the same order, so the same node
    # counts, witnesses and counts follow in every search on the walk: the
    # uniform search on every graph up to 6 vertices, the pattern searches
    # up to 5 and the pattern counts up to 3, each labeled three ways
    rng = random.Random(6)
    nodes = 0
    for g in _graphs_and_relabelings(rng):
        for k in (1, 2, 3):
            length = g.n * k
            nodes += _assert_same_visits(
                g, [k] * g.n, lambda: _symmetry_bar(g), lambda word, witness: len(word) == length
            )
        if g.n == 6:  # about a million pattern nodes more
            continue
        for t in ((1, 3, 2), (1, 2, 3)):
            caps = multiplicity_caps(g, t)[0]
            nodes += _assert_same_visits(
                g,
                [caps[v] for v in g.vertices()],
                lambda: lambda word, placed: _occurrence_mask(word, t, g.n),
                lambda word, witness: witness,
            )
            if g.n < 4:
                for max_len in range(2 * g.n + 1):
                    nodes += _assert_same_visits(
                        g,
                        [max_len] * g.n,
                        lambda: lambda word, placed: (
                            -1 if len(word) == max_len else _occurrence_mask(word, t, g.n)
                        ),
                        lambda word, witness: False,
                    )
    assert nodes > 100_000
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
    # an order on n >= 4 elements has dimension at most n / 2 (Hiraguchi),
    # so on n <= 6 vertices the reference refutes at max_p = 3 only the
    # graphs that are not comparability graphs
    for g in [g for g in atlas_graphs() if g.n <= 6]:
        expected = reference_permutational_representation_number(g, max_p=3)
        out = permutational_representation_number(g)
        assert out.status == expected.status, g
        if out.found:
            assert _perm_number(out) == _perm_number(expected), g
            assert len(out.witness) == _perm_number(out) * g.n and _represents(out.witness, g)


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


@st.composite
def _graphs_upto_ten(draw):
    """A graph on at most 10 vertices: any graph, or the comparability graph
    of a random order, so that both answers are drawn often."""
    n = draw(st.integers(0, 10))
    if draw(st.booleans()):
        return _random_comparability_graph(random.Random(draw(st.integers(0, 2**32))), n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def test_perm_number_dushnik_miller():
    # dimension <= 2 exactly when the complement is a comparability graph
    # too (Dushnik & Miller), and dimension does not depend on the labels
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        n = rng.randint(7, 12)
        g = _random_comparability_graph(rng, n)
        out = permutational_representation_number(g)
        p = _perm_number(out)
        assert p is not None and _represents(out.witness, g), g
        assert (p <= 2) == find_transitive(complement(g)).found, g
        perm = list(range(n))
        rng.shuffle(perm)
        assert _perm_number(permutational_representation_number(relabel(g, perm))) == p
        seen.add(p)
    assert {1, 2, 3} <= seen

    # permutations represent exactly the comparability graphs (Kitaev & Seif)
    @settings(max_examples=300, deadline=None, database=None)
    @given(_graphs_upto_ten())
    def check_random(g):
        out = permutational_representation_number(g)
        assert out.found == is_permutationally_representable(g), g
        if out.found:
            assert len(out.witness) == _perm_number(out) * g.n and _represents(out.witness, g), g

    check_random()


def test_perm_number_crowns():
    # crown(k) has dimension k; every two of its k critical pairs (i, k + i)
    # conflict in one extension, so for each p the search assigns p of them
    # without backtracking and finds no room for the next: p + 1 nodes
    for k in range(2, 7):
        g = families.crown(k)
        out = permutational_representation_number(g)
        assert _perm_number(out) == k and _represents(out.witness, g)
        assert out.nodes_expanded == sum(p + 1 for p in range(1, k + 1))


# `permutational_representation_number` as it was while `realize` called
# itself once per critical pair reversed, kept verbatim apart from its name
# and without its n <= 12 ceiling, which the crowns below pass.


def reference_recursive_permutational_representation_number(g, max_p=3, max_nodes=None, max_seconds=None):
    """Least p such that a concatenation of p permutations of the vertices
    represents g, or a refutation up to max_p.  `max_nodes` and
    `max_seconds` bound the search over every p.

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
    unreversed pair that the fewest extensions can still take.
    """
    if max_p < 1:
        raise ValueError("max_p must be at least 1")
    budget = _Budget(max_nodes, max_seconds)
    n = g.n
    if n == 0:
        return SearchOutcome(WITNESS, (), 0, 0.0, {"permutations": 0})
    succ, _ = _comparability(g.adj)
    if succ is None:
        return SearchOutcome(REFUTED, None, 0, 0.0, {"max_p": max_p})
    pred = [0] * n
    for a in range(n):
        for b in _bits(succ[a]):
            pred[b] |= 1 << a
    pairs = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b
        and not g.adj[a] >> b & 1
        and pred[a] & ~pred[b] == 0
        and succ[b] & ~succ[a] == 0
    ]
    detail = {"max_p": max_p}

    def realize(exts, p):
        """Grow `exts`, extensions of P as (succ, pred) masks of closed
        orders, to at most p that reverse every critical pair, or None."""
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
        for i in options:
            up, down = map(list, exts[i] if i < len(exts) else (succ, pred))
            low, high = down[b] | 1 << b, up[a] | 1 << a
            for x in _bits(low):
                up[x] |= high
            for y in _bits(high):
                down[y] |= low
            found = realize(exts[:i] + [(up, down)] + exts[i + 1 :], p)
            if found is not None:
                return found
        return None

    def kernel():
        for p in range(1, max_p + 1):
            exts = realize([], p)
            if exts is not None:
                detail["permutations"] = p
                # extensions left unused are P itself; in a closed order,
                # x below y has more successors than y
                return tuple(
                    v + 1
                    for up, _ in exts + [(succ, pred)] * (p - len(exts))
                    for v in sorted(range(n), key=lambda v: -up[v].bit_count())
                )
        return None

    return run_search(kernel, budget, lambda w: word_to_graph(w) == g, detail)


def _comparable(out):
    return out.status, out.witness, out.nodes_expanded, out.detail.get("permutations")


def test_perm_search_matches_the_recursive_reference():
    # the same status, witness, node count and number of permutations on
    # every graph up to 7 vertices and on crowns up to 24 vertices; an order
    # on n elements has dimension at most n, so the reference's max_p = n
    # refutes only the graphs that are not comparability graphs
    cases = atlas_graphs() + [families.crown(k) for k in range(2, 13)]
    found = 0
    for g in cases:
        expected = _comparable(reference_recursive_permutational_representation_number(g, max(1, g.n)))
        assert _comparable(permutational_representation_number(g)) == expected, g
        found += expected[0] == WITNESS
    assert 0 < found < len(cases)

