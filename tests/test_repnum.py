import itertools
import math

import pytest

from wordrep import families
from wordrep.graphs import CeilingExceeded, Graph
from wordrep.repnum import (
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


def test_perm_number_two_matches_brute_force(rng):
    # oracle: try every pair of permutations outright
    def brute_two(g):
        n = g.n
        for p1 in itertools.permutations(range(1, n + 1)):
            for p2 in itertools.permutations(range(1, n + 1)):
                if word_to_graph(p1 + p2) == g:
                    return True
        return False

    for _ in range(8):
        n = rng.randint(2, 4)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        out = permutational_representation_number(g, max_p=2)
        mine = out.found and out.detail["permutations"] <= 2
        assert mine == brute_two(g)


def test_perm_ceiling():
    with pytest.raises(CeilingExceeded):
        permutational_representation_number(families.crown(4))
