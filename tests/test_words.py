import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_word_graph, shallow_stack, words_over
from wordrep import families
from wordrep.graphs import Graph, delete_vertex
from wordrep.words import (
    alternates,
    as_pattern,
    avoids_pattern,
    contains_pattern,
    cyclic_shift,
    delete_letter,
    extend_to_uniform,
    initial_permutation,
    is_uniform,
    word_to_graph,
)

LONG_EXAMPLE = (2, 3, 1, 2, 5, 4, 1, 3, 2, 4, 1, 3, 6, 2)  # 23125413241362


def test_alternates_fixtures():
    assert alternates(LONG_EXAMPLE, 2, 3)
    assert alternates(LONG_EXAMPLE, 5, 6)
    assert not alternates(LONG_EXAMPLE, 1, 3)
    assert alternates((1, 2), 1, 2)


def test_alternates_errors():
    with pytest.raises(ValueError):
        alternates((1, 2), 1, 1)
    with pytest.raises(ValueError):
        alternates((1, 2), 1, 3)


def test_alternates_symmetric(rng):
    for _ in range(50):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 10)))
        for x, y in itertools.combinations(sorted(set(w)), 2):
            assert alternates(w, x, y) == alternates(w, y, x)


def test_word_to_graph_fixtures():
    fig1 = Graph(4, [(1, 2), (2, 3), (2, 4), (3, 4)])
    assert word_to_graph((1, 2, 1, 3, 4, 2, 3)) == fig1
    for n in (1, 3, 5):
        perm = tuple(range(1, n + 1))
        assert word_to_graph(perm) == families.complete(n)
    n = 5
    palin = tuple(range(1, n + 1)) + tuple(range(n, 0, -1))
    assert word_to_graph(palin) == families.empty(n)


def test_word_to_graph_gap_rejected():
    with pytest.raises(ValueError):
        word_to_graph((1, 3, 1, 3))
    with pytest.raises(ValueError):
        word_to_graph(())


def test_word_to_graph_gap_message_names_the_first_missing_letters():
    with pytest.raises(ValueError, match=r"missing \[2\] \(1 in all\)"):
        word_to_graph((1, 3))
    # the message once listed all 999,998 missing letters
    with pytest.raises(ValueError) as err:
        word_to_graph((1, 10**6))
    assert str(err.value) == "alphabet has gaps, missing [2, 3, 4, 5, 6, 7] (999998 in all)"


def test_word_to_graph_matches_definition(rng):
    for _ in range(100):
        n = rng.randint(1, 5)
        w = tuple(rng.randint(1, n) for _ in range(rng.randint(n, 12)))
        if len(set(w)) != n:
            continue
        assert word_to_graph(w) == brute_force_word_graph(w)


@st.composite
def words_with_full_alphabet(draw):
    """Words over exactly {1..n}: every letter at least once, in any order."""
    n = draw(st.integers(min_value=1, max_value=7))
    extra = draw(st.lists(st.integers(min_value=1, max_value=n), max_size=12))
    return tuple(draw(st.permutations(list(range(1, n + 1)) + extra)))


@settings(max_examples=300, deadline=None, database=None)
@given(words_with_full_alphabet())
def test_word_to_graph_matches_definition_property(w):
    assert word_to_graph(w) == brute_force_word_graph(w)


@settings(max_examples=300, deadline=None, database=None)
@given(words_with_full_alphabet())
def test_extend_to_uniform_preserves_graph_property(w):
    u = extend_to_uniform(w)
    assert is_uniform(u, max(w.count(c) for c in w))
    assert u[len(u) - len(w) :] == w  # letters are only prepended
    assert word_to_graph(u) == word_to_graph(w) == brute_force_word_graph(w)


def test_initial_permutation():
    assert initial_permutation((3, 4, 1, 2, 1, 3, 2, 1, 5, 4)) == (3, 4, 2, 5)
    assert initial_permutation((1, 2, 1, 2)) == ()
    assert initial_permutation((1, 1, 2)) == (2,)


def test_extend_to_uniform_fixture():
    w = (3, 4, 1, 2, 1, 3, 2, 1, 5, 4)
    assert extend_to_uniform(w) == (5, 3, 4, 2, 5, 3, 4, 1, 2, 1, 3, 2, 1, 5, 4)
    assert extend_to_uniform((1, 2, 1, 2)) == (1, 2, 1, 2)
    assert extend_to_uniform((1, 1, 2)) == (2, 1, 1, 2)
    assert word_to_graph((2, 1, 1, 2)) == families.empty(2)


def test_extend_to_uniform_preserves_graph_exhaustive():
    for a in (2, 3):
        for w in words_over(a, 7):
            u = extend_to_uniform(w)
            assert is_uniform(u)
            assert word_to_graph(u) == word_to_graph(w)


def test_extend_to_uniform_preserves_graph_random(rng):
    for _ in range(300):
        n = rng.randint(2, 6)
        w = tuple(rng.randint(1, n) for _ in range(rng.randint(n, 10)))
        if len(set(w)) != n:
            continue
        u = extend_to_uniform(w)
        assert is_uniform(u)
        assert word_to_graph(u) == word_to_graph(w)


def test_cyclic_shift():
    assert cyclic_shift((1, 2, 1, 3, 2, 3)) == (3, 1, 2, 1, 3, 2)
    assert word_to_graph((3, 1, 2, 1, 3, 2)) == word_to_graph((1, 2, 1, 3, 2, 3))
    assert cyclic_shift((1, 1, 2)) == (2, 1, 1)
    # iterating the shift on the non-uniform 112 reaches 121, a different graph
    twice = cyclic_shift(cyclic_shift((1, 1, 2)))
    assert twice == (1, 2, 1)
    assert word_to_graph(twice) != word_to_graph((1, 1, 2))


def test_cyclic_shift_uniform_invariance(rng):
    for _ in range(100):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        letters = [v for v in range(1, n + 1) for _ in range(k)]
        rng.shuffle(letters)
        w = tuple(letters)
        g = word_to_graph(w)
        shifted = w
        for _ in range(rng.randint(1, len(w))):
            shifted = cyclic_shift(shifted)
        assert word_to_graph(shifted) == g


def test_doubling_preserves_graph(rng):
    for _ in range(50):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        letters = [v for v in range(1, n + 1) for _ in range(k)]
        rng.shuffle(letters)
        w = tuple(letters)
        assert word_to_graph(w + w) == word_to_graph(w)


def test_letter_deletion_is_vertex_deletion(rng):
    for _ in range(50):
        n = rng.randint(3, 6)
        w = tuple(rng.randint(1, n) for _ in range(rng.randint(n, 12)))
        if len(set(w)) != n:
            continue
        g = word_to_graph(w)
        v = n  # delete the top letter so labels stay dense
        reduced = delete_letter(w, v)
        if len(set(reduced)) != n - 1:
            continue
        assert word_to_graph(reduced) == delete_vertex(g, v)


def test_contains_pattern_fixtures():
    assert contains_pattern((4, 2, 3, 1, 6), (2, 1, 3))
    assert not contains_pattern((3, 2, 1, 3, 2, 1), (1, 2, 3))
    assert contains_pattern((5,), (1,))
    assert avoids_pattern((4, 3, 2, 1, 2, 3, 4), (1, 3, 2))
    assert contains_pattern((1, 4, 2), (1, 3, 2))


def test_contains_pattern_repeated_letters():
    # equal word letters may only stand for equal pattern letters
    assert contains_pattern((2, 1, 2), (1, 2)) is True
    assert contains_pattern((2, 2), (1, 1)) is True
    assert contains_pattern((2, 1), (1, 1)) is False
    assert contains_pattern((3, 3, 1), (2, 2, 1))


def test_pattern_validation():
    with pytest.raises(ValueError):
        contains_pattern((1, 2), (2, 3))
    with pytest.raises(ValueError):
        contains_pattern((1, 2), ())


def test_contains_pattern_brute_force(rng):
    for _ in range(200):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 8)))
        t = (1, 3, 2) if rng.random() < 0.5 else (1, 2, 3)
        expect = any(
            all(
                ((t[a] < t[b]) == (sub[a] < sub[b]))
                and ((t[a] == t[b]) == (sub[a] == sub[b]))
                for a in range(3)
                for b in range(a + 1, 3)
            )
            for sub in itertools.combinations(w, 3)
        )
        assert contains_pattern(w, t) == expect


def reference_contains_pattern(w, pattern):
    """`contains_pattern` as it was before length-3 patterns got their own
    pass: every subsequence of length |pattern|, by recursion."""
    w = tuple(w)
    t = as_pattern(pattern)
    m = len(t)
    if m > len(w):
        return False

    def match(ti, start, chosen):
        if ti == m:
            return True
        for i in range(start, len(w) - (m - ti) + 1):
            c = w[i]
            ok = True
            for tj in range(ti):
                a, b = t[tj], t[ti]
                x = chosen[tj]
                if (a < b) != (x < c) or (a == b) != (x == c):
                    ok = False
                    break
            if ok:
                chosen.append(c)
                if match(ti + 1, i + 1, chosen):
                    return True
                chosen.pop()
        return False

    return match(0, 0, [])


LENGTH_THREE_PATTERNS = [
    t for t in itertools.product((1, 2, 3), repeat=3) if set(t) == set(range(1, max(t) + 1))
]


def test_length_three_patterns_match_the_subsequence_search():
    import random

    assert len(LENGTH_THREE_PATTERNS) == 13
    words = [w for a in range(1, 5) for w in words_over(a, 7)]
    rng = random.Random(31)
    for _ in range(2000):
        # letters with gaps and large values, as any positive integers may be
        letters = rng.sample(range(1, 1000), rng.randint(1, 9))
        words.append(tuple(rng.choice(letters) for _ in range(rng.randint(0, 30))))
    found = 0
    for w in words:
        for t in LENGTH_THREE_PATTERNS:
            expect = reference_contains_pattern(w, t)
            assert contains_pattern(w, t) == expect, (w, t)
            found += expect
    assert 0 < found < len(words) * len(LENGTH_THREE_PATTERNS)


def test_length_three_check_is_linear_on_long_words():
    # 132 and 123 avoiding words of 1,999 letters: the subsequence search
    # took seconds on words a tenth as long
    w = tuple(x for v in range(1, 1001) for x in (v, v))[1:]
    assert avoids_pattern(w, (1, 3, 2)) and avoids_pattern(w[::-1], (1, 2, 3))
    assert contains_pattern(w + (2,), (1, 3, 2))


def test_longer_patterns_match_the_subsequence_search():
    import random

    patterns = [
        t
        for m in (1, 2, 4, 5)
        for t in itertools.product(range(1, m + 1), repeat=m)
        if set(t) == set(range(1, max(t) + 1))
    ]
    assert len(patterns) == 1 + 3 + 75 + 541
    rng = random.Random(32)
    found = 0
    for _ in range(150):
        letters = rng.sample(range(1, 100), rng.randint(1, 5))
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 10)))
        for t in patterns:
            expect = reference_contains_pattern(w, t)
            assert contains_pattern(w, t) == expect, (w, t)
            found += expect
    assert 0 < found < 150 * len(patterns)


def test_long_patterns_keep_no_stack_per_letter():
    # a 1,000-letter pattern: a search that recursed once per pattern
    # letter would run out of a stack of 50 frames
    t = tuple(range(1, 1001))
    with shallow_stack():
        assert contains_pattern(t, t)
        assert avoids_pattern(t[::-1], t)
        # one swapped pair fails at letter 500 and backs out of every entry
        assert avoids_pattern(t[:499] + (t[500], t[499]) + t[501:], t)
