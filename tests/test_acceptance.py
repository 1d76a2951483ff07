"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Budgets are wall-clock ceilings from the requirements; every refutation
feeding a count or a verdict here is exhaustive (budget-exhausted searches
abort the census rather than skewing it).

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import time

import pytest

from wordrep import families
from wordrep.enumeration import census, count_non_representable, generate, minimal_non_representable
from wordrep.graphs import (
    Graph,
    add_apex,
    canonical_form,
    cartesian_product,
    contains_induced,
    delete_vertex,
    is_isomorphic,
    line_graph,
    max_clique_size,
    rooted_product,
    substitute_module,
)
from wordrep.orientation import (
    Orientation,
    find_semi_transitive,
    find_transitive,
    is_permutationally_representable,
    is_semi_transitive,
    is_word_representable,
    neighborhood_filter,
    word_to_orientation,
)
from wordrep.repnum import (
    count_pattern_avoiding_representants,
    find_k_uniform_word,
    find_pattern_avoiding_word,
    permutational_representation_number,
    representation_number,
)
from wordrep.words import (
    alternates,
    avoids_pattern,
    extend_to_uniform,
    is_uniform,
    word_to_graph,
)

from conftest import words_over


class Criterion:
    """Collect failures, print exactly one PASS/FAIL line, then assert."""

    def __init__(self, number, title, budget_seconds):
        self.number = number
        self.title = title
        self.budget = budget_seconds
        self.failures = []
        self.start = time.monotonic()

    def check(self, condition, message):
        if not condition:
            self.failures.append(message)

    def finish(self):
        elapsed = time.monotonic() - self.start
        if elapsed > self.budget:
            self.failures.append(f"runtime {elapsed:.1f}s exceeds budget {self.budget}s")
        status = "PASS" if not self.failures else "FAIL"
        print(f"[criterion {self.number}] {status} ({elapsed:.1f}s): {self.title}")
        assert not self.failures, "; ".join(self.failures)


@pytest.fixture(scope="module")
def corpus6():
    return generate(6, connected=True)


@pytest.fixture(scope="module")
def corpus7():
    return generate(7, connected=True)


@pytest.fixture(scope="module")
def corpus8():
    return generate(8, connected=True)


def test_criterion_1_paper_fixtures():
    c = Criterion(1, "paper fixture verification", 5)
    w = (2, 3, 1, 2, 5, 4, 1, 3, 2, 4, 1, 3, 6, 2)
    c.check(alternates(w, 2, 3), "2,3 should alternate in 23125413241362")
    c.check(alternates(w, 5, 6), "5,6 should alternate in 23125413241362")
    c.check(not alternates(w, 1, 3), "1,3 should not alternate in 23125413241362")

    fig1 = Graph(4, [(1, 2), (2, 3), (2, 4), (3, 4)])
    c.check(word_to_graph((1, 2, 1, 3, 4, 2, 3)) == fig1, "1213423 should represent the 4-vertex example")

    c.check(
        extend_to_uniform((3, 4, 1, 2, 1, 3, 2, 1, 5, 4))
        == (5, 3, 4, 2, 5, 3, 4, 1, 2, 1, 3, 2, 1, 5, 4),
        "uniform extension of 3412132154 should be 534253412132154",
    )

    c.check(
        word_to_graph((1, 6, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5)) == families.cycle(6),
        "162132435465 should represent C6",
    )

    pet = families.petersen()
    for i, pw in enumerate(families.PETERSEN_WORDS):
        c.check(is_uniform(pw, 3), f"Petersen word {i} should be 3-uniform")
        c.check(is_isomorphic(word_to_graph(pw), pet), f"Petersen word {i} should represent the Petersen graph")
        exact = word_to_graph(pw) == pet
        print(f"  petersen word {i}: exact-label match = {exact}")

    for n in (1, 2, 3, 4):
        lw = families.known_representant("ladder", n)
        c.check(word_to_graph(lw) == families.ladder(n), f"ladder word n={n} should verify")

    o = word_to_orientation((2, 4, 2, 1, 3, 4, 1))
    c.check(sorted(o.arcs()) == [(1, 3), (2, 4), (4, 1), (4, 3)], "2421341 leftmost orientation arcs")
    c.check(is_semi_transitive(o), "2421341 orientation should be semi-transitive")
    c.finish()


def test_criterion_2_decision_ground_truth():
    c = Criterion(2, "decision-procedure ground truth", 60)
    on_five = generate(5, connected=False)
    c.check(len(on_five) == 34, "there should be 34 graphs on 5 vertices")
    for n in range(1, 6):
        for g in generate(n, connected=False):
            c.check(is_word_representable(g), f"graph on {g.n} vertices should be representable")
    w5 = find_semi_transitive(families.wheel(5))
    c.check(w5.refuted, "W5 should be refuted")
    c.check(w5.conclusive, "W5 refutation should be exhaustive")
    c.check(find_semi_transitive(families.wheel(7)).refuted, "W7 should be refuted")
    c.check(is_word_representable(families.petersen()), "Petersen should be representable")
    for n in (3, 4, 5):
        c.check(is_word_representable(families.prism(n)), f"Pr{n} should be representable")
    for n in (1, 2, 3, 4, 5):
        c.check(is_word_representable(families.crown(n)), f"crown {n} should be representable")
    c.finish()


def test_criterion_3_representation_numbers(corpus7, corpus8):
    c = Criterion(3, "representation numbers", 600)
    for n in range(1, 7):
        c.check(representation_number(families.complete(n)) == 1, f"R(K{n}) should be 1")
    for n in range(2, 7):
        c.check(representation_number(families.empty(n)) == 2, f"R(E{n}) should be 2")
    for n in range(4, 8):
        c.check(representation_number(families.cycle(n)) == 2, f"R(C{n}) should be 2")
    two = find_k_uniform_word(families.prism(3), 2)
    c.check(two.refuted and two.conclusive, "Pr3 2-refutation should be exhaustive")
    c.check(representation_number(families.prism(3)) == 3, "R(Pr3) should be 3")
    for n in range(3, 9):
        corpus = {7: corpus7, 8: corpus8}.get(n) or generate(n, connected=True)
        trees = [g for g in corpus if g.m == n - 1]
        for t in trees:
            c.check(representation_number(t) == 2, f"tree on {n} vertices should have R=2")
    c.finish()


def test_criterion_4_oracle_equivalence(corpus6):
    c = Criterion(4, "orientation decision vs bounded uniform word search", 1800)
    corpora = [generate(n, connected=True) for n in range(1, 6)] + [corpus6]
    for corpus in corpora:
        for g in corpus:
            orientation_verdict = is_word_representable(g)
            complete = g.m == g.n * (g.n - 1) // 2
            bound = 1 if complete else 2 * (g.n - max_clique_size(g))
            word_verdict = False
            for k in range(1, bound + 1):
                outcome = find_k_uniform_word(g, k)
                c.check(outcome.conclusive, f"uniform search budget hit at n={g.n}, k={k}")
                if outcome.found:
                    word_verdict = True
                    break
            c.check(
                orientation_verdict == word_verdict,
                f"disagreement on {g.edges()} (orientation={orientation_verdict})",
            )
    c.finish()


def test_criterion_5_enumeration_counts(corpus6, corpus7, corpus8, tmp_path):
    c = Criterion(5, "non-representable graph counts", 900 + 28800)
    t0 = time.monotonic()
    c.check(count_non_representable(corpus6) == 1, "n=6 count should be 1")
    c.check(time.monotonic() - t0 < 60, "n=6 census should run in under a minute")
    t0 = time.monotonic()
    c.check(
        count_non_representable(corpus7, jobs=4) == 25,
        "n=7 count should be 25",
    )
    c.check(time.monotonic() - t0 < 900, "n=7 census should run in under 15 minutes")
    c.check(
        len(minimal_non_representable(corpus7, jobs=4)) == 10,
        "n=7 minimal count should be 10",
    )
    t0 = time.monotonic()
    ckpt = tmp_path / "n8.ckpt"
    c.check(
        count_non_representable(corpus8, jobs=4, checkpoint=str(ckpt)) == 929,
        "n=8 count should be 929",
    )
    c.check(time.monotonic() - t0 < 28800, "n=8 census should run in under 8 hours")
    c.check(ckpt.exists(), "n=8 census should leave a checkpoint")
    c.finish()


def test_criterion_6_pattern_results():
    c = Criterion(6, "pattern-avoiding representability", 300)
    star = find_pattern_avoiding_word(families.star(6), (1, 2, 3))
    c.check(star.refuted, "K_{1,6} should be 123-refuted")
    c.check(star.detail["exhaustive"], "K_{1,6} refutation should be exhaustive within the caps")

    c.check(
        count_pattern_avoiding_representants(families.complete(4), (1, 3, 2), 7) == 27,
        "K4 should have 27 distinct 132-representants",
    )
    c.check(
        count_pattern_avoiding_representants(families.complete(5), (1, 3, 2), 8) == 72,
        "K5 should have 72 distinct 132-representants",
    )

    for g in (families.cycle(4), families.cycle(6), families.complete(5), families.path(5)):
        out = find_pattern_avoiding_word(g, (1, 3, 2))
        if out.found:
            c.check(
                all(out.witness.count(x) <= 2 for x in set(out.witness)),
                "132 witnesses should use every letter at most twice",
            )

    left = Graph(4, [(1, 2), (1, 3), (1, 4)])
    right = Graph(4, [(4, 1), (4, 2), (4, 3)])
    c.check(find_pattern_avoiding_word(left, (1, 3, 2)).found, "center-1 star should be 132-affirmed")
    # The spec called this labeling 132-refuted, but 3432141 avoids 132 and represents it.
    right_out = find_pattern_avoiding_word(right, (1, 3, 2))
    c.check(right_out.found, f"center-4 star should be 132-affirmed, got {right_out.status}")
    if right_out.found:
        c.check(
            word_to_graph(right_out.witness) == right,
            f"center-4 witness {right_out.witness} should represent the star",
        )
        c.check(
            avoids_pattern(right_out.witness, (1, 3, 2)),
            f"center-4 witness {right_out.witness} should avoid 132",
        )
        c.check(
            all(right_out.witness.count(x) <= 2 for x in set(right_out.witness)),
            f"center-4 witness {right_out.witness} should use every letter at most twice",
        )
    counterexample = (3, 4, 3, 2, 1, 4, 1)
    c.check(
        word_to_graph(counterexample) == right and avoids_pattern(counterexample, (1, 3, 2)),
        "3432141 should avoid 132 and represent the center-4 star",
    )
    c.finish()


def test_criterion_7_property_suites(rng, corpus6):
    c = Criterion(7, "randomized and exhaustive property suites", 1800)

    # cyclic shift invariance on uniform words
    for _ in range(200):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        letters = [v for v in range(1, n + 1) for _ in range(k)]
        rng.shuffle(letters)
        w = tuple(letters)
        g = word_to_graph(w)
        shifted = w
        for _ in range(rng.randint(1, len(w))):
            from wordrep.words import cyclic_shift

            shifted = cyclic_shift(shifted)
        c.check(word_to_graph(shifted) == g, f"cyclic shift changed the graph of {w}")

    # every word's leftmost orientation is semi-transitive (exhaustive scale)
    for a in range(1, 6):
        for w in words_over(a, 8):
            if not is_semi_transitive(word_to_orientation(w)):
                c.check(False, f"word orientation not semi-transitive for {w}")
                break

    # apex equivalence on every graph with at most 5 vertices
    for n in range(1, 6):
        for h in generate(n, connected=False):
            c.check(
                is_permutationally_representable(h) == is_word_representable(add_apex(h)),
                f"apex equivalence failed on {h.edges()}",
            )

    # representable graphs have comparability neighborhoods (n <= 6 corpus)
    for g in corpus6:
        if is_word_representable(g):
            c.check(
                neighborhood_filter(g) is None,
                f"representable graph with non-comparability neighborhood: {g.edges()}",
            )

    # products of representable graphs stay representable: orient the product
    # from factor witnesses and verify semi-transitivity outright
    def product_orientation(g, og, h, oh):
        arcs = []
        for u in range(g.n):
            for x, y in oh.arcs():
                arcs.append((u * h.n + x, u * h.n + y))
        for u, v in og.arcs():
            for x in range(1, h.n + 1):
                arcs.append(((u - 1) * h.n + x, (v - 1) * h.n + x))
        return Orientation(cartesian_product(g, h), arcs)

    small = [g for n in range(2, 5) for g in generate(n, connected=True)]
    pairs = [(small[i], small[j]) for i in range(len(small)) for j in range(len(small))]
    rng.shuffle(pairs)
    for g, h in pairs[:12] + [(families.complete(4), families.complete(4))]:
        og = find_semi_transitive(g).witness
        oh = find_semi_transitive(h).witness
        c.check(
            is_semi_transitive(product_orientation(g, og, h, oh)),
            f"box product orientation failed for {g.edges()} x {h.edges()}",
        )

    def rooted_orientation(g, og, h, oh, root):
        arcs = list(og.arcs())
        rest = [v for v in h.vertices() if v != root]
        for i in range(g.n):
            relabel = {root: i + 1}
            for j, v in enumerate(rest):
                relabel[v] = g.n + i * len(rest) + j + 1
            arcs.extend((relabel[u], relabel[v]) for u, v in oh.arcs())
        return Orientation(rooted_product(g, h, root), arcs)

    for g, h in pairs[:12]:
        og = find_semi_transitive(g).witness
        oh = find_semi_transitive(h).witness
        c.check(
            is_semi_transitive(rooted_orientation(g, og, h, oh, 1)),
            f"rooted product orientation failed for {g.edges()} o {h.edges()}",
        )

    # module substitution by a clique preserves representability and R
    swapped = substitute_module(families.prism(3), 1, families.complete(3))
    c.check(is_word_representable(swapped), "Pr3 with a K3 module should stay representable")
    c.check(
        representation_number(swapped) == max(representation_number(families.prism(3)), 1),
        "module substitution should preserve the representation number of Pr3",
    )

    for g, name in (
        (line_graph(families.wheel(4)), "L(W4)"),
        (line_graph(families.wheel(5)), "L(W5)"),
        (line_graph(families.complete(5)), "L(K5)"),
    ):
        c.check(find_semi_transitive(g).refuted, f"{name} should be refuted")

    c.check(find_transitive(families.cycle(5)).refuted, "C5 should not be a comparability graph")
    h33 = permutational_representation_number(families.crown(3))
    c.check(
        h33.found and h33.detail["permutations"] == 3,
        "crown on 3+3 vertices should need exactly 3 permutations",
    )
    c.finish()
