import hashlib
import itertools
import os

import pytest

from conftest import all_labeled_graphs, atlas_graphs, brute_force_isomorphic
from wordrep import enumeration, families
from wordrep.enumeration import (
    GENERATION_CEILING,
    Corpus,
    census,
    corpus_from_graphs,
    count_non_representable,
    generate,
    minimal_non_representable,
    non_representable_members,
    _augmentations,
    _max_degree_hoods,
    _next_level,
)
from wordrep.graphs import (
    CeilingExceeded,
    Graph,
    canonical_form,
    contains_induced,
    is_connected,
    is_isomorphic,
    _automorphism_generators,
    _bits,
    _refine_cells,
)
from wordrep.outcome import BudgetExhausted

ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def reference_generate(n, connected=True):
    """Corpus of all non-isomorphic graphs on exactly n vertices."""
    if not 1 <= n <= GENERATION_CEILING:
        raise CeilingExceeded(f"generation supports 1 <= n <= {GENERATION_CEILING}")
    level = [Graph(1)]
    for _ in range(n - 1):
        seen = {}
        for parent in level:
            for child in _augmentations(parent, range(1 << parent.n)):
                key = canonical_form(child)
                if key not in seen:
                    seen[key] = child
        level = [seen[k] for k in sorted(seen)]
    graphs = [g for g in level if is_connected(g)] if connected else level
    return Corpus(n, graphs, "generated", connected)


# `_next_level` as it was when it canonicalized the child of every
# max-degree neighbourhood and kept the first child of each key per parent,
# kept to pin the labelled graphs that augmenting one neighbourhood per
# automorphism orbit must still produce.
def reference_next_level(graphs):
    """The next level by canonical augmentation, in increasing order of
    canonical form, from the current one in the same order."""
    level = []
    for parent in graphs:
        new_vertex = 1 << parent.n
        seen = set()
        for child in _augmentations(parent, _max_degree_hoods(parent)):
            key = canonical_form(child)
            if child._last & new_vertex and key not in seen:
                seen.add(key)
                level.append((key, child))
    level.sort(key=lambda pair: pair[0])
    return [child for _, child in level]


def test_generate_counts_small():
    for n in range(1, 9):
        assert len(generate(n, connected=False)) == ALL_COUNTS[n]
        assert len(generate(n, connected=True)) == CONNECTED_COUNTS[n]


def test_generate_matches_reference():
    # the same classes in the same order as deduplicating every child
    for n in range(1, 8):
        for connected in (False, True):
            keys = [canonical_form(g) for g in generate(n, connected)]
            assert keys == [canonical_form(g) for g in reference_generate(n, connected)]


def test_next_level_matches_reference_labelled():
    # the same labelled graphs in the same order, level by level
    level = [Graph(1)]
    for n in range(2, 9):
        new = _next_level(level)
        assert [g.adj for g in new] == [g.adj for g in reference_next_level(level)]
        assert len(new) == ALL_COUNTS[n]
        level = new


def test_next_level_keeps_the_generators_of_each_graph():
    # each kept child carries the generators that a fresh search reads off
    # it, for the next level; the last level keeps none
    level = [Graph(1)]
    for n in range(2, 8):
        level = _next_level(level)
        assert all(g._gens == _automorphism_generators(g) for g in level), n
    assert not any(hasattr(g, "_gens") for g in _next_level(level, last=True))
    assert not any(hasattr(g, "_gens") for g in generate(6, connected=False))


def test_canonical_last_vertex_has_maximum_degree():
    # generate accepts a child only when its new vertex has maximum degree,
    # which relies on this
    for g in [g for g in atlas_graphs() if g.n]:
        canonical_form(g)
        top = max(a.bit_count() for a in g.adj)
        last_cell = _refine_cells(g)[-1]
        assert g._last
        for v in _bits(g._last):
            assert g.adj[v].bit_count() == top and v in last_cell


def test_last_is_the_orbit_of_the_canonical_last_vertex(atlas_groups):
    # generate's orbit test reads the orbit off this mask
    for g, group in atlas_groups:
        if not g.n:
            continue
        canonical_form(g)
        for x in _bits(g._last):
            assert g._last == sum({1 << p[x] for p in group})


def test_generated_graphs_end_a_least_ordering():
    # every member was kept with its last vertex as the new one, so a fresh
    # canonical search must find that vertex among the last
    for n in range(1, 9):
        for g in generate(n, connected=False):
            fresh = Graph(n, g.edges())
            canonical_form(fresh)
            assert fresh._last >> (n - 1) & 1


def test_connected_generation_keeps_the_connected_graphs_labelled():
    # dropping a neighbourhood that misses a component of the parent keeps
    # exactly the connected children, with their labels and keys, in order
    for n in range(1, 9):
        connected = generate(n, connected=True).graphs
        filtered = [g for g in generate(n, connected=False) if is_connected(g)]
        assert [(g.adj, g._key) for g in connected] == [(g.adj, g._key) for g in filtered]


@pytest.mark.skipif(
    os.environ.get("WORDREP_SLOW") != "1", reason="about 20 s; set WORDREP_SLOW=1"
)
def test_generate_counts_n9():
    corpus = generate(9, connected=False)
    assert len(corpus) == 274668  # OEIS A000088
    assert sum(1 for g in corpus if is_connected(g)) == 261080  # OEIS A001349
    # the labelled graphs, their keys and their order, as generated when
    # every child was canonicalized before the last-cell test
    digest = hashlib.sha256()
    for g in corpus:
        digest.update(repr((g.adj, g._key)).encode())
    assert digest.hexdigest() == (
        "22ed04ce0206a4b3331b50a70dd56b1ee3c65165c9a21f9c9d7c0d451d66665d"
    )


def test_generate_matches_brute_force_dedup():
    for n in (3, 4):
        classes = []
        for g in all_labeled_graphs(n):
            if not any(brute_force_isomorphic(g, h) for h in classes):
                classes.append(g)
        assert len(generate(n, connected=False)) == len(classes)


def test_generate_no_isomorphic_pair():
    # nothing but the orbit test and one neighbourhood per orbit keeps
    # isomorphic children of one parent apart
    for n in range(1, 9):
        keys = [canonical_form(g) for g in generate(n, connected=False)]
        assert len(keys) == len(set(keys)) == ALL_COUNTS[n]
    corpus = generate(5, connected=False)
    for g, h in itertools.combinations(corpus.graphs[:12], 2):
        assert not brute_force_isomorphic(g, h)


def test_generate_ceiling():
    with pytest.raises(CeilingExceeded):
        generate(10)


def test_corpus_agrees_with_external_graph6(tmp_path):
    import networkx as nx

    for n in (5, 6, 7):
        path = tmp_path / f"atlas{n}.g6"
        with open(path, "w") as fh:
            for G in nx.graph_atlas_g():
                if G.number_of_nodes() != n or not nx.is_connected(G):
                    continue
                H = nx.convert_node_labels_to_integers(G)
                fh.write(nx.to_graph6_bytes(H, header=False).decode())
        from wordrep.io import read_graph6_file

        ingested = corpus_from_graphs(n, read_graph6_file(path), f"ingested({path})")
        assert len(ingested) == CONNECTED_COUNTS[n]
        assert len(ingested) == len(generate(n, connected=True))


def test_census_counts():
    assert count_non_representable(generate(5)) == 0
    assert count_non_representable(generate(6)) == 1
    members = non_representable_members(generate(6))
    assert len(members) == 1
    assert is_isomorphic(members[0], families.wheel(5))


def test_census_n7():
    corpus = generate(7)
    members = non_representable_members(corpus)
    assert len(members) == 25
    w5 = families.wheel(5)
    with_w5 = [g for g in members if contains_induced(g, w5)]
    assert len(with_w5) == 15
    minimal = minimal_non_representable(corpus)
    assert len(minimal) == 10
    assert all(not contains_induced(g, w5) for g in minimal)


def test_members_reuse_census_keys(monkeypatch):
    corpus = generate(6)
    calls = []

    def counted(g):
        calls.append(g)
        return canonical_form(g)

    monkeypatch.setattr(enumeration, "canonical_form", counted)
    assert len(non_representable_members(corpus)) == 1
    assert len(calls) == len(corpus) == 112
    calls.clear()
    assert len(minimal_non_representable(corpus)) == 1
    assert len(calls) == 112


def test_members_from_a_one_shot_corpus():
    corpus = generate(6)
    members = non_representable_members(iter(corpus.graphs))
    assert members == non_representable_members(corpus) and len(members) == 1


def test_minimal_from_a_one_shot_corpus():
    corpus = generate(6)
    minimal = minimal_non_representable(iter(corpus.graphs))
    assert minimal == minimal_non_representable(corpus) and len(minimal) == 1


def test_minimal_subgraph_decisions_take_the_budget():
    # W5 falls to the neighbourhood filter with no search nodes, so only the
    # decisions on its vertex-deleted subgraphs can spend the budget
    corpus = Corpus(6, [families.wheel(5)])
    assert minimal_non_representable(corpus) == [families.wheel(5)]
    assert minimal_non_representable(corpus, max_nodes=50) == [families.wheel(5)]
    with pytest.raises(BudgetExhausted):
        minimal_non_representable(corpus, max_nodes=1)


def test_minimal_n5_n6():
    assert minimal_non_representable(generate(5)) == []
    minimal = minimal_non_representable(generate(6))
    assert len(minimal) == 1 and is_isomorphic(minimal[0], families.wheel(5))


def test_census_parallel_matches_serial():
    corpus = generate(6)
    assert census(corpus, jobs=2) == census(corpus, jobs=1)


def test_census_parallel_over_several_chunks(tmp_path):
    # n = 7 has more graphs than one pool chunk holds
    corpus = generate(7)
    assert len(corpus) == 853 > enumeration._CHUNK
    ckpt = tmp_path / "n7.ckpt"
    calls = []
    verdicts = census(
        corpus, jobs=2, checkpoint=str(ckpt), progress=lambda i, t: calls.append((i, t))
    )
    assert verdicts == census(corpus, jobs=1)
    keys = [line.split("\t")[0] for line in ckpt.read_text().splitlines()]
    assert len(keys) == 853
    assert set(keys) == set(verdicts)
    assert calls == [(i, 853) for i in range(1, 854)]


def test_census_order_insensitive(rng):
    corpus = generate(5)
    shuffled = Corpus(5, list(corpus.graphs), "generated", True)
    rng.shuffle(shuffled.graphs)
    assert census(shuffled) == census(corpus)
    assert count_non_representable(shuffled) == count_non_representable(corpus)


def test_checkpoint_resume(tmp_path):
    corpus = generate(5)
    ckpt = tmp_path / "n5.ckpt"
    first = census(corpus, checkpoint=str(ckpt))
    assert ckpt.exists()
    lines = ckpt.read_text().strip().splitlines()
    assert len(lines) == len(corpus)
    assert all(len(line.split("\t")) == 3 for line in lines)
    # resume from a half-written file: only the missing graphs are recomputed
    half = len(lines) // 2
    ckpt.write_text("\n".join(lines[:half]) + "\n")
    second = census(corpus, checkpoint=str(ckpt))
    assert second == first
    assert len(ckpt.read_text().strip().splitlines()) == len(corpus)
    # a resumed verdict is believed, not recomputed
    flipped = lines[0].split("\t")
    flipped[1] = "non_representable"
    ckpt.write_text("\n".join(["\t".join(flipped)] + lines[1:]) + "\n")
    third = census(corpus, checkpoint=str(ckpt))
    assert third[flipped[0]] == "non_representable"


def test_checkpoint_torn_last_line(tmp_path):
    # a crash mid-write leaves a cut-off last line; it must be decided again,
    # not believed, and the new verdict must land on a line of its own
    corpus = generate(6)
    ckpt = tmp_path / "n6.ckpt"
    census(corpus, checkpoint=str(ckpt))
    lines = ckpt.read_text().splitlines()
    nonrep = [line for line in lines if line.split("\t")[1] == "non_representable"]
    assert len(nonrep) == 1
    key = nonrep[0].split("\t")[0]
    rest = [line for line in lines if line != nonrep[0]]
    ckpt.write_text("\n".join(rest) + "\n" + f"{key}\tnon_rep")
    assert count_non_representable(corpus, checkpoint=str(ckpt)) == 1
    after = ckpt.read_text().splitlines()
    assert after[: len(rest) + 1] == rest + [f"{key}\tnon_rep"]
    assert after[len(rest) + 1 :] == [nonrep[0]]
    # lines without a final verdict or an integer node count are decided again too
    for bad in (f"{key}\tnon_representable", f"{key}\tbudget\t7", f"{key}\tnon_representable\t"):
        ckpt.write_text("\n".join(rest + [bad]) + "\n")
        assert count_non_representable(corpus, checkpoint=str(ckpt)) == 1
        assert ckpt.read_text().splitlines() == rest + [bad, nonrep[0]]
    # a line cut inside a two-digit node count still parses, but is not believed
    cut = f"{key}\tnon_representable\t1"  # from "...\t12"
    ckpt.write_text("\n".join(rest) + "\n" + cut)
    assert count_non_representable(corpus, checkpoint=str(ckpt)) == 1
    assert ckpt.read_text().splitlines() == rest + [cut, nonrep[0]]


def test_census_rejects_a_nan_time_limit():
    with pytest.raises(ValueError, match="max_seconds must be non-negative, not nan"):
        census(generate(4), max_seconds=float("nan"))


def test_census_budget_abort():
    # co-T2 passes the filter and its search needs 15 nodes; W6 is a
    # comparability graph, settled with no search
    corpus = Corpus(7, [families.co_t2(), families.wheel(6)])
    with pytest.raises(BudgetExhausted):
        census(corpus, max_nodes=3)


def test_corpus_from_graphs_validates():
    with pytest.raises(ValueError):
        corpus_from_graphs(5, [families.complete(4)], "test")
    c = corpus_from_graphs(
        4, [families.complete(4), families.complete(4), families.cycle(4)], "test"
    )
    assert len(c) == 2
