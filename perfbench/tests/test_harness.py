"""Reduced-size checks of the benchmark harness; the whole file runs in
seconds:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from perfbench import oracles, tracing, workloads
from wordrep import families, graphs, io, orientation, words
from wordrep.orientation import Orientation

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SMALL = {
    "census-n8": workloads.Census(n=6),
    "repnum-atlas": workloads.Atlas(
        repnum_sizes=(1, 2, 3, 4, 5), pattern_sizes=(4, 5), petersen_max_nodes=None
    ),
    "decide-stream": workloads.Stream(count=200, family_copies=1),
}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def adjacency(g):
    return g.n, g.adj


# -- oracles ---------------------------------------------------------------


def test_semi_transitive_checker_on_known_orientations():
    c4 = families.cycle(4)
    shortcut = Orientation(c4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    parallel = Orientation(c4, [(1, 2), (2, 3), (1, 4), (4, 3)])
    assert not oracles.is_semi_transitive(*adjacency(c4), shortcut.succ)
    assert oracles.is_semi_transitive(*adjacency(c4), parallel.succ)
    k3 = families.complete(3)
    cyclic = Orientation(k3, [(1, 2), (2, 3), (3, 1)])
    assert not oracles.is_semi_transitive(*adjacency(k3), cyclic.succ)
    assert not oracles.is_semi_transitive(*adjacency(k3), (0b110, 0b100, 0b001))  # 3-1 twice


@pytest.mark.parametrize(
    "g", [families.wheel(5), families.complete(4), families.cycle(5), families.prism(3)]
)
def test_semi_transitive_checker_agrees_with_the_library(g):
    edges = g.edges()
    for flips in itertools.product((0, 1), repeat=len(edges)):
        o = Orientation(g, [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)])
        assert oracles.is_semi_transitive(*adjacency(g), o.succ) == orientation.is_semi_transitive(o)


def test_three_colorable():
    assert oracles.three_colorable(*adjacency(families.cycle(5)))
    assert oracles.three_colorable(*adjacency(families.petersen()))
    assert not oracles.three_colorable(*adjacency(families.wheel(5)))
    assert not oracles.three_colorable(*adjacency(families.complete(4)))


def test_word_checkers_agree_with_the_library():
    rng = random.Random(7)
    star = graphs.Graph(4, [(1, 4), (2, 4), (3, 4)])
    assert oracles.represents((3, 4, 3, 2, 1, 4, 1), *adjacency(star))
    assert not oracles.contains_pattern((3, 4, 3, 2, 1, 4, 1), (1, 3, 2))
    for _ in range(300):
        n = rng.randint(2, 5)
        word = tuple(rng.randint(1, n) for _ in range(rng.randint(n, 3 * n)))
        if set(word) == set(range(1, n + 1)):
            assert oracles.represents(word, *adjacency(words.word_to_graph(word)))
        for t in ((1, 3, 2), (1, 2, 3)):
            assert oracles.contains_pattern(word, t) == words.contains_pattern(word, t)


def test_graph6_encoder_agrees_with_the_library():
    rng = random.Random(3)
    for n in range(0, 14):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        g = graphs.Graph(n, [e for e in pairs if rng.random() < 0.5])
        assert oracles.graph6(*adjacency(g)) == io.to_graph6(g)


# -- workloads at reduced size ------------------------------------------------


@pytest.fixture(scope="module")
def passes():
    out = {}
    for name, w in SMALL.items():
        inputs = w.build(5)
        out[name] = (w, inputs, w.run(inputs))
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_pass_meets_its_oracles(passes, name):
    w, inputs, p = passes[name]
    assert w.check(inputs, p) == []
    assert len(p.latencies_s) == p.attempted > 0
    assert all(isinstance(v, int) for v in p.nodes.values())


def test_census_n6_counts(passes):
    _, _, p = passes["census-n8"]
    verdicts = p.outputs["verdicts"]
    assert len(verdicts) == 112
    assert sum(v == "non_representable" for v in verdicts.values()) == 1
    assert p.counts["checkpoint_lines"] == 112 and p.phases["resume_s"] > 0


def test_atlas_small_distribution(passes):
    _, inputs, p = passes["repnum-atlas"]
    numbers = p.outputs[: len(inputs["repnum"])]
    assert {k: numbers.count(k) for k in set(numbers)} == {1: 5, 2: 26}


def test_checks_catch_wrong_outputs(passes):
    w, inputs, p = passes["census-n8"]
    verdicts = dict(p.outputs["verdicts"])
    key = next(k for k, v in verdicts.items() if v == "non_representable")
    verdicts[key] = "representable"
    bad = dataclasses.replace(p, outputs={**p.outputs, "verdicts": verdicts})
    assert w.check(inputs, bad)

    w, inputs, p = passes["repnum-atlas"]
    bad = dataclasses.replace(p, outputs=[2] + p.outputs[1:])  # K1 needs one copy
    assert w.check(inputs, bad)
    i = next(i for i, o in enumerate(p.outputs) if isinstance(o, tuple) and o[1])
    status, word, nodes = p.outputs[i]
    outputs = list(p.outputs)
    outputs[i] = (status, word + word[:1], nodes)
    assert w.check(inputs, dataclasses.replace(p, outputs=outputs))

    w, inputs, p = passes["decide-stream"]
    i = next(i for i, o in enumerate(p.outputs) if o[2])
    n, adj, _, succ, nodes = p.outputs[i]
    outputs = list(p.outputs)
    outputs[i] = (n, adj, True, tuple(reversed(succ)), nodes)
    assert w.check(inputs, dataclasses.replace(p, outputs=outputs))
    i = next(i for i, item in enumerate(inputs) if item[0] == "prism")
    outputs = list(p.outputs)
    outputs[i] = p.outputs[i][:2] + (False, None, 0)
    assert w.check(inputs, dataclasses.replace(p, outputs=outputs))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_inputs_outputs_and_nodes(passes, name):
    w, inputs, p = passes[name]
    again = w.build(5)
    assert workloads.inputs_digest(again) == workloads.inputs_digest(inputs)
    q = w.run(again)
    assert (q.digest, q.nodes) == (p.digest, p.nodes)


def test_seed_changes_the_inputs():
    w = SMALL["decide-stream"]
    assert workloads.inputs_digest(w.build(1)) != workloads.inputs_digest(w.build(2))
    a = SMALL["repnum-atlas"]
    assert workloads.inputs_digest(a.build(1)) != workloads.inputs_digest(a.build(2))


# -- tracing -----------------------------------------------------------------


def test_tracer_wraps_and_restores():
    import wordrep
    from wordrep import enumeration

    before = (graphs.canonical_form, enumeration.canonical_form, wordrep.canonical_form)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert enumeration.canonical_form is not before[1]
        assert wordrep.canonical_form is enumeration.canonical_form
        assert not orientation.is_word_representable(families.wheel(5))
    assert (graphs.canonical_form, enumeration.canonical_form, wordrep.canonical_form) == before
    layers = tracer.layers()
    assert layers["orientation.is_word_representable"]["calls"] == 1
    assert tracer.counts["orientation.neighborhood_filter"]["hits"] == 1
    assert layers["orientation.find_transitive"]["calls"] >= 1
    roots = [i for i in range(len(tracer.start)) if tracer.parent[i] == -1]
    root_time = sum(tracer.end[i] - tracer.start[i] for i in roots)
    self_time = sum(row["self_s"] for row in layers.values())
    assert self_time == pytest.approx(root_time, rel=1e-9, abs=1e-12)
    for i in range(len(tracer.start)):
        p = tracer.parent[i]
        assert p == -1 or tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]


def test_traced_pass_reports_every_per_layer_metric(tmp_path):
    w = SMALL["census-n8"].for_tracing()
    inputs = w.build(1)
    reference = w.run(inputs)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = w.run(inputs)
    assert (traced.digest, traced.nodes) == (reference.digest, reference.nodes)
    metrics = tracing.per_layer_metrics(tracer, traced, reference)
    assert set(metrics) == {m["name"] for m in spec()["per_layer"]}
    assert metrics["enumeration.census.decided"] == metrics["enumeration.checkpoint.lines"] == 112
    assert metrics["orientation.neighborhood_filter.hits"] == 1
    assert 0 < metrics["enumeration.generate.dedup_ratio"] < 1
    tracer.write_spans(tmp_path / "spans.tsv")
    lines = (tmp_path / "spans.tsv").read_text().splitlines()
    assert len(lines) == len(tracer.start) + 1


# -- the benchmark definition ----------------------------------------------------


def test_benchmark_json_follows_its_contract():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert s["paths"] == ["perfbench"] and 1 <= s["run_seconds"] <= 60
    assert [w["name"] for w in s["workloads"]] == list(workloads.FULL)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in s["workloads"])
    for m in s["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in s["per_layer"])
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names))


def test_layer_map_names_real_metrics():
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as fh:
        rows = json.load(fh)["per_layer"]
    s = spec()
    per_layer = [m for row in rows for m in row["metrics"]]
    assert sorted(per_layer) == sorted(m["name"] for m in s["per_layer"])
    e2e = {m["name"] for m in s["end_to_end"]} | {"resume_s", "fail_frac"}
    for row in rows:
        for workload, metrics in row["moves"].items():
            assert workload in workloads.FULL and set(metrics) <= e2e
        assert set(row["no_change"]) <= set(workloads.FULL)


def test_setup_probe_builds_the_same_inputs():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "setup_probe.py"), "census-n8", "4"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["setup_s"] > 0
    assert probe["inputs_digest"] == workloads.inputs_digest(workloads.FULL["census-n8"].build(4))


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
