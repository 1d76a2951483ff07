import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from wordrep import cli, enumeration, families, repnum
from wordrep.cli import main, parse_graph, parse_word
from wordrep.families import FAMILY_NAMES
from wordrep.graphs import Graph
from wordrep.io import to_graph6
from wordrep.outcome import _Budget
from wordrep.words import word_to_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return json.loads(out) if out.strip() else None, code


@pytest.mark.parametrize(
    "graph, verdict, code", [("family:wheel:5", False, 1), ("family:wheel:4", True, 0)]
)
def test_python_m_wordrep(graph, verdict, code):
    # an uninstalled checkout runs the CLI as `python -m wordrep`
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-m", "wordrep", "decide", graph],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert json.loads(proc.stdout) == {"command": "decide", "verdict": verdict}


def test_parse_word():
    assert parse_word("1,2,13") == (1, 2, 13)
    assert parse_word("1213423") == (1, 2, 1, 3, 4, 2, 3)
    assert parse_word("138(10)7") == (1, 3, 8, 10, 7)
    assert parse_word("(10)(11)") == (10, 11)
    for text in ("", "1x2x1", "12-21", "(10", "1,,2", "1,2,", "(1)0)"):
        with pytest.raises(ValueError, match="cannot parse word literal"):
            parse_word(text)


def test_malformed_word_literals_exit_2(capsys):
    # each was once read as another word: 1,2,1 / 1,2,2,1 / 1,0
    for text in ("1x2x1", "12-21", "(10"):
        assert main(["word-graph", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == f"cannot parse word literal {text!r}"


def test_small_wheel_exits_2_naming_the_wheel(capsys):
    assert main(["decide", "family:wheel:2"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "wheel needs n >= 3"


def test_parse_graph_specs(tmp_path):
    assert parse_graph("family:wheel:5") == families.wheel(5)
    assert parse_graph("family:petersen") == families.petersen()
    assert parse_graph("edges:3:1-2,2-3") == Graph(3, [(1, 2), (2, 3)])
    edge_path = tmp_path / "g.txt"
    edge_path.write_text("3 2\n1 2\n2 3\n")
    assert parse_graph(str(edge_path)) == Graph(3, [(1, 2), (2, 3)])
    edge_path.write_text("# a path\n3 2\n1 2\n2 3\n")  # a comment before the header
    assert parse_graph(str(edge_path)) == Graph(3, [(1, 2), (2, 3)])
    g6_path = tmp_path / "g.g6"
    g6_path.write_text(to_graph6(families.prism(3)) + "\n")
    assert parse_graph(str(g6_path)) == families.prism(3)
    with pytest.raises(ValueError):
        parse_graph("nonsense:spec")


def test_decide_exit_codes(capsys):
    payload, code = run(capsys, "decide", "family:wheel:5")
    assert payload["verdict"] is False and code == 1
    payload, code = run(capsys, "decide", "family:prism:3")
    assert payload["verdict"] is True and code == 0


def test_check_word(capsys, tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text("4 4\n1 2\n2 3\n2 4\n3 4\n")
    payload, code = run(capsys, "check-word", "1,2,1,3,4,2,3", "--graph", str(path))
    assert payload["verdict"] is True and code == 0
    payload, code = run(capsys, "check-word", "1213423", "--graph", str(path))
    assert payload["verdict"] is True and code == 0
    payload, code = run(capsys, "check-word", "1,2,1,2", "--graph", "family:empty:2")
    assert payload["verdict"] is False and code == 1


def test_repnum(capsys):
    payload, code = run(capsys, "repnum", "family:prism:3")
    assert payload["repnum"] == 3 and code == 0
    payload, code = run(capsys, "repnum", "family:wheel:5")
    assert payload["repnum"] is None and payload["verdict"] is False and code == 1


def test_word_graph_formats(capsys):
    payload, code = run(capsys, "word-graph", "1213423")
    assert code == 0 and payload["edges"] == [[1, 2], [2, 3], [2, 4], [3, 4]]
    payload, code = run(capsys, "word-graph", "1213423", "--format", "graph6")
    assert payload["graph6"] == to_graph6(Graph(4, [(1, 2), (2, 3), (2, 4), (3, 4)]))
    payload, code = run(capsys, "word-graph", "1213423", "--format", "dot")
    assert "1 -- 2;" in payload["dot"]


def test_orient_word(capsys):
    payload, code = run(capsys, "orient-word", "2421341")
    assert code == 0
    assert sorted(tuple(a) for a in payload["witness_orientation"]) == [
        (1, 3), (2, 4), (4, 1), (4, 3),
    ]
    assert payload["semi_transitive"] is True


def test_orient(capsys):
    payload, code = run(capsys, "orient", "family:petersen", "--format", "dot")
    assert code == 0 and payload["verdict"] is True and "->" in payload["dot"]
    assert payload["stats"]["route"] == "search" and "vertex" not in payload["stats"]
    # Petersen's search meets 13 failed propagations before its witness
    assert payload["stats"]["conflicts"] == 13
    payload, code = run(capsys, "orient", "family:wheel:5")
    assert code == 1 and payload["verdict"] is False
    assert payload["stats"]["exhaustive"] is True
    # the filter refutes any wheel on an odd rim at its hub, with no search
    payload, code = run(capsys, "orient", "family:wheel:31")
    assert code == 1 and payload["verdict"] is False
    stats = payload["stats"]
    assert (stats["route"], stats["vertex"], stats["nodes_expanded"]) == ("filter", 32, 0)
    assert "conflicts" not in stats
    payload, code = run(capsys, "orient", "family:crown:30")
    assert code == 0 and payload["stats"]["route"] == "comparability"


def test_represent(capsys):
    payload, code = run(capsys, "represent", "family:cycle:6", "--k", "2")
    assert code == 0 and payload["witness_word"]
    payload, code = run(capsys, "represent", "family:prism:3", "--k", "2")
    assert code == 1 and payload["verdict"] is False
    payload, code = run(capsys, "represent", "family:prism:3")
    assert code == 0 and payload["k"] == 3
    payload, code = run(capsys, "represent", "family:star:6", "--pattern", "123")
    assert code == 1 and payload["refutation_complete"] is True
    payload, code = run(capsys, "represent", "family:cycle:5", "--pattern", "132")
    assert code == 0 and payload["witness_word"]


def test_represent_searches_each_k_once(capsys, monkeypatch):
    # the witness comes from the search that found k, not from a rerun
    calls = []
    search = repnum.find_k_uniform_word

    def counted(g, k, *args, **kw):
        calls.append(k)
        return search(g, k, *args, **kw)

    monkeypatch.setattr(repnum, "find_k_uniform_word", counted)
    monkeypatch.setattr(cli, "find_k_uniform_word", counted)
    payload, code = run(capsys, "represent", "family:prism:3")
    assert code == 0 and payload["k"] == 3 and calls == [1, 2, 3]
    assert word_to_graph(parse_word(payload["witness_word"])) == families.prism(3)


def test_represent_max_nodes_bounds_the_whole_call(capsys, monkeypatch):
    ticks = 0
    tick = _Budget.tick

    def counted(self):
        nonlocal ticks
        ticks += 1
        return tick(self)

    monkeypatch.setattr(_Budget, "tick", counted)
    assert repnum.representation_number(families.prism(3)) == 3
    needed, ticks = ticks, 0
    payload, code = run(capsys, "represent", "family:prism:3", "--max-nodes", str(needed))
    assert code == 0 and payload["k"] == 3 and ticks == needed
    payload, code = run(capsys, "represent", "family:prism:3", "--max-nodes", str(needed - 1))
    assert code == 3


def test_perm_repnum(capsys):
    payload, code = run(capsys, "perm-repnum", "family:crown:3")
    assert code == 0 and payload["perm_repnum"] == 3
    # only a graph that is not a comparability graph is refuted, by TRO
    payload, code = run(capsys, "perm-repnum", "family:cycle:5")
    assert code == 1 and payload["perm_repnum"] is None
    assert payload["stats"]["nodes_expanded"] == 0 and payload["stats"]["exhaustive"]
    assert set(payload) == {"command", "perm_repnum", "verdict", "stats"}
    # crown(4) has dimension 4: p + 1 nodes for each p up to 4
    payload, code = run(capsys, "perm-repnum", "family:crown:4")
    assert code == 0 and payload["perm_repnum"] == 4
    assert payload["stats"]["nodes_expanded"] == 14


def test_perm_repnum_budget_exits_3(capsys):
    # 27 nodes settle the crown on 6 + 6 vertices, as its stats say
    payload, code = run(capsys, "perm-repnum", "family:crown:6", "--max-nodes", "27")
    assert code == 0 and payload["perm_repnum"] == 6
    assert payload["stats"]["nodes_expanded"] == 27 and payload["stats"]["exhaustive"]
    for limit in (["--max-nodes", "5"], ["--max-seconds", "0"]):
        payload, code = run(capsys, "perm-repnum", "family:crown:6", *limit)
        assert code == 3 and payload["verdict"] is None, limit
        assert "Traceback" not in capsys.readouterr().err


def test_refutation_within_caps_is_not_exhaustive(capsys):
    # isolated vertices get cap 3, so refuting 11 holds only within the caps
    payload, code = run(capsys, "represent", "family:empty:2", "--pattern", "11")
    assert code == 1 and payload["refutation_complete"] is False
    assert payload["stats"]["exhaustive"] is False
    # a witness within the caps is a witness outright
    payload, code = run(capsys, "represent", "family:empty:2", "--pattern", "12")
    assert code == 0 and payload["refutation_complete"] is False
    assert payload["stats"]["exhaustive"] is True


def test_represent_null_graph_avoiding_a_pattern(capsys):
    for pattern in ("132", "123"):
        payload, code = run(capsys, "represent", "family:empty:0", "--pattern", pattern)
        assert code == 0 and payload["verdict"] is True and payload["witness_word"] == ""
        assert payload["caps"] == {} and payload["refutation_complete"] is True


def test_family(capsys):
    payload, code = run(capsys, "family", "wheel:5")
    assert code == 0 and payload["n"] == 6
    payload, code = run(capsys, "family", "cycle:6")
    assert payload["known_representant"] == "1,6,2,1,3,2,4,3,5,4,6,5"


def test_op(capsys):
    payload, code = run(capsys, "op", "complement", "family:complete:3", "--format", "edges")
    assert code == 0 and payload["edges"] == []
    payload, code = run(capsys, "op", "apex", "family:cycle:5", "--format", "graph6")
    assert payload["graph6"] == to_graph6(families.wheel(5))
    payload, code = run(
        capsys, "op", "cartesian", "family:path:2", "--other", "family:path:2"
    )
    assert payload["m"] == 4
    payload, code = run(
        capsys, "op", "subdivide", "family:complete:2", "--edge", "1", "2", "--parts", "2"
    )
    assert payload["n"] == 3
    payload, code = run(
        capsys, "op", "glue", "family:complete:2", "--other", "family:complete:2",
        "--mode", "by-edge", "--u", "2", "--v", "1",
    )
    assert payload["n"] == 4 and payload["m"] == 3


def test_enumerate(capsys):
    payload, code = run(capsys, "enumerate", "5", "--count-nonrep")
    assert code == 0
    assert payload["corpus_size"] == 21 and payload["count_non_representable"] == 0
    payload, code = run(capsys, "enumerate", "6", "--count-nonrep", "--minimal")
    assert payload["count_non_representable"] == 1
    assert payload["minimal_count"] == 1


def test_enumerate_count_and_minimal_share_one_census(capsys, monkeypatch):
    calls = []
    decide = enumeration.decide_graph
    monkeypatch.setattr(enumeration, "decide_graph", lambda task: calls.append(task) or decide(task))
    payload, code = run(capsys, "enumerate", "6", "--count-nonrep", "--minimal")
    assert code == 0 and payload["count_non_representable"] == payload["minimal_count"] == 1
    assert len(calls) == payload["corpus_size"] == 112


def test_enumerate_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-2"):
        code = main(["enumerate", "6", "--count-nonrep", "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "jobs" in json.loads(captured.err)["error"]


def test_enumerate_writes_its_checkpoint(capsys, tmp_path):
    ckpt = tmp_path / "n5.ckpt"
    payload, code = run(capsys, "enumerate", "5", "--count-nonrep", "--checkpoint", str(ckpt))
    assert code == 0
    assert len(ckpt.read_text().splitlines()) == payload["corpus_size"] == 21


def test_pattern_count(capsys):
    payload, code = run(
        capsys, "pattern-count", "family:complete:4", "--pattern", "132", "--max-len", "7"
    )
    assert code == 0 and payload["count"] == 27


def test_pattern_count_negative_length_exits_2(capsys):
    argv = ["pattern-count", "family:empty:2", "--pattern", "132", "--max-len", "-1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "max_len must be non-negative"


def test_pattern_count_has_no_size_ceiling(capsys):
    # K1 up to 1,000 letters once exited 2 on a size guard; the budget
    # flags alone stop the count now
    payload, code = run(capsys, "pattern-count", "family:complete:1", "--pattern", "132", "--max-len", "1000")
    assert code == 0 and payload["count"] == 1000
    argv = [
        "pattern-count", "family:complete:9", "--pattern", "132", "--max-len", "12",
        "--max-nodes", "10000",
    ]
    code, text = _main_quietly(argv)
    assert code == 3 and "Traceback" not in text
    assert json.loads(text)["verdict"] is None


@pytest.mark.parametrize(
    "argv, code",
    [
        (["decide", "family:cycle:1501"], 0),
        (["orient", "family:wheel:13"], 1),
        (["repnum", "family:complete:200"], 0),
        (["represent", "family:path:19"], 0),
        (["repnum", "family:cycle:20", "--max-nodes", "20000"], 3),
        (["perm-repnum", "family:path:80"], 0),
    ],
)
def test_graphs_past_twelve_vertices(argv, code):
    got, text = _main_quietly(argv)
    assert got == code and "Traceback" not in text, text
    payload = json.loads(text)
    if argv[0] == "orient":
        # the filter refutes W13 at its hub; the search alone took 1,036
        # nodes (test_decide_past_twelve_vertices)
        stats = payload["stats"]
        assert (stats["route"], stats["vertex"], stats["nodes_expanded"]) == ("filter", 14, 0)
    if argv[1] == "family:complete:200":
        assert payload["repnum"] == 1
    if argv[0] == "perm-repnum":
        assert payload["perm_repnum"] == 2 and payload["stats"]["nodes_expanded"] == 1526
    if argv[0] == "represent":
        word = payload["witness_word"]
        assert payload["k"] == 2 and len(parse_word(word)) == 38
        assert main(["check-word", word, "--graph", argv[1]]) == 0


def test_word_with_a_wide_gap_exits_2(capsys):
    assert main(["word-graph", "1,1000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err) < 100


def test_budget_exit_code(capsys):
    payload, code = run(capsys, "orient", "family:petersen", "--max-nodes", "3")
    assert code == 3


def test_input_error_exit_code(capsys):
    code = main(["decide", "family:nosuch:3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_negative_limits_exit_2(capsys, monkeypatch):
    calls = []
    decide = enumeration.decide_graph
    monkeypatch.setattr(enumeration, "decide_graph", lambda task: calls.append(task) or decide(task))
    for argv in (
        ["enumerate", "4", "--count-nonrep", "--max-nodes", "-1"],
        ["enumerate", "4", "--count-nonrep", "--max-seconds", "-1"],
        ["decide", "family:petersen", "--max-nodes", "-1"],
        ["decide", "family:wheel:7", "--max-seconds", "nan"],
        ["enumerate", "4", "--count-nonrep", "--max-seconds", "nan"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be non-negative" in json.loads(captured.err)["error"]
    assert calls == []  # the census stops before deciding any graph


def test_deterministic_output(capsys):
    a, _ = run(capsys, "represent", "family:cycle:6", "--k", "2")
    b, _ = run(capsys, "represent", "family:cycle:6", "--k", "2")
    a.pop("stats"), b.pop("stats")
    assert a == b


# -- malformed graph specs -------------------------------------------------------


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return text != ""  # an empty parameter means none
    return False


_NAMES = st.sampled_from(FAMILY_NAMES)
_NO_COLON = st.text(max_size=8).filter(lambda s: ":" not in s)


@st.composite
def _bad_edges(draw):
    n = draw(st.integers(1, 8))
    pairs = [
        f"{u}-{v}"
        for u, v in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=4))
        if u != v
    ]
    u = draw(st.integers(1, n))
    bad = draw(
        st.sampled_from(
            [f"{u}-{u}", f"{u}-{n + 1}", f"0-{u}", f"{u}", f"{u}-{u}-{u}", f"{u}-x", f"{u}-"]
        )
    )
    pairs.insert(draw(st.integers(0, len(pairs))), bad)
    return f"edges:{n}:" + ",".join(pairs)


_SPECS = st.one_of(
    # a family with a parameter that is no integer, or an unknown family
    st.builds("family:{}:{}".format, _NAMES, _NO_COLON.filter(_not_an_int)),
    st.builds("family:{}".format, _NO_COLON.filter(lambda s: s not in FAMILY_NAMES)),
    st.builds("family:petersen:{}".format, st.integers(1, 99)),
    # an edge list with one bad pair, or a vertex count that is no count
    _bad_edges(),
    st.builds("edges:{}".format, st.integers(-99, -1)),
    st.builds("edges:{}:1-2".format, _NO_COLON.filter(_not_an_int)),
)


@st.composite
def _bad_graph6(draw):
    """A graph6 line with a header out of range, a short or long body or a
    bad byte."""
    n = draw(st.integers(2, 12))
    body = [chr(63 + draw(st.integers(0, 63))) for _ in range((n * (n - 1) // 2 + 5) // 6)]
    kind = draw(st.sampled_from(["header", "short", "long", "byte"]))
    if kind == "header":
        return chr(draw(st.integers(33, 62))) + "".join(body)
    if kind == "short":
        return chr(n + 63) + "".join(body[: draw(st.integers(0, len(body) - 1))])
    if kind == "long":
        extra = draw(st.lists(st.integers(0, 63), min_size=1, max_size=3))
        return chr(n + 63) + "".join(body) + "".join(chr(63 + v) for v in extra)
    body[draw(st.integers(0, len(body) - 1))] = chr(draw(st.integers(33, 62)))
    return chr(n + 63) + "".join(body)


def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


_COMMANDS = st.sampled_from(["decide", "orient", "repnum", "represent"])


@settings(max_examples=200, deadline=None, database=None)
@given(_COMMANDS, _SPECS)
def test_malformed_specs_exit_2_without_traceback(command, spec):
    code, text = _main_quietly([command, spec])
    assert code == 2, spec
    assert "Traceback" not in text and "error" in text


def test_family_below_its_range_names_itself():
    # crown_apex builds on crown, but its error names crown_apex
    for name in ("crown", "crown_apex"):
        code, text = _main_quietly(["orient", f"family:{name}:0"])
        assert code == 2 and "Traceback" not in text, name
        assert json.loads(text)["error"] == f"{name} needs n >= 1", name


def test_parse_family():
    assert cli.parse_family("family:wheel:5") == cli.parse_family("wheel:5") == ("wheel", 5)
    assert cli.parse_family("family:petersen") == cli.parse_family("petersen:") == ("petersen", None)
    for argv in (["family", "family"], ["family", "wheel:5:9"], ["decide", "family:"]):
        code, text = _main_quietly(argv)
        assert code == 2 and "Traceback" not in text, argv


@settings(max_examples=100, deadline=None, database=None)
@given(_COMMANDS, _bad_graph6(), st.sampled_from([".g6", ".graph6", ""]))
def test_malformed_graph6_files_exit_2_without_traceback(command, line, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad" + suffix)
        with open(path, "w") as fh:
            fh.write(line + "\n")
        code, text = _main_quietly([command, path])
    assert code == 2, line
    assert "Traceback" not in text and "error" in text


def test_malformed_files_exit_2(tmp_path):
    cases = {
        "count.txt": "3 2\n1 2\n",  # two edges announced, one given
        "loop.txt": "3 1\n2 2\n",
        "wide.txt": "3 1\n1 2 3\n",
        "empty.g6": "",
        "long.g6": "Bwxyz\n",  # K3's body plus three bytes
        "repeat.txt": "3 2\n1 2\n2 1\n",  # two edges announced, one repeated
        "two.g6": "Bw\nBw\n",  # two graphs where one is read
        "binary.g6": b"\xff\xfe\x00",
    }
    for name, content in cases.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        code, text = _main_quietly(["decide", str(path)])
        assert code == 2 and "Traceback" not in text, name
    code, text = _main_quietly(["decide", str(tmp_path / "missing.g6")])
    assert code == 2 and "Traceback" not in text


def test_op_without_its_other_graph_or_edge_exits_2(capsys):
    for name, option in (
        ("subdivide", "--edge"),
        ("contract", "--edge"),
        ("cartesian", "--other"),
        ("rooted", "--other"),
        ("module", "--other"),
        ("glue", "--other"),
    ):
        assert main(["op", name, "family:path:3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == f"op {name} needs {option}"


def test_represent_k_below_one_exits_2(capsys):
    for k in ("0", "-1"):
        assert main(["represent", "family:cycle:5", "--k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "k must be at least 1"


def test_represent_pattern_with_k_exits_2(capsys):
    for k in ("0", "2"):
        assert main(["represent", "family:cycle:5", "--pattern", "132", "--k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "--pattern and --k cannot be combined"


# -- no input makes the CLI print a traceback -------------------------------------

# One small invocation per subcommand (and per operation of `op`), naming
# every graph and edge argument that it may take.
_SWEEP_BASES = [
    ["check-word", "1213423", "--graph", "edges:4:1-2,2-3,2-4,3-4"],
    ["word-graph", "1213423"],
    ["orient-word", "1213423"],
    ["decide", "family:cycle:5"],
    ["orient", "family:cycle:5"],
    ["orient", "family:wheel:31"],
    ["orient", "family:crown:30"],
    ["represent", "family:cycle:5"],
    ["represent", "family:cycle:5", "--k", "2"],
    ["represent", "family:cycle:5", "--pattern", "132"],
    ["represent", "family:cycle:5", "--pattern", "132", "--k", "2"],
    ["repnum", "family:cycle:5"],
    ["perm-repnum", "family:cycle:4"],
    ["perm-repnum", "family:cycle:5"],
    ["perm-repnum", "family:crown:4"],
    ["family", "cycle:5"],
    *(
        ["op", name, "family:path:3", "--other", "family:path:2", "--edge", "1", "2"]
        for name in (
            "complement", "line", "cartesian", "rooted", "module",
            "apex", "subdivide", "contract", "glue",
        )
    ),
    ["op", "glue", "family:path:3", "--other", "family:path:2", "--mode", "by-edge"],
    ["enumerate", "4", "--count-nonrep", "--minimal"],
    ["pattern-count", "family:complete:3", "--pattern", "132", "--max-len", "4"],
]
_GRAPH_OPTIONS = {"--graph": 1, "--other": 1, "--edge": 2}


def _sweep_cases():
    """Each base with one graph or edge option left out, and with 0 and -1
    for each of its subcommand's numeric arguments, positional or not."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.choices and a.dest == "command")
    assert {base[0] for base in _SWEEP_BASES} == set(subparsers.choices)
    cases = []
    for base in _SWEEP_BASES:
        cases.append(base)
        for option, arity in _GRAPH_OPTIONS.items():
            if option in base:
                i = base.index(option)
                cases.append(base[:i] + base[i + 1 + arity :])
        positionals = []
        for action in subparsers.choices[base[0]]._actions:
            if not action.option_strings:
                positionals.append(action)
            if action.type not in (int, float):
                continue
            for value in ("0", "-1"):
                if action.option_strings:
                    cases.append(base + [action.option_strings[0]] + [value] * (action.nargs or 1))
                else:
                    i = 1 + positionals.index(action)
                    cases.append(base[:i] + [value] + base[i + 1 :])
    return cases


@pytest.mark.parametrize("argv", _sweep_cases(), ids=" ".join)
def test_cli_sweep_prints_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc()
    assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue(), err.getvalue()


# -- stdout follows docs/cli_schema.json ----------------------------------------

_SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "cli_schema.json").read_text()
)


@pytest.mark.parametrize(
    "argv",
    [
        *(base for base in _SWEEP_BASES if not {"--pattern", "--k"} <= set(base)),
        ["enumerate", "5", "--list", "--count-nonrep", "--minimal"],
        ["represent", "family:petersen", "--max-nodes", "100"],  # budget exhausted
        ["orient", "family:petersen", "--max-nodes", "1"],
        ["perm-repnum", "family:crown:6", "--max-nodes", "5"],
        ["pattern-count", "family:complete:9", "--pattern", "132", "--max-len", "12", "--max-nodes", "10000"],
    ],
    ids=" ".join,
)
def test_stdout_matches_schema(capsys, argv):
    main(argv)
    jsonschema.validate(json.loads(capsys.readouterr().out), _SCHEMA)


def test_closed_stdout_exits_quietly():
    # the reader of stdout is gone before the CLI writes, as with `| head -1`
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.Popen(
        [sys.executable, "-m", "wordrep", "decide", "family:cycle:5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")
