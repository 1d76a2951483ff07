import contextlib
import io
import json
import os
import tempfile

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


def test_parse_word():
    assert parse_word("1,2,13") == (1, 2, 13)
    assert parse_word("1213423") == (1, 2, 1, 3, 4, 2, 3)
    assert parse_word("138(10)7") == (1, 3, 8, 10, 7)
    assert parse_word("(10)(11)") == (10, 11)
    with pytest.raises(ValueError):
        parse_word("")


def test_parse_graph_specs(tmp_path):
    assert parse_graph("family:wheel:5") == families.wheel(5)
    assert parse_graph("family:petersen") == families.petersen()
    assert parse_graph("edges:3:1-2,2-3") == Graph(3, [(1, 2), (2, 3)])
    edge_path = tmp_path / "g.txt"
    edge_path.write_text("3 2\n1 2\n2 3\n")
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
    payload, code = run(capsys, "orient", "family:wheel:5")
    assert code == 1 and payload["verdict"] is False
    assert payload["stats"]["exhaustive"] is True


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
    payload, code = run(capsys, "perm-repnum", "family:cycle:5")
    assert code == 1 and payload["perm_repnum"] is None
    payload, code = run(capsys, "perm-repnum", "family:crown:4", "--max-p", "4")
    assert code == 0 and payload["perm_repnum"] == 4


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


def test_enumerate_checkpoint_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WORDREP_CHECKPOINT_DIR", str(tmp_path))
    payload, code = run(capsys, "enumerate", "5", "--count-nonrep")
    assert code == 0
    assert (tmp_path / "n5_connected.ckpt").exists()


def test_pattern_count(capsys):
    payload, code = run(
        capsys, "pattern-count", "family:complete:4", "--pattern", "132", "--max-len", "7"
    )
    assert code == 0 and payload["count"] == 27


def test_budget_exit_code(capsys):
    payload, code = run(capsys, "orient", "family:wheel:7", "--max-nodes", "3")
    assert code == 3


def test_input_error_exit_code(capsys):
    code = main(["decide", "family:nosuch:3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


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
    """A graph6 line with a header out of range, a short body or a bad byte."""
    n = draw(st.integers(2, 12))
    body = [chr(63 + draw(st.integers(0, 63))) for _ in range((n * (n - 1) // 2 + 5) // 6)]
    kind = draw(st.sampled_from(["header", "short", "byte"]))
    if kind == "header":
        return chr(draw(st.integers(33, 62))) + "".join(body)
    if kind == "short":
        return chr(n + 63) + "".join(body[: draw(st.integers(0, len(body) - 1))])
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
