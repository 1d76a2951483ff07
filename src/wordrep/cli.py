"""Command-line surface: every library capability behind stable JSON output.

Graphs are given as family specs ("family:wheel:5"), file paths (graph6 or
edge-list text, by extension/content), or inline literals
("edges:6:1-2,2-3,...").  Words are comma-separated integers, compact digit
strings when all letters are single digits, with "(10)"-style bracketed
multi-digit letters accepted.

Exit codes: 0 affirmative/success, 1 negative verdict, 2 usage or input
error, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import families, io
from .enumeration import (
    _minimal,
    generate,
    non_representable_members,
)
from .graphs import (
    Graph,
    add_apex,
    cartesian_product,
    complement,
    connect_by_edge,
    contract_edge,
    glue_at_vertex,
    line_graph,
    rooted_product,
    subdivide,
    substitute_module,
)
from .orientation import (
    find_semi_transitive,
    is_semi_transitive,
    is_word_representable,
    word_to_orientation,
)
from .outcome import BudgetExhausted, _Budget
from .repnum import (
    _representation,
    count_pattern_avoiding_representants,
    find_k_uniform_word,
    find_pattern_avoiding_word,
    permutational_representation_number,
    representation_number,
)
from .words import word_to_graph

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


_COMMA_WORD = re.compile(r"\d+(?:\s*,\s*\d+)*")
_COMPACT_WORD = re.compile(r"(?:\d|\(\d+\))+")


def parse_word(text):
    """Word literal: "1,2,13" or "1213423" or "138(10)7" mixes; anything
    else, such as "1x2x1" or "(10", is a ValueError."""
    text = text.strip()
    if _COMPACT_WORD.fullmatch(text):
        return tuple(int(a or b) for a, b in re.findall(r"\((\d+)\)|(\d)", text))
    if _COMMA_WORD.fullmatch(text):
        return tuple(int(p) for p in text.split(","))
    raise ValueError(f"cannot parse word literal {text!r}")


def format_word(w):
    return ",".join(str(c) for c in w) if w is not None else None


def parse_family(spec):
    """[family:]NAME[:PARAM] as (name, param), param None when absent."""
    name, _, param = spec.removeprefix("family:").partition(":")
    return name, int(param) if param else None


def parse_graph(spec):
    """family:NAME[:PARAM] | edges:N:U-V,U-V,... | path to a one-graph .g6/edge-list file."""
    if spec.startswith("family:"):
        return families.make(*parse_family(spec))
    if spec.startswith("edges:"):
        parts = spec.split(":", 2)
        n = int(parts[1])
        pairs = []
        if len(parts) > 2 and parts[2]:
            for chunk in parts[2].split(","):
                u, v = chunk.split("-")
                pairs.append((int(u), int(v)))
        return Graph(n, pairs)
    if os.path.exists(spec):
        with open(spec) as fh:
            text = fh.read()
        # no graph6 line starts with "#", which opens an edge-list comment
        lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
        first = lines[0] if lines else ""
        if spec.endswith(".g6") or spec.endswith(".graph6") or not re.match(r"^\d+\s+\d+$", first):
            if len(lines) > 1:
                raise ValueError(f"{spec} holds {len(lines)} graph6 lines; give one graph")
            return io.from_graph6(first)
        return io.from_edge_list_text(text)
    raise ValueError(f"cannot interpret graph spec {spec!r}")


def graph_payload(g, fmt):
    if fmt == "dot":
        return {"dot": io.to_dot(g)}
    if fmt == "graph6":
        return {"graph6": io.to_graph6(g)}
    if fmt == "edges":
        return {"n": g.n, "edges": [list(e) for e in g.edges()]}
    return {"n": g.n, "m": g.m, "edges": [list(e) for e in g.edges()]}


def orientation_payload(o):
    return [list(a) for a in o.arcs()]


def stats_payload(outcome):
    # every command requires a verdict first, so only a pattern search's
    # refutation within its multiplicity caps is not exhaustive
    return {
        "nodes_expanded": outcome.nodes_expanded,
        "elapsed": round(outcome.elapsed, 6),
        "exhaustive": not outcome.refuted or outcome.detail.get("exhaustive", True),
    }


def _budget_kw(args):
    return {"max_nodes": args.max_nodes, "max_seconds": args.max_seconds}


def cmd_check_word(args):
    w = parse_word(args.word)
    g = parse_graph(args.graph)
    verdict = word_to_graph(w) == g
    return {"verdict": verdict, "word": format_word(w)}, EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_word_graph(args):
    g = word_to_graph(parse_word(args.word))
    return {"verdict": True, **graph_payload(g, args.format)}, EXIT_OK


def cmd_orient_word(args):
    o = word_to_orientation(parse_word(args.word))
    payload = {
        "verdict": True,
        "witness_orientation": orientation_payload(o),
        "semi_transitive": is_semi_transitive(o),
    }
    if args.format == "dot":
        payload["dot"] = io.orientation_to_dot(o)
    return payload, EXIT_OK


def cmd_decide(args):
    g = parse_graph(args.graph)
    verdict = is_word_representable(g, **_budget_kw(args))
    return {"verdict": verdict}, EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_orient(args):
    g = parse_graph(args.graph)
    outcome = find_semi_transitive(g, **_budget_kw(args)).require_conclusive()
    # the route that settled the verdict, and a filter refutation's vertex
    payload = {"verdict": outcome.found, "stats": {**stats_payload(outcome), **outcome.detail}}
    if outcome.found:
        payload["witness_orientation"] = orientation_payload(outcome.witness)
        if args.format == "dot":
            payload["dot"] = io.orientation_to_dot(outcome.witness)
    return payload, EXIT_OK if outcome.found else EXIT_NEGATIVE


def cmd_represent(args):
    g = parse_graph(args.graph)
    if args.pattern and args.k is not None:
        raise ValueError("--pattern and --k cannot be combined")
    if args.pattern:
        outcome = find_pattern_avoiding_word(
            g, parse_word(args.pattern), **_budget_kw(args)
        ).require_conclusive()
        payload = {
            "verdict": outcome.found,
            "witness_word": format_word(outcome.witness),
            "stats": stats_payload(outcome),
            "caps": {str(k): v for k, v in outcome.detail["caps"].items()},
            "refutation_complete": outcome.detail["exhaustive"],
        }
        return payload, EXIT_OK if outcome.found else EXIT_NEGATIVE
    if args.k is not None:
        outcome = find_k_uniform_word(g, args.k, **_budget_kw(args)).require_conclusive()
        payload = {
            "verdict": outcome.found,
            "witness_word": format_word(outcome.witness),
            "stats": stats_payload(outcome),
        }
        return payload, EXIT_OK if outcome.found else EXIT_NEGATIVE
    k, witness = _representation(g, _Budget(**_budget_kw(args)))
    if witness is None:
        return {"verdict": False, "witness_word": None}, EXIT_NEGATIVE
    return {
        "verdict": True,
        "witness_word": format_word(witness),
        "k": k,
    }, EXIT_OK


def cmd_repnum(args):
    g = parse_graph(args.graph)
    k = representation_number(g, **_budget_kw(args))
    if k == float("inf"):
        return {"repnum": None, "verdict": False}, EXIT_NEGATIVE
    return {"repnum": k, "verdict": True}, EXIT_OK


def cmd_perm_repnum(args):
    g = parse_graph(args.graph)
    outcome = permutational_representation_number(g, **_budget_kw(args)).require_conclusive()
    stats = stats_payload(outcome)
    if outcome.found:
        return {
            "perm_repnum": outcome.detail["permutations"],
            "verdict": True,
            "witness_word": format_word(outcome.witness),
            "stats": stats,
        }, EXIT_OK
    return {"perm_repnum": None, "verdict": False, "stats": stats}, EXIT_NEGATIVE


def cmd_family(args):
    name, param = parse_family(args.spec)
    g = families.make(name, param)
    payload = graph_payload(g, args.format)
    word = families.known_representant(name, param)
    if word is not None:
        payload["known_representant"] = format_word(word)
    return payload, EXIT_OK


def cmd_op(args):
    name = args.name

    def needed(option):
        value = getattr(args, option)
        if value is None:
            raise ValueError(f"op {name} needs --{option}")
        return value

    g = parse_graph(args.graph)
    if name == "complement":
        result = complement(g)
    elif name == "line":
        result = line_graph(g)
    elif name == "apex":
        result = add_apex(g)
    elif name == "cartesian":
        result = cartesian_product(g, parse_graph(needed("other")))
    elif name == "rooted":
        result = rooted_product(g, parse_graph(needed("other")), args.root)
    elif name == "module":
        result = substitute_module(g, args.vertex, parse_graph(needed("other")))
    elif name == "subdivide":
        result = subdivide(g, tuple(needed("edge")), args.parts)
    elif name == "contract":
        result = contract_edge(g, tuple(needed("edge")))
    elif name == "glue":
        h = parse_graph(needed("other"))
        if args.mode == "at-vertex":
            result = glue_at_vertex(g, h, args.u, args.v)
        else:
            result = connect_by_edge(g, h, args.u, args.v)
    else:
        raise ValueError(f"unknown operation {name!r}")
    return graph_payload(result, args.format), EXIT_OK


def cmd_enumerate(args):
    corpus = generate(args.n, connected=not args.all)
    payload = {"n": args.n, "corpus_size": len(corpus), "connected": not args.all}
    if args.count_nonrep or args.minimal:
        # one census answers both questions
        members = non_representable_members(
            corpus, jobs=args.jobs, checkpoint=args.checkpoint, **_budget_kw(args)
        )
    if args.count_nonrep:
        payload["count_non_representable"] = len(members)
    if args.minimal:
        minimal = _minimal(members, **_budget_kw(args))
        payload["minimal_non_representable"] = [io.to_graph6(g) for g in minimal]
        payload["minimal_count"] = len(minimal)
    if args.list:
        payload["graph6"] = [io.to_graph6(g) for g in corpus]
    return payload, EXIT_OK


def cmd_pattern_count(args):
    g = parse_graph(args.graph)
    count = count_pattern_avoiding_representants(
        g, parse_word(args.pattern), args.max_len, **_budget_kw(args)
    )
    return {"count": count}, EXIT_OK


def build_parser():
    top = argparse.ArgumentParser(
        prog="wordrep",
        description="Word-representable graph toolkit: decision, synthesis, counts.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def budget_flags(p):
        p.add_argument("--max-nodes", type=int, default=None)
        p.add_argument("--max-seconds", type=float, default=None)

    p = sub.add_parser("check-word", help="verify a word against a graph")
    p.add_argument("word")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_check_word)

    p = sub.add_parser("word-graph", help="graph represented by a word")
    p.add_argument("word")
    p.add_argument("--format", choices=["json", "dot", "graph6", "edges"], default="json")
    p.set_defaults(func=cmd_word_graph)

    p = sub.add_parser("orient-word", help="leftmost-occurrence orientation of a word's graph")
    p.add_argument("word")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_orient_word)

    p = sub.add_parser("decide", help="decide word-representability")
    p.add_argument("graph")
    budget_flags(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("orient", help="find a semi-transitive orientation")
    p.add_argument("graph")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    budget_flags(p)
    p.set_defaults(func=cmd_orient)

    p = sub.add_parser("represent", help="find a representing word")
    p.add_argument("graph")
    p.add_argument("--k", type=int, default=None, help="search k-uniform words only")
    p.add_argument("--pattern", default=None, help="search words avoiding this pattern")
    budget_flags(p)
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("repnum", help="graph representation number")
    p.add_argument("graph")
    budget_flags(p)
    p.set_defaults(func=cmd_repnum)

    p = sub.add_parser("perm-repnum", help="least number of concatenated permutations")
    p.add_argument("graph")
    budget_flags(p)
    p.set_defaults(func=cmd_perm_repnum)

    p = sub.add_parser("family", help="build a named family graph")
    p.add_argument("spec", help="name:param, e.g. wheel:5 or family:petersen")
    p.add_argument("--format", choices=["json", "dot", "graph6", "edges"], default="json")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("op", help="apply a graph operation")
    p.add_argument(
        "name",
        choices=[
            "complement", "line", "cartesian", "rooted", "module",
            "apex", "subdivide", "contract", "glue",
        ],
    )
    p.add_argument("graph")
    p.add_argument("--other", help="second graph for binary operations")
    p.add_argument("--root", type=int, default=1, help="root vertex for rooted product")
    p.add_argument("--vertex", type=int, default=1, help="vertex to replace for module")
    p.add_argument("--edge", type=int, nargs=2, help="edge for subdivide/contract")
    p.add_argument("--parts", type=int, default=3, help="path edges for subdivide")
    p.add_argument("--mode", choices=["at-vertex", "by-edge"], default="at-vertex")
    p.add_argument("--u", type=int, default=1)
    p.add_argument("--v", type=int, default=1)
    p.add_argument("--format", choices=["json", "dot", "graph6", "edges"], default="json")
    p.set_defaults(func=cmd_op)

    p = sub.add_parser("enumerate", help="non-isomorphic graph corpus and censuses")
    p.add_argument("n", type=int)
    p.add_argument("--all", action="store_true", help="include disconnected graphs")
    p.add_argument("--count-nonrep", action="store_true")
    p.add_argument("--minimal", action="store_true")
    p.add_argument("--list", action="store_true", help="emit the corpus as graph6")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--jobs", type=int, default=1)
    budget_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("pattern-count", help="count pattern-avoiding representants")
    p.add_argument("graph")
    p.add_argument("--pattern", required=True)
    p.add_argument("--max-len", type=int, required=True)
    budget_flags(p)
    p.set_defaults(func=cmd_pattern_count)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args)
    except BudgetExhausted as exc:
        payload, code = {"verdict": None, "error": str(exc)}, EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    try:
        print(json.dumps({"command": args.command, **payload}, indent=2), flush=True)
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does; point stdout at
        # devnull so that the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
