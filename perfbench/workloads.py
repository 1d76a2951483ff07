"""The benchmark's workloads.

Each workload builds its inputs from a seed (`build`), runs one measured pass
over them through wordrep's public API (`run`), and checks a pass's outputs
against the independent oracles of `perfbench.oracles` (`check`, which
returns one message per failed check).  `FULL` holds the sizes the benchmark
runs; the harness tests use smaller instances of the same classes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Library functions are called through their modules, so that the traced run
# sees the wrappers it installs there.
from wordrep import enumeration, families, graphs, io, orientation, repnum
from wordrep.outcome import BudgetExhausted

from perfbench import oracles
from perfbench.speed import Speed

OUT = Path(__file__).resolve().parent / "out"
BUDGET = "budget_exhausted"


@dataclass
class Pass:
    """What one measured pass produced.  Durations are raw seconds;
    `speed` converts them to seconds at the reference speed."""

    wall_s: float
    speed: float
    attempted: int
    latencies_s: list  # one per operation
    outputs: object  # what the checks inspect
    digest: str  # of every verdict and witness, in input order
    nodes: dict  # search nodes, by search
    phases: dict = field(default_factory=dict)  # named sub-timings, seconds
    counts: dict = field(default_factory=dict)


def digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def run_ops(thunks):
    """Calls each thunk in turn, timing it, with reference samples in
    between.  An operation that raises yields ("error", message) as its
    output, or BUDGET when a search budget ran out, so that one failure does
    not stop the pass.  Returns (wall, speed factor, outputs, latencies)."""
    outputs, latencies = [], []
    speed = Speed()
    start = perf_counter()
    for thunk in thunks:
        speed.tick()
        t = perf_counter()
        try:
            out = thunk()
        except BudgetExhausted:
            out = BUDGET
        except Exception as exc:  # reported by the checks, the pass goes on
            out = ("error", f"{type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - t)
        outputs.append(out)
    return perf_counter() - start - speed.spent_s, speed.factor(), outputs, latencies


def is_error(out):
    return isinstance(out, tuple) and len(out) == 2 and out[0] == "error"


@dataclass(frozen=True)
class Census:
    """generate(n), census(jobs, checkpoint) over the corpus in a seeded
    order, then a second census that resumes from the finished checkpoint.

    The whole job is one operation: its users wait for the counts, not for
    single verdicts, which arrive in batches from the worker pool."""

    n: int = 8
    jobs: int = 2

    def build(self, seed):
        return {"n": self.n, "seed": seed}

    def for_tracing(self):
        # Worker processes would take their spans with them.
        return dataclasses.replace(self, jobs=1)

    def run(self, inputs):
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="census-", dir=OUT))
        checkpoint = workdir / f"n{self.n}.ckpt"
        decided = []
        speed = Speed()
        speed.sample()
        try:
            t0 = perf_counter()
            spent = speed.spent_s
            with speed.sampling():
                corpus = enumeration.generate(self.n)
            t1 = perf_counter()
            generate_s = t1 - t0 - (speed.spent_s - spent)
            members = list(corpus)
            random.Random(inputs["seed"]).shuffle(members)
            shuffled = enumeration.Corpus(
                corpus.n, members, corpus.provenance, corpus.connected_only
            )
            # No sampling thread here: the main process has nothing to do
            # but wait, and a sampler would take a core from the workers.
            t2 = perf_counter()
            verdicts = enumeration.census(
                shuffled,
                jobs=self.jobs,
                checkpoint=str(checkpoint),
                progress=lambda done, total: decided.append(done),
            )
            t3 = perf_counter()
            spent = speed.spent_s
            with speed.sampling():
                resumed = enumeration.census(
                    shuffled, jobs=self.jobs, checkpoint=str(checkpoint)
                )
            resume_s = perf_counter() - t3 - (speed.spent_s - spent)
            size = checkpoint.stat().st_size
            lines = checkpoint.read_text().splitlines()
        finally:
            shutil.rmtree(workdir)
        phases = {"generate_s": generate_s, "census_s": t3 - t2, "resume_s": resume_s}
        wall = sum(phases.values())
        return Pass(
            wall_s=wall,
            speed=speed.factor(),
            attempted=1,
            latencies_s=[wall],
            outputs={
                "members": members,
                "verdicts": verdicts,
                "resumed": resumed,
                "decided": len(decided),
                "checkpoint_lines": len(lines),
            },
            digest=digest(sorted(verdicts.items())),
            nodes={"census": sum(int(line.split("\t")[2]) for line in lines)},
            phases=phases,
            counts={"checkpoint_bytes": size, "checkpoint_lines": len(lines)},
        )

    def check(self, inputs, p):
        out = p.outputs
        members, verdicts = out["members"], out["verdicts"]
        expected = oracles.CONNECTED_GRAPHS[self.n]
        failures = []
        if len(members) != expected:
            failures.append(f"generate({self.n}) gave {len(members)} graphs, not {expected}")
        if len(verdicts) != expected:
            failures.append(f"census has {len(verdicts)} classes, not {expected}")
        nonrep = sum(v == "non_representable" for v in verdicts.values())
        if nonrep != oracles.NON_REPRESENTABLE[self.n]:
            failures.append(
                f"{nonrep} non-representable, not {oracles.NON_REPRESENTABLE[self.n]}"
            )
        if out["resumed"] != verdicts:
            failures.append("the resumed census changed the verdicts")
        if out["decided"] != expected or out["checkpoint_lines"] != expected:
            failures.append("the census did not decide and record every graph once")
        for g in members:
            if g.n != self.n or not oracles.is_connected(g.n, g.adj):
                failures.append(f"not a connected {self.n}-vertex graph: {g!r}")
            elif verdicts.get(graphs.canonical_form(g).hex()) != "representable" and (
                oracles.three_colorable(g.n, g.adj)
            ):
                failures.append(f"3-colourable but not decided representable: {g!r}")
        return failures


@dataclass(frozen=True)
class Atlas:
    """representation_number on the connected atlas graphs of the given
    sizes, each relabeled at random; pattern-avoiding searches on the
    connected atlas graphs of other sizes; representation_number of the
    Petersen graph within a node budget."""

    repnum_sizes: tuple = (7,)
    pattern_sizes: tuple = (6,)
    patterns: tuple = ((1, 3, 2), (1, 2, 3))
    petersen_max_nodes: int | None = 200_000

    def build(self, seed):
        import networkx as nx

        rng = random.Random(seed)

        def relabel(h):
            perm = list(range(1, h.number_of_nodes() + 1))
            rng.shuffle(perm)
            return graphs.Graph(len(perm), [(perm[u], perm[v]) for u, v in h.edges()])

        atlas = [h for h in nx.graph_atlas_g()[1:] if nx.is_connected(h)]
        return {
            "repnum": [relabel(h) for h in atlas if h.number_of_nodes() in self.repnum_sizes],
            "pattern": [relabel(h) for h in atlas if h.number_of_nodes() in self.pattern_sizes],
            "petersen": families.petersen() if self.petersen_max_nodes else None,
        }

    def for_tracing(self):
        return self

    def run(self, inputs):
        thunks = [lambda g=g: repnum.representation_number(g) for g in inputs["repnum"]]
        for t in self.patterns:
            thunks += [
                lambda g=g, t=t: _pattern_result(repnum.find_pattern_avoiding_word(g, t))
                for g in inputs["pattern"]
            ]
        if inputs["petersen"] is not None:
            thunks.append(
                lambda: repnum.representation_number(
                    inputs["petersen"], max_nodes=self.petersen_max_nodes
                )
            )
        wall, speed, outputs, latencies = run_ops(thunks)
        k = len(inputs["repnum"])
        m = len(inputs["pattern"])
        nodes = {}
        for i, t in enumerate(self.patterns):
            results = outputs[k + i * m : k + (i + 1) * m]
            nodes["pattern_" + "".join(map(str, t))] = sum(
                r[2] for r in results if isinstance(r, tuple) and len(r) == 3
            )
        return Pass(
            wall_s=wall,
            speed=speed,
            attempted=len(thunks),
            latencies_s=latencies,
            outputs=outputs,
            digest=digest(outputs),
            nodes=nodes,
            counts={"budget_exhausted": sum(out == BUDGET for out in outputs)},
        )

    def check(self, inputs, p):
        failures = []
        members = inputs["repnum"]
        numbers = p.outputs[: len(members)]
        expected = Counter()
        for n in self.repnum_sizes:
            expected.update(oracles.REPRESENTATION_NUMBERS[n])
        if Counter(numbers) != expected:
            failures.append(f"representation numbers {dict(Counter(numbers))}, not {dict(expected)}")
        infinite = sum(oracles.NON_REPRESENTABLE[n] for n in self.repnum_sizes)
        if numbers.count(math.inf) != infinite:
            failures.append(f"{numbers.count(math.inf)} graphs with no representant, not {infinite}")
        for g, k in zip(members, numbers):
            if is_error(k) or k == BUDGET or (k == 1) != oracles.is_complete(g.n, g.adj):
                failures.append(f"representation_number({g!r}) = {k!r}")
        rest = p.outputs[len(members) :]
        for i, t in enumerate(self.patterns):
            for g, out in zip(inputs["pattern"], rest[i * len(inputs["pattern"]) :]):
                if is_error(out) or out == BUDGET or out[0] == BUDGET:
                    failures.append(f"{t}-avoiding search on {g!r}: {out!r}")
                elif out[1] is not None and not (
                    oracles.represents(out[1], g.n, g.adj)
                    and not oracles.contains_pattern(out[1], t)
                ):
                    failures.append(f"bad {t}-avoiding witness {out[1]} for {g!r}")
        if inputs["petersen"] is not None and p.outputs[-1] not in (3, BUDGET):
            failures.append(f"Petersen representation number {p.outputs[-1]!r}")
        return failures


def _pattern_result(outcome):
    return (outcome.status, outcome.witness, outcome.nodes_expanded)


# Family members mixed into the decide stream, with their known verdicts.
STREAM_FAMILIES = (
    ("petersen", families.petersen, (), True),
    ("wheel", families.wheel, (5, 7, 9), False),  # odd wheels W5, W7, W9
    ("prism", families.prism, (3, 4, 5, 6), True),  # 3-colourable
    ("crown", families.crown, (3, 4, 5, 6), True),  # bipartite
    ("co_t2", families.co_t2, (), False),
    ("max_degree_four", families.max_degree_four_counterexample, (), False),
)


@dataclass(frozen=True)
class Stream:
    """graph6 strings decided one at a time: from_graph6, then
    is_word_representable, then find_semi_transitive for the representable
    ones.  Mostly random connected graphs on 9-12 vertices with edge
    densities 0.3-0.8, plus family members with known verdicts."""

    count: int = 10_000
    family_copies: int = 5

    def build(self, seed):
        items = []
        for name, make, params, verdict in STREAM_FAMILIES:
            for g in [make(k) for k in params] if params else [make()]:
                items += [(name, g.n, g.adj, verdict)] * self.family_copies
        rng = random.Random(seed)
        while len(items) < self.count:
            n = rng.randint(9, 12)
            p = rng.uniform(0.3, 0.8)
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            adj = oracles.masks_from_edges(n, [e for e in pairs if rng.random() < p])
            if oracles.is_connected(n, adj):
                items.append((None, n, adj, None))
        rng.shuffle(items)
        return [(name, n, adj, verdict, oracles.graph6(n, adj)) for name, n, adj, verdict in items]

    def for_tracing(self):
        return self

    def run(self, inputs):
        wall, speed, outputs, latencies = run_ops(
            [lambda s=item[4]: _decide(s) for item in inputs]
        )
        return Pass(
            wall_s=wall,
            speed=speed,
            attempted=len(inputs),
            latencies_s=latencies,
            outputs=outputs,
            digest=digest(outputs),
            nodes={"semi_transitive": sum(o[4] for o in outputs if not is_error(o))},
        )

    def check(self, inputs, p):
        failures = []
        for (name, n, adj, verdict, text), out in zip(inputs, p.outputs):
            if is_error(out):
                failures.append(f"{text}: {out[1]}")
                continue
            got_n, got_adj, representable, succ, _ = out
            if (got_n, got_adj) != (n, adj):
                failures.append(f"from_graph6({text!r}) decoded another graph")
            elif representable and not (succ and oracles.is_semi_transitive(n, adj, succ)):
                failures.append(f"{text}: representable without a semi-transitive witness")
            elif not representable and oracles.three_colorable(n, adj):
                failures.append(f"{text}: 3-colourable but decided non-representable")
            elif verdict is not None and representable != verdict:
                failures.append(f"{name} {text}: decided {representable}, known {verdict}")
        return failures


def _decide(text):
    g = io.from_graph6(text)
    if not orientation.is_word_representable(g):
        return (g.n, g.adj, False, None, 0)
    outcome = orientation.find_semi_transitive(g)
    witness = outcome.witness.succ if outcome.found else None
    return (g.n, g.adj, True, witness, outcome.nodes_expanded)


def inputs_digest(inputs):
    if isinstance(inputs, dict):
        return digest(sorted(inputs.items(), key=lambda kv: kv[0]))
    return digest(inputs)


FULL = {
    "census-n8": Census(),
    "repnum-atlas": Atlas(),
    "decide-stream": Stream(),
}
