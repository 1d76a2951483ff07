"""Runs one benchmark workload against the wordrep sources of this checkout
and prints its metrics.

    python3 perfbench/run.py --workload census-n8 --seed 1 --seconds 30 --trace 0

With --trace 0 the workload's pass is repeated while another pass still
fits in --seconds (at least once), and the end-to-end metrics are reported.
Durations are reported at the reference speed of perfbench/speed.py; the raw
ones are printed too, prefixed "raw.".
With --trace 1 one untraced and one traced pass run, and the per-layer
metrics are reported; the spans are written to perfbench/out/.  Every pass
is checked against independent oracles.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 1 when a check failed and 2 when there is nothing to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 5


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wordrep", "__init__.py")):
        print(f"no wordrep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    import wordrep

    if os.path.dirname(os.path.dirname(os.path.abspath(wordrep.__file__))) != SRC:
        print(f"imported wordrep from {wordrep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads

    workload = workloads.FULL[args.workload]
    setup_s = measure_setup(args.workload, args.seed)
    inputs = workload.build(args.seed)
    failures = []
    if setup_s["inputs_digests"] != {workloads.inputs_digest(inputs)}:
        failures.append("the same seed built different inputs")
    if args.trace:
        report = traced_run(workload, inputs, args)
        names = spec["per_layer"]
    else:
        report = untraced_run(workload, inputs, args)
        report["metrics"]["setup_s"] = setup_s["median"]
        report["metrics"]["raw.setup_s"] = setup_s["raw_median"]
        names = spec["end_to_end"]
    failures += report.pop("failures")
    report["metrics"]["peak_rss_mb"] = peak_rss_mb()
    failed = min(report["attempted"], len(failures))
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        fingerprint=fingerprint(),
        setup_samples=setup_s["samples"],
        failed=failed,
        failures=failures[:50],
    )
    if not args.trace:
        # Every pass gives the same outputs, so the first pass's rate is the run's.
        report["metrics"]["fail_frac"] = min(
            1.0, (failed + report["counts"].get("budget_exhausted", 0)) / report["per_pass"]
        )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print_report(report, units)
    workloads.OUT.mkdir(exist_ok=True)
    path = workloads.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": report["attempted"],
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
                    for m in names
                },
            }
        )
    )
    return 1 if failures else 0


def measure_setup(name, seed):
    """Median set-up time over fresh interpreters: imports plus inputs."""
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "setup_probe.py"), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return {
        "median": statistics.median(s["setup_s"] * s["speed"] for s in samples),
        "raw_median": statistics.median(s["setup_s"] for s in samples),
        "samples": samples,
        "inputs_digests": {s["inputs_digest"] for s in samples},
    }


def untraced_run(workload, inputs, args):
    passes, failures = [], []
    start = perf_counter()
    while not passes or (
        perf_counter() - start + statistics.median(p.wall_s for p in passes) <= args.seconds
    ):
        p = workload.run(inputs)
        if not passes:
            failures = workload.check(inputs, p)
        elif (p.digest, p.nodes) != (passes[0].digest, passes[0].nodes):
            failures.append(f"pass {len(passes) + 1} gave other verdicts, witnesses or node counts")
        p.outputs = None  # so that peak memory does not grow with the number of passes
        passes.append(p)
    first = passes[0]
    metrics = {}
    for prefix, scale in (("", lambda p: p.speed), ("raw.", lambda p: 1.0)):
        latencies = [t * scale(p) for p in passes for t in p.latencies_s]
        if len(latencies) > 1:
            cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        else:  # one census job
            cuts = latencies * 99
        metrics[prefix + "wall_s"] = statistics.median(p.wall_s * scale(p) for p in passes)
        metrics[prefix + "op_p50_ms"] = cuts[49] * 1e3
        metrics[prefix + "op_p99_ms"] = cuts[98] * 1e3
        for k in first.phases:
            metrics[prefix + k] = statistics.median(p.phases[k] * scale(p) for p in passes)
    return {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_speed": [p.speed for p in passes],
        "attempted": sum(p.attempted for p in passes),
        "per_pass": first.attempted,
        "ops_timed": sum(len(p.latencies_s) for p in passes),
        "metrics": metrics,
        "counts": first.counts,
        "nodes": first.nodes,
        "digest": first.digest,
        "failures": failures,
    }


def traced_run(workload, inputs, args):
    from perfbench import tracing, workloads

    variant = workload.for_tracing()
    reference = variant.run(inputs)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = variant.run(inputs)
    failures = variant.check(inputs, traced)
    if (traced.digest, traced.nodes) != (reference.digest, reference.nodes):
        failures.append("the traced pass gave other verdicts, witnesses or node counts")
    spans = workloads.OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    workloads.OUT.mkdir(exist_ok=True)
    tracer.write_spans(spans)
    metrics = tracing.per_layer_metrics(tracer, traced, reference)
    metrics["trace.untraced_wall_s"] = reference.wall_s
    return {
        "passes": 1,
        "attempted": traced.attempted,
        "metrics": metrics,
        "layers": tracer.layers(),
        "layer_counts": {k: dict(v) for k, v in tracer.counts.items() if v},
        "counts": traced.counts,
        "untraced_phases_s": reference.phases,
        "nodes": traced.nodes,
        "digest": traced.digest,
        "spans": os.path.relpath(spans, ROOT),
        "span_count": len(tracer.start),
        "failures": failures,
    }


def peak_rss_mb():
    """Peak resident memory of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def fingerprint():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or commit
    sources = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(SRC, "wordrep"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "wordrep", name), "rb") as fh:
                sources.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def print_report(report, units):
    fp = report["fingerprint"]
    print(
        f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
        f"passes {report['passes']}  attempted {report['attempted']}  failed {report['failed']}"
    )
    print(
        f"machine  nproc {fp['nproc']}  cpu {fp['cpu']}  python {fp['python']}  "
        f"commit {fp['commit']}  src {fp['src_sha256'][:12]}"
    )
    for name, value in report["metrics"].items():
        unit = units.get(name.removeprefix("raw.")) or ("s" if name.endswith("_s") else "frac")
        note = ""
        if name.startswith("op_p"):
            note = f"  (of {report['ops_timed']} operations)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_RUNS} fresh interpreters)"
        print(f"  {name:<44} {value:>16.6g} {unit}{note}")
    print(f"  nodes  {report['nodes']}")
    print(f"  counts {report['counts']}")
    print(f"  digest {report['digest']}")
    if "layers" in report:
        print(f"  {'span':<40} {'calls':>9} {'total_s':>10} {'self_s':>10}")
        rows = sorted(report["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in (r for r in rows if r[1]["calls"]):
            print(f"  {name:<40} {row['calls']:>9} {row['s']:>10.4f} {row['self_s']:>10.4f}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


if __name__ == "__main__":
    sys.exit(main())
