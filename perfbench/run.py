#!/usr/bin/env python3
"""ebdyn benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload divisibility --seed 1 --seconds 55 --trace 0

One closed-loop client drives ebdyn's public API in this process: the next
analysis starts when the previous one returns.  The timed phase repeats
whole passes over the workload's analyses, at least MIN_PASSES of them,
for as long as the next pass should end within ``--seconds``, so every run
measures the same mix.  BLAS is pinned to one thread before numpy loads.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate; the JSON holds the per-layer metrics (per traced pass) and the
tracing overhead, and the spans go to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from tracer import FUNCTIONS, Tracer

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("arrival", "divisibility", "classify")
MIN_SAMPLES = 100  # p90 then has at least ten samples beyond it
MIN_PASSES = 3
SETUP_REPEATS = 5
IMPORT_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import numpy, scipy.linalg, scipy.integrate; "
    "from ebdyn import matcore, superop, classify, families, evolve, "
    "asymptotics, divisibility, cli"
)


class Result:
    __slots__ = ("name", "outcome", "failure", "value", "latency")

    def __init__(self, name, outcome, failure, value, latency):
        self.name = name
        self.outcome = outcome
        self.failure = failure
        self.value = value
        self.latency = latency


def run_pass(groups, tracer=None):
    """Run every analysis once, in order; return (records, wall seconds)."""
    records = []
    t_begin = perf_counter()
    for g in groups:
        state = g.start()
        results = []
        for name, fn in g.analyses:
            if tracer is not None:
                tracer.begin_analysis({"group": g.label, "analysis": str(name),
                                       "kind": g.kind, "d": g.d})
            t0 = perf_counter()
            try:
                value, outcome = fn(state)
            except Exception as exc:  # any exception is a failed analysis
                latency = perf_counter() - t0
                failure = type(exc).__name__
                value, outcome = f"{failure}: {exc}", "failed"
            else:
                latency = perf_counter() - t0
                failure = None
            results.append(Result(name, outcome, failure, value, latency))
        finished = None
        if g.finish is not None:
            if tracer is not None:
                tracer.begin_analysis({"group": g.label, "analysis": "finish",
                                       "kind": g.kind, "d": g.d})
            finished = g.finish(state, results)
        records.append((g, results, finished))
    return records, perf_counter() - t_begin


def check_passes(passes, digest):
    """Output checks of the first pass; later passes must repeat it exactly."""
    problems = []
    first = passes[0]
    for g, results, finished in first:
        problems += [f"{g.label}: {p}" for p in g.check(results, finished)]
    for later in passes[1:]:
        for (g, want, _), (_, got, _) in zip(first, later):
            for a, b in zip(want, got):
                if (a.outcome, a.failure) != (b.outcome, b.failure) or (
                        a.failure is None and digest(a.value) != digest(b.value)):
                    problems.append(f"{g.label} {a.name}: result differs between passes")
    return problems


def measure_import():
    """Median wall time of a fresh interpreter importing numpy, scipy and ebdyn."""
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, SRC], check=True, cwd=ROOT)
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


def percentile_ms(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values), q)) * 1e3


def outcome_lines(passes):
    counts = {}
    first_message = {}
    for records in passes:
        for _g, results, _ in records:
            for r in results:
                key = f"failed:{r.failure}" if r.failure else r.outcome
                counts[key] = counts.get(key, 0) + 1
                if r.failure:
                    first_message.setdefault(key, r.value)
    lines = []
    for key in sorted(counts):
        line = f"  {key:<32} {counts[key]}"
        if key in first_message:
            line += f"   e.g. {first_message[key][:100]}"
        lines.append(line)
    return lines


def end_to_end(groups, seconds, setup_s, digest):
    """Timed passes; each analysis's latency is its best over the passes.

    Identical passes on a shared 2-core VM vary by up to 50% in wall time,
    because other tenants slow the whole machine for seconds at a time.
    Interference only ever adds time, so the lowest of an analysis's
    repeated latencies is its steadiest estimate.
    """
    passes = []
    walls = []
    t_begin = perf_counter()
    # a pass starts only when it should end within the time, going by the last
    while len(passes) < MIN_PASSES or perf_counter() - t_begin + walls[-1] <= seconds:
        records, wall = run_pass(groups)
        passes.append(records)
        walls.append(wall)
    problems = check_passes(passes, digest)
    slots = [r for _g, results, _ in passes[0] for r in results]
    lat = [[] for _ in slots]
    for records in passes:
        for i, r in enumerate(r for _g, results, _ in records for r in results):
            lat[i].append(r.latency)
    typical = [min(x) for x in lat]
    done = [t for t, r in zip(typical, slots) if r.failure is None]
    attempted = len(slots) * len(passes)
    failed = sum(r.failure is not None for records in passes
                 for _g, results, _ in records for r in results)
    completed = attempted - failed
    metrics = {
        "analyses_per_s": (len(done) / sum(typical), "1/s"),
        "analysis_p50_ms": (percentile_ms(done, 50), "ms"),
        "analysis_p90_ms": (percentile_ms(done, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "completed_frac": (completed / attempted, "ratio"),
    }
    if len(done) < MIN_SAMPLES:
        problems.append(f"only {len(done)} completed analyses per pass; "
                        f"p90 needs {MIN_SAMPLES}")
    report = [
        f"passes: {len(passes)}, timed wall {sum(walls):.3f} s "
        f"({', '.join(f'{w:.2f}' for w in walls)}), "
        f"attempted {attempted}, completed {completed}, failed {failed}",
        "outcomes:",
        *outcome_lines(passes),
        "end-to-end metrics:",
        *(f"  {name:<20} {value:.6g} {unit}" for name, (value, unit) in metrics.items()),
        f"  (failed_frac = {failed / attempted:.6g}; each analysis's latency is its best "
        f"of {len(passes)} passes; percentiles are over the {len(done)} analyses of a "
        f"pass that completed"
        + ("; counting failures as +inf, p90 = inf)" if len(done) < 0.9 * len(slots) else ")"),
    ]
    return metrics, attempted, failed, problems, report


def traced(groups_plain, groups_traced, tracer, seconds, digest):
    passes = []
    walls = {False: [], True: []}
    attempted = failed = 0
    t_begin = perf_counter()
    pair = 0
    while True:
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                tracer.active = True
                records, wall = run_pass(groups_traced, tracer)
                tracer.active = False
                tracer.uninstall()
            else:
                records, wall = run_pass(groups_plain)
            walls[with_trace].append(wall)
            passes.append(records)
            if with_trace:
                for _g, results, _ in records:
                    attempted += len(results)
                    failed += sum(r.failure is not None for r in results)
        pair += 1
        pair_wall = walls[False][-1] + walls[True][-1]
        if perf_counter() - t_begin + pair_wall > seconds:
            break
    problems = check_passes(passes, digest)
    metrics, report = layer_metrics(tracer, walls, attempted)
    report = [
        f"pairs of untraced and traced passes: {pair}",
        "outcomes (all passes):",
        *outcome_lines(passes),
        *report,
    ]
    return metrics, attempted, failed, problems, report


def layer_metrics(tracer, walls, attempted):
    n = len(walls[True])
    metrics = {}
    for name in FUNCTIONS:
        calls, self_s = tracer.stat(name)
        metrics[f"{name}.calls"] = (calls / n, "calls/pass")
        metrics[f"{name}.self_s"] = (self_s / n, "s/pass")
    for name in ("matcore.herm_eig", "matcore.expm"):
        metrics[f"{name}.n3"] = (tracer.n3[tracer.key_of[name]] / n, "n3/pass")
    solves = tracer.stat("evolve.solve")[0]
    metrics["evolve.solve.hit_ratio"] = (tracer.solve_hits / solves if solves else 0.0, "ratio")
    witnesses = tracer.stat("asymptotics.cone_witness")[0] + tracer.stat("classify.classify_map")[0]
    for name in ("superop.to_choi", "matcore.herm_eig"):
        calls = tracer.stat(name)[0]
        metrics[f"{name}.per_witness"] = (calls / witnesses if witnesses else 0.0, "1/witness")
    metrics["asymptotics.cone_witness.per_analysis"] = (
        tracer.stat("asymptotics.cone_witness")[0] / attempted, "1/analysis")
    # best pass of each kind, as for the end-to-end latencies
    untraced, traced_s = min(walls[False]), min(walls[True])
    metrics["trace.overhead_s"] = (traced_s - untraced, "s/pass")
    metrics["trace.overhead_frac"] = (traced_s / untraced - 1.0, "ratio")

    report = [
        f"traced passes: {n}; best pass untraced {untraced:.3f} s, traced {traced_s:.3f} s",
        "per-layer metrics (per traced pass; n3 is computed from matrix sides):",
        *(f"  {name:<48} {value:.6g} {unit}" for name, (value, unit) in metrics.items()),
        "per-call self time by family dimension d:",
    ]
    for name in ("matcore.herm_eig", "matcore.expm", "superop.to_choi"):
        k = tracer.key_of[name]
        cells = sorted((d, c) for (key, d), c in tracer.by_d.items() if key == k)
        for d, (calls, self_s) in cells:
            report.append(f"  {name:<20} d={d}  calls/pass {calls / n:10.1f}  "
                          f"{1e6 * self_s / calls:9.2f} us/call")
    report.append("Choi eigensolves per witness, by cone (matcore.herm_eig / cone_witness):")
    k_w, k_h = tracer.key_of["asymptotics.cone_witness"], tracer.key_of["matcore.herm_eig"]
    for cone, calls in sorted(tracer.by_cone.items()):
        report.append(f"  {cone:<5} {calls[k_h] / calls[k_w]:.4f}  "
                      f"({calls[k_w] / n:.1f} witnesses per pass)")
    report.append("expm calls against propagator_at + map_at calls per pass, by family kind:")
    k_e, k_p, k_m = (tracer.key_of[f] for f in
                     ("matcore.expm", "families.propagator_at", "families.map_at"))
    for kind in sorted({kind for kind, _ in tracer.by_kind}):
        e, p, m = (tracer.by_kind[(kind, key)] / n for key in (k_e, k_p, k_m))
        report.append(f"  {kind:<22} expm {e:9.1f}   propagator_at {p:9.1f} + map_at {m:9.1f} "
                      f"= {p + m:9.1f}")
    return metrics, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ebdyn", "__init__.py")):
        print(f"error: no ebdyn sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    t_import = perf_counter()
    sys.path.insert(0, SRC)
    import workloads
    import_s = perf_counter() - t_import

    workdir = os.path.join(OUT, args.workload)
    os.makedirs(workdir, exist_ok=True)
    build = workloads.WORKLOADS[args.workload]

    if args.trace:
        groups = build(args.seed, workdir, ROOT)
        tracer = Tracer()
        tracer.install()
        groups_traced = build(args.seed, workdir, ROOT)
        tracer.uninstall()
        metrics, attempted, failed, problems, report = traced(
            groups, groups_traced, tracer, args.seconds, workloads.digest)
        spans_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        report.append(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        build_walls = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            groups = build(args.seed, workdir, ROOT)
            build_walls.append(perf_counter() - t0)
        fresh_import_s = measure_import()
        setup_s = fresh_import_s + statistics.median(build_walls)
        metrics, attempted, failed, problems, report = end_to_end(
            groups, args.seconds, setup_s, workloads.digest)
        report.insert(0, f"setup: fresh-interpreter import {fresh_import_s:.3f} s (median of "
                         f"{SETUP_REPEATS}), inputs and families {statistics.median(build_walls):.3f} s "
                         f"(median of {SETUP_REPEATS}); in-process import {import_s:.3f} s")

    print(f"workload {args.workload}, seed {args.seed}, {len(groups)} groups, "
          f"{sum(len(g.analyses) for g in groups)} analyses per pass")
    for line in report:
        print(line)
    if problems:
        print(f"output checks: {len(problems)} problems")
        for p in problems[:20]:
            print(f"  {p}")
    else:
        print("output checks: all passed")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
