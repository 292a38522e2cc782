"""Fold paired benchmark runs into one BENCH_<n>.json record.

Each run is the saved standard output of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

whose first line names the workload and the seed and whose last line is the
JSON result.  Runs are given in pairs, the parent commit's run first and the
change's run second, one pair per seed; pairs of several workloads may be
mixed.  For every end-to-end metric that BENCHMARK.json lists, the record
holds each side's median and interquartile range over the pairs, the number
of pairs, the number the change won (ties count for neither side) and a
verdict (see :func:`verdict`).

Pairs of ``--trace 1`` runs may be mixed in as well.  Their per-layer
metrics (those BENCHMARK.json lists, per traced pass) are folded the same
way into the record's ``layers`` section, without a verdict: per-layer
metrics have no bound.

    python3 tools/fold_bench.py --out BENCH_6.json --seconds 55 \\
        --machine "2-core x86-64 VM, Python 3.11, BLAS on one thread" \\
        parent_s1.txt change_s1.txt parent_s2.txt change_s2.txt ...
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
HEADER = re.compile(r"workload (\w+), seed (-?\d+),")


def read_run(path):
    """(workload, seed, result) of one saved run."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    match = HEADER.match(lines[0]) if lines else None
    if match is None:
        raise ValueError(f"{path}: first line does not name a workload and a seed")
    return match.group(1), int(match.group(2)), json.loads(lines[-1])


def is_traced(result):
    """Whether a run was made with ``--trace 1``: it reports per-layer metrics."""
    return "trace.overhead_s" in result["metrics"]


def summary(values):
    """Median, quartiles and interquartile range (inclusive quartiles)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def verdict(parent, change, wins, pairs, better, bound):
    """``gain``, ``regression``, ``unresolved`` or ``within_bound`` for one row.

    A gain needs the change to win at least nine tenths of the pairs and the
    medians to differ, in the better direction, by more than the parent's
    interquartile range.  A regression is a change median worse than the
    parent's by more than ``bound`` (a fraction of the parent's median).  A
    row whose parent spread (IQR over median) exceeds the bound is
    unresolved, unless every run of the change reads better than every run
    of the parent; any other row is within its bound.
    """
    sign = 1.0 if better == "higher" else -1.0
    step = sign * (change["median"] - parent["median"])
    scale = abs(parent["median"])
    if wins >= 0.9 * pairs and step > parent["iqr"]:
        return "gain"
    if step < -bound * scale:
        return "regression"
    if parent["iqr"] > bound * scale and not (
            min(sign * v for v in change["runs"]) > max(sign * v for v in parent["runs"])):
        return "unresolved"
    return "within_bound"


def fold(paths, metrics, traced=False):
    """Rows of the record from run files in (parent, change) order.

    The rows fold the untraced pairs over the end-to-end ``metrics``, or with
    ``traced`` the ``--trace 1`` pairs over the per-layer ``metrics``; rows of
    per-layer metrics carry no verdict.
    """
    if len(paths) % 2:
        raise ValueError("runs come in pairs: parent, then change")
    pairs = {}
    for parent_path, change_path in zip(paths[::2], paths[1::2]):
        parent, change = read_run(parent_path), read_run(change_path)
        if parent[:2] != change[:2]:
            raise ValueError(f"{parent_path} and {change_path} differ in workload or seed")
        if is_traced(parent[2]) != is_traced(change[2]):
            raise ValueError(f"{parent_path} and {change_path}: one run is traced, one is not")
        if is_traced(parent[2]) == traced:
            pairs.setdefault(parent[0], []).append((parent[1], parent[2], change[2]))
    rows = []
    for workload, runs in pairs.items():
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            before = [p["metrics"][name]["value"] for _, p, _ in runs]
            after = [c["metrics"][name]["value"] for _, _, c in runs]
            parent, change = summary(before), summary(after)
            wins = sum(sign * (a - b) > 0 for a, b in zip(after, before))
            row = {
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": parent,
                "change": change,
                "pairs": len(runs),
                "wins": wins,
                "seeds": [seed for seed, _, _ in runs],
                "correct": all(p["correct"] and c["correct"] for _, p, c in runs),
            }
            if not traced:
                row["verdict"] = verdict(parent, change, wins, len(runs), metric["better"],
                                         metric["bound"])
            rows.append(row)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--seconds", type=float, required=True,
                        help="the --seconds every run was made with")
    parser.add_argument("--machine", required=True, help="where the runs were made")
    parser.add_argument("runs", nargs="+", help="run outputs: parent, change, parent, ...")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    try:
        rows = fold(args.runs, benchmark["end_to_end"])
        layers = fold(args.runs, benchmark["per_layer"], traced=True)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {"run_seconds": args.seconds, "machine": args.machine, "results": rows}
    if layers:
        record["layers"] = layers
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for row in rows + layers:
        p, c = row["parent"], row["change"]
        print(f"{row['workload']:<13} {row['metric']:<16} parent {p['median']:.4g} "
              f"(IQR {p['iqr']:.3g})  change {c['median']:.4g} (IQR {c['iqr']:.3g})  "
              f"wins {row['wins']}/{row['pairs']}  {row.get('verdict', 'per layer')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
