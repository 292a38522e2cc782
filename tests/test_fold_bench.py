"""tools/fold_bench.py: paired benchmark runs folded into a BENCH record."""

import importlib.util
import json
import os

import pytest

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
spec = importlib.util.spec_from_file_location(
    "fold_bench", os.path.join(REPO, "tools", "fold_bench.py"))
fold_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fold_bench)


with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK_METRICS = json.load(fh)["end_to_end"]


def write_run(path, workload, seed, p50, rate, correct=True):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCHMARK_METRICS}
    metrics["analysis_p50_ms"]["value"] = p50
    metrics["analyses_per_s"]["value"] = rate
    path.write_text(
        f"workload {workload}, seed {seed}, 8 groups, 120 analyses per pass\n"
        "end-to-end metrics:\n"
        + json.dumps({"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics})
        + "\n"
    )
    return str(path)


METRICS = [
    {"name": "analysis_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "analyses_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def test_medians_quartiles_and_wins(tmp_path):
    runs = []
    # change faster in pairs 1 and 2, tied in pair 3 (a tie wins for neither side)
    for seed, before, after in ((1, 3.0, 2.0), (2, 4.0, 1.0), (3, 2.0, 2.0)):
        runs.append(write_run(tmp_path / f"p{seed}", "divisibility", seed, before, 1 / before))
        runs.append(write_run(tmp_path / f"c{seed}", "divisibility", seed, after, 1 / after))
    rows = {row["metric"]: row for row in fold_bench.fold(runs, METRICS)}
    p50 = rows["analysis_p50_ms"]
    assert p50["parent"]["median"] == 3.0 and p50["parent"]["iqr"] == 1.0
    assert p50["change"]["median"] == 2.0 and p50["change"]["runs"] == [2.0, 1.0, 2.0]
    assert (p50["pairs"], p50["wins"], p50["seeds"]) == (3, 2, [1, 2, 3])
    assert rows["analyses_per_s"]["wins"] == 2
    assert p50["correct"]


def test_unmatched_pair_is_refused(tmp_path):
    runs = [write_run(tmp_path / "p", "classify", 1, 3.0, 1.0),
            write_run(tmp_path / "c", "classify", 2, 2.0, 1.0)]
    with pytest.raises(ValueError):
        fold_bench.fold(runs, METRICS)
    assert fold_bench.main(["--out", str(tmp_path / "b.json"), "--seconds", "55",
                            "--machine", "m"] + runs) == 1
    with pytest.raises(ValueError):
        fold_bench.fold(runs[:1], METRICS)


def test_record_written(tmp_path):
    runs = [write_run(tmp_path / "p", "classify", 7, 3.0, 1.0),
            write_run(tmp_path / "c", "classify", 7, 2.0, 2.0, correct=False)]
    out = tmp_path / "BENCH.json"
    assert fold_bench.main(["--out", str(out), "--seconds", "55", "--machine", "m"] + runs) == 0
    record = json.loads(out.read_text())
    assert record["run_seconds"] == 55 and record["machine"] == "m"
    assert [row["metric"] for row in record["results"]] == [m["name"] for m in BENCHMARK_METRICS]
    assert not any(row["correct"] for row in record["results"])


def side(runs):
    return fold_bench.summary(runs)


class TestVerdict:
    """The choosing-metrics rule with the BENCHMARK.json bound of a metric."""

    def verdict(self, before, after, better="lower", bound=0.25):
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        return fold_bench.verdict(side(before), side(after), wins, len(before), better, bound)

    def test_gain_needs_nine_tenths_and_more_than_the_parent_iqr(self):
        before = [3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7, 3.8, 3.9]
        assert self.verdict(before, [b - 1.0 for b in before]) == "gain"
        # 9 of 10 pairs won is enough; 8 of 10 is not
        nine = [b - 1.0 for b in before[:9]] + [before[9] + 0.1]
        assert self.verdict(before, nine) == "gain"
        eight = [b - 1.0 for b in before[:8]] + [b + 0.1 for b in before[8:]]
        assert self.verdict(before, eight) == "within_bound"
        # every pair won, but the medians differ by less than the parent's IQR
        assert self.verdict(before, [b - 0.05 for b in before]) == "within_bound"

    def test_direction_follows_better(self):
        before = [100.0, 101.0, 102.0, 103.0]
        assert self.verdict(before, [b + 20.0 for b in before], better="higher") == "gain"
        assert self.verdict(before, [b - 30.0 for b in before], better="higher") == "regression"
        assert self.verdict(before, [b + 30.0 for b in before]) == "regression"

    def test_regression_is_beyond_the_bound(self):
        before = [1.0, 1.0, 1.01, 1.01]
        assert self.verdict(before, [1.2, 1.2, 1.2, 1.2]) == "within_bound"
        assert self.verdict(before, [1.3, 1.3, 1.3, 1.3]) == "regression"
        assert self.verdict(before, [1.3, 1.3, 1.3, 1.3], bound=0.4) == "within_bound"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        before = [0.5, 1.0, 1.5, 2.0]  # IQR 0.75 against a median of 1.25
        assert self.verdict(before, [1.4, 1.6, 1.2, 1.8]) == "unresolved"
        # unless every run of the change reads better than every parent run
        outlier = [1.0, 1.0, 1.0, 3.0]  # IQR 0.5 against a median of 1.0
        assert self.verdict(outlier, [1.1, 0.9, 1.0, 1.2]) == "unresolved"
        assert self.verdict(outlier, [0.9, 0.9, 0.95, 0.9]) == "within_bound"

    def test_rows_carry_the_verdict(self, tmp_path):
        runs = []
        for seed in range(1, 11):
            runs.append(write_run(tmp_path / f"p{seed}", "divisibility", seed, 3.0 + seed / 100, 300.0))
            runs.append(write_run(tmp_path / f"c{seed}", "divisibility", seed, 2.0, 300.0))
        rows = {row["metric"]: row for row in fold_bench.fold(runs, METRICS)}
        assert rows["analysis_p50_ms"]["verdict"] == "gain"
        assert rows["analyses_per_s"]["verdict"] == "within_bound"


with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
    LAYER_METRICS = json.load(fh)["per_layer"]


def write_trace_run(path, workload, seed, load_s, main_s):
    """A saved ``--trace 1`` run: per-layer metrics per traced pass."""
    metrics = {m["name"]: {"value": 0.5, "unit": m["unit"]} for m in LAYER_METRICS}
    metrics["cli.load_config.self_s"]["value"] = load_s
    metrics["cli.main.self_s"]["value"] = main_s
    path.write_text(
        f"workload {workload}, seed {seed}, 59 groups, 118 analyses per pass\n"
        "pairs of untraced and traced passes: 4\n"
        + json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics})
        + "\n"
    )
    return str(path)


def test_traced_runs_fold_into_layers(tmp_path):
    runs = []
    for seed, (before, after) in enumerate(((0.20, 0.10), (0.30, 0.12), (0.25, 0.25)), start=1):
        runs.append(write_trace_run(tmp_path / f"tp{seed}", "classify", seed, before, 1.0))
        runs.append(write_trace_run(tmp_path / f"tc{seed}", "classify", seed, after, 0.5))
    # untraced pairs mix in; each kind folds only its own pairs
    runs.append(write_run(tmp_path / "p9", "classify", 9, 3.0, 1.0))
    runs.append(write_run(tmp_path / "c9", "classify", 9, 2.0, 2.0))
    layers = {row["metric"]: row for row in fold_bench.fold(runs, LAYER_METRICS, traced=True)}
    assert list(layers) == [m["name"] for m in LAYER_METRICS]
    load = layers["cli.load_config.self_s"]
    assert load["parent"]["median"] == 0.25 and load["change"]["median"] == 0.12
    assert (load["pairs"], load["wins"], load["seeds"]) == (3, 2, [1, 2, 3])
    assert "verdict" not in load
    assert layers["cli.main.self_s"]["wins"] == 3
    rows = fold_bench.fold(runs, METRICS)
    assert all(row["pairs"] == 1 and row["seeds"] == [9] for row in rows)

    out = tmp_path / "BENCH.json"
    assert fold_bench.main(["--out", str(out), "--seconds", "55", "--machine", "m"] + runs) == 0
    record = json.loads(out.read_text())
    assert [row["metric"] for row in record["layers"]] == list(layers)
    assert [row["metric"] for row in record["results"]] == [m["name"] for m in BENCHMARK_METRICS]
    # no traced runs, no layers section
    assert fold_bench.main(["--out", str(out), "--seconds", "55", "--machine", "m"] + runs[-2:]) == 0
    assert "layers" not in json.loads(out.read_text())


def test_traced_and_untraced_runs_do_not_pair(tmp_path):
    runs = [write_trace_run(tmp_path / "p", "classify", 4, 0.2, 1.0),
            write_run(tmp_path / "c", "classify", 4, 2.0, 1.0)]
    with pytest.raises(ValueError):
        fold_bench.fold(runs, METRICS)
