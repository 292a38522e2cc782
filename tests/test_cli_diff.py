"""tools/cli_diff.py: the JSON paths where two CLI outputs differ."""

import importlib.util
import io
import json
import os

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
spec = importlib.util.spec_from_file_location(
    "cli_diff", os.path.join(REPO, "tools", "cli_diff.py"))
cli_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_diff)


def test_doctored_json_files(tmp_path, monkeypatch):
    with open(os.path.join(REPO, "tests", "data", "cli_reference", "eternal.divisibility.json"),
              encoding="utf-8") as fh:
        base = json.load(fh)
    change = json.loads(json.dumps(base))
    change["reports"]["CP"]["certificates"][0] = "doctored"
    change["reports"]["EB"]["delta"].append(1.5)
    del change["chain_messages"]
    change["d"] = 2.0  # equal as a number, not as JSON
    paths = {}
    for side, payload in (("base", base), ("change", change)):
        paths[side] = tmp_path / f"{side}.json"
        paths[side].write_text(json.dumps(payload))
    n = len(base["reports"]["EB"]["delta"])

    assert cli_diff.json_diffs(json.loads(paths["base"].read_text()),
                               json.loads(paths["change"].read_text())) == [
        ("chain_messages", [], cli_diff._MISSING),
        ("d", 2, 2.0),
        ("reports.CP.certificates[0]", base["reports"]["CP"]["certificates"][0], "doctored"),
        (f"reports.EB.delta[{n}]", cli_diff._MISSING, 1.5),
    ]
    assert cli_diff.json_diffs(base, json.loads(paths["base"].read_text())) == []

    # the same files as the output of one run on two trees
    texts = {"base": paths["base"].read_text(), "change": paths["change"].read_text()}
    monkeypatch.setattr(cli_diff, "runs", lambda change_dir: [("eternal.divisibility", [])])
    monkeypatch.setattr(cli_diff, "run_cli", lambda tree, argv: (0, texts[tree]))
    out = io.StringIO()
    assert cli_diff.compare("base", "change", out) == 1
    was = base["reports"]["CP"]["certificates"][0]
    assert out.getvalue().splitlines()[2] == (
        f'eternal.divisibility reports.CP.certificates[0]: "{was}" -> "doctored"')


def test_summary_line_counts_float_and_discrete_changes(monkeypatch):
    base = {"tau": 0.5, "big": 1e6, "same": 1.0, "flag": True, "n": 2, "name": "a",
            "inf": float("inf")}
    change = dict(base, tau=0.5 + 2 ** -52, big=1e6 + 0.5, flag=False, n=2.0,
                  inf=float("nan"))
    texts = {"base": json.dumps(base), "change": json.dumps(change)}
    monkeypatch.setattr(cli_diff, "runs", lambda change_dir: [("x.classify", []),
                                                             ("x.arrival", [])])
    codes = {("base", "x.classify"): 0, ("change", "x.classify"): 0,
             ("base", "x.arrival"): 0, ("change", "x.arrival"): 2}
    state = {}

    def run_cli(tree, argv):
        label = "x.arrival" if state.setdefault(tree, 0) else "x.classify"
        state[tree] += 1
        return codes[(tree, label)], texts[tree] if label == "x.classify" else texts["base"]

    monkeypatch.setattr(cli_diff, "run_cli", run_cli)
    out = io.StringIO()
    assert cli_diff.compare("base", "change", out) == 2
    lines = out.getvalue().splitlines()
    # tau and big are float moves (relative 2^-52 / max(1, 0.5) and 0.5 / 1e6);
    # flag, n (int -> float), inf -> nan and the exit code are discrete
    assert lines[-1] == ("summary: 2 float path(s) moved, largest |d|/max(1, |x|) 5.0e-07; "
                         "4 discrete change(s)")
    assert cli_diff.float_move(0.5, 0.5 + 2 ** -52) == 2 ** -52
    assert cli_diff.float_move(2, 2.0) is None and cli_diff.float_move(1.0, "1") is None

    monkeypatch.setattr(cli_diff, "runs", lambda change_dir: [("x.classify", [])])
    monkeypatch.setattr(cli_diff, "run_cli", lambda tree, argv: (0, texts["base"]))
    out = io.StringIO()
    assert cli_diff.compare("base", "change", out) == 0
    assert out.getvalue().splitlines() == [
        "summary: 0 float path(s) moved, largest |d|/max(1, |x|) -; 0 discrete change(s)"]

    # 0.0 -> -0.0 compares equal but changes the bytes: a discrete change
    signed = {"base": json.dumps({"floor": 0.0}), "change": json.dumps({"floor": -0.0})}
    monkeypatch.setattr(cli_diff, "run_cli", lambda tree, argv: (0, signed[tree]))
    out = io.StringIO()
    assert cli_diff.compare("base", "change", out) == 1
    assert out.getvalue().splitlines() == [
        "x.classify: same values, different text",
        "summary: 0 float path(s) moved, largest |d|/max(1, |x|) -; 1 discrete change(s)"]


def test_doctored_csv_text(monkeypatch):
    """A cell that parses as a float on both sides is a float move; any other
    changed cell, a missing cell and equal floats in other text are discrete."""
    base = ("t,min_eig_choi,is_cp,eb_status\n"
            "0.0,0.0,true,EB_refuted\n"
            "0.5,0.0799,true,EB_certified\n"
            "1.0,inf,true,EB_certified")
    change = ("t,min_eig_choi,is_cp,eb_status\n"
              "0.0,-0.0,true,EB_refuted\n"
              "0.5,0.0801,false,EB_certified\n"
              "1.0,nan,true")
    assert cli_diff.csv_cells(base)[2] == [0.5, 0.0799, "true", "EB_certified"]
    texts = {"base": base, "change": change}
    monkeypatch.setattr(cli_diff, "runs", lambda change_dir: [
        ("eternal.classify.csv", ["classify", "--format", "csv"])])
    monkeypatch.setattr(cli_diff, "run_cli", lambda tree, argv: (0, texts[tree]))
    out = io.StringIO()
    assert cli_diff.compare("base", "change", out) == 1
    assert out.getvalue().splitlines() == [
        "eternal.classify.csv [2][1]: 0.0799 -> 0.0801",
        'eternal.classify.csv [2][2]: "true" -> "false"',
        "eternal.classify.csv [3][1]: Infinity -> NaN",
        'eternal.classify.csv [3][3]: "EB_certified" -> <missing>',
        "summary: 1 float path(s) moved, largest |d|/max(1, |x|) 2.0e-04; "
        "3 discrete change(s)"]

    # -0.0 for 0.0 alone: the same values in different text
    texts["change"] = base.replace("0.0,0.0,", "0.0,-0.0,")
    out = io.StringIO()
    assert cli_diff.compare("base", "change", out) == 1
    assert out.getvalue().splitlines() == [
        "eternal.classify.csv: same values, different text",
        "summary: 0 float path(s) moved, largest |d|/max(1, |x|) -; 1 discrete change(s)"]


def test_doctored_text_output_and_the_runs(monkeypatch, tmp_path):
    texts = {"base": "depolarizing\n  keys: gamma, omega\n",
             "change": "depolarizing\n  keys: gamma,  omega\n"}
    monkeypatch.setattr(cli_diff, "runs", lambda change_dir: [
        ("list-families.text", ["list-families", "--format", "text"])])
    monkeypatch.setattr(cli_diff, "run_cli", lambda tree, argv: (0, texts[tree]))
    out = io.StringIO()
    assert cli_diff.compare("base", "change", out) == 1
    assert out.getvalue().splitlines() == [
        "list-families.text: text differs",
        "summary: 0 float path(s) moved, largest |d|/max(1, |x|) -; 1 discrete change(s)"]

    monkeypatch.undo()
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "eternal.ini").write_text("")
    labels = {label: argv[argv.index("--format") + 1]
              for label, argv in cli_diff.runs(str(tmp_path))}
    assert labels == {
        **{f"eternal.{cmd}": "json" for cmd in cli_diff.COMMANDS},
        **{f"eternal.{cmd}.csv": "csv" for cmd in cli_diff.COMMANDS},
        "reproduce": "json", "list-families.text": "text", "list-families": "json",
        "list-families.csv": "csv"}
