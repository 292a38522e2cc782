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
