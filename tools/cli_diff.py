"""Compare the CLI output of two source trees of ebdyn.

    python3 tools/cli_diff.py BASE_DIR CHANGE_DIR

Each directory is a checkout of the repository (for example a ``git
worktree`` of the parent commit and the working tree).  For every file in
``CHANGE_DIR/configs`` the script runs ``classify``, ``ppt2``, ``arrival``
and ``divisibility`` with ``--format json`` and with ``--format csv``,
``ebdyn reproduce`` once, and ``list-families`` in text, JSON and CSV,
against the package in each tree's ``src``.  It prints one line per JSON
path or CSV cell (``[line][column]``, the cells a comma splits, as the
writer quotes nothing) whose value differs,

    eternal.divisibility reports.CP.certificates[0]: "analytic_tail" -> "analytic_monotone"
    eternal.classify.csv [3][1]: 0.0799 -> 0.0801

and one per run whose exit code or text differs in a way no path shows.
The last line sums up: how many float-only paths moved (a float on both
sides; a CSV cell is a float where it parses as one) and the largest move
|change - base| / max(1, |base|) among them, apart from the discrete
changes (any other path, an exit code, output that is not JSON, a text
output that differs, or equal values in different text, such as 0.0 and
-0.0), for example

    summary: 12 float path(s) moved, largest |d|/max(1, |x|) 2.2e-16; 0 discrete change(s)

The exit code is 0 when the outputs agree and 1 when some path differs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

COMMANDS = ("classify", "ppt2", "arrival", "divisibility")
_MISSING = object()


def json_diffs(base, change, path=""):
    """``(path, base value, change value)`` for every leaf where two JSON
    values differ; a key or list entry present on one side only differs
    from ``_MISSING``."""
    if isinstance(base, dict) and isinstance(change, dict):
        out = []
        for key in sorted(set(base) | set(change)):
            sub = f"{path}.{key}" if path else str(key)
            out += json_diffs(base.get(key, _MISSING), change.get(key, _MISSING), sub)
        return out
    if isinstance(base, list) and isinstance(change, list):
        out = []
        for k in range(max(len(base), len(change))):
            out += json_diffs(base[k] if k < len(base) else _MISSING,
                              change[k] if k < len(change) else _MISSING, f"{path}[{k}]")
        return out
    if type(base) is type(change) and base == change:
        return []
    return [(path, base, change)]


def float_move(base, change):
    """|change - base| / max(1, |base|) when both are finite floats, else None."""
    if not (type(base) is float and type(change) is float
            and math.isfinite(base) and math.isfinite(change)):
        return None
    return abs(change - base) / max(1.0, abs(base))


def csv_cells(text):
    """The cells of a CSV output, one list per line: a float where the cell
    parses as one, else its text."""
    def cell(value):
        try:
            return float(value)
        except ValueError:
            return value
    return [[cell(c) for c in line.split(",")] for line in text.splitlines()]


def _show(value):
    return "<missing>" if value is _MISSING else json.dumps(value)


def run_cli(tree, argv):
    """``(exit code, stdout)`` of ``python -m ebdyn argv`` on ``tree/src``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, "-m", "ebdyn", *argv], cwd=tree, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def runs(change_dir):
    """``(label, argv)`` of every run, config paths relative to the tree."""
    configs = sorted(f for f in os.listdir(os.path.join(change_dir, "configs"))
                     if f.endswith(".ini"))
    for name in configs:
        for cmd in COMMANDS:
            argv = [cmd, "--config", os.path.join("configs", name), "--format"]
            yield f"{name[:-4]}.{cmd}", argv + ["json"]
            yield f"{name[:-4]}.{cmd}.csv", argv + ["csv"]
    yield "reproduce", ["reproduce", "--format", "json"]
    for fmt, suffix in (("text", ".text"), ("json", ""), ("csv", ".csv")):
        yield f"list-families{suffix}", ["list-families", "--format", fmt]


def compare(base_dir, change_dir, out=sys.stdout):
    """Print the differences of every run and the summary line; the number
    of differing runs."""
    differing = discrete = 0
    moves = []
    for label, argv in runs(change_dir):
        (base_code, base_text), (change_code, change_text) = (
            run_cli(base_dir, argv), run_cli(change_dir, argv))
        lines = []
        if base_code != change_code:
            lines.append(f"{label} exit code: {base_code} -> {change_code}")
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        diffs = None
        if fmt == "csv":
            diffs = json_diffs(csv_cells(base_text), csv_cells(change_text))
        elif fmt == "json":
            try:
                diffs = json_diffs(json.loads(base_text), json.loads(change_text))
            except json.JSONDecodeError:
                pass
        if diffs is None and base_text != change_text:
            lines.append(f"{label}: text differs" if fmt == "text" else
                         f"{label}: output is not JSON on both sides and differs")
        discrete += len(lines)
        for path, a, b in diffs or ():
            lines.append(f"{label} {path}: {_show(a)} -> {_show(b)}")
            move = float_move(a, b)
            if move is None:
                discrete += 1
            else:
                moves.append(move)
        if not lines and base_text != change_text:
            lines.append(f"{label}: same values, different text")
            discrete += 1
        differing += bool(lines)
        for line in lines:
            print(line, file=out)
    largest = f"{max(moves):.1e}" if moves else "-"
    print(f"summary: {len(moves)} float path(s) moved, largest |d|/max(1, |x|) {largest}; "
          f"{discrete} discrete change(s)", file=out)
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_dir", help="source tree of the parent")
    parser.add_argument("change_dir", help="source tree of the change")
    args = parser.parse_args(argv)
    differing = compare(args.base_dir, args.change_dir)
    print(f"{differing} run(s) differ", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
