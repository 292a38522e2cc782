"""End-to-end checks of the command line front end.

Everything goes through ``cli.main`` with an argv list, so exit codes and
emitted files are exactly what a shell user would see.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ebdyn import cli

from helpers import random_config_text

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SHIPPED_CONFIGS = sorted(
    name[:-4] for name in os.listdir(os.path.join(REPO, "configs")) if name.endswith(".ini"))

DEPOLARIZING_QUBIT = """\
[family]
kind = depolarizing
gamma = 1.0
omega = 0.5 0; 0 0.5

[analysis]
tmax = 8.0
grid_n = 400
"""

PAULI_EQUAL = """\
[family]
kind = pauli
gamma1 = 1.0
gamma2 = 1.0
gamma3 = 1.0
"""


def write_config(tmp_path, text, name="model.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigErrors:
    """Broken configs must exit with code 1, never a traceback."""

    CASES = {
        "missing_kind": "[family]\ngamma = 1.0\n",
        "unknown_kind": "[family]\nkind = teleport\n",
        "unknown_section": DEPOLARIZING_QUBIT + "\n[extra]\nx = 1\n",
        "unknown_family_key": (
            "[family]\nkind = depolarizing\ngamma = 1.0\n"
            "omega = 0.5 0; 0 0.5\nflavor = mild\n"
        ),
        "unknown_analysis_key": DEPOLARIZING_QUBIT + "speed = 11\n",
        "analysis_seed_key": DEPOLARIZING_QUBIT + "seed = 3\n",
        "missing_required_key": "[family]\nkind = depolarizing\ngamma = 1.0\n",
        "bad_matrix_entry": (
            "[family]\nkind = depolarizing\ngamma = 1.0\nomega = 0.5 x; 0 0.5\n"
        ),
        "ragged_matrix": (
            "[family]\nkind = depolarizing\ngamma = 1.0\nomega = 0.5 0; 0.5\n"
        ),
        "negative_gamma": (
            "[family]\nkind = depolarizing\ngamma = -1.0\n"
            "omega = 0.5 0; 0 0.5\n"
        ),
        "declared_d_mismatch": (
            "[family]\nkind = depolarizing\nd = 3\ngamma = 1.0\n"
            "omega = 0.5 0; 0 0.5\n"
        ),
        "gapped_jump_numbering": (
            "[family]\nkind = detailed_balance\nbeta = 0.7\n"
            "hamiltonian = 0 0; 0 1\n"
            "jump1 = 0 1; 0 0\nfreq1 = 1.0\n"
            "jump3 = 0 0; 1 0\nfreq3 = 1.0\n"
        ),
        "non_integer_winding": (
            "[family]\nkind = floquet_product\nperiod = 2.0\n"
            "winding = 0.5 0; 0 0\ncore_lindblad1 = 0 1; 0 0\n"
        ),
        "non_hermitian_winding": (
            "[family]\nkind = floquet_product\nperiod = 2.0\n"
            "winding = 0 1; 0 0\ncore_lindblad1 = 0 1; 0 0\n"
        ),
        "negative_times": DEPOLARIZING_QUBIT + "times = 0 -1\n",
        "unknown_cone": DEPOLARIZING_QUBIT + "cones = CP XYZ\n",
        "indefinite_decoherence_rates": (
            "[family]\nkind = pure_decoherence\na = 1 2; 2 1\n"
        ),
    }

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_exit_code_one(self, tmp_path, capsys, label):
        config = write_config(tmp_path, self.CASES[label])
        code = cli.main(["classify", "--config", config])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG, captured.err
        assert "error" in captured.err
        assert "Traceback" not in captured.err

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["classify", "--config", str(tmp_path / "nope.ini")])
        assert code == cli.EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_bad_flag_values(self, tmp_path, capsys):
        config = write_config(tmp_path, DEPOLARIZING_QUBIT)
        assert cli.main(["classify", "--config", config, "--tol", "-1"]) == 1
        assert cli.main(["classify", "--config", config, "--tmax", "0"]) == 1
        assert cli.main(["classify", "--config", config, "--threads", "0"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("kmax", ["0", "-3"])
    def test_kmax_below_one_is_a_config_error(self, tmp_path, capsys, kmax):
        # the flag agrees with the INI key, which must be positive
        config = write_config(tmp_path, DEPOLARIZING_QUBIT)
        out = tmp_path / "out.json"
        assert cli.main(["ppt2", "--config", config, "--kmax", kmax, "--out", str(out)]) == 1
        assert "error: --kmax must be at least 1" in capsys.readouterr().err
        assert not out.exists()
        key = write_config(tmp_path, DEPOLARIZING_QUBIT + "kmax = 0\n", name="key.ini")
        assert cli.main(["ppt2", "--config", key]) == 1
        assert "kmax: must be positive" in capsys.readouterr().err


class TestClassify:
    def test_json_rows(self, tmp_path):
        config = write_config(tmp_path, DEPOLARIZING_QUBIT)
        out = tmp_path / "out.json"
        code = cli.main(["classify", "--config", config,
                         "--times", "0 0.5 2.0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "classify"
        assert payload["kind"] == "depolarizing"
        assert payload["d"] == 2
        assert [row["t"] for row in payload["rows"]] == [0.0, 0.5, 2.0]
        first = payload["rows"][0]
        assert first["is_cp"] and not first["is_ppt"]
        late = payload["rows"][-1]
        assert late["is_ppt"] and late["eb_status"] == "EB_certified"

    def test_csv_shape(self, tmp_path):
        config = write_config(tmp_path, DEPOLARIZING_QUBIT)
        out = tmp_path / "out.csv"
        code = cli.main(["classify", "--config", config, "--format", "csv",
                         "--times", "0 1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[0] == "t"
        assert len(lines) == 3

    def test_byte_determinism(self, tmp_path):
        config = write_config(tmp_path, DEPOLARIZING_QUBIT)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert cli.main(["classify", "--config", config,
                             "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestArrival:
    def test_depolarizing_qubit(self, tmp_path):
        config = write_config(tmp_path, DEPOLARIZING_QUBIT)
        out = tmp_path / "arrival.json"
        code = cli.main(["arrival", "--config", config,
                         "--cones", "CP PPT EB", "--out", str(out)])
        assert code == 0
        rows = {row["cone"]: row for row in json.loads(out.read_text())["rows"]}
        assert rows["CP"]["status"] == "inside_from_start"
        assert rows["CP"]["tau"] == 0.0
        assert rows["PPT"]["status"] == "arrived"
        assert abs(rows["PPT"]["tau"] - math.log(3.0)) < 1e-5
        assert abs(rows["EB"]["tau"] - rows["PPT"]["tau"]) < 1e-5
        assert rows["EB"]["eb_lower_bound"] is False

    def test_not_reached_row(self, tmp_path):
        # pure dephasing never becomes PPT; keep the horizon short enough
        # that the decaying witness is still resolvable against the psd
        # tolerance there
        config = write_config(
            tmp_path,
            "[family]\nkind = pauli\ngamma1 = 0\ngamma2 = 0\ngamma3 = 1.0\n",
        )
        out = tmp_path / "arrival.json"
        code = cli.main(["arrival", "--config", config, "--cones", "PPT",
                         "--tmax", "6", "--out", str(out)])
        assert code == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["status"] == "not_reached"
        assert row["tau"] is None
        assert row["witness_at_horizon"] < 0


    def test_bisect_tol_below_float_spacing_ends(self, tmp_path):
        """The bisection stops once a midpoint is no float inside its bracket:
        tau is then ln 4 to the last bits, in a subprocess that cannot hang
        the suite."""
        with open(os.path.join(REPO, "configs", "depolarizing_qutrit.ini"),
                  encoding="utf-8") as fh:
            config = write_config(tmp_path, fh.read() + "bisect_tol = 1e-300\n")
        out = tmp_path / "arrival.json"
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "ebdyn", "arrival", "--config", config, "--cones", "PPT",
             "--out", str(out)],
            capture_output=True, text=True, env=env, check=False, timeout=60)
        assert proc.returncode == 0, proc.stderr
        tau = json.loads(out.read_text())["rows"][0]["tau"]
        assert abs(tau - math.log(4.0)) <= 2 * math.ulp(math.log(4.0))


class TestDivisibility:
    def test_semigroup_chain(self, tmp_path):
        config = write_config(tmp_path, DEPOLARIZING_QUBIT)
        out = tmp_path / "div.json"
        code = cli.main(["divisibility", "--config", config,
                         "--cones", "CP PPT", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["chain_consistent"] is True
        ppt = payload["reports"]["PPT"]
        assert ppt["verdict"] == "certified"
        assert ppt["shortcut_used"] == "semigroup"

    def test_refuted_scan_still_exits_zero(self, tmp_path):
        config = write_config(
            tmp_path, "[family]\nkind = eternal_nm\nalpha = 0.5\n"
        )
        out = tmp_path / "div.json"
        code = cli.main(["divisibility", "--config", config, "--cones", "PPT",
                         "--tmax", "10", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["reports"]["PPT"]["verdict"] == "refuted"
        assert payload["reports"]["PPT"]["delta"][0] == "inf"


@pytest.mark.parametrize("command", ["divisibility", "arrival"])
def test_a_family_without_a_limit_exits_zero(tmp_path, command):
    """The phase_covariant Jordan block (gamma_plus = -gamma_minus): its
    Lambda_t grows linearly, so it has no limit and the scans no tail; they
    end in not_reached, with no eigenbasis error."""
    out = tmp_path / "out.json"
    config = os.path.join(REPO, "tests", "data", "phase_covariant_jordan.ini")
    assert cli.main([command, "--config", config, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    if command == "divisibility":
        certificates = {c for rep in payload["reports"].values() for c in rep["certificates"]}
    else:
        certificates = {row["status"] for row in payload["rows"]}
    assert certificates == {"not_reached"}


class TestPpt2:
    def test_csv_rows(self, tmp_path):
        config = write_config(tmp_path, PAULI_EQUAL)
        out = tmp_path / "ppt2.csv"
        code = cli.main(["ppt2", "--config", config, "--format", "csv",
                         "--t", "0.1", "--kmax", "6", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,witness_choi,witness_pt,eb_status"
        assert len(lines) == 7
        assert lines[1].startswith("1,")

    def test_json_first_ppt(self, tmp_path):
        config = write_config(tmp_path, PAULI_EQUAL)
        out = tmp_path / "ppt2.json"
        code = cli.main(["ppt2", "--config", config, "--t", "0.1",
                         "--kmax", "8", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        # map at t=0.1 matches depolarizing at rate 4, so tau = log(3)/4
        want = math.ceil(math.log(3.0) / 4.0 / 0.1)
        assert payload["first_ppt"] == want
        assert payload["first_eb"] == want


class TestListFamilies:
    def test_text_covers_all_kinds(self, capsys):
        assert cli.main(["list-families"]) == 0
        text = capsys.readouterr().out
        for kind in ("gkls", "pauli", "eternal_nm", "phase_covariant",
                     "depolarizing", "detailed_balance", "floquet_product",
                     "pure_decoherence", "diagonally_covariant"):
            assert kind in text

    def test_json_schema(self, capsys):
        assert cli.main(["list-families", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["depolarizing"]["required"]) == {"gamma", "omega"}
        assert payload["detailed_balance"]["numbered"] == ["jumpK", "freqK"]


def test_parser_built_once_and_reused(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    config = write_config(tmp_path, PAULI_EQUAL)
    first = cli._build_parser().parse_args(
        ["arrival", "--config", config, "--cones", "CP", "--format", "csv"])
    assert (first.cones, first.format) == ("CP", "csv")
    # a later parse starts from the defaults, not from the previous call
    args = cli._build_parser().parse_args(["arrival", "--config", config])
    assert args.cones is None and args.format != "csv"
    assert cli.main(["classify", "--config", config, "--times", "0.5", "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert cli.main(["classify", "--config", config, "--times", "0.5"]) == 0
    json.loads(capsys.readouterr().out)  # the csv format of the last call did not stick
    with pytest.raises(json.JSONDecodeError):
        json.loads(csv_out)


def test_threads_flag_pins_blas_env(tmp_path, capsys, monkeypatch):
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    config = write_config(tmp_path, DEPOLARIZING_QUBIT)
    assert cli.main(["classify", "--config", config, "--times", "0",
                     "--threads", "2"]) == 0
    capsys.readouterr()
    for var in cli._THREAD_VARS:
        assert os.environ[var] == "2"


def test_reproduce_suite_passes(tmp_path):
    out = tmp_path / "repro.json"
    code = cli.main(["reproduce", "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text())
    failures = [c for c in payload["checks"] if not c["ok"]]
    assert code == 0, failures
    assert payload["all_ok"] is True
    assert len(payload["checks"]) == 13


def reference_mismatches(got, want, path=""):
    """Discrete fields equal, floats within 1e-9 + 1e-9 * |want|."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - want) <= 1e-9 + 1e-9 * abs(want):
            return []
        return [f"{path}: {got!r} vs {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            return [f"{path}: keys {sorted(got)} vs {sorted(want)}"]
        return [m for k in want for m in reference_mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: {len(got)} entries vs {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in reference_mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} vs {want!r}"]


# classify and ppt2 are the benchmark's recorded outputs; arrival and
# divisibility were recorded with BLAS on one thread before the grid
# witnesses were stacked
REFERENCE_DIRS = {
    "classify": os.path.join(REPO, "perfbench", "reference"),
    "ppt2": os.path.join(REPO, "perfbench", "reference"),
    "arrival": os.path.join(REPO, "tests", "data", "cli_reference"),
    "divisibility": os.path.join(REPO, "tests", "data", "cli_reference"),
}


@pytest.mark.parametrize("cmd", ["classify", "ppt2", "arrival", "divisibility"])
@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_shipped_config_output_matches_recorded_reference(tmp_path, capsys, name, cmd):
    """Guard against drift of the recorded CLI outputs of the shipped configs."""
    out = tmp_path / f"{name}.{cmd}.json"
    config = os.path.join(REPO, "configs", f"{name}.ini")
    assert cli.main([cmd, "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    with open(os.path.join(REFERENCE_DIRS[cmd], f"{name}.{cmd}.json"), encoding="utf-8") as fh:
        want = json.load(fh)
    assert reference_mismatches(json.loads(out.read_text()), want) == []


@pytest.mark.parametrize("argv, fmt", [
    (["classify", "--config", "x.ini"], "json"),
    (["arrival", "--config", "x.ini"], "json"),
    (["divisibility", "--config", "x.ini"], "json"),
    (["ppt2", "--config", "x.ini"], "json"),
    (["reproduce"], "text"),
    (["list-families"], "text"),
])
def test_parsed_format_defaults(argv, fmt):
    """Data commands default to json, the summaries to text, as --help says."""
    args = cli._build_parser().parse_args(argv)
    assert args.format == fmt
    assert (args.out, args.threads, args.tmax, args.tol) == (None, None, None, None)
    sub = cli._build_parser()._subparsers._group_actions[0].choices[argv[0]]
    assert f"default {fmt}" in sub.format_help().replace("\n", " ").replace("  ", " ")


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-m", "ebdyn", "list-families", "--format", "csv"],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "kind,keys,note"


@pytest.mark.parametrize("kind", ["gkls", "detailed_balance", "diagonally_covariant"])
def test_constant_generator_is_diagonalized_once(tmp_path, capsys, monkeypatch, kind):
    """classify of a constant generator without a closed form: one eig, no
    eigvals.  The dense gkls generator's eig receives its real form, a real
    float64 matrix; the split patterns of the diagonal-unitary covariant
    generators keep the complex matrix."""
    calls = {"eig": 0, "eigvals": 0}
    dtypes = []
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            dtypes.append(np.asarray(a).dtype)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    config = tmp_path / f"{kind}.ini"
    config.write_text(random_config_text(np.random.default_rng(7), kind, 4, points=7))
    assert cli.main(["classify", "--config", str(config)]) == 0
    capsys.readouterr()
    assert calls == {"eig": 1, "eigvals": 0}
    assert dtypes == [np.dtype(np.float64 if kind == "gkls" else np.complex128)]


@pytest.mark.parametrize("error", [
    MemoryError(),
    MemoryError("Unable to allocate 7.28 TiB for an array with shape (10**11, 4, 4)"),
])
@pytest.mark.parametrize("command", ["classify", "ppt2", "arrival", "divisibility"])
def test_out_of_memory_is_a_numerical_failure(tmp_path, capsys, monkeypatch, command, error):
    """No traceback when an array cannot be allocated (a huge --kmax, points or grid_n)."""
    config = tmp_path / "model.ini"
    config.write_text(DEPOLARIZING_QUBIT)

    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "load_config", exhausted)
    assert cli.main([command, "--config", str(config)]) == cli.EXIT_NUMERICS
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: out of memory") and err.count("\n") == 1


def test_out_file_is_replaced_exactly(tmp_path, capsys):
    """--out replaces an existing file with exactly the output."""
    config = tmp_path / "model.ini"
    config.write_text(DEPOLARIZING_QUBIT)
    out = tmp_path / "out.json"
    out.write_text("stale " * 20000)
    for fmt in ("json", "csv", "json"):
        assert cli.main(["classify", "--config", str(config), "--format", fmt]) == 0
        want = capsys.readouterr().out
        assert cli.main(["classify", "--config", str(config), "--format", fmt,
                         "--out", str(out)]) == 0
        assert out.read_bytes() == want.encode("utf-8")
    fresh = tmp_path / "fresh.json"
    assert cli.main(["classify", "--config", str(config), "--out", str(fresh)]) == 0
    assert fresh.read_text() == out.read_text()
    # not a regular file
    assert cli.main(["classify", "--config", str(config), "--out", os.devnull]) == 0
