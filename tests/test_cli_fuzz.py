"""INI fuzzer for the command line: bad input ends in an exit code, never a traceback.

Configs are drawn from the family schemas with random, malformed and
non-finite values, random extra keys and sections, and random bytes that
are not UTF-8.  Every run must return exit code 0, 1 or 2 from ``cli.main``
without raising; a nonzero code comes with a message on stderr.  Inputs that
are invalid by construction (non-finite numbers, a generator that overflows,
bytes that are not UTF-8) must give exit code 1.  A numpy RuntimeWarning (an
overflow left to produce inf or nan) fails the test, as every warning fails
the suite (``filterwarnings`` in pyproject.toml): bad input must end in an
error, not in a warning.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ebdyn import cli

NUMBERS = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False).map(repr),
    st.integers(-3, 5).map(str),
    st.sampled_from(["0", "1e308", "-1e308", "1e-300", "2", "0.5"]),
)
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "nanj", "1+infj"])
GARBAGE = st.sampled_from(["", "x", "1 2;", ";", "%(x)s", "1,2", "[1]", "0 1; 1", "1j", "--"])


@st.composite
def matrices(draw, entries=NUMBERS):
    n = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 3))
    return "; ".join(" ".join(draw(entries) for _ in range(n)) for _ in range(rows))


VALUES = st.one_of(NUMBERS, matrices(), GARBAGE,
                   st.lists(NUMBERS, min_size=1, max_size=4).map(" ".join))
ANALYSIS = {
    "tmax": NUMBERS, "tol": NUMBERS, "grid_n": st.integers(-2, 40).map(str),
    "bisect_tol": NUMBERS, "cones": st.sampled_from(["CP", "PPT EB", "", "XYZ"]),
    "times": st.lists(NUMBERS, min_size=0, max_size=3).map(" ".join),
    "points": st.integers(-1, 4).map(str), "t": NUMBERS, "kmax": st.integers(-1, 4).map(str),
}


@st.composite
def configs(draw):
    """(INI text, invalid by construction) from the family schemas."""
    kind = draw(st.sampled_from(sorted(cli._FAMILY_SCHEMAS) + ["teleport"]))
    required, optional, prefixes = cli._FAMILY_SCHEMAS.get(kind, (set(), set(), ()))
    keys = sorted(required | optional) + [f"{p}{k}" for p in prefixes for k in (1, 2)]
    lines = ["[family]", f"kind = {kind}"]
    invalid = False
    for key in keys:
        if draw(st.integers(0, 9)) == 0:
            continue  # a missing key
        if draw(st.integers(0, 14)) == 0:
            lines.append(f"{key} = {draw(NON_FINITE)}")
            invalid = True
        else:
            lines.append(f"{key} = {draw(VALUES)}")
    if draw(st.booleans()):
        lines.append(f"{draw(st.sampled_from(['flavor', 'd', 'jump9']))} = {draw(VALUES)}")
    if draw(st.booleans()):
        lines.append("[analysis]")
        for key in draw(st.lists(st.sampled_from(sorted(ANALYSIS)), max_size=3, unique=True)):
            lines.append(f"{key} = {draw(ANALYSIS[key])}")
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.sampled_from(["[extra]", "no equals sign", "[family]"])))
    return "\n".join(lines) + "\n", invalid


def run(tmp_path, capsys, data, command, extra=()):
    path = tmp_path / "fuzz.ini"
    path.write_bytes(data)
    code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")] + list(extra))
    err = capsys.readouterr().err
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICS), err
    assert "Traceback" not in err
    if code != cli.EXIT_OK:
        assert "error" in err or "numerical failure" in err, err
    return code, err


DEPOLARIZING = "[family]\nkind = depolarizing\ngamma = 1.0\nomega = 0.5 0; 0 0.5\n"
PAULI_NAN = "[family]\nkind = pauli\ngamma1 = nan\ngamma2 = 1\ngamma3 = 1\n"


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=configs(), command=st.sampled_from(["classify", "ppt2"]),
       kmax=st.one_of(st.none(), st.integers(-3, 4)))
@example(config=(PAULI_NAN, True), command="ppt2", kmax=None)
@example(config=(DEPOLARIZING.replace("1.0", "inf"), True), command="classify", kmax=None)
@example(config=(DEPOLARIZING + "[analysis]\ntmax = inf\n", True), command="classify", kmax=None)
@example(config=(DEPOLARIZING + "[analysis]\ntimes = 0 nan\n", True), command="classify",
         kmax=None)
@example(config=(DEPOLARIZING.replace("0.5 0;", "0.5 nanj;"), True), command="ppt2", kmax=None)
@example(config=("[family]\nkind = gkls\nlindblad1 = %(x)s\n", False), command="classify",
         kmax=None)
@example(config=("[family]\nkind = pauli\ngamma1 = 0\ngamma2 = 0\ngamma3 = 1e308\n", True),
         command="classify", kmax=None)
@example(config=(DEPOLARIZING, False), command="ppt2", kmax=0)
@example(config=(DEPOLARIZING, False), command="ppt2", kmax=-3)
def test_random_configs_end_in_an_exit_code(tmp_path, capsys, config, command, kmax):
    text, invalid = config
    # --kmax is a ppt2 flag; below 1 it is rejected like the INI key
    extra = ["--kmax", str(kmax)] if command == "ppt2" and kmax is not None else []
    code, _ = run(tmp_path, capsys, text.encode("utf-8"), command, extra)
    if invalid or (extra and kmax < 1):
        assert code == cli.EXIT_CONFIG


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(junk=st.binary(min_size=1, max_size=8).filter(lambda b: not _is_utf8(b)),
       at=st.integers(0, len(DEPOLARIZING)))
@example(junk=b"\xff\xfe", at=0)
def test_non_utf8_config_is_a_config_error(tmp_path, capsys, junk, at):
    data = DEPOLARIZING.encode("utf-8")
    code, err = run(tmp_path, capsys, data[:at] + junk + data[at:], "classify")
    assert code == cli.EXIT_CONFIG
    assert "config error" in err and "UTF-8" in err


def _is_utf8(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@pytest.mark.parametrize("flag", ["--tmax", "--tol"])
@pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
def test_non_finite_flags_are_config_errors(tmp_path, capsys, flag, value):
    code, err = run(tmp_path, capsys, DEPOLARIZING.encode("utf-8"), "classify", [flag, value])
    assert code == cli.EXIT_CONFIG and f"{flag} must be positive and finite" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_evaluation_time_is_a_config_error(tmp_path, capsys, value):
    code, err = run(tmp_path, capsys, DEPOLARIZING.encode("utf-8"), "ppt2", ["--t", value])
    assert code == cli.EXIT_CONFIG and "--t must be finite" in err


DIVERGING = "[family]\nkind = phase_covariant\ngamma_plus = -1\ngamma_minus = -1\ngamma_z = 0\n"


def test_diverging_map_is_a_numerical_failure(tmp_path, capsys):
    code, err = run(tmp_path, capsys, DIVERGING.encode("utf-8"), "ppt2", ["--t", "1000"])
    assert code == cli.EXIT_NUMERICS and "numerical failure" in err


def test_diverging_grid_is_a_numerical_failure(tmp_path, capsys):
    # the grid route evaluates the coefficient rows of all times at once
    code, err = run(tmp_path, capsys, DIVERGING.encode("utf-8"), "classify", ["--times", "0 1000"])
    assert code == cli.EXIT_NUMERICS and "numerical failure" in err


def test_non_conservative_map_is_an_error(tmp_path, capsys, monkeypatch):
    # no config gives a finite map that is neither TP nor unital, so the
    # solved map is replaced by one
    from ebdyn import evolve, superop

    monkeypatch.setattr(evolve.EvolutionHandle, "solve",
                        lambda self, t: superop.Superoperator(2.0 * superop.identity(2).matrix, 2))
    code, err = run(tmp_path, capsys, DEPOLARIZING.encode("utf-8"), "ppt2")
    assert code == cli.EXIT_CONFIG
    assert "error: map must be trace preserving or unital" in err
