"""The CLI's JSON writer against ``json.dumps`` of the plain-Python copy.

``cli._json_text`` writes a payload without copying it first.  Its bytes
must be those of ``json.dumps(plain(payload), indent=2, sort_keys=True)``,
where ``plain`` is the copy the CLI used to build before encoding (kept
here as the reference): numpy scalars and arrays become Python numbers and
lists, keys become ``str(key)`` and non-finite floats the strings "inf",
"-inf" and "nan".
"""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebdyn import cli

from helpers import CONFIG_KINDS, random_config_text

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SHIPPED_CONFIGS = sorted(
    name[:-4] for name in os.listdir(os.path.join(REPO, "configs")) if name.endswith(".ini"))


def plain(value):
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [plain(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    return value


def reference_text(payload):
    return json.dumps(plain(payload), indent=2, sort_keys=True)


@pytest.fixture
def payloads(monkeypatch):
    """Every payload the CLI writes, each checked against the reference bytes."""
    seen = []
    writer = cli._json_text

    def checked(payload):
        text = writer(payload)
        assert text == reference_text(payload)
        seen.append(payload)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)
    return seen


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


@pytest.mark.parametrize("cmd", ["classify", "ppt2", "arrival", "divisibility"])
@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_shipped_config_outputs(payloads, capsys, name, cmd):
    code, out = run([cmd, "--config", os.path.join(REPO, "configs", f"{name}.ini")], capsys)
    assert code == 0 and len(payloads) == 1
    assert out == reference_text(payloads[0]) + "\n"


@pytest.mark.parametrize("argv", [["reproduce", "--format", "json"],
                                  ["list-families", "--format", "json"]])
def test_summary_outputs(payloads, capsys, argv):
    code, out = run(argv, capsys)
    assert code == 0 and len(payloads) == 1
    assert out == reference_text(payloads[0]) + "\n"


def test_generated_config_outputs(payloads, capsys, tmp_path):
    """classify and ppt2 on 100 generated configs of five kinds at d = 4..8."""
    rng = np.random.default_rng(1701)
    for copy in range(4):
        for d in range(4, 9):
            for kind in CONFIG_KINDS:
                path = tmp_path / f"{kind}_d{d}_{copy}.ini"
                path.write_text(random_config_text(rng, kind, d, points=9))
                for cmd in ("classify", "ppt2"):
                    code, out = run([cmd, "--config", str(path)], capsys)
                    assert code == 0
                    assert out == reference_text(payloads[-1]) + "\n"
    assert len(payloads) == 200


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.sampled_from(["inf", "nan", "\\", '"', "é中\U0001f600", "\x00\x1f\x7f"]),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-2 ** 62, 2 ** 62).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
)
KEYS = st.one_of(st.text(max_size=6), st.integers(-3, 3), st.booleans(), st.none(),
                 st.floats(-2.0, 2.0), st.just(np.int64(7)))


def arrays(scalars):
    return st.lists(scalars, max_size=4).map(lambda xs: np.array(xs, dtype=float))


PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
        arrays(st.floats(allow_nan=True, allow_infinity=True)),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payload=PAYLOADS)
def test_writer_matches_reference_on_random_payloads(payload):
    assert cli._json_text(payload) == reference_text(payload)


def test_writer_matches_reference_on_edge_payloads():
    deep = []
    for k in range(60):
        deep = {f"level{k}": [deep, k, -0.0]}
    cases = [
        {}, [], (), {"a": {}, "b": [], "c": ()}, np.zeros(0), deep,
        {1: "int key", "1": "same text key", True: "bool key", None: 0, 2.5: np.float64(2.5)},
        [float("inf"), -math.inf, math.nan, np.float64("nan"), np.float32(np.inf), np.float16(0.1)],
        {"x": np.array([[1.5, np.inf], [np.nan, -0.0]]), "y": np.array([True, False])},
        {"s": "line\nbreak \"quoted\" back\\slash \t tab   😀"},
        [np.bool_(True), np.int8(-5), np.uint64(2 ** 63), 10 ** 30, 1e-320, 5e-324],
        {"numpy text": np.str_("é\n"), np.str_("key"): [np.str_(""), np.array(["a", "ü"])]},
    ]
    for case in cases:
        assert cli._json_text(case) == reference_text(case)


def test_unserializable_values_raise_type_error():
    for value in ({"z": 1j}, [object()], {"s": {1, 2}}):
        with pytest.raises(TypeError):
            reference_text(value)
        with pytest.raises(TypeError):
            cli._json_text(value)
