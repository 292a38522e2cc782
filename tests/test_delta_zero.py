"""Arrival is Delta(0): ``arrival_time`` against ``scan_divisibility`` at s = 0.

V_{t,0} = Lambda_t, so the arrival of Lambda_t is the divisibility scan's
Delta(0), from one scan and one certificate ladder (``asymptotics._delta``).
These tests check that both entry points give the same time bit for bit and
the same certificate, that on one shared handle, which keeps one record of
Delta(0) per witness kind, every call order answers as fresh handles do,
that a Floquet arrival through its core has the time and certificate of the
family's own grid, and that the propagator grid at s = 0 is the grid of
evolved maps on every route, with no Lambda_0 and no condition check.
"""

import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebdyn import asymptotics, cli, divisibility, evolve, families, tolerances
from ebdyn.errors import NotReachedError

from helpers import random_gkls_family, shipped_family
from test_divisibility import random_floquet
from test_evolve import oscillating_gkls
from test_kept_scans import SHIPPED_CONFIGS, arrival_fields, report_fields

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
CONES = ("CP", "coCP", "PPT", "EB")
# start times of the divisibility scans on a shared handle
S_GRID = (0.0, 0.7)
CALLS = [(entry, cone) for entry in ("arrival", "divisibility") for cone in ("CP", "PPT", "EB")]


def bits(x):
    """A float by its bits (None and inf as themselves)."""
    return x if x is None else struct.pack("<d", x)


def arrival_outcome(handle, cone, search):
    """``(tau, certificate)`` of ``arrival_time``; not reached is
    ``(None, "not_reached")``, and a transient crossing (no tau) is Delta = inf."""
    try:
        res = asymptotics.arrival_time(handle, cone, search=search)
    except NotReachedError:
        return None, "not_reached"
    return (math.inf if res.tau is None else res.tau), res.retention_certificate


def delta0_outcome(handle, cone, search):
    rep = divisibility.scan_divisibility(handle, cone, s_grid=[0.0], search=search)
    return rep.delta[0], rep.certificates[0]


def answers(handle, calls, search):
    """The answer to each call ``(entry, cone)`` on ``handle``, in order: the
    ``arrival_fields`` of ``arrival_time`` (the horizon, witness and cone of
    its NotReachedError), or the ``report_fields`` of ``scan_divisibility``
    on S_GRID."""
    out = []
    for entry, cone in calls:
        if entry == "divisibility":
            out.append(report_fields(divisibility.scan_divisibility(
                handle, cone, s_grid=S_GRID, search=search)))
            continue
        try:
            out.append(arrival_fields(asymptotics.arrival_time(handle, cone, search=search)))
        except NotReachedError as exc:
            out.append((exc.t_max, exc.witness, exc.cone))
    return out


def assert_arrival_is_delta0(family, search, cone, orders=None):
    """Arrival against Delta(0) on fresh handles, then one shared handle per
    call order: by default the arrival and the divisibility scan of
    ``cone`` in both orders, else each list of calls in ``orders``.  On the
    shared handle every answer equals the fresh handle's, grids bytewise and
    details included, whichever call scanned first."""
    want = arrival_outcome(evolve.EvolutionHandle(family), cone, search)
    got = delta0_outcome(evolve.EvolutionHandle(family), cone, search)
    assert (bits(got[0]), got[1]) == (bits(want[0]), want[1])
    if orders is None:
        orders = [[("arrival", cone), ("divisibility", cone)],
                  [("divisibility", cone), ("arrival", cone)]]
    for order in orders:
        fresh = [answers(evolve.EvolutionHandle(family), [call], search)[0] for call in order]
        assert answers(evolve.EvolutionHandle(family), order, search) == fresh
    return want


def shipped_search(name):
    """The family of a shipped config and a search to its horizon."""
    fam, analysis = cli.load_config(os.path.join(REPO, "configs", f"{name}.ini"))
    return fam, asymptotics.default_search(fam, t_max=analysis.get("tmax"), grid_n=200)


@pytest.mark.parametrize("cone", CONES)
@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_shipped_arrival_is_delta0(name, cone):
    assert_arrival_is_delta0(*shipped_search(name), cone)


def test_not_reached_is_the_same_outcome():
    """Shipped gkls_damped_qubit is still outside PPT at its horizon."""
    assert assert_arrival_is_delta0(*shipped_search("gkls_damped_qubit"), "PPT") == (
        None, "not_reached")


def test_a_tail_outside_after_a_crossing_is_refuted_tail(monkeypatch):
    """Shipped phase_covariant rests on its tail (no premise certifies it):
    with a tail outside, the arrival is a transient crossing and Delta(0) is
    inf, and the semigroup shift refutes every start time."""
    fam, search = shipped_search("phase_covariant")
    assert fam.constant and not fam.cp_divisible
    monkeypatch.setattr(asymptotics, "_tail", lambda *args: (-1.0, "asymptotic_interior"))
    res = asymptotics.arrival_time(fam, "PPT", search=search)
    assert res.tau is None and res.bracket is not None
    assert res.retention_certificate == "refuted_tail"
    assert assert_arrival_is_delta0(fam, search, "PPT") == (math.inf, "refuted_tail")
    rep = divisibility.scan_divisibility(fam, "PPT", s_grid=(0.0, 1.0), search=search)
    assert rep.verdict == "refuted" and rep.shortcut_used == "semigroup"
    assert rep.delta == (math.inf, math.inf)
    assert rep.certificates == ("refuted_tail", "refuted_tail")


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3), n_jumps=st.integers(1, 3),
       with_hamiltonian=st.booleans(), cone=st.sampled_from(CONES))
def test_random_gkls_semigroup_arrival_is_delta0(seed, d, n_jumps, with_hamiltonian, cone):
    fam = random_gkls_family(np.random.default_rng(seed), d, n_jumps=n_jumps,
                             with_hamiltonian=with_hamiltonian)
    assert_arrival_is_delta0(fam, asymptotics.default_search(fam, grid_n=150), cone)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3), order=st.permutations(CALLS))
def test_random_gkls_semigroup_answers_in_any_order(seed, d, order):
    """Arrivals and divisibility scans of CP, PPT and EB on one handle, in a
    random order, each bitwise the answer of a fresh handle."""
    fam = random_gkls_family(np.random.default_rng(seed), d)
    assert fam.constant
    assert_arrival_is_delta0(fam, asymptotics.default_search(fam, grid_n=80), order[0][1],
                             orders=[order])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 3), order=st.permutations(CALLS))
def test_random_floquet_answers_in_any_order(seed, d, order):
    """As for semigroups, on Floquet families: the arrival and the core shift
    share the core's Delta(0) record."""
    fam, core = random_floquet(seed, d)
    assert_arrival_is_delta0(fam, asymptotics.default_search(core, grid_n=80), order[0][1],
                             orders=[order])


FLOQUET = [("floquet_rotating", None, None), ("random_floquet", 3, 2),
           ("random_floquet", 4, 3), ("random_floquet", 5, 3), ("random_floquet", 6, 3)]


@pytest.mark.parametrize("cone", ["CP", "coCP", "PPT"])
@pytest.mark.parametrize("name, seed, d", FLOQUET)
def test_floquet_arrival_through_the_core_is_the_family_grid(name, seed, d, cone):
    """The arrival of a Floquet family scans its core; tau and the
    certificate are bitwise those of ``_delta`` on the family's own grid."""
    if seed is None:
        fam, search = shipped_search(name)
    else:
        fam, core = random_floquet(seed, d)
        search = asymptotics.default_search(core, grid_n=200)
    assert "core" in fam.params
    ref, certificate, _ = asymptotics._delta(evolve.EvolutionHandle(fam), cone, 0.0, search,
                                             tolerances.PSD_TOL, shortcuts=False)
    got = arrival_outcome(evolve.EvolutionHandle(fam), cone, search)
    assert (bits(got[0]), got[1]) == (bits(ref), certificate)


def decaying_pauli(floors, kicks):
    """Pauli channel with rates c + a e^{-t} and their antiderivatives: a
    closed form that is not a semigroup; a negative kick makes a rate dip
    below zero early, so the family is not CP-divisible."""
    rates = tuple(lambda t, c=c, a=a: c + a * math.exp(-t) for c, a in zip(floors, kicks))
    antiderivatives = tuple(lambda t, c=c, a=a: c * t + a * (1.0 - math.exp(-t))
                            for c, a in zip(floors, kicks))
    return families.pauli_channel(rates, antiderivatives=antiderivatives)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(floors=st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3),
       kicks=st.lists(st.floats(-0.8, 0.8), min_size=3, max_size=3),
       constant=st.booleans(), cone=st.sampled_from(CONES))
def test_random_pauli_closed_form_arrival_is_delta0(floors, kicks, constant, cone):
    fam = (families.pauli_channel(tuple(floors)) if constant
           else decaying_pauli(floors, kicks))
    assert fam.closed_form is not None and fam.constant == constant
    assert_arrival_is_delta0(fam, asymptotics.Search(t_max=20.0, grid_n=150), cone)


# ---------------------------------------------------------------------------
# the propagator grid at s = 0


ROUTES = [
    ("spectral_closed_form", lambda: families.eternal_nm(2.0), "closed_form"),
    ("floquet_closed_form", lambda: shipped_family("floquet_rotating"), "closed_form"),
    ("commuting_exp", lambda: shipped_family("gkls_damped_qubit"), "commuting_exp"),
    ("ode", oscillating_gkls, "ode"),
]


@pytest.mark.parametrize("name, make, solver", ROUTES)
def test_propagator_grid_at_zero_is_the_solve_grid(monkeypatch, name, make, solver):
    fam = make()
    ts = np.linspace(0.0, 6.0, 25).tolist()
    want = evolve.EvolutionHandle(fam)._solve_grid(ts)
    handle = evolve.EvolutionHandle(fam)
    assert handle.solver == solver
    asked = []

    def refuse(*args):
        raise AssertionError("Lambda_0 inverted or its condition checked")

    solve, rows = evolve.EvolutionHandle.solve, evolve.EvolutionHandle._rows
    monkeypatch.setattr(evolve, "_check_invertible", refuse)
    monkeypatch.setattr(evolve.EvolutionHandle, "_invert_onto", refuse)
    monkeypatch.setattr(evolve.EvolutionHandle, "solve",
                        lambda self, t: asked.append(float(t)) or solve(self, t))
    monkeypatch.setattr(evolve.EvolutionHandle, "_rows",
                        lambda self, times: asked.extend(times) or rows(self, times))
    got = handle._propagator_grid(ts, 0.0)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # Lambda_0 is asked only where the grid itself holds t = 0
    asked.clear()
    evolve.EvolutionHandle(fam)._propagator_grid(ts[1:], 0.0)
    assert 0.0 not in asked
