"""Spectral closed forms through their coefficient rows.

Every spectral family is Lambda_t = sum_k c_k(t) Q_k, so a grid of maps is one
sum of coefficient rows and V_{t,s} = sum_k c_k(t) / c_k(s) Q_k.  Over random
families of each kind: grid stacks equal the per-point ``map_at`` bit for
bit, V_{t,s} o Lambda_s reproduces Lambda_t, V_{s,s} is exactly the
identity, and a start time past the pure-decoherence cutoff raises the
singular-map error with the condition number of Lambda_s.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebdyn import evolve, families, superop
from ebdyn.errors import SingularMapError

from helpers import random_density

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
RATE = st.floats(0.05, 1.5)
TIMES = st.lists(st.floats(0.0, 4.0), min_size=1, max_size=9)


def pauli(rates, amps, freqs):
    """Constant rates, or rates g + a sin(f t) integrated by quadrature."""
    if not any(amps):
        return families.pauli_channel(rates)
    return families.pauli_channel([
        (lambda t, g=g, a=a, f=f: g + a * math.sin(f * t)) if a else g
        for g, a, f in zip(rates, amps, freqs)
    ])


@st.composite
def pauli_families(draw):
    rates = [draw(st.floats(-0.2, 1.5)) for _ in range(3)]
    amps = [draw(st.sampled_from([0.0, 0.1, 0.3])) for _ in range(3)]
    freqs = [draw(st.floats(0.3, 2.0)) for _ in range(3)]
    return pauli(rates, amps, freqs)


@st.composite
def phase_covariant_families(draw):
    return families.phase_covariant(draw(st.floats(-2.0, 2.0)), draw(st.floats(-0.3, 1.5)),
                                    draw(st.floats(0.0, 1.5)), draw(st.floats(-0.3, 0.8)))


@st.composite
def depolarizing_families(draw):
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return families.depolarizing(draw(RATE), random_density(rng, d))


@st.composite
def pure_decoherence_families(draw):
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a0 = g @ g.conj().T / d
    h = list(rng.uniform(0.0, 2.0, d))
    cutoff = draw(st.one_of(st.none(), st.floats(0.5, 3.0)))
    a = a0 if draw(st.booleans()) else (lambda t: (1.0 + 0.5 * math.sin(t)) * a0)
    return families.pure_decoherence(h=h, a=a, cutoff=cutoff)


FAMILIES = {
    "pauli": pauli_families(),
    "eternal_nm": st.floats(0.2, 3.0).map(families.eternal_nm),
    "phase_covariant": phase_covariant_families(),
    "depolarizing": depolarizing_families(),
    "pure_decoherence": pure_decoherence_families(),
}


def per_point_map(fam, t):
    return np.eye(fam.d ** 2) if t == 0.0 else fam.closed_form.map_at(t).matrix


def check_family(fam, times, s):
    handle = evolve.EvolutionHandle(fam)
    assert handle.solver == "closed_form" and fam.closed_form.components is not None
    d2 = fam.d ** 2
    # grids: one sum of rows, each map bitwise the per-point map_at
    grid = handle._solve_grid(times)
    for t, got, lam in zip(times, grid, handle.solve_many(times)):
        want = per_point_map(fam, t)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(lam.matrix, want)
        np.testing.assert_array_equal(evolve.EvolutionHandle(fam).solve(t).matrix, want)
    # propagators from s
    ts = [s] + sorted(s + t for t in times)
    cutoff = fam.params.get("cutoff")
    if cutoff is not None and s >= cutoff:
        cond = float(np.linalg.cond(handle.solve(s).matrix))
        message = f"Lambda_s at s={s:g} is numerically singular (cond {cond:.3e})"
        for call in (lambda: handle._propagator_grid(ts, s),
                     lambda: handle.propagator(s + 1.0, s)):
            with pytest.raises(SingularMapError) as info:
                call()
            assert str(info.value) == message
        return
    props = handle._propagator_grid(ts, s)
    np.testing.assert_array_equal(props[0], np.eye(d2))
    np.testing.assert_array_equal(handle.propagator(s, s).matrix, np.eye(d2))
    lam_s = handle.solve(s).matrix
    for t, v, single in zip(ts, props, handle.propagator_many(ts, s)):
        np.testing.assert_array_equal(single.matrix, v)
        if t == s:
            continue
        if fam.constant:
            np.testing.assert_array_equal(v, per_point_map(fam, t - s))
        else:
            cf = fam.closed_form
            ratio = superop.spectral_sum(cf.coefficients(t) / cf.coefficients(s),
                                         cf.components, fam.d).matrix
            np.testing.assert_array_equal(v, ratio)
        lam_t = handle.solve(t).matrix
        np.testing.assert_allclose(v @ lam_s, lam_t, rtol=0,
                                   atol=1e-10 * max(1.0, np.abs(lam_t).max()))


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_rows_serve_grids_and_propagators(kind):
    @SETTINGS
    @given(fam=FAMILIES[kind], times=TIMES, s=st.floats(0.0, 3.5))
    def check(fam, times, s):
        check_family(fam, times, s)

    check()


def test_coefficients_broadcast():
    fam = pauli([0.3, 0.5, 0.2], [0.3, 0.0, 0.1], [1.1, 1.0, 0.7])
    cf = fam.closed_form
    ts = np.array([0.0, 0.4, 2.5])
    rows = cf.coefficients(ts)
    assert rows.shape == (3, 4) and cf.coefficients(0.4).shape == (4,)
    for t, row in zip(ts, rows):
        np.testing.assert_array_equal(row, cf.coefficients(t))


def test_overflow_raises():
    fam = families.phase_covariant(0.0, -1.0, -1.0, 0.0)
    with pytest.raises(FloatingPointError):
        fam.closed_form.coefficients(np.array([1.0, 1000.0]))
    with pytest.raises(FloatingPointError):
        fam.closed_form.map_at(1000.0)
