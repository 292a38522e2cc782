"""The numeric limit of every family with no exact limit: time-dependent
families, with a spectral closed form or without a closed form.

A limit is a limit of the map: Lambda_t must stay at Lambda_t1 (t1 the
horizon) at off-grid times up to 2 t1, read in increasing order, or there is
no limit, and a family that does not settle is refused a sixteenth of t1
past the horizon.  A family whose stationary state omega(t) oscillates has
spectra that agree at t1 and 2 t1 while the map does not settle, so it must
never get a tail (``asymptotic_interior``).  An accepted limit with a
one-dimensional range is X -> tr(X) omega, which preserves Hermiticity.
"""

import math

import numpy as np
import pytest
import scipy.integrate

from ebdyn import asymptotics, classify, divisibility, evolve, families, superop
from ebdyn.errors import NoLimitError

from helpers import generator_kernel, ginibre, random_hermitian
from test_evolve import looks_commutative_gkls, oscillating_gkls


def td_gkls(rng, d, ranges=((0.3, 1.0), (0.2, 0.8), (0.5, 2.0))):
    """Non-commuting GKLS with a constant jump channel and one whose rate is
    g0 (1 + a sin(f t)), drawn from ``ranges`` of (g0, a, f)."""
    (g_lo, g_hi), (a_lo, a_hi), (f_lo, f_hi) = ranges
    hamiltonian = random_hermitian(rng, d, 0.5)
    constant = (ginibre(rng, d) / math.sqrt(2.0 * d), rng.uniform(g_lo, g_hi))
    jump = ginibre(rng, d) / math.sqrt(2.0 * d)
    g0, amp, freq = rng.uniform(g_lo, g_hi), rng.uniform(a_lo, a_hi), rng.uniform(f_lo, f_hi)
    return families.gkls(hamiltonian, [
        constant, (jump, lambda t: g0 * (1.0 + amp * math.sin(freq * t)))])


def benchmark_gkls_td():
    """The time-dependent GKLS of the ``divisibility`` benchmark workload (seed
    2, narrow parameter ranges, horizon 24), whose limit used to be accepted
    from its spectra at 24 and 48 although Lambda_49.3 is 0.114 away."""
    return td_gkls(np.random.default_rng(2), 2, ((0.5, 0.8), (0.4, 0.6), (0.9, 1.1))), 24.0


OSCILLATING = {
    "oscillating_gkls": lambda: (oscillating_gkls(),
                                 asymptotics.default_search(oscillating_gkls()).t_max),
    "benchmark_gkls_td": benchmark_gkls_td,
}


@pytest.mark.parametrize("case", sorted(OSCILLATING))
def test_an_oscillating_state_never_gets_asymptotic_interior(case):
    fam, t1 = OSCILLATING[case]()
    handle = evolve.EvolutionHandle(fam)
    assert handle.solver == "ode"
    with pytest.raises(NoLimitError, match="has not settled"):
        asymptotics.asymptotic_map(fam, handle=handle, horizon=t1)
    for s in (0.0, 1.0, 3.0):
        for cone in ("CP", "PPT", "EB"):
            assert asymptotics._tail(handle, cone, s, t1) == (None, None)
    search = asymptotics.Search(t_max=t1, grid_n=100)
    for cone in ("CP", "PPT", "EB"):
        rep = divisibility.scan_divisibility(handle, cone, s_grid=[0.0, 3.0], search=search)
        assert "asymptotic_interior" not in rep.certificates
    verdict = asymptotics.predict_eventually_eb(fam, handle=handle, horizon=t1)
    assert (verdict.classification, verdict.predictor_basis) == ("undetermined", "none")
    assert "has not settled" in verdict.numeric_evidence["no_limit"]


@pytest.mark.parametrize("case", sorted(OSCILLATING))
def test_a_family_that_does_not_settle_is_refused_a_sixteenth_past_the_horizon(
        case, monkeypatch):
    """Counted with a wrapped ``DOP853.step``: the refusal takes the steps a
    bare DOP853 takes to reach 1.0625 t1, where the old check integrated to 2 t1."""
    fam, t1 = OSCILLATING[case]()
    handle = evolve.EvolutionHandle(fam)
    d2 = fam.d ** 2
    bare = scipy.integrate.DOP853(
        lambda t, y: (fam.generator_matrix(t) @ y.reshape(d2, d2)).ravel(), 0.0,
        np.eye(d2, dtype=complex).ravel(), t_bound=np.inf, rtol=handle.rtol, atol=handle.atol)
    n_bare = 0
    while bare.t < 1.0625 * t1:
        bare.step()
        n_bare += 1
    stepped = []
    step = scipy.integrate.DOP853.step

    def counted(solver):
        stepped.append(solver.t)
        return step(solver)

    monkeypatch.setattr(scipy.integrate.DOP853, "step", counted)
    with pytest.raises(NoLimitError):
        asymptotics.asymptotic_map(fam, handle=handle, horizon=t1)
    assert len(stepped) == n_bare and handle._trajectory._solver.t == bare.t
    assert stepped[-1] < 1.0625 * t1 <= bare.t


def test_a_rate_that_becomes_constant_has_the_kernel_projector_as_its_limit():
    """From t = 3 on, the generator of ``looks_commutative_gkls`` is constant,
    with a kernel spanned by one state: the limit is X -> tr(X) omega, exactly
    Hermiticity preserving, within 1e-8 of the projector from a plain eig of
    the final generator."""
    fam = looks_commutative_gkls()
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])
    final = families.gkls(np.zeros((2, 2)), [(lower, 1.0), (np.diag([1.0, -1.0]) + lower.T, 0.8)])
    np.testing.assert_array_equal(final.generator_matrix(0.0), fam.generator_matrix(4.0))
    dim, omega = generator_kernel(final)
    assert dim == 1
    limit = asymptotics.asymptotic_map(fam)
    choi = superop.to_choi(limit).matrix
    np.testing.assert_array_equal(choi, choi.conj().T)
    np.testing.assert_allclose(limit.matrix, classify.projector_onto_state(omega).matrix,
                               rtol=0, atol=1e-8)


@pytest.mark.parametrize("case, expected", [
    ("looks_commutative_gkls", ("eventually_EB", "asymptotic_interior")),
    ("td_gkls_seed_5", ("undetermined", "none")),
])
def test_predict_eventually_eb_reads_the_numeric_limit_without_a_hermiticity_error(
        case, expected):
    """Both raised NotHermitianError from a limit rebuilt from the eigenvectors
    of Lambda_{2 t1} (Choi deviations 6.9e-8 and 1.05e-9)."""
    fam = (looks_commutative_gkls() if case == "looks_commutative_gkls"
           else td_gkls(np.random.default_rng(5), 2))
    verdict = asymptotics.predict_eventually_eb(fam)
    assert (verdict.classification, verdict.predictor_basis) == expected


def test_a_spectral_closed_form_that_does_not_settle_has_no_limit():
    """Rate cos t: the coefficients exp(-2 sin t) are 1 at t1 = 4 pi and at
    2 t1, so a limit read from those two times alone was the identity, and
    the identity's witness answered ``not_asymptotically_EB``; Lambda_t is
    0.54 (relative) away at 1.0625 t1."""
    fam = families.pauli_channel((math.cos, 0.0, 0.0), antiderivatives=(math.sin, None, None))
    t1 = 4.0 * math.pi
    handle = evolve.EvolutionHandle(fam)
    assert handle.solver == "closed_form" and fam.closed_form.asymptotic_coefficients is None
    with pytest.raises(NoLimitError, match="has not settled"):
        asymptotics.asymptotic_map(fam, handle=handle, horizon=t1)
    verdict = asymptotics.predict_eventually_eb(fam, handle=handle, horizon=t1)
    assert (verdict.classification, verdict.predictor_basis) == ("undetermined", "none")
