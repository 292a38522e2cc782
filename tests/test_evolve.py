"""Solver routes and propagator identities."""

import bisect
import dataclasses
import functools
import gc
import os
import weakref

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings, strategies as st

from ebdyn import asymptotics, cli, divisibility, evolve, families, matcore, superop
from ebdyn.errors import EbdynError, IntegrationFailureError, NoLimitError, SingularMapError

from helpers import (ginibre, inversion_atol, oscillating_pauli, random_gkls_family,
                     random_hermitian, shipped_family)


def catalog(rng):
    return [
        families.pauli_channel((0.3, 0.5, 0.9)),
        families.eternal_nm(1.5),
        families.phase_covariant(1.0, 0.8, 1.0, 0.2),
        families.depolarizing(1.0, np.diag([0.6, 0.4])),
        families.pure_decoherence(h=[0.0, 1.0], a=np.array([[0.8, 0.1], [0.1, 0.5]])),
        families.gkls(random_hermitian(rng, 2), [(ginibre(rng, 2), 0.9)]),
    ]


class TestSolverRoutes:
    def test_default_solver_selection(self):
        assert evolve.EvolutionHandle(families.eternal_nm(1.0)).solver == "closed_form"
        rng = np.random.default_rng(1)
        gk = families.gkls(random_hermitian(rng, 2), [(ginibre(rng, 2), 1.0)])
        assert evolve.EvolutionHandle(gk).solver == "commuting_exp"

    def test_unknown_solver_rejected(self):
        with pytest.raises(EbdynError):
            evolve.EvolutionHandle(families.eternal_nm(1.0), solver="magic")

    def test_closed_form_requires_closed_form(self):
        rng = np.random.default_rng(2)
        gk = families.gkls(random_hermitian(rng, 2), [(ginibre(rng, 2), 1.0)])
        with pytest.raises(EbdynError):
            evolve.EvolutionHandle(gk, solver="closed_form")

    def test_commuting_exp_requires_constant_generator(self):
        """A time-dependent generator has no exponential route, even where its
        samples commute: the default is the closed form or the ODE."""
        for fam in (oscillating_pauli(), oscillating_gkls(), looks_commutative_gkls()):
            assert not fam.constant
            with pytest.raises(EbdynError, match="constant generator"):
                evolve.EvolutionHandle(fam, solver="commuting_exp")
        assert evolve.EvolutionHandle(looks_commutative_gkls()).solver == "ode"

    def test_routes_agree(self):
        """Closed form, the constant generator's exponential and the ODE
        integrator coincide."""
        rng = np.random.default_rng(3)
        ts = np.linspace(0.0, 6.0, 7)
        for fam in catalog(rng):
            handles = [evolve.EvolutionHandle(fam, solver="ode", rtol=1e-11, atol=1e-13)]
            if fam.closed_form is not None:
                handles.append(evolve.EvolutionHandle(fam, solver="closed_form"))
            if fam.constant:
                handles.append(evolve.EvolutionHandle(fam, solver="commuting_exp"))
            sols = [h.solve_many(ts) for h in handles]
            for other in sols[1:]:
                for a, b in zip(sols[0], other):
                    np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-7)

    def test_time_zero_is_exact_identity(self):
        rng = np.random.default_rng(4)
        for fam in catalog(rng):
            h = evolve.EvolutionHandle(fam)
            np.testing.assert_array_equal(h.solve(0.0).matrix, np.eye(fam.d ** 2))

    def test_negative_time_rejected(self):
        h = evolve.EvolutionHandle(families.eternal_nm(1.0))
        with pytest.raises(EbdynError):
            h.solve(-0.1)
        with pytest.raises(EbdynError):
            h.solve_many([0.5, -0.5])

    def test_solve_many_preserves_input_order(self):
        h = evolve.EvolutionHandle(families.depolarizing(1.0, np.eye(2) / 2))
        ts = [2.0, 0.0, 1.0, 2.0]
        sols = h.solve_many(ts)
        for t, lam in zip(ts, sols):
            np.testing.assert_allclose(
                lam.matrix, h.solve(t).matrix, atol=1e-12
            )

    def test_cache_returns_same_object(self):
        fam = families.eternal_nm(1.0)
        h = evolve.EvolutionHandle(fam, solver="ode")
        assert h.solve(1.0) is h.solve(1.0)
        cold = evolve.EvolutionHandle(fam, solver="ode")
        assert cold.solve(1.0) is not h.solve(1.0)

    def test_closed_form_cache_holds_coefficient_rows(self):
        h = evolve.EvolutionHandle(families.eternal_nm(1.0))
        h.solve(1.0)
        h._solve_grid([0.5, 1.0, 2.0])
        h._propagator_grid([2.0, 3.0], 0.5)
        assert sorted(h._cache) == [0.5, 1.0, 2.0, 3.0]
        for t, row in h._cache.items():
            assert row.shape == (4,)
            np.testing.assert_array_equal(row, h.family.closed_form.coefficients(t))


class TestPropagators:
    def test_propagator_glues_onto_lambda(self):
        rng = np.random.default_rng(10)
        for fam in catalog(rng):
            h = evolve.EvolutionHandle(fam)
            s, t = 0.7, 2.4
            v = h.propagator(t, s)
            np.testing.assert_allclose(
                (v @ h.solve(s)).matrix, h.solve(t).matrix, atol=1e-8
            )

    def test_propagator_at_equal_times(self):
        h = evolve.EvolutionHandle(families.eternal_nm(1.0))
        np.testing.assert_array_equal(h.propagator(1.3, 1.3).matrix, np.eye(4))

    def test_propagator_ordering_enforced(self):
        h = evolve.EvolutionHandle(families.eternal_nm(1.0))
        with pytest.raises(EbdynError):
            h.propagator(0.5, 1.0)
        with pytest.raises(EbdynError):
            h.propagator_many([2.0, 0.5], 1.0)

    def test_semigroup_propagator_depends_on_difference(self):
        fam = families.depolarizing(1.0, np.diag([0.7, 0.3]))
        h = evolve.EvolutionHandle(fam)
        a = h.propagator(2.0, 0.5)
        b = h.propagator(3.1, 1.6)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)

    def test_propagator_many_matches_single(self):
        fam = families.eternal_nm(2.0)
        h = evolve.EvolutionHandle(fam)
        ts = [1.0, 1.5, 3.0]
        many = h.propagator_many(ts, 1.0)
        for t, v in zip(ts, many):
            np.testing.assert_allclose(v.matrix, h.propagator(t, 1.0).matrix, atol=1e-12)

    def test_coefficient_route_for_time_dependent_family(self):
        # pure decoherence with time-dependent rates: V from the rows c(t) / c(s)
        fam = families.pure_decoherence(
            a=lambda t: (1 + 0.5 * t) * np.array([[1.0, 0.6], [0.6, 0.5]])
        )
        h = evolve.EvolutionHandle(fam)
        s, t = 0.5, 1.7
        v = h.propagator(t, s)
        np.testing.assert_allclose((v @ h.solve(s)).matrix, h.solve(t).matrix, atol=1e-8)

    def test_singular_map_raises(self):
        fam = families.pure_decoherence(
            a=np.array([[1.0, 0.0], [0.0, 0.2]]), cutoff=1.0
        )
        h = evolve.EvolutionHandle(fam, solver="closed_form")
        with pytest.raises(SingularMapError):
            h.propagator(3.0, 2.0)


class TestStackedGrids:
    """Grid paths against the per-point loops they replace."""

    @staticmethod
    def per_point_ratio(fam, ts, s):
        cf = fam.closed_form
        c_s = cf.coefficients(s)
        return [np.eye(fam.d ** 2) if t == s else
                superop.spectral_sum(cf.coefficients(t) / c_s, cf.components, fam.d).matrix
                for t in ts]

    @staticmethod
    def per_point_inversion(handle, ts, s):
        lam_s = handle.solve(s).matrix
        return [np.linalg.solve(lam_s.T, lam.matrix.T).T for lam in handle.solve_many(ts)]

    @pytest.mark.parametrize("make, starts", [
        (lambda: shipped_family("pure_decoherence_cutoff"), (0.0, 0.4, 1.3, 3.9)),
        (oscillating_pauli, (0.0, 0.5, 2.0, 6.0)),
    ])
    def test_one_sum_equals_per_point_rows(self, make, starts):
        fam = make()
        handle = evolve.EvolutionHandle(fam)
        assert fam.closed_form.propagator_at is None and not fam.constant
        for s in starts:
            ts = np.linspace(s, s + 12.0, 150).tolist()
            want = self.per_point_ratio(fam, ts, s)
            grid = handle._propagator_grid(ts, s)
            assert grid.shape == (len(ts),) + want[0].shape
            for got, v, w in zip(grid, handle.propagator_many(ts, s), want):
                np.testing.assert_array_equal(got, w)
                np.testing.assert_array_equal(v.matrix, w)
            np.testing.assert_array_equal(handle.propagator(ts[7], s).matrix, want[7])
            # the Lambda_s^-1 route of other families, as a cross-check
            atol = inversion_atol(handle.solve(s).matrix)
            for got, w in zip(grid, self.per_point_inversion(handle, ts, s)):
                np.testing.assert_allclose(got, w, rtol=0, atol=atol)

    def test_singular_start_raises_as_before(self):
        fam = shipped_family("pure_decoherence_cutoff")
        handle = evolve.EvolutionHandle(fam)
        s = 4.5  # past the cutoff the coherences are exactly zero
        cond = float(np.linalg.cond(handle.solve(s).matrix))
        message = f"Lambda_s at s={s:g} is numerically singular (cond {cond:.3e})"
        ts = [s, 5.0, 6.0]
        for call in (lambda: handle._propagator_grid(ts, s),
                     lambda: handle.propagator_many(ts, s),
                     lambda: handle.propagator(6.0, s)):
            with pytest.raises(SingularMapError) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize("make", [
        lambda: shipped_family("gkls_damped_qubit"),
        lambda: families.depolarizing(1.0, np.diag([0.6, 0.4])),
        oscillating_pauli,
    ])
    def test_grids_keep_exact_identity_and_empty_input(self, make):
        handle = evolve.EvolutionHandle(make())
        d2 = handle.family.d ** 2
        grid = handle._solve_grid([0.0, 0.5, 0.0])
        np.testing.assert_array_equal(grid[0], np.eye(d2))
        np.testing.assert_array_equal(grid[2], np.eye(d2))
        # V_{s,s} is exact on every route but the inversion one
        np.testing.assert_array_equal(handle._propagator_grid([1.0, 2.0], 1.0)[0], np.eye(d2))
        assert handle._solve_grid([]).shape == (0, d2, d2)
        assert handle.solve_many([]) == [] and handle.propagator_many([], 1.0) == []


class TestModuleWrappers:
    def test_accept_family_or_handle(self):
        fam = families.eternal_nm(1.0)
        a = evolve.solve(fam, 0.8)
        h = evolve.EvolutionHandle(fam)
        b = evolve.solve(h, 0.8)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-14)

    def test_wrappers_cover_all_entry_points(self):
        fam = families.depolarizing(1.0, np.eye(2) / 2)
        ts = [0.5, 1.0]
        sols = evolve.solve_many(fam, ts)
        assert len(sols) == 2
        v = evolve.propagator(fam, 1.0, 0.5)
        vs = evolve.propagator_many(fam, ts, 0.5)
        np.testing.assert_allclose(v.matrix, vs[1].matrix, atol=1e-12)


def test_ode_handles_time_dependent_generator():
    fam = families.eternal_nm(2.0)
    ode = evolve.EvolutionHandle(fam, solver="ode", rtol=1e-11, atol=1e-13)
    exact = fam.closed_form.map_at(4.0)
    np.testing.assert_allclose(ode.solve(4.0).matrix, exact.matrix, atol=1e-8)


@pytest.mark.parametrize(
    "name", ["gkls_damped_qubit", "detailed_balance_ladder", "diagonally_covariant"])
def test_constant_generator_handle_matches_scipy(name):
    """One diagonalization per handle reproduces expm(t L) time by time."""
    config = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                          "configs", f"{name}.ini")
    fam, _ = cli.load_config(config)
    gen = fam.generator_matrix(0.0)
    handle = evolve.EvolutionHandle(fam)
    assert handle.solver == "commuting_exp"
    times = np.linspace(0.0, 12.0, 25)[1:]
    batch = handle.solve_many(times)
    for t, lam in zip(times, batch):
        want = scipy.linalg.expm(t * gen)
        atol = 1e-12 * np.abs(want).max()
        np.testing.assert_allclose(handle.solve(t).matrix, want, rtol=0, atol=atol)
        np.testing.assert_allclose(lam.matrix, want, rtol=0, atol=atol)
    for t, s in ((3.0, 1.0), (11.5, 0.25)):
        want = scipy.linalg.expm((t - s) * gen)
        np.testing.assert_allclose(handle.propagator(t, s).matrix, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())


def test_floquet_ode_agreement():
    period = 2.0

    def p(t):
        return np.diag([np.exp(-1j * np.pi * t), 1.0])

    def dp(t):
        return np.diag([-1j * np.pi * np.exp(-1j * np.pi * t), 0.0])

    core = families.depolarizing(1.0, np.diag([0.6, 0.4]))
    fam = families.floquet_product(p, period, core, dp_of_t=dp)
    ode = evolve.EvolutionHandle(fam, solver="ode", rtol=1e-11, atol=1e-13)
    for t in (0.9, 2.6):
        np.testing.assert_allclose(
            ode.solve(t).matrix, fam.closed_form.map_at(t).matrix, atol=1e-7
        )


def oscillating_gkls():
    """Non-commuting GKLS with one oscillating rate: evolved by ``ode``."""
    rng = np.random.default_rng(0)
    return families.gkls(random_hermitian(rng, 2, 0.5), [
        (ginibre(rng, 2) / 2, 0.6),
        (ginibre(rng, 2) / 2, lambda t: 0.5 * (1.0 + 0.5 * np.sin(t))),
    ])


def looks_commutative_gkls():
    """Qubit GKLS whose second jump switches on at t = 3: its generators commute
    at the sampled times, all before t = 3, but not across t = 3."""
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])
    return families.gkls(np.zeros((2, 2)), [
        (lower, 1.0),
        (np.diag([1.0, -1.0]) + lower.T, lambda t: 0.0 if t < 3.0 else 0.8),
    ])


def test_a_family_that_only_looks_commutative_runs_on_the_trajectory():
    """Lambda_6 is the time-ordered product expm(3 L(4)) expm(3 L(1)), not the
    exponential of the integrated generator (off by 8.4e-2, PPT arrival 3.165)."""
    fam = looks_commutative_gkls()
    gen = fam.generator_matrix
    assert not fam.constant
    assert np.abs(gen(4.0) @ gen(1.0) - gen(1.0) @ gen(4.0)).max() > 0.1
    handle = evolve.EvolutionHandle(fam)
    assert handle.solver == "ode"

    def exact(t):  # for t >= 3
        return scipy.linalg.expm((t - 3.0) * gen(4.0)) @ scipy.linalg.expm(3.0 * gen(1.0))

    np.testing.assert_allclose(handle.solve(6.0).matrix, exact(6.0), rtol=0, atol=1e-9)
    # the PPT witness of the exact maps changes sign once, at 3.0681
    tau = scipy.optimize.brentq(
        lambda t: asymptotics.cone_witness(superop.Superoperator(exact(t), 2), "PPT"),
        3.0, 4.0, xtol=1e-13)
    res = asymptotics.arrival_time(handle, "PPT", search=asymptotics.Search(12.0, 400))
    assert res.tau == pytest.approx(tau, abs=1e-8)


def step_ends(handle):
    """The step ends of the handle's trajectory, [] before its first ``ode`` read."""
    return [] if handle._trajectory is None else handle._trajectory._ends


@functools.cache
def oscillating_gkls_ends_to_6():
    """The step ends up to t = 6, where a read takes the stored state instead
    of the interpolant."""
    handle = evolve.EvolutionHandle(oscillating_gkls())
    handle.solve(6.0)
    return [t for t in step_ends(handle) if t <= 6.0]


@functools.cache
def oscillating_gkls_dense_outputs_to_6():
    """The step ends up to t = 6, the state at each and the ``dense_output()``
    of each step, from a DOP853 on the handle's equation that builds every
    interpolant."""
    fam = oscillating_gkls()
    d2 = fam.d ** 2
    handle = evolve.EvolutionHandle(fam)
    solver = scipy.integrate.DOP853(
        lambda t, y: (fam.generator_matrix(t) @ y.reshape(d2, d2)).ravel(), 0.0,
        np.eye(d2, dtype=complex).ravel(), t_bound=np.inf, rtol=handle.rtol, atol=handle.atol)
    ends, states, dense = [], [], []
    while solver.t < 6.0:
        solver.step()
        ends.append(solver.t)
        states.append(solver.y)
        dense.append(solver.dense_output())
    return ends, states, dense


class TestTrajectory:
    """``ode`` reads every Lambda_t from one DOP853 trajectory per handle."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_reads_are_bitwise_independent_of_order_and_grouping(self, data):
        ends = oscillating_gkls_ends_to_6()
        times = data.draw(st.lists(
            st.one_of(st.floats(0.0, 6.0), st.sampled_from(ends), st.just(0.0)),
            min_size=1, max_size=12))
        fam = oscillating_gkls()
        alone = evolve.EvolutionHandle(fam)
        want = {t: alone.solve(t).matrix for t in sorted(set(times))}
        order = data.draw(st.permutations(times))
        cuts = sorted(data.draw(st.sets(st.integers(1, len(order)), max_size=4)))
        handle = evolve.EvolutionHandle(fam)
        for lo, hi in zip([0] + cuts, cuts + [len(order)]):
            part = order[lo:hi]
            for t, got in zip(part, handle._solve_grid(part)):
                np.testing.assert_array_equal(got, want[t])
        # the same steps, whatever the order: each ends at the latest time read
        assert step_ends(handle) == step_ends(alone)

    def test_a_step_end_reads_the_stored_state(self):
        handle = evolve.EvolutionHandle(oscillating_gkls())
        handle.solve(3.0)
        traj = handle._trajectory
        for k in (0, len(traj._ends) // 2, len(traj._ends) - 1):
            t = traj._ends[k]
            np.testing.assert_array_equal(handle.solve(t).matrix.ravel(), traj._states[k])
            # the interpolant at its own end agrees to rounding
            np.testing.assert_allclose(traj._interpolant(k)(t), traj._states[k],
                                       rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_lazy_interpolant_is_bitwise_the_dense_output(self, data):
        """Built on first read, in any order of steps, each interpolant is that
        of a DOP853 that called ``dense_output()`` after every step."""
        ends, _, reference = oscillating_gkls_dense_outputs_to_6()
        handle = evolve.EvolutionHandle(oscillating_gkls())
        handle.solve(ends[-1])
        traj = handle._trajectory
        assert traj._ends[:len(ends)] == ends
        steps = data.draw(st.lists(st.integers(0, len(ends) - 1), min_size=1, max_size=6))
        for k in steps:
            fracs = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
            ts = np.array([reference[k].t_old + x * reference[k].h for x in fracs])
            got = traj._interpolant(k)
            np.testing.assert_array_equal(got.F, reference[k].F)
            np.testing.assert_array_equal(got(ts), reference[k](ts))
            assert (got.t_old, got.t, got.h) == (reference[k].t_old, reference[k].t, reference[k].h)
            assert traj._interpolant(k) is got  # built once, then kept

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_stacked_reads_are_bitwise_the_dense_output_of_each_step(self, data):
        """A read of many times across many steps, with step ends and repeats
        among them, in any order and grouping, gives on a step end the state
        of a DOP853 and elsewhere the ``dense_output()`` of its step."""
        ends, states, reference = oscillating_gkls_dense_outputs_to_6()
        inside = st.tuples(st.integers(0, len(ends) - 1), st.floats(0.0, 1.0)).map(
            lambda kx: reference[kx[0]].t_old + kx[1] * reference[kx[0]].h)
        times = sorted(data.draw(st.lists(
            st.one_of(inside, st.sampled_from(ends)), min_size=1, max_size=60)))
        times += data.draw(st.lists(st.sampled_from(times), max_size=6))  # repeats
        order = data.draw(st.permutations(times))
        cuts = sorted(data.draw(st.sets(st.integers(1, len(order)), max_size=3)))
        handle = evolve.EvolutionHandle(oscillating_gkls())
        d2 = handle.family.d ** 2
        for lo, hi in zip([0] + cuts, cuts + [len(order)]):
            part = order[lo:hi]
            for t, got in zip(part, handle._solve_grid(part)):
                k = bisect.bisect_left(ends, t)
                if t == 0.0:
                    want = np.eye(d2)
                elif t == ends[k]:
                    want = states[k].reshape(d2, d2)
                else:
                    want = reference[k](np.array([t]))[:, 0].reshape(d2, d2)
                np.testing.assert_array_equal(got, want)

    def test_reads_on_step_ends_evaluate_no_interpolant(self):
        fam = oscillating_gkls()
        ends = oscillating_gkls_ends_to_6()
        calls = []

        def counted(t):
            calls.append(t)
            return fam.generator_matrix(t)

        handle = evolve.EvolutionHandle(dataclasses.replace(fam, generator_matrix=counted))
        handle._solve_grid(ends)
        # a bare DOP853 taking the same steps makes as many evaluations
        d2 = fam.d ** 2
        bare = scipy.integrate.DOP853(
            lambda t, y: (fam.generator_matrix(t) @ y.reshape(d2, d2)).ravel(), 0.0,
            np.eye(d2, dtype=complex).ravel(), t_bound=np.inf,
            rtol=handle.rtol, atol=handle.atol)
        for _ in ends:
            bare.step()
        assert len(calls) == bare.nfev
        assert all(isinstance(step, tuple) for step in handle._trajectory._steps)
        # the first read inside a step builds its interpolant: 3 extra stages
        handle.solve(0.5 * (ends[3] + ends[4]))
        assert len(calls) == bare.nfev + 3
        handle._solve_grid([0.25 * ends[3] + 0.75 * ends[4], ends[4]])
        assert len(calls) == bare.nfev + 3

    def test_a_trajectory_is_freed_with_its_handle_by_reference_counting(self):
        handle = evolve.EvolutionHandle(oscillating_gkls())
        handle.solve(3.0)
        kept = weakref.ref(handle._trajectory)
        gc.disable()
        try:
            del handle
            assert kept() is None
        finally:
            gc.enable()

    def test_propagator_grid_is_bitwise_propagator(self):
        handle = evolve.EvolutionHandle(oscillating_gkls())
        assert handle.solver == "ode"
        for s in (0.0, 0.7, 2.5):
            ts = np.linspace(s, s + 6.0, 25)[1:].tolist()
            grid = handle._propagator_grid(ts, s)
            fresh = evolve.EvolutionHandle(handle.family)
            for t, got in zip(ts, grid):
                np.testing.assert_array_equal(got, handle.propagator(t, s).matrix)
                np.testing.assert_array_equal(got, fresh.propagator(t, s).matrix)

    @pytest.mark.parametrize("case", ["eternal_nm", "constant_gkls"])
    def test_agrees_with_exact_maps_on_a_long_horizon(self, case):
        if case == "eternal_nm":
            fam = families.eternal_nm(1.0)

            def exact(t):
                return fam.closed_form.map_at(t).matrix
        else:
            fam = random_gkls_family(np.random.default_rng(3), 3)
            gen = fam.generator_matrix(0.0)

            def exact(t):
                return scipy.linalg.expm(t * gen)
        handle = evolve.EvolutionHandle(fam, solver="ode")
        ts = np.linspace(0.0, 50.0, 201).tolist()
        for t, got in zip(ts, handle._solve_grid(ts)):
            np.testing.assert_allclose(got, exact(t), rtol=0, atol=1e-8)
        # off the grid, between step ends, through the interpolants
        for t in (0.013, 17.77, 49.99):
            np.testing.assert_allclose(handle.solve(t).matrix, exact(t), rtol=0, atol=1e-8)

    def test_one_integration_per_handle_across_a_divisibility_group(self, monkeypatch):
        built = []

        class CountedDOP853(scipy.integrate.DOP853):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "DOP853", CountedDOP853)
        handle = evolve.EvolutionHandle(oscillating_gkls())
        search = asymptotics.Search(t_max=10.0, grid_n=40)
        for s in (0.0, 1.0, 2.0, 3.0, 5.0):
            for cone in ("CP", "PPT", "EB"):
                report = divisibility.scan_divisibility(handle, cone, s_grid=[s], search=search)
                assert report.verdict == "certified"
        assert len(built) == 1
        # the limit is refused at its first settling read, 1.0625 t_max; no
        # scan reads past 5 + t_max, and nothing near 2 t_max = 20
        assert isinstance(handle._scans[("limit", 10.0)], NoLimitError)
        assert 10.625 <= built[0].t and handle._trajectory._ends[-2] < 15.0

    def test_a_nan_generator_ends_in_integration_failure(self):
        fam = families.gkls(np.diag([0.0, 1.0]), [
            (np.array([[0.0, 1.0], [0.0, 0.0]]), lambda t: 1.0 if t < 5.0 else np.nan)])
        handle = evolve.EvolutionHandle(fam, solver="ode")
        before = handle.solve(4.0).matrix
        assert np.isfinite(before).all()
        with np.errstate(invalid="ignore"):
            for call in (lambda: handle.solve(6.0), lambda: handle._solve_grid([1.0, 7.0]),
                         lambda: handle.solve(8.0)):
                with pytest.raises(IntegrationFailureError, match="DOP853 failed"):
                    call()
        # what was integrated before the failure still reads
        np.testing.assert_array_equal(
            evolve.EvolutionHandle(fam, solver="ode").solve(4.5).matrix, handle.solve(4.5).matrix)
