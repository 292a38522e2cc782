"""Long-time structure: asymptotic maps, arrival times, predictors, lemma helpers."""

import math

import numpy as np
import pytest

from ebdyn import asymptotics, classify, evolve, families, matcore, superop
from ebdyn.errors import (
    InvalidIntervalError,
    NoLimitError,
    NotAProbabilityVectorError,
    NotReachedError,
)

from helpers import count_eig, generator_kernel, ginibre, random_gkls_family
from test_evolve import oscillating_gkls


class TestWitnesses:
    def test_witness_pair_on_transpose(self):
        wc, wp = asymptotics.witness_pair(superop.transpose_map(2))
        assert wc == pytest.approx(-1.0, abs=1e-12)
        assert wp == pytest.approx(0.0, abs=1e-12)

    def test_cone_witness_dispatch(self):
        phi = superop.transpose_map(2)
        assert asymptotics.cone_witness(phi, "CP") == pytest.approx(-1.0, abs=1e-12)
        assert asymptotics.cone_witness(phi, "coCP") == pytest.approx(0.0, abs=1e-12)
        assert asymptotics.cone_witness(phi, "PPT") == pytest.approx(-1.0, abs=1e-12)
        assert asymptotics.cone_witness(phi, "P") >= -1e-9

    def test_unknown_cone(self):
        with pytest.raises(ValueError):
            asymptotics.cone_witness(superop.identity(2), "EBB")

    def test_cone_order_is_hierarchy(self):
        assert asymptotics.CONES == ("P", "CP", "coCP", "PPT", "EB")


class TestSearch:
    def test_bisect_tol_scales_with_horizon(self):
        s = asymptotics.Search(t_max=50.0)
        assert s.resolved_bisect_tol() == pytest.approx(5e-9)
        assert asymptotics.Search(t_max=50.0, bisect_tol=1e-6).resolved_bisect_tol() == 1e-6

    @pytest.mark.parametrize("kwargs", [
        # nan and inf ended the bisection at once: tau read 1.0909, the
        # middle of the grid cell, where ln 3 = 1.0986
        {"bisect_tol": math.nan}, {"bisect_tol": math.inf}, {"bisect_tol": -1e-6},
        {"bisect_tol": "1e-6"},
        # grid_n = 0 raised an IndexError
        {"grid_n": 0}, {"grid_n": 1},
        # t_max = -1 raised NotReachedError "at horizon t_max=-1"
        {"t_max": -1.0}, {"t_max": 0.0}, {"t_max": math.nan}, {"t_max": math.inf},
    ])
    def test_invalid_search_raises_value_error(self, kwargs):
        fam = families.depolarizing(1.0, np.eye(2) / 2)
        with pytest.raises(ValueError):
            search = asymptotics.Search(**{"t_max": 8.0, **kwargs})
            asymptotics.arrival_time(fam, "PPT", search=search)
        with pytest.raises(ValueError):
            asymptotics.default_search(fam, **{"t_max": 8.0, **kwargs})

    def test_a_fractional_grid_n_raises_value_error(self):
        with pytest.raises(ValueError):
            asymptotics.Search(t_max=8.0, grid_n=2.5)
        fam = families.depolarizing(1.0, np.eye(2) / 2)
        for grid_n in (2.5, 2000.0):  # not truncated to 2 points, nor taken as a float
            with pytest.raises(ValueError):
                asymptotics.default_search(fam, grid_n=grid_n)
        assert asymptotics.default_search(fam, grid_n=np.int64(50)).grid_n == 50

    @pytest.mark.parametrize("kwargs", [
        {"grid_n": 2}, {"bisect_tol": 0.0}, {"t_max": 4, "grid_n": np.int64(50)},
    ])
    def test_edge_searches_arrive_at_ln3(self, kwargs):
        fam = families.depolarizing(1.0, np.eye(2) / 2)
        search = asymptotics.Search(**{"t_max": 8.0, **kwargs})
        res = asymptotics.arrival_time(fam, "PPT", search=search)
        assert res.tau == pytest.approx(math.log(3.0), abs=1e-8)

    def test_default_search_uses_spectral_gap(self):
        fam = families.depolarizing(2.0, np.eye(2) / 2)
        s = asymptotics.default_search(fam)
        assert s.t_max == pytest.approx(10.0)

    def test_default_search_fallback(self):
        fam = families.pure_decoherence(a=np.zeros((2, 2)))
        assert asymptotics.default_search(fam).t_max == pytest.approx(20.0)

    def test_default_search_reads_the_handle_exponential(self, monkeypatch):
        """A constant generator without a closed form gives the gap from its
        family's spectral record, which is the handle's exponential: one eig
        per family, whether a handle or the family asks first."""
        calls = count_eig(monkeypatch)
        rng = np.random.default_rng(41)
        for d in (2, 3, 4):
            fam = random_gkls_family(rng, d)
            handle = evolve.EvolutionHandle(fam)
            search = asymptotics.default_search(handle, grid_n=50)
            record = fam.spectrum
            assert isinstance(record, matcore.GeneratorExponential)
            re = np.abs(np.linalg.eigvals(fam.generator_matrix(0.0)).real)
            gap = re[re > 1e-9 * np.abs(fam.generator_matrix(0.0)).max()].min()
            assert search.t_max == pytest.approx(20.0 / gap, rel=1e-12)
            assert asymptotics.default_search(fam, grid_n=50).t_max == search.t_max
            handle.solve(1.0)
            assert fam.spectrum is record
        assert calls == {"eig": 3, "eigvals": 3}  # the three eigvals are the test's

    def test_default_search_of_a_family_builds_no_exponential(self, monkeypatch):
        """A family with a closed form, or a time-dependent one, never reads
        eigenvectors: eigvals, as before, and no record."""
        calls = count_eig(monkeypatch)
        rng = np.random.default_rng(42)
        closed = families.phase_covariant(0.7, 0.4, 0.2, 0.1)
        timed = families.gkls(np.zeros((2, 2)), [(ginibre(rng, 2), lambda t: 1.0 + 0.5 * math.sin(t))])
        for fam in (closed, timed):
            asymptotics.default_search(fam)
        assert calls == {"eig": 0, "eigvals": 2}
        assert "spectrum" not in vars(closed) and timed.spectrum is None

    def test_default_search_keeps_eigvals_for_other_solvers(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(1) or eigvals(m))
        fam = families.depolarizing(2.0, np.eye(2) / 2)
        assert asymptotics.default_search(evolve.EvolutionHandle(fam)).t_max == pytest.approx(10.0)
        ode = evolve.EvolutionHandle(oscillating_gkls())
        asymptotics.default_search(ode)
        assert len(calls) == 2 and ode.solver == "ode" and ode.family.spectrum is None


class TestAsymptoticMap:
    def test_depolarizing_limit_is_state_projector(self):
        omega = np.diag([0.6, 0.4])
        fam = families.depolarizing(1.0, omega)
        limit = asymptotics.asymptotic_map(fam)
        np.testing.assert_allclose(
            limit.matrix, classify.projector_onto_state(omega).matrix, atol=1e-12
        )

    def test_eternal_limit_coefficients(self):
        fam = families.eternal_nm(2.0)
        limit = asymptotics.asymptotic_map(fam)
        for sigma, c in zip(matcore.PAULIS[:3], (0.25, 0.25, 0.0)):
            np.testing.assert_allclose(limit.apply(sigma), c * sigma, atol=1e-12)

    def test_floquet_limit_is_periodic(self):
        core = families.depolarizing(1.0, np.diag([0.6, 0.4]))
        fam = families.floquet_product(
            lambda t: np.diag([np.exp(-1j * np.pi * t), 1.0]), 2.0, core
        )
        limit = asymptotics.asymptotic_map(fam)
        assert isinstance(limit, asymptotics.PeriodicMap)
        assert len(limit.sample(12)) == 12

    def test_diverging_family_has_no_limit(self):
        with pytest.raises(NoLimitError):
            asymptotics.asymptotic_map(families.pauli_channel((0.1, 0.1, -0.3)))

    def test_numeric_limit_for_gkls(self):
        fam = random_gkls_family(np.random.default_rng(5), 2)
        limit = asymptotics.asymptotic_map(fam, horizon=60.0)
        # limit of a relaxing semigroup projects onto the stationary state
        dim, omega = generator_kernel(fam)
        assert dim == 1
        np.testing.assert_allclose(
            limit.matrix, classify.projector_onto_state(omega).matrix, atol=1e-6
        )


class TestArrivalTime:
    def test_depolarizing_qubit_ppt(self):
        fam = families.depolarizing(1.0, np.eye(2) / 2)
        res = asymptotics.arrival_time(fam, "PPT")
        assert res.tau == pytest.approx(math.log(3.0), abs=1e-8)
        assert res.retention_certificate == "analytic_monotone"
        assert res.bracket[0] <= res.tau <= res.bracket[1]
        assert not res.eb_lower_bound

    def test_depolarizing_qutrit_eb_is_lower_bound(self):
        fam = families.depolarizing(1.0, np.eye(3) / 3)
        res = asymptotics.arrival_time(fam, "EB")
        assert res.tau == pytest.approx(math.log(4.0), abs=1e-8)
        assert res.eb_lower_bound

    @pytest.mark.parametrize("bisect_tol", [0.0, 1e-300])
    def test_bisect_tol_below_float_spacing_ends(self, bisect_tol):
        """The last bracket has no float strictly inside: tau is the crossing
        to within the float spacing."""
        fam = families.depolarizing(1.0, np.eye(3) / 3)
        search = asymptotics.Search(t_max=8.0, bisect_tol=bisect_tol)
        res = asymptotics.arrival_time(fam, "PPT", search=search)
        lo, hi = res.bracket
        assert abs(res.tau - math.log(4.0)) <= 2 * math.ulp(math.log(4.0))
        assert lo <= res.tau <= hi

    def test_inside_from_start(self):
        fam = families.depolarizing(1.0, np.eye(2) / 2)
        res = asymptotics.arrival_time(fam, "CP")
        assert res.tau == 0.0
        assert res.bracket is None

    def test_witness_changes_sign_at_tau(self):
        fam = families.eternal_nm(2.0)
        res = asymptotics.arrival_time(fam, "PPT")
        assert res.tau is not None and res.tau > 0
        assert res.retention_certificate == "analytic_monotone"
        before = asymptotics.cone_witness(fam.closed_form.map_at(res.tau - 1e-3), "PPT")
        after = asymptotics.cone_witness(fam.closed_form.map_at(res.tau + 1e-3), "PPT")
        assert before < 0 < after

    def test_never_arriving_raises(self):
        # witness -e^{-t} is resolvably negative at this horizon; far beyond
        # it the decay enters the tolerance band and counts as arrival
        fam = families.phase_covariant(0.0, 0.0, 1.0, 0.0)
        with pytest.raises(NotReachedError) as exc:
            asymptotics.arrival_time(fam, "PPT", search=asymptotics.Search(t_max=15.0))
        assert exc.value.witness < 0
        assert exc.value.t_max == pytest.approx(15.0)
        assert exc.value.cone == "PPT"

    def test_oscillating_rates_get_asymptotic_interior(self):
        # pairwise sums dip negative, so no CP-divisibility shortcut and no
        # single-crossing flag; retention comes from the interior limit
        def r(t):
            return 0.3 * (1.0 - 1.5 * math.sin(t))

        def big_r(t):
            return 0.3 * (t + 1.5 * (math.cos(t) - 1.0))

        fam = families.pauli_channel((r, r, r), antiderivatives=(big_r, big_r, big_r))
        assert not fam.cp_divisible
        handle = evolve.EvolutionHandle(fam)
        res = asymptotics.arrival_time(handle, "PPT", search=asymptotics.Search(t_max=20.0))
        assert res.tau is not None and res.tau > 0
        assert res.retention_certificate == "asymptotic_interior"
        # no exact coefficient limits: the limit read is the settled map
        assert fam.closed_form.asymptotic_coefficients is None
        limit = asymptotics.asymptotic_map(fam, handle=handle, horizon=20.0)
        np.testing.assert_allclose(
            limit.matrix, classify.projector_onto_state(np.eye(2) / 2).matrix, rtol=0, atol=1e-12)

    def test_grid_exposed_for_plotting(self):
        fam = families.depolarizing(1.0, np.eye(2) / 2)
        res = asymptotics.arrival_time(fam, "PPT", search=asymptotics.Search(10.0, grid_n=64))
        assert res.grid_times.shape == (64,)
        assert res.grid_witness.shape == (64,)

    def test_unknown_cone_rejected(self):
        with pytest.raises(ValueError):
            asymptotics.arrival_time(families.eternal_nm(1.0), "XX")


class TestPredictEventuallyEb:
    def test_depolarizing_interior(self):
        omega = np.diag([0.6, 0.4])
        v = asymptotics.predict_eventually_eb(families.depolarizing(1.0, omega))
        assert v.classification == "eventually_EB"
        assert v.predictor_basis == "spectral_semigroup"
        assert v.kernel_dim == 1
        assert v.divergence
        np.testing.assert_allclose(v.omega, omega, atol=1e-9)

    def test_depolarizing_boundary(self):
        v = asymptotics.predict_eventually_eb(families.depolarizing(1.0, np.diag([1.0, 0.0])))
        assert v.classification == "asymptotically_EB"
        assert v.predictor_basis == "spectral_semigroup"

    def test_detailed_balance_fires_spectral_route(self):
        fam = families.detailed_balance(
            np.diag([0.0, 1.0, 2.5]),
            [(matcore.matrix_unit(3, 0, 1), 1.0), (matcore.matrix_unit(3, 1, 2), 1.5)],
            beta=0.7,
        )
        v = asymptotics.predict_eventually_eb(fam)
        assert v.classification == "eventually_EB"
        assert v.predictor_basis == "spectral_semigroup"
        np.testing.assert_allclose(v.omega, fam.stationary_state, atol=1e-9)

    def test_eternal_trichotomy(self):
        above = asymptotics.predict_eventually_eb(families.eternal_nm(2.0))
        assert above.classification == "eventually_EB"
        assert above.predictor_basis == "asymptotic_interior"
        at = asymptotics.predict_eventually_eb(families.eternal_nm(1.0))
        assert at.classification == "asymptotically_EB"
        below = asymptotics.predict_eventually_eb(families.eternal_nm(0.5))
        assert below.classification == "not_asymptotically_EB"

    def test_pauli_dephasing_boundary(self):
        v = asymptotics.predict_eventually_eb(families.pauli_channel((0.3, -0.3, 1.0)))
        assert v.classification == "asymptotically_EB"

    def test_diverging_trajectory_refutes(self):
        v = asymptotics.predict_eventually_eb(families.pauli_channel((0.1, 0.1, -0.3)))
        assert v.classification == "not_asymptotically_EB"
        assert v.predictor_basis == "diverging_trajectory"

    def test_floquet_limit_cycle_interior(self):
        core = families.depolarizing(1.0, np.diag([0.6, 0.4]))
        fam = families.floquet_product(
            lambda t: np.diag([np.exp(-1j * np.pi * t), 1.0]), 2.0, core
        )
        v = asymptotics.predict_eventually_eb(fam)
        assert v.classification == "eventually_EB"
        assert v.predictor_basis == "limit_cycle_interior"

    def test_pure_decoherence_limit_is_boundary(self):
        a = np.array([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 0.6]])
        v = asymptotics.predict_eventually_eb(families.pure_decoherence(a=a))
        assert v.classification == "asymptotically_PPT"

    def test_random_semigroups_fire_spectral_route(self):
        rng = np.random.default_rng(6)
        fired = 0
        for _ in range(10):
            fam = random_gkls_family(rng, 2)
            dim, omega = generator_kernel(fam)
            if dim != 1 or omega is None or np.linalg.eigvalsh(omega)[0] < 1e-6:
                continue
            v = asymptotics.predict_eventually_eb(fam)
            assert v.classification == "eventually_EB"
            assert v.predictor_basis == "spectral_semigroup"
            fired += 1
        assert fired >= 8  # random dense jumps essentially always qualify


class TestPptComposition:
    def test_semigroup_iterates_match_later_times(self):
        fam = families.pauli_channel((1.0, 1.0, 1.0))
        t0 = 0.2
        phi = fam.closed_form.map_at(t0)
        out = asymptotics.ppt_composition_experiment(phi, 6)
        assert out.ks == (1, 2, 3, 4, 5, 6)
        for k, wc, wp in zip(out.ks, out.witness_choi, out.witness_pt):
            direct = classify.classify_map(fam.closed_form.map_at(k * t0))
            assert wc == pytest.approx(direct.min_eig_choi, abs=1e-10)
            assert wp == pytest.approx(direct.min_eig_choi_pt, abs=1e-10)

    def test_first_ppt_index(self):
        fam = families.pauli_channel((1.0, 1.0, 1.0))
        t0 = 0.2
        out = asymptotics.ppt_composition_experiment(fam.closed_form.map_at(t0), 8)
        tau = math.log(3.0) / 4.0
        expected = math.ceil(tau / t0)
        assert out.first_ppt == expected
        assert out.first_eb == expected  # qubit: PPT decides EB

    def test_rejects_unnormalized_map(self):
        with pytest.raises(ValueError):
            asymptotics.ppt_composition_experiment(
                superop.Superoperator(0.5 * np.eye(4), 2), 3
            )


class TestIntervalCover:
    def test_known_thresholds(self):
        assert asymptotics.interval_cover_threshold(1.0, 2.0) == pytest.approx(1.0)
        assert asymptotics.interval_cover_threshold(2.0, 3.0) == pytest.approx(4.0)
        assert asymptotics.interval_cover_threshold(3.0, 4.0) == pytest.approx(9.0)

    def test_validation(self):
        with pytest.raises(InvalidIntervalError):
            asymptotics.interval_cover_threshold(2.0, 2.0)
        with pytest.raises(InvalidIntervalError):
            asymptotics.interval_cover_threshold(0.0, 1.0)
        with pytest.raises(InvalidIntervalError):
            asymptotics.interval_cover_threshold(3.0, 1.0)

    @staticmethod
    def covered(x, a, b):
        # is x in [na, nb] for some positive integer n
        n_lo = math.ceil(x / b - 1e-12)
        return n_lo >= 1 and n_lo * a <= x * (1 + 1e-12)

    def test_dense_scan_coverage_and_minimality(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.uniform(0.2, 5.0)
            b = a + rng.uniform(0.05, 2.0)
            x0 = asymptotics.interval_cover_threshold(a, b)
            for x in np.linspace(x0, x0 + 6 * a, 400):
                assert self.covered(x, a, b), (a, b, x0, x)
            # just below the threshold a gap must open, unless x0 is the
            # very first interval end already glued at a
            probe = x0 - 1e-6 * a
            if probe > 0:
                n = round(x0 / a)
                prev_end = (n - 1) * b
                if prev_end < probe:
                    assert not self.covered(probe, a, b)


class TestPairwiseProduct:
    def test_uniform_attains_bound(self):
        for n in range(2, 7):
            p = np.full(n, 1.0 / n)
            assert asymptotics.max_min_pairwise_product(p) == pytest.approx(
                asymptotics.pairwise_product_bound(n), rel=1e-12
            )

    def test_random_simplex_below_bound(self):
        rng = np.random.default_rng(8)
        for n in range(2, 7):
            samples = rng.dirichlet(np.ones(n), size=2000)
            bound = asymptotics.pairwise_product_bound(n)
            for p in samples:
                assert asymptotics.max_min_pairwise_product(p) <= bound + 1e-12

    def test_strictly_below_away_from_uniform(self):
        p = np.array([0.26, 0.24, 0.25, 0.25])
        assert asymptotics.max_min_pairwise_product(p) < asymptotics.pairwise_product_bound(4)

    def test_validation(self):
        with pytest.raises(NotAProbabilityVectorError):
            asymptotics.max_min_pairwise_product([0.5])
        with pytest.raises(NotAProbabilityVectorError):
            asymptotics.max_min_pairwise_product([0.7, 0.7])
        with pytest.raises(NotAProbabilityVectorError):
            asymptotics.max_min_pairwise_product([1.5, -0.5])
        with pytest.raises(NotAProbabilityVectorError):
            asymptotics.pairwise_product_bound(1)
