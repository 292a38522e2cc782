"""Generator catalog: constructors, closed forms, validation."""

import configparser
import math
import os

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from ebdyn import asymptotics, classify, cli, evolve, families, matcore, superop
from ebdyn.errors import (
    CovarianceViolationError,
    DimensionMismatchError,
    EbdynError,
    InvalidRateMatrixError,
    InvalidStateError,
    NonHermitianHamiltonianError,
    SingularMapError,
)

from helpers import choi_min_eig, choi_pt_min_eig, ginibre, random_hermitian

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


def ini_matrix(text):
    """A matrix written the config way: rows separated by ';'."""
    return np.array([[complex(x) for x in row.split()] for row in text.split(";")])


def gkls_superop(h, jumps):
    """Column-stacking superoperator of a GKLS generator, straight from its formula."""
    eye = np.eye(h.shape[0])
    out = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for v in jumps:
        vv = v.conj().T @ v
        out = out + np.kron(v.conj(), v) - 0.5 * (np.kron(eye, vv) + np.kron(vv.T, eye))
    return out


class TestGkls:
    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(NonHermitianHamiltonianError):
            families.gkls(np.array([[0.0, 1.0], [0.0, 0.0]]), [])

    def test_rejects_mismatched_jump(self):
        with pytest.raises(DimensionMismatchError):
            families.gkls(np.eye(2), [(np.eye(3), 1.0)])

    def test_maps_are_cptp(self):
        rng = np.random.default_rng(1)
        fam = families.gkls(
            random_hermitian(rng, 3), [(ginibre(rng, 3), 0.7), (ginibre(rng, 3), 1.2)]
        )
        handle = evolve.EvolutionHandle(fam)
        for t in (0.0, 0.4, 2.0):
            lam = handle.solve(t)
            assert superop.is_trace_preserving(lam)
            assert choi_min_eig(lam) >= -1e-9

    def test_semigroup_property(self):
        rng = np.random.default_rng(2)
        fam = families.gkls(random_hermitian(rng, 2), [(ginibre(rng, 2), 1.0)])
        handle = evolve.EvolutionHandle(fam)
        a, b = handle.solve(0.6), handle.solve(1.1)
        both = handle.solve(1.7)
        np.testing.assert_allclose((b @ a).matrix, both.matrix, atol=1e-8)

    def test_constant_flag_and_cp_divisible(self):
        fam = families.gkls(np.zeros((2, 2)), [(matcore.PAULI_X, 0.5)])
        assert fam.constant
        assert fam.cp_divisible

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("pattern", ["ccc", "ccf", "fcc", "cfcf", "fff"])
    def test_generator_is_bitwise_the_copy_and_add_loop(self, d, pattern):
        """Constant rates (c) and callable rates (f) in any order: the folded
        generator equals the Hamiltonian part plus each rate times its
        dissipator, added in order."""
        rng = np.random.default_rng(len(pattern) + d)
        h = random_hermitian(rng, d)
        ops = [ginibre(rng, d) for _ in pattern]
        rates = [rng.uniform(-0.3, 1.0) if kind == "c" else
                 (lambda t, a=rng.uniform(0.2, 1.0), w=rng.uniform(0.5, 2.0):
                  a * (1.0 + 0.5 * np.sin(w * t)))
                 for kind in pattern]
        fam = families.gkls(h, list(zip(ops, rates)))
        ham, diss = families._hamiltonian_part(h), families._dissipators(ops, d)

        def loop(t):
            m = ham.copy()
            for g, dmat in zip(rates, diss):
                m += float(g(t) if callable(g) else g) * dmat
            return m

        times = (0.0,) if fam.constant else (0.0, 0.37, 1.1, 2.5, 17.3)
        for t in times:
            np.testing.assert_array_equal(fam.generator_matrix(t), loop(t))
        if fam.constant:
            assert not fam.generator_matrix(1.0).flags.writeable
        else:
            # each call returns its own array: the kept sum is not exposed
            m = fam.generator_matrix(0.37)
            m[...] = np.nan
            np.testing.assert_array_equal(fam.generator_matrix(0.37), loop(0.37))


class TestPauliChannel:
    def test_needs_three_rates(self):
        with pytest.raises(DimensionMismatchError):
            families.pauli_channel((1.0, 2.0))

    def test_coefficient_trajectories(self):
        g = (0.3, 0.5, 0.9)
        fam = families.pauli_channel(g)
        for t in (0.2, 1.0):
            c = fam.closed_form.coefficients(t)
            assert c[0] == pytest.approx(math.exp(-2 * (g[1] + g[2]) * t))
            assert c[1] == pytest.approx(math.exp(-2 * (g[0] + g[2]) * t))
            assert c[2] == pytest.approx(math.exp(-2 * (g[0] + g[1]) * t))
            assert c[3] == 1.0

    def test_each_rate_integrated_once(self, monkeypatch):
        rates = (lambda t: 0.4 + 0.3 * math.sin(1.3 * t), lambda t: 0.7 + 0.2 * math.cos(t), 0.25)
        fam = families.pauli_channel(rates)
        calls = []
        quad = scipy.integrate.quad

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return quad(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "quad", counted)
        for t in (0.3, 2.9):
            calls.clear()
            c = fam.closed_form.coefficients(t)
            assert len(calls) == 2  # one quadrature per callable rate
            # bitwise the sum of antiderivatives taken pair by pair
            g = [quad(r, 0.0, t, epsabs=1e-10, epsrel=1e-10, limit=200)[0]
                 if callable(r) else r * t for r in rates]
            want = [math.exp(-2.0 * (g[i] + g[j])) for i, j in ((1, 2), (0, 2), (0, 1))]
            assert list(c[:3].real) == want and c[3] == 1.0

    def test_map_action_on_paulis(self):
        fam = families.pauli_channel((0.3, 0.5, 0.9))
        t = 0.7
        lam = fam.closed_form.map_at(t)
        c = fam.closed_form.coefficients(t)
        for k, sigma in enumerate(matcore.PAULIS[:3]):
            np.testing.assert_allclose(lam.apply(sigma), c[k] * sigma, atol=1e-12)
        np.testing.assert_allclose(lam.apply(np.eye(2)), np.eye(2), atol=1e-14)

    def test_all_positive_sums_reach_eb(self):
        """Equal rates match relaxation to the maximally mixed state."""
        g = 0.25
        fam = families.pauli_channel((g, g, g))
        dep = families.depolarizing(4 * g, np.eye(2) / 2)
        for t in (0.3, 1.5):
            np.testing.assert_allclose(
                fam.closed_form.map_at(t).matrix,
                dep.closed_form.map_at(t).matrix,
                atol=1e-12,
            )
        assert dep.closed_form.ppt_arrival_time == pytest.approx(
            math.log(3.0) / (4 * g), rel=1e-12
        )

    def test_one_zero_sum_witness_trajectories(self):
        g1, g3 = 0.3, 1.0
        fam = families.pauli_channel((g1, -g1, g3))
        for t in (0.1, 0.8, 3.0):
            lam = fam.closed_form.map_at(t)
            assert choi_min_eig(lam) == pytest.approx(
                -math.exp(-2 * g3 * t) * math.sinh(2 * g1 * t), abs=1e-12
            )
            assert choi_pt_min_eig(lam) == pytest.approx(
                -math.exp(-2 * g3 * t) * math.cosh(2 * g1 * t), abs=1e-12
            )

    def test_two_zero_sums_limit_spectrum(self):
        g = 0.4
        fam = families.pauli_channel((g, g, -g))
        asym = fam.closed_form.asymptotic_coefficients
        s = sum(c * q for c, q in zip(asym, fam.closed_form.components))
        vals = np.linalg.eigvalsh(superop.to_choi(superop.Superoperator(s, 2)).matrix)
        np.testing.assert_allclose(vals, [-0.5, 0.5, 0.5, 1.5], atol=1e-12)

    def test_diverging_rates_flagged(self):
        fam = families.pauli_channel((0.1, 0.1, -0.3))
        assert fam.closed_form.diverges
        assert fam.closed_form.asymptotic_coefficients is None

    def test_time_dependent_rates_with_antiderivatives(self):
        # g_3(t) = cos(t) with exact antiderivative sin(t)
        fam = families.pauli_channel(
            (0.5, 0.5, lambda t: math.cos(t)),
            antiderivatives=(None, None, lambda t: math.sin(t)),
        )
        assert not fam.constant
        c = fam.closed_form.coefficients(1.3)
        assert c[0] == pytest.approx(math.exp(-2 * (0.5 * 1.3 + math.sin(1.3))))

    def test_p_divisibility_predicate(self):
        ts = np.linspace(0.0, 5.0, 40)
        assert families.pauli_p_divisible(families.pauli_channel((1.0, 1.0, 1.0)), ts)
        assert not families.pauli_p_divisible(
            families.pauli_channel((0.1, 0.1, -0.3)), ts
        )
        with pytest.raises(EbdynError):
            families.pauli_p_divisible(families.depolarizing(1.0, np.eye(2) / 2), ts)


class TestEternalNm:
    def test_alpha_must_be_positive(self):
        with pytest.raises(EbdynError):
            families.eternal_nm(0.0)

    def test_is_p_divisible_but_not_cp_divisible(self):
        fam = families.eternal_nm(1.0)
        assert families.pauli_p_divisible(fam, np.linspace(0.0, 6.0, 30))
        assert not fam.cp_divisible

    def test_coefficients(self):
        alpha = 2.0
        fam = families.eternal_nm(alpha)
        for t in (0.4, 2.0):
            c = fam.closed_form.coefficients(t)
            target = math.exp(-alpha * t) * math.cosh(t) ** alpha
            assert c[0] == pytest.approx(target, rel=1e-12)
            assert c[1] == pytest.approx(target, rel=1e-12)
            assert c[2] == pytest.approx(math.exp(-2 * alpha * t), rel=1e-12)

    def test_propagator_coefficient(self):
        alpha, s, t = 2.0, 0.8, 2.3
        handle = evolve.EvolutionHandle(families.eternal_nm(alpha))
        v = handle.propagator(t, s)
        coef = np.trace(matcore.PAULI_X @ v.apply(matcore.PAULI_X)).real / 2
        pred = math.exp(alpha * (s - t)) * (math.cosh(t) / math.cosh(s)) ** alpha
        assert coef == pytest.approx(pred, rel=1e-10)

    def test_tail_witness_formula(self):
        for alpha in (0.5, 1.0, 2.0):
            fam = families.eternal_nm(alpha)
            for s in (0.0, 1.0, 2.5):
                w = fam.closed_form.propagator_tail_witness(s)
                assert w == pytest.approx(0.5 - (1 + math.exp(-2 * s)) ** -alpha, abs=1e-12)

    def test_limit_spectrum_by_alpha(self):
        # interior for alpha > 1, boundary at alpha = 1, outside below
        for alpha, low in ((2.0, 0.25), (1.0, 0.0), (0.5, 0.5 - 2 ** 0.5 / 2)):
            fam = families.eternal_nm(alpha)
            asym = fam.closed_form.asymptotic_coefficients
            s = sum(c * q for c, q in zip(asym, fam.closed_form.components))
            c_inf = superop.to_choi(superop.Superoperator(s, 2)).matrix
            assert np.linalg.eigvalsh(c_inf)[0] == pytest.approx(low, abs=1e-12)

    def test_single_crossing_flag(self):
        assert families.eternal_nm(1.5).closed_form.witness_single_crossing
        assert not families.eternal_nm(0.7).closed_form.witness_single_crossing


class TestPhaseCovariant:
    def test_populations_relax_to_stationary(self):
        gp, gm = 0.8, 1.2
        fam = families.phase_covariant(0.0, gp, gm, 0.3)
        lam = fam.closed_form.map_at(30.0)
        rho = lam.apply(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(
            rho, np.diag([gp / (gp + gm), gm / (gp + gm)]), atol=1e-10
        )
        np.testing.assert_allclose(fam.stationary_state, np.diag([0.4, 0.6]), atol=1e-14)

    def test_coherence_decay_and_rotation(self):
        w, gp, gm, gz = 1.3, 0.8, 1.0, 0.2
        fam = families.phase_covariant(w, gp, gm, gz)
        gt = 0.5 * (gp + gm) + 2 * gz
        t = 0.9
        out = fam.closed_form.map_at(t).apply(matcore.matrix_unit(2, 0, 1))
        expected = np.exp(-(gt + 1j * w) * t) * matcore.matrix_unit(2, 0, 1)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_min_choi_eigenvalue_closed_form(self):
        """Frozen closed form for the lowest Choi eigenvalue, flipped-sign regime."""
        gp, gm, gz = 0.8, 1.0, -0.1
        gl = gp + gm
        fam = families.phase_covariant(0.0, gp, gm, gz)
        for t in (0.05, 0.3, 1.0, 4.0):
            dec = 1 - math.exp(-gl * t)
            corner = 0.5 * (
                1
                + math.exp(-gl * t)
                - math.sqrt(
                    ((gp - gm) ** 2 / gl ** 2) * dec ** 2
                    + 4 * math.exp(-(gl + 4 * gz) * t)
                )
            )
            expected = min(corner, gm / gl * dec, gp / gl * dec)
            lam = fam.closed_form.map_at(t)
            assert choi_min_eig(lam) == pytest.approx(expected, abs=1e-12)

    def test_never_cp_on_the_extreme_ray(self):
        g = 0.7
        fam = families.phase_covariant(0.0, g, g, -0.5 * g)
        for t in (0.1, 1.0, 5.0):
            lam = fam.closed_form.map_at(t)
            assert choi_min_eig(lam) == pytest.approx(
                0.5 * (math.exp(-2 * g * t) - 1), abs=1e-12
            )
            rep = classify.classify_map(lam)
            assert not rep.is_cp
            assert classify.positivity_witness(lam, restarts=6, iters=60) >= -1e-9

    @pytest.mark.parametrize("rates", [(0.8, 1.0, -0.1), (-1.0, -1.0, 0.0), (-0.3, 0.1, 0.4),
                                       (0.0, 0.0, 0.3)])
    def test_closed_form_is_the_exponential(self, rates):
        """Also for G_L < 0, where the populations run away from (p+, p-)."""
        fam = families.phase_covariant(0.5, *rates)
        gen = fam.generator_matrix(0.0)
        for t in (0.3, 1.0, 2.5):
            want = scipy.linalg.expm(t * gen)
            np.testing.assert_allclose(fam.closed_form.map_at(t).matrix, want, rtol=0,
                                       atol=1e-13 * max(1.0, np.abs(want).max()))

    @pytest.mark.parametrize("rates", [(1.0, -1.0, 0.0), (-0.4, 0.4, 0.3), (2.0, -2.0, -0.2)])
    def test_jordan_block_runs_on_the_exponential(self, rates):
        """G_L = 0 with g+ = -g- != 0: the populations grow as p+(0) + g+ t, so
        there is no spectral closed form; the map is the generator's exponential."""
        fam = families.phase_covariant(0.5, *rates)
        assert fam.closed_form is None
        handle = evolve.EvolutionHandle(fam)
        assert handle.solver == "commuting_exp"
        gen = fam.generator_matrix(0.0)
        ts = (0.3, 1.0, 2.5, 6.0)
        grid = handle._solve_grid(list(ts))
        for t, m in zip(ts, grid):
            want = scipy.linalg.expm(t * gen)
            atol = 1e-12 * max(1.0, np.abs(want).max())
            np.testing.assert_allclose(handle.solve(t).matrix, want, rtol=0, atol=atol)
            np.testing.assert_allclose(m, want, rtol=0, atol=atol)
        rho = evolve.EvolutionHandle(fam).solve(1.0).apply(np.diag([0.5, 0.5]))
        assert rho[0, 0].real == pytest.approx(0.5 + rates[0], abs=1e-12)

    @pytest.mark.parametrize("gp", [1.0, -0.4, 2.0])
    @pytest.mark.parametrize("ulps", [1, 3, 9, 1000])
    def test_near_jordan_block_runs_on_the_exponential(self, gp, ulps):
        """G_L a few ulp from zero: the weights g+/G_L of the closed form would
        be about 1e15 and cancel, so the map is the generator's exponential."""
        gm = -gp
        for _ in range(ulps):
            gm = np.nextafter(gm, np.inf)
        fam = families.phase_covariant(0.5, gp, gm, 0.1)
        assert fam.params["longitudinal_rate"] != 0.0
        assert fam.closed_form is None
        handle = evolve.EvolutionHandle(fam)
        gen = fam.generator_matrix(0.0)
        for t in (0.3, 1.0, 2.5, 6.0):
            want = scipy.linalg.expm(t * gen)
            np.testing.assert_allclose(handle.solve(t).matrix, want, rtol=0,
                                       atol=1e-8 * max(1.0, np.abs(want).max()))

    def test_small_longitudinal_rate_keeps_the_closed_form(self):
        fam = families.phase_covariant(0.5, 1.0, -0.999, 0.1)
        assert fam.closed_form is not None
        gen = fam.generator_matrix(0.0)
        for t in (0.3, 1.0, 2.5, 6.0):
            want = scipy.linalg.expm(t * gen)
            np.testing.assert_allclose(fam.closed_form.map_at(t).matrix, want, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_flags(self):
        assert families.phase_covariant(0.0, 1.0, 1.0, 0.5).cp_divisible
        assert not families.phase_covariant(0.0, 1.0, 1.0, -0.1).cp_divisible
        assert families.phase_covariant(0.0, 1.0, 1.0, -0.1).params["positive_domain"]
        assert not families.phase_covariant(0.0, 1.0, 1.0, -0.6).params["positive_domain"]
        assert families.phase_covariant(0.0, 0.0, 0.0, -0.2).closed_form.diverges

    def test_frequency_does_not_change_cone_verdicts(self):
        base = families.phase_covariant(0.0, 0.8, 1.0, 0.1)
        spun = families.phase_covariant(2.7, 0.8, 1.0, 0.1)
        for t in (0.3, 2.0):
            a = classify.classify_map(base.closed_form.map_at(t))
            b = classify.classify_map(spun.closed_form.map_at(t))
            assert a.min_eig_choi == pytest.approx(b.min_eig_choi, abs=1e-12)
            assert a.min_eig_choi_pt == pytest.approx(b.min_eig_choi_pt, abs=1e-12)


class TestDepolarizing:
    def test_validation(self):
        with pytest.raises(InvalidStateError):
            families.depolarizing(-1.0, np.eye(2) / 2)
        with pytest.raises(InvalidStateError):
            families.depolarizing(1.0, np.eye(2))
        with pytest.raises(InvalidStateError):
            families.depolarizing(1.0, np.diag([1.5, -0.5]))

    def test_map_action(self):
        omega = np.diag([0.7, 0.3])
        g = 0.9
        fam = families.depolarizing(g, omega)
        rho = np.diag([0.2, 0.8])
        t = 1.1
        out = fam.closed_form.map_at(t).apply(rho)
        u = math.exp(-g * t)
        np.testing.assert_allclose(out, u * rho + (1 - u) * omega, atol=1e-13)

    def test_pt_spectrum_closed_form(self):
        """PT eigenvalues come in d singles and d(d-1)/2 quadratic pairs."""
        rng = np.random.default_rng(60)
        g = 1.0
        w = np.sort(rng.uniform(0.1, 1.0, size=3))
        w = w / w.sum()
        fam = families.depolarizing(g, np.diag(w))
        for t in (0.4, 1.7):
            u = math.exp(-g * t)
            singles = [u + (1 - u) * wi for wi in w]
            pairs = []
            for i in range(3):
                for j in range(i + 1, 3):
                    mean = (1 - u) * (w[i] + w[j])
                    gap = math.sqrt(4 * u * u + (1 - u) ** 2 * (w[i] - w[j]) ** 2)
                    pairs += [(mean + gap) / 2, (mean - gap) / 2]
            expected = np.sort(singles + pairs)
            pt = superop.to_choi(fam.closed_form.map_at(t)).partial_transpose()
            np.testing.assert_allclose(np.linalg.eigvalsh(pt.matrix), expected, atol=1e-12)

    def test_arrival_time_closed_form(self):
        g = 2.0
        for d in (2, 3, 4):
            fam = families.depolarizing(g, np.eye(d) / d)
            assert fam.closed_form.ppt_arrival_time == pytest.approx(
                math.log(1 + d) / g, rel=1e-12
            )
        skew = families.depolarizing(1.0, np.diag([0.7, 0.3]))
        assert skew.closed_form.ppt_arrival_time == pytest.approx(
            math.log(1 + 1 / math.sqrt(0.21)), rel=1e-12
        )

    def test_witness_sign_change_at_arrival(self):
        fam = families.depolarizing(1.0, np.diag([0.6, 0.4]))
        tau = fam.closed_form.ppt_arrival_time
        before = fam.closed_form.map_at(0.99 * tau)
        after = fam.closed_form.map_at(1.01 * tau)
        assert choi_pt_min_eig(before) < 0
        assert choi_pt_min_eig(after) > 0

    def test_singular_omega_never_arrives(self):
        fam = families.depolarizing(1.0, np.diag([1.0, 0.0]))
        assert fam.closed_form.ppt_arrival_time is None
        assert choi_pt_min_eig(fam.closed_form.map_at(40.0)) < 0


class TestDetailedBalance:
    def test_gibbs_is_stationary(self):
        h = np.diag([0.0, 1.0, 2.5])
        fam = families.detailed_balance(h, [(matcore.matrix_unit(3, 0, 1), 1.0), (matcore.matrix_unit(3, 1, 2), 1.5)], beta=0.7)
        gibbs = fam.stationary_state
        expected = np.diag(np.exp(-0.7 * np.diag(h)))
        expected /= np.trace(expected)
        np.testing.assert_allclose(gibbs, expected, atol=1e-12)
        gen = fam.generator_matrix(0.0)
        assert np.linalg.norm(gen @ matcore.vec(gibbs)) < 1e-12

    def test_rejects_non_covariant_jump(self):
        # s_x mixes two Bohr frequencies of a non-degenerate Hamiltonian
        with pytest.raises(CovarianceViolationError):
            families.detailed_balance(
                np.diag([0.0, 1.0]), [(matcore.PAULI_X, 1.0)], beta=0.5
            )

    def test_rejects_negative_frequency(self):
        with pytest.raises(EbdynError):
            families.detailed_balance(
                np.diag([0.0, 1.0]), [(matcore.matrix_unit(2, 0, 1), -1.0)], beta=0.5
            )

    def test_bohr_frequencies_recorded(self):
        fam = families.detailed_balance(
            np.diag([0.0, 1.0]), [(matcore.matrix_unit(2, 0, 1), 1.0)], beta=0.3
        )
        assert fam.params["beta"] == 0.3
        assert 1.0 in fam.params["bohr_frequencies"]
        assert fam.cp_divisible


class TestFloquetProduct:
    @staticmethod
    def rotating_frame(period=2.0):
        def p(t):
            return np.diag([np.exp(-1j * np.pi * t / period * 2), 1.0])

        return p

    def test_validates_core_constant(self):
        core = families.eternal_nm(1.0)
        with pytest.raises(EbdynError):
            families.floquet_product(self.rotating_frame(), 2.0, core)

    def test_validates_initial_identity(self):
        core = families.depolarizing(1.0, np.eye(2) / 2)
        with pytest.raises(EbdynError):
            families.floquet_product(lambda t: np.diag([np.exp(-1j * (t + 0.3)), 1.0]), 2.0, core)

    def test_validates_unitarity(self):
        core = families.depolarizing(1.0, np.eye(2) / 2)
        with pytest.raises(EbdynError):
            families.floquet_product(lambda t: np.diag([np.exp(-0.1 * t), 1.0]), 2.0, core)

    def test_validates_periodicity(self):
        core = families.depolarizing(1.0, np.eye(2) / 2)
        with pytest.raises(EbdynError):
            families.floquet_product(lambda t: np.diag([np.exp(-1j * t), 1.0]), 2.0, core)

    def test_map_is_frame_times_core(self):
        period = 2.0
        core = families.depolarizing(1.0, np.diag([0.6, 0.4]))
        fam = families.floquet_product(self.rotating_frame(period), period, core)
        for t in (0.0, 0.7, 1.9, 3.2):
            u = superop.unitary_conjugation(self.rotating_frame(period)(t))
            expected = (u @ core.closed_form.map_at(t)).matrix
            np.testing.assert_allclose(fam.closed_form.map_at(t).matrix, expected, atol=1e-12)

    def test_limit_cycle_period_and_samples(self):
        period = 2.0
        core = families.depolarizing(1.0, np.diag([0.6, 0.4]))
        fam = families.floquet_product(self.rotating_frame(period), period, core)
        assert fam.closed_form.period == pytest.approx(period)
        cycle = asymptotics.asymptotic_map(fam)
        assert cycle.period == pytest.approx(period)
        a = cycle.at(0.35)
        b = cycle.at(0.35 + period)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)
        assert len(list(cycle.sample(8))) == 8

    def test_propagator_closed_form(self):
        period = 2.0
        core = families.depolarizing(0.8, np.diag([0.55, 0.45]))
        fam = families.floquet_product(self.rotating_frame(period), period, core)
        handle = evolve.EvolutionHandle(fam)
        s, t = 0.6, 2.9
        v = fam.closed_form.propagator_at(t, s)
        lam_s = fam.closed_form.map_at(s)
        lam_t = fam.closed_form.map_at(t)
        np.testing.assert_allclose((v @ lam_s).matrix, lam_t.matrix, atol=1e-11)
        np.testing.assert_allclose(handle.propagator(t, s).matrix, v.matrix, atol=1e-7)

    @staticmethod
    def assert_propagators_match_slow_path(fam, p_of_t, x, tmax):
        """V_{t,s} on a 20 x 20 grid (t >= s) against P_t expm((t-s)X) P_s^-1."""
        grid = np.linspace(0.0, tmax, 20)
        for t in grid:
            pt = p_of_t(t)
            for s in grid[grid <= t]:
                ps = p_of_t(s)
                want = (np.kron(pt.conj(), pt) @ scipy.linalg.expm((t - s) * x)
                        @ np.kron(ps.T, ps.conj().T))
                got = fam.closed_form.propagator_at(t, s).matrix
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("gamma, omega", [(1.0, (0.6, 0.4)), (0.8, (0.55, 0.45))])
    def test_propagator_matches_slow_path(self, gamma, omega):
        period = 2.0
        core = families.depolarizing(gamma, np.diag(omega))
        fam = families.floquet_product(self.rotating_frame(period), period, core)
        self.assert_propagators_match_slow_path(
            fam, self.rotating_frame(period), core.generator_matrix(0.0), 8.0)

    def test_shipped_config_propagator_matches_slow_path(self):
        path = os.path.join(CONFIG_DIR, "floquet_rotating.ini")
        fam, analysis = cli.load_config(path)
        parser = configparser.ConfigParser()
        parser.read(path, encoding="utf-8")
        sec = parser["family"]
        period = float(sec["period"])
        winding = ini_matrix(sec["winding"])

        def p_of_t(t):
            return scipy.linalg.expm(-2j * np.pi / period * t * winding)

        jumps = [ini_matrix(sec[k]) for k in sec if k.startswith("core_lindblad")]
        h = (ini_matrix(sec["core_hamiltonian"]) if "core_hamiltonian" in sec
             else np.zeros_like(winding))
        self.assert_propagators_match_slow_path(
            fam, p_of_t, gkls_superop(h, jumps), analysis["tmax"])


class TestPureDecoherence:
    A = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.0]])

    def test_choi_spectrum_is_coefficient_matrix_plus_zeros(self):
        fam = families.pure_decoherence(h=[0.0, 1.0, 2.2], a=self.A)
        t = 0.7
        lam = fam.closed_form.coefficients(t).reshape((3, 3), order="F")
        np.testing.assert_allclose(lam, lam.conj().T, atol=1e-14)
        choi = superop.to_choi(fam.closed_form.map_at(t)).matrix
        expected = np.sort(np.concatenate([np.linalg.eigvalsh(lam), np.zeros(6)]))
        np.testing.assert_allclose(np.linalg.eigvalsh(choi), expected, atol=1e-12)

    def test_entrywise_exponents(self):
        fam = families.pure_decoherence(h=[0.0, 0.0], a=np.array([[1.0, 0.2], [0.2, 0.6]]))
        t = 1.3
        lam = fam.closed_form.coefficients(t).reshape((2, 2), order="F")
        # l_01 = a_01 - (a_00 + a_11)/2 = 0.2 - 0.8
        assert lam[0, 1] == pytest.approx(math.exp(-0.6 * t), rel=1e-12)
        assert lam[0, 0] == 1.0

    def test_diagonal_preserved(self):
        fam = families.pure_decoherence(a=self.A)
        rho = np.diag([0.5, 0.3, 0.2])
        np.testing.assert_allclose(fam.closed_form.map_at(2.0).apply(rho), rho, atol=1e-13)

    def test_rejects_indefinite_rate_matrix(self):
        with pytest.raises(InvalidRateMatrixError):
            families.pure_decoherence(a=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_cutoff_projects_and_kills_generator(self):
        fam = families.pure_decoherence(a=self.A, cutoff=1.5)
        lam = fam.closed_form.map_at(2.0)
        x = np.zeros((3, 3), dtype=complex)
        x[0, 1] = 1.0
        np.testing.assert_allclose(lam.apply(x), np.zeros((3, 3)), atol=1e-14)
        with pytest.raises(SingularMapError):
            fam.generator_matrix(2.0)
        assert fam.params["eventually_eb"]

    def test_before_cutoff_matches_uncut(self):
        cut = families.pure_decoherence(a=self.A, cutoff=1.5)
        raw = families.pure_decoherence(a=self.A)
        np.testing.assert_allclose(
            cut.closed_form.map_at(1.0).matrix, raw.closed_form.map_at(1.0).matrix, atol=1e-13
        )

    def test_time_dependent_rates(self):
        # a(t) = (1+t) A integrates to (t + t^2/2) A
        fam = families.pure_decoherence(a=lambda t: (1 + t) * np.array([[1.0, 0.0], [0.0, 0.0]]))
        t = 0.9
        lam = fam.closed_form.coefficients(t).reshape((2, 2), order="F")
        assert lam[0, 1] == pytest.approx(math.exp(-0.5 * (t + t * t / 2)), rel=1e-8)


class TestDiagonallyCovariant:
    H = [0.0, 0.7, 1.9]
    A = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
    B = np.array([[0.0, 0.2, 0.1], [0.3, 0.0, 0.2], [0.1, 0.4, 0.0]])

    def test_populations_follow_classical_master_equation(self):
        fam = families.diagonally_covariant(self.H, self.A, self.B)
        q = self.B - np.diag(self.B.sum(axis=0))
        t = 1.4
        lam = evolve.EvolutionHandle(fam).solve(t)
        p0 = np.array([0.5, 0.3, 0.2])
        rho_t = lam.apply(np.diag(p0))
        np.testing.assert_allclose(
            np.real(np.diag(rho_t)), matcore.expm(t * q).real @ p0, atol=1e-9
        )
        # diagonal input stays diagonal
        off = rho_t - np.diag(np.diag(rho_t))
        assert np.max(np.abs(off)) < 1e-10

    def test_rejects_negative_hop_rates(self):
        bad = self.B.copy()
        bad[0, 1] = -0.2
        with pytest.raises(InvalidRateMatrixError):
            families.diagonally_covariant(self.H, self.A, bad)

    def test_maps_are_cptp(self):
        fam = families.diagonally_covariant(self.H, self.A, self.B)
        handle = evolve.EvolutionHandle(fam)
        for t in (0.5, 2.5):
            lam = handle.solve(t)
            assert superop.is_trace_preserving(lam)
            assert choi_min_eig(lam) >= -1e-8


def test_family_evaluate_wraps_generator():
    fam = families.pauli_channel((1.0, 1.0, 1.0))
    gen = fam.evaluate(0.0)
    assert isinstance(gen, superop.Superoperator)
    np.testing.assert_array_equal(gen.matrix, fam.generator_matrix(0.0))


def test_generators_annihilate_trace():
    rng = np.random.default_rng(70)
    fams = [
        families.pauli_channel((0.3, 0.5, 0.9)),
        families.eternal_nm(1.5),
        families.phase_covariant(1.0, 0.8, 1.0, -0.1),
        families.depolarizing(1.0, np.diag([0.6, 0.4])),
        families.gkls(random_hermitian(rng, 2), [(ginibre(rng, 2), 1.0)]),
    ]
    for fam in fams:
        for t in (0.0, 0.9):
            gen = fam.generator_matrix(t)
            x = ginibre(rng, fam.d)
            out = matcore.unvec(gen @ matcore.vec(x), fam.d)
            assert abs(np.trace(out)) < 1e-10
