"""Superoperator algebra and the Choi isomorphism."""

import numpy as np
import pytest

from ebdyn import classify, families, matcore, superop
from ebdyn.errors import DefectiveMapError, DimensionMismatchError

from helpers import ginibre, random_cptp, random_density, random_hp_map, random_unitary


def brute_choi(phi):
    d = phi.d
    c = np.zeros((d * d, d * d), dtype=complex)
    for i, j, e in matcore.matrix_units(d):
        c += matcore.kron(e, phi.apply(e))
    return c


class TestApplyCompose:
    def test_identity(self):
        rng = np.random.default_rng(1)
        x = ginibre(rng, 3)
        np.testing.assert_array_equal(superop.identity(3).apply(x), x)

    def test_state_projector_action(self):
        omega = np.diag([0.7, 0.3])
        p = classify.projector_onto_state(omega)
        rho = random_density(np.random.default_rng(2), 2)
        np.testing.assert_allclose(p.apply(rho), omega, atol=1e-14)

    def test_transpose_on_unit(self):
        e12 = matcore.matrix_unit(2, 0, 1)
        np.testing.assert_array_equal(superop.transpose_map(2).apply(e12), e12.T)

    def test_apply_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            superop.identity(2).apply(np.eye(3))

    def test_compose_is_application_order(self):
        rng = np.random.default_rng(3)
        phi, psi = random_cptp(rng, 2), random_cptp(rng, 2)
        x = ginibre(rng, 2)
        lhs = superop.compose(phi, psi).apply(x)
        np.testing.assert_allclose(lhs, phi.apply(psi.apply(x)), atol=1e-12)

    def test_compose_with_identity(self):
        rng = np.random.default_rng(4)
        phi = random_cptp(rng, 3)
        out = superop.compose(phi, superop.identity(3))
        np.testing.assert_array_equal(out.matrix, phi.matrix)

    def test_state_projector_absorbs_tp_maps(self):
        rng = np.random.default_rng(5)
        p = classify.projector_onto_state(random_density(rng, 2))
        phi = random_cptp(rng, 2)
        np.testing.assert_allclose(
            superop.compose(p, phi).matrix, p.matrix, atol=1e-12
        )

    def test_matmul_operator(self):
        rng = np.random.default_rng(6)
        phi, psi = random_cptp(rng, 2), random_cptp(rng, 2)
        np.testing.assert_array_equal((phi @ psi).matrix, superop.compose(phi, psi).matrix)


class TestChoi:
    def test_roundtrip_exact(self):
        """The isomorphism is entry shuffling only, so roundtrips are bitwise."""
        rng = np.random.default_rng(11)
        for d in range(2, 9):
            phi = superop.Superoperator(ginibre(rng, d * d), d)
            back = superop.from_choi(superop.to_choi(phi))
            np.testing.assert_array_equal(back.matrix, phi.matrix)

    def test_choi_roundtrip_from_matrix(self):
        rng = np.random.default_rng(12)
        c = superop.ChoiMatrix(ginibre(rng, 9), 3)
        again = superop.to_choi(superop.from_choi(c))
        np.testing.assert_array_equal(again.matrix, c.matrix)

    def test_identity_choi_spectrum(self):
        c = superop.to_choi(superop.identity(2))
        np.testing.assert_allclose(np.linalg.eigvalsh(c.matrix), [0, 0, 0, 2], atol=1e-14)

    def test_blocks_are_images_of_units(self):
        """The index permutation reproduces the block assembly bit for bit."""
        rng = np.random.default_rng(13)
        for d in range(2, 9):
            phi = random_cptp(rng, d)
            np.testing.assert_array_equal(superop.to_choi(phi).matrix, brute_choi(phi))

    def test_state_projector_choi(self):
        omega = random_density(np.random.default_rng(14), 3)
        c = superop.to_choi(classify.projector_onto_state(omega))
        np.testing.assert_allclose(c.matrix, matcore.kron(np.eye(3), omega), atol=1e-14)

    def test_composition_matches_brute_force(self):
        rng = np.random.default_rng(15)
        phi, psi = random_cptp(rng, 2), random_cptp(rng, 2)
        c = superop.to_choi(superop.compose(phi, psi)).matrix
        np.testing.assert_allclose(c, brute_choi(superop.compose(phi, psi)), atol=1e-13)

    def test_hermitian_iff_hermiticity_preserving(self):
        rng = np.random.default_rng(16)
        hp = random_hp_map(rng, 2)
        assert matcore.is_hermitian(superop.to_choi(hp).matrix)
        skew = superop.Superoperator(1j * np.eye(4), 2)
        assert not matcore.is_hermitian(superop.to_choi(skew).matrix)

    def test_partial_transpose_of_identity_choi(self):
        # reshuffled maximally entangled projector is the swap
        pt = superop.to_choi(superop.identity(2)).partial_transpose()
        np.testing.assert_allclose(np.linalg.eigvalsh(pt.matrix), [-1, 1, 1, 1], atol=1e-14)


class TestAdjointTraceUnital:
    def test_adjoint_pairing(self):
        rng = np.random.default_rng(21)
        phi = random_cptp(rng, 3)
        a, b = ginibre(rng, 3), ginibre(rng, 3)
        lhs = np.trace(a.conj().T @ phi.apply(b))
        rhs = np.trace(superop.adjoint(phi).apply(a).conj().T @ b)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_adjoint_involution(self):
        rng = np.random.default_rng(22)
        phi = random_cptp(rng, 2)
        np.testing.assert_allclose(
            superop.adjoint(superop.adjoint(phi)).matrix, phi.matrix, atol=1e-14
        )

    def test_tp_iff_unital_adjoint(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            phi = random_cptp(rng, 2)
            assert superop.is_trace_preserving(phi)
            assert superop.is_unital(superop.adjoint(phi))
            # break trace preservation and the adjoint stops being unital
            scaled = superop.Superoperator(1.3 * phi.matrix, 2)
            assert not superop.is_trace_preserving(scaled)
            assert not superop.is_unital(superop.adjoint(scaled))

    def test_state_projector_unital_only_for_maximally_mixed(self):
        p_mixed = classify.projector_onto_state(np.eye(2) / 2)
        p_skew = classify.projector_onto_state(np.diag([0.8, 0.2]))
        assert superop.is_trace_preserving(p_mixed)
        assert superop.is_trace_preserving(p_skew)
        assert superop.is_unital(p_mixed)
        assert not superop.is_unital(p_skew)

    def test_unitary_conjugation_tp_and_unital(self):
        u = random_unitary(np.random.default_rng(24), 3)
        phi = superop.unitary_conjugation(u)
        assert superop.is_trace_preserving(phi)
        assert superop.is_unital(phi)

    def test_hermiticity_preserving_check(self):
        rng = np.random.default_rng(25)
        assert superop.is_hermiticity_preserving(random_hp_map(rng, 2))
        assert not superop.is_hermiticity_preserving(
            superop.Superoperator(1j * np.eye(4), 2)
        )


class TestMapSpectrum:
    def test_identity_spectrum(self):
        sp = superop.map_spectrum(superop.identity(2))
        np.testing.assert_allclose(sp.eigenvalues, np.ones(4), atol=1e-14)

    def test_pauli_generator_spectrum(self):
        fam = families.pauli_channel((1.0, 1.0, 1.0))
        sp = superop.map_spectrum(fam.evaluate(0.0))
        np.testing.assert_allclose(
            sorted(sp.eigenvalues.real), [-4, -4, -4, 0], atol=1e-12
        )
        np.testing.assert_allclose(sp.eigenvalues.imag, 0.0, atol=1e-12)
        # zero eigenvalue leads the ordering; its eigenmatrix is the fixed state
        assert abs(sp.eigenvalues[0]) < 1e-12
        x0 = sp.right[0]
        np.testing.assert_allclose(x0, x0[0, 0] * np.eye(2), atol=1e-12)

    def test_eternal_generator_spectrum(self):
        alpha, t = 2.0, 0.7
        fam = families.eternal_nm(alpha)
        sp = superop.map_spectrum(fam.evaluate(t))
        expected = sorted([0.0, -2 * alpha, alpha * (np.tanh(t) - 1), alpha * (np.tanh(t) - 1)])
        np.testing.assert_allclose(sorted(sp.eigenvalues.real), expected, atol=1e-12)

    def test_biorthogonality_and_reconstruction(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            phi = random_cptp(rng, 3)
            sp = superop.map_spectrum(phi)
            assert sp.biorthogonality_residual <= 1e-8
            np.testing.assert_allclose(sp.reconstruct().matrix, phi.matrix, atol=1e-9)

    def test_tp_map_has_unit_eigenvalue_with_identity_left(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            phi = random_cptp(rng, 2)
            sp = superop.map_spectrum(phi)
            k = int(np.argmin(np.abs(sp.eigenvalues - 1.0)))
            assert abs(sp.eigenvalues[k] - 1.0) < 1e-9
            y = sp.left[k]
            np.testing.assert_allclose(y, y[0, 0] * np.eye(2), atol=1e-8)

    def test_positive_tp_spectrum_in_unit_disc(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            phi = random_cptp(rng, 3)
            assert np.max(np.abs(superop.map_spectrum(phi).eigenvalues)) <= 1 + 1e-9

    def test_hermiticity_preserving_spectrum_conjugation_symmetric(self):
        rng = np.random.default_rng(34)
        phi = random_cptp(rng, 2, n_kraus=3)
        ev = superop.map_spectrum(phi).eigenvalues
        assert any(abs(e.imag) > 1e-3 for e in ev)  # instance genuinely complex
        for e in ev:
            assert np.min(np.abs(ev - np.conj(e))) < 1e-10

    def test_projectors_idempotent_and_orthogonal(self):
        fam = families.pauli_channel((0.3, 0.5, 0.9))
        sp = superop.map_spectrum(fam.closed_form.map_at(0.4))
        for i in range(4):
            pi = sp.projector(i)
            np.testing.assert_allclose((pi @ pi).matrix, pi.matrix, atol=1e-10)
            for j in range(i + 1, 4):
                prod = (pi @ sp.projector(j)).matrix
                np.testing.assert_allclose(prod, 0.0, atol=1e-10)

    def test_defective_map_raises(self):
        jordan = np.eye(4, dtype=complex)
        jordan[0, 1] = 1.0
        with pytest.raises(DefectiveMapError):
            superop.map_spectrum(superop.Superoperator(jordan, 2))

    def test_tp_fixed_point(self):
        rng = np.random.default_rng(35)
        phi = random_cptp(rng, 3)
        omega, residual = superop.tp_fixed_point(superop.map_spectrum(phi))
        assert residual <= 1e-9
        assert np.trace(omega) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(phi.apply(omega), omega, atol=1e-9)

    def test_tp_fixed_point_rejects_non_tp(self):
        with pytest.raises(DefectiveMapError):
            superop.tp_fixed_point(
                superop.map_spectrum(superop.Superoperator(0.5 * np.eye(4), 2))
            )


def test_superoperator_shape_validation():
    with pytest.raises(DimensionMismatchError):
        superop.Superoperator(np.eye(4), 3)


def dense_spectral_sum(c, components, d):
    """sum_k c_k Q_k over every entry, term by term from k = 0."""
    c = np.asarray(c)
    s = np.zeros(c.shape[:-1] + (d * d, d * d), dtype=complex)
    for k, q in enumerate(components):
        s += c[..., k, None, None] * q
    return s


def same_bits(a, b):
    return (np.array_equal(a, b) and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


@pytest.mark.parametrize("seed", range(4))
def test_spectral_sum_on_the_support_is_bitwise_the_dense_sum(seed):
    """Sparse components are summed on their joint support only; stacks and
    single rows equal the sum over every entry, signed zeros included."""
    rng = np.random.default_rng(seed)
    signed_zeros = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    sparse = 0
    for _ in range(150):
        d, k, n = int(rng.integers(2, 4)), int(rng.integers(1, 12)), int(rng.integers(1, 30))
        q = ginibre(rng, k * d * d, d * d).reshape(k, d * d, d * d)
        q[:, rng.random((d * d, d * d)) < rng.random()] = 0.0
        q[rng.random(q.shape) < 0.5] = 0.0
        q[rng.random(q.shape) < 0.1] = signed_zeros[int(rng.integers(3))]
        c = ginibre(rng, n, k)
        c[rng.random(c.shape) < 0.2] = 0.0
        c[rng.random(c.shape) < 0.1] *= -1e-320
        c.imag[rng.random(c.shape) < 0.3] = 0.0
        components = superop.SpectralComponents(q)
        sparse += components.support is not None
        stack = superop.spectral_sum(c, components, d)
        assert same_bits(stack, dense_spectral_sum(c, q, d))
        assert same_bits(superop.spectral_sum(c, list(q), d), stack)
        for row, got in zip(c, stack):
            assert same_bits(superop.spectral_sum(row, components, d).matrix, got)
    assert sparse > 30
