"""Dense linear-algebra substrate, checked against independently coded oracles."""

import numpy as np
import pytest
import scipy.linalg

from ebdyn import matcore, tolerances
from ebdyn.errors import DimensionMismatchError, NoConvergenceError, NotHermitianError

from helpers import ginibre, random_gkls_family, random_hermitian


def charpoly_roots(m):
    """Eigenvalues via Faddeev-LeVerrier coefficients and companion-matrix roots.

    Shares no code path with the Hermitian eigensolver: coefficients come
    from trace recursion, roots from ``np.roots`` on the coefficient vector.
    """
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        mk = m @ mk
        coeffs[k] = -np.trace(mk) / k
        mk = mk + coeffs[k] * np.eye(n)
    return np.roots(coeffs)


def taylor_expm(m):
    """Term-wise Taylor series, summed until the partial sum stagnates."""
    acc = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, 300):
        term = term @ m / k
        nxt = acc + term
        if np.array_equal(nxt, acc):
            break
        acc = nxt
    return acc


def kron_loops(a, b):
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


class TestHermEig:
    def test_diagonal(self):
        vals, _ = matcore.herm_eig(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(vals, [0.0, 1.0])

    def test_pauli_x(self):
        vals, _ = matcore.herm_eig(matcore.PAULI_X)
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)

    def test_against_charpoly_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = random_hermitian(rng, 4)
            vals, _ = matcore.herm_eig(m)
            oracle = np.sort(charpoly_roots(m).real)
            np.testing.assert_allclose(vals, oracle, atol=1e-8)

    def test_reconstruction(self):
        rng = np.random.default_rng(12)
        for d in (2, 3, 5):
            m = random_hermitian(rng, d, scale=3.0)
            vals, vecs = matcore.herm_eig(m)
            rec = vecs @ np.diag(vals) @ vecs.conj().T
            norm = np.linalg.norm(m, 2)
            assert np.linalg.norm(rec - m, 2) <= 1e-10 * max(norm, 1.0)
            assert np.all(np.diff(vals) >= 0)

    def test_eigenvectors_unitary(self):
        rng = np.random.default_rng(13)
        _, vecs = matcore.herm_eig(random_hermitian(rng, 6))
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(6), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            matcore.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_min_herm_eig(self):
        assert matcore.min_herm_eig(np.diag([3.0, -2.0, 5.0])) == pytest.approx(-2.0)

    def test_min_herm_eig_matches_full_solve(self):
        rng = np.random.default_rng(14)
        for d in (2, 4, 9, 16):
            m = random_hermitian(rng, d, scale=2.0)
            vals, _ = matcore.herm_eig(m)
            assert abs(matcore.min_herm_eig(m) - vals[0]) <= 1e-12 * max(1.0, abs(vals).max())

    def test_min_herm_eig_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError):
            matcore.min_herm_eig(m)
        # the same scale-aware tolerance as herm_eig
        nearly = np.diag([1.0, 2.0]).astype(complex)
        nearly[0, 1] = 0.5 * tolerances.herm_tol(nearly)
        assert matcore.min_herm_eig(nearly) == pytest.approx(1.0)
        with pytest.raises(NotHermitianError):
            matcore.min_herm_eig(m, tol=0.5)


class TestExpm:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(matcore.expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = matcore.expm(np.diag([1.5, -0.5]))
        np.testing.assert_allclose(out, np.diag([np.exp(1.5), np.exp(-0.5)]), rtol=1e-14)

    def test_against_taylor_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            m = ginibre(rng, 4) * 0.8
            np.testing.assert_allclose(matcore.expm(m), taylor_expm(m), atol=1e-10)

    def test_inverse_pairing(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            m = ginibre(rng, 4)
            m *= 10.0 / max(np.linalg.norm(m, 2), 10.0)
            prod = matcore.expm(m) @ matcore.expm(-m)
            np.testing.assert_allclose(prod, np.eye(4), atol=1e-9)

    def test_moderate_norm_accuracy(self):
        # eigenbasis route must stay accurate well away from the origin
        rng = np.random.default_rng(23)
        h = random_hermitian(rng, 4, scale=12.0)
        vals, vecs = np.linalg.eigh(h)
        expected = vecs @ np.diag(np.exp(vals)) @ vecs.conj().T
        np.testing.assert_allclose(
            matcore.expm(h), expected, rtol=1e-10, atol=1e-10 * np.exp(vals).max()
        )


def inline_expm(m):
    """The eigenbasis-or-scipy exponential written out in one function."""
    a = np.asarray(m, dtype=complex)
    try:
        w, v = np.linalg.eig(a)
        cond = np.linalg.cond(v)
    except np.linalg.LinAlgError:
        cond = np.inf
    if np.isfinite(cond) and cond < tolerances.EXPM_EIG_COND_LIMIT:
        try:
            return (v * np.exp(w)) @ np.linalg.inv(v)
        except np.linalg.LinAlgError:
            pass
    return scipy.linalg.expm(a)


JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]])


class TestExpGenerator:
    TAUS = (0.0, 1e-6, 0.3, 1.0, 7.0, 40.0)

    def test_gkls_generators_against_scipy(self):
        rng = np.random.default_rng(24)
        for d in (2, 3, 4):
            for _ in range(4):
                gen = random_gkls_family(rng, d).generator_matrix(0.0)
                exp_gen = matcore.exp_generator(gen)
                for tau in self.TAUS:
                    expected = scipy.linalg.expm(tau * gen)
                    scale = np.abs(expected).max()
                    np.testing.assert_allclose(exp_gen(tau), expected, rtol=0, atol=1e-12 * scale)

    def test_defective_input_takes_fallback(self):
        exp_gen = matcore.exp_generator(JORDAN)
        for tau in self.TAUS + (-2.5,):
            np.testing.assert_array_equal(exp_gen(tau), scipy.linalg.expm(tau * JORDAN))
        np.testing.assert_allclose(exp_gen(3.0), [[1.0, 3.0], [0.0, 1.0]], atol=1e-14)

    def test_expm_is_bitwise_the_inline_formula(self):
        rng = np.random.default_rng(25)
        cases = [np.zeros((3, 3)), np.diag([1.5, -0.5]), JORDAN]
        cases += [ginibre(rng, d) for d in (2, 3, 4, 9)]
        cases += [random_gkls_family(rng, d).generator_matrix(0.0) for d in (2, 3, 4)]
        for m in cases:
            np.testing.assert_array_equal(matcore.expm(m), inline_expm(m))

    def test_time_array_stacks_the_scalar_calls(self):
        """A grid of times is one batched product, bitwise each scalar call."""
        rng = np.random.default_rng(27)
        taus = np.concatenate([self.TAUS, np.linspace(0.0, 12.0, 50)])
        cases = [random_gkls_family(rng, d).generator_matrix(0.0) for d in (2, 3, 4)]
        for m in cases + [JORDAN]:
            exp_gen = matcore.exp_generator(m)
            stack = exp_gen(taus)
            assert stack.shape == (len(taus),) + m.shape
            for tau, got in zip(taus, stack):
                np.testing.assert_array_equal(got, exp_gen(float(tau)))
            assert exp_gen(np.array([])).shape == (0,) + m.shape

    def test_eigenvalues_are_those_of_eig(self):
        """On both routes, the callable carries np.linalg.eig's eigenvalues."""
        rng = np.random.default_rng(28)
        cases = [random_gkls_family(rng, d).generator_matrix(0.0) for d in (2, 3, 4)]
        for m in cases + [JORDAN, np.zeros((2, 2))]:
            got = matcore.exp_generator(m).eigenvalues
            want = np.linalg.eig(np.asarray(m, dtype=complex))[0]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_eigenvalues_are_none_when_eig_fails(self):
        assert matcore.exp_generator(np.array([[np.nan, 0.0], [0.0, 1.0]])).eigenvalues is None

    def test_group_law(self):
        rng = np.random.default_rng(26)
        exp_gen = matcore.exp_generator(random_gkls_family(rng, 3).generator_matrix(0.0))
        np.testing.assert_allclose(exp_gen(0.4) @ exp_gen(1.1), exp_gen(1.5), atol=1e-12)


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(matcore.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_unit_matrix_placement(self):
        e11 = matcore.matrix_unit(2, 0, 0)
        e22 = matcore.matrix_unit(2, 1, 1)
        out = matcore.kron(e11, e22)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(31)
        a, b = ginibre(rng, 2, 3), ginibre(rng, 3, 2)
        # vectorized complex multiply rounds differently than the scalar loop
        np.testing.assert_allclose(matcore.kron(a, b), kron_loops(a, b), atol=1e-14)

    def test_bitwise_equal_to_numpy_kron(self):
        rng = np.random.default_rng(34)
        for shape_a, shape_b in (((2, 2), (2, 2)), ((2, 3), (3, 2)), ((1, 4), (3, 1)),
                                 ((3, 5), (2, 4)), ((4, 4), (4, 4)), ((8, 8), (8, 8))):
            a, b = ginibre(rng, *shape_a), ginibre(rng, *shape_b)
            np.testing.assert_array_equal(matcore.kron(a, b), np.kron(a, b))

    def test_mixed_product(self):
        rng = np.random.default_rng(32)
        a, b, c, e = (ginibre(rng, 3) for _ in range(4))
        lhs = matcore.kron(a, b) @ matcore.kron(c, e)
        np.testing.assert_allclose(lhs, matcore.kron(a @ c, b @ e), atol=1e-12)

    def test_bilinearity(self):
        rng = np.random.default_rng(33)
        a, b, c = (ginibre(rng, 2) for _ in range(3))
        lhs = matcore.kron(a + 2.0 * b, c)
        rhs = matcore.kron(a, c) + 2.0 * matcore.kron(b, c)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


class TestStackedMinHermEig:
    def stack(self, seed=16, n=10, d=4):
        rng = np.random.default_rng(seed)
        return np.stack([random_hermitian(rng, d, scale=10.0 ** k) for k in np.linspace(-2, 3, n)])

    def test_stack_equals_per_matrix_bitwise(self):
        stack = self.stack()
        ws = matcore.min_herm_eig(stack)
        assert ws.shape == (len(stack),)
        np.testing.assert_array_equal(ws, [matcore.min_herm_eig(m) for m in stack])
        assert matcore.min_herm_eig(stack[:0]).shape == (0,)

    def test_first_non_hermitian_matrix_is_reported(self):
        stack = self.stack()
        stack[3, 0, 1] += 1e-3
        stack[7, 1, 2] += 0.5
        for tol in (None, 1e-6):
            with pytest.raises(NotHermitianError) as single:
                matcore.min_herm_eig(stack[3], tol=tol)
            with pytest.raises(NotHermitianError) as batched:
                matcore.min_herm_eig(stack, tol=tol)
            assert str(batched.value) == str(single.value)
            # the per-map loop stops at the same matrix with the same message
            with pytest.raises(NotHermitianError) as loop:
                [matcore.min_herm_eig(m, tol=tol) for m in stack]
            assert str(loop.value) == str(batched.value)

    def test_each_matrix_uses_its_own_tolerance(self):
        big = np.diag([1e6, 2e6]).astype(complex)
        big[0, 1] = 1e-5  # within 1e-10 * 2e6
        small = np.diag([1.0, 2.0]).astype(complex)
        small[0, 1] = 1e-9  # beyond 1e-10, though within the big matrix's tolerance
        assert matcore.min_herm_eig(np.stack([big, big]))[0] == matcore.min_herm_eig(big)
        with pytest.raises(NotHermitianError) as single:
            matcore.min_herm_eig(small)
        with pytest.raises(NotHermitianError) as batched:
            matcore.min_herm_eig(np.stack([big, small]))
        assert str(batched.value) == str(single.value)

    def test_solver_failure_maps_to_no_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NoConvergenceError):
            matcore.min_herm_eig(self.stack())
        with pytest.raises(NoConvergenceError):
            matcore.min_herm_eig(self.stack()[0])

    def test_rejects_non_square_stack(self):
        with pytest.raises(DimensionMismatchError):
            matcore.min_herm_eig(np.zeros((3, 2, 4)))


class TestPartialTranspose:
    def test_product_rule(self):
        rng = np.random.default_rng(41)
        a, b = ginibre(rng, 3), ginibre(rng, 3)
        out = matcore.partial_transpose_second(matcore.kron(a, b), 3, 3)
        np.testing.assert_array_equal(out, matcore.kron(a, b.T))

    def test_identity_fixed(self):
        np.testing.assert_array_equal(
            matcore.partial_transpose_second(np.eye(6), 2, 3), np.eye(6)
        )

    def test_swap_gives_maximally_entangled(self):
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        pt = matcore.partial_transpose_second(swap, 2, 2)
        vals = np.linalg.eigvalsh(pt)
        np.testing.assert_allclose(vals, [0.0, 0.0, 0.0, 2.0], atol=1e-14)

    def test_involution_trace_hermiticity(self):
        rng = np.random.default_rng(42)
        m = random_hermitian(rng, 6)
        pt = matcore.partial_transpose_second(m, 2, 3)
        np.testing.assert_array_equal(matcore.partial_transpose_second(pt, 2, 3), m)
        assert np.trace(pt) == pytest.approx(np.trace(m))
        np.testing.assert_allclose(pt, pt.conj().T, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matcore.partial_transpose_second(np.eye(5), 2, 2)
        with pytest.raises(DimensionMismatchError):
            matcore.partial_transpose_second(np.zeros((3, 5, 5)), 2, 2)

    def test_stack_is_transposed_matrix_by_matrix(self):
        rng = np.random.default_rng(43)
        stack = np.stack([ginibre(rng, 6) for _ in range(5)])
        out = matcore.partial_transpose_second(stack, 2, 3)
        for m, pt in zip(stack, out):
            np.testing.assert_array_equal(pt, matcore.partial_transpose_second(m, 2, 3))
        np.testing.assert_array_equal(matcore.partial_transpose_second(out, 2, 3), stack)


class TestVecUnvec:
    def test_roundtrip(self):
        rng = np.random.default_rng(51)
        m = ginibre(rng, 3)
        np.testing.assert_array_equal(matcore.unvec(matcore.vec(m), 3), m)

    def test_column_stacking(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matcore.vec(m), [1.0, 3.0, 2.0, 4.0])

    def test_vec_of_product(self):
        # vec(A X B) = (B^T kron A) vec(X), the convention everything relies on
        rng = np.random.default_rng(52)
        a, x, b = (ginibre(rng, 3) for _ in range(3))
        lhs = matcore.vec(a @ x @ b)
        rhs = matcore.kron(b.T, a) @ matcore.vec(x)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_unvec_rejects_non_square_length(self):
        with pytest.raises(DimensionMismatchError):
            matcore.unvec(np.zeros(5))


def test_matrix_units_enumeration():
    seen = {}
    for i, j, e in matcore.matrix_units(3):
        assert e[i, j] == 1.0 and np.count_nonzero(e) == 1
        seen[(i, j)] = True
    assert len(seen) == 9


def test_paulis_square_to_identity():
    for sigma in matcore.PAULIS:
        np.testing.assert_allclose(sigma @ sigma, np.eye(2), atol=1e-15)
