"""Dense complex matrix substrate used by every other module.

Matrices are plain ``numpy.ndarray`` objects; this module fixes the package's
conventions (column-stacking vectorization, partial transposition of the
second tensor factor) and wraps the eigensolvers and the matrix exponential
with the package's error types.

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import tolerances
from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotHermitianError,
)

__all__ = [
    "as_matrix",
    "dagger",
    "is_hermitian",
    "herm_eig",
    "min_herm_eig",
    "exp_generator",
    "GeneratorExponential",
    "expm",
    "kron",
    "partial_transpose_second",
    "partial_trace_first",
    "vec",
    "unvec",
    "unit_trace_hermitian",
    "matrix_unit",
    "matrix_units",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PAULIS",
]


def as_matrix(m, square=False):
    """Return ``m`` as a 2-d complex array, validating its shape."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(m):
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def is_hermitian(m, tol=None) -> bool:
    """Whether ``m`` equals its conjugate transpose within ``tol``."""
    a = as_matrix(m, square=True)
    if tol is None:
        tol = tolerances.herm_tol(a)
    return float(np.abs(a - a.conj().T).max()) <= tol


def _as_square(m):
    """``m`` as a square matrix or a stack ``(N, n, n)`` of square matrices."""
    a = np.asarray(m, dtype=complex)
    if a.ndim == 3 and a.shape[1] == a.shape[2]:
        return a
    return as_matrix(a, square=True)


def _checked_hermitian(m, tol):
    """``m`` as a square matrix (or stack), or the error of its first bad matrix.

    Each matrix of a stack is judged on its own, against ``tol`` or its own
    default tolerance.  The first matrix beyond it raises NotHermitianError,
    or NoConvergenceError when it has a NaN or infinite entry: its deviation
    is then NaN or infinite, and no eigensolver reads such a matrix soundly
    (LAPACK reads only the real part of the diagonal).  An infinite ``tol``
    skips the check.
    """
    a = _as_square(m)
    if not a.size or tol == np.inf:
        return a
    stack = a.reshape((-1,) + a.shape[-2:])
    with np.errstate(invalid="ignore"):  # inf - inf at a non-finite entry is NaN
        devs = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    # no default tolerance is below HERM_TOL_SCALE, so most input stops here;
    # a NaN deviation fails the test
    if devs.max() <= (tolerances.HERM_TOL_SCALE if tol is None else tol):
        return a
    tols = tolerances.herm_tol(stack) if tol is None else np.full(devs.shape, tol)
    bad = np.flatnonzero(~np.isfinite(devs) | (devs > tols))
    if bad.size:
        k = bad[0]
        if not np.isfinite(devs[k]):
            raise NoConvergenceError("matrix has a non-finite entry")
        raise NotHermitianError(f"deviation from Hermiticity {devs[k]:.3e} exceeds {tols[k]:.3e}")
    return a


def herm_eig(m, tol=None):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    m : array_like
        Square matrix, Hermitian within ``tol``.
    tol : float, optional
        Allowed deviation from Hermiticity; defaults to a scale-aware value.

    Returns
    -------
    w : ndarray
        Real eigenvalues in ascending order.
    u : ndarray
        Unitary matrix whose columns are the matching eigenvectors.

    Raises
    ------
    NotHermitianError
        If ``m`` deviates from Hermiticity beyond ``tol``.
    NoConvergenceError
        If ``m`` has a NaN or infinite entry (with a finite ``tol``), or if
        the underlying solver fails.
    """
    a = _checked_hermitian(m, tol)
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigh failed: {exc}") from exc
    return w, u


def min_herm_eig(m, tol=None):
    """Smallest eigenvalue of a Hermitian matrix (eigenvalues only).

    A matrix ``(n, n)`` gives a float; a stack ``(N, n, n)`` gives the
    ``(N,)`` array of the smallest eigenvalue of each matrix, from one
    batched solve.  Raises the same errors as :func:`herm_eig`.
    """
    a = _checked_hermitian(m, tol)
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigvalsh failed: {exc}") from exc
    return float(w[0]) if a.ndim == 2 else w[:, 0]


def _connected(mask):
    """Whether the pattern ``mask`` (n x n, n >= 1) is one connected component
    of the graph joining i and j where ``mask[i, j]`` or ``mask[j, i]``."""
    if mask.all():
        return True
    mask = mask | mask.T
    np.fill_diagonal(mask, True)
    reach = mask[0]
    while True:
        grown = mask[reach].any(axis=0)
        if np.array_equal(grown, reach):
            return bool(reach.all())
        reach = grown


@functools.lru_cache(maxsize=None)
def _hermitian_basis(d):
    """``(T, T^dagger)``: the read-only unitary ``(d^2, d^2)`` whose columns are
    the vec of an orthonormal basis of Hermitian d x d matrices: E_ii at
    vec index i + d i and, for i < j, (E_ij + E_ji) / sqrt(2) at i + d j and
    i (E_ij - E_ji) / sqrt(2) at j + d i."""
    n = d * d
    t = np.zeros((n, n), dtype=complex)
    s = np.sqrt(0.5)
    for i in range(d):
        t[i + d * i, i + d * i] = 1.0
        for j in range(i + 1, d):
            ij, ji = i + d * j, j + d * i
            t[ij, ij] = t[ji, ij] = s
            t[ij, ji], t[ji, ji] = 1j * s, -1j * s
    t_dag = t.conj().T.copy()
    for arr in (t, t_dag):
        arr.flags.writeable = False
    return t, t_dag


def _real_form(a):
    """``(T, T^dagger, R)`` with R = Re(T^dagger a T) real, when ``a`` is a
    Hermiticity-preserving superoperator matrix ``(d^2, d^2)``, d >= 3, to
    rounding level (``tolerances.REAL_FORM_TOL``) whose exact-zero pattern
    is one connected component; else None.

    In the Hermitian basis ``T`` (:func:`_hermitian_basis`) a map that
    preserves Hermiticity is a real matrix: each entry tr(T_a a(T_b)) is
    the trace of a product of two Hermitian matrices.  At d = 2 the four
    basis products cost more than the real ``eig`` of a 4 x 4 saves.
    """
    n = a.shape[0]
    d = math.isqrt(n)
    if d < 3 or d * d != n or not _connected(a != 0):
        return None
    t, t_dag = _hermitian_basis(d)
    r = t_dag @ a @ t
    if not np.abs(r.imag).max() <= tolerances.REAL_FORM_TOL * np.abs(r.real).max():
        return None
    return t, t_dag, r.real


@dataclass(frozen=True, eq=False, slots=True)
class GeneratorExponential:
    """``tau -> expm(tau m)`` of a fixed matrix ``m`` (:func:`exp_generator`),
    with the diagonalization it runs on: the eigenvalues of ``np.linalg.eig``
    as a complex array and the eigenvectors V of ``m`` (None when ``eig``
    failed), and V^-1 when the eigenbasis passes the ``EXPM_EIG_COND_LIMIT``
    gate (else None: each call then runs scaling-and-squaring)."""

    matrix: np.ndarray
    eigenvalues: np.ndarray | None
    vectors: np.ndarray | None
    inverse: np.ndarray | None

    def __call__(self, tau):
        if self.inverse is not None:
            v, w = self.vectors, self.eigenvalues
            return (v * np.exp(np.multiply.outer(tau, w))[..., None, :]) @ self.inverse
        if np.ndim(tau):
            taus = np.asarray(tau, dtype=float)
            out = [self(t) for t in taus.ravel()]
            return np.array(out, dtype=complex).reshape(taus.shape + self.matrix.shape)
        try:
            return scipy.linalg.expm(tau * self.matrix)
        except Exception as exc:  # scipy raises assorted types here
            raise NoConvergenceError(f"expm failed: {exc}") from exc

    def kernel(self):
        """``(idx, omega, settles)`` of a ``(d^2, d^2)`` generator by the one
        kernel rule of the package, or None when ``eig`` failed: ``idx``
        indexes the eigenvalues with |mu| <= z = 1e-9 max(1, max |m|);
        ``omega`` is the vector of a one-dimensional kernel as a unit-trace
        Hermitian matrix (:func:`unit_trace_hermitian`, tolerance 1e-8), else
        None; ``settles`` whether every other Re mu is below -z, so that
        e^{tm} converges to the projector onto the kernel."""
        w = self.eigenvalues
        if w is None:
            return None
        zero = 1e-9 * max(1.0, float(np.abs(self.matrix).max()))
        kernel = np.abs(w) <= zero
        idx = np.flatnonzero(kernel)
        omega = None
        if len(idx) == 1:
            omega = unit_trace_hermitian(self.vectors[:, idx[0]], math.isqrt(len(w)), 1e-8)
        return idx, omega, bool(np.all(w.real[~kernel] < -zero))


def exp_generator(m) -> GeneratorExponential:
    """The one-parameter group ``tau -> expm(tau * m)`` of a fixed matrix.

    ``m`` is diagonalized once, ``m = V diag(w) V^-1``, and every call costs
    one exponential of the eigenvalues and one matrix product:
    ``expm(tau m) = (V * exp(tau w)) @ V^-1``.  When the eigenvector matrix
    is ill-conditioned (beyond ``EXPM_EIG_COND_LIMIT``) or cannot be
    inverted, each call falls back to scaling-and-squaring instead.

    A generator that preserves Hermiticity, such as a GKLS generator, is
    a real matrix R = T^dagger m T in an orthonormal Hermitian basis ``T``
    (the real Bloch-Liouville form), and a real ``eig`` costs about a third
    of a complex one (64 x 64, one BLAS thread: 1.4 against 4.2 ms).  So a
    ``(d^2, d^2)`` matrix, d >= 3, that preserves Hermiticity to rounding
    level and whose exact-zero pattern is one connected component (see
    :func:`_real_form`) is diagonalized as
    ``R = V_r diag(w) V_r^-1`` with ``V = T V_r`` and ``V^-1 = V_r^-1
    T^dagger``; T is unitary, so ``cond(V) = cond(V_r)`` takes the same
    gate.  A pattern that splits, as those of the generators covariant
    under diagonal unitaries do, stays on the complex route: T mixes the
    entries of E_ij and E_ji, so the exponential would carry rounding noise
    where the complex route keeps the exact zeros that
    ``classify.choi_floors`` reads as its block layout.

    A scalar ``tau`` gives one matrix; an array of times gives the stack of
    their exponentials, from one batched product (the fallback loops over
    the times).  Each matrix of the stack equals the scalar call bitwise.
    The eigenvalues are those of ``np.linalg.eig`` of R or of ``m``.
    """
    a = as_matrix(m, square=True)
    t, t_dag, r = _real_form(a) or (None, None, a)
    w = v = v_inv = None
    try:
        w, v = np.linalg.eig(r)
        if np.linalg.cond(v) < tolerances.EXPM_EIG_COND_LIMIT:  # false for nan
            v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        pass
    if t is not None and v is not None:
        v, v_inv = t @ v, None if v_inv is None else v_inv @ t_dag
    return GeneratorExponential(a, None if w is None else w.astype(complex, copy=False),
                                v, v_inv)


def expm(m):
    """Matrix exponential, ``exp_generator(m)(1.0)``.

    Diagonalizable input goes through its eigenbasis, a Hermiticity-preserving
    generator through that of its real form (see :func:`exp_generator`);
    when the eigenvector matrix is ill-conditioned the computation falls
    back to scaling-and-squaring.
    """
    return exp_generator(m)(1.0)


def kron(a, b):
    """Kronecker product with shape validation.

    A broadcast outer product, entry for entry the same as ``np.kron`` (each
    entry is one product, nothing is summed) at a fraction of its overhead.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def partial_transpose_second(m, d1, d2):
    """Transpose the second tensor factor of a matrix on C^d1 (x) C^d2.

    Satisfies ``partial_transpose_second(kron(A, B), d1, d2) == kron(A, B.T)``
    and is an involution.  A stack ``(N, n, n)`` is transposed matrix by
    matrix in one permutation.
    """
    a = _as_square(m)
    if a.shape[-1] != d1 * d2:
        raise DimensionMismatchError(
            f"matrix of shape {a.shape} does not factor as {d1}*{d2}"
        )
    return a.reshape(-1, d1, d2, d1, d2).transpose(0, 1, 4, 3, 2).reshape(a.shape)


def partial_trace_first(m, d1, d2):
    """Trace out the first tensor factor of a matrix on C^d1 (x) C^d2."""
    a = as_matrix(m, square=True)
    if a.shape[0] != d1 * d2:
        raise DimensionMismatchError(
            f"matrix of shape {a.shape} does not factor as {d1}*{d2}"
        )
    return a.reshape(d1, d2, d1, d2).trace(axis1=0, axis2=2)


def vec(m):
    """Column-stacking vectorization: vec(X)[i + d*j] = X[i, j]."""
    return as_matrix(m).ravel(order="F")


def unvec(v, d=None):
    """Inverse of :func:`vec` for a square matrix."""
    a = np.asarray(v, dtype=complex).ravel()
    if d is None:
        d = int(round(np.sqrt(a.size)))
    if d * d != a.size:
        raise DimensionMismatchError(f"vector of length {a.size} is not d*d")
    return a.reshape((d, d), order="F")


def unit_trace_hermitian(v, d, tol):
    """``unvec(v, d)`` scaled to unit trace and Hermitized.

    Returns None when the trace is below ``tol`` in modulus.
    """
    x = unvec(v, d)
    tr = np.trace(x)
    if abs(tr) < tol:
        return None
    x = x / tr
    return (x + x.conj().T) / 2.0


def matrix_unit(d, i, j):
    """The matrix unit E_ij of size d x d."""
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def matrix_units(d):
    """Yield (i, j, E_ij) over the standard basis of d x d matrices."""
    for j in range(d):
        for i in range(d):
            yield i, j, matrix_unit(d, i, j)


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: (sigma_1, sigma_2, sigma_3, identity)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z, np.eye(2, dtype=complex))

for _p in PAULIS:
    _p.setflags(write=False)
del _p
