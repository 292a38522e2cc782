"""Dense complex matrix substrate used by every other module.

Matrices are plain ``numpy.ndarray`` objects; this module fixes the package's
conventions (column-stacking vectorization, partial transposition of the
second tensor factor) and wraps the eigensolvers and the matrix exponential
with the package's error types.

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

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
    """``m`` as a square matrix (or stack), or NotHermitianError beyond ``tol``.

    Each matrix of a stack is judged on its own, against ``tol`` or its own
    default tolerance; the error reports the first matrix beyond it.  An
    infinite ``tol`` skips the check.
    """
    a = _as_square(m)
    if not a.size or tol == np.inf:
        return a
    stack = a.reshape((-1,) + a.shape[-2:])
    devs = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    # no default tolerance is below HERM_TOL_SCALE, so most input stops here
    if devs.max() <= (tolerances.HERM_TOL_SCALE if tol is None else tol):
        return a
    tols = tolerances.herm_tol(stack) if tol is None else np.full(devs.shape, tol)
    bad = np.flatnonzero(devs > tols)
    if bad.size:
        k = bad[0]
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
        If the underlying solver fails.
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


def exp_generator(m):
    """The one-parameter group ``tau -> expm(tau * m)`` of a fixed matrix.

    ``m`` is diagonalized once, ``m = V diag(w) V^-1``, and every call costs
    one exponential of the eigenvalues and one matrix product:
    ``expm(tau m) = (V * exp(tau w)) @ V^-1``.  When the eigenvector matrix
    is ill-conditioned (beyond ``EXPM_EIG_COND_LIMIT``) or cannot be
    inverted, each call falls back to scaling-and-squaring instead.

    A scalar ``tau`` gives one matrix; an array of times gives the stack of
    their exponentials, from one batched product (the fallback loops over
    the times).  Each matrix of the stack equals the scalar call bitwise.

    The returned callable carries the eigenvalues ``w`` of ``m`` (those of
    ``np.linalg.eig``, also on the fallback) as ``eigenvalues``; it is None
    when ``eig`` failed.
    """
    a = as_matrix(m, square=True)
    w = None
    try:
        w, v = np.linalg.eig(a)
        cond = np.linalg.cond(v)
    except np.linalg.LinAlgError:
        cond = np.inf
    if np.isfinite(cond) and cond < tolerances.EXPM_EIG_COND_LIMIT:
        try:
            v_inv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            pass
        else:
            def eigenbasis(tau):
                return (v * np.exp(np.multiply.outer(tau, w))[..., None, :]) @ v_inv

            eigenbasis.eigenvalues = w
            return eigenbasis

    def scaling_and_squaring(tau):
        if np.ndim(tau):
            taus = np.asarray(tau, dtype=float)
            out = [scaling_and_squaring(t) for t in taus.ravel()]
            return np.array(out, dtype=complex).reshape(taus.shape + a.shape)
        try:
            return scipy.linalg.expm(tau * a)
        except Exception as exc:  # scipy raises assorted types here
            raise NoConvergenceError(f"expm failed: {exc}") from exc

    scaling_and_squaring.eigenvalues = w
    return scaling_and_squaring


def expm(m):
    """Matrix exponential, ``exp_generator(m)(1.0)``.

    Diagonalizable input goes through its eigenbasis; when the eigenvector
    matrix is ill-conditioned the computation falls back to
    scaling-and-squaring.
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
