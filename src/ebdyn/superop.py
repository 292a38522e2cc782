"""Linear maps on d x d matrices: representation, calculus and spectra.

A map phi is stored as its d^2 x d^2 matrix acting on column-stacked inputs,
so that ``vec(phi(X)) = S @ vec(X)``.  The adjoint with respect to the
Hilbert-Schmidt inner product <A, B> = tr(A^dag B) is then the conjugate
transpose of ``S``.

The Choi matrix has the blocks

    C[i*d:(i+1)*d, j*d:(j+1)*d] = phi(E_ij),

which with column stacking is a pure re-indexing of ``S``: viewed as
``d x d x d x d`` arrays, C[i, k, j, l] = S[l, k, j, i].  That shuffle is its
own inverse, so the round trip ``from_choi(to_choi(phi))`` is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import matcore, tolerances
from .errors import DefectiveMapError, DimensionMismatchError

__all__ = [
    "Superoperator",
    "ChoiMatrix",
    "MapSpectrum",
    "identity",
    "from_action",
    "transpose_map",
    "unitary_conjugation",
    "compose",
    "adjoint",
    "to_choi",
    "from_choi",
    "SpectralComponents",
    "SpectralStack",
    "spectral_sum",
    "is_trace_preserving",
    "is_unital",
    "is_hermiticity_preserving",
    "map_spectrum",
    "tp_fixed_point",
]


@dataclass(frozen=True, eq=False)
class Superoperator:
    """A linear map on d x d complex matrices in column-stacked form."""

    matrix: np.ndarray
    d: int

    def __post_init__(self):
        m = matcore.as_matrix(self.matrix, square=True)
        d = int(self.d)
        if m.shape[0] != d * d:
            raise DimensionMismatchError(
                f"superoperator matrix {m.shape} does not match d={d}"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "d", d)

    def apply(self, x):
        """Apply the map to a d x d matrix."""
        x = matcore.as_matrix(x, square=True)
        if x.shape[0] != self.d:
            raise DimensionMismatchError(f"input {x.shape} does not match d={self.d}")
        return matcore.unvec(self.matrix @ matcore.vec(x), self.d)

    def __matmul__(self, other):
        return compose(self, other)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """The Choi matrix of a map, a d^2 x d^2 matrix on C^d (x) C^d."""

    matrix: np.ndarray
    d: int

    def __post_init__(self):
        m = matcore.as_matrix(self.matrix, square=True)
        d = int(self.d)
        if m.shape[0] != d * d:
            raise DimensionMismatchError(f"Choi matrix {m.shape} does not match d={d}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "d", d)

    def partial_transpose(self):
        """Choi matrix with the second factor transposed."""
        return ChoiMatrix(
            matcore.partial_transpose_second(self.matrix, self.d, self.d), self.d
        )


def identity(d) -> Superoperator:
    """The identity map on d x d matrices."""
    return Superoperator(np.eye(d * d, dtype=complex), d)


def from_action(d, action: Callable) -> Superoperator:
    """Build a Superoperator from a callable X -> phi(X).

    The callable is evaluated on every matrix unit, so it must be linear for
    the result to represent it faithfully.
    """
    s = np.empty((d * d, d * d), dtype=complex)
    for i, j, e in matcore.matrix_units(d):
        s[:, i + d * j] = matcore.vec(matcore.as_matrix(action(e), square=True))
    return Superoperator(s, d)


def transpose_map(d) -> Superoperator:
    """The transposition map X -> X^T."""
    return from_action(d, lambda x: x.T)


def unitary_conjugation(u) -> Superoperator:
    """The map X -> U X U^dag for a d x d unitary U."""
    u = matcore.as_matrix(u, square=True)
    return Superoperator(matcore.kron(u.conj(), u), u.shape[0])


def compose(phi: Superoperator, psi: Superoperator) -> Superoperator:
    """The composition phi o psi (``psi`` acts first)."""
    if phi.d != psi.d:
        raise DimensionMismatchError(f"cannot compose maps with d={phi.d} and d={psi.d}")
    return Superoperator(phi.matrix @ psi.matrix, phi.d)


def adjoint(phi: Superoperator) -> Superoperator:
    """Adjoint with respect to the Hilbert-Schmidt inner product."""
    return Superoperator(phi.matrix.conj().T, phi.d)


def _choi_shuffle(m, d):
    # C[i, k, j, l] = S[l, k, j, i] on the d x d x d x d views of each matrix
    # of m (one matrix or a stack); an involution
    return m.reshape(-1, d, d, d, d).transpose(0, 4, 2, 3, 1).reshape(m.shape)


def to_choi(phi: Superoperator) -> ChoiMatrix:
    """Choi matrix of ``phi``, a re-indexing of its matrix."""
    return ChoiMatrix(_choi_shuffle(phi.matrix, phi.d), phi.d)


def from_choi(choi: ChoiMatrix) -> Superoperator:
    """Inverse of :func:`to_choi`; the round trip is exact."""
    return Superoperator(_choi_shuffle(choi.matrix, choi.d), choi.d)


class SpectralComponents(tuple):
    """Component matrices Q_k of :func:`spectral_sum`; layer r of ``layers``
    pairs each entry with its r-th nonzero Q_k (index and value, or 0).  When
    the Q_k vanish together on most entries, the layers cover only ``support``,
    the flat entries where some Q_k is nonzero (never one alone: numpy
    multiplies a lone column with a kernel that rounds differently).
    ``choi_layout`` is None until ``classify.choi_floors`` first reads the
    Choi entries of their sums (a :class:`SpectralStack`), and then keeps
    the block layout it reads them through."""

    def __new__(cls, components):
        q = np.asarray(components, dtype=complex)  # one block (K, n, n) is not copied
        self = super().__new__(cls, components)
        self.choi_layout = None
        q = q.reshape(len(self), -1)
        support = np.flatnonzero(q.any(axis=0))
        self.support = support if 1 < len(support) < q.shape[1] / 2 else None
        if self.support is not None:
            q = q[:, support]
        rank = np.where(q != 0, np.cumsum(q != 0, axis=0) - 1, -1)
        self.layers = []
        for r in range(rank.max() + 1):
            k = np.argmax(rank == r, axis=0)
            nth = np.take_along_axis(q, k[None], axis=0)[0]
            self.layers.append((k, np.where((rank == r).any(axis=0), nth, 0)))
        return self

    @classmethod
    def diagonal_units(cls, n):
        """The n matrix units E_kk of n x n matrices (n >= 3), from their structure.

        Their joint support is the diagonal, n of the n^2 entries, and one layer
        pairs diagonal entry k with E_kk: what the scan finds, without a dense
        ``(n, n, n)`` block.  The units are read-only views of one buffer of
        2 n^2 entries, zero but for a one in the middle: entry (r, c) of unit k
        sits (r - k) n + (c - k) places from it.
        """
        buf = np.zeros(2 * n * n, dtype=complex)
        buf[n * n] = 1.0
        step = buf.itemsize
        units = np.lib.stride_tricks.as_strided(
            buf[n * n:], (n, n, n), (-(n + 1) * step, n * step, step), writeable=False)
        self = super().__new__(cls, units)
        self.choi_layout = None
        self.support = np.arange(n) * (n + 1)
        self.layers = [(np.arange(n), np.ones(n, dtype=complex))]
        return self


def _layer_sum(c, components, d):
    """The entries sum_k c_k Q_k on the support of ``components`` (all d^4
    entries when it is None), rows ``(N, K)`` giving ``(N, entries)``: the
    nonzero terms added in the order of k, layer by layer.  A non-finite c_k
    times a zero entry is NaN, quietly: ``classify.choi_floors`` raises for it."""
    support = components.support
    s = np.zeros(c.shape[:-1] + (d ** 4 if support is None else len(support),), dtype=complex)
    with np.errstate(invalid="ignore"):
        for k, q in components.layers:
            s += c[..., k] * q
    return s


def spectral_sum(coefficients, components, d):
    """The map sum_k c_k Q_k from scalar coefficients and component matrices;
    rows ``(N, K)`` give the stack ``(N, d^2, d^2)``, each matrix bitwise its row's.

    The nonzero terms are added in the order of k, layer by layer; for finite
    c_k a zero term leaves the sum as it is, so each entry is bitwise the full sum's.
    """
    if not isinstance(components, SpectralComponents):
        components = SpectralComponents(components)
    c = np.asarray(coefficients)
    support = components.support
    s = _layer_sum(c, components, d)
    if support is not None:
        full = np.zeros(c.shape[:-1] + (d ** 4,), dtype=complex)
        full[..., support] = s
        s = full
    s = s.reshape(c.shape[:-1] + (d * d, d * d))
    return Superoperator(s, d) if c.ndim == 1 else s


class SpectralStack:
    """The stack of maps sum_k rows[n, k] Q_k over ``components`` (the
    :class:`SpectralComponents` Q_k), held as its coefficient rows ``(N, K)``;
    the maps where the boolean array ``identity`` is set are the exact
    identity instead.  ``classify.choi_floors`` reads its floors from the
    block entries of the Choi matrices alone; :meth:`maps` builds the maps."""

    __slots__ = ("rows", "components", "identity", "d")

    def __init__(self, rows, components, identity, d):
        self.rows = np.asarray(rows)
        self.components = components
        self.identity = np.asarray(identity, dtype=bool)
        self.d = d

    def __len__(self):
        return len(self.rows)

    def maps(self, which=slice(None)):
        """The map matrices ``(N, d^2, d^2)`` (or those of the rows ``which``),
        each bitwise ``spectral_sum`` of its row."""
        out = spectral_sum(self.rows[which], self.components, self.d)
        out[self.identity[which]] = np.eye(self.d ** 2)
        return out


def is_trace_preserving(phi: Superoperator, tol=1e-9) -> bool:
    """Whether tr(phi(X)) = tr(X) for all X, within ``tol``."""
    vec_id = matcore.vec(np.eye(phi.d, dtype=complex))
    residual = phi.matrix.conj().T @ vec_id - vec_id
    return float(np.abs(residual).max()) <= tol


def is_unital(phi: Superoperator, tol=1e-9) -> bool:
    """Whether phi(I) = I within ``tol``."""
    vec_id = matcore.vec(np.eye(phi.d, dtype=complex))
    residual = phi.matrix @ vec_id - vec_id
    return float(np.abs(residual).max()) <= tol


def is_hermiticity_preserving(phi: Superoperator, tol=None) -> bool:
    """Whether phi maps Hermitian matrices to Hermitian matrices.

    Equivalent to the Choi matrix being Hermitian.
    """
    c = to_choi(phi).matrix
    return matcore.is_hermitian(c, tol=tol)


@dataclass(frozen=True, eq=False)
class MapSpectrum:
    """Spectral decomposition phi = sum_i lambda_i <Y_i, .> X_i.

    Right eigenmatrices ``X_i`` have unit Hilbert-Schmidt norm; left
    eigenmatrices ``Y_i`` are scaled so that <Y_i, X_j> = delta_ij.
    Eigenvalues are ordered by descending real part, with real eigenvalues
    before complex pairs at equal real part.
    """

    d: int
    eigenvalues: np.ndarray
    right: tuple = field(repr=False)
    left: tuple = field(repr=False)
    biorthogonality_residual: float = 0.0
    condition_number: float = 1.0

    def projector(self, i) -> Superoperator:
        """The (generally non-orthogonal) spectral projector <Y_i, .> X_i."""
        s = np.outer(matcore.vec(self.right[i]), matcore.vec(self.left[i]).conj())
        return Superoperator(s, self.d)

    def reconstruct(self) -> Superoperator:
        """Reassemble the map as sum_i lambda_i P_i."""
        s = np.zeros((self.d * self.d, self.d * self.d), dtype=complex)
        for lam, x, y in zip(self.eigenvalues, self.right, self.left):
            s += lam * np.outer(matcore.vec(x), matcore.vec(y).conj())
        return Superoperator(s, self.d)


def _spectral_order(w):
    # descending real part; ties: real eigenvalues first, then descending Im
    return np.lexsort((-w.imag, np.abs(w.imag), -w.real))


def map_spectrum(phi: Superoperator) -> MapSpectrum:
    """Eigenvalues and biorthogonal eigenmatrix pairs of a map.

    Raises
    ------
    DefectiveMapError
        If the eigenvector matrix condition number exceeds the defectiveness
        limit (the map has no trustworthy spectral decomposition).
    """
    w, v = np.linalg.eig(phi.matrix)
    cond = float(np.linalg.cond(v))
    if not np.isfinite(cond) or cond > tolerances.DEFECTIVE_COND_LIMIT:
        raise DefectiveMapError(f"eigenvector condition number {cond:.3e}")
    order = _spectral_order(w)
    w = w[order]
    v = v[:, order]
    # rows of inv(v) are the matching left eigenvectors (conjugated)
    left_vecs = np.linalg.inv(v).conj().T
    right = []
    left = []
    for k in range(v.shape[1]):
        norm = float(np.linalg.norm(v[:, k]))
        right.append(matcore.unvec(v[:, k] / norm, phi.d))
        left.append(matcore.unvec(left_vecs[:, k] * norm, phi.d))
    gram = np.array(
        [[np.vdot(matcore.vec(y), matcore.vec(x)) for x in right] for y in left]
    )
    residual = float(np.abs(gram - np.eye(len(right))).max())
    return MapSpectrum(
        d=phi.d,
        eigenvalues=w,
        right=tuple(right),
        left=tuple(left),
        biorthogonality_residual=residual,
        condition_number=cond,
    )


def tp_fixed_point(spectrum: MapSpectrum, tol=1e-8):
    """Fixed-point pair of a trace-preserving map, rescaled canonically.

    For a TP map the eigenvalue 1 has left eigenmatrix proportional to the
    identity; the pair is rescaled so that Y = I, which forces tr(X) = 1.

    Returns
    -------
    omega : ndarray
        The trace-one right fixed point (Hermitized).
    residual : float
        How far the raw left eigenmatrix was from a multiple of the identity.
    """
    k = int(np.argmin(np.abs(spectrum.eigenvalues - 1.0)))
    if abs(spectrum.eigenvalues[k] - 1.0) > 1e-6:
        raise DefectiveMapError("no eigenvalue close to 1; is the map trace-preserving?")
    y = spectrum.left[k]
    scale = np.trace(y) / spectrum.d
    residual = float(np.abs(y - scale * np.eye(spectrum.d)).max())
    if abs(scale) < tol:
        raise DefectiveMapError("left fixed point is orthogonal to the identity")
    x = spectrum.right[k] * scale
    tr = np.trace(x)
    if abs(tr - 1.0) > 1e-6:
        # fall back to direct trace normalization
        x = spectrum.right[k] / np.trace(spectrum.right[k])
    else:
        x = x / tr
    omega = (x + x.conj().T) / 2.0
    return omega, residual
