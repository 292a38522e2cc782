"""Cone membership of maps and stacks of maps: CP, coCP, PPT and entanglement breaking.

Membership is decided from the Choi matrix.  Complete positivity is
positivity of the Choi matrix, co-complete-positivity is positivity of its
partial transpose, PPT is both.  Entanglement breaking is separability of
the Choi matrix: for d = 2 this is equivalent to PPT, for d > 2 PPT is only
necessary, so EB can be certified there solely through an interior
certificate and is otherwise reported unknown.

The interior certificate is a ball argument around the rank-one map
X -> tr(X) omega, whose Choi matrix is I (x) omega: if the Choi matrix lies
within Frobenius distance min_eig(omega)/2 of I (x) omega with omega strictly
positive, the map is entanglement breaking (with margin).  That radius is
deliberately conservative; filtering by omega^{-1/2} on the second factor
maps the ball onto a neighbourhood of the maximally mixed state that lies
well inside the known separable ball around it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matcore, superop, tolerances
from .errors import TraceNotOneError, InvalidStateError

__all__ = [
    "EB_CERTIFIED",
    "EB_REFUTED",
    "EB_UNKNOWN",
    "ClassificationReport",
    "InteriorCertificate",
    "choi_floors",
    "classify_map",
    "classify_stack",
    "eb_certify_interior",
    "interior_certificate",
    "interior_certificates",
    "projector_onto_state",
    "positivity_witness",
]

EB_CERTIFIED = "EB_certified"
EB_REFUTED = "EB_refuted"
EB_UNKNOWN = "EB_unknown"


@dataclass(frozen=True)
class ClassificationReport:
    """Cone verdicts for one map at one instant."""

    d: int
    is_cp: bool
    is_cocp: bool
    is_ppt: bool
    eb_status: str
    min_eig_choi: float
    min_eig_choi_pt: float
    tolerance_used: float


@dataclass(frozen=True)
class InteriorCertificate:
    """Outcome of the entanglement-breaking interior test.

    ``path`` names the argument that fired: ``strict_ppt_qubit`` (d = 2,
    both Choi eigenvalue floors strictly positive) or ``state_projector_ball``
    (Frobenius ball around I (x) omega).  ``boundary`` flags maps that are in
    the cone within tolerance but sit on its boundary, so no interior
    certificate is possible.
    """

    certified: bool
    path: str | None
    boundary: bool
    distance: float | None
    radius: float | None


# The reduced route of a covariant Choi matrix has a fixed cost of about
# 0.1 ms (one thread).  At d = 3 a single map takes 0.12 ms on it against
# 0.05 ms dense; at d = 4 it wins from a few maps on (ten maps: 0.20 against
# 0.33 ms), and from d = 5 on even for one map (d = 8: 0.17 against 0.7 ms).
_COVARIANT_MIN_D = 4


def choi_floors(stack, d, cp=True, cocp=True):
    """Choi matrices of a stack ``(N, d^2, d^2)`` of map matrices and their floors.

    Returns ``(choi, min_c, min_pt)``: the Choi stack (one permutation) and
    the ``(N,)`` smallest eigenvalues of each Choi matrix (if ``cp``) and of
    its partial transpose (if ``cocp``; else None).  Each floor is that of
    its map alone, whatever else the stack holds.

    The route is chosen map by map.  For d >= 4, a Choi
    matrix that is finite and exactly zero outside the d x d block on the
    indices {ii} and the diagonal (that of a map covariant under diagonal
    unitaries) takes :func:`_covariant_floors`; its floors agree with the
    dense eigensolve to rounding.  Every other map takes one batched dense
    solve per floor, bitwise that of the map alone.  A partial transpose
    deviates from Hermiticity exactly as its Choi matrix does, so a stack
    raises the NotHermitianError of its first non-Hermitian map.
    """
    choi = superop._choi_shuffle(np.asarray(stack, dtype=complex), d)
    routed = _covariant_maps(choi, d)
    if not routed.any():
        return (choi,) + _dense_floors(choi, d, cp, cocp)
    covariant = _covariant_floors(choi, routed, d, cp, cocp)
    if routed.all():
        return (choi,) + covariant
    floors = []
    for cov, dense in zip(covariant, _dense_floors(choi[~routed], d, cp, cocp)):
        if cov is not None:
            floor = np.empty(len(choi))
            floor[routed], floor[~routed] = cov, dense
            cov = floor
        floors.append(cov)
    return (choi,) + tuple(floors)


def _dense_floors(choi, d, cp, cocp):
    """(min_c, min_pt) of a Choi stack, one batched dense eigensolve each.
    Hermiticity is judged on C alone: (C^Gamma)^dag = (C^dag)^Gamma permutes
    the entries, so the partial transpose deviates exactly as C does."""
    if cp or cocp:
        choi = matcore._checked_hermitian(choi, None)
    min_c = matcore.min_herm_eig(choi, tol=np.inf) if cp else None
    min_pt = (matcore.min_herm_eig(matcore.partial_transpose_second(choi, d, d), tol=np.inf)
              if cocp else None)
    return min_c, min_pt


class _CovariantLayout(NamedTuple):
    ii: np.ndarray
    off: np.ndarray
    pair_p: np.ndarray
    pair_q: np.ndarray
    pattern: np.ndarray
    mirror: np.ndarray


@functools.lru_cache(maxsize=16)
def _covariant_layout(d):
    """Read-only flat indices of the covariant pattern at dimension d.

    ``ii``: the indices {ii}; ``off``: the other d^2 - d diagonal indices;
    ``pair_p``, ``pair_q``: the diagonal indices ab and ba of each pair
    a < b (ba is also the position (b, a) of C_{bb,aa} in the flat block);
    ``pattern`` and ``mirror``: the flattened ``(d^2, d^2)`` positions on
    the block and the diagonal, and their transposes.
    """
    ii = np.arange(d) * (d + 1)
    mask = np.eye(d * d, dtype=bool)
    mask[ii[:, None], ii] = True
    rows, cols = np.nonzero(mask)
    b, a = np.tril_indices(d, -1)
    layout = _CovariantLayout(
        ii=ii, off=np.setdiff1d(np.arange(d * d), ii), pair_p=a * d + b, pair_q=b * d + a,
        pattern=rows * d * d + cols, mirror=cols * d * d + rows)
    for arr in layout:
        arr.flags.writeable = False
    return layout


def _covariant_maps(choi, d):
    """Which Choi matrices of a stack take :func:`_covariant_floors`."""
    if d < _COVARIANT_MIN_D:
        return np.zeros(len(choi), dtype=bool)
    layout = _covariant_layout(d)
    flat = choi.reshape(len(choi), d ** 4)
    # no nonzero entry outside the pattern: -0.0 is zero; NaN and inf are not
    nonzero = flat != 0
    inside = np.count_nonzero(nonzero[:, layout.pattern], axis=1)
    return (np.count_nonzero(nonzero, axis=1) == inside) & np.isfinite(flat[:, layout.pattern]).all(axis=1)


def _covariant_floors(choi, routed, d, cp, cocp):
    """(min_c, min_pt) of the maps ``routed`` of a Choi stack, from their pattern.

    Such a Choi matrix C is the direct sum of its block A on the indices
    {ii} and the other diagonal entries, and its partial transpose is the
    direct sum of the entries C_{ii,ii} and the 2 x 2 blocks
    [[C_{ab,ab}, C_{aa,bb}], [C_{bb,aa}, C_{ba,ba}]] over the pairs a < b
    (Singh & Nechita, Quantum 5, 519, 2021).  The CP floor costs one batched
    eigensolve of the (M, d, d) block stack; the pairs have a closed form.
    Hermiticity is judged on the pattern, which gives the deviation and the
    tolerance of the whole matrix; if any routed map fails, the whole stack
    is checked in order so the error names its first non-Hermitian map.
    """
    layout = _covariant_layout(d)
    c = choi[routed]
    flat = c.reshape(len(c), d ** 4)
    values = flat[:, layout.pattern]
    devs = np.abs(values - flat[:, layout.mirror].conj()).max(axis=1)
    # no tolerance is below HERM_TOL_SCALE, so most stacks stop at the first test
    if (devs.max() > tolerances.HERM_TOL_SCALE and (
            devs > tolerances.HERM_TOL_SCALE * np.maximum(1.0, np.abs(values).max(axis=1))).any()):
        matcore._checked_hermitian(choi, None)
    block = c[:, layout.ii[:, None], layout.ii]
    diag = np.diagonal(c, axis1=1, axis2=2).real
    min_c = min_pt = None
    if cp:
        # Hermiticity was judged above, against the whole matrix's tolerance
        min_c = np.minimum(matcore.min_herm_eig(block, tol=np.inf),
                           diag[:, layout.off].min(axis=1))
    if cocp:
        # pair a < b: p = C_{ab,ab}, q = C_{ba,ba}, z = C_{bb,aa} (the lower
        # entry, as the dense solve reads it); its smaller eigenvalue
        # min(p, q) - |z|^2 / (h + hypot(h, |z|)) with h = |p - q| / 2 has no
        # cancellation and is min(p, q) exactly when z = 0
        p, q = diag[:, layout.pair_p], diag[:, layout.pair_q]
        r = np.abs(block.reshape(len(c), d * d)[:, layout.pair_q])
        h = np.abs(p - q) / 2.0
        shift = np.divide(r, h + np.hypot(h, r), out=np.zeros_like(r), where=r > 0) * r
        min_pt = np.minimum(diag[:, layout.ii].min(axis=1),
                            (np.minimum(p, q) - shift).min(axis=1))
    return min_c, min_pt


def classify_stack(stack, d, tol=None) -> list:
    """:class:`ClassificationReport` of each map of a stack ``(N, d^2, d^2)``.

    The maps must be Hermiticity preserving (Hermitian Choi matrices);
    otherwise the eigensolver's error propagates.  For d > 2 the ball
    certificate runs once over the PPT maps of the stack.
    """
    if tol is None:
        tol = tolerances.PSD_TOL
    choi, min_c, min_pt = choi_floors(stack, d)
    is_cp, is_cocp = min_c >= -tol, min_pt >= -tol
    is_ppt = is_cp & is_cocp
    certs = (interior_certificates(choi, min_c, min_pt, d, tol=tol, which=is_ppt)
             if d > 2 else [None] * len(choi))
    return [
        ClassificationReport(
            d=d, is_cp=bool(is_cp[k]), is_cocp=bool(is_cocp[k]), is_ppt=bool(is_ppt[k]),
            eb_status=(EB_REFUTED if not is_ppt[k] else
                       EB_CERTIFIED if d == 2 or cert.certified else EB_UNKNOWN),
            min_eig_choi=float(min_c[k]), min_eig_choi_pt=float(min_pt[k]),
            tolerance_used=float(tol),
        )
        for k, cert in enumerate(certs)
    ]


def classify_map(phi: superop.Superoperator, tol=None) -> ClassificationReport:
    """Classify one map: :func:`classify_stack` of a stack of one."""
    return classify_stack(phi.matrix[None], phi.d, tol=tol)[0]


def interior_certificate(phi: superop.Superoperator, tol=None) -> InteriorCertificate:
    """Try to certify that ``phi`` lies in the interior of the EB cone."""
    return interior_certificates(*choi_floors(phi.matrix[None], phi.d), phi.d, tol=tol)[0]


def interior_certificates(choi, min_c, min_pt, d, tol=None, which=None) -> list:
    """:class:`InteriorCertificate` of each map, from :func:`choi_floors`.

    Only the maps where the boolean array ``which`` is set (all by default)
    are tested; the others get None.  The marginals, traces and eigenvalue
    floors of the ball test run once over the tested maps.
    """
    if tol is None:
        tol = tolerances.PSD_TOL
    which = np.ones(len(choi), dtype=bool) if which is None else np.asarray(which, dtype=bool)
    floor = np.where(min_pt < min_c, min_pt, min_c)  # min(min_c, min_pt) per map
    strict = which & (floor > tol) & (d == 2)
    ball = np.flatnonzero(which & ~strict)
    # ball around the rank-one map X -> tr(X) omega, with the Choi marginal as
    # omega, for roughly trace preserving maps (tr > 0.5) with omega > 0
    omega = choi[ball].reshape(-1, d, d, d, d).trace(axis1=1, axis2=3) / d
    omega = (omega + omega.conj().swapaxes(1, 2)) / 2.0
    tr = np.trace(omega, axis1=1, axis2=2).real
    omega, ball = omega[tr > 0.5] / tr[tr > 0.5, None, None], ball[tr > 0.5]
    lam = matcore.min_herm_eig(omega)
    ball, omega, lam = ball[lam > tol], omega[lam > tol], lam[lam > tol]
    # each Choi matrix minus I (x) omega: omega comes off the d diagonal
    # blocks; the other entries of I (x) omega are zeros, which change at
    # most the sign of a zero entry and so not the norm
    diff = choi[ball].reshape(-1, d, d, d, d)
    for i in range(d):
        diff[:, i, :, i, :] -= omega
    found = {k: (float(np.linalg.norm(x, "fro")), float(lam_k) / 2.0)
             for k, x, lam_k in zip(ball.tolist(), diff.reshape(-1, d * d, d * d), lam)}
    tested = np.flatnonzero(which)
    edge = (-tol <= floor) & (floor <= tol)
    certs = [None] * len(choi)
    for k, qubit, near in zip(tested.tolist(), strict[tested].tolist(), edge[tested].tolist()):
        distance, radius = found.get(k, (None, None))
        certified = qubit or (distance is not None and distance <= radius)
        certs[k] = InteriorCertificate(
            certified=certified,
            path=("strict_ppt_qubit" if qubit else
                  "state_projector_ball" if certified else None),
            boundary=not certified and near,
            distance=distance,
            radius=radius,
        )
    return certs


def eb_certify_interior(phi: superop.Superoperator, tol=None) -> bool:
    """Whether ``phi`` is certified to lie strictly inside the EB cone."""
    return interior_certificate(phi, tol=tol).certified


def projector_onto_state(omega) -> superop.Superoperator:
    """The rank-one idempotent map X -> tr(X) omega.

    ``omega`` must be a Hermitian matrix with unit trace (a state when it is
    also positive).  The Choi matrix of the result is I (x) omega.
    """
    w = matcore.as_matrix(omega, square=True)
    if not matcore.is_hermitian(w, tol=1e-10):
        raise InvalidStateError("omega must be Hermitian")
    if abs(np.trace(w) - 1.0) > 1e-10:
        raise TraceNotOneError(f"tr(omega) = {np.trace(w):.12g}, expected 1")
    d = w.shape[0]
    s = np.outer(matcore.vec(w), matcore.vec(np.eye(d, dtype=complex)).conj())
    return superop.Superoperator(s, d)


def positivity_witness(phi: superop.Superoperator, restarts=12, iters=80, seed=0) -> float:
    """Search for the smallest value of <a (x) b| C_phi |a (x) b>.

    Block positivity of the Choi matrix over product vectors is equivalent to
    positivity of the map.  The minimum is located by alternating exact
    eigensolves in each factor (a see-saw) from several deterministic random
    starts.  A negative return value refutes positivity; a nonnegative one
    means no violation was found, which for this nonconvex search is strong
    evidence, not proof.
    """
    d = phi.d
    c = superop.to_choi(phi).matrix
    c = (c + c.conj().T) / 2.0
    c4 = c.reshape(d, d, d, d)
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a = a / np.linalg.norm(a)
        value = np.inf
        for _ in range(iters):
            mb = np.einsum("i,j,ikjl->kl", a.conj(), a, c4)
            wb, vb = np.linalg.eigh((mb + mb.conj().T) / 2.0)
            b = vb[:, 0]
            ma = np.einsum("k,l,ikjl->ij", b.conj(), b, c4)
            wa, va = np.linalg.eigh((ma + ma.conj().T) / 2.0)
            a = va[:, 0]
            if abs(wa[0] - value) < 1e-14:
                value = wa[0]
                break
            value = wa[0]
        best = min(best, value)
    return float(best)
