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

from dataclasses import dataclass

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


def choi_floors(stack, d, cp=True, cocp=True):
    """Choi matrices of a stack ``(N, d^2, d^2)`` of map matrices and their floors.

    Returns ``(choi, min_c, min_pt)``: the Choi stack (one permutation) and
    the ``(N,)`` smallest eigenvalues of each Choi matrix (if ``cp``) and of
    its partial transpose (if ``cocp``; else None), one batched solve each,
    bitwise those of each map alone.  A partial transpose deviates from
    Hermiticity exactly as its Choi matrix does, so a stack raises the
    NotHermitianError of its first non-Hermitian map.
    """
    choi = superop._choi_shuffle(np.asarray(stack, dtype=complex), d)
    min_c = matcore.min_herm_eig(choi) if cp else None
    min_pt = (matcore.min_herm_eig(matcore.partial_transpose_second(choi, d, d))
              if cocp else None)
    return choi, min_c, min_pt


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
    # each Choi matrix minus I (x) omega, with the products of matcore.kron
    target = np.eye(d, dtype=complex)[:, None, :, None] * omega[:, None, :, None, :]
    diff = choi[ball] - target.reshape(-1, d * d, d * d)
    found = {k: (float(np.linalg.norm(x, "fro")), float(lam_k) / 2.0)
             for k, x, lam_k in zip(ball, diff, lam)}
    certs = [None] * len(choi)
    for k in np.flatnonzero(which):
        distance, radius = found.get(k, (None, None))
        certified = bool(strict[k]) or (distance is not None and distance <= radius)
        certs[k] = InteriorCertificate(
            certified=certified,
            path=("strict_ppt_qubit" if strict[k] else
                  "state_projector_ball" if certified else None),
            boundary=bool(not certified and -tol <= floor[k] <= tol),
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
