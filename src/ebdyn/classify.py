"""Cone membership of a single map: CP, coCP, PPT and entanglement breaking.

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
    "eb_certify_interior",
    "interior_certificate",
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


def choi_floors(phi: superop.Superoperator):
    """Choi matrix and its two eigenvalue floors, built and solved once.

    Returns ``(choi, min_eig_choi, min_eig_choi_pt)``: the Choi matrix of
    ``phi`` and the smallest eigenvalues of it and of its partial transpose.
    """
    choi = superop.to_choi(phi)
    return (
        choi,
        matcore.min_herm_eig(choi.matrix),
        matcore.min_herm_eig(choi.partial_transpose().matrix),
    )


def classify_map(phi: superop.Superoperator, tol=None) -> ClassificationReport:
    """Classify a map against the CP / coCP / PPT / EB cones.

    The map must be Hermiticity preserving (Hermitian Choi matrix);
    otherwise the eigensolver's error propagates.
    """
    if tol is None:
        tol = tolerances.PSD_TOL
    choi, min_c, min_pt = choi_floors(phi)
    is_cp = min_c >= -tol
    is_cocp = min_pt >= -tol
    is_ppt = is_cp and is_cocp
    if phi.d == 2:
        eb_status = EB_CERTIFIED if is_ppt else EB_REFUTED
    elif not is_ppt:
        eb_status = EB_REFUTED
    else:
        cert = _interior_from_floors(choi, min_c, min_pt, tol=tol)
        eb_status = EB_CERTIFIED if cert.certified else EB_UNKNOWN
    return ClassificationReport(
        d=phi.d,
        is_cp=is_cp,
        is_cocp=is_cocp,
        is_ppt=is_ppt,
        eb_status=eb_status,
        min_eig_choi=min_c,
        min_eig_choi_pt=min_pt,
        tolerance_used=float(tol),
    )


def interior_certificate(phi: superop.Superoperator, tol=None) -> InteriorCertificate:
    """Try to certify that ``phi`` lies in the interior of the EB cone."""
    return _interior_from_floors(*choi_floors(phi), tol=tol)


def _interior_from_floors(choi, min_c, min_pt, tol=None) -> InteriorCertificate:
    """:func:`interior_certificate` from the output of :func:`choi_floors`."""
    if tol is None:
        tol = tolerances.PSD_TOL
    d = choi.d
    ppt_floor = min(min_c, min_pt)

    if d == 2 and ppt_floor > tol:
        return InteriorCertificate(
            certified=True, path="strict_ppt_qubit", boundary=False,
            distance=None, radius=None,
        )

    # ball around the rank-one map X -> tr(X) omega, using the Choi marginal
    # as the candidate omega
    omega = matcore.partial_trace_first(choi.matrix, d, d) / d
    omega = (omega + omega.conj().T) / 2.0
    tr = float(np.trace(omega).real)
    certified = False
    distance = None
    radius = None
    if tr > 0.5:  # sanity: roughly trace preserving
        omega = omega / tr
        lam = matcore.min_herm_eig(omega)
        if lam > tol:
            target = matcore.kron(np.eye(d, dtype=complex), omega)
            distance = float(np.linalg.norm(choi.matrix - target, "fro"))
            radius = lam / 2.0
            certified = distance <= radius
    boundary = (not certified) and ppt_floor >= -tol and ppt_floor <= tol
    return InteriorCertificate(
        certified=certified,
        path="state_projector_ball" if certified else None,
        boundary=boundary,
        distance=distance,
        radius=radius,
    )


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
