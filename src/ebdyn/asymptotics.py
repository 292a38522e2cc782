"""Long-time behaviour: cone arrival times, limits and structural predictors.

Arrival into a cone X is the first time after which the trajectory stays in
X.  It is located by scanning a witness (the relevant smallest eigenvalue)
over a grid, bisecting the last sign change, and then certifying retention.
Certificates are ranked: an analytic single-crossing argument from the
family's closed form beats the one-instant theorem for CP-divisible
families, which beats an interior asymptotic map plus the clean grid tail;
a bare grid tail is reported as the weakest certificate rather than silently
trusted.

The spectral predictor for eventual entanglement breaking checks the kernel
of the generator: a one-dimensional kernel spanned by a positive state,
together with all other spectral trajectories decaying to zero, forces the
evolution into the interior of the EB cone in finite time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
import scipy.integrate

from . import classify, evolve, matcore, superop, tolerances
from .errors import (
    InvalidIntervalError,
    NoLimitError,
    NonConservativeMapError,
    NoRetentionCertificateError,
    NotAProbabilityVectorError,
    NotReachedError,
)

__all__ = [
    "CONES",
    "Search",
    "default_search",
    "cone_witnesses",
    "cone_witness",
    "witness_pair",
    "ArrivalResult",
    "arrival_time",
    "PeriodicMap",
    "asymptotic_map",
    "AsymptoticVerdict",
    "predict_eventually_eb",
    "PptCompositionResult",
    "ppt_composition_experiment",
    "interval_cover_threshold",
    "max_min_pairwise_product",
    "pairwise_product_bound",
]

CONES = ("P", "CP", "coCP", "PPT", "EB")
# the witness each cone is scanned with: EB has the PPT witness (exact for
# d = 2, a lower bound beyond), so a scan for EB is the scan for PPT
_WITNESS_KIND = {"P": "P", "CP": "CP", "coCP": "coCP", "PPT": "PPT", "EB": "PPT"}


# ---------------------------------------------------------------------------
# witnesses


def witness_pair(phi: superop.Superoperator):
    """Smallest eigenvalues of the Choi matrix and its partial transpose."""
    _, min_c, min_pt = classify.choi_floors(phi.matrix[None], phi.d)
    return float(min_c[0]), float(min_pt[0])


def cone_witnesses(stack, d, cone) -> np.ndarray:
    """Membership witnesses of a stack ``(N, d^2, d^2)`` of map matrices.

    Entry k is the witness of the map with matrix ``stack[k]``; nonnegative
    means inside.  The Choi permutation, the partial transpose and the
    eigensolves run once over the whole stack (:func:`classify.choi_floors`),
    one eigensolve for CP and coCP, two for PPT and EB.  EB has the PPT
    witness (``_WITNESS_KIND``): exact for d = 2, for d > 2 a necessary
    condition only (callers flag the result as a lower bound).  The P
    witness is a see-saw search over product vectors, run map by map: sound
    for refutation, heuristic for membership.
    """
    if cone == "P":
        return np.array([
            classify.positivity_witness(superop.Superoperator(m, d), restarts=4, iters=50)
            for m in stack
        ])
    kind = _WITNESS_KIND.get(cone)
    if kind is None:
        raise ValueError(f"unknown cone {cone!r}")
    _, min_c, min_pt = classify.choi_floors(stack, d, cp=kind != "coCP", cocp=kind != "CP")
    if kind == "CP":
        return min_c
    if kind == "coCP":
        return min_pt
    return np.where(min_pt < min_c, min_pt, min_c)  # min(min_c, min_pt) per map


def cone_witness(phi: superop.Superoperator, cone: str) -> float:
    """Membership witness of one map: :func:`cone_witnesses` of a stack of one."""
    return float(cone_witnesses(phi.matrix[None], phi.d, cone)[0])


# ---------------------------------------------------------------------------
# search configuration


@dataclass(frozen=True)
class Search:
    """Grid-and-bisection parameters for arrival scans."""

    t_max: float
    grid_n: int = 2000
    bisect_tol: float | None = None

    def resolved_bisect_tol(self) -> float:
        if self.bisect_tol is not None:
            return self.bisect_tol
        return 1e-10 * self.t_max


def _reference_generators(family):
    """Nonvanishing generator matrices at t = 0, then t = 1, with their scale."""
    for t_ref in (0.0, 1.0):
        m = family.generator_matrix(t_ref)
        scale = float(np.abs(m).max())
        if scale >= 1e-12:
            yield m, scale


def _spectral_gap(handle_or_family) -> float | None:
    # a constant generator that a handle evolves through its exponential is
    # diagonalized there, once; falls through to t = 1 when the generator at
    # t = 0 has no decaying mode
    handle = handle_or_family if isinstance(handle_or_family, evolve.EvolutionHandle) else None
    family = handle_or_family if handle is None else handle.family
    for m, scale in _reference_generators(family):
        w = None
        if handle is not None and family.constant and handle.solver == "commuting_exp":
            w = handle._generator_exponential().eigenvalues
        re = np.abs((np.linalg.eigvals(m) if w is None else w).real)
        nonzero = re[re > 1e-9 * scale]
        if nonzero.size:
            return float(nonzero.min())
    return None


def default_search(handle_or_family, t_max=None, grid_n=2000, bisect_tol=None) -> Search:
    """Search horizon from the generator's slowest decaying mode.

    t_max = 20 / min |Re mu| over the nonzero-real-part spectrum of the
    generator, falling back to 20 when the generator gives no scale.  Accepts
    a family or an :class:`~ebdyn.evolve.EvolutionHandle`.  A handle that
    evolves a constant generator through its exponential gives the
    eigenvalues of that diagonalization, which the evolution then reuses;
    otherwise the spectrum comes from ``np.linalg.eigvals``.
    """
    if t_max is None:
        gap = _spectral_gap(handle_or_family)
        t_max = 20.0 / gap if gap else 20.0
    return Search(t_max=float(t_max), grid_n=int(grid_n), bisect_tol=bisect_tol)


# ---------------------------------------------------------------------------
# asymptotic maps


@dataclass(frozen=True, eq=False)
class PeriodicMap:
    """A time-periodic asymptotic attractor, sampled by phase.

    Its phases are unitary conjugates of one another (the condition on
    ``ClosedFormSolution.limit_cycle``), so they share every cone witness.
    """

    period: float
    at: Callable[[float], superop.Superoperator] = field(repr=False)

    def sample(self, n=32):
        return [self.at(self.period * k / n) for k in range(n)]


def _one_phase(limit):
    """The asymptotic map itself, or phase 0 of a limit cycle.

    Every phase of a :class:`PeriodicMap` has the witnesses and the interior
    certificate of phase 0, so one phase stands for the whole cycle.
    """
    return limit.at(0.0) if isinstance(limit, PeriodicMap) else limit


def asymptotic_map(family, handle=None, horizon=None):
    """Limit of Lambda_t as t -> infinity.

    Returns a :class:`~ebdyn.superop.Superoperator`, or a
    :class:`PeriodicMap` for families that settle into a limit cycle.

    Raises
    ------
    NoLimitError
        When some spectral trajectory diverges or keeps oscillating.
    """
    cf = family.closed_form
    if cf is not None:
        if cf.limit_cycle is not None:
            return PeriodicMap(period=cf.period, at=cf.limit_cycle)
        if cf.diverges:
            raise NoLimitError(f"{family.kind}: spectral trajectories diverge")
        if cf.components is not None:
            coeffs = cf.asymptotic_coefficients
            if coeffs is None:
                coeffs = _coefficient_limits(cf, family, horizon)
            return superop.spectral_sum(coeffs, cf.components, family.d)
    return _numeric_limit(family, handle, horizon)


def _two_horizon_limits(a, b, zero_tol, slack, settle_tol, what):
    """Limits of scalar trajectories from their values a at t1 and b at 2 t1.

    A trajectory that is below ``zero_tol`` at 2 t1 and has not grown by more
    than ``slack`` decays to 0; one that moved by at most ``settle_tol`` has
    settled at b; any other has no limit (:class:`NoLimitError`, whose
    message names the trajectory as ``what``).
    """
    limits = np.empty_like(b)
    for k in range(b.size):
        if abs(b[k]) < zero_tol and abs(b[k]) <= abs(a[k]) + slack:
            limits[k] = 0.0
        elif abs(b[k] - a[k]) <= settle_tol:
            limits[k] = b[k]
        else:
            raise NoLimitError(
                f"{what} {k} has no limit ({a[k]:.3e} -> {b[k]:.3e})"
            )
    return limits


def _coefficient_limits(cf, family, horizon):
    t1 = horizon if horizon is not None else default_search(family).t_max
    a, b = cf.coefficients([t1, 2.0 * t1])
    return _two_horizon_limits(a, b, 1e-9, 1e-12, 1e-7, f"{family.kind}: trajectory")


def _numeric_limit(family, handle, horizon):
    if handle is None:
        handle = evolve.EvolutionHandle(family)
    t1 = horizon if horizon is not None else default_search(handle).t_max
    spec1 = superop.map_spectrum(handle.solve(t1))
    spec2 = superop.map_spectrum(handle.solve(2.0 * t1))
    limits = _two_horizon_limits(
        spec1.eigenvalues, spec2.eigenvalues, 1e-8, 1e-10, 1e-6,
        f"{family.kind}: eigenvalue trajectory",
    )
    s = np.zeros((family.d ** 2, family.d ** 2), dtype=complex)
    for lam, x, y in zip(limits, spec2.right, spec2.left):
        if lam != 0.0:
            s += lam * np.outer(matcore.vec(x), matcore.vec(y).conj())
    return superop.Superoperator(s, family.d)


# ---------------------------------------------------------------------------
# arrival times


@dataclass(frozen=True, eq=False)
class ArrivalResult:
    """Arrival of a trajectory into a cone, with its retention certificate.

    ``tau`` is the arrival time; ``None`` means a crossing was found but
    could not be certified, so the arrival is reported undefined (the
    bracket is still populated).  ``eb_lower_bound`` marks EB results for
    d > 2, where the PPT witness only bounds the true EB arrival from below.
    """

    cone: str
    tau: float | None
    bracket: tuple | None
    tolerance: float
    retention_certificate: str
    eb_lower_bound: bool
    grid_times: np.ndarray = field(repr=False)
    grid_witness: np.ndarray = field(repr=False)


def _pointwise(handle):
    """Whether the handle computes each time of a grid on its own (closed forms,
    constant generators), not by one integration from 0 (``ode``, time-dependent
    ``commuting_exp``): then every part of a grid is bitwise those points of
    the whole grid, and a stack costs about one point."""
    return handle.solver == "closed_form" or (
        handle.solver == "commuting_exp" and handle.family.constant)


def _round_levels(handle, cone):
    """Halvings per bisection round: one (the serial bisection) where each
    point costs its own integration or see-saw search (P), three where a
    stack costs about one point."""
    return 3 if cone != "P" and _pointwise(handle) else 1


def _bisect_crossing(witnesses, lo, hi, target, tol_t, levels):
    """Halve [lo, hi] to ``tol_t``; ``witnesses`` maps a list of times to witnesses.

    A round evaluates in one call the midpoints that the next ``levels``
    halvings can reach (breadth first, skipping brackets within ``tol_t``) and
    walks down the tree: the same floats as one halving per call, so the same
    result bitwise.
    """
    while hi - lo > tol_t:
        brackets, points = [(lo, hi)], []
        for _ in range(levels):
            reached = []
            for a, b in brackets:
                if b - a > tol_t:
                    mid = 0.5 * (a + b)
                    points.append(mid)
                    reached += [(a, mid), (mid, b)]
            brackets = reached
        ws = dict(zip(points, witnesses(points)))
        for _ in range(levels):
            if hi - lo <= tol_t:
                break
            mid = 0.5 * (lo + hi)
            if ws[mid] < target:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


def _scan_for_arrival(ts, witnesses, tol, bisect_tol, cone, levels, head=None):
    """``(tau, bracket, ws)``: grid witnesses, then the last crossing bisected,
    with one stacked witness function for the grid and the rounds.

    With ``head``, the first ``head`` grid points are evaluated alone, and the
    scan keeps to them when one of their witnesses is > ``tol``; that is sound
    only where no later point can be outside (a CP-divisible family), and then
    ``tau`` and ``bracket`` are those of the whole grid, and ``ws`` its prefix.
    """
    if head is not None and len(ts) > head:
        ws = witnesses(ts[:head].tolist())
        if (ws > tol).any():
            ts = ts[:head]
        else:
            ws = np.concatenate([ws, witnesses(ts[head:].tolist())])
    else:
        ws = witnesses(ts.tolist())
    neg = ws < -tol
    if neg[-1]:
        raise NotReachedError(ts[-1], ws[-1], cone=cone)
    if not neg.any():
        return 0.0, None, ws
    i = int(np.nonzero(neg)[0].max())
    lo, hi = float(ts[i]), float(ts[i + 1])
    target = 0.0 if ws[i + 1] > 0.0 else -tol
    tau = _bisect_crossing(witnesses, lo, hi, target, bisect_tol, levels)
    return tau, (lo, hi), ws


def _retention_certificate(family, handle, cone, search, tol):
    cf = family.closed_form
    if cf is not None and cf.witness_single_crossing:
        return "analytic_monotone"
    if family.cp_divisible:
        # composing with the CP propagators keeps every cone in the
        # hierarchy, so one instant inside stays inside
        return "cp_divisible_one_instant"
    try:
        limit = asymptotic_map(family, handle=handle, horizon=search.t_max)
    except NoLimitError:
        return "sampled_grid"
    w_inf = cone_witness(_one_phase(limit), cone)
    if w_inf > tolerances.REFUTE_FACTOR * tol:
        return "asymptotic_interior"
    if w_inf < -tolerances.REFUTE_FACTOR * tol:
        raise NoRetentionCertificateError(
            f"{cone}: asymptotic witness {w_inf:.3e} is negative; "
            "any crossing is transient"
        )
    return "sampled_grid"


def arrival_time(handle_or_family, cone, search=None, tol=None) -> ArrivalResult:
    """Arrival time of t -> Lambda_t into a cone, with certified retention.

    Scans the witness over ``search.grid_n`` points up to ``search.t_max``,
    bisects the last crossing and certifies the tail.  Raises
    :class:`NotReachedError` when the witness is still negative at the
    horizon.  A crossing whose asymptotic witness is provably negative is
    transient: ``tau`` is None and the certificate ``"none"``.

    A handle answers once per witness kind, search and tolerance: EB reads
    the PPT result, with its own ``cone`` and ``eb_lower_bound``.  Its grid
    arrays are read-only, as they are shared.
    """
    handle = evolve._as_handle(handle_or_family)
    if cone not in CONES:
        raise ValueError(f"unknown cone {cone!r}")
    if tol is None:
        tol = tolerances.PSD_TOL
    if search is None:
        search = default_search(handle)
    result = handle._scan_result(
        ("arrival", _WITNESS_KIND[cone], None, search, tol),
        lambda: _arrival(handle, cone, search, tol),
    )
    if result.cone != cone:
        result = replace(
            result, cone=cone, eb_lower_bound=cone == "EB" and handle.family.d > 2)
    return result


def _arrival(handle, cone, search, tol):
    family = handle.family
    ts = np.linspace(0.0, search.t_max, search.grid_n)

    def witnesses(times):
        return cone_witnesses(handle._solve_grid(times), family.d, cone)

    tau, bracket, ws = _scan_for_arrival(
        ts, witnesses, tol, search.resolved_bisect_tol(), cone,
        _round_levels(handle, cone),
    )
    try:
        certificate = _retention_certificate(family, handle, cone, search, tol)
    except NoRetentionCertificateError:
        # transient crossing: the tail is provably outside, so no arrival
        certificate = "none"
    if certificate == "none":
        tau = None
    ts.flags.writeable = ws.flags.writeable = False
    return ArrivalResult(
        cone=cone,
        tau=tau,
        bracket=bracket,
        tolerance=search.resolved_bisect_tol(),
        retention_certificate=certificate,
        eb_lower_bound=(cone == "EB" and family.d > 2),
        grid_times=ts,
        grid_witness=ws,
    )


# ---------------------------------------------------------------------------
# eventual entanglement breaking predictor


@dataclass(frozen=True, eq=False)
class AsymptoticVerdict:
    """Outcome of the structural long-time analysis."""

    classification: str
    predictor_basis: str
    omega: np.ndarray | None = None
    kernel_dim: int | None = None
    divergence: bool | None = None
    numeric_evidence: dict = field(default_factory=dict)


def _kernel_analysis(family):
    for m, scale in _reference_generators(family):
        w, v = np.linalg.eig(m)
        idx = np.where(np.abs(w) <= 1e-9 * max(1.0, scale))[0]
        return w, v, idx, scale
    return None


def _common_kernel_state(family, v, idx):
    omega = matcore.unit_trace_hermitian(v[:, idx[0]], family.d, 1e-8)
    if omega is None:
        return None
    if not family.constant:
        vec_w = matcore.vec(omega)
        for t in (0.5, 1.7, 3.3):
            m = family.generator_matrix(t)
            if np.abs(m @ vec_w).max() > 1e-8 * max(1.0, float(np.abs(m).max())):
                return None
    return omega


def _commuting_divergence(family, w, v, idx, horizon):
    """Quadrature of the spectral exponents for a commuting family."""
    left = np.linalg.inv(v).conj().T
    samples = (0.4 * horizon, 0.9 * horizon)
    nonzero = [k for k in range(len(w)) if k not in set(idx)]
    for k in nonzero:
        x = v[:, k]
        y = left[:, k]
        # the common-eigenbasis assumption must actually hold
        for t in samples:
            m = family.generator_matrix(t)
            mu = np.vdot(y, m @ x)
            residual = np.linalg.norm(m @ x - mu * x)
            if residual > 1e-7 * max(1.0, float(np.abs(m).max())):
                return None

        def re_mu(t, x=x, y=y):
            return np.vdot(y, family.generator_matrix(t) @ x).real

        r_half, _ = scipy.integrate.quad(re_mu, 0.0, horizon / 2.0, limit=200)
        r_full, _ = scipy.integrate.quad(re_mu, horizon / 2.0, horizon, limit=200)
        total = r_half + r_full
        if total > -20.0 or total > r_half - 0.5:
            return False
    return True


def predict_eventually_eb(family, handle=None, horizon=None) -> AsymptoticVerdict:
    """Structural verdict on the long-time EB behaviour of a family.

    The spectral path fires when the generator kernel is one-dimensional,
    spanned by a state omega, and every other spectral trajectory decays to
    zero: omega > 0 gives ``eventually_EB``, omega on the state-space
    boundary gives ``asymptotically_EB``.  When the spectral path does not
    apply, evidence from the asymptotic map is used: an interior limit still
    certifies ``eventually_EB``; a boundary limit approached from outside
    gives ``asymptotically_PPT`` (upgraded to ``asymptotically_EB`` for
    d = 2); a limit with a strictly negative witness refutes.
    """
    if horizon is None:
        horizon = default_search(family if handle is None else handle).t_max
    evidence = {}
    kernel = _kernel_analysis(family)
    kernel_dim = None
    if kernel is not None:
        w, v, idx, scale = kernel
        kernel_dim = int(len(idx))
        if kernel_dim == 1:
            omega = _common_kernel_state(family, v, idx)
            if omega is not None:
                if family.constant:
                    nonzero_re = np.delete(w.real, idx)
                    divergent = bool(np.all(nonzero_re < -1e-9 * max(1.0, scale)))
                    basis = "spectral_semigroup"
                elif family.commutative:
                    divergent = _commuting_divergence(family, w, v, idx, horizon)
                    basis = "spectral_commuting"
                else:
                    divergent = None
                    basis = "none"
                if divergent:
                    min_w = float(np.linalg.eigvalsh(omega)[0])
                    evidence["omega_min_eig"] = min_w
                    if min_w > tolerances.PSD_TOL:
                        return AsymptoticVerdict(
                            "eventually_EB", basis, omega=omega,
                            kernel_dim=1, divergence=True,
                            numeric_evidence=evidence,
                        )
                    if min_w >= -tolerances.PSD_TOL:
                        return AsymptoticVerdict(
                            "asymptotically_EB", basis, omega=omega,
                            kernel_dim=1, divergence=True,
                            numeric_evidence=evidence,
                        )
    return _evidence_verdict(family, handle, horizon, kernel_dim, evidence)


def _evidence_verdict(family, handle, horizon, kernel_dim, evidence):
    if handle is None:
        handle = evolve.EvolutionHandle(family)
    tol = tolerances.PSD_TOL
    try:
        limit = asymptotic_map(family, handle=handle, horizon=horizon)
    except NoLimitError as exc:
        evidence["no_limit"] = str(exc)
        cf = family.closed_form
        if cf is not None and cf.diverges:
            # trace preservation pins the Choi trace, so CP maps live in a
            # bounded set; an unbounded trajectory leaves it for good
            return AsymptoticVerdict(
                "not_asymptotically_EB", "diverging_trajectory",
                kernel_dim=kernel_dim, numeric_evidence=evidence,
            )
        return AsymptoticVerdict(
            "undetermined", "none", kernel_dim=kernel_dim,
            numeric_evidence=evidence,
        )
    periodic = isinstance(limit, PeriodicMap)
    basis = "limit_cycle" if periodic else "asymptotic"
    phase = _one_phase(limit)
    floors = classify.choi_floors(phase.matrix[None], phase.d)
    w_inf = min(float(floors[1][0]), float(floors[2][0]))
    evidence[f"{basis}_witness"] = w_inf
    if classify.interior_certificates(*floors, phase.d)[0].certified:
        return AsymptoticVerdict(
            "eventually_EB", f"{basis}_interior",
            kernel_dim=kernel_dim, numeric_evidence=evidence,
        )
    if w_inf < -tolerances.REFUTE_FACTOR * tol:
        return AsymptoticVerdict(
            "not_asymptotically_EB", f"{basis}_witness",
            kernel_dim=kernel_dim, numeric_evidence=evidence,
        )
    if periodic:
        return AsymptoticVerdict(
            "undetermined", "none", kernel_dim=kernel_dim,
            numeric_evidence=evidence,
        )
    # boundary limit: look at which side the trajectory approaches from
    w_t = min(witness_pair(handle.solve(horizon)))
    evidence["witness_at_horizon"] = w_t
    if family.d == 2:
        label = "asymptotically_EB"
    else:
        label = "asymptotically_PPT"
    return AsymptoticVerdict(
        label, "asymptotic_witness", kernel_dim=kernel_dim,
        numeric_evidence=evidence,
    )


# ---------------------------------------------------------------------------
# iterated composition


@dataclass(frozen=True, eq=False)
class PptCompositionResult:
    """Witness trajectory of phi, phi^2, ..., phi^n."""

    ks: tuple
    witness_choi: tuple
    witness_pt: tuple
    eb_statuses: tuple
    first_ppt: int | None
    first_eb: int | None


def ppt_composition_experiment(phi: superop.Superoperator, n_max) -> PptCompositionResult:
    """Classify the iterated compositions of a single map.

    The map must be trace preserving or unital, so that the iterates stay
    bounded and the witnesses are meaningful.
    """
    if not (superop.is_trace_preserving(phi) or superop.is_unital(phi)):
        raise NonConservativeMapError("map must be trace preserving or unital")
    # phi, phi^2 = phi o phi, ... as one stack, each power the previous one
    # composed with phi
    powers = np.empty((max(int(n_max), 0),) + phi.matrix.shape, dtype=complex)
    for k in range(len(powers)):
        powers[k] = powers[k - 1] @ phi.matrix if k else phi.matrix
    reports = classify.classify_stack(powers, phi.d)
    ks = tuple(range(1, len(reports) + 1))
    return PptCompositionResult(
        ks=ks,
        witness_choi=tuple(r.min_eig_choi for r in reports),
        witness_pt=tuple(r.min_eig_choi_pt for r in reports),
        eb_statuses=tuple(r.eb_status for r in reports),
        first_ppt=next((k for k, r in zip(ks, reports) if r.is_ppt), None),
        first_eb=next((k for k, r in zip(ks, reports)
                       if r.eb_status == classify.EB_CERTIFIED), None),
    )


# ---------------------------------------------------------------------------
# scalar utilities


def interval_cover_threshold(a, b) -> float:
    """Smallest x0 with [x0, infinity) covered by the dilates [na, nb].

    Requires 0 < a < b; the threshold is ceil(a / (b - a)) * a.
    """
    a = float(a)
    b = float(b)
    if not (0.0 < a < b) or not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidIntervalError(f"need 0 < a < b, got ({a:g}, {b:g})")
    k = math.ceil(a / (b - a) - 1e-12)
    return max(k, 1) * a


def max_min_pairwise_product(p) -> float:
    """min_{i<j} p_i p_j for a probability vector; maximized by uniform.

    The value never exceeds 1/n^2 (see :func:`pairwise_product_bound`), with
    equality only at the uniform distribution.
    """
    v = np.asarray(p, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise NotAProbabilityVectorError("need a 1-d vector with at least 2 entries")
    if not np.all(np.isfinite(v)) or v.min() < -1e-12:
        raise NotAProbabilityVectorError("entries must be nonnegative")
    if abs(v.sum() - 1.0) > 1e-9:
        raise NotAProbabilityVectorError(f"entries sum to {v.sum():.12g}, expected 1")
    s = np.sort(np.clip(v, 0.0, None))
    return float(s[0] * s[1])


def pairwise_product_bound(n) -> float:
    """Upper bound 1/n^2 for :func:`max_min_pairwise_product` on n entries."""
    n = int(n)
    if n < 2:
        raise NotAProbabilityVectorError("need n >= 2")
    return 1.0 / (n * n)
