"""Eventual divisibility: do the propagators enter a cone and stay there?

For each start time s on a grid, the scan looks for Delta(s) > s such that
V_{t,s} lies in the target cone for every t >= Delta(s).  Three structural
shortcuts avoid the generic sweep: a semigroup has V_{t,s} = Lambda_{t-s},
so Delta(s) = s + tau with tau the arrival time of Lambda itself; a family
with a local-unitary core (a Floquet product P_t o e^{tX} with unitary P_t)
has V_{t,s} = P_t o e^{(t-s)X} o P_s^-1, whose CP, coCP, PPT and EB
witnesses are those of e^{(t-s)X}, so its core is scanned once; and for a
CP-divisible family one instant inside the cone keeps all later propagators
inside, because composing with completely positive maps preserves every cone
in the hierarchy, so the sweep of such a family stops after the first chunk
of its grid with a point inside.  With the shortcuts, a handle answers each
scan once per witness kind (EB reads the PPT scan).

Refutation is by witness limits: when the propagator's asymptotic witness at
some fixed s is strictly negative, no Delta(s) exists and eventual
divisibility fails at that s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, evolve, tolerances
from .errors import NoLimitError, NotReachedError, SingularMapError

__all__ = [
    "DivisibilityReport",
    "ChainCheck",
    "default_s_grid",
    "scan_divisibility",
    "check_implication_chain",
]


@dataclass(frozen=True, eq=False)
class DivisibilityReport:
    """Per-start-time arrival of the propagators into one cone.

    ``delta[k]`` is Delta(s_grid[k]); ``math.inf`` marks start times where
    the tail witness refutes arrival, ``None`` start times left undecided by
    the horizon.
    """

    cone: str
    s_grid: tuple
    delta: tuple
    certificates: tuple
    verdict: str
    shortcut_used: str
    details: dict = field(default_factory=dict)


def default_s_grid(search, n=16):
    """Geometric grid of start times on [0, t_max / 2], anchored at 0."""
    top = search.t_max / 2.0
    return np.concatenate([[0.0], np.geomspace(top / 200.0, top, n - 1)])


_STRONG_CERTS = (
    "analytic_monotone",
    "analytic_tail",
    "cp_divisible_one_instant",
    "asymptotic_interior",
)


def scan_divisibility(
    handle_or_family, cone, s_grid=None, search=None, tol=None, use_shortcuts=True
) -> DivisibilityReport:
    """Eventual-divisibility scan for one cone over a grid of start times."""
    handle = evolve._as_handle(handle_or_family)
    family = handle.family
    if cone not in asymptotics.CONES:
        raise ValueError(f"unknown cone {cone!r}")
    if tol is None:
        tol = tolerances.PSD_TOL
    if search is None:
        search = asymptotics.default_search(handle)
    if s_grid is None:
        s_grid = default_s_grid(search)
    s_grid = tuple(float(s) for s in s_grid)

    if use_shortcuts and family.constant:
        return _semigroup_scan(handle, cone, s_grid, search, tol)

    if use_shortcuts and cone != "P" and "core" in family.params:
        deltas, certs, details = _core_scan(handle, cone, s_grid, search, tol)
    else:
        arrivals = [_arrival_at_start(handle, cone, s, search, tol, use_shortcuts)
                    for s in s_grid]
        deltas = [delta for delta, _ in arrivals]
        certs = [cert for _, cert in arrivals]
        details = {}
    if math.inf in deltas:
        verdict = "refuted"
    elif all(
        d is not None and math.isfinite(d) and c in _STRONG_CERTS
        for d, c in zip(deltas, certs)
    ):
        verdict = "certified"
    else:
        verdict = "undetermined"
    shortcut = (
        "cp_divisible_one_instant"
        if use_shortcuts and family.cp_divisible and verdict == "certified"
        else "none"
    )
    return DivisibilityReport(
        cone=cone,
        s_grid=s_grid,
        delta=tuple(deltas),
        certificates=tuple(certs),
        verdict=verdict,
        shortcut_used=shortcut,
        details=details,
    )


def _core_scan(handle, cone, s_grid, search, tol):
    """Deltas and certificates of a family P_t o e^{tX} from its core e^{tX}.

    P_t is a unitary conjugation, so V_{t,s} and e^{(t-s)X} differ by local
    unitaries and share every CP, coCP, PPT and EB witness: one grid and
    bisection of the core at start time 0 give Delta(s) = s + Delta_core.
    The tail V_{inf,s} is a limit-cycle phase composed with the trace
    preserving Lambda_s^-1, which leaves that rank-one phase unchanged, and
    the phases are unitary conjugates of one another, so phase 0 gives the
    tail witness for every s.  The certificates follow the generic rules of
    :func:`_arrival_at_start`.  None of this depends on s: the handle
    answers once per witness kind.
    """
    core_delta, cert, tail = handle._scan_result(
        ("core", asymptotics._WITNESS_KIND[cone], None, search, tol),
        lambda: _core_arrival(handle, cone, search, tol),
    )
    details = {
        "reduction": "local_unitary_core",
        "core_delta": core_delta,
        "core_certificate": cert,
        "tail_witness": tail,
    }
    deltas = [None if core_delta is None else s + core_delta for s in s_grid]
    return deltas, [cert for _ in s_grid], details


def _core_arrival(handle, cone, search, tol):
    """``(Delta_core, certificate, tail witness)`` of :func:`_core_scan`."""
    family = handle.family
    cycle = family.closed_form.limit_cycle
    tail = None if cycle is None else asymptotics.cone_witness(cycle(0.0), cone)
    if tail is not None and tail < -tolerances.REFUTE_FACTOR * tol:
        return math.inf, "refuted_tail", tail
    core = evolve.EvolutionHandle(family.params["core"])
    try:
        core_delta = _grid_delta(core, cone, 0.0, search, tol, chunked=True)
    except NotReachedError:
        return None, "not_reached", tail
    return core_delta, _certificate(family, tail, "asymptotic_interior", tol), tail


def _semigroup_scan(handle, cone, s_grid, search, tol):
    family = handle.family
    details = {}
    try:
        base = asymptotics.arrival_time(handle, cone, search=search, tol=tol)
    except NotReachedError as exc:
        details["arrival"] = "not_reached"
        verdict = "undetermined"
        try:
            limit = asymptotics.asymptotic_map(family, handle=handle,
                                               horizon=search.t_max)
            w_inf = asymptotics.cone_witness(limit, cone)
            details["asymptotic_witness"] = w_inf
            if w_inf < -tolerances.REFUTE_FACTOR * tol:
                verdict = "refuted"
        except NoLimitError:
            pass
        never = math.inf if verdict == "refuted" else None
        return DivisibilityReport(
            cone=cone,
            s_grid=s_grid,
            delta=tuple(never for _ in s_grid),
            certificates=tuple("none" for _ in s_grid),
            verdict=verdict,
            shortcut_used="semigroup",
            details={**details, "horizon_witness": exc.witness},
        )
    tau = base.tau
    details["lambda_tau"] = tau
    details["lambda_certificate"] = base.retention_certificate
    if tau is None:
        verdict = "undetermined"
        deltas = tuple(None for _ in s_grid)
    else:
        verdict = (
            "certified" if base.retention_certificate in _STRONG_CERTS
            else "undetermined"
        )
        deltas = tuple(s + tau for s in s_grid)
    return DivisibilityReport(
        cone=cone,
        s_grid=s_grid,
        delta=deltas,
        certificates=tuple(base.retention_certificate for _ in s_grid),
        verdict=verdict,
        shortcut_used="semigroup",
        details=details,
    )


def _propagator_tail(handle, cone, s, search, tol):
    """Witness limit of t -> V_{t,s}, or None when unavailable."""
    family = handle.family
    cf = family.closed_form
    # the closed-form tail is an eigenvalue witness: meaningless for P
    if cone != "P" and cf is not None and cf.propagator_tail_witness is not None:
        return float(cf.propagator_tail_witness(s)), "analytic_tail"
    try:
        limit = asymptotics.asymptotic_map(family, handle=handle, horizon=search.t_max)
    except NoLimitError:
        return None, None
    try:
        lam_s_inv = np.linalg.inv(handle.solve(s).matrix)
    except np.linalg.LinAlgError:
        return None, None
    # V_{inf,s} = Lambda_inf o Lambda_s^-1 (one phase of a limit cycle)
    tail = asymptotics._one_phase(limit).matrix @ lam_s_inv
    w = asymptotics.cone_witnesses(tail[None], family.d, cone)[0]
    return float(w), "asymptotic_interior"


# grid points evaluated before the rest of a chunked sweep
_CHUNK = 8


def _grid_delta(handle, cone, s, search, tol, chunked=False):
    """Delta(s) from the propagator grid and the bisection of its last crossing.

    Raises :class:`NotReachedError` when the grid ends outside the cone and
    :class:`SingularMapError` when Lambda_s cannot be inverted.

    ``chunked`` evaluates the first ``_CHUNK`` points of the grid alone and
    stops there when one of them is inside by more than ``tol``, where the
    family is CP-divisible and the handle computes each point on its own
    (not for P, whose see-saw witness only suggests membership): every later
    V_{t,s} = V_{t,t1} o V_{t1,s} composes a CP map with a map inside the
    cone, so it is inside too and no later point can be the last one outside
    (``tol`` covers the rounding).  Delta is then bitwise that of the whole
    grid; only an error that a later point would raise is not raised.
    """
    ts = np.linspace(s, s + search.t_max, search.grid_n)

    def witnesses(times):
        return asymptotics.cone_witnesses(handle._propagator_grid(times, s), handle.family.d, cone)

    head = _CHUNK if (chunked and cone != "P" and handle.family.cp_divisible
                      and asymptotics._pointwise(handle)) else None
    delta, _bracket, _ws = asymptotics._scan_for_arrival(
        ts, witnesses, tol, search.resolved_bisect_tol(), cone,
        asymptotics._round_levels(handle, cone), head,
    )
    return max(float(delta), s)  # the scan reports 0.0 when never negative


def _certificate(family, tail, tail_kind, tol):
    """Retention certificate of an arrival found on the grid."""
    if family.cp_divisible:
        return "cp_divisible_one_instant"
    if tail is not None and tail > tolerances.REFUTE_FACTOR * tol:
        return tail_kind
    return "sampled_grid"


def _arrival_at_start(handle, cone, s, search, tol, use_shortcuts=False):
    """Delta(s) and its certificate for one start time; with the shortcuts, the
    grid is chunked and the handle answers once per witness kind."""
    if not use_shortcuts:
        return _start_arrival(handle, cone, s, search, tol, chunked=False)
    return handle._scan_result(
        ("start", asymptotics._WITNESS_KIND[cone], s, search, tol),
        lambda: _start_arrival(handle, cone, s, search, tol, chunked=True),
    )


def _start_arrival(handle, cone, s, search, tol, chunked):
    tail, tail_kind = _propagator_tail(handle, cone, s, search, tol)
    if tail is not None and tail < -tolerances.REFUTE_FACTOR * tol:
        return math.inf, "refuted_tail"
    try:
        delta = _grid_delta(handle, cone, s, search, tol, chunked)
    except SingularMapError:
        return None, "singular"
    except NotReachedError:
        return None, "not_reached"
    return delta, _certificate(handle.family, tail, tail_kind, tol)


@dataclass(frozen=True)
class ChainCheck:
    """Consistency of reports across the cone hierarchy."""

    consistent: bool
    messages: tuple


def check_implication_chain(reports, slack=None) -> ChainCheck:
    """Verify EB => PPT => CP => P across a set of divisibility reports.

    ``reports``: mapping from cone name to :class:`DivisibilityReport`.
    A stronger cone being certified while a weaker one is refuted is a
    violation, as is a weaker cone arriving later than a stronger one at the
    same start time (beyond numerical slack).
    """
    order = ["EB", "PPT", "CP", "P"]
    present = [c for c in order if c in reports]
    messages = []
    for i in range(len(present)):
        for j in range(i + 1, len(present)):
            strong = reports[present[i]]
            weak = reports[present[j]]
            if strong.verdict == "certified" and weak.verdict == "refuted":
                messages.append(
                    f"{present[i]}-divisibility certified but "
                    f"{present[j]}-divisibility refuted"
                )
            if strong.s_grid == weak.s_grid:
                pair_slack = slack
                if pair_slack is None:
                    pair_slack = 1e-3 if "P" in (present[i], present[j]) else 1e-6
                for s, ds, dw in zip(strong.s_grid, strong.delta, weak.delta):
                    if (
                        ds is not None and dw is not None
                        and math.isfinite(ds) and math.isfinite(dw)
                        and dw > ds + pair_slack
                    ):
                        messages.append(
                            f"at s={s:g}: {present[j]} arrival {dw:.6g} later than "
                            f"{present[i]} arrival {ds:.6g}"
                        )
    return ChainCheck(consistent=not messages, messages=tuple(messages))
