"""Eventual divisibility: do the propagators enter a cone and stay there?

For each start time s on a grid, the scan looks for Delta(s) >= s such that
V_{t,s} lies in the target cone for every t >= Delta(s).  Every Delta comes
from ``asymptotics._delta``, which also gives the arrival time of
Lambda_t = V_{t,0} as Delta(0), with one certificate ladder.  It is reached
three ways:

- a generic start-time scan tests the tail witness first, so a start time
  whose tail is outside evaluates no grid, then scans V_{t,s};
- a semigroup has V_{t,s} = Lambda_{t-s}, so Delta(s) = s + Delta(0);
- a family with a local-unitary core (a Floquet product P_t o e^{tX} with
  unitary P_t) has V_{t,s} = P_t o e^{(t-s)X} o P_s^-1, whose CP, coCP, PPT
  and EB witnesses are those of e^{(t-s)X}, so its core is scanned once,
  with the limit-cycle phase as the tail, tested first.

For a CP-divisible family one instant inside the cone keeps all later
propagators inside, because composing with completely positive maps
preserves every cone in the hierarchy, so its grid stops after the first
chunk with a point inside.  With the shortcuts, a handle answers each scan
once per witness kind (EB reads the PPT scan).

Refutation is by tail witnesses: when the limit of t -> V_{t,s} is outside
the cone by more than the refutation margin, no Delta(s) exists (``inf``,
certificate ``refuted_tail``) and eventual divisibility fails at that s.  A
grid that ends outside without such a tail leaves s ``not_reached``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, evolve, tolerances
from .errors import NotReachedError, SingularMapError

__all__ = [
    "DivisibilityReport",
    "ChainCheck",
    "default_s_grid",
    "scan_divisibility",
    "check_implication_chain",
]


@dataclass(frozen=True, eq=False, slots=True)
class DivisibilityReport:
    """Per-start-time arrival of the propagators into one cone.

    ``delta[k]`` is Delta(s_grid[k]); ``math.inf`` marks start times where
    the tail witness refutes arrival, ``None`` start times left undecided by
    the horizon.  Slotted, as callers keep many: 88 bytes per report
    instead of 136.
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

    semigroup = use_shortcuts and family.constant
    if semigroup or (use_shortcuts and cone != "P" and "core" in family.params):
        shift = _semigroup_shift if semigroup else _core_shift
        delta0, cert, details = shift(handle, cone, search, tol)
        deltas = [None if delta0 is None else s + delta0 for s in s_grid]
        certs = [cert for _ in s_grid]
        details = dict(details)  # the kept answer's, not to be shared
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
    if semigroup:
        shortcut = "semigroup"
    elif use_shortcuts and family.cp_divisible and verdict == "certified":
        shortcut = "cp_divisible_one_instant"
    else:
        shortcut = "none"
    return DivisibilityReport(
        cone=cone,
        s_grid=s_grid,
        delta=tuple(deltas),
        certificates=tuple(certs),
        verdict=verdict,
        shortcut_used=shortcut,
        details=details,
    )


# grid points evaluated before the rest of a chunked sweep (``asymptotics._delta``)
_CHUNK = 8


def _semigroup_shift(handle, cone, search, tol):
    """``(Delta(0), certificate, details)`` of a semigroup.

    V_{t,s} = Lambda_{t-s}, so Delta(s) = s + Delta(0), with the certificate
    of Delta(0).  The tail is read only when the ladder reaches it, or when
    the grid ends outside the cone: then a tail outside refutes every start
    time, and any other leaves them not reached.  None of this depends on
    s: the handle answers once per witness kind.
    """
    def delta0():
        try:
            out = asymptotics._delta(handle, cone, 0.0, search, tol, head=_CHUNK)
        except NotReachedError as exc:
            w, _ = asymptotics._tail(handle, cone, 0.0, search.t_max)
            details = {"arrival": "not_reached", "horizon_witness": exc.witness}
            if w is not None:
                details["asymptotic_witness"] = w
            if w is not None and w < -tolerances.REFUTE_FACTOR * tol:
                return math.inf, "refuted_tail", details
            return None, "not_reached", details
        return out.delta, out.certificate, {"lambda_tau": out.delta,
                                            "lambda_certificate": out.certificate}

    return handle._scan_result(
        ("semigroup", asymptotics._WITNESS_KIND[cone], None, search, tol), delta0)


def _core_shift(handle, cone, search, tol):
    """``(Delta_core, certificate, details)`` of a family P_t o e^{tX}.

    P_t is a unitary conjugation, so V_{t,s} and e^{(t-s)X} differ by local
    unitaries and share every CP, coCP, PPT and EB witness: Delta(0) of the
    core, with the family's premises, gives Delta(s) = s + Delta_core.  The
    tail V_{inf,s} is a limit-cycle phase, which absorbs Lambda_s^-1, and the
    phases are unitary conjugates of one another, so phase 0 is the tail for
    every s; it is tested before the grid, as in :func:`_arrival_at_start`.
    Without a limit cycle there is no tail.  None of this depends on s: the
    handle answers once per witness kind.
    """
    def core_delta():
        family = handle.family
        tail = (None, None)
        if family.closed_form.limit_cycle is not None:
            tail = asymptotics._tail(handle, cone, 0.0, search.t_max)
        core = evolve.EvolutionHandle(family.params["core"])
        try:
            out = asymptotics._delta(handle, cone, 0.0, search, tol, tail, _CHUNK, grid=core)
            delta, cert = out.delta, out.certificate
        except NotReachedError:
            delta, cert = None, "not_reached"
        return delta, cert, {"reduction": "local_unitary_core", "core_delta": delta,
                             "core_certificate": cert, "tail_witness": tail[0]}

    return handle._scan_result(
        ("core", asymptotics._WITNESS_KIND[cone], None, search, tol), core_delta)


def _arrival_at_start(handle, cone, s, search, tol, use_shortcuts=False):
    """Delta(s) and its certificate for one start time.

    The tail is tested first, so a refuted start time evaluates no grid;
    then :func:`asymptotics._delta` scans V_{t,s}.  With the shortcuts, the
    grid is chunked and the handle answers once per witness kind.
    """
    def start():
        tail = asymptotics._tail(handle, cone, s, search.t_max)
        try:
            out = asymptotics._delta(handle, cone, s, search, tol, tail,
                                     _CHUNK if use_shortcuts else None)
        except SingularMapError:
            return None, "singular"
        except NotReachedError:
            return None, "not_reached"
        return out.delta, out.certificate

    if not use_shortcuts:
        return start()
    return handle._scan_result(("start", asymptotics._WITNESS_KIND[cone], s, search, tol), start)


@dataclass(frozen=True, slots=True)
class ChainCheck:
    """Consistency of reports across the cone hierarchy (slotted, like
    :class:`DivisibilityReport`)."""

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
