"""Eventual divisibility: do the propagators enter a cone and stay there?

For each start time s on a grid, the scan looks for Delta(s) >= s such that
V_{t,s} lies in the target cone for every t >= Delta(s).  Every Delta comes
from ``asymptotics._delta``, which also gives the arrival time of
Lambda_t = V_{t,0} as Delta(0), with one certificate ladder, and which
keeps one record of Delta(s) per witness kind and start time on the handle
(EB reads the PPT record).  A scan reads that record two ways:

- where the witnesses of V_{t,s} depend on t - s only, Delta(s) =
  s + Delta(0): a semigroup has V_{t,s} = Lambda_{t-s}, and a family with a
  local-unitary core (a Floquet product P_t o e^{tX} with unitary P_t) has
  V_{t,s} = P_t o e^{(t-s)X} o P_s^-1, whose CP, coCP, PPT and EB witnesses
  are those of e^{(t-s)X}, so ``_delta`` scans its core, with the
  limit-cycle phase as the tail, tested first;
- any other start time tests its tail first, so a start time whose tail is
  outside evaluates no grid, then scans V_{t,s}.

For a CP-divisible family one instant inside the cone keeps all later
propagators inside, because composing with completely positive maps
preserves every cone in the hierarchy, so its grid stops after the first
chunk with a point inside; ``arrival_time`` grows a kept chunk to the full
grid.  Without the shortcuts every start time is scanned afresh on the
family's own grid, and nothing is kept.

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
    if semigroup or asymptotics._core(family, cone, use_shortcuts) is not None:
        # (handle, cone, s, search, tol, tail_first, head)
        delta, cert, scan = asymptotics._delta(handle, cone, 0.0, search, tol, not semigroup,
                                               _CHUNK)
        if semigroup and cert == "not_reached":
            # the tail decides: outside, it refutes every start time
            delta, cert, scan = asymptotics._delta(handle, cone, 0.0, search, tol, True, _CHUNK)
            details = {"arrival": "not_reached", "horizon_witness": float(scan.witness[-1])}
            if scan.tail[0] is not None:
                details["asymptotic_witness"] = scan.tail[0]
        elif semigroup:
            details = {"lambda_tau": delta, "lambda_certificate": cert}
        else:
            details = {"reduction": "local_unitary_core", "core_delta": delta,
                       "core_certificate": cert, "tail_witness": scan.tail[0]}
        deltas = [None if delta is None else s + delta for s in s_grid]
        certs = [cert for _ in s_grid]
    else:
        # (handle, cone, s, search, tol, tail_first, head, shortcuts)
        outs = [asymptotics._delta(handle, cone, s, search, tol, True,
                                   _CHUNK if use_shortcuts else None, use_shortcuts)
                for s in s_grid]
        deltas = [delta for delta, _, _ in outs]
        certs = [cert for _, cert, _ in outs]
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


@dataclass(frozen=True, slots=True)
class ChainCheck:
    """Consistency of reports across the cone hierarchy (slotted, like
    :class:`DivisibilityReport`)."""

    consistent: bool
    messages: tuple


def check_implication_chain(reports) -> ChainCheck:
    """Verify EB => PPT => CP => P across a set of divisibility reports.

    ``reports``: mapping from cone name to :class:`DivisibilityReport`.
    A stronger cone being certified while a weaker one is refuted is a
    violation, as is a weaker cone arriving later than a stronger one at the
    same start time by more than a slack of 1e-3 when P is one of the two,
    else 1e-6.
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
                slack = 1e-3 if "P" in (present[i], present[j]) else 1e-6
                for s, ds, dw in zip(strong.s_grid, strong.delta, weak.delta):
                    if (
                        ds is not None and dw is not None
                        and math.isfinite(ds) and math.isfinite(dw)
                        and dw > ds + slack
                    ):
                        messages.append(
                            f"at s={s:g}: {present[j]} arrival {dw:.6g} later than "
                            f"{present[i]} arrival {ds:.6g}"
                        )
    return ChainCheck(consistent=not messages, messages=tuple(messages))
