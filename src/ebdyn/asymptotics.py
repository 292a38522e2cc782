"""Long-time behaviour: cone arrival times, limits and structural predictors.

Arrival into a cone X is the first time after which the trajectory stays in
X.  It is located by scanning a witness (the relevant smallest eigenvalue)
over a grid, bisecting the last sign change, and then certifying retention.
Arrival is Delta(0) of the propagators V_{t,s}, as V_{t,0} = Lambda_t, so
one function (:func:`_delta`) scans V_{t,s} from any start time s, into one
record per witness kind and s that :func:`arrival_time` and every scan of
``divisibility`` read.  Certificates
are ranked: an analytic single-crossing argument from the family's closed
form (at s = 0) beats the one-instant theorem for CP-divisible families,
which beats a tail witness inside the cone; a bare grid is reported as the
weakest certificate rather than silently trusted.

The spectral predictor for eventual entanglement breaking checks the kernel
of the generator: a one-dimensional kernel spanned by a positive state,
together with all other spectral trajectories decaying to zero, forces the
evolution into the interior of the EB cone in finite time.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import classify, evolve, matcore, superop, tolerances
from .errors import (
    InvalidIntervalError,
    NoLimitError,
    NonConservativeMapError,
    NotAProbabilityVectorError,
    NotReachedError,
    SingularMapError,
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
    one eigensolve per block size for CP and coCP, one per block size and
    floor for PPT and EB; a stack of generic maps has one block each.  The
    stack may also be a ``superop.SpectralStack`` (not for P), whose
    witnesses are read from its coefficient rows.  EB has the PPT
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
    """Grid-and-bisection parameters for arrival scans.

    ``t_max`` is finite and positive, ``grid_n`` an integer of at least 2,
    and ``bisect_tol`` None (``1e-10 * t_max``) or finite and nonnegative; 0
    bisects down to the float spacing.  Anything else raises ``ValueError``.
    """

    t_max: float
    grid_n: int = 2000
    bisect_tol: float | None = None

    def __post_init__(self):
        if not (isinstance(self.t_max, numbers.Real) and 0.0 < self.t_max < math.inf):
            raise ValueError(f"t_max must be finite and positive, got {self.t_max!r}")
        if not (isinstance(self.grid_n, numbers.Integral) and self.grid_n >= 2):
            raise ValueError(f"grid_n must be an integer of at least 2, got {self.grid_n!r}")
        if self.bisect_tol is not None and not (isinstance(self.bisect_tol, numbers.Real)
                                                and 0.0 <= self.bisect_tol < math.inf):
            raise ValueError(f"bisect_tol must be None or finite and nonnegative, "
                             f"got {self.bisect_tol!r}")

    def resolved_bisect_tol(self) -> float:
        if self.bisect_tol is not None:
            return self.bisect_tol
        return 1e-10 * self.t_max


def _spectral_gap(family) -> float | None:
    # a constant generator without a closed form reads its family's spectral
    # record, which its evolution and its limit share; falls through to t = 1
    # when the generator at t = 0 vanishes or has no decaying mode
    record = family.constant and family.closed_form is None
    for t_ref in (0.0, 1.0):
        m = family.generator_matrix(t_ref)
        scale = float(np.abs(m).max())
        if scale < 1e-12:
            continue
        w = family.spectrum.eigenvalues if record else None
        re = np.abs((np.linalg.eigvals(m) if w is None else w).real)
        nonzero = re[re > 1e-9 * scale]
        if nonzero.size:
            return float(nonzero.min())
    return None


def default_search(handle_or_family, t_max=None, grid_n=2000, bisect_tol=None) -> Search:
    """Search horizon from the generator's slowest decaying mode.

    t_max = 20 / min |Re mu| over the nonzero-real-part spectrum of the
    generator, falling back to 20 when the generator gives no scale.  Accepts
    a family or an :class:`~ebdyn.evolve.EvolutionHandle` (its family).  A
    constant generator without a closed form gives the eigenvalues of its
    family's spectral record (``GeneratorFamily.spectrum``), diagonalized once
    per family and read again by its evolution and its limit; any other
    family, which never reads eigenvectors, takes ``np.linalg.eigvals``.
    """
    if t_max is None:
        family = (handle_or_family.family if isinstance(handle_or_family, evolve.EvolutionHandle)
                  else handle_or_family)
        gap = _spectral_gap(family)
        t_max = 20.0 / gap if gap else 20.0
    return Search(t_max=float(t_max), grid_n=grid_n, bisect_tol=bisect_tol)


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

    Given the ``handle`` of ``family``, the map, or the
    :class:`NoLimitError` that refuses it, is computed once per handle and
    horizon and kept on the handle.

    Raises
    ------
    NoLimitError
        When the spectral trajectories diverge, a mode of a constant
        generator does not decay, or the solved map has not settled
        (:func:`_numeric_limit`, the one rule for every family with no exact
        limit).
    """
    if handle is None:
        return _limit(family, handle, horizon)
    kept = handle._scan_result(("limit", horizon),
                               lambda: _limit_or_refusal(family, handle, horizon))
    if isinstance(kept, NoLimitError):
        raise NoLimitError(*kept.args)
    return kept


def _limit_or_refusal(family, handle, horizon):
    try:
        return _limit(family, handle, horizon)
    except NoLimitError as exc:
        return exc


def _limit(family, handle, horizon):
    cf = family.closed_form
    if cf is not None:
        if cf.limit_cycle is not None:
            return PeriodicMap(period=cf.period, at=cf.limit_cycle)
        if cf.diverges:
            raise NoLimitError(f"{family.kind}: spectral trajectories diverge")
        if cf.asymptotic_coefficients is not None:
            return superop.spectral_sum(cf.asymptotic_coefficients, cf.components, family.d)
    if family.constant and family.spectrum.inverse is not None:
        return _kernel_projector(family)
    return _numeric_limit(family, handle, horizon)


def _kernel_projector(family):
    """The exact limit of e^{tL} from the family's spectral record
    L = V diag(mu) V^-1, whatever the horizon: with the kernel K of its
    kernel rule (``GeneratorExponential.kernel``), X -> tr(X) omega when K is
    spanned by the state omega, which preserves Hermiticity by construction,
    else the projector Q_0 = V[:, K] V^-1[K, :].  A mode outside K that does
    not decay (a nonzero mu with Re mu >= -1e-9 max(1, max |L|)) leaves no
    limit."""
    spectrum = family.spectrum
    idx, omega, settles = spectrum.kernel()
    if not settles:
        raise NoLimitError(f"{family.kind}: a nonzero generator eigenvalue does not decay")
    if omega is not None:
        return classify.projector_onto_state(omega)
    return superop.Superoperator(spectrum.vectors[:, idx] @ spectrum.inverse[idx, :], family.d)


# the times, as multiples of the horizon t1, at which Lambda_t must still be
# Lambda_t1 for the map to count as settled: in increasing order, so that a
# family that does not settle is refused a sixteenth of t1 past the horizon;
# t1 + (1, 3, 7, 11) t1/16, whose offsets share no factor but t1/16, so that a
# map that comes back with a period longer than t1/16 does not pass; and last
# 2 t1, where the limit is read
_SETTLING_READS = (1.0625, 1.1875, 1.4375, 1.6875, 2.0)
_SETTLING_TOL = 1e-6  # relative Frobenius distance


def _numeric_limit(family, handle, horizon):
    """The limit of Lambda_t read from its solver, once the map has settled.

    Lambda_t is read at the horizon t1, then at each time of
    ``_SETTLING_READS`` t1 in turn, and must stay within a relative
    Frobenius distance of ``_SETTLING_TOL`` of Lambda_t1; the first time
    that does not raises :class:`NoLimitError`, before the solver reads any
    later time.  The settled map Lambda_{2 t1} is the limit: as
    X -> tr(X) omega, omega the Hermitian part of Lambda_{2 t1}(I / d), when
    it is that map of a unit-trace omega to within 1e-8 (relative), which
    preserves Hermiticity by construction; else as it was read.
    """
    if handle is None:
        handle = evolve.EvolutionHandle(family)
    t1 = horizon if horizon is not None else default_search(handle).t_max
    first = handle.solve(t1).matrix
    scale = np.linalg.norm(first)
    for t in (f * t1 for f in _SETTLING_READS):
        lam = handle.solve(t).matrix
        moved = np.linalg.norm(lam - first) / scale
        if not moved <= _SETTLING_TOL:  # also catches nan
            raise NoLimitError(
                f"{family.kind}: Lambda_t has not settled ({moved:.3e} relative "
                f"from t={t1:g} to t={t:g})")
    d = family.d
    image = matcore.unvec(lam @ matcore.vec(np.eye(d)), d) / d
    omega = (image + image.conj().T) / 2.0
    if abs(np.trace(omega) - 1.0) <= 1e-10:
        limit = classify.projector_onto_state(omega)
        if np.linalg.norm(limit.matrix - lam) <= 1e-8 * np.linalg.norm(lam):
            return limit
    return superop.Superoperator(lam, d)


# ---------------------------------------------------------------------------
# arrival times


@dataclass(frozen=True, eq=False)
class ArrivalResult:
    """Arrival of a trajectory into a cone, with its retention certificate.

    ``tau`` is the arrival time; ``None`` means the tail witness is outside
    the cone, so any crossing is transient and there is no arrival
    (certificate ``"refuted_tail"``; a bracket found is still populated).
    ``eb_lower_bound`` marks EB results for d > 2, where the PPT witness
    only bounds the true EB arrival from below.
    """

    cone: str
    tau: float | None
    bracket: tuple | None
    tolerance: float
    retention_certificate: str
    eb_lower_bound: bool
    grid_times: np.ndarray = field(repr=False)
    grid_witness: np.ndarray = field(repr=False)


def _round_levels(cone):
    """Halvings a bisection round is sure of: three, as every route computes
    each time on its own and a stack costs about one point, so a round also
    evaluates the predicted path (:func:`_bisect_crossing`); one (the serial
    bisection, with no prediction) for P, whose see-saw search runs map by
    map."""
    return 1 if cone == "P" else 3


def _bisect_crossing(witnesses, lo, hi, target, tol_t, levels, known=(), breakpoints=()):
    """Halve [lo, hi] to ``tol_t``; ``witnesses`` maps a list of times to witnesses.

    The result is that of the serial loop, one halving per witness: the
    midpoint goes to ``lo`` when its witness is below ``target``, else to
    ``hi``.  A round evaluates a set of midpoints in one call, then walks
    the serial halvings for as long as their midpoints have been evaluated:
    the same floats, read from real witnesses, so the same result bitwise.

    A round holds the midpoints the next ``levels`` halvings can reach
    (breadth first, skipping closed brackets), so it takes at least
    ``levels`` halvings.  With ``levels`` > 1 it also holds the whole
    halving path to a predicted crossing (:func:`_predicted_crossing`): a
    ``breakpoint`` inside the bracket, where the witness jumps, or inverse
    interpolation through the witnesses ``known`` around the bracket (pairs
    ``(t, w)``, such as the grid's neighbours) and those evaluated so far.
    When the prediction holds, the round is the last.  A bracket is closed
    once it is within ``tol_t`` or its midpoint is no float strictly inside
    it, so a ``tol_t`` below the float spacing ends too.
    """
    ws = {float(t): float(w) for t, w in known}
    while _splits(lo, hi, tol_t):
        points = _tree(lo, hi, tol_t, levels)
        root = _predicted_crossing(ws, lo, hi, target, breakpoints) if levels > 1 else None
        if root is not None:
            points += _path(lo, hi, tol_t, root)
        points = [t for t in dict.fromkeys(points) if t not in ws]
        ws.update(zip(points, map(float, witnesses(points))))
        while _splits(lo, hi, tol_t):
            mid = 0.5 * (lo + hi)
            if mid not in ws:
                break
            if ws[mid] < target:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


def _tree(lo, hi, tol_t, levels):
    """The midpoints the next ``levels`` halvings of [lo, hi] can reach."""
    brackets, points = [(lo, hi)], []
    for _ in range(levels):
        reached = []
        for a, b in brackets:
            if _splits(a, b, tol_t):
                mid = 0.5 * (a + b)
                points.append(mid)
                reached += [(a, mid), (mid, b)]
        brackets = reached
    return points


def _path(lo, hi, tol_t, root):
    """The midpoints the serial halving of [lo, hi] visits when the witness
    is below its target before ``root`` and not from it on."""
    points = []
    while _splits(lo, hi, tol_t):
        mid = 0.5 * (lo + hi)
        points.append(mid)
        if mid < root:
            lo = mid
        else:
            hi = mid
    return points


def _predicted_crossing(ws, lo, hi, target, breakpoints):
    """Where the witness is predicted to reach ``target`` in [lo, hi], or None.

    A breakpoint b with lo < b <= hi is taken as it is: the witness jumps
    there.  Otherwise t(w) is interpolated at ``target`` through the (up to
    four) evaluated witnesses ``ws`` nearest the bracket, and through all
    but the farthest of them; when the two agree within one leaf of a
    three-level tree (an eighth of the bracket), the first value is taken,
    clamped to the bracket, so that a crossing at an end is followed to it.
    Equal witnesses, as on a side that stays flat, predict nothing.
    """
    for b in breakpoints:
        if lo < b <= hi:
            return b
    centre = 0.5 * (lo + hi)
    nodes = sorted(ws.items(), key=lambda tw: abs(tw[0] - centre))[:4]
    if len(nodes) < 3:
        return None
    t, coarser = _inverse_interpolant(nodes, target), _inverse_interpolant(nodes[:-1], target)
    if t is None or coarser is None or not abs(t - coarser) <= 0.125 * (hi - lo):
        return None
    return min(max(t, lo), hi)


def _inverse_interpolant(nodes, target):
    """Neville's value at ``target`` of the polynomial t(w) through the pairs
    ``(t, w)`` of ``nodes``; None when two witnesses are equal."""
    ts = [t for t, _ in nodes]
    ws = [w for _, w in nodes]
    for j in range(1, len(nodes)):
        for i in range(len(nodes) - j):
            den = ws[i + j] - ws[i]
            if den == 0.0:
                return None
            ts[i] = ((target - ws[i]) * ts[i + 1] - (target - ws[i + j]) * ts[i]) / den
    return ts[0]


def _splits(lo, hi, tol_t):
    """Whether the bracket [lo, hi] is still open: wider than ``tol_t``, with
    its midpoint strictly inside."""
    return hi - lo > tol_t and lo < 0.5 * (lo + hi) < hi


def _tail(handle, cone, s, horizon):
    """``(witness, kind)`` of the limit of t -> V_{t,s}, or ``(None, None)``.

    The closed form's ``propagator_tail_witness`` gives ``analytic_tail``
    (an eigenvalue witness, so not for P).  Otherwise the asymptotic map
    gives ``asymptotic_interior``: V_{inf,s} = Lambda_inf o Lambda_s^-1.
    There is no inversion at s = 0, nor for a limit-cycle phase, whose trace
    form X -> tr(X) w_t absorbs the trace preserving Lambda_s^-1.  Any other
    Lambda_s is applied by the inversion route (``handle._invert_onto``:
    its condition check, then one solve); where it counts as singular there
    is no tail.
    """
    family = handle.family
    cf = family.closed_form
    if cone != "P" and cf is not None and cf.propagator_tail_witness is not None:
        return float(cf.propagator_tail_witness(s)), "analytic_tail"
    try:
        limit = asymptotic_map(family, handle=handle, horizon=horizon)
    except NoLimitError:
        return None, None
    tail = _one_phase(limit).matrix
    if s != 0.0 and not isinstance(limit, PeriodicMap):
        try:
            tail = handle._invert_onto(tail[None], s)[0]
        except (SingularMapError, np.linalg.LinAlgError):
            return None, None
    return float(cone_witnesses(tail[None], family.d, cone)[0]), "asymptotic_interior"


class _Scan:
    """The record of Delta(s) a handle keeps per witness kind, start time,
    search and tol (:func:`_delta`), holding only what does not depend on
    which entry point asked first: the grid scanned so far (its first chunk,
    or all of it) with its witnesses; Delta and the bracket of the last
    crossing (None when not reached or singular); the certificate,
    ``"not_reached"`` or ``"singular"``; and the tail once read."""

    __slots__ = ("times", "witness", "delta", "bracket", "certificate", "tail")

    def __init__(self):
        self.times = self.witness = self.delta = self.bracket = None
        self.certificate = self.tail = None


def _delta(handle, cone, s, search, tol, tail_first=False, head=None, shortcuts=True):
    """``(Delta(s), certificate, record)``: the time from which V_{t,s} stays
    in ``cone``, certified, and the :class:`_Scan` it was read from.

    The witness of V_{t,s} is scanned on ``search.grid_n`` points of
    [s, s + t_max] and the last crossing is bisected; Delta(s) = s when no
    point is outside, and the grid is not reached when its last point is.
    Retention is certified by the first rung that fires:

    - ``analytic_monotone``: s = 0, where V_{t,0} = Lambda_t, and the closed
      form's witness crosses zero once;
    - ``cp_divisible_one_instant``: the family is CP-divisible, and
      composing with CP maps keeps every cone of the hierarchy;
    - the tail's kind (``analytic_tail`` or ``asymptotic_interior``): the
      tail witness (:func:`_tail`) is inside by more than
      ``REFUTE_FACTOR * tol``;
    - ``sampled_grid``: nothing beyond the grid.

    A tail outside by more than that means no arrival: Delta is inf, with
    ``"refuted_tail"``; Delta is None with ``"not_reached"`` and with
    ``"singular"`` (Lambda_s cannot be inverted).  The tail is read only
    when the ladder reaches it, or first with ``tail_first``: then a
    refuting tail costs no grid.

    ``head`` evaluates the first ``head`` grid points alone and keeps to
    them when one is inside by more than ``tol``, where the family is
    CP-divisible (not for P, whose see-saw witness only suggests
    membership): every later V_{t,s} = V_{t,t1} o V_{t1,s} composes a CP map
    with a map inside the cone, so no later point can be the last one
    outside (``tol`` covers the rounding).  Delta and the bracket are then
    bitwise those of the whole grid, as every route computes each point on
    its own; only an error that a later point would raise is not raised.
    Without ``head``, a kept chunk grows by the points it skipped.

    With ``shortcuts``, the handle keeps one :class:`_Scan` per witness
    kind, s, search and tol (EB reads the PPT record); each call derives its
    outcome from it and evaluates only what it lacks, so a kept answer reads
    no witness, no tail and no ladder, and an exception keeps nothing it
    did not finish.  A family with a local-unitary core (``params["core"]``,
    a Floquet product) is then scanned through its core for every cone but
    P, as V_{t,s} and e^{(t-s)X} differ by unitary conjugations and share
    every CP, coCP, PPT and EB witness; its tail is the limit-cycle phase,
    none without a limit cycle.  Without ``shortcuts`` the family's own grid
    is scanned afresh and nothing is kept.
    """
    scan = (handle._scan_result((_WITNESS_KIND[cone], s, search, tol), _Scan) if shortcuts
            else _Scan())
    if tail_first:
        w, _ = scan.tail or _read_tail(scan, handle, cone, s, search, shortcuts)
        if w is not None and w < -tolerances.REFUTE_FACTOR * tol:
            return math.inf, "refuted_tail", scan
    if scan.certificate is None or (head is None and scan.delta is not None
                                    and len(scan.times) < search.grid_n):
        _fill(scan, handle, cone, s, search, tol, head, shortcuts)
    refuted = scan.certificate == "refuted_tail"
    return math.inf if refuted else scan.delta, scan.certificate, scan


def _core(family, cone, shortcuts):
    """The local-unitary core :func:`_delta` scans instead of ``family``, or None."""
    return family.params.get("core") if shortcuts and cone != "P" else None


def _read_tail(scan, handle, cone, s, search, shortcuts):
    """The tail of :func:`_delta`, read into ``scan``."""
    family = handle.family
    if _core(family, cone, shortcuts) is not None and family.closed_form.limit_cycle is None:
        scan.tail = (None, None)
    else:
        scan.tail = _tail(handle, cone, s, search.t_max)
    return scan.tail


def _fill(scan, handle, cone, s, search, tol, head, shortcuts):
    """Scan into ``scan`` the grid points of :func:`_delta` that it lacks,
    then climb the certificate ladder if it has not."""
    family = handle.family
    if scan.times is None or head is None and len(scan.times) < search.grid_n:
        core = _core(family, cone, shortcuts)
        # one core handle per family handle; it reads the core's spectral record
        grid = handle if core is None else handle._scan_result(
            ("core",), lambda: evolve.EvolutionHandle(core))
        try:
            _scan_grid(scan, grid, family, cone, s, search, tol, head)
        except SingularMapError:
            scan.certificate = "singular"
    if scan.certificate is not None:  # singular, or a grown chunk
        return
    margin = tolerances.REFUTE_FACTOR * tol
    cf = family.closed_form
    if scan.delta is None:
        scan.certificate = "not_reached"
    elif s == 0.0 and cf is not None and cf.witness_single_crossing:
        scan.certificate = "analytic_monotone"
    elif family.cp_divisible:
        scan.certificate = "cp_divisible_one_instant"
    else:
        w, kind = scan.tail or _read_tail(scan, handle, cone, s, search, shortcuts)
        if w is not None and w > margin:
            scan.certificate = kind
        elif w is not None and w < -margin:
            scan.certificate = "refuted_tail"
        else:
            scan.certificate = "sampled_grid"


def _scan_grid(scan, grid, family, cone, s, search, tol, head):
    """The grid of :func:`_delta` into ``scan``, from the propagators of the
    handle ``grid``: its first ``head`` points, all, or those a chunk skipped.

    The witnesses of a spectral closed form (but for P) are read from the
    coefficient rows of V_{t,s}: ``grid._propagator_rows``, with the
    condition check of the propagator grid and the exact identity at
    t == s, is a ``superop.SpectralStack``, whose floors
    ``classify.choi_floors`` forms from the block entries of the
    components' joint pattern alone, with no map built.  Any other handle
    stacks its propagators.  Either way each point's witness is a function
    of its time alone.

    The last crossing is bisected from the grid's witnesses at the bracket
    and one point beyond each end, and the breakpoints of ``grid``'s closed
    form, which :func:`_bisect_crossing` predicts its halving path from."""
    ts = np.linspace(s, s + search.t_max, search.grid_n)

    def witnesses(times):
        rows = grid._spectral and cone != "P"
        return cone_witnesses(grid._propagator_rows(times, s) if rows
                              else grid._propagator_grid(times, s), family.d, cone)

    if scan.times is not None:  # the chunk's Delta and bracket are the whole grid's
        ws = np.concatenate([scan.witness, witnesses(ts[len(scan.times):].tolist())])
    elif head is not None and cone != "P" and family.cp_divisible and len(ts) > head:
        ws = witnesses(ts[:head].tolist())
        if (ws > tol).any():
            ts = ts[:head]
        else:
            ws = np.concatenate([ws, witnesses(ts[head:].tolist())])
    else:
        ws = witnesses(ts.tolist())
    delta, bracket = scan.delta, scan.bracket
    neg = ws < -tol
    if scan.times is None and not neg[-1]:  # else not reached, or grown
        delta = float(ts[0])
        if neg.any():
            i = int(np.nonzero(neg)[0].max())
            bracket = (float(ts[i]), float(ts[i + 1]))
            target = 0.0 if ws[i + 1] > 0.0 else -tol
            cf = grid.family.closed_form
            delta = _bisect_crossing(witnesses, *bracket, target, search.resolved_bisect_tol(),
                                     _round_levels(cone),
                                     zip(ts[max(i - 1, 0):i + 3], ws[max(i - 1, 0):i + 3]),
                                     cf.breakpoints if cf is not None else ())
    ts.flags.writeable = ws.flags.writeable = False
    scan.times, scan.witness, scan.delta, scan.bracket = ts, ws, delta, bracket


def arrival_time(handle_or_family, cone, search=None, tol=None) -> ArrivalResult:
    """Arrival time of t -> Lambda_t into a cone, with certified retention.

    This is Delta(0) of the propagators, as V_{t,0} = Lambda_t: the witness
    is scanned over the full grid of ``search.grid_n`` points up to
    ``search.t_max``, the last crossing is bisected and the certificate
    ladder of :func:`_delta` is applied, reading the tail only when the
    ladder reaches it.  Raises :class:`NotReachedError` when the witness is
    still negative at the horizon.  A crossing whose tail witness is outside
    the cone is transient: ``tau`` is None and the certificate
    ``"refuted_tail"``.

    The handle keeps this Delta(0) record per witness kind, search and
    tolerance for ``divisibility.scan_divisibility`` too (a chunk it kept
    grows to the full grid): EB reads the PPT record, with its own ``cone``
    and ``eb_lower_bound``, and the shared grid arrays are read-only.  A
    Floquet family is scanned through its core, as in :func:`_delta`.
    """
    handle = evolve._as_handle(handle_or_family)
    if cone not in CONES:
        raise ValueError(f"unknown cone {cone!r}")
    if tol is None:
        tol = tolerances.PSD_TOL
    if search is None:
        search = default_search(handle)
    delta, certificate, scan = _delta(handle, cone, 0.0, search, tol)
    if certificate == "not_reached":
        raise NotReachedError(scan.times[-1], scan.witness[-1], cone=cone)
    return ArrivalResult(
        cone=cone,
        tau=None if delta == math.inf else delta,
        bracket=scan.bracket,
        tolerance=search.resolved_bisect_tol(),
        retention_certificate=certificate,
        eb_lower_bound=(cone == "EB" and handle.family.d > 2),
        grid_times=scan.times,
        grid_witness=scan.witness,
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


def predict_eventually_eb(family, handle=None, horizon=None) -> AsymptoticVerdict:
    """Structural verdict on the long-time EB behaviour of a family.

    The spectral path (``spectral_semigroup``) fires when the family is
    constant, its generator's kernel is one-dimensional, spanned by a state
    omega, and every other eigenvalue has a negative real part: omega > 0
    gives ``eventually_EB``, omega on the state-space boundary gives
    ``asymptotically_EB``.  When the spectral path does not
    apply, evidence from the asymptotic map is used: an interior limit still
    certifies ``eventually_EB``; a boundary limit approached from outside
    gives ``asymptotically_PPT`` (upgraded to ``asymptotically_EB`` for
    d = 2); a limit with a strictly negative witness refutes.
    """
    if horizon is None:
        horizon = default_search(family).t_max
    evidence = {}
    kernel = family.spectrum.kernel() if family.constant else None
    idx, omega, settles = kernel or (None, None, False)
    verdict = functools.partial(AsymptoticVerdict, numeric_evidence=evidence,
                                kernel_dim=None if idx is None else int(len(idx)))
    if omega is not None and settles:
        min_w = float(np.linalg.eigvalsh(omega)[0])
        evidence["omega_min_eig"] = min_w
        if min_w >= -tolerances.PSD_TOL:
            label = "eventually_EB" if min_w > tolerances.PSD_TOL else "asymptotically_EB"
            return verdict(label, "spectral_semigroup", omega=omega, divergence=True)
    return _evidence_verdict(family, handle, horizon, verdict, evidence)


def _evidence_verdict(family, handle, horizon, verdict, evidence):
    if handle is None:
        handle = evolve.EvolutionHandle(family)
    try:
        limit = asymptotic_map(family, handle=handle, horizon=horizon)
    except NoLimitError as exc:
        evidence["no_limit"] = str(exc)
        cf = family.closed_form
        if cf is not None and cf.diverges:
            # trace preservation pins the Choi trace, so CP maps live in a
            # bounded set; an unbounded trajectory leaves it for good
            return verdict("not_asymptotically_EB", "diverging_trajectory")
        return verdict("undetermined", "none")
    periodic = isinstance(limit, PeriodicMap)
    basis = "limit_cycle" if periodic else "asymptotic"
    phase = _one_phase(limit)
    floors = classify.choi_floors(phase.matrix[None], phase.d)
    w_inf = min(float(floors[1][0]), float(floors[2][0]))
    evidence[f"{basis}_witness"] = w_inf
    if classify.interior_certificates(*floors, phase.d)[0].certified:
        return verdict("eventually_EB", f"{basis}_interior")
    if w_inf < -tolerances.REFUTE_FACTOR * tolerances.PSD_TOL:
        return verdict("not_asymptotically_EB", f"{basis}_witness")
    if periodic:
        return verdict("undetermined", "none")
    # boundary limit: look at which side the trajectory approaches from
    evidence["witness_at_horizon"] = min(witness_pair(handle.solve(horizon)))
    return verdict("asymptotically_EB" if family.d == 2 else "asymptotically_PPT",
                   "asymptotic_witness")


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
