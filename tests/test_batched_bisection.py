"""Batched bisection against the serial halving loop it replaces.

The bisection of an arrival crossing evaluates several midpoints per call:
the three-level tree of the next halvings, and the whole halving path to a
predicted crossing.  These tests hold it to a serial reference written
here: the same tau bit for bit, the same points visited, no more calls
than rounds of three halvings, one call where a declared breakpoint is the
crossing, round stacks of propagators and evolved maps equal matrix for
matrix to the maps computed one point at a time (on the coefficient rows
of a spectral closed form, witness for witness to the rows of single
points), and, for the P cone, whose see-saw search runs map by map, one
point per call with the same solver and positivity-witness call counts.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ebdyn import asymptotics, classify, divisibility, evolve, families, superop, tolerances
from ebdyn.asymptotics import Search
from ebdyn.errors import NotReachedError, SingularMapError

from helpers import (RoundRecorder, ginibre, inversion_atol, oscillating_pauli,
                     random_hermitian, shipped_family)


def serial_bisect(witness_at, lo, hi, target, tol_t):
    """One halving per witness call, until the bracket is within ``tol_t`` or
    its midpoint is no float strictly inside it."""
    while hi - lo > tol_t:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if witness_at(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def serial_scan(ts, ws, witness_at, tol, tol_t):
    """tau of the last crossing, bisected one point at a time (grid given)."""
    neg = ws < -tol
    if neg[-1]:
        raise NotReachedError(ts[-1], ws[-1])
    if not neg.any():
        return 0.0
    i = int(np.nonzero(neg)[0].max())
    target = 0.0 if ws[i + 1] > 0.0 else -tol
    return serial_bisect(witness_at, float(ts[i]), float(ts[i + 1]), target, tol_t)


def wavy(amps, freqs, phases):
    """A non-monotone scalar witness with many sign changes."""
    def w(t):
        return sum(a * math.sin(f * t + p) for a, f, p in zip(amps, freqs, phases))
    return w


class Recorder:
    """Stacked witness function that logs every call."""

    def __init__(self, w):
        self.w = w
        self.calls = []

    def __call__(self, points):
        self.calls.append(list(points))
        return np.array([self.w(t) for t in points])


witness_params = st.tuples(
    st.lists(st.floats(0.1, 2.0), min_size=1, max_size=4),
    st.lists(st.floats(0.5, 40.0), min_size=4, max_size=4),
    st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
)


def grid_neighbours(w, lo, hi):
    """``(t, w)`` at the bracket's ends and one bracket beyond each, as the
    grid passes them."""
    width = hi - lo
    return [(t, w(t)) for t in (lo - width, lo, hi, hi + width)]


def assert_the_serial_walk(rec, serial_points, levels):
    """Every point of the serial walk is evaluated, none twice, in no more
    calls than rounds of ``levels`` halvings; one point per call at one level."""
    evaluated = [t for call in rec.calls for t in call]
    assert set(serial_points) <= set(evaluated)
    assert len(evaluated) == len(set(evaluated))
    assert len(rec.calls) <= -(-len(serial_points) // levels)
    if levels == 1:
        assert evaluated == serial_points


def counted_serial(w, lo, hi, target, tol_t):
    """The serial loop's tau and the points it visits."""
    points = []

    def witness_at(t):
        points.append(t)
        return w(t)

    return serial_bisect(witness_at, lo, hi, target, tol_t), points


class TestBisectCrossing:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        params=witness_params,
        lo=st.floats(-5.0, 5.0),
        width=st.floats(1e-6, 10.0),
        # tol_t / width: from halving to the float spacing to brackets already
        # within tol_t
        rel_tol=st.sampled_from((0.0, 1e-300, 1e-12, 1e-9, 3e-7, 1e-3, 0.3, 0.5, 1.0, 2.0)),
        target=st.sampled_from((0.0, -1e-9, 0.25)),
        levels=st.integers(1, 4),
        neighbours=st.booleans(),
    )
    @example(params=([1.0], [1.0] * 4, [0.0] * 4), lo=0.0, width=1.0, rel_tol=1.0,
             target=0.0, levels=3, neighbours=False)
    @example(params=([1.0, 0.4], [7.0, 23.0, 1.0, 1.0], [0.3, -1.1, 0.0, 0.0]), lo=2.0,
             width=1.0, rel_tol=0.0, target=0.0, levels=3, neighbours=True)
    def test_bitwise_the_serial_loop(self, params, lo, width, rel_tol, target, levels,
                                     neighbours):
        w = wavy(*params)
        hi = lo + width
        # below the float spacing near the bracket, both loops stop where a
        # midpoint is no float strictly inside its bracket
        tol_t = rel_tol * width
        want, serial_points = counted_serial(w, lo, hi, target, tol_t)
        rec = Recorder(w)
        known = grid_neighbours(w, lo, hi) if neighbours else ()
        got = asymptotics._bisect_crossing(rec, lo, hi, target, tol_t, levels, known)
        assert got == want  # bitwise: the same floats are halved the same way
        assert_the_serial_walk(rec, serial_points, levels)

    @pytest.mark.parametrize("halvings", [1, 2, 3, 4, 5, 7, 8, 9, 27])
    @pytest.mark.parametrize("slack", [1.0, 1.001])
    def test_brackets_that_end_mid_round(self, halvings, slack):
        # width 1 and tol_t at or just above 2^-halvings: exactly `halvings`
        # steps (the widths are exact, so a bracket of width tol_t stops)
        tol_t = slack * 2.0 ** -halvings
        w = wavy([1.0, 0.4], [7.0, 23.0, 1.0, 1.0], [0.3, -1.1, 0.0, 0.0])
        rec = Recorder(w)
        got = asymptotics._bisect_crossing(rec, 2.0, 3.0, 0.0, tol_t, 3,
                                           grid_neighbours(w, 2.0, 3.0))
        want, serial_points = counted_serial(w, 2.0, 3.0, 0.0, tol_t)
        assert got == want and len(serial_points) == halvings
        assert_the_serial_walk(rec, serial_points, 3)
        # the first round holds the tree of the levels still wider than tol_t
        assert len(rec.calls[0]) >= 2 ** min(halvings, 3) - 1

    def test_bracket_within_tolerance_is_not_evaluated(self):
        rec = Recorder(lambda t: -1.0)
        assert asymptotics._bisect_crossing(rec, 1.0, 1.5, 0.0, 0.5, 3) == 1.25
        assert rec.calls == []


def step(at, before, after):
    """A witness that jumps from ``before`` to ``after`` at ``at``."""
    return lambda t: before if t < at else after


class TestPredictedPath:
    """Rounds that hold the halving path to a predicted crossing."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        lo=st.floats(-5.0, 5.0),
        width=st.floats(1e-3, 10.0),
        frac=st.floats(0.0, 1.0),
        before=st.floats(-1.0, -1e-3),
        after=st.sampled_from((0.0, 0.3)),
        rel_tol=st.sampled_from((0.0, 1e-12, 2.0 ** -27, 1e-3)),
        declared=st.booleans(),
    )
    @example(lo=3.6363636363636362, width=0.40404040404040387, frac=0.9,
             before=-0.14, after=0.0, rel_tol=1e-9, declared=True)
    def test_step_witness(self, lo, width, frac, before, after, rel_tol, declared):
        """A jump at any float of the bracket: the serial result bitwise,
        and one call when the jump is a declared breakpoint."""
        hi = lo + width
        at = min(max(lo + frac * width, math.nextafter(lo, math.inf)), hi)
        w = step(at, before, after)
        target = 0.0 if after > 0.0 else -1e-9  # as the grid scan picks it
        tol_t = rel_tol * width
        want, serial_points = counted_serial(w, lo, hi, target, tol_t)
        rec = Recorder(w)
        got = asymptotics._bisect_crossing(rec, lo, hi, target, tol_t, 3,
                                           grid_neighbours(w, lo, hi),
                                           (at,) if declared else ())
        assert got == want
        assert_the_serial_walk(rec, serial_points, 3)
        if declared:
            assert len(rec.calls) == 1

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        lo=st.floats(0.0, 10.0),
        width=st.floats(1e-3, 1.0),
        frac=st.floats(0.01, 1.0),
        slope=st.floats(1e-3, 10.0),
        curve=st.floats(0.0, 10.0),
        declared=st.booleans(),
    )
    def test_flat_side_at_zero(self, lo, width, frac, slope, curve, declared):
        """Inside from ``at`` on, the witness is exactly 0.0, as past the
        cutoff of pure decoherence: equal witnesses predict nothing, and a
        breakpoint at ``at`` is not the crossing of the target -tol."""
        hi = lo + width
        at = lo + frac * width

        def w(t):
            x = at - t
            return -(slope * x + curve * x * x) if x > 0.0 else 0.0

        tol_t = 1e-10 * width
        want, serial_points = counted_serial(w, lo, hi, -1e-9, tol_t)
        rec = Recorder(w)
        got = asymptotics._bisect_crossing(rec, lo, hi, -1e-9, tol_t, 3,
                                           grid_neighbours(w, lo, hi),
                                           (at,) if declared else ())
        assert got == want
        assert_the_serial_walk(rec, serial_points, 3)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        frac=st.floats(0.001, 0.999),
        a=st.floats(0.0, 1.0),
        rate=st.floats(-2.0, 2.0).filter(lambda g: abs(g) > 1e-3),
        b=st.floats(0.0, 1.0),
        c=st.floats(0.0, 1.0),
        target=st.sampled_from((0.0, -1e-9)),
    )
    def test_smooth_monotone_witness_takes_three_calls(self, frac, a, rate, b, c, target):
        """27 halvings of a grid cell, on a smooth increasing witness with a
        simple root: at most three calls, where rounds of three levels take
        nine.  (Not a bound: a root that falls between a late midpoint and
        its prediction takes a fourth call of one point, in about 1 of
        20 000 random draws of these parameters.)"""
        assume(a + b >= 0.1)
        root = 2.0 + frac

        def w(t):
            x = t - root
            return a * math.expm1(rate * x) / rate + b * x + c * x ** 3

        tol_t = 2.0 ** -27
        want, serial_points = counted_serial(w, 2.0, 3.0, target, tol_t)
        rec = Recorder(w)
        got = asymptotics._bisect_crossing(rec, 2.0, 3.0, target, tol_t, 3,
                                           grid_neighbours(w, 2.0, 3.0))
        assert got == want and len(serial_points) == 27
        assert_the_serial_walk(rec, serial_points, 3)
        assert len(rec.calls) <= 3

    @pytest.mark.parametrize("declared", [False, True])
    def test_one_level_rounds_predict_nothing(self, declared):
        """P's rounds (one level) hold one point, whatever is known or declared."""
        w = step(2.3, -0.5, 0.5)
        rec = Recorder(w)
        got = asymptotics._bisect_crossing(rec, 2.0, 3.0, 0.0, 1e-6, 1,
                                           grid_neighbours(w, 2.0, 3.0),
                                           (2.3,) if declared else ())
        want, serial_points = counted_serial(w, 2.0, 3.0, 0.0, 1e-6)
        assert got == want
        assert rec.calls == [[t] for t in serial_points]


# ---------------------------------------------------------------------------
# round stacks: bitwise the maps of single points


def noncommuting_gkls():
    """Time-dependent GKLS at d = 2 whose generators do not commute (ode)."""
    rng = np.random.default_rng(5)
    return families.gkls(random_hermitian(rng, 2, 0.5), [
        (ginibre(rng, 2) / 2.0, 0.9),
        (ginibre(rng, 2) / 2.0, lambda t: 0.8 * (1.0 + 0.5 * math.sin(1.1 * t))),
    ])


def constant_gkls(d):
    rng = np.random.default_rng(10 + d)
    return families.gkls(random_hermitian(rng, d, 0.5),
                         [(ginibre(rng, d) / d, 0.7), (ginibre(rng, d) / d, 0.4)])


def floquet_family():
    return shipped_family("floquet_rotating")


# (name, family factory, solver): every route evaluates a round in one batch
BATCHED = [
    ("eternal", lambda: families.eternal_nm(1.7), None),
    ("pure_decoherence_cutoff", lambda: shipped_family("pure_decoherence_cutoff"), None),
    ("pauli_td", oscillating_pauli, None),
    ("floquet_full", floquet_family, None),
    ("depolarizing", lambda: shipped_family("depolarizing_qutrit"), None),
    ("gkls_d2", lambda: constant_gkls(2), None),
    ("gkls_d3", lambda: constant_gkls(3), None),
    ("floquet_core", lambda: floquet_family().params["core"], None),
    ("ode", noncommuting_gkls, None),
    ("ode_constant", lambda: constant_gkls(2), "ode"),
]


# the spectral closed forms, whose scans read the coefficient rows
SPECTRAL = [case for case in BATCHED if case[0] in (
    "eternal", "pure_decoherence_cutoff", "pauli_td", "depolarizing")]


def reference_propagator(handle, t, s):
    """V_{t,s} of one point, built the way a single point is built."""
    fam = handle.family
    cf = fam.closed_form
    if t == s:
        return np.eye(fam.d ** 2)
    if cf is not None and cf.propagator_at is not None:
        return cf.propagator_at(t, s).matrix
    if fam.constant:
        return handle.solve(t - s).matrix
    if handle.solver == "closed_form":
        # the ratio of the coefficient rows of the two times
        return superop.spectral_sum(cf.coefficients(t) / cf.coefficients(s),
                                    cf.components, fam.d).matrix
    return inverted_propagator(handle, t, s)


def inverted_propagator(handle, t, s):
    """V_{t,s} = Lambda_t o Lambda_s^-1 of one point, by a linear solve."""
    lam_s = handle.solve(s).matrix
    return np.linalg.solve(lam_s.T, handle.solve(t).matrix.T).T


def round_points(s, width=2.0):
    """The seven midpoints of three halvings of [s + 0.3, s + 0.3 + width]."""
    lo, hi = s + 0.3, s + 0.3 + width
    points = []
    brackets = [(lo, hi)]
    for _ in range(3):
        nxt = []
        for a, b in brackets:
            m = 0.5 * (a + b)
            points.append(m)
            nxt += [(a, m), (m, b)]
        brackets = nxt
    return points


class TestRoundStacks:
    @pytest.mark.parametrize("name, make, solver", BATCHED)
    @pytest.mark.parametrize("s", [0.0, 0.7])
    def test_batched_round_is_bitwise_the_points(self, name, make, solver, s):
        fam = make()
        handle = evolve.EvolutionHandle(fam, solver=solver)
        assert asymptotics._round_levels("PPT") == 3
        points = round_points(s)
        props = handle._propagator_grid(points, s)
        maps = handle._solve_grid(points)
        for k, t in enumerate(points):
            fresh = evolve.EvolutionHandle(fam, solver=solver)
            np.testing.assert_array_equal(props[k], reference_propagator(fresh, t, s))
            np.testing.assert_array_equal(props[k], fresh.propagator(t, s).matrix)
            np.testing.assert_array_equal(maps[k], fresh.solve(t).matrix)
            if handle.solver == "closed_form" and not fam.constant and fam.closed_form.components:
                np.testing.assert_allclose(props[k], inverted_propagator(fresh, t, s), rtol=0,
                                           atol=inversion_atol(fresh.solve(s).matrix))

    @pytest.mark.parametrize("alpha", [0.5, 1.7, 3.3])
    def test_coefficient_propagator_at_its_start_is_the_identity(self, alpha):
        handle = evolve.EvolutionHandle(families.eternal_nm(alpha))
        for s in (0.0, 0.37, 11.0):
            mags = np.abs(handle.family.closed_form.coefficients(s))
            if mags.max() / mags.min() > tolerances.SINGULAR_COND_LIMIT:
                # e^{-2 alpha s} has decayed below 1e-12: Lambda_s counts as singular
                with pytest.raises(SingularMapError):
                    handle._propagator_grid([s, s + 1.0], s)
                continue
            np.testing.assert_array_equal(handle._propagator_grid([s, s + 1.0], s)[0], np.eye(4))

    @pytest.mark.parametrize("name, make, solver", SPECTRAL)
    @pytest.mark.parametrize("s", [0.0, 0.7])
    @pytest.mark.parametrize("cone", ["CP", "coCP", "PPT"])
    def test_rows_round_is_bitwise_the_points(self, name, make, solver, s, cone):
        """A round of the rows path (and its start, t == s): each witness is
        bitwise that of its point's own rows, and the rows hold its maps."""
        fam = make()
        handle = evolve.EvolutionHandle(fam, solver=solver)
        assert handle._spectral
        points = [s] + round_points(s)
        ws = asymptotics.cone_witnesses(handle._propagator_rows(points, s), fam.d, cone)
        for k, t in enumerate(points):
            fresh = evolve.EvolutionHandle(fam, solver=solver)
            alone = fresh._propagator_rows([t], s)
            assert ws[k:k + 1].tobytes() == asymptotics.cone_witnesses(
                alone, fam.d, cone).tobytes()
            np.testing.assert_array_equal(alone.maps()[0], reference_propagator(fresh, t, s))

    def test_p_cone_rounds_hold_one_point(self):
        assert asymptotics._round_levels("P") == 1

    def test_coefficient_rows_are_bitwise_the_rows(self):
        rng = np.random.default_rng(3)
        comps = [ginibre(rng, 9) for _ in range(5)]
        rows = ginibre(rng, 11, 5)
        stack = superop.spectral_sum(rows, comps, 3)
        assert stack.shape == (11, 9, 9)
        for row, got in zip(rows, stack):
            np.testing.assert_array_equal(got, superop.spectral_sum(row, comps, 3).matrix)
        assert superop.spectral_sum(rows[:0], comps, 3).shape == (0, 9, 9)


# ---------------------------------------------------------------------------
# whole scans: the batched bisection against the serial one


def serial_grid_delta(handle, cone, s, search, tol):
    """Delta(s) with the bisection calling ``propagator`` one point at a time."""
    ts = np.linspace(s, s + search.t_max, search.grid_n)
    ws = asymptotics.cone_witnesses(handle._propagator_grid(ts.tolist(), s),
                                    handle.family.d, cone)
    tau = serial_scan(ts, ws, lambda t: asymptotics.cone_witness(handle.propagator(t, s), cone),
                      tol, search.resolved_bisect_tol())
    return max(float(tau), s)


def serial_rows_delta(handle, cone, s, search, tol):
    """Delta(s) of a spectral family with every witness read from the
    coefficient rows, the bisection one point at a time."""
    ts = np.linspace(s, s + search.t_max, search.grid_n)
    d = handle.family.d
    ws = asymptotics.cone_witnesses(handle._propagator_rows(ts.tolist(), s), d, cone)
    tau = serial_scan(
        ts, ws, lambda t: asymptotics.cone_witnesses(handle._propagator_rows([t], s), d, cone)[0],
        tol, search.resolved_bisect_tol())
    return max(float(tau), s)


def grid_delta(handle, cone, s, search, tol):
    """Delta(s) of ``asymptotics._delta`` on the family's own grid with no
    tail: the grid and its bisection alone, whatever rung of the ladder
    fires.  A grid that ends outside, or a singular Lambda_s, raises as the
    serial scan does."""
    with mock.patch.object(asymptotics, "_tail", lambda *args: (None, None)):
        delta, certificate, scan = asymptotics._delta(handle, cone, s, search, tol,
                                                      shortcuts=False)
    if certificate == "not_reached":
        raise NotReachedError(scan.times[-1], scan.witness[-1])
    if certificate == "singular":
        raise SingularMapError(f"Lambda_s at s={s:g} is numerically singular")
    return delta


def serial_arrival_tau(handle, cone, search, tol):
    """Arrival tau with the bisection calling ``solve`` one point at a time."""
    ts = np.linspace(0.0, search.t_max, search.grid_n)
    ws = asymptotics.cone_witnesses(
        np.stack([m.matrix for m in handle.solve_many(ts)]), handle.family.d, cone)
    return serial_scan(ts, ws, lambda t: asymptotics.cone_witness(handle.solve(t), cone),
                       tol, search.resolved_bisect_tol())


class TestWholeScans:
    @pytest.mark.parametrize("name, make, solver", BATCHED)
    @pytest.mark.parametrize("cone", ["CP", "PPT", "EB"])
    def test_grid_delta_bitwise_the_serial_scan(self, name, make, solver, cone):
        fam = make()
        search = asymptotics.default_search(fam, grid_n=60)
        tol = 1e-9
        for s in (0.0, 0.4):
            try:
                want = serial_grid_delta(evolve.EvolutionHandle(fam, solver=solver),
                                         cone, s, search, tol)
            except (NotReachedError, SingularMapError) as exc:  # fail the same way
                with pytest.raises(type(exc)):
                    grid_delta(evolve.EvolutionHandle(fam, solver=solver), cone, s, search, tol)
                continue
            got = grid_delta(evolve.EvolutionHandle(fam, solver=solver), cone, s, search, tol)
            assert got == want

    @pytest.mark.parametrize("name, make, solver", SPECTRAL)
    @pytest.mark.parametrize("cone", ["CP", "PPT", "EB"])
    def test_rows_delta_bitwise_the_serial_rows_scan(self, name, make, solver, cone):
        fam = make()
        search = asymptotics.default_search(fam, grid_n=60)
        tol = 1e-9
        for s in (0.0, 0.4, 2.5):
            try:
                want = serial_rows_delta(evolve.EvolutionHandle(fam, solver=solver),
                                         cone, s, search, tol)
            except (NotReachedError, SingularMapError) as exc:  # fail the same way
                with pytest.raises(type(exc)):
                    grid_delta(evolve.EvolutionHandle(fam, solver=solver), cone, s, search, tol)
                continue
            got = grid_delta(evolve.EvolutionHandle(fam, solver=solver), cone, s, search, tol)
            assert got == want

    @pytest.mark.parametrize("name, make, solver", BATCHED)
    @pytest.mark.parametrize("cone", ["CP", "coCP", "PPT"])
    def test_arrival_tau_bitwise_the_serial_scan(self, name, make, solver, cone):
        fam = make()
        search = asymptotics.default_search(fam, grid_n=60)
        try:
            want = serial_arrival_tau(evolve.EvolutionHandle(fam, solver=solver), cone,
                                      search, 1e-9)
        except NotReachedError:
            return
        res = asymptotics.arrival_time(evolve.EvolutionHandle(fam, solver=solver), cone,
                                       search=search)
        if res.tau is not None:
            assert res.tau == want


def divisibility_rounds(monkeypatch, fam, cone, grid_n=100):
    """The report of a divisibility scan on the default start times and the
    calls of each of its crossings."""
    rounds = RoundRecorder(monkeypatch)
    search = asymptotics.default_search(fam, grid_n=grid_n)
    rep = divisibility.scan_divisibility(evolve.EvolutionHandle(fam), cone, search=search)
    monkeypatch.undo()
    return rep, [len(sizes) for sizes in rounds.crossings]


class TestShippedCrossingCounts:
    """Calls per crossing on shipped families, at the 100-point grid of the
    benchmark's divisibility workload: rounds of three levels took nine."""

    def test_a_cutoff_crossing_takes_one_call(self, monkeypatch):
        # the witness jumps from -0.14 to 0.0 at the declared cutoff
        _, calls = divisibility_rounds(monkeypatch, shipped_family("pure_decoherence_cutoff"),
                                       "PPT")
        assert calls == [1] * 11

    def test_eternal_crossings_take_two_or_three_calls(self, monkeypatch):
        fam = shipped_family("eternal")
        _, ppt = divisibility_rounds(monkeypatch, fam, "PPT")
        _, cp = divisibility_rounds(monkeypatch, fam, "CP")
        assert ppt == [2] * 9
        assert len(cp) == 6 and max(cp) <= 3

    def test_a_breakpoint_moves_no_result(self, monkeypatch):
        fam = shipped_family("pure_decoherence_cutoff")
        bare = dataclasses.replace(
            fam, closed_form=dataclasses.replace(fam.closed_form, breakpoints=()))
        want, bare_calls = divisibility_rounds(monkeypatch, bare, "PPT")
        got, calls = divisibility_rounds(monkeypatch, fam, "PPT")
        assert (got.delta, got.certificates, got.verdict) == (
            want.delta, want.certificates, want.verdict)
        assert max(calls) == 1 < min(bare_calls)


class CallCounter:
    """Counts ``EvolutionHandle.solve`` and ``classify.positivity_witness`` calls."""

    def __init__(self, monkeypatch):
        self.solve = 0
        self.positivity = 0
        solve, positivity = evolve.EvolutionHandle.solve, classify.positivity_witness

        def counted_solve(handle, t):
            self.solve += 1
            return solve(handle, t)

        def counted_positivity(*args, **kwargs):
            self.positivity += 1
            return positivity(*args, **kwargs)

        monkeypatch.setattr(evolve.EvolutionHandle, "solve", counted_solve)
        monkeypatch.setattr(classify, "positivity_witness", counted_positivity)

    def run(self, fn):
        self.solve = self.positivity = 0
        value = fn()
        return value, (self.solve, self.positivity)


def transiently_nonpositive_pauli():
    """Pauli channel that leaves the positive maps and returns (P arrival > 0)."""
    return families.pauli_channel(
        (lambda t: 1.5 - 2.5 * math.exp(-t), 0.5, 1.2),
        antiderivatives=(lambda t: 1.5 * t - 2.5 * (1.0 - math.exp(-t)),
                         lambda t: 0.5 * t, lambda t: 1.2 * t),
    )


class TestPerPointCallCounts:
    """The P cone's see-saw runs map by map, so a round is one point."""

    def test_p_cone_counts(self, monkeypatch):
        fam = transiently_nonpositive_pauli()
        search = Search(t_max=4.0, grid_n=12, bisect_tol=1e-4)
        counter = CallCounter(monkeypatch)
        want, want_calls = counter.run(lambda: serial_grid_delta(
            evolve.EvolutionHandle(fam), "P", 0.0, search, 1e-9))
        got, got_calls = counter.run(lambda: grid_delta(
            evolve.EvolutionHandle(fam), "P", 0.0, search, 1e-9))
        assert want > 0.0 and want_calls[1] > search.grid_n
        assert got == want and got_calls == want_calls
