"""Solving for the evolved maps Lambda_t and the propagators V_{t,s}.

Solver choice follows the family's structure: a closed form is used when the
family carries one; a constant generator goes through its exponential;
everything else integrates the matrix equation d Lambda / dt = L_t Lambda
with a high-order adaptive scheme.  Every route computes Lambda_t as a
function of t alone, whichever other times were asked, and a single time is
a grid of one point, so there is one route to Lambda_t per handle.

``solve_many`` exists because sweeps dominate the workload: a spectral closed
form sum_k c_k(t) Q_k sums one array of coefficient rows (its propagators from
s have the rows c(t) / c(s)), a constant generator is diagonalized once per
family (``GeneratorFamily.spectrum``) and a whole grid is one batched
exponential, and the direct path integrates the equation once per handle,
reading every time from the steps of that one trajectory.  Grids are stacks ``(N, d^2, d^2)``; any other
propagator grid at one start time s applies Lambda_s^-1 to the whole stack
with one solve.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.integrate
from scipy.integrate._ivp.dop853_coefficients import INTERPOLATOR_POWER as _INTERPOLATOR_POWER
from scipy.integrate._ivp.rk import Dop853DenseOutput

from . import superop, tolerances
from .errors import EbdynError, IntegrationFailureError, SingularMapError

__all__ = ["EvolutionHandle", "solve", "solve_many", "propagator", "propagator_many"]

_SOLVERS = ("closed_form", "commuting_exp", "ode")


class EvolutionHandle:
    """Evolved maps of one family under one solver choice.

    For the life of the handle it keeps, per time, the coefficient row of a
    spectral closed form (no solved map is kept per time); for ``ode``, the
    one trajectory every Lambda_t is read from (:class:`_Trajectory`); one
    record of Delta(s) per witness kind, start time, search and tolerance,
    which arrival times and divisibility scans read and grow; its
    asymptotic map, or its refusal, per horizon; the handle of its
    local-unitary core; and each Lambda_s it inverted, with its condition
    number (see :meth:`_scan_result`).
    """

    def __init__(self, family, solver=None, rtol=None, atol=None):
        if solver is None:
            if family.closed_form is not None:
                solver = "closed_form"
            elif family.constant:
                solver = "commuting_exp"
            else:
                solver = "ode"
        if solver not in _SOLVERS:
            raise EbdynError(f"unknown solver {solver!r}")
        if solver == "closed_form" and family.closed_form is None:
            raise EbdynError("family has no closed form")
        if solver == "commuting_exp" and not family.constant:
            raise EbdynError("commuting_exp needs a constant generator")
        self.family = family
        self.solver = solver
        self.rtol = tolerances.ODE_RTOL if rtol is None else float(rtol)
        self.atol = tolerances.ODE_ATOL if atol is None else float(atol)
        self._coefficient_rows = {}  # see _rows
        self._trajectory = None  # see _ode_many
        self._scans = {}  # see _scan_result
        self._spectral = solver == "closed_form" and family.closed_form.components is not None

    # -- single time ------------------------------------------------------

    def solve(self, t) -> superop.Superoperator:
        """The evolved map Lambda_t."""
        t = float(t)
        if t < 0.0:
            raise EbdynError("t must be nonnegative")
        if t == 0.0:
            return superop.identity(self.family.d)
        return superop.Superoperator(self._solve_grid([t])[0], self.family.d)

    def solve_many(self, times: Sequence[float]) -> list:
        """Evolved maps on a grid, exploiting the solver's batch structure."""
        ts = [float(t) for t in times]
        if any(t < 0.0 for t in ts):
            raise EbdynError("times must be nonnegative")
        return [superop.Superoperator(m, self.family.d) for m in self._solve_grid(ts)]

    # -- propagators -------------------------------------------------------

    def propagator(self, t, s) -> superop.Superoperator:
        """The propagator V_{t,s} with Lambda_t = V_{t,s} o Lambda_s."""
        t, s = float(t), float(s)
        if s < 0.0 or t < s:
            raise EbdynError("need 0 <= s <= t")
        if t == s:
            return superop.identity(self.family.d)
        return superop.Superoperator(self._propagator_grid([t], s)[0], self.family.d)

    def propagator_many(self, times: Sequence[float], s) -> list:
        """Propagators V_{t,s} for all t in ``times`` at fixed s."""
        s = float(s)
        ts = [float(t) for t in times]
        if s < 0.0 or any(t < s for t in ts):
            raise EbdynError("need 0 <= s <= t")
        return [superop.Superoperator(m, self.family.d) for m in self._propagator_grid(ts, s)]

    # -- internals ----------------------------------------------------------

    def _scan_result(self, key, compute):
        """``compute()``, computed once per ``key`` on this handle.

        The records of Delta(s) (``asymptotics._Scan``) are keyed by
        (witness kind, start time, search, tol): cones that share a witness
        share one record, which every entry point reads and fills in (see
        ``asymptotics._delta``); the asymptotic map, or the
        :class:`~ebdyn.errors.NoLimitError` that refuses it, by ("limit",
        horizon) (``asymptotics.asymptotic_map``); the core's handle
        (``asymptotics._fill``) by ("core",); Lambda_s and its condition
        number (:meth:`_invert_onto`) by ("inverse", s).  Only a returned
        result is kept; an exception propagates, and the next call with that
        key computes again.
        """
        kept = self._scans.get(key)  # no answer is None
        if kept is None:
            kept = self._scans[key] = compute()
        return kept

    def _solve_grid(self, ts):
        """The stack ``(N, d^2, d^2)`` of Lambda_t for the floats ``ts >= 0``.

        A spectral closed form sums its coefficient rows; another closed
        form evaluates ``map_at`` per time, with the exact identity at t = 0;
        a constant generator is one batched exponential, and the ``ode``
        route reads the handle's trajectory.
        """
        if self._spectral:
            return self._propagator_rows(ts, 0.0).maps()
        if self.solver == "closed_form":
            d2 = self.family.d ** 2
            eye = np.eye(d2, dtype=complex)
            map_at = self.family.closed_form.map_at
            return _stack([eye if t == 0.0 else map_at(t).matrix for t in ts], d2)
        if self.solver == "commuting_exp":
            return self._exponential_many(ts)
        return self._ode_many(ts)

    def _propagator_grid(self, ts, s):
        """The stack ``(N, d^2, d^2)`` of V_{t,s} for the floats ``ts >= s``, each
        bitwise ``propagator(t, s)`` but for V_{s,s} on the inversion route.
        V_{t,0} is Lambda_t: at s = 0 this is :meth:`_solve_grid`, with no
        Lambda_0 and no condition check."""
        if s == 0.0:
            return self._solve_grid(ts)
        cf = self.family.closed_form
        if self._spectral:
            return self._propagator_rows(ts, s).maps()
        if self.family.constant:
            return self._solve_grid([t - s for t in ts])
        if cf is not None and cf.propagator_at is not None:
            d2 = self.family.d ** 2
            eye = np.eye(d2, dtype=complex)
            return _stack([eye if t == s else cf.propagator_at(t, s).matrix for t in ts], d2)
        return self._invert_onto(self._solve_grid(ts), s)

    def _propagator_rows(self, ts, s):
        """The :class:`~ebdyn.superop.SpectralStack` of V_{t,s} of a spectral
        closed form for the floats ``ts >= s``: its coefficient rows, and the
        exact identity where t == s.

        A constant family has the rows of t - s; a time-dependent one the
        rows c(t) / c(s), once Lambda_s passes the condition check (its
        projectors Q_k are orthogonal, so the |c_k(s)| are the singular
        values of Lambda_s)."""
        cf, d = self.family.closed_form, self.family.d
        if s == 0.0 or self.family.constant:
            ts = [t - s for t in ts]
            return superop.SpectralStack(self._rows(ts), cf.components, np.array(ts) == 0.0, d)
        row_s = self._rows([s])[0]
        mags = np.abs(row_s).tolist()
        _check_invertible(max(mags) / min(mags) if min(mags) > 0.0 else np.inf, s)
        return superop.SpectralStack(self._rows(ts) / row_s, cf.components, np.array(ts) == s, d)

    def _rows(self, ts):
        """Coefficient rows ``(N, K)`` at the floats ``ts``, each time evaluated
        once per handle."""
        cache = self._coefficient_rows
        new = [t for t in ts if t not in cache]
        if len(new) == len(ts):  # every time is new, or there is none
            rows = self.family.closed_form.coefficients(new)
            cache.update(zip(new, rows))
            return rows
        if new:
            cache.update(zip(new, self.family.closed_form.coefficients(new)))
        return np.array([cache[t] for t in ts], dtype=complex)

    def _exponential_many(self, ts):
        """The stack of expm(t L) of the constant generator for the floats
        ``ts >= 0``, from the family's spectral record."""
        out = self.family.spectrum(np.array(ts, dtype=float))
        out[np.array(ts) == 0.0] = np.eye(self.family.d ** 2)  # t = 0 is the exact identity
        return out

    def _ode_many(self, ts):
        """The stack of Lambda_t for the floats ``ts >= 0``, read from the
        handle's one trajectory (:class:`_Trajectory`), built on first use."""
        d2 = self.family.d ** 2
        eye = np.eye(d2, dtype=complex)
        uniq = sorted({t for t in ts if t > 0.0})
        if not uniq:
            return np.tile(eye, (len(ts), 1, 1))
        if self._trajectory is None:
            # the family's callable, not a method of the handle: the solver
            # refers to itself, and through a bound method that cycle would
            # keep the handle and every step alive until a cycle collection
            self._trajectory = _Trajectory(self.family.generator_matrix, d2, self.rtol, self.atol)
        table = dict(zip(uniq, self._trajectory.at(uniq)))
        return _stack([eye if t == 0.0 else table[t].reshape(d2, d2) for t in ts], d2)

    def _invert_onto(self, lam_ts, s):
        """The stack of V_{t,s} = Lambda_t o Lambda_s^-1 for a stack of Lambda_t,
        with Lambda_s and its condition number read once per s."""
        def solved():
            lam_s = self.solve(s).matrix
            return lam_s, np.linalg.cond(lam_s)

        lam_s, cond = self._scan_result(("inverse", s), solved)
        _check_invertible(cond, s)
        # V Lambda_s = Lambda_t  =>  V^T = solve(Lambda_s^T, Lambda_t^T); the
        # columns of every Lambda_t^T side by side share one factorization
        n_t, n, _ = lam_ts.shape
        v_t = np.linalg.solve(lam_s.T, lam_ts.transpose(2, 0, 1).reshape(n, n_t * n))
        return v_t.reshape(n, n_t, n).transpose(1, 2, 0)


class _Trajectory:
    """One integration of d Lambda / dt = L_t Lambda from Lambda_0 = I with DOP853.

    The solver takes its natural steps towards t = inf, as far as the latest
    time asked for.  Each step keeps its end state and, until a time inside
    it is first read, its stage block; that read builds the step's
    interpolant (:meth:`_interpolant`), which the step keeps instead.  A time
    on a step end reads the state, any other time the interpolant of its
    step.  The steps do not depend on which times were asked, or in which
    order, so every Lambda_t is a function of t alone.
    """

    def __init__(self, generator, d2, rtol, atol):
        def rhs(t, y):
            return (generator(t) @ y.reshape(d2, d2)).ravel()

        self._solver = scipy.integrate.DOP853(
            rhs, 0.0, np.eye(d2, dtype=complex).ravel(), t_bound=np.inf,
            rtol=rtol, atol=atol)
        self._ends = []  # end time of each step; step k covers (ends[k-1], ends[k]]
        self._states = []  # vec Lambda at each step end
        self._steps = []  # per step, (t_old, h, y_old, stages) until read, then its interpolant
        self._failure = None  # the message of the step that failed

    def _cover(self, t):
        """Step until the trajectory reaches ``t``; IntegrationFailureError if a step fails."""
        solver = self._solver
        while solver.t < t:
            message = solver.step() if solver.status == "running" else self._failure
            if solver.status == "failed":
                self._failure = message
                raise IntegrationFailureError(f"DOP853 failed at t={solver.t:g}: {message}")
            self._ends.append(solver.t)
            self._states.append(solver.y)
            # a copy: the solver overwrites its stages on the next step
            self._steps.append((solver.t_old, solver.h_previous, solver.y_old, solver.K.copy()))

    def _interpolant(self, k):
        """The dense output of step ``k``, built on first use and kept.

        The arithmetic is that of ``DOP853.dense_output()`` at the end of the
        step (three extra stages, then the coefficients F), so the result is
        bitwise the same.
        """
        step = self._steps[k]
        if not isinstance(step, tuple):
            return step
        t_old, h, y_old, stages = step
        solver = self._solver
        y = self._states[k]
        kx = np.empty_like(solver.K_extended)
        kx[:len(stages)] = stages
        for s, (a, c) in enumerate(zip(solver.A_EXTRA, solver.C_EXTRA), start=len(stages)):
            dy = np.dot(kx[:s].T, a[:s]) * h
            kx[s] = solver.fun(t_old + c * h, y_old + dy)
        f = np.empty((_INTERPOLATOR_POWER, solver.n), dtype=y.dtype)
        f_old = kx[0]
        delta_y = y - y_old
        f[0] = delta_y
        f[1] = h * f_old - delta_y
        f[2] = 2 * delta_y - h * (kx[solver.n_stages] + f_old)
        f[3:] = h * np.dot(solver.D, kx)
        step = self._steps[k] = Dop853DenseOutput(t_old, self._ends[k], y_old, f)
        return step

    def at(self, times):
        """vec Lambda_t, one row per float of the ascending list ``times > 0``.

        A time on a step end reads the stored state.  Every other time is
        read in one stacked evaluation of its steps' interpolants: the
        arithmetic of ``Dop853DenseOutput``, element by element, on the
        coefficients of each row's step, so each row is bitwise what the
        step's interpolant gives.
        """
        self._cover(times[-1])
        ts = np.array(times)
        steps = np.searchsorted(self._ends, ts)
        out = np.empty((len(ts), self._solver.n), dtype=complex)
        on_end = ts == np.array(self._ends)[steps]
        for row in np.flatnonzero(on_end):
            out[row] = self._states[steps[row]]
        inside = np.flatnonzero(~on_end)
        if len(inside):
            ks, which = np.unique(steps[inside], return_inverse=True)
            dense = [self._interpolant(k) for k in ks]
            t_old = np.array([p.t_old for p in dense])[which]
            h = np.array([p.h for p in dense])[which]
            x = ((ts[inside] - t_old) / h)[:, None]
            coeffs = np.array([p.F for p in dense])  # (steps, power, n)
            y = np.zeros((len(inside), self._solver.n), dtype=complex)
            for i in range(_INTERPOLATOR_POWER):  # F in reverse, as the interpolant does
                y += coeffs[which, _INTERPOLATOR_POWER - 1 - i]
                if i % 2 == 0:
                    y *= x
                else:
                    y *= 1 - x
            y += np.array([p.y_old for p in dense])[which]
            out[inside] = y
        return out


def _check_invertible(cond, s):
    """SingularMapError unless Lambda_s, of condition number ``cond``, can be inverted."""
    if not cond <= tolerances.SINGULAR_COND_LIMIT:  # also catches inf and nan
        raise SingularMapError(f"Lambda_s at s={s:g} is numerically singular (cond {cond:.3e})")


def _stack(mats, d2):
    """A list of d2 x d2 matrices as one stack ``(N, d2, d2)``, also when empty."""
    return np.array(mats, dtype=complex).reshape(len(mats), d2, d2)


def solve(handle_or_family, t) -> superop.Superoperator:
    """Evolved map at time ``t`` (accepts a family or a handle)."""
    return _as_handle(handle_or_family).solve(t)


def solve_many(handle_or_family, times) -> list:
    """Evolved maps on a grid of times."""
    return _as_handle(handle_or_family).solve_many(times)


def propagator(handle_or_family, t, s) -> superop.Superoperator:
    """Propagator V_{t,s}."""
    return _as_handle(handle_or_family).propagator(t, s)


def propagator_many(handle_or_family, times, s) -> list:
    """Propagators V_{t,s} on a grid of t at fixed s."""
    return _as_handle(handle_or_family).propagator_many(times, s)


def _as_handle(handle_or_family) -> EvolutionHandle:
    if isinstance(handle_or_family, EvolutionHandle):
        return handle_or_family
    return EvolutionHandle(handle_or_family)
