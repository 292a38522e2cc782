"""Solving for the evolved maps Lambda_t and the propagators V_{t,s}.

Solver choice follows the family's structure: a closed form is used when the
family carries one; commuting generators go through the exponential of the
integrated generator; everything else integrates the matrix equation
d Lambda / dt = L_t Lambda with a high-order adaptive scheme.

``solve_many`` exists because sweeps dominate the workload: a spectral closed
form sum_k c_k(t) Q_k sums one array of coefficient rows (its propagators from
s have the rows c(t) / c(s)), the commuting path accumulates the generator
antiderivative incrementally across the grid (a constant generator is
diagonalized once per handle, and a whole grid is one batched exponential),
and the direct path integrates the equation once with dense evaluation
points.  Grids are stacks ``(N, d^2, d^2)``; any other propagator grid at one
start time s applies Lambda_s^-1 to the whole stack with one solve.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.integrate

from . import matcore, superop, tolerances
from .errors import EbdynError, IntegrationFailureError, SingularMapError

__all__ = ["EvolutionHandle", "solve", "solve_many", "propagator", "propagator_many"]

_SOLVERS = ("closed_form", "commuting_exp", "ode")


class EvolutionHandle:
    """Evolved maps of one family under one solver choice.

    For the life of the handle it keeps, per time, the coefficient row of a
    spectral closed form, else the solved map, and the answer to each grid
    scan it was asked, keyed by witness kind (see :meth:`_scan_result`).
    """

    def __init__(self, family, solver=None, rtol=None, atol=None):
        if solver is None:
            if family.closed_form is not None:
                solver = "closed_form"
            elif family.commutative:
                solver = "commuting_exp"
            else:
                solver = "ode"
        if solver not in _SOLVERS:
            raise EbdynError(f"unknown solver {solver!r}")
        if solver == "closed_form" and family.closed_form is None:
            raise EbdynError("family has no closed form")
        self.family = family
        self.solver = solver
        self.rtol = tolerances.ODE_RTOL if rtol is None else float(rtol)
        self.atol = tolerances.ODE_ATOL if atol is None else float(atol)
        self._cache = {}
        self._exp_l = None  # see _generator_exponential
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
        if self._spectral:
            return superop.Superoperator(self._solve_grid([t])[0], self.family.d)
        hit = self._cache.get(t)
        if hit is not None:
            return hit
        if self.solver == "closed_form":
            result = self.family.closed_form.map_at(t)
        elif self.solver == "commuting_exp":
            result = superop.Superoperator(self._commuting_many([t])[0], self.family.d)
        else:
            result = superop.Superoperator(self._ode_many([t])[0], self.family.d)
        self._cache[t] = result
        return result

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

        Scans key their answers by (scan, witness kind, start time or None,
        search, tol): cones that share a witness share the answer.  Only a
        returned result is kept; an exception propagates, and the next call
        with that key computes again.
        """
        if key not in self._scans:
            self._scans[key] = compute()
        return self._scans[key]

    def _solve_grid(self, ts):
        """The stack ``(N, d^2, d^2)`` of Lambda_t for the floats ``ts >= 0``.

        A spectral closed form sums its coefficient rows; other closed forms
        and a single time go through :meth:`solve` and its cache; other grids
        are one batched exponential or one dense integration.
        """
        if self._spectral:
            return self._spectral_sum(self._rows(ts), ts, 0.0)
        if self.solver == "closed_form" or len(ts) == 1:
            return _stack([self.solve(t).matrix for t in ts], self.family.d ** 2)
        if self.solver == "commuting_exp":
            return self._commuting_many(ts)
        return self._ode_many(ts)

    def _propagator_grid(self, ts, s):
        """The stack ``(N, d^2, d^2)`` of V_{t,s} for the floats ``ts >= s``, each
        bitwise ``propagator(t, s)`` but on dense ``ode`` or time-dependent
        ``commuting_exp`` grids and for V_{s,s} on the inversion route."""
        cf = self.family.closed_form
        if self.family.constant:
            return self._solve_grid([t - s for t in ts])
        if self._spectral:
            # the time-dependent families have orthogonal projectors Q_k, so
            # the |c_k(s)| are the singular values of Lambda_s
            row_s = self._cache[s] if s in self._cache else self._rows([s])[0]
            mags = np.abs(row_s).tolist()
            _check_invertible(max(mags) / min(mags) if min(mags) > 0.0 else np.inf, s)
            return self._spectral_sum(self._rows(ts) / row_s, ts, s)
        if cf is not None and cf.propagator_at is not None:
            d2 = self.family.d ** 2
            eye = np.eye(d2, dtype=complex)
            return _stack([eye if t == s else cf.propagator_at(t, s).matrix for t in ts], d2)
        return self._invert_onto(self._solve_grid(ts), s)

    def _rows(self, ts):
        """Coefficient rows ``(N, K)`` at the floats ``ts``, each time evaluated once."""
        cache = self._cache
        new = [t for t in ts if t not in cache]
        if len(new) == len(ts):  # every time is new, or there is none
            rows = self.family.closed_form.coefficients(new)
            cache.update(zip(new, rows))
            return rows
        if new:
            cache.update(zip(new, self.family.closed_form.coefficients(new)))
        return np.array([cache[t] for t in ts], dtype=complex)

    def _spectral_sum(self, rows, ts, start):
        """The stack sum_k rows[:, k] Q_k, exactly the identity where t == start."""
        d = self.family.d
        out = superop.spectral_sum(rows, self.family.closed_form.components, d)
        if start in ts:
            out[np.asarray(ts) == start] = np.eye(d * d)
        return out

    def _generator(self, t):
        return self.family.generator_matrix(t)

    def _commuting_antiderivative_steps(self, ts_sorted):
        """Integral of the generator from 0 to each grid time, incrementally."""
        d2 = self.family.d ** 2
        out = []
        acc = np.zeros((d2, d2), dtype=complex)
        prev = 0.0
        for t in ts_sorted:
            if t > prev:
                step, _ = scipy.integrate.quad_vec(
                    lambda u: self._generator(u).ravel(),
                    prev,
                    t,
                    epsabs=tolerances.QUAD_ABS_TOL,
                    epsrel=1e-10,
                )
                acc = acc + step.reshape(d2, d2)
                prev = t
            out.append(acc.copy())
        return out

    def _generator_exponential(self):
        """tau -> expm(tau L) of a constant generator, with the eigenvalues of L;
        diagonalized on first use, once per handle."""
        if self._exp_l is None:
            self._exp_l = matcore.exp_generator(self._generator(0.0))
        return self._exp_l

    def _commuting_many(self, ts):
        d2 = self.family.d ** 2
        if self.family.constant:
            out = self._generator_exponential()(np.array(ts, dtype=float))
        else:
            ts_sorted = sorted(ts)
            anti = dict(zip(ts_sorted, self._commuting_antiderivative_steps(ts_sorted)))
            out = _stack([matcore.expm(anti[t]) for t in ts], d2)
        out[np.array(ts) == 0.0] = np.eye(d2)  # t = 0 is the exact identity
        return out

    def _ode_many(self, ts):
        d2 = self.family.d ** 2
        eye = np.eye(d2, dtype=complex)
        uniq = sorted({t for t in ts if t > 0.0})
        if not uniq:
            return np.tile(eye, (len(ts), 1, 1))

        def rhs(t, y):
            return (self._generator(t) @ y.reshape(d2, d2)).ravel()

        y0 = eye.ravel()
        sol = scipy.integrate.solve_ivp(
            rhs,
            (0.0, uniq[-1]),
            y0,
            method="DOP853",
            t_eval=uniq,
            rtol=self.rtol,
            atol=self.atol,
        )
        if not sol.success:
            raise IntegrationFailureError(f"solve_ivp failed: {sol.message}")
        table = {t: sol.y[:, k].reshape(d2, d2) for k, t in enumerate(uniq)}
        return _stack([eye if t == 0.0 else table[t] for t in ts], d2)

    def _invert_onto(self, lam_ts, s):
        """The stack of V_{t,s} = Lambda_t o Lambda_s^-1 for a stack of Lambda_t."""
        lam_s = self.solve(s).matrix
        _check_invertible(np.linalg.cond(lam_s), s)
        # V Lambda_s = Lambda_t  =>  V^T = solve(Lambda_s^T, Lambda_t^T); the
        # columns of every Lambda_t^T side by side share one factorization
        n_t, n, _ = lam_ts.shape
        v_t = np.linalg.solve(lam_s.T, lam_ts.transpose(2, 0, 1).reshape(n, n_t * n))
        return v_t.reshape(n, n_t, n).transpose(1, 2, 0)


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
