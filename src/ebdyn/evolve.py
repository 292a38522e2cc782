"""Solving for the evolved maps Lambda_t and the propagators V_{t,s}.

Solver choice follows the family's structure: a closed form is used when the
family carries one; commuting generators go through the exponential of the
integrated generator; everything else integrates the matrix equation
d Lambda / dt = L_t Lambda with a high-order adaptive scheme.

``solve_many`` exists because sweeps dominate the workload: the commuting
path accumulates the generator antiderivative incrementally across the grid
(a constant generator is diagonalized once per handle instead), and the
direct path integrates the equation once with dense evaluation
points instead of restarting from zero for every sample.
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
    """Caches evolved maps for one family under one solver choice."""

    def __init__(self, family, solver=None, rtol=None, atol=None, cache=True):
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
        self._cache = {} if cache else None
        # tau -> expm(tau L) of a constant generator, diagonalized on first use
        self._exp_l = None

    # -- single time ------------------------------------------------------

    def solve(self, t) -> superop.Superoperator:
        """The evolved map Lambda_t."""
        t = float(t)
        if t < 0.0:
            raise EbdynError("t must be nonnegative")
        if t == 0.0:
            return superop.identity(self.family.d)
        if self._cache is not None:
            hit = self._cache.get(t)
            if hit is not None:
                return hit
        if self.solver == "closed_form":
            result = self.family.closed_form.map_at(t)
        elif self.solver == "commuting_exp":
            result = self._commuting_many([t])[0]
        else:
            result = self._ode_many([t])[0]
        if self._cache is not None:
            self._cache[t] = result
        return result

    def solve_many(self, times: Sequence[float]) -> list:
        """Evolved maps on a grid, exploiting the solver's batch structure."""
        ts = [float(t) for t in times]
        if any(t < 0.0 for t in ts):
            raise EbdynError("times must be nonnegative")
        if self.solver == "closed_form":
            return [self.solve(t) for t in ts]
        if self.solver == "commuting_exp":
            return self._commuting_many(ts)
        return self._ode_many(ts)

    # -- propagators -------------------------------------------------------

    def propagator(self, t, s) -> superop.Superoperator:
        """The propagator V_{t,s} with Lambda_t = V_{t,s} o Lambda_s."""
        t, s = float(t), float(s)
        if s < 0.0 or t < s:
            raise EbdynError("need 0 <= s <= t")
        if t == s:
            return superop.identity(self.family.d)
        cf = self.family.closed_form
        if cf is not None and cf.propagator_at is not None:
            return cf.propagator_at(t, s)
        if self.family.constant:
            return self.solve(t - s)
        return self._invert_onto([self.solve(t)], s)[0]

    def propagator_many(self, times: Sequence[float], s) -> list:
        """Propagators V_{t,s} for all t in ``times`` at fixed s."""
        s = float(s)
        ts = [float(t) for t in times]
        if s < 0.0 or any(t < s for t in ts):
            raise EbdynError("need 0 <= s <= t")
        cf = self.family.closed_form
        if cf is not None and cf.propagator_at is not None:
            return [
                superop.identity(self.family.d) if t == s else cf.propagator_at(t, s)
                for t in ts
            ]
        if self.family.constant:
            return self.solve_many([t - s for t in ts])
        return self._invert_onto(self.solve_many(ts), s)

    # -- internals ----------------------------------------------------------

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

    def _commuting_many(self, ts):
        d = self.family.d
        if self.family.constant:
            if self._exp_l is None:
                self._exp_l = matcore.exp_generator(self._generator(0.0))
            exp_at = self._exp_l
        else:
            ts_sorted = sorted(ts)
            anti = dict(zip(ts_sorted, self._commuting_antiderivative_steps(ts_sorted)))

            def exp_at(t):
                return matcore.expm(anti[t])

        return [
            superop.identity(d) if t == 0.0 else superop.Superoperator(exp_at(t), d)
            for t in ts
        ]

    def _ode_many(self, ts):
        d = self.family.d
        d2 = d * d
        uniq = sorted({t for t in ts if t > 0.0})
        if not uniq:
            return [superop.identity(d) for _ in ts]

        def rhs(t, y):
            return (self._generator(t) @ y.reshape(d2, d2)).ravel()

        y0 = np.eye(d2, dtype=complex).ravel()
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
        table = {
            t: superop.Superoperator(sol.y[:, k].reshape(d2, d2), d)
            for k, t in enumerate(uniq)
        }
        return [
            superop.identity(d) if t == 0.0 else table[t] for t in ts
        ]

    def _invert_onto(self, lambdas_t, s):
        lam_s = self.solve(s).matrix
        cond = float(np.linalg.cond(lam_s))
        if not np.isfinite(cond) or cond > tolerances.SINGULAR_COND_LIMIT:
            raise SingularMapError(
                f"Lambda_s at s={s:g} is numerically singular (cond {cond:.3e})"
            )
        out = []
        for lam_t in lambdas_t:
            # V Lambda_s = Lambda_t  =>  V^T = solve(Lambda_s^T, Lambda_t^T)
            v = np.linalg.solve(lam_s.T, lam_t.matrix.T).T
            out.append(superop.Superoperator(v, self.family.d))
        return out


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
