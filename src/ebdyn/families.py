"""Catalog of time-local generator families and their closed-form solutions.

A family bundles the generator t -> L_t (as a superoperator matrix) with
structural flags the solvers and certificate machinery rely on: whether the
generators at different times commute, whether the family is a semigroup,
whether the propagators are known to be completely positive, and, when one
exists, a closed-form solution for the evolved map itself.

Closed forms are stored as spectral data where the family admits fixed
spectral components,

    Lambda_t = sum_k c_k(t) Q_k,

with idempotent superoperators Q_k and scalar trajectories c_k(t) that
broadcast over an array of times; ``map_at`` sums the row of one time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.integrate

from . import classify, matcore, superop
from .errors import (
    CovarianceViolationError,
    DimensionMismatchError,
    EbdynError,
    InvalidRateMatrixError,
    InvalidStateError,
    NonHermitianHamiltonianError,
    SingularMapError,
)

__all__ = [
    "ClosedFormSolution",
    "GeneratorFamily",
    "gkls",
    "pauli_channel",
    "pauli_p_divisible",
    "eternal_nm",
    "phase_covariant",
    "depolarizing",
    "detailed_balance",
    "floquet_product",
    "pure_decoherence",
    "diagonally_covariant",
]


@dataclass(frozen=True, eq=False)
class ClosedFormSolution:
    """Exact solution data for a generator family.

    ``map_at(t)`` is always usable.  The spectral fields are optional: when
    ``components`` (the Q_k) is set, ``coefficients`` gives the trajectories
    c_k(t), a row ``(K,)`` for a scalar t and rows ``(N, K)`` for an array of
    times (an overflow raises ``FloatingPointError``), and
    ``asymptotic_coefficients`` their limits (None when a limit must be found
    numerically).  ``diverges`` marks families whose trajectories are
    unbounded, so no asymptotic map exists.  ``limit_cycle(t)`` is the phase
    t of a periodic attractor; its phases must be unitary conjugates of one
    another, so that one phase carries the cone witnesses of every phase,
    and each must have the trace form X -> tr(X) w_t, so that it absorbs the
    trace preserving Lambda_s^-1 and is the tail of the propagators from
    every start time s, with no inverse.  ``breakpoints`` are the times b
    at which Lambda_t jumps, taking the value past the jump from t = b on;
    a bisection whose bracket holds one predicts its crossing there.
    """

    map_at: Callable[[float], superop.Superoperator]
    components: tuple | None = None
    coefficients: Callable[[float | np.ndarray], np.ndarray] | None = None
    asymptotic_coefficients: np.ndarray | None = None
    limit_cycle: Callable[[float], superop.Superoperator] | None = None
    period: float | None = None
    propagator_at: Callable[[float, float], superop.Superoperator] | None = None
    propagator_tail_witness: Callable[[float], float] | None = None
    ppt_arrival_time: float | None = None
    witness_single_crossing: bool = False
    diverges: bool = False
    breakpoints: tuple = ()


@dataclass(frozen=True, eq=False)
class GeneratorFamily:
    """A time-local generator t -> L_t with structural metadata."""

    d: int
    kind: str
    generator_matrix: Callable[[float], np.ndarray] = field(repr=False)
    commutative: bool = False
    constant: bool = False
    closed_form: ClosedFormSolution | None = None
    stationary_state: np.ndarray | None = None
    cp_divisible: bool = False
    params: dict = field(default_factory=dict)

    def evaluate(self, t) -> superop.Superoperator:
        """The generator L_t as a superoperator."""
        return superop.Superoperator(self.generator_matrix(float(t)), self.d)


# ---------------------------------------------------------------------------
# building blocks


def _hamiltonian_part(h):
    """Superoperator matrix of rho -> -i [H, rho]."""
    h = matcore.as_matrix(h, square=True)
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * (matcore.kron(eye, h) - matcore.kron(h.T, eye))


def _dissipators(ops, d):
    """Stack ``(K, d^2, d^2)`` of the superoperator matrices of
    rho -> V rho V^dag - {V^dag V, rho}/2 for the K jump operators ``ops``.

    Entry for entry the Kronecker form kron(V*, V) - 0.5 * (kron(I, V^dag V) +
    kron((V^dag V)^T, I)): each V^dag V is the product of the operator as
    given, and the Kronecker products are broadcasts over the stack, combined
    in place in that order.
    """
    ops = [matcore.as_matrix(v, square=True) for v in ops]
    k = len(ops)
    vv = np.array([v.conj().T @ v for v in ops], dtype=complex).reshape(k, d, d)
    v = np.array(ops, dtype=complex).reshape(k, d, d)
    eye = np.eye(d, dtype=complex)[None]

    def kron(a, b):
        return np.multiply(a[:, :, None, :, None], b[:, None, :, None, :], order="C")

    out, anti = kron(v.conj(), v), kron(eye, vv)
    anti += kron(vv.swapaxes(1, 2), eye)
    anti *= 0.5
    out -= anti
    return out.reshape(k, d * d, d * d)


def _built_once(m):
    """The generator t -> m of a constant family, ``m`` made read-only."""
    m.setflags(write=False)
    return lambda t: m


def _spectral(d, components, rows, **fields):
    """The closed form Lambda_t = sum_k c_k(t) Q_k; ``rows`` maps times ``(N,)``
    to coefficients ``(N, K)``, with overflow raising as in ``math.exp``.  A
    scalar time is an array of one (numpy scalars take other kernels: ``**``
    differs in the last bit), so a row is bitwise the same in a grid and alone.
    """
    if not isinstance(components, superop.SpectralComponents):
        components = superop.SpectralComponents(components)

    def coefficients(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="raise"):
            return rows(t.reshape(-1)).reshape(t.shape + (len(components),))

    def map_at(t):
        return superop.spectral_sum(coefficients(float(t)), components, d)

    return ClosedFormSolution(
        map_at=map_at, components=components, coefficients=coefficients, **fields)


class _Rate:
    """A scalar rate, either constant or a callable of time.

    Carries an antiderivative: exact for constants, the supplied one when
    given, adaptive quadrature otherwise.
    """

    def __init__(self, value, antiderivative=None):
        if callable(value):
            self.func = value
            self.constant = None
        else:
            c = float(value)
            self.func = lambda t: c
            self.constant = c
        self._anti = antiderivative

    def __call__(self, t):
        return float(self.func(t))

    def integral(self, t):
        if self._anti is None and self.constant is not None:
            return self.constant * t
        at = self._anti or self._quad
        return np.array([float(at(x)) for x in t])

    def _quad(self, t):
        value, _ = scipy.integrate.quad(
            self.func, 0.0, t, epsabs=1e-10, epsrel=1e-10, limit=200
        )
        return value


def _check_trace_annihilating(gen, d, constant=False):
    lid = matcore.vec(np.eye(d, dtype=complex)).conj()
    # a constant generator is evaluated once
    for t in (0.0,) if constant else (0.0, 0.37 * 3.0, 0.71 * 3.0, 3.0):
        m = gen(t)
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(lid @ m).max()) > 1e-10 * scale:
            raise EbdynError(f"generator does not annihilate the trace at t={t:g}")


def _sampled_commutative(gen, times=(0.31, 0.9, 2.17)) -> bool:
    mats = [gen(t) for t in times]
    scale = max(1.0, max(float(np.abs(m).max()) for m in mats))
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            if float(np.abs(comm).max()) > 1e-9 * scale * scale:
                return False
    return True


def _sampled_nonnegative(rates, times=np.linspace(0.0, 10.0, 41)) -> bool:
    return all(r(t) >= -1e-12 for r in rates for t in times)


# ---------------------------------------------------------------------------
# generic GKLS


def gkls(hamiltonian, lindblads) -> GeneratorFamily:
    """Generator L_t(rho) = -i[H, rho] + sum_k g_k(t) D[V_k](rho).

    Parameters
    ----------
    hamiltonian : array_like
        Hermitian d x d matrix.
    lindblads : sequence of (V_k, g_k)
        Jump operators with rates; each rate is a number or a callable of t.
    """
    h = matcore.as_matrix(hamiltonian, square=True)
    if not matcore.is_hermitian(h, tol=1e-10):
        raise NonHermitianHamiltonianError("Hamiltonian must be Hermitian")
    d = h.shape[0]
    ops = []
    rates = []
    for v, g in lindblads:
        v = matcore.as_matrix(v, square=True)
        if v.shape[0] != d:
            raise DimensionMismatchError("jump operator dimension mismatch")
        ops.append(v)
        rates.append(_Rate(g))
    diss = _dissipators(ops, d)
    # the leading run of constant rates is summed into the Hamiltonian part
    # once, in the order of the terms
    lead = next((k for k, r in enumerate(rates) if r.constant is None), len(rates))
    base = _hamiltonian_part(h)
    for r, dmat in zip(rates[:lead], diss[:lead]):
        base += r.constant * dmat
    constant = lead == len(rates)
    if constant:
        gen = _built_once(base)
    else:
        first, first_mat = rates[lead], diss[lead]
        rest = list(zip(rates[lead + 1:], diss[lead + 1:]))

        def gen(t):
            # first term plus the sum so far: IEEE addition commutes, so this
            # is bitwise the sum so far plus the first term
            m = first(t) * first_mat
            m += base
            for r, dmat in rest:
                m += r(t) * dmat
            return m

    _check_trace_annihilating(gen, d, constant)
    if constant:
        commutative = True
        cp_div = all(r.constant >= 0.0 for r in rates)
        basis = "constant_rates"
    else:
        commutative = _sampled_commutative(gen)
        cp_div = _sampled_nonnegative(rates)
        basis = "sampled_rates"
    return GeneratorFamily(
        d=d,
        kind="gkls",
        generator_matrix=gen,
        commutative=commutative,
        constant=constant,
        closed_form=None,
        stationary_state=None,
        cp_divisible=cp_div,
        params={"n_lindblads": len(ops), "cp_divisible_basis": basis},
    )


# ---------------------------------------------------------------------------
# qubit Pauli families


def _pauli_components():
    comps = []
    for s in matcore.PAULIS:
        v = matcore.vec(s)
        comps.append(0.5 * np.outer(v, v.conj()))
    return tuple(comps)


_PAULI_PAIRS = ((1, 2), (0, 2), (0, 1))  # complementary index pairs


def pauli_channel(gammas, antiderivatives=None) -> GeneratorFamily:
    """Qubit generator L_t(rho) = sum_k g_k(t) (s_k rho s_k - rho).

    The evolved map has the fixed spectral components (tr s_k rho) s_k / 2
    with trajectories

        c_k(t) = exp(-2 [G_i(t) + G_j(t)]),   {i, j} = the other two indices,

    where G_k is the antiderivative of g_k (supplied, or computed by
    quadrature for callable rates).

    Parameters
    ----------
    gammas : length-3 sequence
        Rates g_1, g_2, g_3, numbers or callables of t.
    antiderivatives : length-3 sequence of callables, optional
        Exact antiderivatives G_k with G_k(0) = 0.
    """
    if len(gammas) != 3:
        raise DimensionMismatchError("need exactly three rates")
    if antiderivatives is None:
        antiderivatives = (None, None, None)
    rates = [_Rate(g, a) for g, a in zip(gammas, antiderivatives)]
    comps = _pauli_components()
    diss = [matcore.kron(s.conj(), s) - np.eye(4, dtype=complex) for s in matcore.PAULIS[:3]]

    def gen(t):
        m = np.zeros((4, 4), dtype=complex)
        for r, dmat in zip(rates, diss):
            m += r(t) * dmat
        return m

    def rows(t):
        g = [r.integral(t) for r in rates]
        c = [np.exp(-2.0 * (g[i] + g[j])) for i, j in _PAULI_PAIRS]
        return np.array(c + [np.ones_like(t)], dtype=complex).T

    constant = all(r.constant is not None for r in rates)
    asym = None
    diverges = False
    if constant:
        asym = np.empty(4, dtype=complex)
        for k, (i, j) in enumerate(_PAULI_PAIRS):
            s_k = rates[i].constant + rates[j].constant
            if s_k > 1e-12:
                asym[k] = 0.0
            elif s_k >= -1e-12:
                asym[k] = 1.0
            else:
                diverges = True
        asym[3] = 1.0
        if diverges:
            asym = None
        cp_div = all(r.constant >= 0.0 for r in rates)
    else:
        cp_div = _sampled_nonnegative(rates)
    cf = _spectral(2, comps, rows, asymptotic_coefficients=asym, diverges=diverges)
    return GeneratorFamily(
        d=2,
        kind="pauli",
        generator_matrix=gen,
        commutative=True,
        constant=constant,
        closed_form=cf,
        stationary_state=np.eye(2, dtype=complex) / 2.0,
        cp_divisible=cp_div,
        params={"rates": [r.constant for r in rates]},
    )


def pauli_p_divisible(family: GeneratorFamily, times) -> bool:
    """Whether all pairwise rate sums g_i + g_j are nonnegative on ``times``.

    For Pauli families this is equivalent to P-divisibility of the evolution.
    """
    if family.kind not in ("pauli", "eternal_nm"):
        raise EbdynError("P-divisibility test is specific to Pauli families")
    gen = family.generator_matrix
    for t in times:
        m = gen(t)
        # recover the rates from the generator's action on the Pauli basis:
        # L(s_k) = -2 (g_i + g_j) s_k
        for k, s in enumerate(matcore.PAULIS[:3]):
            lam = np.vdot(matcore.vec(s), m @ matcore.vec(s)) / 2.0
            if lam.real > 4e-12:
                return False
    return True


def eternal_nm(alpha) -> GeneratorFamily:
    """Pauli family with rates (a/2, a/2, -(a/2) tanh t).

    The third rate is negative for every t > 0, yet the evolved map is
    completely positive for all times; the spectral trajectories are

        c_1 = c_2 = ((1 + e^{-2t}) / 2)^a,   c_3 = e^{-2 a t},   c_4 = 1,

    with limits (2^-a, 2^-a, 0, 1).  The propagators' witness limit as
    t -> infinity is included.
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise EbdynError("alpha must be positive")
    # the generator and components of the Pauli family; its own rows are exact
    base = pauli_channel((alpha / 2.0, alpha / 2.0, lambda t: -(alpha / 2.0) * math.tanh(t)))
    comps = base.closed_form.components

    def rows(t):
        c12 = ((1.0 + np.exp(-2.0 * t)) / 2.0) ** alpha
        return np.array([c12, c12, np.exp(-2.0 * alpha * t), np.ones_like(t)], dtype=complex).T

    def tail_witness(s):
        # limit of the propagator's smallest Choi / partial-transpose
        # eigenvalue as t -> infinity, at fixed s
        return 0.5 - (1.0 + math.exp(-2.0 * s)) ** (-alpha)

    cf = _spectral(
        2, comps, rows,
        asymptotic_coefficients=np.array(
            [2.0 ** -alpha, 2.0 ** -alpha, 0.0, 1.0], dtype=complex
        ),
        propagator_tail_witness=tail_witness,
        # both Choi witnesses are increasing in t for alpha >= 1
        witness_single_crossing=alpha >= 1.0,
    )
    return GeneratorFamily(
        d=2,
        kind="eternal_nm",
        generator_matrix=base.generator_matrix,
        commutative=True,
        constant=False,
        closed_form=cf,
        stationary_state=np.eye(2, dtype=complex) / 2.0,
        cp_divisible=False,
        params={"alpha": alpha},
    )


# ---------------------------------------------------------------------------
# phase-covariant qubit semigroup


def phase_covariant(omega_freq, gamma_plus, gamma_minus, gamma_z) -> GeneratorFamily:
    """Qubit semigroup with absorption, emission and dephasing channels.

    L(rho) = -i (w/2) [s_z, rho] + g+ D[s_+] + g- D[s_-] + g_z D[s_z].

    Populations relax toward (p+, p-) = (g+, g-)/(g+ + g-) at rate
    G_L = g+ + g-; coherences decay at rate G_T = G_L/2 + 2 g_z with phase
    rotation w.  Rates outside the positivity domain are accepted and only
    flagged in ``params``.  With G_L = 0 but g+ = -g- != 0 the populations
    have a Jordan block, p+(t) = p+(0) + g+ t; such a family has no spectral
    closed form and is evolved through the exponential of its generator.
    """
    w = float(omega_freq)
    gp, gm, gz = float(gamma_plus), float(gamma_minus), float(gamma_z)
    gl = gp + gm
    gt = 0.5 * gl + 2.0 * gz
    sigma_p = np.array([[0, 1], [0, 0]], dtype=complex)
    sigma_m = sigma_p.conj().T
    diss = _dissipators((sigma_p, sigma_m, matcore.PAULI_Z), 2)
    gen_matrix = (
        _hamiltonian_part(0.5 * w * matcore.PAULI_Z)
        + gp * diss[0]
        + gm * diss[1]
        + gz * diss[2]
    )

    def gen(t):
        return gen_matrix

    # populations relax toward (p+, p-) (or run away from it when G_L < 0);
    # with G_L = 0 both components have coefficient 1 and any split will do
    pp, pm = (gp / gl, gm / gl) if gl != 0.0 else (0.5, 0.5)
    pops = np.diag([pp, pm]).astype(complex)
    q1 = np.outer(matcore.vec(pops), matcore.vec(np.eye(2, dtype=complex)).conj())
    x2 = np.diag([1.0, -1.0]).astype(complex)
    y2 = np.diag([pm, -pp]).astype(complex)
    q2 = np.outer(matcore.vec(x2), matcore.vec(y2).conj())
    q3 = np.zeros((4, 4), dtype=complex)
    q3[1, 1] = 1.0
    q4 = np.zeros((4, 4), dtype=complex)
    q4[2, 2] = 1.0
    comps = (q1, q2, q3, q4)

    def rows(t):
        return np.array([np.ones_like(t), np.exp(-gl * t), np.exp(-(gt - 1j * w) * t),
                         np.exp(-(gt + 1j * w) * t)], dtype=complex).T

    diverges = gl < 0.0 or gt < 0.0 or (gt == 0.0 and w != 0.0)
    asym = None
    if not diverges:
        asym = np.array(
            [
                1.0,
                0.0 if gl > 0.0 else 1.0,
                0.0 if gt > 0.0 else 1.0,
                0.0 if gt > 0.0 else 1.0,
            ],
            dtype=complex,
        )
    # G_L = 0 with g+ != 0 is a Jordan block of the populations; near it the
    # projector weights g+/G_L blow up and P + e^{-G_L t}(I - P) cancels, so
    # such families run on the generator's exponential as well
    jordan_block = gp != 0.0 and abs(gl) <= 1e-8 * max(abs(gp), abs(gm))
    cf = None if jordan_block else _spectral(
        2, comps, rows, asymptotic_coefficients=asym, diverges=diverges)
    positive_domain = gp >= 0.0 and gm >= 0.0 and gz >= -0.5 * math.sqrt(max(gp * gm, 0.0))
    return GeneratorFamily(
        d=2,
        kind="phase_covariant",
        generator_matrix=gen,
        commutative=True,
        constant=True,
        closed_form=cf,
        stationary_state=pops if gl > 0.0 else None,
        cp_divisible=gp >= 0.0 and gm >= 0.0 and gz >= 0.0,
        params={
            "omega_freq": w,
            "gamma_plus": gp,
            "gamma_minus": gm,
            "gamma_z": gz,
            "longitudinal_rate": gl,
            "transverse_rate": gt,
            "positive_domain": positive_domain,
        },
    )


# ---------------------------------------------------------------------------
# generalized depolarizing


def depolarizing(gamma, omega) -> GeneratorFamily:
    """Relaxation straight toward a fixed state: L(rho) = g (tr(rho) w - rho).

    The solution is Lambda_t = e^{-g t} id + (1 - e^{-g t}) P_w.  When w is
    strictly positive the partial-transpose witness crosses zero exactly once,
    at

        tau = (1/g) ln(1 + 1/sqrt(min_{i<j} w_i w_j)),

    with w_i the eigenvalues of w; the time is stored on the closed form.
    """
    g = float(gamma)
    if g <= 0.0:
        raise InvalidStateError("gamma must be positive")
    w = matcore.as_matrix(omega, square=True)
    if not matcore.is_hermitian(w, tol=1e-10):
        raise InvalidStateError("omega must be Hermitian")
    if abs(np.trace(w) - 1.0) > 1e-10:
        raise InvalidStateError("omega must have unit trace")
    evals = np.linalg.eigvalsh(w)
    if evals[0] < -1e-10:
        raise InvalidStateError("omega must be positive semi-definite")
    d = w.shape[0]
    proj = classify.projector_onto_state(w).matrix
    eye = np.eye(d * d, dtype=complex)
    gen_matrix = g * (proj - eye)

    def gen(t):
        return gen_matrix

    def rows(t):
        return np.array([np.ones_like(t), np.exp(-g * t)], dtype=complex).T

    interior = evals[0] > 1e-12
    tau = None
    if interior:
        pair_min = float(evals[0] * evals[1])  # two smallest eigenvalues
        tau = math.log(1.0 + 1.0 / math.sqrt(pair_min)) / g
    cf = _spectral(
        d, (proj, eye - proj), rows,
        asymptotic_coefficients=np.array([1.0, 0.0], dtype=complex),
        ppt_arrival_time=tau,
        witness_single_crossing=interior,
    )
    return GeneratorFamily(
        d=d,
        kind="depolarizing",
        generator_matrix=gen,
        commutative=True,
        constant=True,
        closed_form=cf,
        stationary_state=w,
        cp_divisible=True,
        params={"gamma": g, "omega_eigenvalues": [float(x) for x in evals]},
    )


# ---------------------------------------------------------------------------
# detailed balance


def detailed_balance(hamiltonian, jumps, beta) -> GeneratorFamily:
    """Thermal generator with KMS-weighted forward and backward processes.

    Parameters
    ----------
    hamiltonian : array_like
        Hermitian d x d matrix.
    jumps : sequence of (V, w)
        Energy-resolved jump operators with their Bohr frequencies w >= 0;
        each V must satisfy e^{iHt} V e^{-iHt} = e^{-iwt} V.
    beta : float
        Inverse temperature, beta >= 0.

    The generator is -i[H, .] + sum (D[V] + e^{-beta w} D[V^dag]); its kernel
    contains the Gibbs state of H at inverse temperature beta, which is
    checked at construction.
    """
    h = matcore.as_matrix(hamiltonian, square=True)
    if not matcore.is_hermitian(h, tol=1e-10):
        raise NonHermitianHamiltonianError("Hamiltonian must be Hermitian")
    beta = float(beta)
    if beta < 0.0:
        raise EbdynError("beta must be nonnegative")
    d = h.shape[0]
    energies, basis = matcore.herm_eig(h)
    # e^{iHt} at the covariance test times, shared by every jump
    unitaries = [(t, (basis * np.exp(1j * energies * t)) @ basis.conj().T) for t in (0.5, 1.0)]

    gen_matrix = _hamiltonian_part(h)
    freqs = []
    for v, w in jumps:
        v = matcore.as_matrix(v, square=True)
        if v.shape[0] != d:
            raise DimensionMismatchError("jump operator dimension mismatch")
        w = float(w)
        if w < -1e-12:
            raise EbdynError("Bohr frequencies must be nonnegative")
        scale = max(1.0, float(np.abs(v).max()))
        for t, u in unitaries:
            dev = np.abs(u @ v @ u.conj().T - np.exp(-1j * w * t) * v).max()
            if dev > 1e-8 * scale:
                raise CovarianceViolationError(
                    f"jump operator violates covariance at w={w:g} (dev {dev:.2e})"
                )
        # in place, operation for operation gen + D[V] + e^{-beta w} D[V^dag]; one
        # stack per jump, as a stack of all jumps outgrows the cache from d = 6
        forward, backward = _dissipators((v, v.conj().T), d)
        backward *= math.exp(-beta * w)
        gen_matrix += forward
        gen_matrix += backward
        freqs.append(w)

    shifted = -beta * (energies - energies.min())
    gibbs_diag = np.exp(shifted)
    gibbs_diag /= gibbs_diag.sum()
    gibbs = (basis * gibbs_diag) @ basis.conj().T
    residual = float(np.abs(gen_matrix @ matcore.vec(gibbs)).max())
    if residual > 1e-9 * max(1.0, float(np.abs(gen_matrix).max())):
        raise CovarianceViolationError(
            f"Gibbs state is not stationary (residual {residual:.2e})"
        )

    def gen(t):
        return gen_matrix

    return GeneratorFamily(
        d=d,
        kind="detailed_balance",
        generator_matrix=gen,
        commutative=True,
        constant=True,
        closed_form=None,
        stationary_state=gibbs,
        cp_divisible=True,
        params={"beta": beta, "bohr_frequencies": freqs},
    )


# ---------------------------------------------------------------------------
# periodic Floquet product


def floquet_product(p_of_t, period, core, dp_of_t=None) -> GeneratorFamily:
    """Evolution of the product form Lambda_t = P_t o e^{tX}.

    Parameters
    ----------
    p_of_t : callable
        t -> unitary d x d matrix p_t with p_0 = I and period ``period``;
        P_t is the conjugation rho -> p_t rho p_t^dag.
    period : float
        Period of ``p_of_t``.
    core : GeneratorFamily
        Constant family supplying X.
    dp_of_t : callable, optional
        Exact derivative of ``p_of_t``; a central difference is used when
        absent (only the time-local generator needs it, not the closed form).

    When the core has a unique full-rank stationary state w, the evolved map
    approaches the periodic limit cycle Z_t = P_{w(t)} with w(t) = p_t w
    p_t^dag, available as ``closed_form.limit_cycle``.

    The core is kept as ``params["core"]``: the propagators
    V_{t,s} = P_t o e^{(t-s)X} o P_s^-1 differ from the core semigroup only by
    unitary conjugations on the input and the output, so they share its
    CP, coCP, PPT and EB witnesses.
    """
    if not core.constant:
        raise EbdynError("core family must be constant")
    period = float(period)
    if period <= 0.0:
        raise EbdynError("period must be positive")
    d = core.d
    x = core.generator_matrix(0.0)
    p0 = matcore.as_matrix(p_of_t(0.0), square=True)
    if float(np.abs(p0 - np.eye(d)).max()) > 1e-10:
        raise EbdynError("p_of_t(0) must be the identity")
    for t in (period, 0.33 * period, 0.77 * period):
        pt = matcore.as_matrix(p_of_t(t), square=True)
        if float(np.abs(pt @ pt.conj().T - np.eye(d)).max()) > 1e-10:
            raise EbdynError(f"p_of_t({t:g}) is not unitary")
    if float(np.abs(matcore.as_matrix(p_of_t(period)) - p0).max()) > 1e-8:
        raise EbdynError("p_of_t is not periodic with the declared period")

    exp_x = matcore.exp_generator(x)

    def map_at(t):
        pm = matcore.as_matrix(p_of_t(t), square=True)
        return superop.Superoperator(matcore.kron(pm.conj(), pm) @ exp_x(t), d)

    def propagator_at(t, s):
        pt = matcore.as_matrix(p_of_t(t), square=True)
        ps = matcore.as_matrix(p_of_t(s), square=True)
        inv = matcore.kron(ps.T, ps.conj().T)
        return superop.Superoperator(
            matcore.kron(pt.conj(), pt) @ exp_x(t - s) @ inv, d
        )

    omega = core.stationary_state
    if omega is None:
        omega = _kernel_state(x, d)
    limit_cycle = None
    if omega is not None:
        def limit_cycle(t):
            pm = matcore.as_matrix(p_of_t(t), square=True)
            return classify.projector_onto_state(pm @ omega @ pm.conj().T)

    if dp_of_t is None:
        h = 1e-6 * max(1.0, period)

        def dp_of_t(t, _h=h):
            pa = matcore.as_matrix(p_of_t(t + _h), square=True)
            pb = matcore.as_matrix(p_of_t(t - _h), square=True)
            return (pa - pb) / (2.0 * _h)

    def gen(t):
        pm = matcore.as_matrix(p_of_t(t), square=True)
        pd = matcore.as_matrix(dp_of_t(t), square=True)
        pmat = matcore.kron(pm.conj(), pm)
        pinv = matcore.kron(pm.T, pm.conj().T)
        pdot = matcore.kron(pd.conj(), pm) + matcore.kron(pm.conj(), pd)
        return pdot @ pinv + pmat @ x @ pinv

    cf = ClosedFormSolution(
        map_at=map_at,
        limit_cycle=limit_cycle,
        period=period,
        propagator_at=propagator_at,
    )
    return GeneratorFamily(
        d=d,
        kind="floquet_product",
        generator_matrix=gen,
        commutative=False,
        constant=False,
        closed_form=cf,
        stationary_state=None,
        cp_divisible=core.cp_divisible,
        params={"period": period, "core": core},
    )


def _kernel_state(gen_matrix, d):
    """State spanning the generator kernel, or None when not unique."""
    w, v = np.linalg.eig(gen_matrix)
    scale = max(1.0, float(np.abs(gen_matrix).max()))
    idx = np.where(np.abs(w) <= 1e-9 * scale)[0]
    if len(idx) != 1:
        return None
    return matcore.unit_trace_hermitian(v[:, idx[0]], d, 1e-10)


# ---------------------------------------------------------------------------
# pure decoherence and its diagonally covariant extension


def _as_matrix_rate(a):
    """Constant matrix or callable t -> matrix, normalized to (func, const)."""
    if callable(a):
        return a, None
    m = matcore.as_matrix(a, square=True)
    return (lambda t: m), m


def _dephasing_rates(h, a):
    """``(d, ell, constant)`` of the dephasing generator L(E_ij) = l_ij(t) E_ij:
    ``ell(t)`` is the d x d matrix of the l_ij (zero diagonal) and ``constant``
    whether it does not depend on t.  Validates ``h`` and ``a`` as
    :func:`pure_decoherence` documents them."""
    a_func, a_const = _as_matrix_rate(a)
    a0 = matcore.as_matrix(a_func(0.0), square=True)
    d = a0.shape[0]
    if h is None:
        h = [0.0] * d
    if len(h) != d:
        raise DimensionMismatchError("h must have one entry per level")
    h_rates = [_Rate(x) for x in h]
    for t in (0.0, 0.4, 1.3):
        at = matcore.as_matrix(a_func(t), square=True)
        if not matcore.is_hermitian(at, tol=1e-10):
            raise InvalidRateMatrixError(f"a({t:g}) is not Hermitian")
        if np.linalg.eigvalsh((at + at.conj().T) / 2.0)[0] < -1e-10:
            raise InvalidRateMatrixError(f"a({t:g}) is not positive semi-definite")
        if a_const is not None:
            break

    def ell(t):
        at = matcore.as_matrix(a_func(t), square=True)
        hv = np.array([r(t) for r in h_rates])
        diag = np.real(np.diag(at))
        m = -1j * (hv[:, None] - hv[None, :]) + at - 0.5 * (
            diag[:, None] + diag[None, :]
        )
        np.fill_diagonal(m, 0.0)
        return m

    constant = a_const is not None and all(r.constant is not None for r in h_rates)
    return d, ell, constant


def pure_decoherence(h=None, a=None, cutoff=None) -> GeneratorFamily:
    """Hamiltonian-diagonal dephasing: the map multiplies rho entrywise.

    The generator acts on matrix units as L(E_ij) = l_ij(t) E_ij with

        l_ij = -i (h_i - h_j) + a_ij - (a_ii + a_jj) / 2,

    so the solution is a Schur multiplier with entries
    exp(integral_0^t l_ij).  The decoherence matrix a(t) must be Hermitian
    and positive semi-definite.

    Parameters
    ----------
    h : sequence of numbers or callables, optional
        Level energies h_i(t); zero when omitted.
    a : array_like or callable
        Decoherence rate matrix, constant or time dependent.
    cutoff : float, optional
        Time t_* past which all coherences are treated as exactly zero; the
        map becomes the (non-invertible) projection onto the diagonal and the
        family is eventually entanglement breaking by construction.
    """
    d, ell, constant = _dephasing_rates(h, a)
    if cutoff is not None:
        cutoff = float(cutoff)
        if cutoff <= 0.0:
            raise EbdynError("cutoff must be positive")

    if constant:
        ell0 = ell(0.0)

        def ell_integrals(ts):
            return ts[:, None, None] * ell0
    else:
        def ell_integrals(ts):
            return np.array([
                scipy.integrate.quad_vec(
                    lambda s: ell(s).ravel(), 0.0, t, epsabs=1e-10, epsrel=1e-10)[0]
                for t in ts
            ]).reshape(len(ts), d, d)

    def rows(t):
        # the Schur multiplier exp(integral_0^t l) in the unit basis, with
        # the coherences exactly zero past the cutoff
        past = t >= cutoff if cutoff is not None else np.zeros(len(t), dtype=bool)
        lam = np.empty((len(t), d, d), dtype=complex)
        lam[past] = np.eye(d)
        lam[~past] = np.exp(ell_integrals(t[~past]))
        lam[:, range(d), range(d)] = 1.0
        return lam.swapaxes(1, 2).reshape(len(t), d * d)

    def gen(t):
        if cutoff is not None and t >= cutoff:
            raise SingularMapError("generator is singular past the coherence cutoff")
        return np.diag(ell(t).ravel(order="F"))

    # the matrix units of the superoperator diagonal
    comps = superop.SpectralComponents.diagonal_units(d * d)
    asym = None
    diverges = False
    if cutoff is not None:
        asym = np.eye(d, dtype=complex).ravel(order="F")
    elif constant:
        # each coherence decays to 0 or stays at 1 (populations: ell0 = 0);
        # a purely oscillatory one has no limit
        decays, frozen = ell0.real < -1e-12, np.abs(ell0) <= 1e-12
        diverges = not np.all(decays | frozen)
        asym = None if diverges else frozen.astype(complex).ravel(order="F")
    cf = _spectral(d, comps, rows, asymptotic_coefficients=asym, diverges=diverges,
                   breakpoints=() if cutoff is None else (cutoff,))
    return GeneratorFamily(
        d=d,
        kind="pure_decoherence",
        generator_matrix=gen,
        commutative=True,
        constant=constant and cutoff is None,
        closed_form=cf,
        stationary_state=None,
        cp_divisible=True,
        params={"cutoff": cutoff, "eventually_eb": cutoff is not None},
    )


def diagonally_covariant(h, a, b) -> GeneratorFamily:
    """Pure decoherence plus classical population transfer.

    Adds to the dephasing generator the term
    sum_{i != j} b_ij(t) (E_ij rho E_ji - {E_jj, rho}/2), a classical master
    equation on the populations with transition rates b_ij >= 0 (into i,
    out of j).

    The generator is built on the entries these terms touch: the diagonal
    (the dephasing rates, and -b_ij/2 at each unit in row or column j) and
    the transfer entries E_jj -> E_ii.  Each entry is the sum of the
    dephasing rate and the terms b_ij D[E_ij] in the order of (i, j), as in
    their Kronecker form; every other entry is zero.
    """
    d, ell, dephasing_constant = _dephasing_rates(h, a)
    b_func, b_const = _as_matrix_rate(b)
    for t in (0.0, 0.4, 1.3):
        bt = matcore.as_matrix(b_func(t), square=True)
        if bt.shape[0] != d:
            raise DimensionMismatchError("b dimension mismatch")
        off = bt - np.diag(np.diag(bt))
        if float(np.abs(off.imag).max()) > 1e-12 or float(off.real.min()) < -1e-12:
            raise InvalidRateMatrixError(f"b({t:g}) has invalid off-diagonal rates")
        if b_const is not None:
            break
    src, dst = (np.array(col) for col in zip(*[(i, j) for i in range(d)
                                               for j in range(d) if i != j]))
    n_pairs, n = len(src), d * d
    # the touched entries, flat in the d^2 x d^2 matrix: the diagonal, then
    # the transfer entries; row k holds D[E_ij] there for the k-th pair (i, j)
    touched = np.concatenate([np.arange(n) * (n + 1), src * (d + 1) * n + dst * (d + 1)])
    k, level = np.arange(n_pairs)[:, None], np.arange(d)[None, :]
    hop = np.zeros((n_pairs, n + n_pairs), dtype=complex)
    hop[k, level * d + dst[:, None]] -= 0.5
    hop[k, dst[:, None] * d + level] -= 0.5
    hop[k[:, 0], n + k[:, 0]] = 1.0

    def gen(t):
        bt = matcore.as_matrix(b_func(t), square=True)
        start = np.concatenate([ell(t).ravel(order="F"), np.zeros(n_pairs, dtype=complex)])
        terms = bt[src, dst].real[:, None] * hop
        # sequential sums over the pairs, term by term as the dense sum adds them
        entries = np.add.accumulate(np.concatenate([start[None], terms]), axis=0)[-1]
        m = np.zeros((n, n), dtype=complex)
        m.reshape(-1)[touched] = entries
        return m

    constant = dephasing_constant and b_const is not None
    if constant:
        gen = _built_once(gen(0.0))
    _check_trace_annihilating(gen, d, constant)
    return GeneratorFamily(
        d=d,
        kind="diagonally_covariant",
        generator_matrix=gen,
        commutative=True if constant else _sampled_commutative(gen),
        constant=constant,
        closed_form=None,
        stationary_state=None,
        cp_divisible=True,
        params={},
    )
