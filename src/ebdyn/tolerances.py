"""Numerical tolerances used throughout the package.

There is one primary knob, :data:`PSD_TOL`, deciding when an eigenvalue
counts as nonnegative; every cone-membership test derives from it so that
tightening or loosening the package is a one-line change.  The remaining
constants guard specific numerical routines and are not membership
tolerances.
"""

from __future__ import annotations

import numpy as np

# Cone membership: an eigenvalue w counts as nonnegative when w >= -PSD_TOL.
PSD_TOL = 1e-9

# Refutation standard: a witness below -REFUTE_FACTOR * PSD_TOL that stays
# there (or has a closed-form negative limit) refutes membership.
REFUTE_FACTOR = 10.0

# Hermiticity deviation is judged relative to the matrix's largest entry.
HERM_TOL_SCALE = 1e-10

# Eigenvector-matrix condition number above which a map is treated as
# defective (no trustworthy spectral decomposition).
DEFECTIVE_COND_LIMIT = 1e8

# Condition number above which a map is treated as non-invertible.
SINGULAR_COND_LIMIT = 1e12

# expm goes through the eigenbasis only when the eigenvector matrix is
# well-conditioned; otherwise it falls back to scaling-and-squaring.
EXPM_EIG_COND_LIMIT = 1e6

# A superoperator matrix preserves Hermiticity to rounding level when the
# imaginary part of its form in a Hermitian basis is below this, relative to
# the real part's largest entry (GKLS generators read about 1e-16).
REAL_FORM_TOL = 1e-14

# Direct integration of the evolution equation.
ODE_RTOL = 1e-11
ODE_ATOL = 1e-12


def herm_tol(m):
    """Default Hermiticity tolerance for the matrix ``m``.

    For a stack ``(N, n, n)`` it is an ``(N,)`` array, one per matrix.
    """
    m = np.asarray(m)
    scale = np.abs(m).max(axis=(-2, -1)) if m.size else 0.0
    return HERM_TOL_SCALE * np.maximum(1.0, scale)
