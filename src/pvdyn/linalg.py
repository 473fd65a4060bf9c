"""Small dense linear-algebra helpers with flop accounting.

The oracles and the dual solves factor and solve many small blocks
(3x3 and 6x6 on the recursive solvers' dual paths), where the fixed
cost of a call outweighs its arithmetic.  So the helpers call LAPACK's
``dpotrf`` and ``dpotrs`` directly, the routines under
``np.linalg.cholesky`` and ``scipy.linalg.cho_solve``, without their
wrappers' checks.  A failed factorization is ``NotPositiveDefinite``.
The public helpers charge the shared flop counter so that dense
baselines and recursive algorithms are priced consistently.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from . import flops
from .errors import NotPositiveDefinite


def _factor_or_none(a: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of `a`, or None if it is not positive definite."""
    low, info = dpotrf(a, lower=1)
    return None if info else low


def _factor(a: np.ndarray) -> np.ndarray:
    low, info = dpotrf(a, lower=1)
    if info:
        raise NotPositiveDefinite(f"leading minor {info} is not positive definite")
    return low


def _solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    return dpotrs(low, b, lower=1)[0]


def chol_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix."""
    flops.add(flops.cholesky(a.shape[0]))
    return _factor(a)


def chol_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = low.shape[0]
    nrhs = 1 if b.ndim == 1 else b.shape[1]
    flops.add(flops.chol_solve(n, nrhs))
    return _solve(low, b)


def solve_pd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for symmetric positive definite a."""
    return chol_solve(chol_factor(a), b)


def chol_inverse(low: np.ndarray) -> np.ndarray:
    """Explicit inverse from a Cholesky factor (standard 2n^3/3 cost)."""
    n = low.shape[0]
    flops.add((2 * n ** 3) // 3)
    inv = _solve(low, np.eye(n))
    return 0.5 * (inv + inv.T)


def eigh_psd(a: np.ndarray):
    """Eigendecomposition of a symmetric matrix, flop-charged."""
    flops.add(flops.sym_eig(a.shape[0]))
    return np.linalg.eigh(a)

