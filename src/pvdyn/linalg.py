"""Small dense linear-algebra helpers with flop accounting.

Thin wrappers over numpy/scipy factorizations used by the oracles and
the m x m dual solves.  They translate failures into library errors and
charge the shared flop counter so that dense baselines and recursive
algorithms are priced consistently.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import flops
from .errors import NotPositiveDefinite


def chol_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix."""
    n = a.shape[0]
    flops.add(flops.cholesky(n))
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None


def chol_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = low.shape[0]
    nrhs = 1 if b.ndim == 1 else b.shape[1]
    flops.add(flops.chol_solve(n, nrhs))
    return scipy.linalg.cho_solve((low, True), b, check_finite=False)


def solve_pd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for symmetric positive definite a."""
    return chol_solve(chol_factor(a), b)


def chol_inverse(low: np.ndarray) -> np.ndarray:
    """Explicit inverse from a Cholesky factor (standard 2n^3/3 cost)."""
    n = low.shape[0]
    flops.add((2 * n ** 3) // 3)
    inv = scipy.linalg.cho_solve((low, True), np.eye(n), check_finite=False)
    return 0.5 * (inv + inv.T)


def eigh_psd(a: np.ndarray):
    """Eigendecomposition of a symmetric matrix, flop-charged."""
    flops.add(flops.sym_eig(a.shape[0]))
    return np.linalg.eigh(a)


class SmallPD:
    """Cached factorization of a small SPD matrix (a joint-space inertia).

    Scalar 1x1 blocks are inverted directly; larger blocks hold a
    Cholesky factor.  Raises :class:`NotPositiveDefinite` if the block
    is not PD.  Callers charge flops themselves.
    """

    __slots__ = ("n", "_inv", "_low")

    def __init__(self, d: np.ndarray):
        self.n = d.shape[0]
        if self.n == 1:
            if d[0, 0] <= 0.0:
                raise NotPositiveDefinite("1x1 block is not positive")
            self._inv = 1.0 / d[0, 0]
            self._low = None
        else:
            self._inv = None
            try:
                self._low = np.linalg.cholesky(d)
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefinite(str(exc)) from None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._low is None:
            return rhs * self._inv
        return scipy.linalg.cho_solve((self._low, True), rhs, check_finite=False)
