"""Delassus-matrix (inverse operational-space inertia) algorithms.

Three producers and one consumer:

* ``pv_osim`` — the tau-independent half of the exact solver: the
  engine's inertia pass, then its coupling pass without l over the
  constraint support (``constrained.py``).  The Delassus matrix is the
  L block left at the base; crossing a floating base joint supplies the
  rank-6 base correction, a fixed base adds nothing.
* ``pv_osimr`` — the same passes over rows compressed to six per link
  (``PvWorkspace.compressed``), so that, as in PV-OSIMr, no joint
  carries more than one 6x6 block; an expansion after the pass gives
  the compressed rows their L entries.
* ``caba_osim`` — damped inverse (Lambda + mu I)^-1: the ``pv_osim``
  matrix shifted and factored at the constraint dimension, well-defined
  for rank-deficient rows since the damping keeps the system PD.
* ``delassus_apply`` / ``delassus_factor_solve`` — map constraint-space
  right-hand sides to multipliers: explicit operators factorize once
  and cache, damped operators multiply directly.

A singular joint-space inertia raises from the inertia pass, with the
engine's one rule: SingularBaseInertia at a floating base,
SingularJointInertia naming the joint anywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import flops, linalg
from .constrained import (PvWorkspace, SolverSettings, _coupling_pass, _inertia_pass,
                          _RowLayout, _seed_coupling, _setup)
from .kinematics import KinematicsCache
from .model import ConstraintSet, Model, State, check_finite


@dataclass
class DelassusOperator:
    """Either an explicit Delassus matrix or its damped inverse.

    kind "explicit" holds Lambda = J M^-1 J'; kind "damped_inverse"
    holds X ~= (Lambda + mu I)^-1.  `factorizations` counts how many
    times a factor was actually computed (it is cached after the first
    solve).
    """

    kind: str
    matrix: np.ndarray
    mu: float | None = None
    factorizations: int = 0
    _chol: np.ndarray | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def delassus_factor_solve(op: DelassusOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve Lambda x = rhs for an explicit operator (factor cached)."""
    if op.kind != "explicit":
        raise ValueError("factor_solve applies to explicit operators only")
    if op._chol is None:
        op._chol = linalg.chol_factor(op.matrix)   # NotPositiveDefinite if singular
        op.factorizations += 1
    return linalg.chol_solve(op._chol, rhs)


def delassus_apply(op: DelassusOperator, rhs: np.ndarray) -> np.ndarray:
    """Map a constraint-space right-hand side to multipliers."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[:1] != (op.m,):
        raise ValueError(f"rhs shape {rhs.shape} does not match operator dim {op.m}")
    check_finite(rhs, "rhs")
    if op.kind == "damped_inverse":
        flops.add(flops.gemm(op.m, op.m, 1))
        return op.matrix @ rhs
    return delassus_factor_solve(op, rhs)


def _coupled_delassus(model: Model, cache, cs: ConstraintSet, ws: PvWorkspace,
                      lay: _RowLayout) -> np.ndarray:
    """Lambda as the base L block of the inertia and coupling passes over
    the rows of `lay` (the workspace's ``full`` or ``compressed``)."""
    if cs.m == 0:
        return np.zeros((0, 0))
    np.copyto(ws.IA, model.plan.inertia66)
    _seed_coupling(cs, lay)
    sweep = model.plan.sweep
    _inertia_pass(model, cache, ws, sweep)
    _coupling_pass(model, cache, ws, reversed(range(len(sweep))), lay, with_l=False)
    _expand(lay)
    out = lay.L[:cs.m, :cs.m]
    return 0.5 * (out + out.T)


def pv_osim(model: Model, state: State, cs: ConstraintSet,
            ws: PvWorkspace | None = None,
            cache: KinematicsCache | None = None) -> DelassusOperator:
    """Delassus matrix as the base-level coupling block of the exact sweep."""
    ws, cache, _ = _setup(model, state, None, cs, ws, cache)
    lam = _coupled_delassus(model, cache, cs, ws, ws.full)
    return DelassusOperator("explicit", lam)


def _expand(layout: _RowLayout) -> None:
    """The L entries that each compressed link's rows R take above it,
    ancestors first.  Above the link R's rows of K are C = K[R] times the
    fresh rows V's, so over the columns that V meets L[R, cols] gains
    C L[V, cols], L[cols, R] its transpose and L[R, R] C L[V, V] C'.
    No later step reads V, so its entries are cleared."""
    K, L = layout.K, layout.L
    work = 0
    for replaced, fresh in layout.swaps:
        lv, vv = L[fresh], L[fresh[:, None], fresh]
        L[fresh] = L[:, fresh] = lv[:, fresh] = 0.0
        if not vv.any():
            continue                # V meets no moving joint
        cols = np.flatnonzero(lv.any(axis=0))
        c = K[replaced]
        g = c @ lv[:, cols]
        L[replaced[:, None], cols] += g
        L[cols[:, None], replaced] += g.T
        L[replaced[:, None], replaced] += c @ vv @ c.T
        r, k = replaced.size, cols.size
        work += flops.gemm(r, 6, k) + 2 * r * k + flops.gemm(r, 6, 6) \
            + flops.gemm(r, 6, r) + r * r
    flops.add(work)


def pv_osimr(model: Model, state: State, cs: ConstraintSet,
             ws: PvWorkspace | None = None,
             cache: KinematicsCache | None = None) -> DelassusOperator:
    """Delassus matrix by the coupling pass over rows compressed to six
    per link, as PV-OSIMr pushes one 6x6 block through each joint."""
    ws, cache, _ = _setup(model, state, None, cs, ws, cache)
    lam = _coupled_delassus(model, cache, cs, ws, ws.compressed)
    return DelassusOperator("explicit", lam)


def caba_osim(model: Model, state: State, cs: ConstraintSet,
              settings: SolverSettings | None = None,
              ws: PvWorkspace | None = None,
              cache: KinematicsCache | None = None) -> DelassusOperator:
    """Damped Delassus inverse (Lambda + mu I)^-1.

    Assembles the coupling blocks with the exact tau-independent sweep
    and factors the mu-shifted matrix at the constraint dimension, which
    keeps the grading identity X (Lambda + mu I) = I at full double
    precision even for mu far below the norm of Lambda, and stays
    well-defined for rank-deficient constraint rows.
    """
    settings = settings or SolverSettings()
    ws, cache, _ = _setup(model, state, None, cs, ws, cache)
    m = cs.m
    if m == 0:
        return DelassusOperator("damped_inverse", np.zeros((0, 0)), mu=settings.mu)
    lam = _coupled_delassus(model, cache, cs, ws, ws.full)
    shifted = lam + settings.mu * np.eye(m)
    x = linalg.chol_inverse(linalg.chol_factor(shifted))
    return DelassusOperator("damped_inverse", x, mu=settings.mu)
