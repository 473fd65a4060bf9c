"""Classical algorithms and dense ground truth.

RNEA (inverse dynamics), CRBA (joint-space inertia), ABA (unconstrained
forward dynamics), the branch-sparse LTL factorization family, and the
dense KKT oracle for least-constraint dynamics.  The oracle is the
grading reference for every recursive solver in the library.

RNEA and the LTL-OSIM front end run on tree levels, not per link or
per scalar: RNEA's accelerations and forces and CRBA's composite
inertias take one array step per depth level (``Model.plan``), CRBA's
off-diagonal blocks one step per hop of a batched root-path walk; the
LTL factor and its solves take one step per dof level
(``Model.dof_levels``), deepest first, since dofs at one depth never
update each other's rows.  Each charges the flops of the per-link and
per-dof recursion.

Gravity enters through the base-acceleration trick: the world "parent"
is given acceleration -g, which folds a uniform field into every sweep
without per-link gravity forces.

Sign convention, shared by every module: the generalized constraint
force aids the motion equation, M qdd = tau - h + J' lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flops, linalg
from .constrained import _aba, _own_terms, _Sweep
from .delassus import DelassusOperator
from .errors import NotPositiveDefinite
from .kinematics import (KinematicsCache, constraint_drift,
                         constraint_jacobian, forward_kinematics,
                         velocity_products)
from .model import ConstraintSet, Model, State, check_vec, dof_levels


# ---------------------------------------------------------------------------
# recursive Newton-Euler


def rnea(model: Model, state: State, qdd, f_ext=None,
         cache: KinematicsCache | None = None) -> np.ndarray:
    """Inverse dynamics: tau = M qdd + h(q, v) - J_ext' f_ext, one array
    step per depth level of ``Model.plan`` down for a and back up for f."""
    qdd = check_vec(model, qdd, "qdd")
    if cache is None:
        cache = forward_kinematics(model, state)
    plan, n, s0 = model.plan, model.n_links, model.S[0]
    qj = np.append(qdd, 0.0)[plan.slot_dof, None, None]
    a = np.empty((n, 6, 1))
    a[0] = cache.xm[0] @ -model.gravity6()[:, None] + cache.c[0] + s0 @ qj[n:, 0]
    for lv in plan.sweep[1:]:
        a[lv.links] = cache.xm[lv.links] @ a[lv.parents] + cache.c[lv.links] \
            + plan.S[lv.links] * qj[lv.links]
    f = velocity_products(model, cache)[plan.order, :, None] + plan.inertia66 @ a
    if f_ext is not None:
        f[plan.position, :, 0] -= [np.zeros(6) if fi is None else fi for fi in f_ext]
    for lv in reversed(plan.sweep[1:]):
        lv.scatter(f, cache.xm_t[lv.links] @ f[lv.links])
    tj = np.append((plan.ST @ f)[:, 0, 0], s0.T @ f[0, :, 0])
    flops.add(n * (flops.XMOT + 2 * flops.ADD6 + flops.APPLY_I) + 17 * model.nv
              + (n - 1) * (flops.XFORCE_T + flops.ADD6))
    return tj[plan.dof_slot]


def bias_force(model: Model, state: State,
               cache: KinematicsCache | None = None) -> np.ndarray:
    """h(q, v): gravity plus velocity-product generalized forces."""
    return rnea(model, state, np.zeros(model.nv), cache=cache)


# ---------------------------------------------------------------------------
# composite rigid-body algorithm


@dataclass
class MassMatrix:
    """Joint-space inertia with the tree's branch-sparsity pattern (exact
    zeros outside it); `levels` are ``model.dof_levels(dof_parent)``."""

    matrix: np.ndarray
    dof_parent: np.ndarray
    levels: tuple | None = None

    def __post_init__(self):
        if self.levels is None:
            self.levels = dof_levels(self.dof_parent)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def ancestry_mask(self) -> np.ndarray:
        """Boolean mask of structurally coupled dof pairs."""
        mask = np.eye(self.n, dtype=bool)
        for dofs, anc in self.levels:
            mask[dofs[:, None], anc] = True
        return mask | mask.T


def crba(model: Model, state: State,
         cache: KinematicsCache | None = None) -> MassMatrix:
    """Composite rigid-body algorithm; exact zeros between disjoint branches.
    The column F = IC S of every moving link walks its root path, all
    columns one parent per step, and each joint it passes gets S' F."""
    if cache is None:
        cache = forward_kinematics(model, state)
    plan = model.plan
    composite = plan.inertia66.copy()
    for lv in reversed(plan.sweep[1:]):
        push = cache.xm_t[lv.links] @ composite[lv.links] @ cache.xm[lv.links]
        lv.scatter(composite, 0.5 * (push + push.swapaxes(1, 2)))
    nv, nv0, s0 = model.nv, model.joints[0].nv, model.S[0]
    m = np.zeros((nv + 1, nv + 1))            # row and column nv: the root and fixed joints
    m[:nv0, :nv0] = s0.T @ composite[0] @ s0
    work = (model.n_links - 1) * (flops.XINERTIA + 36) \
        + flops.gemm(6, 6, nv0) + flops.gemm(nv0, 6, nv0)
    # the moving links deepest first, so the columns still walking are a prefix
    pos = np.flatnonzero(plan.fixed[:, 0, 0] == 0.0)[::-1]
    depth, cols = plan.depth[pos], plan.slot_dof[pos]
    f = composite[pos] @ plan.S[pos]
    m[cols, cols] = (plan.ST[pos] @ f)[:, 0, 0]
    work += pos.size * (flops.gemm(6, 6, 1) + flops.gemm(1, 6, 1))
    for hop in range(1, depth[0] + 1 if pos.size else 0):
        k, below = np.count_nonzero(depth >= hop), np.count_nonzero(depth > hop)
        f = cache.xm_t[pos[:k]] @ f[:k]
        pos = plan.parent[pos[:k]]
        rows = plan.slot_dof[pos]
        m[rows, cols[:k]] = m[cols[:k], rows] = (plan.ST[pos] @ f)[:, 0, 0]
        m[cols[below:k], :nv0] = f[below:k, :, 0] @ s0
        m[:nv0, cols[below:k]] = m[cols[below:k], :nv0].T
        work += k * flops.XFORCE_T + flops.gemm(1, 6, 1) * np.count_nonzero(rows < nv) \
            + (k - below) * flops.gemm(nv0, 6, 1)
    flops.add(work)
    return MassMatrix(m[:nv, :nv].copy(), model.dof_parent.copy(), model.dof_levels)


# ---------------------------------------------------------------------------
# articulated-body forward dynamics


def aba(model: Model, state: State, tau, f_ext=None,
        cache: KinematicsCache | None = None) -> np.ndarray:
    """Articulated-body forward dynamics: qdd = M^-1 (tau - h + J' f_ext).

    The inertia, bias and forward passes of the constrained solvers, with
    no constraints and the external forces taken off the bias.
    """
    tau = check_vec(model, tau, "tau")
    if cache is None:
        cache = forward_kinematics(model, state)
    ws = _Sweep(model)
    _own_terms(model, cache, ws)
    if f_ext is not None:
        ws.pA[model.plan.position, :, 0] -= [np.zeros(6) if f is None else f for f in f_ext]
        flops.add(flops.ADD6 * sum(f is not None for f in f_ext))
    return _aba(model, cache, ws, tau)


# ---------------------------------------------------------------------------
# branch-sparse LTL factorization


@dataclass
class LtlFactor(MassMatrix):
    """Factor L with M = L' L; fill-in confined to the ancestry pattern."""


def ltl_factorize(mass: MassMatrix) -> LtlFactor:
    """Factor M = L' L without fill outside the tree's ancestry pattern.
    Per dof level: pivots, rows of L, and one scatter-add of the rows'
    outer products into their (ancestor, ancestor) entries."""
    low = np.tril(mass.matrix)
    flat = low.reshape(-1)
    work = 0
    for k, anc in reversed(mass.levels):
        piv = low[k, k]
        if (piv <= 0.0).any():
            raise NotPositiveDefinite(f"pivot {k[np.argmax(piv <= 0.0)]} is not positive")
        low[k, k] = piv = np.sqrt(piv)
        low[k[:, None], anc] = rows = low[k[:, None], anc] / piv[:, None]
        i = np.repeat(np.arange(anc.shape[1]), np.arange(1, anc.shape[1] + 1))
        j = np.arange(i.size) - i * (i + 1) // 2            # the pairs j <= i
        np.subtract.at(flat, (anc[:, i] * mass.n + anc[:, j]).ravel(),
                       (rows[:, i] * rows[:, j]).ravel())
        work += k.size * (1 + anc.shape[1] * (anc.shape[1] + 2))
    flops.add(work)
    return LtlFactor(low, mass.dof_parent.copy(), mass.levels)


def _solve_lt(factor: LtlFactor, z: np.ndarray) -> int:
    """z <- L^-T z in place for a C-ordered (n, k) block, deepest dof level first.

    Returns the flops of the per-entry recursion that skips entries still
    zero when their dof is reached: 1 + 2 (ancestor count) per nonzero.
    """
    low, k_cols = factor.matrix, z.shape[1]
    flat = z.reshape(-1)
    work = 0
    for k, anc in reversed(factor.levels):
        work += (1 + 2 * anc.shape[1]) * np.count_nonzero(z[k])
        z[k] = zk = z[k] / low[k, k][:, None]
        idx = anc[:, :, None] * k_cols + np.arange(k_cols)
        np.subtract.at(flat, idx.ravel(), (low[k[:, None], anc][..., None] * zk[:, None]).ravel())
    return work


def ltl_solve(factor: LtlFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs through the two sparse triangular systems, one array
    step per dof level each way."""
    low = factor.matrix
    y = np.array(rhs, dtype=float, order="C")
    z = y.reshape(len(y), -1)
    _solve_lt(factor, z)                      # y = L^-T rhs
    for k, anc in factor.levels:              # x = L^-1 y, root level first
        z[k] = (z[k] - (low[k[:, None], anc][:, :, None] * z[anc]).sum(axis=1)) \
            / low[k, k][:, None]
    flops.add(2 * sum(anc.shape[0] + 2 * anc.size for _, anc in factor.levels))
    return y


def ltl_osim(mass: MassMatrix, jac: np.ndarray) -> DelassusOperator:
    """Delassus operator J M^-1 J' through the sparse LTL factors:
    z = L^-T J' for all m columns at once, then the Gram matrix z' z."""
    m = jac.shape[0]
    if m == 0:
        return DelassusOperator("explicit", np.zeros((0, 0)))
    factor = ltl_factorize(mass)
    z = jac.T.copy()
    flops.add(_solve_lt(factor, z) + m * (m + 1) * factor.n)
    lam = z.T @ z
    return DelassusOperator("explicit", 0.5 * (lam + lam.T))


# ---------------------------------------------------------------------------
# dense KKT oracle


@dataclass
class KktSolution:
    """Ground-truth solution of the least-constraint KKT system."""

    qdd: np.ndarray
    lam: np.ndarray
    residual_primal: np.ndarray
    residual_dual: np.ndarray
    rank: int
    full_rank: bool


def kkt_oracle(model: Model, state: State, tau, cs: ConstraintSet,
               rcond: float = 1e-12) -> KktSolution:
    """Solve [M, J'; J, 0] [qdd; -lam] = [tau - h; a* - gamma] densely.

    Solved through the Schur complement on the constraint block, which
    is equivalent for SPD M, with one Cholesky factor of M for both
    tau - h and J'.  Singular or infeasible constraint systems
    fall back to an eigenvalue-based minimum-norm least-squares solve,
    reported through `rank`; the primal then solves the nearest feasible
    problem and the multiplier is the minimum-norm one.
    """
    tau = check_vec(model, tau, "tau")
    cache = forward_kinematics(model, state)
    mass = crba(model, state, cache=cache)
    h = bias_force(model, state, cache=cache)
    low_m = linalg.chol_factor(mass.matrix)
    qdd_free = linalg.chol_solve(low_m, tau - h)
    flops.add(flops.gemm(model.nv, model.nv, 1))
    if cs.m == 0:
        return KktSolution(qdd_free, np.zeros(0), np.zeros(0),
                           mass.matrix @ qdd_free - (tau - h), 0, True)
    jac = constraint_jacobian(model, cache, cs)
    gamma = constraint_drift(model, cache, cs)
    target = cs.stacked_targets() - gamma
    minv_jt = linalg.chol_solve(low_m, jac.T)
    lam_mat = jac @ minv_jt
    lam_mat = 0.5 * (lam_mat + lam_mat.T)
    flops.add(flops.gemm(cs.m, model.nv, cs.m))
    rhs = target - jac @ qdd_free
    flops.add(flops.gemm(cs.m, model.nv, 1))

    eigs, vecs = linalg.eigh_psd(lam_mat)
    emax = float(eigs[-1])
    keep = eigs > max(rcond * emax, 0.0)
    rank = int(np.count_nonzero(keep))
    full_rank = rank == cs.m
    if full_rank:
        lam = linalg.solve_pd(lam_mat, rhs)
    else:
        vk = vecs[:, keep]
        lam = vk @ ((vk.T @ rhs) / eigs[keep])
        flops.add(2 * flops.gemm(rank, cs.m, 1))
    qdd = qdd_free + minv_jt @ lam
    flops.add(flops.gemm(model.nv, cs.m, 1))
    residual_primal = jac @ qdd - target
    residual_dual = mass.matrix @ qdd - (tau - h) - jac.T @ lam
    return KktSolution(qdd, lam, residual_primal, residual_dual, rank, full_rank)


def relaxed_kkt_oracle(model: Model, state: State, tau, cs: ConstraintSet,
                       weights) -> np.ndarray:
    """Dense solution of the relaxed problem, equivalent to
    (M + J' R^-1 J) qdd = tau - h + J' R^-1 (a* - gamma).

    Solved through the augmented system [[M, J'], [J, -R]] rather than
    the normal equations, which would square the conditioning at small
    weights and make the oracle less accurate than the sweeps it grades.
    """
    tau = check_vec(model, tau, "tau")
    cache = forward_kinematics(model, state)
    mass = crba(model, state, cache=cache)
    h = bias_force(model, state, cache=cache)
    jac = constraint_jacobian(model, cache, cs)
    gamma = constraint_drift(model, cache, cs)
    n, m = model.nv, cs.m
    r = np.broadcast_to(np.asarray(weights, dtype=float), (m,))
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = mass.matrix
    aug[:n, n:] = jac.T
    aug[n:, :n] = jac
    aug[n:, n:] = -np.diag(r)
    rhs = np.concatenate((tau - h, cs.stacked_targets() - gamma))
    flops.add(2 * (n + m) ** 3 // 3 + flops.gemm(n + m, n + m, 1))
    return np.linalg.solve(aug, rhs)[:n]


def dense_delassus(model: Model, state: State, cs: ConstraintSet) -> np.ndarray:
    """Reference J M^-1 J' built from the dense mass matrix."""
    cache = forward_kinematics(model, state)
    mass = crba(model, state, cache=cache)
    jac = constraint_jacobian(model, cache, cs)
    if cs.m == 0:
        return np.zeros((0, 0))
    lam = jac @ linalg.solve_pd(mass.matrix, jac.T)
    flops.add(flops.gemm(cs.m, model.nv, cs.m))
    return 0.5 * (lam + lam.T)
