"""Classical algorithms and dense ground truth.

RNEA (inverse dynamics), CRBA (joint-space inertia), ABA (unconstrained
forward dynamics), the branch-sparse LTL factorization family, and the
dense KKT oracle for least-constraint dynamics.  The oracle is the
grading reference for every recursive solver in the library.

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
from .constrained import _aba, _Sweep
from .delassus import DelassusOperator
from .errors import DimensionMismatch, NotPositiveDefinite
from .kinematics import (KinematicsCache, constraint_drift,
                         constraint_jacobian, forward_kinematics,
                         velocity_products)
from .model import ConstraintSet, Model, State, check_state
from .spatial import xft6, xi6, xm6


def _check_vec(model: Model, vec, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (model.nv,):
        raise DimensionMismatch(f"{name} must have length nv={model.nv}")
    return vec


# ---------------------------------------------------------------------------
# recursive Newton-Euler


def rnea(model: Model, state: State, qdd, f_ext=None,
         cache: KinematicsCache | None = None) -> np.ndarray:
    """Inverse dynamics: tau = M qdd + h(q, v) - J_ext' f_ext."""
    qdd = _check_vec(model, qdd, "qdd")
    if cache is None:
        cache = forward_kinematics(model, state)
    n = model.n_links
    a = np.empty((n, 6))
    f = velocity_products(model, cache)
    a_world = -model.gravity6()
    work = 0
    for i in range(n):
        p = model.parent[i]
        a[i] = xm6(cache.rot[i], cache.trans[i], a_world if p < 0 else a[p]) + cache.c[i]
        nv = model.joints[i].nv
        if nv:
            a[i] += model.S[i] @ qdd[model.v_block(i)]
        f[i] += model.inertia66[i] @ a[i]
        if f_ext is not None and f_ext[i] is not None:
            f[i] -= np.asarray(f_ext[i], dtype=float)
        work += flops.XMOT + 2 * flops.ADD6 + 6 * nv + flops.APPLY_I
    tau = np.zeros(model.nv)
    for i in range(n - 1, -1, -1):
        nv = model.joints[i].nv
        if nv:
            tau[model.v_block(i)] = model.S[i].T @ f[i]
            work += 11 * nv
        p = model.parent[i]
        if p >= 0:
            f[p] += xft6(cache.rot[i], cache.trans[i], f[i])
            work += flops.XFORCE_T + flops.ADD6
    flops.add(work)
    return tau


def bias_force(model: Model, state: State,
               cache: KinematicsCache | None = None) -> np.ndarray:
    """h(q, v): gravity plus velocity-product generalized forces."""
    return rnea(model, state, np.zeros(model.nv), cache=cache)


# ---------------------------------------------------------------------------
# composite rigid-body algorithm


@dataclass
class MassMatrix:
    """Joint-space inertia with the tree's branch-sparsity pattern."""

    matrix: np.ndarray
    dof_parent: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def ancestry_mask(self) -> np.ndarray:
        """Boolean mask of structurally coupled dof pairs."""
        n = self.n
        mask = np.eye(n, dtype=bool)
        for i in range(n):
            j = self.dof_parent[i]
            while j >= 0:
                mask[i, j] = mask[j, i] = True
                j = self.dof_parent[j]
        return mask


def crba(model: Model, state: State,
         cache: KinematicsCache | None = None) -> MassMatrix:
    """Composite rigid-body algorithm; exact zeros between disjoint branches."""
    if cache is None:
        cache = forward_kinematics(model, state)
    n = model.n_links
    composite = model.inertia66.copy()
    m = np.zeros((model.nv, model.nv))
    work = 0
    for i in range(n - 1, -1, -1):
        p = model.parent[i]
        if p >= 0:
            composite[p] += xi6(cache.rot[i], cache.trans[i], composite[i])
            work += flops.XINERTIA + 36
    for i in range(n):
        nv = model.joints[i].nv
        if nv == 0:
            continue
        fblock = composite[i] @ model.S[i]
        blk_i = model.v_block(i)
        m[blk_i, blk_i] = model.S[i].T @ fblock
        work += flops.gemm(6, 6, nv) + flops.gemm(nv, 6, nv)
        j = i
        while model.parent[j] >= 0:
            fblock = xft6(cache.rot[j], cache.trans[j], fblock)
            j = model.parent[j]
            work += flops.XFORCE_T * nv
            nv_j = model.joints[j].nv
            if nv_j:
                blk_j = model.v_block(j)
                m[blk_j, blk_i] = model.S[j].T @ fblock
                m[blk_i, blk_j] = m[blk_j, blk_i].T
                work += flops.gemm(nv_j, 6, nv)
    flops.add(work)
    return MassMatrix(m, model.dof_parent.copy())


# ---------------------------------------------------------------------------
# articulated-body forward dynamics


def aba(model: Model, state: State, tau, f_ext=None,
        cache: KinematicsCache | None = None) -> np.ndarray:
    """Articulated-body forward dynamics: qdd = M^-1 (tau - h + J' f_ext).

    The inertia, bias and forward passes of the constrained solvers, with
    no constraints and the external forces as extra bias.
    """
    tau = _check_vec(model, tau, "tau")
    if cache is None:
        cache = forward_kinematics(model, state)
    bias = None
    if f_ext is not None:
        bias = {i: -np.asarray(f, dtype=float) for i, f in enumerate(f_ext)
                if f is not None}
    return _aba(model, cache, _Sweep(model), tau, bias=bias)


# ---------------------------------------------------------------------------
# branch-sparse LTL factorization


@dataclass
class LtlFactor:
    """Factor L with M = L' L; fill-in confined to the ancestry pattern."""

    matrix: np.ndarray
    dof_parent: np.ndarray


def ltl_factorize(mass: MassMatrix) -> LtlFactor:
    """Factor M = L' L without fill outside the tree's ancestry pattern."""
    n = mass.n
    low = np.tril(mass.matrix.copy())
    pi = mass.dof_parent
    work = 0
    for k in range(n - 1, -1, -1):
        if low[k, k] <= 0.0:
            raise NotPositiveDefinite(f"pivot {k} is not positive")
        low[k, k] = np.sqrt(low[k, k])
        work += 1
        i = pi[k]
        while i >= 0:
            low[k, i] /= low[k, k]
            work += 1
            i = pi[i]
        i = pi[k]
        while i >= 0:
            j = i
            while j >= 0:
                low[i, j] -= low[k, i] * low[k, j]
                work += 2
                j = pi[j]
            i = pi[i]
    flops.add(work)
    return LtlFactor(low, pi.copy())


def ltl_solve(factor: LtlFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs through the two sparse triangular systems."""
    low = factor.matrix
    pi = factor.dof_parent
    n = low.shape[0]
    y = np.asarray(rhs, dtype=float).copy()
    work = 0
    for i in range(n - 1, -1, -1):           # y = L^-T rhs
        y[i] /= low[i, i]
        work += 1
        j = pi[i]
        while j >= 0:
            y[j] -= low[i, j] * y[i]
            work += 2
            j = pi[j]
    for i in range(n):                        # x = L^-1 y
        j = pi[i]
        while j >= 0:
            y[i] -= low[i, j] * y[j]
            work += 2
            j = pi[j]
        y[i] /= low[i, i]
        work += 1
    flops.add(work)
    return y


def ltl_osim(mass: MassMatrix, jac: np.ndarray) -> DelassusOperator:
    """Delassus operator J M^-1 J' through the sparse LTL factors."""
    m = jac.shape[0]
    if m == 0:
        return DelassusOperator("explicit", np.zeros((0, 0)))
    factor = ltl_factorize(mass)
    low = factor.matrix
    pi = factor.dof_parent
    n = low.shape[0]
    z = jac.T.copy()                          # columns become L^-T J'
    work = 0
    for col in range(m):
        y = z[:, col]
        for i in range(n - 1, -1, -1):
            yi = y[i]
            if yi == 0.0:
                continue
            yi /= low[i, i]
            y[i] = yi
            work += 1
            j = pi[i]
            while j >= 0:
                y[j] -= low[i, j] * yi
                work += 2
                j = pi[j]
    lam = np.empty((m, m))
    for a in range(m):
        for b in range(a, m):
            lam[a, b] = lam[b, a] = z[:, a] @ z[:, b]
            work += 2 * n
    flops.add(work)
    lam = 0.5 * (lam + lam.T)
    return DelassusOperator("explicit", lam)


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
    is equivalent for SPD M.  Singular or infeasible constraint systems
    fall back to an eigenvalue-based minimum-norm least-squares solve,
    reported through `rank`; the primal then solves the nearest feasible
    problem and the multiplier is the minimum-norm one.
    """
    tau = _check_vec(model, tau, "tau")
    check_state(model, state)
    cache = forward_kinematics(model, state)
    mass = crba(model, state, cache=cache)
    h = bias_force(model, state, cache=cache)
    qdd_free = linalg.solve_pd(mass.matrix, tau - h)
    flops.add(flops.gemm(model.nv, model.nv, 1))
    if cs.m == 0:
        return KktSolution(qdd_free, np.zeros(0), np.zeros(0),
                           mass.matrix @ qdd_free - (tau - h), 0, True)
    jac = constraint_jacobian(model, cache, cs)
    gamma = constraint_drift(model, cache, cs)
    target = cs.stacked_targets() - gamma
    minv_jt = linalg.solve_pd(mass.matrix, jac.T)
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
    tau = _check_vec(model, tau, "tau")
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
