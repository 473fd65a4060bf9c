"""Constrained forward dynamics by recursive sweeps over the tree.

Four solvers share one workspace and one set of conventions:

* ``pv_solve`` — exact dynamic-programming solver.  The backward sweep
  accumulates articulated inertias and bias forces exactly as the
  articulated-body algorithm, and alongside them per-subtree constraint
  coupling blocks (K, L, l) satisfying ``K a_link + L lam + l = 0``.
  Multipliers are solved densely once the sweep reaches the base.
* ``pv_early_solve`` — same sweep, but each constraint's multiplier
  block is eliminated at the earliest link where its dual block becomes
  safely invertible; whatever stays singular rides to the base exactly
  as in ``pv_solve`` (hybrid fallback), so the result stays exact.
* ``pv_soft_solve`` — relaxed constraints: the penalty K' R^-1 K is
  absorbed into the constrained link's articulated inertia and the
  matching term into its bias force, after which a single plain
  articulated-body sweep solves the problem.
* ``constrained_aba`` — proximal method of multipliers.  The articulated
  inertias are regularized once with K' K / mu; the first iteration runs
  one full bias/forward sweep against them.  The sweep is affine in its
  bias, and later iterations change the bias only by -K' lam on the
  constrained links, so each of them sweeps just the constraint support
  (the root paths of the constrained links) to get the change that
  bias makes; links off the support are filled in once at exit.
  Feasible full-rank systems converge to the exact solution;
  rank-deficient or infeasible ones converge to the least-squares
  solution, with the minimum-norm multipliers.

Gravity is applied by giving the world an acceleration of -g, so a
constraint target a* on true link acceleration becomes
``beta_hat = a* - K X_world g`` on sweep accelerations.

Each solve is single threaded; distinct workspaces may run concurrently
but one workspace must never be shared by two simultaneous solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flops, linalg
from .errors import (DimensionMismatch, NotPositiveDefinite, SingularDual,
                     SingularJointInertia)
from .kinematics import KinematicsCache, forward_kinematics, velocity_products
from .model import ConstraintSet, Model, State, check_state
from .spatial import xft6, xi6, xm6

_ELIM_PIVOT_RATIO = 1e-6     # eagerness threshold for early elimination
_DUAL_PIVOT_RATIO = 1e-10    # base dual block counts as singular below this


@dataclass
class SolverSettings:
    """Knobs shared by the relaxed and proximal solvers."""

    mu: float = 1e-6
    soft_R: float | np.ndarray = 1e-6
    tol_primal: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if self.mu <= 0 or self.tol_primal <= 0 or self.max_iter < 1:
            raise ValueError("solver settings must be positive")
        if np.any(np.asarray(self.soft_R) <= 0):
            raise ValueError("soft_R weights must be positive")


@dataclass
class ConstrainedSolution:
    qdd: np.ndarray
    lam: np.ndarray
    iterations: int
    primal_residual: float
    status: str                   # converged | max_iter | least_squares
    residual_history: tuple[float, ...] = ()    # primal residual per iteration


class PvWorkspace:
    """Preallocated buffers and static row bookkeeping for one (model, cs).

    ``rows[i]`` lists the global constraint rows active in link i's
    subtree; its length is the m_i of the sweep.  Shapes and bookkeeping
    depend only on the model and each constraint's (link, dim) in order,
    so a workspace is reusable across solves and across constraint sets
    with that layout (new targets, gains or matrices).
    """

    def __init__(self, model: Model, cs: ConstraintSet):
        self.model = model
        self.layout = _layout(cs)
        n = model.n_links
        m = cs.m
        row_sets: list[list[int]] = [[] for _ in range(n)]
        for ci, con in enumerate(cs):
            row_sets[con.link].extend(range(cs.offsets[ci], cs.offsets[ci] + con.dim))
        in_subtree: list[list[int]] = [[] for _ in range(n)]
        for ci, con in enumerate(cs):
            j = con.link
            while j >= 0:
                in_subtree[j].append(ci)
                j = model.parent[j]
        self.cons_in_subtree = tuple(tuple(c) for c in in_subtree)
        # links whose subtree holds a constraint, and the others, in index order
        self.support = tuple(i for i in range(n) if in_subtree[i])
        self.off_support = tuple(i for i in range(n) if not in_subtree[i])
        rows: list[np.ndarray] = [np.zeros(0, dtype=int)] * n
        for i in range(n - 1, -1, -1):
            acc = list(row_sets[i])
            for c in model.children[i]:
                acc.extend(rows[c].tolist())
            rows[i] = np.array(sorted(acc), dtype=int)
        self.rows = rows
        self.pos_in_parent = [
            np.searchsorted(rows[model.parent[i]], rows[i]) if model.parent[i] >= 0
            else np.zeros(0, dtype=int)
            for i in range(n)
        ]
        self.own = [
            tuple((ci, np.searchsorted(rows[cs.constraints[ci].link], cs.rows(ci)))
                  for ci in range(len(cs)) if cs.constraints[ci].link == i)
            for i in range(n)
        ]
        self.IA = np.empty((n, 6, 6))
        self.IA_proj = np.empty((n, 6, 6))     # IA projected across each joint
        self.pA = np.empty((n, 6))
        self.a = np.empty((n, 6))
        self.da = np.empty((n, 6))
        self.K = [np.empty((len(rows[i]), 6)) for i in range(n)]
        self.Kw = np.empty((m, 6))
        self.L = np.empty((m, m))
        self.l = np.empty(m)
        self.lam = np.empty(m)
        self.beta = np.empty(m)
        self.resid = np.empty(m)
        # per-link forward-sweep stores
        self.uu: list = [None] * n
        self.dfac: list = [None] * n
        self.du: list = [None] * n
        self.u: list = [None] * n
        self.ks: list = [None] * n
        self.ks_rows: list = [None] * n
        self.counters: dict = {}

    def subtree_rows(self, i: int) -> int:
        return len(self.rows[i])

    @staticmethod
    def ensure(model: Model, cs: ConstraintSet, ws: "PvWorkspace | None"):
        if ws is None or ws.model is not model or ws.layout != _layout(cs):
            return PvWorkspace(model, cs)
        return ws


def _layout(cs: ConstraintSet) -> tuple[tuple[int, int], ...]:
    return tuple((con.link, con.dim) for con in cs)


def _check_inputs(model: Model, state: State, tau) -> np.ndarray:
    check_state(model, state)
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (model.nv,):
        raise DimensionMismatch(f"tau must have length nv={model.nv}")
    return tau


def _beta_hat(model: Model, cache: KinematicsCache, cs: ConstraintSet,
              out: np.ndarray) -> np.ndarray:
    """Constraint targets shifted into gravity-trick sweep coordinates."""
    agrav = model.gravity6()
    work = 0
    for ci, con in enumerate(cs):
        e = con.link
        g_local = xm6(cache.w_rot[e], cache.w_trans[e], agrav)
        out[cs.rows(ci)] = con.a_star - con.K @ g_local
        work += flops.XMOT + flops.gemm(con.dim, 6, 1)
    flops.add(work)
    return out


@dataclass
class _Elimination:
    link: int
    rows: np.ndarray
    low: np.ndarray
    K: np.ndarray
    other_rows: np.ndarray
    L_jo: np.ndarray
    l_j: np.ndarray


def _try_chol(block: np.ndarray, ratio: float, scale: float = 0.0):
    """Cholesky factor if the block is comfortably PD, else None.

    `scale` is an external magnitude reference (the largest dual diagonal
    of the surrounding system); without it a tiny-but-positive block
    would pass its own relative test and poison the elimination.
    """
    try:
        low = np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return None
    dmax = max(float(np.max(np.diag(block))), scale)
    if dmax <= 0.0 or float(np.min(np.diag(low)) ** 2) < ratio * dmax:
        return None
    return low


# ---------------------------------------------------------------------------
# the exact engine (shared by pv_solve and pv_early_solve)


def _pv_engine(model: Model, state: State, tau, cs: ConstraintSet,
               ws: PvWorkspace, early: bool,
               cache: KinematicsCache | None) -> ConstrainedSolution:
    tau = _check_inputs(model, state, tau)
    if cache is None:
        cache = forward_kinematics(model, state)
    n = model.n_links
    m = cs.m
    work = 0

    beta = _beta_hat(model, cache, cs, ws.beta) if m else ws.beta
    ia = ws.IA
    np.copyto(ia, model.inertia66)
    pa = ws.pA
    pa[:] = velocity_products(model, cache)
    lam = ws.lam
    lam[:] = 0.0
    ws.L[:] = 0.0
    ws.l[:] = -beta if m else 0.0
    alive = np.ones(m, dtype=bool)
    elim_at: list[list[_Elimination]] = [[] for _ in range(n)]
    ws.counters = {"base_dual_dim": 0, "dual_factor_dims": [], "kl_joint_updates": 0}

    a_world = -model.gravity6()

    for i in range(n - 1, -1, -1):
        rows_i = ws.rows[i]
        for ci, pos in ws.own[i]:
            ws.K[i][pos] = cs.constraints[ci].K

        if early and len(ws.cons_in_subtree[i]) > 0:
            alive_rows_i = rows_i[alive[rows_i]]
            dual_scale = float(np.max(np.diag(ws.L)[alive_rows_i])) \
                if alive_rows_i.size else 0.0
            for ci in ws.cons_in_subtree[i]:
                rj = cs.rows(ci)
                if not alive[rj[0]]:
                    continue
                ljj = ws.L[np.ix_(rj, rj)]
                low = _try_chol(ljj, _ELIM_PIVOT_RATIO, dual_scale)
                work += flops.cholesky(len(rj))
                if low is None:
                    continue
                loc = np.flatnonzero(alive[rows_i])
                ract = rows_i[loc]
                keep = ~np.isin(ract, rj)
                others = ract[keep]
                pos_j = loc[~keep]
                pos_o = loc[keep]
                kj = ws.K[i][pos_j].copy()
                ljo = ws.L[np.ix_(rj, others)].copy()
                lj = ws.l[rj].copy()
                x_k = linalg.chol_solve(low, kj)
                x_l = linalg.chol_solve(low, ljo) if others.size else ljo
                x_b = linalg.chol_solve(low, lj)
                ia[i] += kj.T @ x_k
                pa[i] += kj.T @ x_b
                work += flops.gemm(6, len(rj), 6) + flops.gemm(6, len(rj), 1)
                if others.size:
                    ws.K[i][pos_o] -= ljo.T @ x_k
                    ws.L[np.ix_(others, others)] -= ljo.T @ x_l
                    ws.l[others] -= ljo.T @ x_b
                    work += flops.gemm(others.size, len(rj), 6 + others.size + 1)
                ws.L[rj, :] = 0.0
                ws.L[:, rj] = 0.0
                ws.l[rj] = 0.0
                alive[rj] = False
                rec = _Elimination(i, rj, low, kj, others.copy(), ljo, lj)
                elim_at[i].append(rec)
                ws.counters["dual_factor_dims"].append(len(rj))

        loc = np.flatnonzero(alive[rows_i]) if m else np.zeros(0, dtype=int)
        ract = rows_i[loc]
        ka = ws.K[i][loc]
        nv = model.joints[i].nv
        p = model.parent[i]
        c_i = cache.c[i]

        if nv:
            s = model.S[i]
            uu = ia[i] @ s
            d = s.T @ uu
            try:
                dfac = linalg.SmallPD(d)
            except NotPositiveDefinite:
                raise SingularJointInertia(f"joint {i} inertia is singular") from None
            du = dfac.solve(uu.T)
            u_i = tau[model.v_block(i)] - s.T @ pa[i]
            work += flops.gemm(6, 6, nv) + flops.gemm(nv, 6, nv) \
                + flops.cholesky(nv) + flops.chol_solve(nv, 6) + 11 * nv
            if ract.size:
                ks = ka @ s
                w = dfac.solve(ks.T).T
                ws.L[np.ix_(ract, ract)] += w @ ks.T
                ws.l[ract] += ka @ c_i + w @ (u_i - uu.T @ c_i)
                k_new = ka - w @ uu.T
                work += flops.gemm(ract.size, 6, nv) + flops.chol_solve(nv, ract.size) \
                    + flops.gemm(ract.size, nv, ract.size) \
                    + flops.gemm(ract.size, 6, 1) + flops.gemm(ract.size, nv, 1) \
                    + flops.gemm(ract.size, nv, 6)
                ws.counters["kl_joint_updates"] += 1
            else:
                ks = None
                k_new = ka
            ia_proj = ia[i] - uu @ du
            pa_proj = pa[i] + ia_proj @ c_i + uu @ dfac.solve(u_i)
            work += flops.gemm(6, nv, 6) + flops.APPLY_I + flops.gemm(6, nv, 1) \
                + flops.chol_solve(nv) + 2 * flops.ADD6
            ws.uu[i], ws.dfac[i], ws.du[i], ws.u[i] = uu, dfac, du, u_i
            ws.ks[i], ws.ks_rows[i] = ks, ract
        else:
            k_new = ka
            ia_proj = ia[i]
            pa_proj = pa[i] + ia[i] @ cache.c[i]
            ws.uu[i] = ws.dfac[i] = ws.du[i] = ws.u[i] = ws.ks[i] = None
            ws.ks_rows[i] = ract
            work += flops.APPLY_I

        if ract.size:
            k_push = xft6(cache.rot[i], cache.trans[i], k_new.T).T
            work += flops.XFORCE_T * ract.size
        else:
            k_push = k_new
        if p >= 0:
            ia[p] += xi6(cache.rot[i], cache.trans[i], ia_proj)
            pa[p] += xft6(cache.rot[i], cache.trans[i], pa_proj)
            work += flops.XINERTIA + flops.XFORCE_T + 42
            if ract.size:
                ws.K[p][ws.pos_in_parent[i][loc]] = k_push
        else:
            if ract.size:
                ws.Kw[ract] = k_push

    # dense dual solve for whatever rows survived to the base
    act = np.flatnonzero(alive)
    ws.counters["base_dual_dim"] = int(act.size)
    if act.size:
        l_act = ws.L[np.ix_(act, act)]
        rhs = -(ws.l[act] + ws.Kw[act] @ a_world)
        work += flops.gemm(act.size, 6, 1)
        low = _try_chol(l_act, _DUAL_PIVOT_RATIO)
        work += flops.cholesky(act.size)
        if low is None:
            flops.add(work)
            raise SingularDual(
                "dual system is singular (rank-deficient constraint rows); "
                "constrained_aba handles such systems in a least-squares sense")
        lam[act] = linalg.chol_solve(low, rhs)
        work += flops.chol_solve(act.size)

    # forward sweep
    a = ws.a
    qdd = np.zeros(model.nv)
    for i in range(n):
        p = model.parent[i]
        a_in = xm6(cache.rot[i], cache.trans[i], a_world if p < 0 else a[p]) + cache.c[i]
        nv = model.joints[i].nv
        if nv:
            t = ws.u[i] - ws.uu[i].T @ a_in
            if ws.ks[i] is not None:
                t = t + ws.ks[i].T @ lam[ws.ks_rows[i]]
                work += flops.gemm(nv, len(ws.ks_rows[i]), 1)
            blk = ws.dfac[i].solve(t)
            a[i] = a_in + model.S[i] @ blk
            qdd[model.v_block(i)] = blk
            work += flops.gemm(nv, 6, 1) + flops.chol_solve(nv) + 6 * nv + flops.ADD6
        else:
            a[i] = a_in
        work += flops.XMOT + flops.ADD6
        for rec in reversed(elim_at[i]):
            rhs = rec.K @ a[i] + rec.l_j
            if rec.other_rows.size:
                rhs = rhs + rec.L_jo @ lam[rec.other_rows]
                work += flops.gemm(len(rec.rows), rec.other_rows.size, 1)
            lam[rec.rows] = -linalg.chol_solve(rec.low, rhs)
            work += flops.gemm(len(rec.rows), 6, 1) + flops.chol_solve(len(rec.rows))

    resid = 0.0
    if m:
        r = ws.resid
        for ci, con in enumerate(cs):
            rows = cs.rows(ci)
            r[rows] = con.K @ a[con.link] - beta[rows]
            work += flops.gemm(con.dim, 6, 1)
        resid = float(np.linalg.norm(r))
    flops.add(work)
    return ConstrainedSolution(qdd, lam.copy(), 1, resid, "converged", (resid,))


def pv_solve(model: Model, state: State, tau, cs: ConstraintSet,
             ws: PvWorkspace | None = None,
             cache: KinematicsCache | None = None) -> ConstrainedSolution:
    """Exact constrained dynamics with base-level multiplier solve."""
    ws = PvWorkspace.ensure(model, cs, ws)
    return _pv_engine(model, state, tau, cs, ws, False, cache)


def pv_early_solve(model: Model, state: State, tau, cs: ConstraintSet,
                   ws: PvWorkspace | None = None,
                   cache: KinematicsCache | None = None) -> ConstrainedSolution:
    """Exact constrained dynamics with aggressive early multiplier elimination."""
    ws = PvWorkspace.ensure(model, cs, ws)
    return _pv_engine(model, state, tau, cs, ws, True, cache)


# ---------------------------------------------------------------------------
# regularized sweeps (soft and proximal solvers)


def _reg_articulated_pass(model: Model, cache: KinematicsCache, ws: PvWorkspace,
                          reg: dict[int, np.ndarray] | None) -> None:
    """Backward articulated-inertia pass with optional per-link extra inertia.

    Stores the joint factors and the projected inertias needed by any
    number of subsequent bias/forward passes; this part does not depend
    on tau or lambda.
    """
    ia = ws.IA
    ia_proj = ws.IA_proj
    np.copyto(ia, model.inertia66)
    work = 0
    if reg:
        for link, extra in reg.items():
            ia[link] += extra
            work += 36
    for i in range(model.n_links - 1, -1, -1):
        nv = model.joints[i].nv
        p = model.parent[i]
        if nv:
            s = model.S[i]
            uu = ia[i] @ s
            d = s.T @ uu
            try:
                dfac = linalg.SmallPD(d)
            except NotPositiveDefinite:
                raise SingularJointInertia(f"joint {i} inertia is singular") from None
            du = dfac.solve(uu.T)
            ws.uu[i], ws.dfac[i], ws.du[i] = uu, dfac, du
            ia_proj[i] = ia[i] - uu @ du
            work += flops.gemm(6, 6, nv) + flops.gemm(nv, 6, nv) \
                + flops.cholesky(nv) + flops.chol_solve(nv, 6) + flops.gemm(6, nv, 6)
        else:
            ws.uu[i] = ws.dfac[i] = ws.du[i] = None
            ia_proj[i] = ia[i]
        if p >= 0:
            ia[p] += xi6(cache.rot[i], cache.trans[i], ia_proj[i])
            work += flops.XINERTIA + 36
    flops.add(work)


def _reg_dynamics_pass(model: Model, cache: KinematicsCache, ws: PvWorkspace,
                       tau: np.ndarray, extra_bias: dict[int, np.ndarray] | None):
    """One bias backward + acceleration forward pass against stored factors."""
    n = model.n_links
    pa = ws.pA
    pa[:] = velocity_products(model, cache)
    ia_proj_c = (ws.IA_proj @ cache.c[:, :, None])[:, :, 0]
    work = 0
    if extra_bias:
        for link, extra in extra_bias.items():
            pa[link] += extra
            work += 6
    for i in range(n - 1, -1, -1):
        nv = model.joints[i].nv
        p = model.parent[i]
        if nv:
            s = model.S[i]
            u_i = tau[model.v_block(i)] - s.T @ pa[i]
            ws.u[i] = u_i
            work += 11 * nv
            if p >= 0:
                pa_proj = pa[i] + ia_proj_c[i] + ws.uu[i] @ ws.dfac[i].solve(u_i)
                work += flops.APPLY_I + flops.gemm(6, nv, 1) \
                    + flops.chol_solve(nv) + 2 * flops.ADD6
        else:
            ws.u[i] = None
            pa_proj = pa[i] + ia_proj_c[i]
            work += flops.APPLY_I
        if p >= 0:
            pa[p] += xft6(cache.rot[i], cache.trans[i], pa_proj)
            work += flops.XFORCE_T + flops.ADD6
    qdd = np.zeros(model.nv)
    a = ws.a
    a_world = -model.gravity6()
    for i in range(n):
        p = model.parent[i]
        a_in = xm6(cache.rot[i], cache.trans[i], a_world if p < 0 else a[p]) + cache.c[i]
        nv = model.joints[i].nv
        if nv:
            blk = ws.dfac[i].solve(ws.u[i] - ws.uu[i].T @ a_in)
            qdd[model.v_block(i)] = blk
            a[i] = a_in + model.S[i] @ blk
            work += flops.gemm(nv, 6, 1) + flops.chol_solve(nv) + 6 * nv + flops.ADD6
        else:
            a[i] = a_in
        work += flops.XMOT + flops.ADD6
    flops.add(work)
    return qdd, a


def _increment_pass(model: Model, cache: KinematicsCache, ws: PvWorkspace,
                    links: tuple[int, ...], extra_bias: dict[int, np.ndarray] | None,
                    dqdd: np.ndarray) -> None:
    """Homogeneous bias backward + forward pass over `links` only.

    For fixed factors the dynamics pass is affine in its bias, so the
    change an extra bias makes is that pass with no tau, no velocity
    product, no ``c`` and zero world acceleration.  It writes the change
    in acceleration to ``ws.da`` and in qdd to `dqdd` for the listed
    links.  `links` is in index order, and each link's parent is listed
    or already has its ``ws.da``.  With `extra_bias`, `links` must hold
    the root paths of the biased links (the constraint support); without
    it the backward half is skipped, which fills links off the support
    from their parents.
    """
    pa = ws.pA
    da = ws.da
    work = 0
    if extra_bias:
        pa[list(links)] = 0.0
        for link, extra in extra_bias.items():
            pa[link] += extra
            work += 6
        for i in reversed(links):
            nv = model.joints[i].nv
            p = model.parent[i]
            if nv:
                u_i = -(model.S[i].T @ pa[i])
                ws.u[i] = u_i
                work += 11 * nv
                if p >= 0:
                    pa_proj = pa[i] + ws.uu[i] @ ws.dfac[i].solve(u_i)
                    work += flops.gemm(6, nv, 1) + flops.chol_solve(nv) + flops.ADD6
            else:
                pa_proj = pa[i]
            if p >= 0:
                pa[p] += xft6(cache.rot[i], cache.trans[i], pa_proj)
                work += flops.XFORCE_T + flops.ADD6
    for i in links:
        p = model.parent[i]
        if p < 0:
            a_in = np.zeros(6)
        else:
            a_in = xm6(cache.rot[i], cache.trans[i], da[p])
            work += flops.XMOT
        nv = model.joints[i].nv
        if nv:
            t = -(ws.uu[i].T @ a_in)
            if extra_bias:
                t += ws.u[i]
            blk = ws.dfac[i].solve(t)
            dqdd[model.v_block(i)] = blk
            da[i] = a_in + model.S[i] @ blk
            work += flops.gemm(nv, 6, 1) + flops.chol_solve(nv) + 6 * nv + flops.ADD6
        else:
            da[i] = a_in
    flops.add(work)


def _multiplier_bias(cs: ConstraintSet, y: np.ndarray) -> dict[int, np.ndarray]:
    """Per-link bias -K' y of constraint-space values y."""
    bias: dict[int, np.ndarray] = {}
    work = 0
    for ci, con in enumerate(cs):
        bias[con.link] = bias.get(con.link, 0) - con.K.T @ y[cs.rows(ci)]
        work += flops.gemm(6, con.dim, 1)
    flops.add(work)
    return bias


def pv_soft_solve(model: Model, state: State, tau, cs: ConstraintSet,
                  settings: SolverSettings | None = None,
                  ws: PvWorkspace | None = None,
                  cache: KinematicsCache | None = None) -> ConstrainedSolution:
    """Relaxed constrained dynamics in one sweep (no dual system at all)."""
    settings = settings or SolverSettings()
    ws = PvWorkspace.ensure(model, cs, ws)
    tau = _check_inputs(model, state, tau)
    if cache is None:
        cache = forward_kinematics(model, state)
    m = cs.m
    if m == 0:
        _reg_articulated_pass(model, cache, ws, None)
        qdd, _ = _reg_dynamics_pass(model, cache, ws, tau, None)
        return ConstrainedSolution(qdd, np.zeros(0), 1, 0.0, "converged", (0.0,))
    weights = np.broadcast_to(np.asarray(settings.soft_R, dtype=float), (m,))
    beta = _beta_hat(model, cache, cs, ws.beta)
    reg: dict[int, np.ndarray] = {}
    bias: dict[int, np.ndarray] = {}
    work = 0
    for ci, con in enumerate(cs):
        rows = cs.rows(ci)
        kr = con.K / weights[rows][:, None]
        reg_blk = con.K.T @ kr
        bias_blk = -con.K.T @ (beta[rows] / weights[rows])
        reg[con.link] = reg.get(con.link, 0) + reg_blk
        bias[con.link] = bias.get(con.link, 0) + bias_blk
        work += flops.gemm(6, con.dim, 6) + flops.gemm(6, con.dim, 1)
    flops.add(work)
    _reg_articulated_pass(model, cache, ws, reg)
    qdd, a = _reg_dynamics_pass(model, cache, ws, tau, bias)
    lam = ws.lam
    resid = ws.resid
    work = 0
    for ci, con in enumerate(cs):
        rows = cs.rows(ci)
        resid[rows] = con.K @ a[con.link] - beta[rows]
        lam[rows] = -resid[rows] / weights[rows]
        work += flops.gemm(con.dim, 6, 1) + 2 * con.dim
    flops.add(work)
    rnorm = float(np.linalg.norm(resid))
    return ConstrainedSolution(qdd, lam.copy(), 1, rnorm, "converged", (rnorm,))


def constrained_aba(model: Model, state: State, tau, cs: ConstraintSet,
                    settings: SolverSettings | None = None,
                    ws: PvWorkspace | None = None,
                    cache: KinematicsCache | None = None) -> ConstrainedSolution:
    """Proximal constrained dynamics; robust to singular and infeasible rows."""
    settings = settings or SolverSettings()
    ws = PvWorkspace.ensure(model, cs, ws)
    tau = _check_inputs(model, state, tau)
    if cache is None:
        cache = forward_kinematics(model, state)
    m = cs.m
    if m == 0:
        _reg_articulated_pass(model, cache, ws, None)
        qdd, _ = _reg_dynamics_pass(model, cache, ws, tau, None)
        return ConstrainedSolution(qdd, np.zeros(0), 1, 0.0, "converged", (0.0,))

    mu = settings.mu
    beta = _beta_hat(model, cache, cs, ws.beta)
    reg: dict[int, np.ndarray] = {}
    work = 0
    for con in cs:
        reg[con.link] = reg.get(con.link, 0) + con.K.T @ con.K / mu
        work += flops.gemm(6, con.dim, 6)
    flops.add(work)
    _reg_articulated_pass(model, cache, ws, reg)

    # iteration 1 (lam = 0) is a full sweep giving qdd0 and a0; each later
    # one sweeps the support for the change the bias -K' lam makes
    qdd, a0 = _reg_dynamics_pass(model, cache, ws, tau, _multiplier_bias(cs, beta / mu))
    dqdd = np.zeros(model.nv)
    da = ws.da
    da[list(ws.support)] = 0.0
    lam = ws.lam
    lam[:] = 0.0
    resid = ws.resid
    status = "max_iter"
    history: list[float] = []
    for it in range(1, settings.max_iter + 1):
        if it > 1:
            _increment_pass(model, cache, ws, ws.support, _multiplier_bias(cs, lam), dqdd)
        work = 0
        for ci, con in enumerate(cs):
            rows = cs.rows(ci)
            resid[rows] = con.K @ (a0[con.link] + da[con.link]) - beta[rows]
            work += flops.gemm(con.dim, 6, 1) + flops.ADD6
        flops.add(work)
        lam -= resid / mu
        rnorm = float(np.linalg.norm(resid))
        history.append(rnorm)
        if rnorm <= settings.tol_primal:
            status = "converged"
            break
        # residual improvement stalls once infeasible rows pin the floor
        if len(history) >= 6:
            recent = history[-6:]
            rel = [(recent[k] - recent[k + 1]) / max(recent[k], 1e-300)
                   for k in range(5)]
            if all(r < 1e-3 for r in rel):
                status = "least_squares"
                break
    if it > 1:
        _increment_pass(model, cache, ws, ws.off_support, None, dqdd)
        qdd += dqdd
    if status == "least_squares":
        # lam has drifted along the infeasible residual by resid/mu per
        # iteration; taking that component off leaves the min-norm lam
        lam -= (resid @ lam) / (resid @ resid) * resid
        flops.add(6 * m)
    return ConstrainedSolution(qdd, lam.copy(), it, rnorm, status, tuple(history))
