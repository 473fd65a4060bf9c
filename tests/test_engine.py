"""The articulated sweep engine behind every solver.

The exact solvers are checked against a reference copy of the one-loop
engine they replaced, which interleaves the inertia, bias and coupling
work per link, and the level-batched passes against per-link copies of
the inertia, bias and forward passes; the flop counts and proximal
iteration counts of all producers are pinned.
"""

import importlib
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from pvdyn import (ConstraintSet, Joint, Model, MotionConstraint, PlueckerTransform, PvWorkspace,
                   SolverSettings, SpatialInertia, aba, caba_osim, constrained,
                   constrained_aba, constraint_jacobian, crba, dense_delassus, flops,
                   generate_humanoid_like, generate_tree, kkt_oracle, linalg, ltl_factorize,
                   ltl_osim, ltl_solve, point_constraint, pv_early_solve, pv_osim,
                   pv_osimr, pv_soft_solve, pv_solve, random_feasible_instance,
                   random_singular_instance, random_state, relaxed_kkt_oracle,
                   weld_constraint)
from pvdyn.bench import load_model
from pvdyn.constrained import (_DUAL_PIVOT_RATIO, _ELIM_PIVOT_RATIO, _aba, _beta_hat,
                               _bias_pass, _dofs, _forward_pass, _inertia_pass,
                               _own_terms, _try_chol)
from pvdyn.errors import (NotPositiveDefinite, SingularBaseInertia, SingularDual,
                          SingularJointInertia)
from pvdyn.generators import standard_constraints
from pvdyn.kinematics import forward_kinematics, velocity_products
from pvdyn.urdf import parse_urdf_subset
from conftest import congruence, cons_in_subtree
from test_constrained import full_sweep_caba, with_fixed_joints
from test_kinematics import MIXED_URDF


def joint_solver(d):
    """x -> D^-1 x for a joint's D as the engine applies it: times 1/D at
    one dof, as below the root, and through a Cholesky factor otherwise.
    Raises NotPositiveDefinite on a D that is not PD."""
    if d.shape == (1, 1):
        if d[0, 0] <= 0.0:
            raise NotPositiveDefinite("1x1 block is not positive")
        return lambda x: x * (1.0 / d[0, 0])
    low = linalg._factor(d)
    return lambda x: linalg._solve(low, x)


class Elimination(NamedTuple):
    """What the reference's forward loop reads of one elimination."""

    rows: np.ndarray
    low: np.ndarray
    K: np.ndarray
    other_rows: np.ndarray
    L_jo: np.ndarray
    l_j: np.ndarray


def reference_pv(model, state, tau, cs, early, skip=True):
    """One backward loop doing each link's eliminations, factors, coupling
    and projections together, with a K block per link, then the dual
    solve and the forward loop.  The backward loop takes the links in the
    engine's order, deepest level first and by descending index within a
    level, so that eliminations happen in the same order.  With `skip`, a
    link tries no constraint with fewer moving joints between its link
    and this one than it has rows.

    Returns (qdd, lam, flops, base dual dim, eliminated block sizes).
    """
    ws = PvWorkspace(model, cs)
    rows = ws.rows
    in_subtree = cons_in_subtree(model, cs)
    # moving joints on each link's root path, below the root
    moving = [0] * model.n_links
    for i in range(1, model.n_links):
        moving[i] = moving[model.parent[i]] + (model.joints[i].nv == 1)
    k_blk = [np.empty((len(r), 6)) for r in rows]
    with flops.counted() as count:
        cache = forward_kinematics(model, state)
        # the engine's frames and c, by link
        xm, c = cache.xm[model.plan.position], cache.c[model.plan.position, :, 0]
        n, m = model.n_links, cs.m
        work = 0
        beta = _beta_hat(model, cache, cs, np.empty(m)) if m else np.empty(0)
        ia = model.inertia66.copy()
        pa = velocity_products(model, cache)
        lam = np.zeros(m)
        big_l = np.zeros((m, m))
        small_l = -beta
        k_world = np.empty((m, 6))
        alive = np.ones(m, dtype=bool)
        elim_diag = np.zeros(m)     # each eliminated row's diagonal at elimination
        elim_at = [[] for _ in range(n)]
        dims = []
        uu, dfac, u, ks, ks_rows = ([None] * n for _ in range(5))
        for i in sorted(range(n), key=lambda i: (-model.link_depth[i], -i)):
            rows_i = rows[i]
            for ci, con in enumerate(cs):
                if con.link == i:
                    k_blk[i][np.searchsorted(rows_i, cs.rows(ci))] = con.K
            if early and in_subtree[i]:
                scale = float(np.max(np.where(alive, np.diag(big_l), elim_diag)[rows_i]))
                for ci in in_subtree[i]:
                    rj = cs.rows(ci)
                    if not alive[rj[0]]:
                        continue
                    if skip and moving[cs.layout[ci][0]] - moving[i] < len(rj):
                        continue
                    low = _try_chol(big_l[np.ix_(rj, rj)], _ELIM_PIVOT_RATIO, scale)
                    work += flops.cholesky(len(rj))
                    if low is None:
                        continue
                    loc = np.flatnonzero(alive[rows_i])
                    ract = rows_i[loc]
                    keep = ~np.isin(ract, rj)
                    others = ract[keep]
                    kj = k_blk[i][loc[~keep]].copy()
                    ljo = big_l[np.ix_(rj, others)].copy()
                    lj = small_l[rj].copy()
                    x_k = linalg.chol_solve(low, kj)
                    x_l = linalg.chol_solve(low, ljo) if others.size else ljo
                    x_b = linalg.chol_solve(low, lj)
                    ia[i] += kj.T @ x_k
                    pa[i] += kj.T @ x_b
                    work += flops.gemm(6, len(rj), 6) + flops.gemm(6, len(rj), 1)
                    if others.size:
                        k_blk[i][loc[keep]] -= ljo.T @ x_k
                        big_l[np.ix_(others, others)] -= ljo.T @ x_l
                        small_l[others] -= ljo.T @ x_b
                        work += flops.gemm(others.size, len(rj), 6 + others.size + 1)
                    elim_diag[rj] = np.diag(big_l)[rj]
                    big_l[rj, :] = 0.0
                    big_l[:, rj] = 0.0
                    small_l[rj] = 0.0
                    alive[rj] = False
                    elim_at[i].append(Elimination(rj, low, kj, others.copy(), ljo, lj))
                    dims.append(len(rj))
            loc = np.flatnonzero(alive[rows_i])
            ract = rows_i[loc]
            ka = k_blk[i][loc]
            nv = model.joints[i].nv
            p = model.parent[i]
            c_i = c[i]
            k_new = ka
            if nv:
                s = model.S[i]
                uu[i] = ia[i] @ s
                try:
                    dfac[i] = joint_solver(s.T @ uu[i])
                except NotPositiveDefinite:
                    raise SingularJointInertia(f"joint {i} inertia is singular") from None
                u[i] = tau[model.v_block(i)] - s.T @ pa[i]
                work += flops.gemm(6, 6, nv) + flops.gemm(nv, 6, nv) \
                    + flops.cholesky(nv) + 11 * nv
                if ract.size:
                    ks[i] = ka @ s
                    w = dfac[i](ks[i].T).T
                    big_l[np.ix_(ract, ract)] += w @ ks[i].T
                    small_l[ract] += ka @ c_i + w @ (u[i] - uu[i].T @ c_i)
                    k_new = ka - w @ uu[i].T
                    r = ract.size
                    work += flops.gemm(r, 6, nv) + flops.chol_solve(nv, r) \
                        + flops.gemm(r, nv, r) + flops.gemm(r, 6, 1) \
                        + flops.gemm(r, nv, 1) + flops.gemm(r, nv, 6)
            ks_rows[i] = ract
            if ract.size:
                k_push = k_new @ xm[i]
                work += flops.XFORCE_T * ract.size
            # the projections only feed the parent, so the root forms none
            if p >= 0:
                if nv:
                    ia_proj = ia[i] - uu[i] @ dfac[i](uu[i].T)
                    pa_proj = pa[i] + ia_proj @ c_i + uu[i] @ dfac[i](u[i])
                    work += flops.chol_solve(nv, 6) + flops.gemm(6, nv, 6) + flops.APPLY_I \
                        + flops.gemm(6, nv, 1) + flops.chol_solve(nv) + 2 * flops.ADD6
                else:
                    ia_proj = ia[i]
                    pa_proj = pa[i] + ia[i] @ c_i
                    work += flops.APPLY_I
                ia[p] += congruence(xm[i], ia_proj)
                pa[p] += xm[i].T @ pa_proj
                work += flops.XINERTIA + flops.XFORCE_T + 42
                if ract.size:
                    k_blk[p][np.searchsorted(rows[p], ract)] = k_push
            elif ract.size:
                k_world[ract] = k_push
        a_world = -model.gravity6()
        act = np.flatnonzero(alive)
        if act.size:
            rhs = -(small_l[act] + k_world[act] @ a_world)
            low = _try_chol(big_l[np.ix_(act, act)], _DUAL_PIVOT_RATIO,
                            float(np.max(np.where(alive, np.diag(big_l), elim_diag))))
            work += flops.gemm(act.size, 6, 1) + flops.cholesky(act.size)
            if low is None:
                raise SingularDual("dual system is singular")
            lam[act] = linalg.chol_solve(low, rhs)
        a = np.empty((n, 6))
        qdd = np.zeros(model.nv)
        for i in range(n):
            p = model.parent[i]
            a_in = xm[i] @ (a_world if p < 0 else a[p]) + c[i]
            nv = model.joints[i].nv
            if nv:
                t = u[i] - uu[i].T @ a_in
                if ks[i] is not None:
                    t = t + ks[i].T @ lam[ks_rows[i]]
                    work += flops.gemm(nv, len(ks_rows[i]), 1)
                blk = dfac[i](t)
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
                work += flops.gemm(len(rec.rows), 6, 1)
        for ci, con in enumerate(cs):
            work += flops.gemm(con.dim, 6, 1)
        flops.add(work)
        return qdd, lam, count(), int(act.size), dims


def _exact_cases():
    """Random fixed and floating trees and chains, some with welded
    interior joints, plus rank-deficient sets that must raise."""
    cases = []
    for seed in range(16):
        model, state, tau, cs = random_feasible_instance(seed + 500, max_n=40)
        cases.append((f"feasible{seed}", model, state, tau, cs))
        rng = np.random.default_rng(seed)
        interior = [i for i in range(1, model.n_links) if model.children[i]]
        if interior:
            welded = with_fixed_joints(model, set(rng.choice(interior, 2).tolist()))
            cases.append((f"welded{seed}", welded, random_state(welded, seed),
                          rng.uniform(-2, 2, welded.nv), cs))
    for seed in range(8):
        cases.append((f"singular{seed}", *random_singular_instance(seed)))
    cases.append(("split_rows", *_split_rows_instance()))
    cases.append(("mixed_siblings", *_mixed_siblings_instance()))
    cases.append(("split_rows_depth_first", *_split_rows_instance(depth_first=True)))
    return cases


def _split_rows_instance(depth_first=False):
    """Two 10-link branches a and b off a fixed base, constrained by
    weld(a7), weld(b10), point(a10) and point(b7) in that order.  Each
    constraint's rows are one run, but no branch's rows are: early
    elimination takes out the a10 point at a7 beside the a7 weld rows
    listed before it, the b10 weld at b4 beside the b7 point rows listed
    after it, and the two remaining blocks at a1 and b1.  Links are
    numbered breadth first (a_k is 2k-1, b_k is 2k) or depth first (a_k
    is k, b_k is 10+k); depth first, the engine's level order is not the
    link order, and the blocks are eliminated in the order 3, 6, 3, 6
    where a link-by-link sweep from the highest index gives 6, 3, 3, 6."""
    def link(branch, k):
        return 10 * branch + k if depth_first else 2 * k - 1 + branch

    axes = (np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
    parent, joints = [-1] * 21, [Joint.fixed()] * 21
    placement = [PlueckerTransform.identity()] * 21
    inertia = [SpatialInertia.from_com(2.0, np.zeros(3), 0.02 * np.eye(3))] * 21
    for k in range(1, 11):
        for branch, first_offset in enumerate(([0.3, 0.0, 0.0], [0.0, 0.3, 0.0])):
            i = link(branch, k)
            parent[i] = 0 if k == 1 else link(branch, k - 1)
            joints[i] = Joint("revolute", axes[(k - 1 + branch) % 2])
            offset = first_offset if k == 1 else [0.3, 0.0, 0.0]
            placement[i] = PlueckerTransform(np.eye(3), np.array(offset))
            inertia[i] = SpatialInertia.from_com(1.0, np.array([0.15, 0.0, 0.0]),
                                                 0.01 * np.eye(3))
    model = Model(parent, joints, placement, inertia)
    rng = np.random.default_rng(1)
    cs = ConstraintSet([
        weld_constraint(link(0, 7), a_star=rng.uniform(-1, 1, 6)),
        weld_constraint(link(1, 10), a_star=rng.uniform(-1, 1, 6)),
        point_constraint(link(0, 10), rng.uniform(-0.1, 0.1, 3), a_star=rng.uniform(-1, 1, 3)),
        point_constraint(link(1, 7), rng.uniform(-0.1, 0.1, 3), a_star=rng.uniform(-1, 1, 3))])
    return model, random_state(model, 1), rng.uniform(-2, 2, model.nv), cs


def _mixed_siblings_instance():
    """A stem of 8 revolute joints off a fixed base and three sibling links
    at its tip, carrying a weld (6 rows), a point (3 rows) and a one-row
    constraint: one level of the coupling pass holds three links with
    6, 3 and 1 rows, whose blocks are padded to 6.  Every row meets at the
    stem's tip, so Lambda has rank 9 of 10 and the exact solvers raise."""
    rng = np.random.default_rng(3)
    stem = 8
    parent = [-1, *range(stem), stem, stem, stem]
    joints, placement = [Joint.fixed()], [PlueckerTransform.identity()]
    inertia = [SpatialInertia.from_com(2.0, np.zeros(3), 0.02 * np.eye(3))]
    for _ in range(stem + 3):
        axis, offset = rng.standard_normal((2, 3))
        offset /= np.linalg.norm(offset)
        joints.append(Joint.revolute(axis / np.linalg.norm(axis)))
        placement.append(PlueckerTransform(np.eye(3), 0.3 * offset))
        inertia.append(SpatialInertia.from_com(1.0, 0.15 * offset, 0.01 * np.eye(3)))
    model = Model(parent, joints, placement, inertia)
    cs = ConstraintSet([
        weld_constraint(stem + 1, a_star=rng.uniform(-1, 1, 6)),
        point_constraint(stem + 2, rng.uniform(-0.1, 0.1, 3), a_star=rng.uniform(-1, 1, 3)),
        MotionConstraint(stem + 3, rng.standard_normal((1, 6)), rng.uniform(-1, 1, 1))])
    return model, random_state(model, 3), rng.uniform(-2, 2, model.nv), cs


EXACT_CASES = _exact_cases()


class TestSameAnswers:
    @pytest.mark.parametrize("early", [False, True], ids=["pv", "pv_early"])
    @pytest.mark.parametrize("case", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
    def test_exact_solvers_match_reference(self, case, early):
        _, model, state, tau, cs = case
        solve = pv_early_solve if early else pv_solve
        ws = PvWorkspace(model, cs)
        try:
            qdd, lam, work, base_dim, dims = reference_pv(model, state, tau, cs, early)
        except SingularDual:
            with pytest.raises(SingularDual):
                solve(model, state, tau, cs, ws)
            return
        with flops.counted() as count:
            sol = solve(model, state, tau, cs, ws)
            assert count() == work
        assert np.linalg.norm(sol.qdd - qdd) <= 1e-12 * (1 + np.linalg.norm(qdd))
        assert np.linalg.norm(sol.lam - lam) <= 1e-12 * (1 + np.linalg.norm(lam))
        assert ws.counters == {"base_dual_dim": base_dim, "dual_factor_dims": dims}

    def test_early_elimination_raises_where_pv_solve_does(self):
        # once a row is eliminated early, the roundoff its duplicate leaves
        # must not pass the pivot test of an ancestor or of the base
        def raises(solve, instance):
            try:
                solve(*instance)
            except SingularDual:
                return True
            return False

        instances = [random_singular_instance(seed) for seed in range(50)]
        differ = [seed for seed, inst in enumerate(instances)
                  if raises(pv_solve, inst) != raises(pv_early_solve, inst)]
        assert differ == []

    def test_cases_cover_the_shapes(self):
        shapes = set()
        for name, model, state, tau, cs in EXACT_CASES:
            if model.base_kind == "floating":
                shapes.add("floating")
            if any(j.nv == 0 for j in model.joints[1:]):
                shapes.add("fixed_interior")
            try:
                reference_pv(model, state, tau, cs, False)
            except SingularDual:
                shapes.add("singular")
                continue
            if reference_pv(model, state, tau, cs, True)[4]:
                shapes.add("eliminates_early")
        assert shapes == {"floating", "fixed_interior", "singular", "eliminates_early"}

    def test_cases_cover_the_level_shapes(self, monkeypatch):
        # the shapes only a level step of the coupling pass has: a level of
        # three or more support links with unequal row counts (a weld's 6
        # beside a point's 3), one of them at a fixed joint, and a level
        # below the root of one link with some of its rows eliminated early
        # and some still coupled
        shapes = {}
        coupling_pass = constrained._coupling_pass
        current = []

        def spy(model, cache, ws, levels, lay, with_l=True):
            for k in levels:
                lr, live = ws.full.coupling[k], lay.coupling[k]
                if lr is None or model.plan.sweep[k].parents is None:
                    continue
                # each link's rows, without the padding
                counts = (np.atleast_2d(lr.idx) < ws.K.shape[0]).sum(1)
                moving = model.plan.fixed[lr.links, 0, 0] == 0.0
                if counts.size >= 3 and counts.min() < counts.max() and not moving.all():
                    shapes.setdefault("wide_level", set()).add(current[-1])
                if counts.size == 1 and live is not None and live.n_rows < lr.n_rows:
                    shapes.setdefault("partly_eliminated", set()).add(current[-1])
            coupling_pass(model, cache, ws, levels, lay, with_l)

        monkeypatch.setattr(constrained, "_coupling_pass", spy)
        for name, model, state, tau, cs in EXACT_CASES:
            current.append(name)
            try:
                pv_early_solve(model, state, tau, cs)
            except SingularDual:
                pass
        assert {"welded0", "welded8"} <= shapes["wide_level"]
        assert {"feasible1", "welded2"} <= shapes["partly_eliminated"]

    @pytest.mark.parametrize("case", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
    def test_pv_osim_matches_dense_delassus(self, case):
        # and so do pv_osimr and, by its grading identity, caba_osim
        _, model, state, _, cs = case
        ref = dense_delassus(model, state, cs)
        tol = 1e-10 * max(1.0, np.abs(ref).max())
        assert np.abs(pv_osim(model, state, cs).matrix - ref).max() <= tol
        assert np.abs(pv_osimr(model, state, cs).matrix - ref).max() <= tol
        mu = 1e-4
        damped = caba_osim(model, state, cs, SolverSettings(mu=mu)).matrix
        assert np.abs(damped @ (ref + mu * np.eye(cs.m)) - np.eye(cs.m)).max() <= 1e-8

    def test_split_rows_case_eliminates_beside_other_rows(self, monkeypatch):
        # _eliminate takes each constraint's rows as one slice of L; the
        # split_rows case must keep eliminating weld and point blocks at
        # links whose subtree rows are not one run, with the rows still
        # coupled listed before and after the eliminated ones
        model, state, tau, cs = next(c[1:] for c in EXACT_CASES if c[0] == "split_rows")
        seen = []
        eliminate = constrained._eliminate

        def spy(ws, sched, live, alive, done):
            start = len(done)
            eliminate(ws, sched, live, alive, done)
            # a round eliminates one block per link, beside that link's rows
            for rec in done[start:]:
                pos = np.broadcast_to(rec.pos, rec.rows.shape)
                for p in np.unique(pos):
                    i = int(model.plan.order[p])
                    rows = ws.rows[i]
                    split = rows[-1] - rows[0] + 1 != rows.size
                    seen.append((i, rec.rows[pos == p][0], split,
                                 [r for r in rec.other_rows.tolist() if r in rows]))

        monkeypatch.setattr(constrained, "_eliminate", spy)
        pv_early_solve(model, state, tau, cs)
        assert sorted(seen) == [(1, 0, True, []), (2, 15, True, []),
                                (8, 6, True, [15, 16, 17]), (13, 12, True, [0, 1, 2, 3, 4, 5])]


def _skip_rule_instances(family):
    """The instance set on which the structural skip of early elimination
    is checked: random feasible trees, rank-deficient sets, and the
    standard fixtures of three models at three row counts."""
    if family == "feasible":
        return [random_feasible_instance(seed, max_n=48) for seed in range(700, 760)]
    if family == "singular":
        return [random_singular_instance(seed) for seed in range(30)]
    out = []
    for spec in ("tree:128:3", "humanoid", "chain:64"):
        model = load_model(spec)
        tau = np.random.default_rng(3).uniform(-5, 5, model.nv)
        out += [(model, random_state(model, 3), tau, standard_constraints(model, m, seed=3))
                for m in (6, 12, 24)]
    return out


@pytest.mark.parametrize("family", ["feasible", "singular", "standard"])
def test_structural_skip_changes_no_answer(family):
    # a constraint of dim rows with fewer than dim moving joints between
    # its link and the eliminating one has a block of L of rank below dim,
    # so skipping its attempt must change nothing but the flops
    skipped = raised = 0
    for k, instance in enumerate(_skip_rule_instances(family)):
        got = []
        for skip in (False, True):
            try:
                got.append(reference_pv(*instance, True, skip=skip))
            except SingularDual:
                got.append(None)
        if got[0] is None or got[1] is None:
            assert got[0] is got[1] is None, k
            raised += 1
            continue
        (qdd, lam, work, base, dims), (qdd_s, lam_s, work_s, base_s, dims_s) = got
        assert np.array_equal(qdd, qdd_s) and np.array_equal(lam, lam_s), k
        assert (base, dims) == (base_s, dims_s), k
        assert work_s <= work
        skipped += work > work_s
    # each family exercises the rule: attempts skipped, or raises compared
    assert skipped if family != "singular" else raised


def _record_live(monkeypatch):
    """Each ``PvWorkspace.live`` call of the solves that follow, as its
    workspace, a copy of its mask and the layout it returned."""
    calls = []
    live = PvWorkspace.live

    def spy(ws, alive):
        lay = live(ws, alive)
        calls.append((ws, alive.copy(), lay))
        return lay
    monkeypatch.setattr(PvWorkspace, "live", spy)
    return calls


def _masked(lr, alive, plan):
    """A level of the full layout masked to the rows `alive`, field by
    field: each link keeps its rows still alive, a link with none left
    drops out, and the rest are padded with the spill row to the largest
    count left (None if no row is left); fields as ``_as_indices`` gives
    them."""
    spill, rows = alive.size, np.atleast_2d(lr.idx)
    keep = np.append(alive, False)[rows]
    count = keep.sum(1)
    have = count > 0
    if not have.any():
        return None
    width = int(count.max())
    idx = np.array([np.r_[r[k], [spill] * (width - k.sum())] for r, k in zip(rows, keep)
                    if k.any()], dtype=int)
    links = np.atleast_1d(_positions(lr.links, plan))[have]
    moving = (plan.fixed[links, 0, 0] == 0.0) * count[have]
    return (links, np.atleast_1d(_positions(lr.off, plan))[have], idx, idx,
            idx[:, :, None] * (spill + 1) + idx[:, None, :],
            int(count.sum()), int(moving.sum()), int((moving * count[have]).sum()))


def _positions(x, plan):
    """Plan positions (or offsets) given as a slice or an array, as an array."""
    return np.arange(plan.order.size)[x]


def _as_indices(lr, Ls, plan):
    """A level's record with every index as an array, a level of one link
    as one of several: links and offsets as positions, ``rows`` as the
    (links, R) rows it reads, and ``block`` as the flat indices of the
    spilled L `Ls` it reads (found by filling `Ls` with its own flat
    indices for the read)."""
    saved = Ls.copy()
    Ls.reshape(-1)[:] = np.arange(Ls.size)
    blocks = lr.block[0][lr.block[1]].astype(int)
    Ls[:] = saved
    links, idx = np.atleast_1d(_positions(lr.links, plan)), np.atleast_2d(lr.idx)
    return (links, np.atleast_1d(_positions(lr.off, plan)),
            np.atleast_2d(np.arange(Ls.shape[0])[lr.rows]), idx,
            blocks.reshape(idx.shape + idx.shape[-1:]), lr.n_rows, lr.n_moving, lr.n_pairs)


def _equal(a, b):
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return all(isinstance(x, np.ndarray) for x in (a, b)) and a.shape == b.shape \
            and np.array_equal(a, b)
    return a == b


def _fd_tree(monkeypatch):
    """perfbench's fd-tree: tree:128:3, its point constraints and its 24
    seeded (state, tau) draws at seed 7101."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    model = generate_tree(*workloads.TREE)
    cs, points = workloads.fd_fixture(model, 7101)
    return model, cs, points


def _row_walk_sets(family, monkeypatch):
    """(model, cs) pairs on which the rows each link carries are pinned."""
    if family == "feasible":
        return [random_feasible_instance(seed)[::3] for seed in range(50)]
    if family == "singular":
        return [random_singular_instance(seed)[::3] for seed in range(50)]
    if family == "fd_tree":
        return [_fd_tree(monkeypatch)[:2]]
    models = [load_model(spec) for spec in ("chain:64", "humanoid", "tree:128:3")]
    return [(model, standard_constraints(model, m)) for model in models for m in (6, 12, 24)]


@pytest.mark.parametrize("family", ["feasible", "singular", "fd_tree", "standard"])
def test_rows_and_schedule_match_the_parent_chains(family, monkeypatch):
    # link i carries the rows of the constraints whose link has i on its
    # parent chain, and at i early elimination tries those of them with at
    # least as many moving joints between their link and i as they have rows
    for model, cs in _row_walk_sets(family, monkeypatch):
        ws = PvWorkspace(model, cs)
        in_subtree = cons_in_subtree(model, cs)
        moving = [0] * model.n_links
        for i in range(1, model.n_links):
            moving[i] = moving[model.parent[i]] + (model.joints[i].nv == 1)
        expected: dict = {}
        for i in range(model.n_links):
            rows = sorted(r for ci in in_subtree[i] for r in cs.rows(ci).tolist())
            assert ws.rows[i].tolist() == rows
            assert (i in ws.support) == bool(rows)
            expected.setdefault(int(model.link_depth[i]), []).extend(
                (-i, ci) for ci in in_subtree[i]
                if moving[cs.layout[ci][0]] - moving[i] >= cs.layout[ci][1])
        for k, sched in enumerate(ws.early):
            # a level's links by descending index, each link's candidates in set order
            cands = [(-neg, ci) for neg, ci in sorted(expected.get(k, []))]
            if sched is None:
                assert not cands
                continue
            links = model.plan.order[sched.pos].tolist()
            assert list(zip(links, sched.first)) == [(i, cs.offsets[ci]) for i, ci in cands]
            assert [r.tolist() for r in sched.rows] == [cs.rows(ci).tolist() for _, ci in cands]
            assert [r.tolist() for r in sched.link_rows] == \
                [ws.rows[i].tolist() for i in dict.fromkeys(links)]


class TestRowLayouts:
    """The coupling pass walks one record of rows, ``_RowLayout``; during
    early elimination it is ``PvWorkspace.live(alive)``, built once per
    pattern of rows still coupled."""

    def test_live_layout_is_the_full_layout_masked(self, monkeypatch):
        calls = _record_live(monkeypatch)
        model, cs, points = _fd_tree(monkeypatch)
        ws = PvWorkspace(model, cs)
        for state, tau in points:
            pv_early_solve(model, state, tau, cs, ws)
        for _, mdl, state, tau, c in EXACT_CASES:
            try:
                pv_early_solve(mdl, state, tau, c)
            except SingularDual:
                pass
        for ws, alive, lay in calls:
            assert lay.K is ws.K and lay.L is ws.L and lay.swaps == ()
            plan = ws.model.plan
            for lr, got in zip(ws.full.coupling, lay.coupling, strict=True):
                if got is not None:
                    got = _as_indices(got, lay.L.base, plan)
                assert _equal(got, None if lr is None else _masked(lr, alive, plan))
        assert sum(not alive.all() for _, alive, _ in calls) > len(points)

    def test_second_solve_reuses_the_live_layouts(self, monkeypatch):
        calls = _record_live(monkeypatch)
        model, state, tau, cs = next(c[1:] for c in EXACT_CASES if c[0] == "feasible1")
        ws = PvWorkspace(model, cs)
        pv_early_solve(model, state, tau, cs, ws)
        first = [lay for _, _, lay in calls]
        calls.clear()
        pv_early_solve(model, state, tau, cs, ws)
        assert len(calls) == len(first) and any(lay is not ws.full for lay in first)
        assert all(lay is old for (_, _, lay), old in zip(calls, first))

    def test_eliminating_every_row_leaves_no_level(self, monkeypatch):
        calls = _record_live(monkeypatch)
        for seed in range(20):
            model, state, tau, cs = random_feasible_instance(seed)
            ws = PvWorkspace(model, cs)
            pv_early_solve(model, state, tau, cs, ws)
            if ws.counters["base_dual_dim"] == 0:
                break
        else:
            pytest.fail("no instance eliminated every row")
        _, alive, lay = calls[-1]
        assert not alive.any()
        assert lay.coupling == (None,) * len(model.plan.sweep)


def _pin_fixtures():
    tree = load_model("tree:128:3")
    humanoid = generate_humanoid_like()
    chain = load_model("chain:64")
    welds = ConstraintSet([weld_constraint(humanoid.names.index(name))
                           for name in ("foot_l", "foot_r", "hand_l", "hand_r")])
    return {"tree:128:3": (tree, standard_constraints(tree, 24, seed=3)),
            "humanoid": (humanoid, welds),
            "chain:64": (chain, standard_constraints(chain, 6, seed=3))}


PIN_FIXTURES = _pin_fixtures()

# flops per call on each fixture (state seed 3): the per-link engine's
# charges without the base projections nothing reads, a second charge
# per Cholesky solve, the producers' root K - w U' or caba's sum
# acc + da in its first iteration, caba's later iterations as
# conjugate-residual steps, pv_osimr over its rows compressed
# to six, and forward kinematics without the zero-gravity acceleration
# (XMOT + ADD6 = 48 per link), which only constraint_drift forms; and
# pv_early without the elimination attempts that cannot succeed, each
# of which charged flops.cholesky(dim): 24 x cholesky(3) on the tree,
# 24 x cholesky(6) on the humanoid and 6 x cholesky(3) on the chain;
# and the Delassus producers without the twists and world poses that
# they never read, n (XMOT + ADD6 + CROSS_M + COMPOSE) + 6 nv = 19,344
# on the tree, 4,980 on the humanoid and 9,744 on the chain
PINNED_FLOPS = {
    "tree:128:3": {"pv": 233733, "pv_early": 221367, "pv_soft": 212085, "caba": 230128,
                   "pv_osim": 157122, "pv_osimr": 159642, "caba_osim": 176706},
    "humanoid": {"pv": 100533, "pv_early": 75333, "pv_soft": 56829, "caba": 68179,
                 "pv_osim": 65370, "pv_osimr": 63738, "caba_osim": 84954},
    "chain:64": {"pv": 141979, "pv_early": 108301, "pv_soft": 105409, "caba": 124977,
                 "pv_osim": 104416, "pv_osimr": 104416, "caba_osim": 104776},
}
# the dense oracles' flops on the same calls (weights 1e-6 for the
# relaxed one): constraint_drift charges the 48 per link that forward
# kinematics no longer does
PINNED_ORACLE_FLOPS = {
    "tree:128:3": {"kkt_oracle": 2856734, "relaxed_kkt_oracle": 2651806},
    "humanoid": {"kkt_oracle": 390284, "relaxed_kkt_oracle": 245116},
    "chain:64": {"kkt_oracle": 486484, "relaxed_kkt_oracle": 467868},
}

# the LTL baseline's flops on the same fixtures and state: crba and
# constraint_jacobian on one cache, the whole FK + CRBA + Jacobian +
# ltl_osim pipeline, and ltl_solve on one right-hand side (seed 3)
PINNED_BASELINE_FLOPS = {
    "tree:128:3": {"crba": 147788, "constraint_jacobian": 41568,
                   "ltl_osim_pipeline": 281176, "ltl_solve": 1608},
    "humanoid": {"crba": 43274, "constraint_jacobian": 15774,
                 "ltl_osim_pipeline": 94016, "ltl_solve": 1476},
    "chain:64": {"crba": 173632, "constraint_jacobian": 18069,
                 "ltl_osim_pipeline": 314142, "ltl_solve": 8192},
}


class TestSameFlops:
    @pytest.mark.parametrize("fixture", sorted(PINNED_FLOPS))
    def test_per_call_flops_are_pinned(self, fixture):
        model, cs = PIN_FIXTURES[fixture]
        state = random_state(model, 3)
        tau = np.random.default_rng(3).uniform(-5, 5, model.nv)
        ws = PvWorkspace(model, cs)
        settings = SolverSettings()
        calls = {
            "pv": lambda: pv_solve(model, state, tau, cs, ws),
            "pv_early": lambda: pv_early_solve(model, state, tau, cs, ws),
            "pv_soft": lambda: pv_soft_solve(model, state, tau, cs, settings, ws),
            "caba": lambda: constrained_aba(model, state, tau, cs, settings, ws),
            "pv_osim": lambda: pv_osim(model, state, cs, ws),
            "pv_osimr": lambda: pv_osimr(model, state, cs, ws),
            "caba_osim": lambda: caba_osim(model, state, cs, settings, ws),
        }
        counted = {}
        for name, call in calls.items():
            with flops.counted() as count:
                call()
                counted[name] = count()
        assert counted == PINNED_FLOPS[fixture]

    @pytest.mark.parametrize("fixture", sorted(PINNED_ORACLE_FLOPS))
    def test_oracle_flops_are_pinned(self, fixture):
        model, cs = PIN_FIXTURES[fixture]
        state = random_state(model, 3)
        tau = np.random.default_rng(3).uniform(-5, 5, model.nv)
        counted = {}
        for name, call in (("kkt_oracle", lambda: kkt_oracle(model, state, tau, cs)),
                           ("relaxed_kkt_oracle",
                            lambda: relaxed_kkt_oracle(model, state, tau, cs, 1e-6))):
            with flops.counted() as count:
                call()
                counted[name] = count()
        assert counted == PINNED_ORACLE_FLOPS[fixture]

    @pytest.mark.parametrize("fixture", sorted(PINNED_BASELINE_FLOPS))
    def test_baseline_flops_are_pinned(self, fixture):
        model, cs = PIN_FIXTURES[fixture]
        state = random_state(model, 3)
        cache = forward_kinematics(model, state)
        mass = crba(model, state, cache=cache)
        factor = ltl_factorize(mass)
        rhs = np.random.default_rng(3).uniform(-1, 1, model.nv)

        def pipeline():
            fk = forward_kinematics(model, state)
            return ltl_osim(crba(model, state, cache=fk), constraint_jacobian(model, fk, cs))
        counted = {}
        for name, call in (("crba", lambda: crba(model, state, cache=cache)),
                           ("constraint_jacobian", lambda: constraint_jacobian(model, cache, cs)),
                           ("ltl_osim_pipeline", pipeline),
                           ("ltl_solve", lambda: ltl_solve(factor, rhs))):
            with flops.counted() as count:
                call()
                counted[name] = count()
        assert counted == PINNED_BASELINE_FLOPS[fixture]


class TestRelaxedFirstIteration:
    @pytest.mark.parametrize("fixture", ["tree:128:3", "humanoid"])
    def test_one_caba_iteration_is_the_relaxed_solve(self, fixture):
        model, cs = PIN_FIXTURES[fixture]
        state = random_state(model, 3)
        tau = np.random.default_rng(3).uniform(-5, 5, model.nv)
        settings = SolverSettings(max_iter=1)
        soft = pv_soft_solve(model, state, tau, cs, SolverSettings(soft_R=settings.mu))
        prox = constrained_aba(model, state, tau, cs, settings)
        np.testing.assert_array_equal(prox.qdd, soft.qdd)
        np.testing.assert_array_equal(prox.lam, soft.lam)
        assert prox.primal_residual == soft.primal_residual


# iterations and the first letter of the status of constrained_aba at the
# default settings on random_feasible_instance(0..39) and
# random_singular_instance(0..49)
FEASIBLE_RUNS = ("2232233323332322232223222222332323223222",
                 "cccccccccccccccccccccccccccccccccccccccc")
SINGULAR_RUNS = ("23322232332333323223223233232223333333232332232222",
                 "cllccclcllcllllclcclcclcllclccclllllllclcllcclcccc")
# the same under the fixed-step iteration (lam -= r/mu, stopped after six
# iterations that each improved by under 0.1%) that conjugate residuals
# replaced: no instance may take more iterations, and none may change status
FIXED_STEP_FEASIBLE_RUNS = ("2233233323332323233323232323332333233332",
                            "cccccccccccccccccccccccccccccccccccccccc")
FIXED_STEP_SINGULAR_RUNS = ("26623363662666626226226266263226666666263662262223",
                            "cllccclcllcllllclcclcclcllclccclllllllclcllcclcccc")


class TestProximalRuns:
    @pytest.mark.parametrize("make, runs, fixed_step",
                             [(random_feasible_instance, FEASIBLE_RUNS, FIXED_STEP_FEASIBLE_RUNS),
                              (random_singular_instance, SINGULAR_RUNS, FIXED_STEP_SINGULAR_RUNS)],
                             ids=["feasible", "singular"])
    def test_iterations_and_statuses_are_pinned(self, make, runs, fixed_step):
        iterations, statuses = [], []
        for seed in range(len(runs[0])):
            sol = constrained_aba(*make(seed))
            iterations.append(sol.iterations)
            statuses.append(sol.status[0])
        assert ("".join(map(str, iterations)), "".join(statuses)) == runs
        assert all(k <= int(bound) for k, bound in zip(iterations, fixed_step[0]))
        assert "".join(statuses) == fixed_step[1]


def _massless():
    return SpatialInertia(0.0, np.zeros(3), np.zeros((3, 3)))


def _body():
    return SpatialInertia.from_com(1.0, [0.0, 0.0, -0.1], 1e-2 * np.eye(3))


def _singular_models():
    """(name, model, constrained link, the error and message expected)."""
    ident = PlueckerTransform.identity()
    down = PlueckerTransform(np.eye(3), [0.0, 0.0, -0.3])
    one_link = Model([-1], [Joint.revolute([0, 0, 1])], [ident], [_massless()])
    leaf = Model([-1, 0, 1], [Joint.floating(), Joint.revolute([0, 1, 0]),
                              Joint.revolute([1, 0, 0])],
                 [ident, down, down], [_body(), _body(), _massless()])
    bare = Model([-1], [Joint.floating()], [ident], [_massless()])
    return [("fixed_one_link", one_link, 0, SingularJointInertia, "joint 0 "),
            ("floating_massless_leaf", leaf, 2, SingularJointInertia, "joint 2 "),
            ("floating_all_massless", bare, 0, SingularBaseInertia, "floating-base")]


SINGULAR_MODELS = _singular_models()


class TestSingularInertiaRule:
    @pytest.mark.parametrize("producer", ["pv_osim", "pv_osimr", "caba_osim", "pv_solve",
                                          "pv_early_solve", "aba"])
    @pytest.mark.parametrize("case", SINGULAR_MODELS, ids=[c[0] for c in SINGULAR_MODELS])
    def test_one_error_per_model(self, case, producer):
        _, model, link, error, message = case
        state = random_state(model, 0)
        tau = np.zeros(model.nv)
        cs = ConstraintSet([point_constraint(link, [0.1, 0.0, 0.0])])
        call = {
            "pv_osim": lambda: pv_osim(model, state, cs),
            "pv_osimr": lambda: pv_osimr(model, state, cs),
            "caba_osim": lambda: caba_osim(model, state, cs),
            "pv_solve": lambda: pv_solve(model, state, tau, cs),
            "pv_early_solve": lambda: pv_early_solve(model, state, tau, cs),
            "aba": lambda: aba(model, state, tau),
        }[producer]
        with pytest.raises(error, match=message):
            call()


def test_aba_builds_no_constraint_workspace(monkeypatch, humanoid):
    def refuse(*args, **kwargs):
        raise AssertionError("aba built a constraint workspace")

    state = random_state(humanoid, 1)
    tau = np.random.default_rng(1).uniform(-1, 1, humanoid.nv)
    expected = aba(humanoid, state, tau)
    monkeypatch.setattr(constrained.PvWorkspace, "__init__", refuse)
    np.testing.assert_array_equal(aba(humanoid, state, tau), expected)


# ---------------------------------------------------------------------------
# the level-batched passes


def per_link_aba(model, cache, tau, added=None, bias=None):
    """The per-link articulated-body passes that the level-batched engine
    replaced: inertias and biases from the leaves, then accelerations from
    the root, one Python iteration per link.  Returns (qdd, link
    accelerations)."""
    n, xm, c = model.n_links, cache.xm[model.plan.position], cache.c[model.plan.position, :, 0]
    ia = model.inertia66.copy()
    pa = velocity_products(model, cache)
    for link, extra in (added or {}).items():
        ia[link] += extra
    for link, extra in (bias or {}).items():
        pa[link] += extra
    uu, dfac, u = [None] * n, [None] * n, [None] * n
    for i in range(n - 1, -1, -1):
        ia_proj, pa_proj = ia[i], pa[i] + ia[i] @ c[i]
        if model.joints[i].nv:
            s = model.S[i]
            uu[i] = ia[i] @ s
            dfac[i] = joint_solver(s.T @ uu[i])
            u[i] = tau[model.v_block(i)] - s.T @ pa[i]
            ia_proj = ia[i] - uu[i] @ dfac[i](uu[i].T)
            pa_proj = pa[i] + ia_proj @ c[i] + uu[i] @ dfac[i](u[i])
        p = model.parent[i]
        if p >= 0:
            ia[p] += congruence(xm[i], ia_proj)
            pa[p] += xm[i].T @ pa_proj
    qdd = np.zeros(model.nv)
    a = np.empty((n, 6))
    for i in range(n):
        p = model.parent[i]
        a[i] = xm[i] @ (-model.gravity6() if p < 0 else a[p]) + c[i]
        if model.joints[i].nv:
            qdd[model.v_block(i)] = blk = dfac[i](u[i] - uu[i].T @ a[i])
            a[i] += model.S[i] @ blk
    return qdd, a


def _welded_tree():
    tree = load_model("tree:40:3")
    return with_fixed_joints(tree, {i for i in range(1, tree.n_links)
                                    if tree.children[i]} & set(range(2, 40, 3)))


ENGINE_MODELS = {
    "chain:1": lambda: load_model("chain:1"),
    "chain:2": lambda: load_model("chain:2"),
    "chain:7": lambda: load_model("chain:7"),
    "chain:64": lambda: load_model("chain:64"),
    "chain:256": lambda: load_model("chain:256"),
    "tree:128:3": lambda: load_model("tree:128:3"),
    "humanoid": generate_humanoid_like,
    "welded-tree": _welded_tree,
    "urdf-floating-prismatic": lambda: parse_urdf_subset(MIXED_URDF),
}


def _engine_case(name):
    model = ENGINE_MODELS[name]()
    rng = np.random.default_rng(11)
    state = random_state(model, 11)
    tau = rng.uniform(-3, 3, model.nv)
    m = min(6, model.nv - 1)
    cs = standard_constraints(model, m, seed=11) if m else ConstraintSet.empty()
    return model, state, tau, cs


def _close(x, ref, tol=1e-12):
    return np.linalg.norm(x - ref) <= tol * (1 + np.linalg.norm(ref))


def _soft_terms(cs, beta, weights):
    reg, bias = {}, {}
    for ci, con in enumerate(cs):
        rows = cs.rows(ci)
        reg[con.link] = reg.get(con.link, 0) + con.K.T @ (con.K / weights[rows][:, None])
        bias[con.link] = bias.get(con.link, 0) - con.K.T @ (beta[rows] / weights[rows])
    return reg, bias


class TestLevelBatchedEngine:
    @pytest.mark.parametrize("name", sorted(ENGINE_MODELS))
    def test_solvers_match_per_link_passes(self, name):
        model, state, tau, cs = _engine_case(name)
        cache = forward_kinematics(model, state)
        qdd, _ = per_link_aba(model, cache, tau)
        assert _close(aba(model, state, tau), qdd)
        if not cs.m:
            return
        settings = SolverSettings()
        weights = np.full(cs.m, settings.soft_R)
        beta = _beta_hat(model, cache, cs, np.empty(cs.m))
        soft, _ = per_link_aba(model, cache, tau, *_soft_terms(cs, beta, weights))
        # the added inertia K'K/R rounds at its own size in either order
        tol = 100 * np.finfo(float).eps / settings.soft_R
        assert _close(pv_soft_solve(model, state, tau, cs, settings).qdd, soft, tol)
        # the reference sweeps the whole tree in every iteration; the two
        # orders of summation round against a bias of size |beta|/mu
        ref_qdd, ref_lam, iterations, status = full_sweep_caba(
            model, state, tau, cs, settings, per_link_aba)
        sol = constrained_aba(model, state, tau, cs, settings)
        tol = 100 * np.finfo(float).eps / settings.mu
        assert (sol.iterations, sol.status) == (iterations, status)
        assert _close(sol.qdd, ref_qdd, tol) and _close(sol.lam, ref_lam, tol)
        for early, solve in ((False, pv_solve), (True, pv_early_solve)):
            try:
                ref_qdd, ref_lam = reference_pv(model, state, tau, cs, early)[:2]
            except SingularDual:
                with pytest.raises(SingularDual):
                    solve(model, state, tau, cs)
                continue
            sol = solve(model, state, tau, cs)
            assert _close(sol.qdd, ref_qdd) and _close(sol.lam, ref_lam)

    @pytest.mark.parametrize("name", ["tree:128:3", "humanoid", "welded-tree",
                                      "urdf-floating-prismatic", "chain:64"])
    def test_subset_passes_match_full_sweep(self, name):
        # the change a bias on the constrained links makes, swept over the
        # support and filled in over the rest, against a whole-tree
        # homogeneous sweep and against two per-link solves
        model, state, tau, cs = _engine_case(name)
        rng = np.random.default_rng(5)
        bias = {con.link: rng.uniform(-1, 1, 6) for con in cs}
        cache = forward_kinematics(model, state)
        ws = PvWorkspace(model, cs)
        position = model.plan.position
        _own_terms(model, cache, ws)
        _aba(model, cache, ws, tau)
        ws.pA[ws.support_pos] = 0.0
        for link, extra in bias.items():
            ws.pA[position[link], :, 0] += extra
        _bias_pass(model, cache, ws, ws.support_levels)
        _forward_pass(model, cache, ws, ws.support_levels, change=True)
        ws.u[ws.off_pos] = 0.0
        _forward_pass(model, cache, ws, ws.off_levels, change=True)
        subset = _dofs(model, ws.dqj), ws.da[model.plan.position, :, 0]
        ws.pA[:] = 0.0
        for link, extra in bias.items():
            ws.pA[position[link], :, 0] += extra
        _bias_pass(model, cache, ws, model.plan.sweep)
        _forward_pass(model, cache, ws, model.plan.sweep, change=True)
        whole = _dofs(model, ws.dqj), ws.da[model.plan.position, :, 0]
        base, with_bias = per_link_aba(model, cache, tau), per_link_aba(model, cache, tau,
                                                                       bias=bias)
        for got, full, b, wb in zip(subset, whole, base, with_bias):
            assert _close(got, full)
            assert _close(got, wb - b, 1e-12 * (1 + np.linalg.norm(wb)))

    @pytest.mark.parametrize("name", ["tree:128:3", "welded-tree"])
    def test_inertia_pass_writes_factors_on_subset_levels(self, name):
        # a subset level whose links are not contiguous in plan order is an
        # index array; each of its links' factors must still be stored,
        # from the articulated inertia its children left it
        model, state, tau, cs = _engine_case(name)
        cache = forward_kinematics(model, state)
        ws = PvWorkspace(model, cs)
        plan = model.plan
        assert any(not isinstance(lv.links, slice) for lv in ws.support_levels)
        np.copyto(ws.IA, plan.inertia66)
        ws.U[:] = ws.D_inv[:] = ws.IA_proj[:] = np.nan
        _inertia_pass(model, cache, ws, ws.support_levels)
        pos = ws.support_pos[ws.support_pos > 0]
        u = ws.IA[pos] @ plan.S[pos]
        inv = 1.0 / (plan.ST[pos] @ u + plan.fixed[pos])
        np.testing.assert_array_equal(ws.U[pos], u)
        np.testing.assert_array_equal(ws.D_inv[pos], inv)
        np.testing.assert_array_equal(ws.IA_proj[pos], ws.IA[pos] - u * (u.swapaxes(1, 2) * inv))

    def test_singular_joint_named_in_a_level_of_two_massless_links(self):
        # depth 1 holds, in order: a welded body, a massless link carrying a
        # body, a massless leaf, a body and a massless leaf; only the two
        # massless leaves have a singular joint-space inertia
        ident = PlueckerTransform.identity()
        down = PlueckerTransform(np.eye(3), [0.0, 0.0, -0.3])
        joints = [Joint.fixed(), Joint.fixed(), Joint.revolute([1, 0, 0]),
                  Joint.revolute([0, 1, 0]), Joint.revolute([0, 0, 1]),
                  Joint.revolute([1, 1, 0]), Joint.revolute([0, 1, 0])]
        inertia = [_body(), _body(), _massless(), _massless(), _body(), _massless(), _body()]
        model = Model([-1, 0, 0, 0, 0, 0, 2], joints, [ident] + [down] * 6, inertia)
        state = random_state(model, 0)
        with pytest.raises(SingularJointInertia) as err:
            aba(model, state, np.zeros(model.nv))
        joint = int(str(err.value).split()[1])
        assert joint in (3, 5)
        assert model.inertia[joint].mass == 0.0 and not model.children[joint]
