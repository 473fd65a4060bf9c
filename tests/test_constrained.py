import math

import numpy as np
import pytest

from pvdyn import (ConstraintSet, MotionConstraint, PvWorkspace,
                   SolverSettings, aba, constrained_aba, dense_delassus, generate_chain,
                   generate_tree, kkt_oracle, neutral_state, point_constraint,
                   pv_early_solve, pv_solve, pv_soft_solve,
                   random_feasible_instance, random_singular_instance,
                   State, random_state, relaxed_kkt_oracle, rnea, weld_constraint)
from pvdyn import constrained, kinematics
from pvdyn.bench import load_model
from pvdyn.constrained import (_aba, _add_rows, _beta_hat, _bias_pass, _dofs, _forward_pass,
                               _inertia_pass, _min_norm, _own_terms, _residual, _slots,
                               _support_response)
from pvdyn.delassus import caba_osim, pv_osim, pv_osimr
from pvdyn.errors import DimensionMismatch, NonFiniteInput, SingularDual
from pvdyn.generators import standard_constraints
from pvdyn.integrate import integrate_position
from pvdyn.kinematics import (constraint_drift, constraint_jacobian, forward_kinematics,
                              velocity_products)
from pvdyn import flops
from conftest import cons_in_subtree, loglog_slope


def quadruped():
    """Floating trunk, four 3-dof legs; one leaf link per leg."""
    from pvdyn import Joint, Model, PlueckerTransform, SpatialInertia
    parent = [-1]
    joints = [Joint.floating()]
    placement = [PlueckerTransform.identity()]
    inertia = [SpatialInertia.from_com(5.0, np.zeros(3), 0.1 * np.eye(3))]
    for leg, (x, y) in enumerate([(0.3, 0.2), (0.3, -0.2), (-0.3, 0.2), (-0.3, -0.2)]):
        axes = ([1, 0, 0], [0, 1, 0], [0, 1, 0])
        offsets = ([x, y, 0], [0, 0, -0.2], [0, 0, -0.25])
        p = 0
        for axis, off in zip(axes, offsets):
            parent.append(p)
            joints.append(Joint.revolute(axis))
            placement.append(PlueckerTransform(np.eye(3), off))
            inertia.append(SpatialInertia.from_com(0.8, [0, 0, -0.1],
                                                   0.005 * np.eye(3)))
            p = len(parent) - 1
    return Model(parent, joints, placement, inertia)


def engine_aba(model, cache, tau, added, bias):
    """(qdd, link accelerations) of the engine's whole-tree sweep."""
    ws = PvWorkspace(model, ConstraintSet.empty())
    _own_terms(model, cache, ws)
    position = model.plan.position
    for link, extra in added.items():
        ws.IA[position[link]] += extra
    for link, extra in bias.items():
        ws.pA[position[link], :, 0] += extra
    qdd = _aba(model, cache, ws, np.asarray(tau, float))
    return qdd, ws.acc[position, :, 0]


def full_sweep_caba(model, state, tau, cs, settings=None, sweep=engine_aba):
    """Reference proximal iteration on whole-tree passes only.

    The same conjugate-residual steps, stop tests and min-norm projection
    as `constrained_aba`, which after its first iteration sweeps only the
    constraint support and adds up y's change as it goes.  Here `sweep`
    runs the whole tree: B v is its homogeneous pass (at rest, without
    gravity or tau) with the bias -K' v, and qdd is its pass at the final
    bias.  Returns (qdd, lam, iterations, status).
    """
    settings = settings or SolverSettings()
    mu, tol = settings.mu, settings.tol_primal
    tol_dual = tol / mu
    cache = forward_kinematics(model, state)
    still = model.with_gravity([0.0, 0.0, 0.0])
    rest = forward_kinematics(still, State(state.q, np.zeros(model.nv)))
    beta = _beta_hat(model, cache, cs, np.empty(cs.m))
    reg = {}
    for con in cs:
        reg[con.link] = reg.get(con.link, 0) + con.K.T @ con.K / mu

    def bias(v):
        out = {}
        for ci, con in enumerate(cs):
            out[con.link] = out.get(con.link, 0) - con.K.T @ v[cs.rows(ci)]
        return out

    def rows(a):
        return np.concatenate([con.K @ a[con.link] for con in cs])

    def solve(w):
        qdd, a = sweep(model, cache, tau, reg, bias(w + beta / mu))
        return qdd, rows(a) - beta

    def apply(v):
        return rows(sweep(still, rest, np.zeros(model.nv), reg, bias(v))[1])

    def min_norm(w, r):
        return w - (r @ w) / (r @ r) * r

    w = np.zeros(cs.m)
    r = solve(w)[1]
    history = [float(np.linalg.norm(r))]
    status = "max_iter"
    it, gamma, lam_hat, hat_at = 1, 0.0, None, 0
    while True:
        if history[-1] <= tol:
            status = "converged"
            break
        if it > 1 and history[-2] - history[-1] <= tol_dual * history[-2]:
            prev, lam_hat = lam_hat, min_norm(w, r)
            if hat_at == it - 1 and \
                    np.linalg.norm(lam_hat - prev) <= tol_dual * np.linalg.norm(lam_hat):
                status = "least_squares"
                break
            hat_at = it
        if it == settings.max_iter:
            break
        it += 1
        br = apply(r)
        gamma, gamma_prev = float(r @ br), gamma
        if not gamma > 0.0:
            status, lam_hat = "least_squares", min_norm(w, r)
            history.append(history[-1])
            break
        if it == 2:
            p, bp = r.copy(), br
        else:
            p = r + gamma / gamma_prev * p
            bp = br + gamma / gamma_prev * bp
        alpha = gamma / float(bp @ bp)
        w = w - alpha * p
        r = r - alpha * bp
        history.append(float(np.linalg.norm(r)))
    qdd = solve(w)[0]
    lam = lam_hat if status == "least_squares" else w - r / mu
    return qdd, lam, it, status


def with_fixed_joints(model, links):
    """The same tree with the joints of `links` welded (nv = 0)."""
    from pvdyn import Joint, Model
    joints = [Joint.fixed() if i in links else j for i, j in enumerate(model.joints)]
    return Model(model.parent, joints, model.placement, model.inertia,
                 model.gravity, model.names)


def assert_matches_oracle(sol, oracle, tol_q=1e-8, tol_l=1e-6):
    scale_q = 1 + np.linalg.norm(oracle.qdd)
    scale_l = 1 + np.linalg.norm(oracle.lam)
    assert np.linalg.norm(sol.qdd - oracle.qdd) <= tol_q * scale_q
    assert np.linalg.norm(sol.lam - oracle.lam) <= tol_l * scale_l


class TestPvSolve:
    def test_unconstrained_reduces_to_aba(self, chain8):
        state = random_state(chain8, 1)
        tau = np.random.default_rng(1).uniform(-3, 3, 8)
        sol = pv_solve(chain8, state, tau, ConstraintSet.empty())
        np.testing.assert_allclose(sol.qdd, aba(chain8, state, tau), atol=1e-12)
        assert sol.iterations == 1 and sol.status == "converged"

    def test_weld_on_chain_matches_oracle(self, chain8):
        state = random_state(chain8, 2)
        tau = np.random.default_rng(2).uniform(-3, 3, 8)
        cs = ConstraintSet([weld_constraint(8, a_star=np.linspace(-1, 1, 6))])
        assert_matches_oracle(pv_solve(chain8, state, tau, cs),
                              kkt_oracle(chain8, state, tau, cs))

    def test_pendulum_overconstrained_raises(self, pendulum):
        # three rows on one dof: dual block is singular even though the
        # instance is statically consistent
        cs = ConstraintSet([point_constraint(1, [0.5, 0, 0])])
        with pytest.raises(SingularDual):
            pv_solve(pendulum, neutral_state(pendulum), np.zeros(1), cs)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_match_oracle(self, seed):
        model, state, tau, cs = random_feasible_instance(seed + 4200)
        assert_matches_oracle(pv_solve(model, state, tau, cs),
                              kkt_oracle(model, state, tau, cs))

    def test_floating_base_constraint_on_base_link(self):
        model = generate_tree(8, 2, seed=3, base_kind="floating")
        state = random_state(model, 4)
        tau = np.random.default_rng(4).uniform(-2, 2, model.nv)
        cs = ConstraintSet([point_constraint(0, [0.1, 0, 0],
                                             a_star=[0.3, -0.2, 0.1])])
        assert_matches_oracle(pv_solve(model, state, tau, cs),
                              kkt_oracle(model, state, tau, cs))

    def test_workspace_reuse_is_identical(self, chain8):
        state = random_state(chain8, 5)
        tau = np.random.default_rng(5).uniform(-3, 3, 8)
        cs = ConstraintSet([point_constraint(6, [0.2, 0, 0])])
        ws = PvWorkspace(chain8, cs)
        first = pv_solve(chain8, state, tau, cs, ws)
        second = pv_solve(chain8, state, tau, cs, ws)
        np.testing.assert_array_equal(first.qdd, second.qdd)
        np.testing.assert_array_equal(first.lam, second.lam)

    def test_workspace_subtree_rows(self, chain8):
        cs = ConstraintSet([point_constraint(5, [0.1, 0, 0]), weld_constraint(8)])
        ws = PvWorkspace(chain8, cs)
        assert len(ws.rows[8]) == 6
        assert len(ws.rows[5]) == 9
        assert len(ws.rows[1]) == 9
        assert len(ws.rows[6]) == 6


class TestPvEarly:
    def test_weld_tip_matches_pv(self, chain8):
        state = random_state(chain8, 6)
        tau = np.random.default_rng(6).uniform(-3, 3, 8)
        cs = ConstraintSet([weld_constraint(8, a_star=np.linspace(-0.5, 0.5, 6))])
        a = pv_solve(chain8, state, tau, cs)
        b = pv_early_solve(chain8, state, tau, cs)
        np.testing.assert_allclose(b.qdd, a.qdd, atol=1e-10 * (1 + np.linalg.norm(a.qdd)))
        np.testing.assert_allclose(b.lam, a.lam, atol=1e-8 * (1 + np.linalg.norm(a.lam)))

    def test_quadruped_feet_eliminated_per_branch(self):
        model = quadruped()
        state = random_state(model, 7)
        tau = np.random.default_rng(7).uniform(-2, 2, model.nv)
        feet = [3, 6, 9, 12]
        cs = ConstraintSet([point_constraint(f, [0, 0, -0.15],
                                             a_star=np.zeros(3)) for f in feet])
        ws = PvWorkspace(model, cs)
        sol = pv_early_solve(model, state, tau, cs, ws)
        assert_matches_oracle(sol, kkt_oracle(model, state, tau, cs))
        # all multiplier blocks resolved on their own branches: no dense
        # m x m factorization happens at the base
        assert ws.counters["base_dual_dim"] == 0
        assert max(ws.counters["dual_factor_dims"]) <= 3

    def test_unconstrained_reduction(self, chain8):
        state = random_state(chain8, 8)
        tau = np.random.default_rng(8).uniform(-3, 3, 8)
        sol = pv_early_solve(chain8, state, tau, ConstraintSet.empty())
        np.testing.assert_allclose(sol.qdd, aba(chain8, state, tau), atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_match_oracle(self, seed):
        model, state, tau, cs = random_feasible_instance(seed + 8800)
        assert_matches_oracle(pv_early_solve(model, state, tau, cs),
                              kkt_oracle(model, state, tau, cs))

    def test_base_coupled_rows_fall_back_to_base(self):
        # a weld on a 3-dof leg needs the floating base to become
        # determined, so its block stays singular along the branch and is
        # deferred to the base solve, while the point constraint on the
        # other leg is eliminated on its own branch; the hybrid stays exact
        model = quadruped()
        state = random_state(model, 9)
        tau = np.random.default_rng(9).uniform(-1, 1, model.nv)
        cs = ConstraintSet([weld_constraint(3, a_star=np.linspace(-0.3, 0.3, 6)),
                            point_constraint(6, [0.0, 0.0, -0.15])])
        ws = PvWorkspace(model, cs)
        sol = pv_early_solve(model, state, tau, cs, ws)
        assert ws.counters["base_dual_dim"] == 6
        assert 3 in ws.counters["dual_factor_dims"]
        assert_matches_oracle(sol, kkt_oracle(model, state, tau, cs))


class TestPvSoft:
    def test_large_weight_approaches_free_dynamics(self, chain8):
        state = random_state(chain8, 10)
        tau = np.random.default_rng(10).uniform(-3, 3, 8)
        cs = ConstraintSet([weld_constraint(8)])
        sol = pv_soft_solve(chain8, state, tau, cs, SolverSettings(soft_R=1e12))
        free = aba(chain8, state, tau)
        assert np.linalg.norm(sol.qdd - free) <= 1e-6 * (1 + np.linalg.norm(free))

    def test_small_weight_approaches_exact(self, chain8):
        state = random_state(chain8, 11)
        tau = np.random.default_rng(11).uniform(-3, 3, 8)
        cs = ConstraintSet([point_constraint(8, [0.1, 0, 0], a_star=[0.2, 0, 0])])
        soft = pv_soft_solve(chain8, state, tau, cs, SolverSettings(soft_R=1e-12))
        hard = pv_solve(chain8, state, tau, cs)
        assert np.linalg.norm(soft.qdd - hard.qdd) <= 1e-4 * (1 + np.linalg.norm(hard.qdd))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_relaxed_oracle(self, seed):
        model, state, tau, cs = random_feasible_instance(seed + 1300)
        for weight in (1e-2, 1e-6):
            sol = pv_soft_solve(model, state, tau, cs, SolverSettings(soft_R=weight))
            ref = relaxed_kkt_oracle(model, state, tau, cs, weight)
            assert np.linalg.norm(sol.qdd - ref) <= 1e-8 * (1 + np.linalg.norm(ref))

    def test_weight_sweep_monotone_toward_exact(self, chain8):
        state = random_state(chain8, 12)
        tau = np.random.default_rng(12).uniform(-3, 3, 8)
        cs = ConstraintSet([point_constraint(7, [0.15, 0, 0], a_star=[0.1, -0.1, 0])])
        exact = pv_solve(chain8, state, tau, cs).qdd
        gaps = []
        for weight in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
            soft = pv_soft_solve(chain8, state, tau, cs,
                                 SolverSettings(soft_R=weight)).qdd
            gaps.append(np.linalg.norm(soft - exact))
        # monotone until the conditioning floor: below 1e-4 the regularized
        # sweep has lost the digits the comparison would need (kappa ~ 1/R)
        floor = 1e-4
        for k in range(len(gaps) - 1):
            assert gaps[k + 1] <= gaps[k] * (1 + 1e-9) or gaps[k + 1] <= floor


class TestConstrainedAba:
    @pytest.mark.parametrize("seed", range(8))
    def test_feasible_matches_oracle_few_iterations(self, seed):
        model, state, tau, cs = random_feasible_instance(seed + 2600)
        sol = constrained_aba(model, state, tau, cs)
        assert sol.status == "converged"
        assert sol.iterations <= 10
        assert_matches_oracle(sol, kkt_oracle(model, state, tau, cs))

    def test_unconstrained_single_sweep(self, chain8):
        state = random_state(chain8, 13)
        tau = np.random.default_rng(13).uniform(-3, 3, 8)
        sol = constrained_aba(chain8, state, tau, ConstraintSet.empty())
        assert sol.iterations == 1
        np.testing.assert_allclose(sol.qdd, aba(chain8, state, tau), atol=1e-12)
        # the relaxed solve over no rows is aba, in its answer and its flops
        with flops.counted() as count:
            free = aba(chain8, state, tau)
            free_flops = count()
        with flops.counted() as count:
            soft = pv_soft_solve(chain8, state, tau, ConstraintSet.empty())
            assert count() == free_flops
        np.testing.assert_array_equal(soft.qdd, free)

    def test_contradictory_rows_least_squares(self, chain8):
        state = random_state(chain8, 14)
        row = np.zeros((1, 6))
        row[0, 3] = 1.0
        cs = ConstraintSet([MotionConstraint(8, row, np.array([0.0])),
                            MotionConstraint(8, row, np.array([1.0]))])
        tau = np.zeros(8)
        sol = constrained_aba(chain8, state, tau, cs)
        ref = kkt_oracle(chain8, state, tau, cs)
        assert sol.status == "least_squares"
        assert np.all(np.isfinite(sol.lam))
        assert np.linalg.norm(sol.qdd - ref.qdd) <= 1e-6 * (1 + np.linalg.norm(ref.qdd))

    def test_residual_outside_the_range_stops_before_a_step(self):
        # at rest without gravity the relaxed solve leaves r0 = (-1, 1) on
        # two copies of one row, which B (with range (1, 1)) maps to zero
        model = generate_chain(8).with_gravity([0.0, 0.0, 0.0])
        state = neutral_state(model)
        row = np.zeros((1, 6))
        row[0, 3] = 1.0
        cs = ConstraintSet([MotionConstraint(8, row, np.array([1.0])),
                            MotionConstraint(8, row, np.array([-1.0]))])
        sol = constrained_aba(model, state, np.zeros(8), cs)
        ref = kkt_oracle(model, state, np.zeros(8), cs)
        assert (sol.status, sol.iterations) == ("least_squares", 2)
        assert sol.residual_history == (np.sqrt(2.0),) * 2
        np.testing.assert_array_equal(sol.qdd, ref.qdd)
        np.testing.assert_array_equal(sol.lam, ref.lam)

    @pytest.mark.parametrize("seed", range(6))
    def test_singular_instances_finite_and_least_squares(self, seed):
        model, state, tau, cs = random_singular_instance(seed + 77)
        sol = constrained_aba(model, state, tau, cs)
        ref = kkt_oracle(model, state, tau, cs)
        assert np.all(np.isfinite(sol.qdd)) and np.all(np.isfinite(sol.lam))
        assert np.linalg.norm(sol.qdd - ref.qdd) <= 1e-6 * (1 + np.linalg.norm(ref.qdd))

    def test_residual_non_increasing(self, chain8):
        # loose mu forces many iterations; the residual sequence is
        # reconstructed by rerunning with increasing iteration caps
        state = random_state(chain8, 15)
        tau = np.random.default_rng(15).uniform(-3, 3, 8)
        cs = ConstraintSet([weld_constraint(8, a_star=np.linspace(-1, 1, 6))])
        sol = constrained_aba(chain8, state, tau, cs,
                              SolverSettings(mu=1e-1, tol_primal=1e-14,
                                             max_iter=40))
        prev = np.inf
        for cap in range(1, sol.iterations + 1):
            s = constrained_aba(chain8, state, tau, cs,
                                SolverSettings(mu=1e-1, tol_primal=1e-14,
                                               max_iter=cap))
            assert s.primal_residual <= prev + 1e-12
            prev = s.primal_residual

    def test_pendulum_point_constraint_consistent_singular(self, pendulum):
        # rows outnumber dofs but the instance is consistent: the proximal
        # solver converges where the exact solver refuses
        state = neutral_state(pendulum)
        cs = ConstraintSet([point_constraint(1, [0.5, 0, 0])])
        sol = constrained_aba(pendulum, state, np.zeros(1), cs)
        ref = kkt_oracle(pendulum, state, np.zeros(1), cs)
        np.testing.assert_allclose(sol.qdd, np.zeros(1), atol=1e-8)
        np.testing.assert_allclose(sol.lam, ref.lam, atol=1e-6)


def _support_cases():
    """(name, model, state, tau, cs) covering the shapes the support sweep
    and the off-support fill must get right."""
    cases = []
    for seed in (3, 11, 17):
        cases.append((f"random{seed}", *random_feasible_instance(seed + 6100)))
    for seed in (2, 5):
        cases.append((f"singular{seed}", *random_singular_instance(seed + 60)))
    tree = generate_tree(24, 3, seed=4, base_kind="floating")
    leaves = [i for i in range(tree.n_links) if not tree.children[i]]
    cases.append(("floating", tree, random_state(tree, 4),
                  np.random.default_rng(4).uniform(-2, 2, tree.nv),
                  ConstraintSet([point_constraint(leaves[0], [0.1, 0, 0],
                                                  a_star=[0.2, 0.0, -0.1]),
                                 point_constraint(leaves[-1], [0, 0.1, 0])])))
    cases.append(("root_link", tree, random_state(tree, 5),
                  np.random.default_rng(5).uniform(-2, 2, tree.nv),
                  ConstraintSet([point_constraint(0, [0.1, 0, 0],
                                                  a_star=[0.3, -0.2, 0.1]),
                                 point_constraint(leaves[1], [0, 0, 0.1])])))
    row = np.zeros((1, 6))
    row[0, 0] = 1.0
    cases.append(("two_on_one_link", tree, random_state(tree, 6),
                  np.random.default_rng(6).uniform(-2, 2, tree.nv),
                  ConstraintSet([point_constraint(leaves[2], [0.1, 0, 0]),
                                 MotionConstraint(leaves[2], row, np.array([0.4]))])))
    base = generate_tree(30, 2, seed=7)
    fixed = with_fixed_joints(base, {2, 5, 9})
    leaf = max(range(fixed.n_links), key=lambda i: fixed.link_depth[i])
    cases.append(("fixed_joints", fixed, random_state(fixed, 7),
                  np.random.default_rng(7).uniform(-2, 2, fixed.nv),
                  ConstraintSet([point_constraint(leaf, [0.05, 0, 0])])))
    return cases


SUPPORT_CASES = _support_cases()


class TestSupportSweep:
    """`constrained_aba` against the full-sweep reference iteration."""

    @pytest.mark.parametrize("mu", [1e-3, 1e-6])
    @pytest.mark.parametrize("case", SUPPORT_CASES, ids=[c[0] for c in SUPPORT_CASES])
    def test_matches_full_sweep_reference(self, case, mu):
        _, model, state, tau, cs = case
        settings = SolverSettings(mu=mu)
        qdd, lam, iterations, status = full_sweep_caba(model, state, tau, cs, settings)
        sol = constrained_aba(model, state, tau, cs, settings)
        assert (sol.iterations, sol.status) == (iterations, status)
        # both orders of summation round against a bias of size |beta|/mu
        tol = 100 * np.finfo(float).eps / mu
        assert np.linalg.norm(sol.qdd - qdd) <= tol * (1 + np.linalg.norm(qdd))
        assert np.linalg.norm(sol.lam - lam) <= tol * (1 + np.linalg.norm(lam))

    def test_cases_cover_the_support_shapes(self):
        shapes = set()
        for name, model, _, _, cs in SUPPORT_CASES:
            ws = PvWorkspace(model, cs)
            assert ws.support == tuple(i for i, cons in enumerate(cons_in_subtree(model, cs))
                                       if cons)
            assert sorted(ws.support + ws.off_support) == list(range(model.n_links))
            if model.base_kind == "floating":
                shapes.add("floating")
            if any(j.nv == 0 for j in model.joints[1:]):
                shapes.add("fixed")
            if any(c.link == 0 for c in cs):
                shapes.add("root")
            if len({c.link for c in cs}) < len(cs):
                shapes.add("shared_link")
            # an off-support link whose children move with it: the fill
            # must carry the change in acceleration down more than one level
            if any(model.children[i] for i in ws.off_support):
                shapes.add("deep_fill")
        assert shapes == {"floating", "fixed", "root", "shared_link", "deep_fill"}

    def test_later_iterations_cost_the_support_only(self):
        model = load_model("tree:128:3")
        leaf = max(range(model.n_links), key=lambda i: model.link_depth[i])
        cs = ConstraintSet([point_constraint(leaf, [0.1, 0, 0])])
        state = random_state(model, 0)
        tau = np.random.default_rng(0).uniform(-5, 5, model.nv)

        def work(cap):
            with flops.counted() as count:
                sol = constrained_aba(model, state, tau, cs,
                                      SolverSettings(tol_primal=1e-300, max_iter=cap))
                spent = count()
            assert sol.iterations == cap
            return spent

        ws = PvWorkspace(model, cs)
        cache = forward_kinematics(model, state)
        plan = model.plan
        np.copyto(ws.IA, plan.inertia66)
        _inertia_pass(model, cache, ws, plan.sweep)
        with flops.counted() as count:
            ws.pA[:, :, 0] = velocity_products(model, cache)[plan.order]
            _bias_pass(model, cache, ws, plan.sweep, _slots(model, tau))
            _forward_pass(model, cache, ws, plan.sweep)
            full_pass = count()
        assert work(3) - work(2) < full_pass / 3


class TestMinNormMultipliers:
    @pytest.mark.parametrize("seed", range(50))
    def test_singular_instances_match_oracle_lambda(self, seed):
        model, state, tau, cs = random_singular_instance(seed)
        sol = constrained_aba(model, state, tau, cs)
        ref = kkt_oracle(model, state, tau, cs)
        assert np.linalg.norm(sol.lam - ref.lam) <= 1e-6 * (1 + np.linalg.norm(ref.lam))

    def test_humanoid_infeasible_rows(self, humanoid):
        # standard_constraints(24) on the humanoid has rank 18 of 24 and no
        # exact solution, so the solve stops on the least-squares test
        state = random_state(humanoid, 0)
        tau = np.random.default_rng((0, 17)).uniform(-5, 5, humanoid.nv)
        cs = standard_constraints(humanoid, 24, 0)
        sol = constrained_aba(humanoid, state, tau, cs)
        ref = kkt_oracle(humanoid, state, tau, cs)
        assert sol.status == "least_squares"
        assert np.linalg.norm(sol.lam - ref.lam) <= 1e-6 * (1 + np.linalg.norm(ref.lam))

    @pytest.mark.parametrize("seed", range(4))
    def test_least_squares_stop_waits_for_the_multipliers(self, humanoid, seed):
        # the residual stalls an iteration or two before the projected
        # multipliers settle (a stall test alone left 1.6e-7 at seed 0)
        state = random_state(humanoid, seed)
        tau = np.random.default_rng((seed, 17)).uniform(-5, 5, humanoid.nv)
        cs = standard_constraints(humanoid, 24, 0)
        sol = constrained_aba(humanoid, state, tau, cs)
        ref = kkt_oracle(humanoid, state, tau, cs)
        assert sol.status == "least_squares"
        assert np.linalg.norm(sol.lam - ref.lam) <= 1e-8 * (1 + np.linalg.norm(ref.lam))


def near_singular_draw():
    """A tree:128:3 state at which the Delassus matrix of eight leaf points
    has smallest eigenvalue 3.5e-7, a third of the default mu: draw 15 of
    seed 1876907943 of the fd-tree benchmark's recipe, rebuilt here.  The
    points sit on leaves taken round-robin over the depth-2 subtrees,
    deepest first, each with a seeded offset and target; the states and
    torques come next from the same generator."""
    model = generate_tree(128, 3, seed=0)
    rng = np.random.default_rng((1876907943, 1))
    groups = {}
    leaves = [i for i in range(model.n_links) if not model.children[i]]
    for leaf in sorted(leaves, key=lambda i: (-model.link_depth[i], i)):
        top = leaf
        while model.link_depth[top] > 2:
            top = model.parent[top]
        groups.setdefault(top, []).append(leaf)
    links = []
    for rank in range(max(map(len, groups.values()))):
        links += [g[rank] for _, g in sorted(groups.items()) if rank < len(g)]
    cs = ConstraintSet([point_constraint(link, rng.uniform(-0.2, 0.2, 3),
                                         a_star=rng.uniform(-0.5, 0.5, 3))
                        for link in links[:8]])
    for _ in range(16):
        state = random_state(model, int(rng.integers(2 ** 31)))
        tau = rng.uniform(-5.0, 5.0, model.nv)
    return model, state, tau, cs


class TestNearSingularDelassus:
    def test_converges_within_the_default_iterations(self):
        # each fixed step shrank the error along Lambda's smallest
        # eigenvector by only mu/(lambda_min + mu) = 0.74, so that solve
        # stopped at max_iter = 50 with a qdd error of 2.9e-7
        model, state, tau, cs = near_singular_draw()
        settings = SolverSettings()
        smallest = np.linalg.eigvalsh(dense_delassus(model, state, cs))[0]
        assert 3e-7 < smallest < 4e-7 < settings.mu
        sol = constrained_aba(model, state, tau, cs, settings)
        ref = kkt_oracle(model, state, tau, cs)
        assert sol.status == "converged" and sol.iterations <= settings.max_iter
        assert np.linalg.norm(sol.qdd - ref.qdd) <= 1e-8 * (1 + np.linalg.norm(ref.qdd))


class TestResidualHistory:
    def test_one_entry_per_iteration(self, humanoid):
        instances = [random_feasible_instance(6300), random_singular_instance(3),
                     (humanoid, random_state(humanoid, 0), np.zeros(humanoid.nv),
                      standard_constraints(humanoid, 24, 0))]
        for model, state, tau, cs in instances:
            sol = constrained_aba(model, state, tau, cs)
            assert len(sol.residual_history) == sol.iterations
            assert sol.residual_history[-1] == sol.primal_residual

    def test_single_pass_solvers_report_their_residual(self):
        model, state, tau, cs = random_feasible_instance(6301)
        for solve in (pv_solve, pv_early_solve, pv_soft_solve):
            sol = solve(model, state, tau, cs)
            assert sol.residual_history == (sol.primal_residual,)
        sol = constrained_aba(model, state, tau, ConstraintSet.empty())
        assert sol.residual_history == (sol.primal_residual,)

    @pytest.mark.parametrize("seed", range(20))
    def test_converged_residual_is_the_measured_one(self, seed):
        # after its first entry the residual is the conjugate-residual
        # recurrence's; at the default tolerance a converged solve's agrees
        # with J qdd + drift - a* to the rounding of that product
        model, state, tau, cs = random_feasible_instance(seed)
        sol = constrained_aba(model, state, tau, cs)
        assert sol.status == "converged"
        cache = forward_kinematics(model, state)
        jac = constraint_jacobian(model, cache, cs)
        measured = np.linalg.norm(jac @ sol.qdd + constraint_drift(model, cache, cs)
                                  - cs.stacked_targets())
        size = np.linalg.norm(jac) * np.linalg.norm(sol.qdd) + np.linalg.norm(cs.stacked_targets())
        assert abs(sol.primal_residual - measured) <= 100 * np.finfo(float).eps * size


class TestHumanoidOracleEquivalence:
    def test_exact_solvers_tight_proximal_at_its_floor(self, humanoid):
        # the humanoid's four-decade mass spread leaves the mu=1e-6
        # proximal sweep about a decade of accuracy above the exact ones
        state = random_state(humanoid, 21)
        tau = np.random.default_rng(21).uniform(-2, 2, humanoid.nv)
        feet_hands = [humanoid.names.index(n)
                      for n in ("foot_l", "foot_r", "hand_l", "hand_r")]
        cs = ConstraintSet([point_constraint(k, [0.02, 0, -0.03])
                            for k in feet_hands])
        oracle = kkt_oracle(humanoid, state, tau, cs)
        sq = 1 + np.linalg.norm(oracle.qdd)
        for sol in (pv_solve(humanoid, state, tau, cs),
                    pv_early_solve(humanoid, state, tau, cs)):
            assert np.linalg.norm(sol.qdd - oracle.qdd) <= 1e-8 * sq
        prox = constrained_aba(humanoid, state, tau, cs)
        assert prox.status == "converged"
        assert np.linalg.norm(prox.qdd - oracle.qdd) <= 1e-7 * sq


class TestAllSolversAgree:
    @pytest.mark.parametrize("seed", range(6))
    def test_cross_agreement(self, seed):
        model, state, tau, cs = random_feasible_instance(seed + 5500)
        sols = [pv_solve(model, state, tau, cs).qdd,
                pv_early_solve(model, state, tau, cs).qdd,
                constrained_aba(model, state, tau, cs).qdd]
        scale = 1 + np.linalg.norm(sols[0])
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.linalg.norm(sols[a] - sols[b]) <= 2e-8 * scale


class TestFlopScaling:
    def _counts(self):
        # three iterations at every size: how many a solve takes depends on
        # the state, not on n (at the default settings the two smallest
        # chains converge in two)
        sizes = (16, 32, 64, 128, 256, 512)
        counts = []
        for n in sizes:
            model = generate_chain(n)
            state = random_state(model, 1)
            tau = np.random.default_rng(1).uniform(-1, 1, n)
            cs = ConstraintSet([weld_constraint(n)])
            with flops.counted() as c:
                sol = constrained_aba(model, state, tau, cs,
                                      SolverSettings(tol_primal=1e-300, max_iter=3))
            assert sol.iterations == 3
            counts.append(c())
        return np.array(sizes, dtype=float), np.array(counts, dtype=float)

    def test_caba_linear_in_n(self):
        sizes, counts = self._counts()
        slope = loglog_slope(sizes, counts)
        assert 0.9 <= slope <= 1.1

    def test_caba_affine_fit_residual(self):
        # affine model a + b*n explains the counted work to within 5%
        sizes, counts = self._counts()
        design = np.vstack([np.ones_like(sizes), sizes]).T
        coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
        relative = np.abs(design @ coef - counts) / counts
        assert relative.max() < 0.05


class TestSoftWeightsVector:
    def test_per_row_weights(self, chain8):
        state = random_state(chain8, 30)
        tau = np.random.default_rng(30).uniform(-2, 2, 8)
        cs = ConstraintSet([weld_constraint(8)])
        weights = np.array([1e-2, 1e-3, 1e-4, 1e-3, 1e-2, 1e-5])
        sol = pv_soft_solve(chain8, state, tau, cs, SolverSettings(soft_R=weights))
        ref = relaxed_kkt_oracle(chain8, state, tau, cs, weights)
        assert np.linalg.norm(sol.qdd - ref) <= 1e-8 * (1 + np.linalg.norm(ref))


class TestSettingsValidation:
    """Settings are finite and positive, and max_iter an integer of at
    least 1; anything else is a ValueError at construction."""

    @pytest.mark.parametrize("kwargs", [
        {"tol_primal": math.nan}, {"tol_primal": math.inf}, {"mu": math.nan}, {"mu": 0.0},
        {"soft_R": math.nan}, {"soft_R": np.array([1e-6, math.inf])},
        {"max_iter": 2.5}, {"max_iter": 0}],
        ids=["tol_nan", "tol_inf", "mu_nan", "mu_zero", "soft_R_nan", "soft_R_inf",
             "max_iter_float", "max_iter_zero"])
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverSettings(**kwargs)

    def test_numpy_scalars_accepted(self):
        settings = SolverSettings(mu=np.float64(1e-6), max_iter=np.int64(3))
        assert settings.max_iter == 3


class TestOneStateCheck:
    """Each solver checks the state once: forward kinematics does when it
    runs, and the set-up does when a cache is passed."""

    @pytest.mark.parametrize("fn", [pv_solve, pv_early_solve, pv_soft_solve, constrained_aba],
                             ids=["pv", "pv_early", "pv_soft", "caba"])
    @pytest.mark.parametrize("with_cache", [False, True], ids=["fk", "cache"])
    def test_state_checked_once(self, monkeypatch, fn, with_cache):
        model = generate_chain(4)
        cs = standard_constraints(model, 3)
        state = random_state(model, 1)
        cache = forward_kinematics(model, state) if with_cache else None
        calls = []
        check = constrained.check_state

        def counted(*args):
            calls.append(args)
            return check(*args)
        for mod in (constrained, kinematics):
            monkeypatch.setattr(mod, "check_state", counted)
        fn(model, state, np.zeros(model.nv), cs, cache=cache)
        assert len(calls) == 1
        bad = State(np.zeros(model.nq + 1), np.zeros(model.nv))
        with pytest.raises(DimensionMismatch):
            fn(model, bad, np.zeros(model.nv), cs, cache=cache)


_SOLVERS = {"pv": pv_solve, "pv_early": pv_early_solve, "pv_soft": pv_soft_solve,
            "caba": constrained_aba}
_PRODUCERS = {"pv_osim": pv_osim, "pv_osimr": pv_osimr, "caba_osim": caba_osim}


def _call(name, model, state, tau, cs, cache=None):
    """A public solver, producer or baseline by name; rnea takes `tau` as qdd."""
    if name in _SOLVERS:
        return _SOLVERS[name](model, state, tau, cs, cache=cache)
    if name in _PRODUCERS:
        return _PRODUCERS[name](model, state, cs, cache=cache)
    if name == "kkt_oracle":
        return kkt_oracle(model, state, tau, cs)
    return {"aba": aba, "rnea": rnea}[name](model, state, tau)


class TestNonFiniteInputs:
    """A NaN or an infinity in tau (qdd for rnea), q or v raises
    NonFiniteInput from every public solver, producer and baseline, with
    or without a kinematics cache, where it used to come back as a
    successful solve with NaN answers."""

    @staticmethod
    def _problem(where, bad):
        model = generate_chain(4)
        cs = standard_constraints(model, 3)
        state = random_state(model, 1)
        tau = np.zeros(model.nv)
        if where == "tau":
            tau[1] = bad
        else:
            x = getattr(state, where).copy()
            x[1] = bad
            state = State(state.q, x) if where == "v" else State(x, state.v)
        return model, state, tau, cs

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name, where", [
        (name, where)
        for name in [*_SOLVERS, *_PRODUCERS, "aba", "rnea", "kkt_oracle"]
        for where in ("tau", "q", "v")
        if where != "tau" or name not in _PRODUCERS])     # the producers take no torque
    def test_raises(self, name, where, bad):
        model, state, tau, cs = self._problem(where, bad)
        named = "qdd" if (name, where) == ("rnea", "tau") else where
        with pytest.raises(NonFiniteInput, match=named):
            _call(name, model, state, tau, cs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["q", "v"])
    @pytest.mark.parametrize("name", [*_SOLVERS, *_PRODUCERS])
    def test_raises_with_a_cache(self, name, where, bad):
        model, state, tau, cs = self._problem(where, bad)
        cache = forward_kinematics(model, random_state(model, 1))
        with pytest.raises(NonFiniteInput, match=where):
            _call(name, model, state, tau, cs, cache)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_warm_start_raises(self, bad):
        model, state, tau, cs = self._problem("tau", 0.0)
        lam0 = np.zeros(cs.m)
        lam0[0] = bad
        with pytest.raises(NonFiniteInput, match="lam0"):
            constrained_aba(model, state, tau, cs, lam0=lam0)


class TestWorkspaceReuse:
    """A workspace depends only on the model and each constraint's (link, dim)."""

    def _problem(self):
        model = generate_tree(20, 2, seed=1, base_kind="floating")
        cs = ConstraintSet([weld_constraint(7), point_constraint(15, [0.1, 0.0, 0.0])])
        state = random_state(model, 2)
        tau = np.random.default_rng(2).uniform(-1.0, 1.0, model.nv)
        return model, cs, state, tau

    def test_same_layout_reuses_and_solves_alike(self):
        model, cs, state, tau = self._problem()
        ws = PvWorkspace(model, cs)
        # new targets and a new matrix on the same (link, dim) rows
        other = ConstraintSet([weld_constraint(7, a_star=np.arange(6.0)),
                               MotionConstraint(15, np.eye(3, 6, 1), np.ones(3))])
        for cs_new in (cs.replace_targets(np.linspace(-1.0, 1.0, cs.m)), other):
            assert PvWorkspace.ensure(model, cs_new, ws) is ws
            for solve in (pv_solve, pv_early_solve, pv_soft_solve, constrained_aba):
                solve(model, state, tau, cs, ws=ws)          # leave the buffers used
                reused = solve(model, state, tau, cs_new, ws=ws)
                fresh = solve(model, state, tau, cs_new)
                np.testing.assert_array_equal(reused.qdd, fresh.qdd)
                np.testing.assert_array_equal(reused.lam, fresh.lam)

    def test_new_layout_rebuilds(self):
        model, cs, _, _ = self._problem()
        ws = PvWorkspace(model, cs)
        a, b = cs.constraints
        for cs_new in (ConstraintSet([b, a]),
                       ConstraintSet([a, point_constraint(14, [0.1, 0.0, 0.0])]),
                       ConstraintSet([weld_constraint(7), weld_constraint(15)]),
                       ConstraintSet([a]),
                       ConstraintSet([a, b, a])):
            fresh = PvWorkspace.ensure(model, cs_new, ws)
            assert fresh is not ws
            assert fresh.layout == tuple((con.link, con.dim) for con in cs_new)
        assert PvWorkspace.ensure(model.with_gravity([0.0, 0.0, -1.0]), cs, ws) is not ws


class TestStoredProjectedInertia:
    def test_articulated_pass_stores_projection(self):
        model = with_fixed_joints(generate_tree(15, 2, seed=6, base_kind="floating"), [3])
        cs = ConstraintSet([weld_constraint(10)])
        ws = PvWorkspace(model, cs)
        cache = forward_kinematics(model, random_state(model, 6))
        plan = model.plan
        np.copyto(ws.IA, plan.inertia66)
        ws.IA[plan.position[10]] += np.eye(6)
        _inertia_pass(model, cache, ws, plan.sweep)
        # the root's projection feeds no parent, so the pass forms none
        for k, i in enumerate(plan.order[1:], start=1):
            if model.joints[i].nv:
                expected = ws.IA[k] - ws.U[k] @ (ws.U[k].T * ws.D_inv[k])
            else:
                expected = ws.IA[k]
            np.testing.assert_array_equal(ws.IA_proj[k], expected)


def cold_relaxed(model, cache, cs, ws, tau, weights):
    """The relaxed solve as it was before the warm start."""
    beta = _beta_hat(model, cache, cs, ws.beta)
    kw = cs.K / weights[:, None]
    _own_terms(model, cache, ws)
    _add_rows(ws, ws.IA, kw[:, :, None] * cs.K[:, None, :])
    _add_rows(ws, ws.pA[:, :, 0], cs.K * (-beta / weights)[:, None])
    qdd = _aba(model, cache, ws, tau)
    return qdd, _residual(cs, ws)


def cold_soft(model, state, tau, cs, settings, ws):
    """`pv_soft_solve` as it was before the warm start."""
    cache = forward_kinematics(model, state)
    weights = np.broadcast_to(np.asarray(settings.soft_R, dtype=float), (cs.m,))
    qdd, rnorm = cold_relaxed(model, cache, cs, ws, np.asarray(tau, float), weights)
    lam = -ws.resid / weights
    flops.add(2 * cs.m)
    return qdd, lam, 1, rnorm, "converged", (rnorm,)


def cold_caba(model, state, tau, cs, settings, ws):
    """`constrained_aba` from lam = 0 without the warm-start plumbing, on
    the same passes: the reference that ``lam0=None`` must match bit for
    bit."""
    cache = forward_kinematics(model, state)
    mu, tol = settings.mu, settings.tol_primal
    tol_dual = tol / mu
    qdd, rnorm = cold_relaxed(model, cache, cs, ws, np.asarray(tau, float), np.full(cs.m, mu))
    r = ws.resid
    w = np.zeros(cs.m)
    terms = 6 * ws.frontier_pos.size + ws.support_slots.size
    history = [rnorm]
    status = "max_iter"
    it, gamma, lam_hat, hat_at = 1, 0.0, None, 0
    scale = da_y = dqj_y = None
    while True:
        if rnorm <= tol:
            status = "converged"
            break
        if it > 1 and history[-2] - rnorm <= tol_dual * history[-2]:
            prev, lam_hat = lam_hat, _min_norm(w, r)
            if hat_at == it - 1 and \
                    np.linalg.norm(lam_hat - prev) <= tol_dual * np.linalg.norm(lam_hat):
                status = "least_squares"
                break
            hat_at = it
        if it == settings.max_iter:
            break
        if it == 2:
            da_p, dqj_p = ws.da[ws.frontier_pos], ws.dqj[ws.support_slots]
            da_y, dqj_y = scale * da_p, scale * dqj_p
            flops.add(terms)
        it += 1
        br = _support_response(model, cache, cs, ws, r)
        gamma, gamma_prev = float(r @ br), gamma
        if not gamma > 0.0:
            status, lam_hat = "least_squares", _min_norm(w, r)
            history.append(rnorm)
            break
        if it == 2:
            p, bp = r.copy(), br
            alpha = gamma / float(bp @ bp)
            scale = -alpha
            work = 8 * cs.m
        else:
            beta = gamma / gamma_prev
            p = r + beta * p
            bp = br + beta * bp
            alpha = gamma / float(bp @ bp)
            da_p = ws.da[ws.frontier_pos] + beta * da_p
            dqj_p = ws.dqj[ws.support_slots] + beta * dqj_p
            da_y -= alpha * da_p
            dqj_y -= alpha * dqj_p
            work = 12 * cs.m + 4 * terms
        w -= alpha * p
        r -= alpha * bp
        rnorm = math.sqrt(r @ r)
        history.append(rnorm)
        flops.add(work)
    if scale is not None:
        if da_y is not None:
            ws.da[ws.frontier_pos], ws.dqj[ws.support_slots] = da_y, dqj_y
        ws.u[ws.off_pos] = 0.0
        _forward_pass(model, cache, ws, ws.off_levels, change=True)
        dqdd = _dofs(model, ws.dqj)
        if da_y is None:
            dqdd *= scale
            flops.add(model.nv)
        qdd += dqdd
    if status == "least_squares":
        lam = lam_hat
    else:
        lam = w - r / mu
        flops.add(2 * cs.m)
    return qdd, lam, it, rnorm, status, tuple(history)


def _bitwise_instances():
    out = [(f"feasible{s}", random_feasible_instance(s, max_n=48)) for s in range(700, 760)]
    out += [(f"singular{s}", random_singular_instance(s)) for s in range(30)]
    for name in ("tree:128:3", "humanoid", "chain:64"):
        model = load_model(name)
        tau = np.random.default_rng(0).uniform(-5, 5, model.nv)
        out += [(f"{name}-m{m}", (model, random_state(model, 0), tau,
                                  standard_constraints(model, m, 0))) for m in (6, 12, 24)]
    return out


BITWISE_INSTANCES = _bitwise_instances()


def outputs(call, ws):
    """A solve's outputs, its flops and the workspace counters."""
    with flops.counted() as count:
        sol = call()
        spent = count()
    if not isinstance(sol, tuple):
        sol = (sol.qdd, sol.lam, sol.iterations, sol.primal_residual, sol.status,
               sol.residual_history)
    return [np.asarray(x).tobytes() if isinstance(x, np.ndarray) else x for x in sol] \
        + [spent, repr(ws.counters)]


class TestWarmStart:
    @pytest.mark.parametrize("case", BITWISE_INSTANCES, ids=[c[0] for c in BITWISE_INSTANCES])
    def test_cold_start_is_bitwise_the_method_from_zero(self, case):
        _, (model, state, tau, cs) = case
        settings = SolverSettings()
        shared = PvWorkspace(model, cs)
        for make_ws in (lambda: PvWorkspace(model, cs), lambda: shared):
            ws, ref_ws = make_ws(), PvWorkspace(model, cs)
            assert outputs(lambda: constrained_aba(model, state, tau, cs, settings, ws,
                                                   lam0=None), ws) \
                == outputs(lambda: cold_caba(model, state, tau, cs, settings, ref_ws), ref_ws)
            ws, ref_ws = make_ws(), PvWorkspace(model, cs)
            assert outputs(lambda: pv_soft_solve(model, state, tau, cs, settings, ws), ws) \
                == outputs(lambda: cold_soft(model, state, tau, cs, settings, ref_ws), ref_ws)

    # each first iteration rounds against a bias of size |beta|/mu, as in
    # TestSupportSweep, so answers agree to 100 eps/mu: 2.2e-11 at mu = 1e-3
    @pytest.mark.parametrize("mu", [1e-3, 1e-6])
    @pytest.mark.parametrize("seed", range(8))
    def test_converged_lambda_stops_after_one_iteration(self, seed, mu):
        model, state, tau, cs = random_feasible_instance(seed + 2600)
        cold = constrained_aba(model, state, tau, cs,
                               SolverSettings(mu=mu, tol_primal=1e-13, max_iter=200))
        assert cold.status == "converged" and cold.iterations > 1
        warm = constrained_aba(model, state, tau, cs, SolverSettings(mu=mu), lam0=cold.lam)
        assert (warm.iterations, warm.status) == (1, "converged")
        tol = 100 * np.finfo(float).eps / mu
        assert np.linalg.norm(warm.qdd - cold.qdd) <= tol * (1 + np.linalg.norm(cold.qdd))

    @pytest.mark.parametrize("mu", [1e-3, 1e-6])
    @pytest.mark.parametrize("seed", range(6))
    def test_one_iteration_is_a_dense_proximal_step(self, seed, mu):
        # from lam0 the step solves (M + J'J/mu) qdd = tau - h + J'(lam0 + b/mu)
        # with b = a* - gamma, then lam1 = lam0 - (J qdd - b)/mu
        model, state, tau, cs = random_feasible_instance(seed + 2700)
        lam0 = np.random.default_rng(seed).normal(0.0, 10.0, cs.m)
        cache = forward_kinematics(model, state)
        jac = constraint_jacobian(model, cache, cs)
        b = cs.stacked_targets() - constraint_drift(model, cache, cs)
        qdd = relaxed_kkt_oracle(model, state, tau + jac.T @ lam0, cs, mu)
        lam = lam0 - (jac @ qdd - b) / mu
        sol = constrained_aba(model, state, tau, cs, SolverSettings(mu=mu, max_iter=1),
                              lam0=lam0)
        assert sol.iterations == 1
        tol = 100 * np.finfo(float).eps / mu
        assert np.linalg.norm(sol.qdd - qdd) <= tol * (1 + np.linalg.norm(qdd))
        assert np.linalg.norm(sol.lam - lam) <= tol * (1 + np.linalg.norm(lam))

    @pytest.mark.parametrize("seed", range(50))
    def test_singular_instances_keep_the_qdd_gate(self, seed):
        # warm-started from the multipliers of a nearby state: qdd and
        # J' lam are the least-squares ones (acceptance 4's gate), while lam
        # keeps lam0's null-space part and is not the min-norm one
        model, state, tau, cs = random_singular_instance(seed)
        lam0 = constrained_aba(model, state, tau, cs).lam
        rng = np.random.default_rng(seed)
        moved = State(integrate_position(model, state.q, rng.normal(0, 1e-3, model.nv), 1.0),
                      state.v + rng.normal(0, 1e-3, model.nv))
        sol = constrained_aba(model, moved, tau, cs, lam0=lam0)
        ref = kkt_oracle(model, moved, tau, cs)
        assert np.all(np.isfinite(sol.qdd)) and np.all(np.isfinite(sol.lam))
        assert np.linalg.norm(sol.qdd - ref.qdd) <= 1e-6 * (1 + np.linalg.norm(ref.qdd))
        jac = constraint_jacobian(model, forward_kinematics(model, moved), cs)
        force = jac.T @ ref.lam
        assert np.linalg.norm(jac.T @ sol.lam - force) <= 1e-6 * (1 + np.linalg.norm(force))

    def test_wrong_length_raises(self, chain8):
        state = random_state(chain8, 1)
        cs = ConstraintSet([weld_constraint(8)])
        for bad in (np.zeros(5), np.zeros(7), np.zeros((6, 1))):
            with pytest.raises(DimensionMismatch):
                constrained_aba(chain8, state, np.zeros(8), cs, lam0=bad)
