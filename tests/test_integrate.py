import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from pvdyn import (ConstraintSet, IntegratorConfig, PvWorkspace, State, attach_anchors,
                   generate_humanoid_like, generate_tree, point_constraint, random_state,
                   rollout, step, weld_constraint)
from pvdyn import constrained, integrate, kinematics
from pvdyn.bench import load_model
from pvdyn.spatial import (PlueckerTransform, axis_angle_rotation, quat_exp, quat_multiply,
                           quat_to_rotation)
from pvdyn.urdf import parse_urdf_subset
from test_kinematics import MIXED_URDF

SOLVER_FNS = {"aba": "aba", "pv": "pv_solve", "pv_early": "pv_early_solve",
              "pv_soft": "pv_soft_solve", "caba": "constrained_aba"}


def baumgarte_problem():
    """Floating tree with two anchored, Baumgarte-stabilized leaf points."""
    model = generate_tree(12, 2, seed=3, base_kind="floating")
    state = random_state(model, 4)
    cs = ConstraintSet([point_constraint(model.n_links - 1, [0.1, 0.0, 0.0],
                                         baumgarte=(100.0, 20.0)),
                        point_constraint(model.n_links - 4, [0.0, 0.1, 0.0],
                                         baumgarte=(100.0, 20.0))])
    tau = np.random.default_rng(5).uniform(-1.0, 1.0, model.nv)
    return model, state, attach_anchors(model, state, cs), tau


def count_fk(monkeypatch):
    calls = [0]
    fk = kinematics.forward_kinematics

    def counted(*args, **kwargs):
        calls[0] += 1
        return fk(*args, **kwargs)
    for mod in (integrate, constrained):
        monkeypatch.setattr(mod, "forward_kinematics", counted)
    return calls


class TestOneKinematicsPassPerDerivative:
    @pytest.mark.parametrize("scheme, derivs", [("rk4", 4), ("semi_implicit_euler", 1)])
    @pytest.mark.parametrize("solver", sorted(SOLVER_FNS))
    def test_same_state_with_half_the_passes(self, monkeypatch, solver, scheme, derivs):
        model, state, cs, tau = baumgarte_problem()
        if solver == "aba":
            cs = ConstraintSet.empty()
        config = IntegratorConfig(scheme=scheme, dt=1e-3)
        calls = count_fk(monkeypatch)
        out = step(model, state, tau, cs, solver, config, PvWorkspace(model, cs))
        assert calls[0] == derivs

        # reference: the solver builds its own kinematics, as a separate pass
        name = SOLVER_FNS[solver]
        solve = getattr(integrate, name)

        def own_kinematics(*args, cache=None, **kwargs):
            return solve(*args, **kwargs)
        monkeypatch.setattr(integrate, name, own_kinematics)
        calls[0] = 0
        ref = step(model, state, tau, cs, solver, config, PvWorkspace(model, cs))
        baumgarte = solver != "aba"
        assert calls[0] == derivs * (2 if baumgarte else 1)
        np.testing.assert_array_equal(out.q, ref.q)
        np.testing.assert_array_equal(out.v, ref.v)


def count_workspaces(monkeypatch):
    built = [0]
    init = PvWorkspace.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(PvWorkspace, "__init__", counted)
    return built


class TestWorkspaceAcrossDerivatives:
    def test_rk4_step_builds_no_workspace(self, monkeypatch):
        model, state, cs, tau = baumgarte_problem()
        ws = PvWorkspace(model, cs)
        built = count_workspaces(monkeypatch)
        step(model, state, tau, cs, "caba", IntegratorConfig(scheme="rk4"), ws)
        assert built[0] == 0

    @pytest.mark.parametrize("solver", sorted(SOLVER_FNS))
    def test_rollout_without_workspace_builds_one(self, monkeypatch, solver):
        # every derivative of the rollout (or of one step) shares it; aba
        # takes none
        model, state, cs, tau = baumgarte_problem()
        if solver == "aba":
            cs = ConstraintSet.empty()
        config = IntegratorConfig(scheme="rk4")
        expected = rollout(model, state, tau, cs, solver, config, 3,
                           PvWorkspace(model, cs))
        built = count_workspaces(monkeypatch)
        traj = rollout(model, state, tau, cs, solver, config, 3)
        one = step(model, state, tau, cs, solver, config)
        assert built[0] == (0 if solver == "aba" else 2)
        for got, ref in zip(traj + [one], expected + [expected[1]]):
            np.testing.assert_array_equal(got.q, ref.q)
            np.testing.assert_array_equal(got.v, ref.v)


def caba_iterations(monkeypatch):
    """The iteration count of every constrained_aba call the integrator makes."""
    counts = []
    solve = integrate.constrained_aba

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        counts.append(sol.iterations)
        return sol
    monkeypatch.setattr(integrate, "constrained_aba", counted)
    return counts


class TestWarmStartAlongTrajectory:
    def test_later_rk4_stages_take_fewer_iterations(self, monkeypatch):
        model, state, cs, tau = baumgarte_problem()
        counts = caba_iterations(monkeypatch)
        step(model, state, tau, cs, "caba", IntegratorConfig(scheme="rk4"), PvWorkspace(model, cs))
        assert len(counts) == 4
        assert max(counts[1:]) < counts[0]

    def test_rollout_carries_multipliers_across_steps(self, monkeypatch):
        model, state, cs, tau = baumgarte_problem()
        config = IntegratorConfig(scheme="rk4")
        ws = PvWorkspace(model, cs)
        counts = caba_iterations(monkeypatch)
        traj = rollout(model, state, tau, cs, "caba", config, steps=3, ws=ws)
        assert len(counts) == 12 and counts[4] < counts[0]
        # the same steps, each started cold
        current = state
        for k in range(3):
            current = step(model, current, tau, cs, "caba", config, ws)
            np.testing.assert_allclose(traj[k + 1].q, current.q, rtol=0, atol=1e-9)
            np.testing.assert_allclose(traj[k + 1].v, current.v, rtol=0, atol=1e-9)

    def test_baumgarte_terms_stacked_once(self, monkeypatch):
        model, state, cs, tau = baumgarte_problem()
        built = [0]
        stack = integrate._baumgarte

        def counted(*args):
            built[0] += 1
            return stack(*args)
        monkeypatch.setattr(integrate, "_baumgarte", counted)
        config = IntegratorConfig(scheme="rk4")
        step(model, state, tau, cs, "caba", config)
        assert built[0] == 1
        rollout(model, state, tau, cs, "caba", config, steps=3)
        assert built[0] == 2


def reference_targets(cache, cs, config):
    """Stabilized targets one constraint at a time, with scipy's log map."""
    targets = cs.stacked_targets().copy()
    for ci, con in enumerate(cs):
        kp, kd = con.baumgarte or config.baumgarte_default
        rows = cs.rows(ci)
        rot = cache.w_rot[con.link]
        if kp > 0.0 and con.anchor is not None:
            ang = Rotation.from_matrix(rot @ con.anchor.rotation.T).as_rotvec()
            lin = rot @ (con.anchor.translation - cache.w_trans[con.link])
            targets[rows] += kp * (con.K @ np.concatenate((ang, lin)))
        targets[rows] -= kd * (con.K @ cache.v[con.link])
    return targets


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [{"dt": math.nan}, {"dt": math.inf}, {"dt": 0.0},
                                        {"baumgarte_default": (math.nan, 0.0)},
                                        {"baumgarte_default": (0.0, math.inf)}],
                             ids=["dt_nan", "dt_inf", "dt_zero", "kp_nan", "kd_inf"])
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)


class TestStackedBaumgarte:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_constraint_targets(self, seed):
        model = generate_humanoid_like()
        idx = model.names.index
        cs = ConstraintSet([
            weld_constraint(idx("foot_l"), np.linspace(-1, 1, 6), baumgarte=(100.0, 20.0)),
            weld_constraint(idx("foot_r")),                              # default gains
            point_constraint(idx("hand_l"), [0.0, 0.0, -0.05], baumgarte=(0.0, 20.0)),
            point_constraint(idx("hand_r"), [0.1, 0.0, 0.0], baumgarte=(50.0, 0.0)),
        ])
        state = random_state(model, seed)
        anchored = ConstraintSet(list(attach_anchors(model, state, cs))
                                 + [weld_constraint(idx("hand_r"), baumgarte=(30.0, 5.0))])
        config = IntegratorConfig(baumgarte_default=(3.0, 1.0))
        # at the anchors (zero rotation) and after a drift away from them
        dq = np.random.default_rng(seed).normal(0.0, 0.2, model.nv)
        for q in (state.q, integrate.integrate_position(model, state.q, dq, 1.0)):
            cache = kinematics.forward_kinematics(model, State(q, state.v))
            for con_set in (cs, anchored):      # without anchors only k_d acts
                ref = reference_targets(cache, con_set, config)
                got = integrate._stabilized_targets(cache, con_set,
                                                    integrate._baumgarte(con_set, config))
                np.testing.assert_allclose(got.stacked_targets(), ref, rtol=0,
                                           atol=1e-13 * (1 + np.abs(ref).max()))
                assert got.layout is con_set.layout

    @pytest.mark.parametrize("angle", [3.09, 3.11, 3.13, 3.14, np.pi - 1e-9])
    def test_near_a_half_turn(self, angle):
        # each anchored link turned by `angle` about a random axis away
        # from its anchor, where axis * angle / sin(angle) loses digits
        model = generate_humanoid_like()
        state = random_state(model, 5)
        cache = kinematics.forward_kinematics(model, state)
        rng = np.random.default_rng(5)
        cons = []
        for name in ("foot_l", "foot_r", "hand_l", "hand_r"):
            link = model.names.index(name)
            axis = rng.normal(size=3)
            turn = axis_angle_rotation(axis / np.linalg.norm(axis), angle)
            anchor = PlueckerTransform(turn.T @ cache.w_rot[link],
                                       cache.w_trans[link] + rng.normal(0.0, 0.1, 3))
            cons.append(replace(weld_constraint(link, baumgarte=(100.0, 20.0)), anchor=anchor))
        cs = ConstraintSet(cons)
        config = IntegratorConfig()
        ref = reference_targets(cache, cs, config)
        got = integrate._stabilized_targets(cache, cs, integrate._baumgarte(cs, config))
        np.testing.assert_allclose(got.stacked_targets(), ref, rtol=0,
                                   atol=1e-13 * (1 + np.abs(ref).max()))

    def test_no_gains_keep_the_set(self):
        model, state, cs, _ = baumgarte_problem()
        plain = ConstraintSet([point_constraint(con.link, [0.1, 0.0, 0.0]) for con in cs])
        assert integrate._baumgarte(plain, IntegratorConfig()) is None
        cache = kinematics.forward_kinematics(model, state)
        assert integrate._stabilized_targets(cache, plain, None) is plain


def per_joint_position(model, q, v, dt):
    """integrate_position one joint at a time."""
    out = q.copy()
    for i, joint in enumerate(model.joints):
        qo, vo = model.q_offset[i], model.v_offset[i]
        if joint.kind in ("revolute", "prismatic"):
            out[qo] += dt * v[vo]
        elif joint.kind == "floating":
            quat = q[qo:qo + 4]
            quat_new = quat_multiply(quat, quat_exp(dt * v[vo:vo + 3]))
            out[qo:qo + 4] = quat_new / np.linalg.norm(quat_new)
            out[qo + 4:qo + 7] += dt * (quat_to_rotation(quat) @ v[vo + 3:vo + 6])
    return out


class TestGroupedPositionUpdate:
    @pytest.mark.parametrize("name", ["humanoid", "tree:128:3", "chain:64", "chain:8:prismatic",
                                      "urdf-floating-prismatic"])
    def test_bitwise_per_joint_loop(self, name):
        model = parse_urdf_subset(MIXED_URDF) if name.startswith("urdf") else load_model(name)
        state = random_state(model, 2)
        v = np.random.default_rng(2).normal(size=model.nv)
        np.testing.assert_array_equal(integrate.integrate_position(model, state.q, v, 1e-3),
                                      per_joint_position(model, state.q, v, 1e-3))
