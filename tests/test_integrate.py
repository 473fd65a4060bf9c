import numpy as np
import pytest

from pvdyn import (ConstraintSet, IntegratorConfig, PvWorkspace, attach_anchors,
                   generate_tree, point_constraint, random_state, step)
from pvdyn import constrained, integrate, kinematics

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


class TestWorkspaceAcrossDerivatives:
    def test_rk4_step_builds_no_workspace(self, monkeypatch):
        model, state, cs, tau = baumgarte_problem()
        ws = PvWorkspace(model, cs)
        built = [0]
        init = PvWorkspace.__init__

        def counted(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(PvWorkspace, "__init__", counted)
        step(model, state, tau, cs, "caba", IntegratorConfig(scheme="rk4"), ws)
        assert built[0] == 0
