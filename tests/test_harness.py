import hashlib

import numpy as np
import pytest

from pvdyn import (BenchRecord, BenchSpec, ConstraintSet, IntegratorConfig,
                   SolverSettings, attach_anchors, bias_force, crba, emit_csv,
                   emit_json, forward_kinematics, generate_chain,
                   generate_humanoid_like, generate_tree, load_json,
                   load_model, neutral_state, random_state, rollout,
                   run_bench, run_check_suite, step, weld_constraint)
from pvdyn.bench import CSV_HEADER
from pvdyn.errors import ModelLoadError, UnknownAlgorithm
from conftest import loglog_slope


def total_energy(model, state):
    kinetic = 0.5 * state.v @ crba(model, state).matrix @ state.v
    cache = forward_kinematics(model, state)
    potential = 0.0
    for i in range(model.n_links):
        com_local = model.inertia[i].com
        com_world = cache.w_rot[i].T @ com_local + cache.w_trans[i]
        potential -= model.inertia[i].mass * float(model.gravity @ com_world)
    return kinetic + potential


class TestStep:
    def test_free_fall_height(self):
        model = generate_tree(4, 2, seed=0, base_kind="floating")
        state = neutral_state(model)
        config = IntegratorConfig(dt=1e-3)
        for _ in range(1000):
            state = step(model, state, np.zeros(model.nv),
                         ConstraintSet.empty(), "aba", config)
        drop = -state.q[6]  # base z translation
        expected = 0.5 * 9.81 * 1.0 ** 2
        assert abs(drop - expected) <= 0.01 * expected

    def test_pendulum_rk4_energy_drift(self, pendulum):
        from pvdyn import State
        state = State(np.array([1.0]), np.zeros(1))
        e0 = total_energy(pendulum, state)
        config = IntegratorConfig(scheme="rk4", dt=1e-3)
        for _ in range(10000):
            state = step(pendulum, state, np.zeros(1), ConstraintSet.empty(),
                         "aba", config)
        e1 = total_energy(pendulum, state)
        assert abs(e1 - e0) <= 1e-5 * abs(e0)

    def test_unknown_solver(self, chain8):
        with pytest.raises(UnknownAlgorithm):
            step(chain8, neutral_state(chain8), np.zeros(8),
                 ConstraintSet.empty(), "nope", IntegratorConfig())

    def test_quaternion_stays_unit(self):
        model = generate_tree(5, 2, seed=1, base_kind="floating")
        state = random_state(model, 1)
        config = IntegratorConfig(dt=5e-3)
        for _ in range(500):
            state = step(model, state, np.zeros(model.nv),
                         ConstraintSet.empty(), "aba", config)
        assert abs(np.linalg.norm(state.q[:4]) - 1.0) <= 1e-12


class TestWeldRollout:
    def make(self):
        # a bent configuration: a straight chain is instantaneously
        # singular for a full weld
        from pvdyn import State
        model = generate_chain(8)
        q = np.array([0.3, -0.4, 0.5, 0.2, -0.3, 0.4, 0.1, -0.2])
        state = State(q, np.zeros(8))
        cs = attach_anchors(model, state,
                            ConstraintSet([weld_constraint(8, baumgarte=(10.0, 100.0))]))
        return model, state, cs

    def tip_error(self, model, state, cs):
        cache = forward_kinematics(model, state)
        anchor = cs.constraints[0].anchor
        return float(np.linalg.norm(cache.w_trans[8] - anchor.translation))

    def test_drift_bounded(self):
        # joint damping keeps the two unconstrained modes from swinging
        # the chain into integrator blow-up over the 5 s horizon
        model, state, cs = self.make()
        config = IntegratorConfig(dt=1e-3)
        errs = {}
        for k in range(5000):
            state = step(model, state, -2.0 * state.v, cs, "pv", config)
            if (k + 1) % 1000 == 0:
                errs[(k + 1) // 1000] = self.tip_error(model, state, cs)
        # regression bound pinned from the first passing run (1.47e-3), with
        # margin; the stabilizer's slow pole at k_p/k_d = 0.1/s sets the scale
        assert errs[5] <= 2.5e-3
        # boundedness: after the transient, drift stays within 10x its 1 s value
        limit = 10 * max(errs[1], 1e-9)
        assert all(errs[t] <= limit for t in range(1, 6))

    def test_solver_interchangeability(self):
        model, state0, cs = self.make()
        config = IntegratorConfig(dt=1e-3,
                                  settings=SolverSettings(tol_primal=1e-10))
        sa = sb = state0
        for _ in range(1000):
            sa = step(model, sa, np.zeros(8), cs, "pv", config)
            sb = step(model, sb, np.zeros(8), cs, "caba", config)
        gap = np.linalg.norm(sa.q - sb.q) + np.linalg.norm(sa.v - sb.v)
        assert gap <= 1e-6

    def test_rollout_determinism(self):
        model, state, cs = self.make()
        config = IntegratorConfig(dt=1e-3)

        def digest():
            traj = rollout(model, state, np.zeros(8), cs, "pv", config, steps=200)
            h = hashlib.sha256()
            for s in traj:
                h.update(s.q.tobytes())
                h.update(s.v.tobytes())
            return h.hexdigest()

        assert digest() == digest()


class TestAllSolversStep:
    @pytest.mark.parametrize("solver", ["pv", "pv_soft", "pv_early", "caba"])
    def test_constrained_step_runs(self, solver):
        from pvdyn import State
        model = generate_chain(8)
        q = np.array([0.3, -0.4, 0.5, 0.2, -0.3, 0.4, 0.1, -0.2])
        state = State(q, np.zeros(8))
        cs = ConstraintSet([weld_constraint(8)])
        out = step(model, state, np.zeros(8), cs, solver, IntegratorConfig(dt=1e-3))
        assert np.all(np.isfinite(out.q)) and np.all(np.isfinite(out.v))


def test_emit_csv_bad_path_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        emit_csv([], str(tmp_path / "no_dir" / "x.csv"))


class TestCheckSuite:
    def test_default_run_passes(self):
        report = run_check_suite(seed=0, sizes=(10, 18), instance_count=6)
        assert report.passed, "\n".join(report.lines())

    def test_reports_have_errors_and_tolerances(self):
        report = run_check_suite(seed=1, sizes=(8,), instance_count=4)
        for r in report.results:
            assert r.tolerance > 0
            assert r.max_error >= 0
        assert any("oracle" in r.name for r in report.results)

    def test_injected_sign_error_fails_loudly(self, monkeypatch):
        import pvdyn.constrained as con
        true_solve = con.pv_solve

        def corrupted(model, state, tau, cs, ws=None):
            sol = true_solve(model, state, tau, cs, ws)
            sol.lam[:] = -sol.lam          # sign error in the forward sweep
            sol.qdd[:] = sol.qdd + 1e-3
            return sol

        monkeypatch.setattr(con, "pv_solve", corrupted)
        report = run_check_suite(seed=0, sizes=(8,), instance_count=3)
        failed = [r.name for r in report.results if not r.passed]
        assert any("oracle" in name for name in failed)


class TestBench:
    def test_records_and_csv(self, tmp_path):
        spec = BenchSpec(models=("chain:6",), algorithms=("pv", "caba"),
                         m=3, reps=30, seed=0)
        records = run_bench(spec)
        assert len(records) == 2
        for r in records:
            assert r.min_ns <= r.mean_ns
            assert r.flops > 0
            assert r.n == 6 and r.d == 6 and r.m == 3
        path = tmp_path / "out.csv"
        emit_csv(records, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(records) + 1

    def test_csv_header_only_when_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        assert path.read_text() == CSV_HEADER + "\n"

    def test_json_roundtrip(self, tmp_path):
        spec = BenchSpec(models=("chain:4",), algorithms=("aba",), m=0,
                         reps=30, seed=3)
        records = run_bench(spec)
        path = tmp_path / "out.json"
        emit_json(records, str(path))
        back = load_json(str(path))
        assert back == records

    def test_unknown_algorithm(self):
        with pytest.raises(UnknownAlgorithm):
            run_bench(BenchSpec(models=("chain:4",), algorithms=("magic",),
                                m=0, reps=30, seed=0))

    def test_model_load_error(self):
        with pytest.raises(ModelLoadError):
            load_model("no_such_family:3")

    def test_reps_floor_enforced(self):
        with pytest.raises(ValueError):
            BenchSpec(models=("chain:4",), algorithms=("aba",), reps=5)
        with pytest.raises(ValueError):
            BenchRecord("aba", 1, 0, 1, 5, 1.0, 0.0, 1.0, 1, 0)


class TestSlopes:
    def test_flop_slope_helper(self):
        xs = [2, 4, 8, 16]
        ys = [x ** 1.5 for x in xs]
        assert abs(loglog_slope(xs, ys) - 1.5) <= 1e-12
