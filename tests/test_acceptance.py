"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines including measured errors and the stated tolerances.
"""

import time
import warnings

import numpy as np
import pytest

from pvdyn import (ConstraintSet, IntegratorConfig, SolverSettings, aba,
                   attach_anchors, bias_force, caba_osim, constrained_aba,
                   crba, dense_delassus, forward_kinematics, generate_chain,
                   generate_humanoid_like, generate_tree, kkt_oracle,
                   ltl_factorize, ltl_osim, neutral_state, pv_early_solve,
                   pv_osim, pv_osimr, pv_solve, pv_soft_solve,
                   random_feasible_instance, random_singular_instance,
                   random_state, relaxed_kkt_oracle, rnea, step,
                   weld_constraint)
from pvdyn import constraint_jacobian, flops
from pvdyn.bench import build_cell, load_model
from pvdyn.errors import SingularDual
from conftest import loglog_slope
from pvdyn.model import State


def verdict(num, name, passed, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    worst_q = worst_l = 0.0
    bases = {"fixed": 0, "floating": 0}
    for seed in range(200):
        model, state, tau, cs = random_feasible_instance(seed, max_n=64, max_m=12)
        bases[model.base_kind] += 1
        oracle = kkt_oracle(model, state, tau, cs)
        scale_q = 1.0 + np.linalg.norm(oracle.qdd)
        scale_l = 1.0 + np.linalg.norm(oracle.lam)
        for sol in (pv_solve(model, state, tau, cs),
                    pv_early_solve(model, state, tau, cs),
                    constrained_aba(model, state, tau, cs,
                                    SolverSettings(tol_primal=1e-10))):
            worst_q = max(worst_q, np.linalg.norm(sol.qdd - oracle.qdd) / scale_q)
            worst_l = max(worst_l, np.linalg.norm(sol.lam - oracle.lam) / scale_l)
    elapsed = time.time() - t0
    ok = worst_q <= 1e-8 and worst_l <= 1e-6 and elapsed < 30.0
    verdict(1, "oracle equivalence, 200 instances", ok,
            f"max qdd err {worst_q:.2e} (tol 1e-8), max lam err {worst_l:.2e} "
            f"(tol 1e-6), bases {bases}, {elapsed:.1f}s (limit 30s)")


def test_criterion_2_soft_equivalence():
    worst = 0.0
    for seed in range(100):
        model, state, tau, cs = random_feasible_instance(seed + 12000)
        for weight in (1e-2, 1e-6):
            sol = pv_soft_solve(model, state, tau, cs, SolverSettings(soft_R=weight))
            ref = relaxed_kkt_oracle(model, state, tau, cs, weight)
            worst = max(worst, np.linalg.norm(sol.qdd - ref)
                        / (1.0 + np.linalg.norm(ref)))
    verdict(2, "soft-constraint equivalence, 100 instances", worst <= 1e-8,
            f"max qdd err {worst:.2e} (tol 1e-8), weights 1e-2 and 1e-6")


def test_criterion_3_delassus_correctness():
    worst_dense = worst_pair = worst_grade = 0.0
    for seed in range(30):
        model, state, _, cs = random_feasible_instance(seed + 24000)
        ref = dense_delassus(model, state, cs)
        scale = max(1.0, float(np.abs(ref).max()))
        a = pv_osim(model, state, cs).matrix
        b = pv_osimr(model, state, cs).matrix
        worst_dense = max(worst_dense, float(np.abs(a - ref).max()) / scale)
        worst_pair = max(worst_pair, float(np.abs(a - b).max()) / scale)
        for mu in (1e-8, 1e-4, 1.0):
            x = caba_osim(model, state, cs, SolverSettings(mu=mu)).matrix
            ident = x @ (ref + mu * np.eye(cs.m))
            worst_grade = max(worst_grade, float(np.abs(ident - np.eye(cs.m)).max()))
    ok = worst_dense <= 1e-8 and worst_pair <= 1e-10 and worst_grade <= 1e-8
    verdict(3, "Delassus correctness", ok,
            f"pv_osim vs dense {worst_dense:.2e} (tol 1e-8), "
            f"pv_osimr vs pv_osim {worst_pair:.2e} (tol 1e-10), "
            f"grading identity {worst_grade:.2e} (tol 1e-8)")


def test_criterion_4_robustness_on_singular_instances():
    worst_q = worst_x = 0.0
    raises = 0
    finite = True
    mu = 1e-4
    for seed in range(50):
        model, state, tau, cs = random_singular_instance(seed)
        ref = kkt_oracle(model, state, tau, cs)
        assert not ref.full_rank, "fixture must be rank deficient"
        sol = constrained_aba(model, state, tau, cs)
        finite &= bool(np.all(np.isfinite(sol.qdd)) and np.all(np.isfinite(sol.lam)))
        worst_q = max(worst_q, np.linalg.norm(sol.qdd - ref.qdd)
                      / (1.0 + np.linalg.norm(ref.qdd)))
        x = caba_osim(model, state, cs, SolverSettings(mu=mu)).matrix
        finite &= bool(np.all(np.isfinite(x)))
        damped_ref = np.linalg.inv(dense_delassus(model, state, cs)
                                   + mu * np.eye(cs.m))
        worst_x = max(worst_x, float(np.abs(x - damped_ref).max())
                      / max(1.0, float(np.abs(damped_ref).max())))
        try:
            pv_solve(model, state, tau, cs)
        except SingularDual:
            raises += 1
    ok = worst_q <= 1e-6 and worst_x <= 1e-6 and raises == 50 and finite
    verdict(4, "robustness on 50 rank-deficient/infeasible instances", ok,
            f"caba qdd vs pseudoinverse {worst_q:.2e} (tol 1e-6), caba_osim vs "
            f"damped inverse {worst_x:.2e} (tol 1e-6), pv_solve raised "
            f"SingularDual {raises}/50, finite outputs {finite}")


def test_criterion_5_complexity_slopes():
    t0 = time.time()
    sizes = (64, 128, 256, 512, 1024)
    slopes = {}
    for alg in ("caba", "pv", "kkt_oracle"):
        counts = []
        for n in sizes:
            model = load_model(f"chain:{n}")
            cell = build_cell(model, alg, 6, 0)
            with flops.counted() as c:
                cell()
            counts.append(c())
        slopes[alg] = loglog_slope(sizes, counts)
    elapsed = time.time() - t0
    ok = (0.9 <= slopes["caba"] <= 1.1 and 0.9 <= slopes["pv"] <= 1.2
          and slopes["kkt_oracle"] >= 2.5 and elapsed < 120.0)
    verdict(5, "flop-count complexity slopes, chains 64..1024 m=6", ok,
            f"caba {slopes['caba']:.3f} (in [0.9,1.1]), pv {slopes['pv']:.3f} "
            f"(in [0.9,1.2]), kkt_oracle {slopes['kkt_oracle']:.3f} (>= 2.5), "
            f"{elapsed:.1f}s (limit 120s)")


def _humanoid_weld_fixture():
    model = generate_humanoid_like()
    tips = [model.names.index(n) for n in ("foot_l", "foot_r", "hand_l", "hand_r")]
    cs = ConstraintSet([weld_constraint(t) for t in tips])
    assert cs.m == 24
    state = random_state(model, 0)
    return model, state, cs


def _time_cell(fn, reps=40):
    with flops.paused():
        for _ in range(10):
            fn()
        times = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            fn()
            times.append(time.perf_counter_ns() - t0)
    with flops.counted() as c:
        fn()
    return min(times), c()


def test_criterion_6_osim_speedup_direction():
    model, state, cs = _humanoid_weld_fixture()
    settings = SolverSettings()

    def run_caba_osim():
        return caba_osim(model, state, cs, settings)

    def run_ltl_osim():
        cache = forward_kinematics(model, state)
        mass = crba(model, state, cache=cache)
        jac = constraint_jacobian(model, cache, cs)
        return ltl_osim(mass, jac)

    wall_caba, flops_caba = _time_cell(run_caba_osim)
    wall_ltl, flops_ltl = _time_cell(run_ltl_osim)
    wall_ratio = wall_ltl / wall_caba
    flop_ratio = flops_ltl / flops_caba
    if wall_ratio < 1.2:
        warnings.warn(f"soft wall-time ratio {wall_ratio:.2f} below 1.2 "
                      "(machine dependent)")
    ok = flop_ratio >= 2.0
    verdict(6, "OSIM speed-up direction, humanoid m=24", ok,
            f"flop ratio ltl/caba {flop_ratio:.2f} (hard tol >= 2.0; "
            f"ltl {flops_ltl}, caba {flops_caba}), wall ratio {wall_ratio:.2f} "
            f"(soft >= 1.2)")


def test_criterion_7_classical_identities():
    worst_rt = 0.0
    for seed in range(25):
        model = generate_tree(12 + 2 * (seed % 20), 2 + seed % 2, seed,
                              base_kind="floating" if seed % 2 else "fixed")
        state = random_state(model, seed)
        tau = np.random.default_rng(seed).uniform(-5, 5, model.nv)
        qdd = aba(model, state, tau)
        worst_rt = max(worst_rt, float(np.abs(rnea(model, state, qdd) - tau).max()))

    model = generate_tree(6, 2, seed=3, base_kind="floating")
    qdd = aba(model, neutral_state(model), np.zeros(model.nv))
    free_fall = max(float(np.abs(qdd[:3]).max()),
                    float(np.abs(qdd[3:6] - model.gravity).max()),
                    float(np.abs(qdd[6:]).max()))

    worst_ltl = 0.0
    pattern_ok = True
    for seed in range(10):
        model = generate_tree(20, 2, seed=seed + 60,
                              base_kind="floating" if seed % 2 else "fixed")
        mass = crba(model, random_state(model, seed))
        low = ltl_factorize(mass).matrix
        scale = float(np.abs(mass.matrix).max())
        worst_ltl = max(worst_ltl, float(np.abs(low.T @ low - mass.matrix).max()) / scale)
        pattern_ok &= bool(np.all(low[~mass.ancestry_mask()] == 0.0))

    ok = worst_rt <= 1e-10 and free_fall <= 1e-12 and worst_ltl <= 1e-10 and pattern_ok
    verdict(7, "classical identities", ok,
            f"aba/rnea roundtrip {worst_rt:.2e} (tol 1e-10), free-fall "
            f"{free_fall:.2e} (tol 1e-12), LTL residual {worst_ltl:.2e} "
            f"(tol 1e-10), pattern ok {pattern_ok}")


def _total_energy(model, state):
    kinetic = 0.5 * state.v @ crba(model, state).matrix @ state.v
    cache = forward_kinematics(model, state)
    potential = 0.0
    for i in range(model.n_links):
        com_world = cache.w_rot[i].T @ model.inertia[i].com + cache.w_trans[i]
        potential -= model.inertia[i].mass * float(model.gravity @ com_world)
    return kinetic + potential


def test_criterion_8_rollout_physics():
    pendulum = generate_chain(1).with_gravity([0.0, -9.81, 0.0])
    state = State(np.array([1.0]), np.zeros(1))
    e0 = _total_energy(pendulum, state)
    config = IntegratorConfig(scheme="rk4", dt=1e-3)
    for _ in range(10000):
        state = step(pendulum, state, np.zeros(1), ConstraintSet.empty(),
                     "aba", config)
    drift = abs(_total_energy(pendulum, state) - e0) / abs(e0)

    model = generate_chain(8)
    q0 = np.array([0.3, -0.4, 0.5, 0.2, -0.3, 0.4, 0.1, -0.2])
    st = State(q0, np.zeros(8))
    cs = attach_anchors(model, st,
                        ConstraintSet([weld_constraint(8, baumgarte=(10.0, 100.0))]))
    anchor = cs.constraints[0].anchor
    errs = {}
    cfg = IntegratorConfig(dt=1e-3)
    for k in range(5000):
        st = step(model, st, -2.0 * st.v, cs, "pv", cfg)
        if (k + 1) % 1000 == 0:
            cache = forward_kinematics(model, st)
            errs[(k + 1) // 1000] = float(np.linalg.norm(
                cache.w_trans[8] - anchor.translation))
    bound = 10.0 * max(errs[1], 1e-9)
    weld_ok = all(errs[t] <= bound for t in range(1, 6))
    ok = drift <= 1e-5 and weld_ok
    verdict(8, "rollout physics", ok,
            f"pendulum RK4 10s energy drift {drift:.2e} (tol 1e-5), welded-tip "
            f"drift {errs[5]:.2e} bounded by 10x its 1s value "
            f"{errs[1]:.2e}: {weld_ok}")
