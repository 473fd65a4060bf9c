"""Cross-module correctness check suite.

Runs the library's defining properties end to end — algebra identities,
kinematic consistency, classical-algorithm roundtrips, and oracle
equivalence of all constrained solvers — and reports a machine-readable
pass/fail record with the worst observed error per property.

Also home to the seeded random-instance generators shared by the test
suite and the benchmark CLI.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import baseline, constrained, delassus, generators, kinematics
from . import model as model_mod
from . import spatial, urdf
from .errors import SingularDual
from .model import (ConstraintSet, MotionConstraint, State, point_constraint,
                    random_state, weld_constraint)

# ---------------------------------------------------------------------------
# seeded instances


def _random_model(rng: np.random.Generator, max_n: int):
    # chains and trees with bounded inertial spread; mechanisms whose link
    # masses span several decades (humanoid-style distal links) are tested
    # separately because the proximal solver's double-precision floor at
    # the default regularization sits near the oracle tolerance there
    kind = rng.integers(0, 4)
    if kind == 0:
        return generators.generate_chain(int(rng.integers(4, min(40, max_n) + 1)))
    if kind == 1:
        n = int(rng.integers(8, max_n + 1))
        return generators.generate_tree(n, int(rng.integers(2, 4)),
                                        int(rng.integers(0, 2 ** 31)))
    n = int(rng.integers(6, max(7, max_n - 5)))
    return generators.generate_tree(n, int(rng.integers(2, 4)),
                                    int(rng.integers(0, 2 ** 31)),
                                    base_kind="floating")


def _random_constraints(rng: np.random.Generator, model, max_m: int) -> ConstraintSet:
    support = {i: len(model.ancestor_dofs(i)) for i in range(model.n_links)}
    cons = []
    used: set[int] = set()
    budget = int(rng.integers(1, max_m + 1))
    attempts = 0
    while budget > 0 and attempts < 50:
        attempts += 1
        size = int(rng.choice([1, 3, 3, 6]))
        if size > budget:
            size = 1 if budget < 3 else 3
        eligible = [i for i in range(model.n_links)
                    if i not in used and support[i] >= size + 2]
        if not eligible:
            break
        depths = np.array([model.link_depth[i] for i in eligible], dtype=float)
        weights = (depths + 1.0) / (depths + 1.0).sum()
        link = int(rng.choice(eligible, p=weights))
        used.add(link)
        if size == 6:
            con = weld_constraint(link, a_star=rng.uniform(-1, 1, 6))
        elif size == 3:
            con = point_constraint(link, rng.uniform(-0.3, 0.3, 3),
                                   a_star=rng.uniform(-1, 1, 3))
        else:
            row = rng.standard_normal(6)
            row /= np.linalg.norm(row)
            con = MotionConstraint(link, row.reshape(1, 6), rng.uniform(-1, 1, 1))
        cons.append(con)
        budget -= size
    return ConstraintSet(cons)


def random_feasible_instance(seed: int, max_n: int = 64, max_m: int = 12):
    """Seeded (model, state, tau, cs) certified full-rank and feasible."""
    for bump in range(64):
        rng = np.random.default_rng((seed, bump))
        model = _random_model(rng, max_n)
        state = random_state(model, int(rng.integers(0, 2 ** 31)))
        cs = _random_constraints(rng, model, max_m)
        if cs.m == 0:
            continue
        lam = baseline.dense_delassus(model, state, cs)
        eigs = np.linalg.eigvalsh(lam)
        if eigs[0] > 1e-7 * max(eigs[-1], 1.0):
            # torque draw at acceleration scale: tau realizing a uniformly
            # drawn free acceleration keeps the operating point physical
            # for light distal links
            tau = baseline.rnea(model, state, rng.uniform(-2.0, 2.0, model.nv))
            return model, state, tau, cs
    raise RuntimeError(f"could not build a feasible instance for seed {seed}")


def random_singular_instance(seed: int):
    """Seeded instance with rank-deficient (possibly infeasible) rows."""
    rng = np.random.default_rng((seed, 987654321))
    mode = int(rng.integers(0, 4))
    if mode == 3:
        model = generators.generate_chain(2)
        state = random_state(model, seed)
        cs = ConstraintSet([weld_constraint(2, a_star=rng.uniform(-1, 1, 6))])
        tau = rng.uniform(-5, 5, model.nv)
        return model, state, tau, cs
    model, state, tau, cs = random_feasible_instance(seed, max_n=32, max_m=6)
    cons = list(cs.constraints)
    first = cons[0]
    if mode == 0:      # duplicated, consistent
        cons.append(first)
    elif mode == 1:    # duplicated, contradictory
        cons.append(MotionConstraint(first.link, first.K, first.a_star + 1.0))
    else:              # structurally null rows
        cons.append(MotionConstraint(first.link, np.zeros((1, 6)),
                                     np.array([float(rng.integers(0, 2))])))
    return model, state, tau, ConstraintSet(cons)


# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    detail: str = ""


@dataclass
class CheckReport:
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> str:
        return json.dumps([asdict(r) for r in self.results], indent=2)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            out.append(f"{mark}  {r.name}: max_error={r.max_error:.3e} "
                       f"tol={r.tolerance:.1e}{' ' + r.detail if r.detail else ''}")
        return out


def _result(name, err, tol, detail="") -> CheckResult:
    return CheckResult(name, bool(err <= tol), float(err), float(tol), detail)


# ---------------------------------------------------------------------------
# individual checks


def _check_spatial(rng) -> list[CheckResult]:
    def random_transform():
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        return spatial.axis_angle_rotation(axis, rng.uniform(-3, 3)), rng.standard_normal(3)

    worst_power = 0.0
    for _ in range(50):
        rot, trans = random_transform()
        v, f = rng.standard_normal(6), rng.standard_normal(6)
        power = float(f @ v)
        power_t = float((spatial.force_matrix(rot, trans) @ f)
                        @ (spatial.motion_matrix(rot, trans) @ v))
        worst_power = max(worst_power, abs(power - power_t) / (1 + abs(power)))
    rot, trans = np.eye(3), np.zeros(3)
    for _ in range(1000):
        rot, trans = spatial.compose_rt(*random_transform(), rot, trans)
    drift = float(np.abs(rot.T @ rot - np.eye(3)).max())
    return [_result("spatial.power_invariance", worst_power, 1e-12),
            _result("spatial.rotation_drift_1000_compositions", drift, 1e-9)]


def _check_models(rng) -> list[CheckResult]:
    results = []
    try:
        for m in (generators.generate_chain(5),
                  generators.generate_tree(20, 2, 7),
                  generators.generate_tree(15, 3, 3, base_kind="floating"),
                  generators.generate_humanoid_like()):
            m.validate()
        results.append(_result("model.generators_valid", 0.0, 1.0))
    except Exception as exc:  # pragma: no cover - failure path
        results.append(CheckResult("model.generators_valid", False, 1.0, 1.0, str(exc)))
    m = generators.generate_tree(12, 2, 11, base_kind="floating")
    text = urdf.serialize_urdf(m)
    m2 = urdf.parse_urdf_subset(text)
    err = 0.0
    for i in range(m.n_links):
        err = max(err, float(np.abs(m.placement_rot[i] - m2.placement_rot[i]).max()),
                  float(np.abs(m.placement_trans[i] - m2.placement_trans[i]).max()),
                  float(np.abs(m.inertia66[i] - m2.inertia66[i]).max()))
    results.append(_result("model.urdf_roundtrip", err, 1e-12))
    return results


def _check_kinematics(rng, sizes) -> list[CheckResult]:
    worst_jv = 0.0
    worst_fd = 0.0
    for k, n in enumerate(sizes):
        model = generators.generate_tree(int(n), 2, 100 + k,
                                         base_kind="floating" if k % 2 else "fixed")
        state = random_state(model, k)
        cache = kinematics.forward_kinematics(model, state)
        cs = generators.standard_constraints(model, 6, seed=k)
        jac = kinematics.constraint_jacobian(model, cache, cs)
        stacked = np.concatenate([c.K @ cache.v[c.link] for c in cs])
        worst_jv = max(worst_jv, float(np.abs(jac @ state.v - stacked).max()))

        qdd = np.random.default_rng(k).uniform(-1, 1, model.nv)
        gamma = kinematics.constraint_drift(model, cache, cs)
        eps = 1e-6
        q_plus = State(_nudge_q(model, state.q, state.v, eps), state.v + eps * qdd)
        q_minus = State(_nudge_q(model, state.q, state.v, -eps), state.v - eps * qdd)
        cp = kinematics.forward_kinematics(model, q_plus)
        cm = kinematics.forward_kinematics(model, q_minus)
        jv_p = np.concatenate([c.K @ cp.v[c.link] for c in cs])
        jv_m = np.concatenate([c.K @ cm.v[c.link] for c in cs])
        fd = (jv_p - jv_m) / (2 * eps)
        worst_fd = max(worst_fd, float(np.abs(fd - (jac @ qdd + gamma)).max()))
    return [_result("kinematics.jacobian_times_velocity", worst_jv, 1e-12),
            _result("kinematics.drift_matches_finite_difference", worst_fd, 1e-5)]


def _nudge_q(model, q, v, eps):
    from .integrate import integrate_position
    return integrate_position(model, q, v, eps)


def _check_baseline(rng, sizes) -> list[CheckResult]:
    worst_rt = 0.0
    worst_crba = 0.0
    worst_energy = 0.0
    worst_ltl = 0.0
    for k, n in enumerate(sizes):
        model = generators.generate_tree(int(n), 2, 200 + k,
                                         base_kind="floating" if k % 2 else "fixed")
        state = random_state(model, 50 + k)
        tau = rng.uniform(-5, 5, model.nv)
        qdd = baseline.aba(model, state, tau)
        worst_rt = max(worst_rt, float(np.abs(
            baseline.rnea(model, state, qdd) - tau).max()))

        mass = baseline.crba(model, state)
        h = baseline.bias_force(model, state)
        nog = model.with_gravity(np.zeros(3))
        col_err = 0.0
        for j in range(min(model.nv, 6)):
            e_j = np.zeros(model.nv)
            e_j[j] = 1.0
            col = baseline.rnea(nog, state, e_j) - baseline.rnea(
                nog, state, np.zeros(model.nv))
            col_err = max(col_err, float(np.abs(mass.matrix[:, j] - col).max()))
        worst_crba = max(worst_crba, col_err)

        # power of velocity-product forces equals half the inertia rate
        eps = 1e-6
        sp = State(_nudge_q(model, state.q, state.v, eps), state.v)
        sm = State(_nudge_q(model, state.q, state.v, -eps), state.v)
        dm = (baseline.crba(model, sp).matrix - baseline.crba(model, sm).matrix) / (2 * eps)
        g = baseline.rnea(model, State(state.q, np.zeros(model.nv)), np.zeros(model.nv))
        coriolis_power = float(state.v @ (h - g))
        rate = 0.5 * float(state.v @ dm @ state.v)
        worst_energy = max(worst_energy,
                           abs(coriolis_power - rate) / (1 + abs(rate)))

        factor = baseline.ltl_factorize(mass)
        low = factor.matrix
        worst_ltl = max(worst_ltl, float(np.abs(low.T @ low - mass.matrix).max())
                        / max(1.0, float(np.abs(mass.matrix).max())))
        mask = mass.ancestry_mask()
        if np.any(np.abs(low[~mask]) > 0):
            worst_ltl = max(worst_ltl, 1.0)
    return [_result("baseline.aba_rnea_roundtrip", worst_rt, 1e-10),
            _result("baseline.crba_matches_rnea_columns", worst_crba, 1e-10),
            _result("baseline.velocity_power_matches_mass_rate", worst_energy, 1e-6),
            _result("baseline.ltl_residual_and_pattern", worst_ltl, 1e-10)]


def _check_solver_equivalence(seed, count) -> list[CheckResult]:
    worst_qdd = 0.0
    worst_lam = 0.0
    worst_cross = 0.0
    for k in range(count):
        model, state, tau, cs = random_feasible_instance(seed + k)
        oracle = baseline.kkt_oracle(model, state, tau, cs)
        scale_q = 1.0 + float(np.linalg.norm(oracle.qdd))
        scale_l = 1.0 + float(np.linalg.norm(oracle.lam))
        sols = [constrained.pv_solve(model, state, tau, cs),
                constrained.pv_early_solve(model, state, tau, cs),
                constrained.constrained_aba(model, state, tau, cs)]
        for sol in sols:
            worst_qdd = max(worst_qdd, float(np.linalg.norm(sol.qdd - oracle.qdd)) / scale_q)
            worst_lam = max(worst_lam, float(np.linalg.norm(sol.lam - oracle.lam)) / scale_l)
        for a in range(len(sols)):
            for b in range(a + 1, len(sols)):
                worst_cross = max(worst_cross, float(np.linalg.norm(
                    sols[a].qdd - sols[b].qdd)) / scale_q)
    return [_result("constrained.qdd_matches_kkt_oracle", worst_qdd, 1e-8),
            _result("constrained.lambda_matches_kkt_oracle", worst_lam, 1e-6),
            _result("constrained.solvers_mutually_agree", worst_cross, 2e-8)]


def _check_soft(seed, count) -> list[CheckResult]:
    worst = 0.0
    for k in range(count):
        model, state, tau, cs = random_feasible_instance(seed + 1000 + k)
        for weight in (1e-2, 1e-6):
            settings = constrained.SolverSettings(soft_R=weight)
            sol = constrained.pv_soft_solve(model, state, tau, cs, settings)
            ref = baseline.relaxed_kkt_oracle(model, state, tau, cs, weight)
            worst = max(worst, float(np.linalg.norm(sol.qdd - ref))
                        / (1 + float(np.linalg.norm(ref))))
    return [_result("constrained.soft_matches_relaxed_oracle", worst, 1e-8)]


def _check_delassus(seed, count) -> list[CheckResult]:
    worst_dense = 0.0
    worst_pair = 0.0
    worst_grade = 0.0
    for k in range(count):
        model, state, tau, cs = random_feasible_instance(seed + 2000 + k)
        ref = baseline.dense_delassus(model, state, cs)
        scale = max(1.0, float(np.abs(ref).max()))
        # one kinematics pass serves every producer on this state
        cache = kinematics.forward_kinematics(model, state)
        op_a = delassus.pv_osim(model, state, cs, cache=cache)
        op_b = delassus.pv_osimr(model, state, cs, cache=cache)
        worst_dense = max(worst_dense, float(np.abs(op_a.matrix - ref).max()) / scale)
        worst_pair = max(worst_pair, float(np.abs(op_a.matrix - op_b.matrix).max()) / scale)
        for mu in (1e-8, 1e-4, 1.0):
            op_c = delassus.caba_osim(model, state, cs,
                                      constrained.SolverSettings(mu=mu), cache=cache)
            ident = op_c.matrix @ (ref + mu * np.eye(cs.m))
            worst_grade = max(worst_grade,
                              float(np.abs(ident - np.eye(cs.m)).max()))
    return [_result("delassus.pv_osim_matches_dense", worst_dense, 1e-8),
            _result("delassus.pv_osimr_equals_pv_osim", worst_pair, 1e-10),
            _result("delassus.caba_osim_grading_identity", worst_grade, 1e-8)]


def _check_singular(seed, count) -> list[CheckResult]:
    worst_ls = 0.0
    raised = True
    finite = True
    for k in range(count):
        model, state, tau, cs = random_singular_instance(seed + 3000 + k)
        ref = baseline.kkt_oracle(model, state, tau, cs)
        sol = constrained.constrained_aba(model, state, tau, cs)
        finite = finite and bool(np.all(np.isfinite(sol.qdd))
                                 and np.all(np.isfinite(sol.lam)))
        worst_ls = max(worst_ls, float(np.linalg.norm(sol.qdd - ref.qdd))
                       / (1 + float(np.linalg.norm(ref.qdd))))
        for solve in (constrained.pv_solve, constrained.pv_early_solve):
            try:
                solve(model, state, tau, cs)
                raised = False
            except SingularDual:
                pass
    err = worst_ls if (raised and finite) else 1.0
    return [_result("constrained.least_squares_on_singular", err, 1e-6,
                    detail="pv_solve and pv_early_solve raised SingularDual on all"
                    if raised else "an exact solver failed to raise")]


def run_check_suite(seed: int = 0, sizes=(12, 24, 40),
                    instance_count: int = 20) -> CheckReport:
    """Execute every cross-module property; nonzero exit is the caller's job."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    results += _check_spatial(rng)
    results += _check_models(rng)
    results += _check_kinematics(rng, sizes)
    results += _check_baseline(rng, sizes)
    results += _check_solver_equivalence(seed, instance_count)
    results += _check_soft(seed, max(4, instance_count // 4))
    results += _check_delassus(seed, max(4, instance_count // 4))
    results += _check_singular(seed, max(6, instance_count // 3))
    return CheckReport(results)
