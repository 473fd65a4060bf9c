import numpy as np
import pytest

from pvdyn import (ConstraintSet, State, aba, bias_force, crba,
                   constraint_jacobian, dense_delassus, forward_kinematics,
                   generate_chain, generate_tree, kkt_oracle, ltl_factorize,
                   ltl_osim, ltl_solve, neutral_state, point_constraint,
                   random_state, relaxed_kkt_oracle, rnea, weld_constraint)
from pvdyn.errors import NotPositiveDefinite
from pvdyn.baseline import MassMatrix


def star_model():
    """Three one-dof branches hanging off the base."""
    from pvdyn import Joint, Model, SpatialInertia, PlueckerTransform
    parent = [-1, 0, 0, 0]
    joints = [Joint.fixed(), Joint.revolute([0, 0, 1]),
              Joint.revolute([0, 1, 0]), Joint.revolute([1, 0, 0])]
    placement = [PlueckerTransform.identity(),
                 PlueckerTransform(np.eye(3), [0.3, 0, 0]),
                 PlueckerTransform(np.eye(3), [0, 0.3, 0]),
                 PlueckerTransform(np.eye(3), [0, 0, 0.3])]
    inertia = [SpatialInertia.from_com(1.0, np.zeros(3), 0.01 * np.eye(3))] + \
        [SpatialInertia.from_com(1.0, [0.2, 0, 0], 0.01 * np.eye(3))] * 3
    return Model(parent, joints, placement, inertia)


class TestRnea:
    def test_pendulum_statics(self, pendulum):
        # oracle: holding torque m * g * c
        tau = bias_force(pendulum, neutral_state(pendulum))
        np.testing.assert_allclose(tau, [4.905], atol=1e-12)

    def test_zero_gravity_rest(self, chain8):
        model = chain8.with_gravity(np.zeros(3))
        tau = bias_force(model, neutral_state(model))
        np.testing.assert_allclose(tau, np.zeros(8), atol=1e-14)

    def test_affinity_in_qdd(self, chain8):
        state = random_state(chain8, 2)
        rng = np.random.default_rng(0)
        q1, q2 = rng.uniform(-1, 1, (2, 8))
        lhs = rnea(chain8, state, q1 + q2) + rnea(chain8, state, np.zeros(8))
        rhs = rnea(chain8, state, q1) + rnea(chain8, state, q2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_external_force_balances_gravity(self, pendulum):
        state = neutral_state(pendulum)
        # upward force at the bob cancels the gravity torque
        f_ext = [None, np.array([0, 0, 4.905, 0, 9.81, 0])]
        tau = rnea(pendulum, state, np.zeros(1), f_ext=f_ext)
        np.testing.assert_allclose(tau, [-4.905 + 9.81 * 0.5], atol=1e-12)


class TestCrba:
    def test_pendulum_value(self, pendulum):
        # point-mass oracle: m c^2 + com inertia about z = 0.25 + 0.01
        mass = crba(pendulum, neutral_state(pendulum))
        np.testing.assert_allclose(mass.matrix, [[0.26]], atol=1e-12)

    def test_disjoint_branches_exact_zeros(self):
        model = star_model()
        mass = crba(model, random_state(model, 1))
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert mass.matrix[i, j] == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_rnea_columns(self, seed):
        model = generate_tree(18, 2, seed=seed,
                              base_kind="floating" if seed % 2 else "fixed")
        state = random_state(model, seed)
        nog = model.with_gravity(np.zeros(3))
        mass = crba(model, state)
        zero = rnea(nog, state, np.zeros(model.nv))
        for j in range(model.nv):
            e_j = np.zeros(model.nv)
            e_j[j] = 1.0
            col = rnea(nog, state, e_j) - zero
            np.testing.assert_allclose(mass.matrix[:, j], col, atol=1e-10)

    def test_spd(self, humanoid):
        mass = crba(humanoid, random_state(humanoid, 5))
        eigs = np.linalg.eigvalsh(mass.matrix)
        assert eigs.min() > 0
        np.testing.assert_allclose(mass.matrix, mass.matrix.T, atol=1e-12)


class TestAba:
    @pytest.mark.parametrize("seed", range(5))
    def test_rnea_roundtrip(self, seed):
        model = generate_tree(20, 3, seed=seed,
                              base_kind="floating" if seed % 2 else "fixed")
        state = random_state(model, seed + 50)
        tau = np.random.default_rng(seed).uniform(-5, 5, model.nv)
        qdd = aba(model, state, tau)
        np.testing.assert_allclose(rnea(model, state, qdd), tau, atol=1e-10)

    def test_free_fall(self):
        model = generate_tree(5, 2, seed=0, base_kind="floating")
        qdd = aba(model, neutral_state(model), np.zeros(model.nv))
        np.testing.assert_allclose(qdd[:3], np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(qdd[3:6], model.gravity, atol=1e-12)

    def test_matches_dense_inverse(self):
        model = generate_tree(20, 2, seed=7)
        state = random_state(model, 3)
        tau = np.random.default_rng(1).uniform(-5, 5, model.nv)
        mass = crba(model, state)
        h = bias_force(model, state)
        dense = np.linalg.solve(mass.matrix, tau - h)
        np.testing.assert_allclose(aba(model, state, tau), dense, atol=1e-9)


class TestLtl:
    def test_chain_factor_dense_lower(self):
        model = generate_chain(3)
        mass = crba(model, random_state(model, 1))
        low = ltl_factorize(mass).matrix
        assert np.all(np.abs(np.triu(low, 1)) == 0)
        assert mass.ancestry_mask().all()  # chain ancestry admits a full factor
        np.testing.assert_allclose(low.T @ low, mass.matrix, atol=1e-12)

    def test_star_preserves_zeros(self):
        model = star_model()
        mass = crba(model, random_state(model, 2))
        low = ltl_factorize(mass).matrix
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert low[i, j] == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_residual_and_pattern(self, seed):
        model = generate_tree(24, 2, seed=seed,
                              base_kind="floating" if seed == 1 else "fixed")
        mass = crba(model, random_state(model, seed))
        low = ltl_factorize(mass).matrix
        scale = np.abs(mass.matrix).max()
        assert np.abs(low.T @ low - mass.matrix).max() <= 1e-10 * scale
        mask = mass.ancestry_mask()
        assert np.all(low[~mask] == 0.0)

    def test_solve_roundtrip(self):
        model = generate_tree(17, 3, seed=5)
        mass = crba(model, random_state(model, 5))
        factor = ltl_factorize(mass)
        x = np.random.default_rng(2).uniform(-1, 1, model.nv)
        np.testing.assert_allclose(ltl_solve(factor, mass.matrix @ x), x, atol=1e-9)

    def test_not_positive_definite(self):
        bad = MassMatrix(np.diag([1.0, -1.0]), np.array([-1, 0]))
        with pytest.raises(NotPositiveDefinite):
            ltl_factorize(bad)


class TestLtlOsim:
    def test_single_unit_row(self):
        model = generate_chain(4)
        state = random_state(model, 8)
        mass = crba(model, state)
        jac = np.zeros((1, 4))
        jac[0, 2] = 1.0
        op = ltl_osim(mass, jac)
        minv = np.linalg.inv(mass.matrix)
        np.testing.assert_allclose(op.matrix, [[minv[2, 2]]], atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense(self, seed):
        model = generate_tree(20, 2, seed=seed,
                              base_kind="floating" if seed == 2 else "fixed")
        state = random_state(model, seed)
        cache = forward_kinematics(model, state)
        cs = ConstraintSet([point_constraint(model.n_links - 1, [0.1, 0, 0]),
                            weld_constraint(model.n_links // 2)])
        mass = crba(model, state, cache=cache)
        jac = constraint_jacobian(model, cache, cs)
        dense = jac @ np.linalg.solve(mass.matrix, jac.T)
        np.testing.assert_allclose(ltl_osim(mass, jac).matrix, dense, atol=1e-9)

    def test_empty(self):
        model = generate_chain(3)
        mass = crba(model, neutral_state(model))
        op = ltl_osim(mass, np.zeros((0, 3)))
        assert op.matrix.shape == (0, 0)


class TestKktOracle:
    def test_unconstrained_reduces_to_aba(self, chain8):
        state = random_state(chain8, 4)
        tau = np.random.default_rng(3).uniform(-5, 5, 8)
        sol = kkt_oracle(chain8, state, tau, ConstraintSet.empty())
        np.testing.assert_allclose(sol.qdd, aba(chain8, state, tau), atol=1e-10)

    def test_pendulum_static_balance(self, pendulum):
        # a 3-D point constraint pins the bob; multipliers carry gravity
        state = neutral_state(pendulum)
        cs = ConstraintSet([point_constraint(1, [0.5, 0, 0])])
        sol = kkt_oracle(pendulum, state, np.zeros(1), cs)
        np.testing.assert_allclose(sol.qdd, np.zeros(1), atol=1e-10)
        cache = forward_kinematics(pendulum, state)
        jac = constraint_jacobian(pendulum, cache, cs)
        h = bias_force(pendulum, state)
        np.testing.assert_allclose(jac.T @ sol.lam, h, atol=1e-10)
        assert not sol.full_rank  # one dof cannot span three rows

    def test_contradictory_rows_least_squares(self, chain8):
        state = random_state(chain8, 6)
        row = np.zeros((1, 6))
        row[0, 3] = 1.0
        from pvdyn import MotionConstraint
        cs = ConstraintSet([MotionConstraint(8, row, np.array([0.0])),
                            MotionConstraint(8, row, np.array([1.0]))])
        tau = np.zeros(8)
        sol = kkt_oracle(chain8, state, tau, cs)
        assert sol.rank == 1
        # the residual splits evenly between the two contradictory rows
        np.testing.assert_allclose(sol.residual_primal, [0.5, -0.5], atol=1e-9)
        # primal agrees with the pseudoinverse solution of the stacked system
        cache = forward_kinematics(chain8, state)
        jac = constraint_jacobian(chain8, cache, cs)
        mass = crba(chain8, state).matrix
        h = bias_force(chain8, state)
        from pvdyn.kinematics import constraint_drift
        target = cs.stacked_targets() - constraint_drift(chain8, cache, cs)
        qdd_free = np.linalg.solve(mass, tau - h)
        msqrt = np.linalg.cholesky(mass)
        y = np.linalg.pinv(jac @ np.linalg.inv(msqrt).T) @ (target - jac @ qdd_free)
        qdd_ref = qdd_free + np.linalg.inv(msqrt).T @ y
        np.testing.assert_allclose(sol.qdd, qdd_ref, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_residuals_small_on_feasible(self, seed):
        from pvdyn import random_feasible_instance
        model, state, tau, cs = random_feasible_instance(seed + 400)
        sol = kkt_oracle(model, state, tau, cs)
        assert sol.full_rank
        scale = 1 + np.linalg.norm(cs.stacked_targets())
        assert np.linalg.norm(sol.residual_primal) <= 1e-8 * scale
        assert np.linalg.norm(sol.residual_dual) <= 1e-8 * (1 + np.linalg.norm(tau))


class TestRelaxedOracle:
    def test_large_weight_approaches_unconstrained(self, chain8):
        state = random_state(chain8, 7)
        tau = np.random.default_rng(5).uniform(-1, 1, 8)
        cs = ConstraintSet([weld_constraint(8)])
        qdd = relaxed_kkt_oracle(chain8, state, tau, cs, 1e12)
        free = aba(chain8, state, tau)
        assert np.linalg.norm(qdd - free) <= 1e-6 * (1 + np.linalg.norm(free))


def test_aba_external_force_roundtrip(chain8):
    state = random_state(chain8, 17)
    rng = np.random.default_rng(17)
    qdd = rng.uniform(-1, 1, 8)
    f_ext = [None] * chain8.n_links
    f_ext[5] = rng.uniform(-1, 1, 6)
    f_ext[8] = rng.uniform(-1, 1, 6)
    tau = rnea(chain8, state, qdd, f_ext=f_ext)
    np.testing.assert_allclose(aba(chain8, state, tau, f_ext=f_ext), qdd, atol=1e-10)


def test_aba_singular_joint_inertia():
    from pvdyn import Joint, Model, SpatialInertia, PlueckerTransform
    from pvdyn.errors import SingularJointInertia
    # a massless distal link makes S' I^A S vanish at its joint
    parent = [-1, 0]
    joints = [Joint.fixed(), Joint.revolute([0, 0, 1])]
    placement = [PlueckerTransform.identity(), PlueckerTransform.identity()]
    inertia = [SpatialInertia.from_com(1.0, np.zeros(3), 1e-3 * np.eye(3)),
               SpatialInertia(0.0, np.zeros(3), np.zeros((3, 3)))]
    model = Model(parent, joints, placement, inertia)
    with pytest.raises(SingularJointInertia):
        aba(model, neutral_state(model), np.zeros(1))


def test_dense_delassus_of_no_rows_is_empty_and_free(humanoid):
    from pvdyn import flops
    with flops.counted() as count:
        lam = dense_delassus(humanoid, random_state(humanoid, 11), ConstraintSet())
    assert lam.shape == (0, 0) and count() == 0


def test_dense_delassus_psd(humanoid):
    state = random_state(humanoid, 11)
    cs = ConstraintSet([weld_constraint(6), weld_constraint(12)])
    lam = dense_delassus(humanoid, state, cs)
    eigs = np.linalg.eigvalsh(lam)
    assert eigs.min() >= -1e-10 * max(1.0, eigs.max())


# ---------------------------------------------------------------------------
# the level-batched LTL pipeline against the per-link and per-dof loops


def per_link_rnea(model, state, qdd, f_ext=None, cache=None):
    """RNEA with one Python iteration per link each way."""
    from pvdyn import flops
    from pvdyn.kinematics import velocity_products
    if cache is None:
        cache = forward_kinematics(model, state)
    n = model.n_links
    xm, c = cache.xm[model.plan.position], cache.c[model.plan.position, :, 0]
    a = np.empty((n, 6))
    f = velocity_products(model, cache)
    a_world = -model.gravity6()
    work = 0
    for i in range(n):
        p = model.parent[i]
        a[i] = xm[i] @ (a_world if p < 0 else a[p]) + c[i]
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
            f[p] += xm[i].T @ f[i]
            work += flops.XFORCE_T + flops.ADD6
    flops.add(work)
    return tau


def per_link_crba(model, state, cache):
    """CRBA with one Python iteration per link and per root-path hop."""
    from pvdyn import flops
    from conftest import congruence
    n = model.n_links
    xm = cache.xm[model.plan.position]
    composite = model.inertia66.copy()
    m = np.zeros((model.nv, model.nv))
    work = 0
    for i in range(n - 1, -1, -1):
        p = model.parent[i]
        if p >= 0:
            composite[p] += congruence(xm[i], composite[i])
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
            fblock = xm[j].T @ fblock
            j = model.parent[j]
            work += flops.XFORCE_T * nv
            nv_j = model.joints[j].nv
            if nv_j:
                blk_j = model.v_block(j)
                m[blk_j, blk_i] = model.S[j].T @ fblock
                m[blk_i, blk_j] = m[blk_j, blk_i].T
                work += flops.gemm(nv_j, 6, nv)
    flops.add(work)
    return m


def per_dof_ltl_factorize(matrix, pi):
    """L' L factor with one Python iteration per dof, ancestor and entry."""
    from pvdyn import flops
    n = matrix.shape[0]
    low = np.tril(matrix.copy())
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
    return low


def per_dof_ltl_solve(low, pi, rhs):
    from pvdyn import flops
    n = low.shape[0]
    y = np.asarray(rhs, dtype=float).copy()
    work = 0
    for i in range(n - 1, -1, -1):
        y[i] /= low[i, i]
        work += 1
        j = pi[i]
        while j >= 0:
            y[j] -= low[i, j] * y[i]
            work += 2
            j = pi[j]
    for i in range(n):
        j = pi[i]
        while j >= 0:
            y[i] -= low[i, j] * y[j]
            work += 2
            j = pi[j]
        y[i] /= low[i, i]
        work += 1
    flops.add(work)
    return y


def per_dof_ltl_osim(matrix, pi, jac):
    """J M^-1 J', one column, dof and ancestor at a time, skipping zeros."""
    from pvdyn import flops
    m = jac.shape[0]
    low = per_dof_ltl_factorize(matrix, pi)
    n = low.shape[0]
    z = jac.T.copy()
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
    return 0.5 * (lam + lam.T)


def per_constraint_jacobian(model, cache, cs):
    """Stacked Jacobian with one walk of composed joint frames per constraint."""
    from pvdyn import flops
    xm = cache.xm[model.plan.position]
    jac = np.zeros((cs.m, model.nv))
    for idx, con in enumerate(cs):
        link_jac = np.zeros((6, model.nv))
        work = 0
        i, x = con.link, np.eye(6)
        while i >= 0:
            nv = model.joints[i].nv
            if nv:
                link_jac[:, model.v_block(i)] = x @ model.S[i]
                work += flops.XMOT * nv
            x = x @ xm[i]
            work += flops.COMPOSE
            i = model.parent[i]
        jac[cs.rows(idx)] = con.K @ link_jac
        flops.add(work + flops.gemm(con.dim, 6, model.nv))
    return jac


def _ltl_models():
    from pvdyn import generate_humanoid_like
    from pvdyn.bench import load_model
    from pvdyn.urdf import parse_urdf_subset
    from test_constrained import with_fixed_joints
    from test_kinematics import MIXED_URDF
    tree = load_model("tree:40:3")
    return {
        "chain:64": lambda: load_model("chain:64"),
        "star": star_model,
        "tree:128:3": lambda: load_model("tree:128:3"),
        "humanoid": generate_humanoid_like,
        "floating-tree": lambda: generate_tree(30, 3, seed=4, base_kind="floating"),
        "welded-tree": lambda: with_fixed_joints(
            tree, {i for i in range(1, tree.n_links) if tree.children[i]} & set(range(2, 40, 3))),
        "urdf-floating-prismatic": lambda: parse_urdf_subset(MIXED_URDF),
    }


LTL_MODELS = sorted(_ltl_models())
RNEA_MODELS = ["chain:1", "chain:7", "chain:64", "tree:128:3", "humanoid", "welded-tree",
               "urdf-floating-prismatic"]


def _ltl_case(name):
    from pvdyn.generators import standard_constraints
    model = _ltl_models()[name]()
    state = random_state(model, 21)
    m = min(12, model.nv - 1)
    cs = standard_constraints(model, m, seed=21)
    links = [con.link for con in cs] + [0, model.n_links - 1]
    cs = ConstraintSet(list(cs) + [weld_constraint(link) for link in links[-2:]])
    return model, state, forward_kinematics(model, state), cs


def _same(got, ref):
    return np.linalg.norm(got - ref) <= 1e-12 * (1 + np.linalg.norm(ref))


def _counted(fn, *args):
    from pvdyn import flops
    with flops.counted() as count:
        out = fn(*args)
    return out, count()


class TestLevelBatchedLtl:
    @pytest.mark.parametrize("name", LTL_MODELS)
    def test_crba_matches_per_link_loop(self, name):
        model, state, cache, _ = _ltl_case(name)
        ref, ref_flops = _counted(per_link_crba, model, state, cache)
        mass, got_flops = _counted(crba, model, state, cache)
        assert _same(mass.matrix, ref) and got_flops == ref_flops
        assert np.array_equal(mass.matrix, mass.matrix.T)
        assert np.all(mass.matrix[~mass.ancestry_mask()] == 0.0)

    @pytest.mark.parametrize("name", LTL_MODELS)
    def test_factor_and_solves_match_per_dof_loops(self, name):
        model, state, cache, cs = _ltl_case(name)
        mass = crba(model, state, cache)
        pi = model.dof_parent
        ref, ref_flops = _counted(per_dof_ltl_factorize, mass.matrix, pi)
        factor, got_flops = _counted(ltl_factorize, mass)
        assert _same(factor.matrix, ref) and got_flops == ref_flops
        assert np.all(factor.matrix[~mass.ancestry_mask()] == 0.0)
        rhs = np.random.default_rng(3).uniform(-1, 1, model.nv)
        x_ref, ref_flops = _counted(per_dof_ltl_solve, ref, pi, rhs)
        x, got_flops = _counted(ltl_solve, factor, rhs)
        assert _same(x, x_ref) and got_flops == ref_flops
        jac = constraint_jacobian(model, cache, cs)
        lam_ref, ref_flops = _counted(per_dof_ltl_osim, mass.matrix, pi, jac)
        lam, got_flops = _counted(ltl_osim, mass, jac)
        assert _same(lam.matrix, lam_ref) and got_flops == ref_flops

    @pytest.mark.parametrize("name", LTL_MODELS)
    def test_constraint_jacobian_matches_per_constraint_walk(self, name):
        from pvdyn import link_jacobian
        model, state, cache, cs = _ltl_case(name)
        ref, ref_flops = _counted(per_constraint_jacobian, model, cache, cs)
        jac, got_flops = _counted(constraint_jacobian, model, cache, cs)
        assert _same(jac, ref) and got_flops == ref_flops
        for con in cs:
            one = ConstraintSet([weld_constraint(con.link)])
            ref, ref_flops = _counted(per_constraint_jacobian, model, cache, one)
            got, got_flops = _counted(link_jacobian, model, cache, con.link)
            assert _same(got, ref)
            assert got_flops + 2 * 36 * model.nv == ref_flops

    def test_ancestry_mask_matches_parent_walk(self):
        model = _ltl_models()["welded-tree"]()
        mass = crba(model, random_state(model, 2))
        mask = np.eye(model.nv, dtype=bool)
        for i in range(model.nv):
            j = model.dof_parent[i]
            while j >= 0:
                mask[i, j] = mask[j, i] = True
                j = model.dof_parent[j]
        assert np.array_equal(mass.ancestry_mask(), mask)
        assert not mask.all()

    @pytest.mark.parametrize("name", LTL_MODELS)
    def test_dof_levels_follow_the_parent_chain(self, name):
        model = _ltl_models()[name]()
        n, levels = model.nv, model.dof_levels
        assert np.array_equal(np.sort(np.concatenate([lv.dofs for lv in levels])), np.arange(n))
        for a, lv in enumerate(levels):
            assert np.all(np.diff(lv.dofs) > 0) and lv.anc.shape == (lv.dofs.size, a)
            for d, anc in zip(lv.dofs, lv.anc):
                chain, j = [], model.dof_parent[d]
                while j >= 0:
                    chain.append(j)
                    j = model.dof_parent[j]
                assert anc.tolist() == chain[::-1]
            # the flat indices the factor and its solves read
            i = np.repeat(np.arange(a), np.arange(1, a + 1))
            j = np.arange(i.size) - i * (i + 1) // 2
            assert np.array_equal(lv.pi, i) and np.array_equal(lv.pj, j)
            assert np.array_equal(lv.targets, lv.anc[:, i] * n + lv.anc[:, j])
            assert np.array_equal(np.arange(n * n)[lv.piv], lv.dofs * (n + 1))
            assert np.array_equal(lv.rows, lv.dofs[:, None] * n + lv.anc)
        if name == "chain:64":      # one table of targets, viewed by every level
            assert all(np.shares_memory(lv.targets, levels[-1].targets) for lv in levels[1:])

    def test_caller_built_mass_matrix_builds_its_levels(self):
        model, state, cache, cs = _ltl_case("welded-tree")
        mass = crba(model, state, cache)
        own = MassMatrix(mass.matrix, mass.dof_parent)
        assert own.levels is not model.dof_levels
        assert ltl_factorize(own).matrix.tobytes() == ltl_factorize(mass).matrix.tobytes()
        jac = constraint_jacobian(model, cache, cs)
        assert ltl_osim(own, jac).matrix.tobytes() == ltl_osim(mass, jac).matrix.tobytes()

    def test_only_crba_and_the_ltl_build_the_levels(self):
        from pvdyn import caba_osim, pv_osim, pv_solve
        model = generate_tree(30, 3, seed=6, base_kind="floating")
        state = random_state(model, 6)
        cs = ConstraintSet([weld_constraint(7), point_constraint(20, [0.1, 0, 0])])
        tau = np.zeros(model.nv)
        cache = forward_kinematics(model, state)
        pv_solve(model, state, tau, cs)
        pv_osim(model, state, cs)
        caba_osim(model, state, cs)
        aba(model, state, tau)
        rnea(model, state, tau)
        constraint_jacobian(model, cache, cs)
        assert "dof_levels" not in vars(model)
        dense_delassus(model, state, ConstraintSet())
        assert "dof_levels" not in vars(model) and "crba_walk" not in vars(model)
        assert crba(model, state).levels is model.dof_levels

    def test_walks_are_built_once(self):
        model, state, cache, cs = _ltl_case("tree:128:3")
        assert crba(model, state, cache).levels is crba(model, state, cache).levels
        assert model.crba_walk is model.crba_walk
        walk = model.jacobian_walk(cs.links)
        constraint_jacobian(model, cache, cs)
        assert model.jacobian_walk(list(cs.links)) is walk
        assert model.jacobian_walk(cs.links[:1]) is not walk

    @pytest.mark.parametrize("dof", [0, 5, -1])
    def test_not_positive_definite_at_any_level(self, dof):
        model = _ltl_models()["tree:128:3"]()
        mass = crba(model, random_state(model, 4))
        mass.matrix[dof, dof] = -1.0
        with pytest.raises(NotPositiveDefinite):
            ltl_factorize(mass)
        with pytest.raises(NotPositiveDefinite):
            ltl_osim(mass, np.eye(model.nv)[:2])


class TestLevelBatchedRnea:
    """The level-batched RNEA against the per-link loop: torques within
    1e-12 relative and the same flop charge."""

    @pytest.mark.parametrize("case", ["plain", "f_ext", "zero_gravity"])
    @pytest.mark.parametrize("name", RNEA_MODELS)
    def test_matches_per_link_loop(self, name, case):
        from pvdyn.bench import load_model
        model = load_model(name) if name.startswith("chain") else _ltl_models()[name]()
        if case == "zero_gravity":
            model = model.with_gravity(np.zeros(3))
        state = random_state(model, 31)
        rng = np.random.default_rng(31)
        qdd = rng.uniform(-2.0, 2.0, model.nv)
        f_ext = None
        if case == "f_ext":
            f_ext = [None if i % 3 == 1 else rng.standard_normal(6)
                     for i in range(model.n_links)]
        # the cache's twists are built, and charged, on their first read
        cache = forward_kinematics(model, state)
        _, read_flops = _counted(lambda: cache.v)
        ref, ref_flops = _counted(per_link_rnea, model, state, qdd, f_ext, cache)
        tau, got_flops = _counted(rnea, model, state, qdd, f_ext, cache)
        assert _same(tau, ref) and got_flops == ref_flops
        _, fk_flops = _counted(forward_kinematics, model, state)
        assert fk_flops + read_flops == model.plan.fk_flops
        _, full_flops = _counted(rnea, model, state, qdd, f_ext)
        assert full_flops == model.plan.fk_flops + got_flops
