import math

import numpy as np
import pytest

from pvdyn import (ConstraintSet, MotionConstraint, PvWorkspace,
                   SolverSettings, aba, bias_force, caba_osim, crba,
                   constraint_drift, constraint_jacobian, delassus_apply,
                   delassus_factor_solve, dense_delassus, flops,
                   forward_kinematics, generate_chain, generate_tree,
                   kkt_oracle, pv_osim, pv_osimr, pv_solve,
                   random_feasible_instance, random_singular_instance,
                   State, random_state, weld_constraint, point_constraint)
from pvdyn import delassus
from pvdyn.constrained import _carried_rows
from pvdyn.delassus import DelassusOperator
from pvdyn.errors import DimensionMismatch, NonFiniteInput, NotPositiveDefinite
from test_constrained import with_fixed_joints


class TestPvOsim:
    def test_empty(self, chain8):
        op = pv_osim(chain8, random_state(chain8, 0), ConstraintSet.empty())
        assert op.matrix.shape == (0, 0)

    def test_single_row_scalar(self, chain8):
        state = random_state(chain8, 1)
        row = np.random.default_rng(1).standard_normal(6)
        row /= np.linalg.norm(row)
        cs = ConstraintSet([MotionConstraint(8, row.reshape(1, 6), np.zeros(1))])
        op = pv_osim(chain8, state, cs)
        ref = dense_delassus(chain8, state, cs)
        np.testing.assert_allclose(op.matrix, ref, atol=1e-10 * (1 + abs(ref[0, 0])))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense(self, seed):
        model, state, _, cs = random_feasible_instance(seed + 300)
        op = pv_osim(model, state, cs)
        ref = dense_delassus(model, state, cs)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(op.matrix - ref).max() <= 1e-8 * scale

    def test_humanoid_with_12_rows(self, humanoid):
        state = random_state(humanoid, 2)
        cs = ConstraintSet([weld_constraint(6), weld_constraint(12)])
        assert cs.m == 12
        op = pv_osim(humanoid, state, cs)
        ref = dense_delassus(humanoid, state, cs)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(op.matrix - ref).max() <= 1e-8 * scale

    def test_symmetric_psd(self, humanoid):
        state = random_state(humanoid, 3)
        cs = ConstraintSet([weld_constraint(18), point_constraint(24, [0.05, 0, 0])])
        lam = pv_osim(humanoid, state, cs).matrix
        np.testing.assert_allclose(lam, lam.T, atol=1e-10)
        assert np.linalg.eigvalsh(lam).min() >= -1e-10 * np.abs(lam).max()


def _graded_osimr(model, cs, seed=0):
    """pv_osimr against pv_osim at 1e-10 and against the dense oracle;
    returns the workspace and the capped carried rows for shape checks."""
    state = random_state(model, seed)
    ws = PvWorkspace(model, cs)
    got = pv_osimr(model, state, cs, ws).matrix
    ref = pv_osim(model, state, cs).matrix
    dense = dense_delassus(model, state, cs)
    assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())
    assert np.abs(got - dense).max() <= 1e-8 * max(1.0, np.abs(dense).max())
    return ws, _carried_rows(model, ws.layout, 6)


def _branching_tree(base_kind="fixed"):
    """A complete binary tree of depth 3 and a link at depth 1 with both
    of its children's subtrees."""
    model = generate_tree(14, 2, seed=6, base_kind=base_kind)
    junction = model.children[0][0]
    return model, junction


class TestPvOsimr:
    @pytest.mark.parametrize("seed", range(10))
    def test_identical_to_pv_osim(self, seed):
        model, state, _, cs = random_feasible_instance(seed + 900)
        a = pv_osim(model, state, cs).matrix
        b = pv_osimr(model, state, cs).matrix
        scale = max(1.0, np.abs(a).max())
        assert np.abs(a - b).max() <= 1e-10 * scale

    def test_two_constraints_same_link(self, chain8):
        state = random_state(chain8, 4)
        cs = ConstraintSet([point_constraint(8, [0.1, 0, 0]),
                            point_constraint(8, [-0.1, 0.2, 0])])
        lam = pv_osimr(chain8, state, cs).matrix
        np.testing.assert_allclose(lam[:3, 3:], lam[3:, :3].T, atol=1e-12)
        ref = dense_delassus(chain8, state, cs)
        np.testing.assert_allclose(lam, ref, atol=1e-8 * max(1.0, np.abs(ref).max()))

    def test_cheaper_than_pv_osim_on_deep_chain(self):
        # two welds share a long path: the coupling sweep propagates 12 rows
        # through every joint while the propagator variant moves one 6x6
        model = generate_chain(256)
        state = random_state(model, 5)
        cs = ConstraintSet([weld_constraint(256), weld_constraint(128)])
        with flops.counted() as c1:
            pv_osim(model, state, cs)
        cost_osim = c1()
        with flops.counted() as c2:
            pv_osimr(model, state, cs)
        cost_osimr = c2()
        assert cost_osimr < cost_osim

    def test_floating_base(self):
        model = generate_tree(12, 2, seed=6, base_kind="floating")
        state = random_state(model, 6)
        cs = ConstraintSet([weld_constraint(model.n_links - 1),
                            point_constraint(0, [0.1, 0, 0])])
        a = pv_osimr(model, state, cs).matrix
        ref = dense_delassus(model, state, cs)
        assert np.abs(a - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())

    def test_two_welds_on_one_link(self, chain8):
        k = np.random.default_rng(3).standard_normal((6, 6))
        cs = ConstraintSet([weld_constraint(8), MotionConstraint(8, k, np.zeros(6))])
        ws, (rows, swaps) = _graded_osimr(chain8, cs)
        # compressed at its own link, so only 6 rows climb the chain
        assert [r.tolist() for r, _ in swaps] == [list(range(12))]
        assert rows[8].tolist() == list(range(12, 18))

    def test_junction_receives_more_than_six_rows(self):
        model, junction = _branching_tree()
        a, b = model.children[junction]
        cs = ConstraintSet([weld_constraint(a), weld_constraint(b)])
        ws, (rows, swaps) = _graded_osimr(model, cs)
        assert rows[a].size == rows[b].size == 6
        assert [r.tolist() for r, _ in swaps] == [list(range(12))]
        assert rows[junction].tolist() == list(range(12, 18))

    def test_nested_compression(self):
        model, junction = _branching_tree()
        a, b = model.children[junction]
        a1, a2 = model.children[a]
        cs = ConstraintSet([weld_constraint(a1), point_constraint(a2, [0.1, 0, 0]),
                            weld_constraint(b), point_constraint(junction, [0, 0.1, 0])])
        ws, (rows, swaps) = _graded_osimr(model, cs)
        # link a replaces 9 rows by 6, which the junction replaces again
        # with b's 6 and its own 3
        (r_a, v_a), (r_j, v_j) = swaps
        assert r_a.size == 9 and set(v_a) <= set(r_j) and r_j.size == 15
        assert rows[junction].tolist() == v_j.tolist()
        assert len(ws.compressed.swaps) == 2

    def test_floating_base_takes_more_than_six_rows(self):
        model, junction = _branching_tree("floating")
        other = model.children[0][1]
        cs = ConstraintSet([weld_constraint(junction), weld_constraint(other),
                            point_constraint(model.children[other][0], [0.1, 0, 0])])
        ws, (rows, swaps) = _graded_osimr(model, cs)
        assert rows[0].size > 6 and len(swaps) == 1

    def test_compressed_link_on_a_fixed_root_path(self):
        # links 1-4 are welded to the fixed base, so the rows compressed at
        # link 4 couple nothing above it (L[V, V] = 0) and the weld there
        # has an exactly zero Delassus block
        model = with_fixed_joints(generate_chain(8), [1, 2, 3, 4])
        cs = ConstraintSet([point_constraint(8, [0.1, 0, 0]),
                            point_constraint(7, [0, 0.1, 0]), weld_constraint(4)])
        ws, (rows, swaps) = _graded_osimr(model, cs)
        assert [r.size for r, _ in swaps] == [12]
        lam = pv_osimr(model, random_state(model, 0), cs, ws).matrix
        assert not lam[6:].any() and lam[:6, :6].any()

    def test_constraint_on_link_0(self):
        model, junction = _branching_tree("floating")
        a, b = model.children[junction]
        cs = ConstraintSet([point_constraint(0, [0.1, 0, 0]), weld_constraint(a),
                            weld_constraint(b)])
        ws, (rows, swaps) = _graded_osimr(model, cs)
        assert len(swaps) == 1 and rows[0].size == 9

    def test_no_level_step_carries_more_than_six_rows_per_link(self, monkeypatch):
        # exactly 6 rows stay as they are; 7 are compressed
        model = generate_chain(8)
        one_row = MotionConstraint(7, np.ones((1, 6)), np.zeros(1))
        six = ConstraintSet([weld_constraint(8)])
        seven = ConstraintSet([weld_constraint(8), one_row])
        assert PvWorkspace(model, six).compressed.L.shape == (6, 6)
        assert PvWorkspace(model, seven).compressed.L.shape == (13, 13)
        seen = []
        coupling_pass = delassus._coupling_pass

        def spy(model, cache, ws, levels, lay, with_l=True):
            levels = list(levels)
            for k in levels if lay is ws.compressed else ():
                lr = lay.coupling[k]
                if lr is not None and model.plan.sweep[k].parents is not None:
                    seen.append(np.unique(lr.off, return_counts=True)[1].max())
            coupling_pass(model, cache, ws, levels, lay, with_l)

        monkeypatch.setattr(delassus, "_coupling_pass", spy)
        tree, junction = _branching_tree("floating")
        a, b = tree.children[junction]
        cases = [(model, seven), (tree, ConstraintSet([weld_constraint(a), weld_constraint(b),
                                                       weld_constraint(junction)]))]
        cases += [random_feasible_instance(seed + 900)[::3] for seed in range(10)]
        for mdl, cs in cases:
            _graded_osimr(mdl, cs)
        assert seen and max(seen) == 6


class TestProducersCheckTheState:
    @pytest.mark.parametrize("producer", [pv_osim, pv_osimr, caba_osim],
                             ids=["pv_osim", "pv_osimr", "caba_osim"])
    def test_wrong_state_with_a_cache(self, chain8, producer):
        state = random_state(chain8, 3)
        cache = forward_kinematics(chain8, state)
        bad = State(state.q[:-1], state.v)
        with pytest.raises(DimensionMismatch):
            producer(chain8, bad, ConstraintSet([weld_constraint(8)]), cache=cache)


class TestCabaOsim:
    def test_single_row_closed_form(self, chain8):
        state = random_state(chain8, 7)
        row = np.random.default_rng(7).standard_normal(6)
        row /= np.linalg.norm(row)
        cs = ConstraintSet([MotionConstraint(8, row.reshape(1, 6), np.zeros(1))])
        mu = 1e-4
        op = caba_osim(chain8, state, cs, SolverSettings(mu=mu))
        lam = dense_delassus(chain8, state, cs)[0, 0]
        np.testing.assert_allclose(op.matrix, [[1.0 / (lam + mu)]], rtol=1e-10)

    def test_dominant_damping_limit(self, chain8):
        # first-order expansion: X = I/mu - Lambda/mu^2 + O(mu^-3), so the
        # deviation from I/mu is bounded by |Lambda|/mu^2
        state = random_state(chain8, 8)
        cs = ConstraintSet([weld_constraint(8)])
        mu = 1e3
        op = caba_osim(chain8, state, cs, SolverSettings(mu=mu))
        lam_norm = np.linalg.norm(dense_delassus(chain8, state, cs), 2)
        dev = np.linalg.norm(op.matrix - np.eye(6) / mu, 2)
        assert dev <= 1.01 * lam_norm / mu ** 2
        assert dev * mu <= 1e-2   # relative deviation shrinks as 1/mu

    @pytest.mark.parametrize("mu", [1e-8, 1e-4, 1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_grading_identity(self, mu, seed):
        model, state, _, cs = random_feasible_instance(seed + 1500)
        op = caba_osim(model, state, cs, SolverSettings(mu=mu))
        ref = dense_delassus(model, state, cs)
        ident = op.matrix @ (ref + mu * np.eye(cs.m))
        assert np.abs(ident - np.eye(cs.m)).max() <= 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_deficient_rows_still_graded(self, seed):
        model, state, _, cs = random_singular_instance(seed + 31)
        mu = 1e-4
        op = caba_osim(model, state, cs, SolverSettings(mu=mu))
        assert np.all(np.isfinite(op.matrix))
        ref = np.linalg.inv(dense_delassus(model, state, cs) + mu * np.eye(cs.m))
        assert np.abs(op.matrix - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())


class TestApplySolve:
    def test_explicit_roundtrip(self, chain8):
        state = random_state(chain8, 9)
        cs = ConstraintSet([weld_constraint(8)])
        op = pv_osim(chain8, state, cs)
        x = np.random.default_rng(9).uniform(-1, 1, 6)
        np.testing.assert_allclose(delassus_factor_solve(op, op.matrix @ x), x,
                                   atol=1e-9 * (1 + np.abs(x).max()))

    def test_damped_is_plain_multiply(self):
        x_mat = np.array([[2.0, 0.5], [0.5, 1.0]])
        op = DelassusOperator("damped_inverse", x_mat, mu=0.1)
        rhs = np.array([1.0, -2.0])
        np.testing.assert_array_equal(delassus_apply(op, rhs), x_mat @ rhs)

    @pytest.mark.parametrize("rhs", [1.0, np.ones(3), np.ones((3, 2))],
                             ids=["scalar", "short", "short_block"])
    def test_rhs_of_wrong_shape_is_value_error(self, rhs):
        op = DelassusOperator("damped_inverse", np.eye(2), mu=0.1)
        with pytest.raises(ValueError):
            delassus_apply(op, rhs)

    @pytest.mark.parametrize("kind", ["explicit", "damped_inverse"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_rhs_raises(self, kind, bad):
        op = DelassusOperator(kind, np.eye(2), mu=0.1)
        with pytest.raises(NonFiniteInput, match="rhs"):
            delassus_apply(op, np.array([1.0, bad]))

    def test_factor_cached(self, chain8):
        state = random_state(chain8, 10)
        cs = ConstraintSet([weld_constraint(8)])
        op = pv_osim(chain8, state, cs)
        delassus_apply(op, np.ones(6))
        assert op.factorizations == 1
        delassus_apply(op, np.zeros(6))
        delassus_factor_solve(op, np.ones(6))
        assert op.factorizations == 1

    def test_singular_explicit_raises(self):
        op = DelassusOperator("explicit", np.zeros((2, 2)))
        with pytest.raises(NotPositiveDefinite):
            delassus_factor_solve(op, np.ones(2))


class TestSolverConsistency:
    @pytest.mark.parametrize("seed", range(5))
    def test_multipliers_via_operator_match_pv(self, seed):
        # lam from the one-shot solver equals the operator solve applied to
        # the constraint-space right-hand side of the free dynamics
        model, state, tau, cs = random_feasible_instance(seed + 2200)
        sol = pv_solve(model, state, tau, cs)
        cache = forward_kinematics(model, state)
        jac = constraint_jacobian(model, cache, cs)
        gamma = constraint_drift(model, cache, cs)
        qdd_free = aba(model, state, tau)
        rhs = cs.stacked_targets() - gamma - jac @ qdd_free
        op = pv_osim(model, state, cs)
        lam = delassus_factor_solve(op, rhs)
        assert np.linalg.norm(lam - sol.lam) <= 1e-6 * (1 + np.linalg.norm(sol.lam))


class TestPassedCache:
    """A producer given the kinematics cache skips only its own FK pass."""

    @pytest.mark.parametrize("producer", ["pv_osim", "pv_osimr", "caba_osim"])
    @pytest.mark.parametrize("base_kind", ["fixed", "floating"])
    def test_same_matrix_for_one_fk_pass_less(self, producer, base_kind):
        model = generate_tree(30, 3, seed=21, base_kind=base_kind)
        state = random_state(model, 21)
        cs = ConstraintSet([point_constraint(model.n_links - 1, [0.1, 0.0, 0.0]),
                            weld_constraint(model.n_links - 5)])
        call = {
            "pv_osim": lambda **kw: pv_osim(model, state, cs, **kw).matrix,
            "pv_osimr": lambda **kw: pv_osimr(model, state, cs, **kw).matrix,
            "caba_osim": lambda **kw: caba_osim(model, state, cs, **kw).matrix,
        }[producer]
        cache = forward_kinematics(model, state)
        with flops.counted() as own:
            expected = call()
            own_flops = own()
        with flops.counted() as given:
            got = call(cache=cache)
            given_flops = given()
        np.testing.assert_array_equal(got, expected)
        assert own_flops - given_flops == model.plan.fk_flops
