import math

import numpy as np
import pytest

from pvdyn import (ConstraintSet, Joint, Model, MotionConstraint, PvWorkspace, attach_anchors,
                   constraint_jacobian, forward_kinematics, generate_chain,
                   generate_humanoid_like, generate_tree, link_jacobian, neutral_state,
                   point_constraint, pv_osim, pv_solve, random_feasible_instance, random_state,
                   weld_constraint)
from pvdyn.bench import load_model
from pvdyn.errors import DimensionMismatch
from pvdyn.generators import standard_constraints


class TestJoint:
    def test_dimensions(self):
        assert (Joint.revolute([0, 0, 1]).nv, Joint.revolute([0, 0, 1]).nq) == (1, 1)
        assert (Joint.prismatic([1, 0, 0]).nv, Joint.prismatic([1, 0, 0]).nq) == (1, 1)
        assert (Joint.floating().nv, Joint.floating().nq) == (6, 7)
        assert (Joint.fixed().nv, Joint.fixed().nq) == (0, 0)

    def test_axis_normalized(self):
        j = Joint.revolute([0, 0, 2.0])
        assert abs(np.linalg.norm(j.axis) - 1.0) <= 1e-12

    def test_motion_subspace_orthonormal(self):
        for j in (Joint.revolute([0, 1, 0]), Joint.prismatic([1, 0, 0]),
                  Joint.floating()):
            s = j.motion_subspace()
            np.testing.assert_allclose(s.T @ s, np.eye(j.nv), atol=1e-12)


class TestChain:
    def test_pendulum(self):
        m = generate_chain(1)
        assert m.nv == 1 and m.depth == 1 and m.base_kind == "fixed"
        m.validate()

    def test_long_chain(self):
        m = generate_chain(100)
        assert m.nv == 100 and m.depth == 100

    def test_deterministic(self):
        a, b = generate_chain(5), generate_chain(5)
        np.testing.assert_array_equal(a.placement_trans, b.placement_trans)
        np.testing.assert_array_equal(a.inertia66, b.inertia66)

    def test_prismatic(self):
        m = generate_chain(4, "prismatic")
        assert all(j.kind == "prismatic" for j in m.joints[1:])
        m.validate()


class TestTree:
    def test_depth_bounded(self):
        m = generate_tree(63, 2, seed=5)
        assert m.nv == 63
        assert m.depth <= 8

    def test_seed_determinism(self):
        a = generate_tree(20, 3, seed=9)
        b = generate_tree(20, 3, seed=9)
        np.testing.assert_array_equal(a.parent, b.parent)
        np.testing.assert_array_equal(a.placement_trans, b.placement_trans)

    def test_floating_variant(self):
        m = generate_tree(10, 2, seed=1, base_kind="floating")
        assert m.base_kind == "floating"
        assert m.nv == 16
        m.validate()


class TestHumanoid:
    def test_dof_count(self):
        m = generate_humanoid_like()
        assert m.base_kind == "floating"
        assert m.nv == 38
        assert m.n_links == 33  # pelvis + 32 revolute links
        m.validate()

    def test_branch_structure(self):
        m = generate_humanoid_like()
        assert len(m.children[0]) == 3  # two legs and the spine
        assert m.depth == 11            # pelvis -> spine -> arm tip


class TestState:
    def test_neutral_quaternion_identity(self, humanoid):
        s = neutral_state(humanoid)
        np.testing.assert_array_equal(s.q[:4], [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(s.v, np.zeros(humanoid.nv))

    def test_random_quaternion_unit(self, humanoid):
        s = random_state(humanoid, 3)
        assert abs(np.linalg.norm(s.q[:4]) - 1.0) <= 1e-12

    def test_random_deterministic(self, humanoid):
        a = random_state(humanoid, 7)
        b = random_state(humanoid, 7)
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.v, b.v)

    def test_random_ranges(self, chain8):
        s = random_state(chain8, 11)
        assert np.all(np.abs(s.q) <= np.pi)
        assert np.all(np.abs(s.v) <= 1.0)


class TestConstraints:
    def test_offsets(self):
        cs = ConstraintSet([point_constraint(2, [0.1, 0, 0]),
                            MotionConstraint(1, np.eye(6), np.zeros(6))])
        assert cs.m == 9
        assert cs.offsets == (0, 3)
        np.testing.assert_array_equal(cs.rows(1), np.arange(3, 9))
        # the stacked rows match the constraints and are read-only
        for ci, con in enumerate(cs):
            np.testing.assert_array_equal(cs.K[cs.rows(ci)], con.K)
            np.testing.assert_array_equal(cs.stacked_targets()[cs.rows(ci)], con.a_star)
            assert (cs.row_con[cs.rows(ci)] == ci).all() and cs.links[ci] == con.link
        for rows in (cs.K, cs.row_con, cs.links, cs.stacked_targets(), cs.rows(0)):
            assert not rows.flags.writeable
        # new targets share every other row array
        new = cs.replace_targets(np.arange(9.0))
        assert new.K is cs.K and new.row_con is cs.row_con and new.links is cs.links
        np.testing.assert_array_equal(new.stacked_targets(), np.arange(9.0))
        np.testing.assert_array_equal(new.constraints[1].a_star, np.arange(3.0, 9.0))
        np.testing.assert_array_equal(cs.stacked_targets(), np.zeros(9))
        with pytest.raises(DimensionMismatch):
            cs.replace_targets(np.zeros(10))

    def test_new_targets_build_no_constraints_until_read(self):
        cs = ConstraintSet([point_constraint(2, [0.1, 0, 0], baumgarte=(1.0, 2.0)),
                            MotionConstraint(1, np.eye(6), np.zeros(6))])
        assert cs.layout == ((2, 3), (1, 6))
        new = cs.replace_targets(np.arange(9.0))
        assert new.layout is cs.layout and len(new) == 2
        model = generate_chain(3)
        ws = PvWorkspace(model, cs)
        assert PvWorkspace.ensure(model, new, ws) is ws
        assert "constraints" not in vars(new)
        # read, each carries its rows of the new targets and keeps the rest
        a, b = new.constraints
        np.testing.assert_array_equal(a.a_star, np.arange(3.0))
        assert a.baumgarte == (1.0, 2.0)
        np.testing.assert_array_equal(a.K, cs.K[:3])
        assert b.link == 1 and list(new)[1] is b
        np.testing.assert_array_equal(cs.constraints[1].a_star, np.zeros(6))

    def test_row_dim_validation(self):
        with pytest.raises(ValueError):
            MotionConstraint(0, np.zeros((7, 6)), np.zeros(7))
        with pytest.raises(ValueError):
            MotionConstraint(0, np.zeros((2, 5)), np.zeros(2))

    @pytest.mark.parametrize("link", [-1, -4, 1.0, 2.5, "1", None])
    def test_link_must_be_a_non_negative_integer(self, link):
        # a negative link would index from the end of the tree
        with pytest.raises(ValueError, match="non-negative integer"):
            point_constraint(link, [0.1, 0.0, 0.0])
        with pytest.raises(ValueError, match="non-negative integer"):
            MotionConstraint(link, np.eye(6), np.zeros(6))

    def test_numpy_integer_links_are_accepted(self):
        con = weld_constraint(np.int64(2))
        assert con.link == 2 and ConstraintSet([con]).layout == ((2, 6),)

    @pytest.mark.parametrize("past", [0, 1, 7])
    def test_links_past_the_tree_raise_dimension_mismatch(self, past):
        model = generate_chain(4)
        state = random_state(model, 0)
        link = model.n_links + past
        cs = ConstraintSet([weld_constraint(1), point_constraint(link, [0.1, 0.0, 0.0])])
        cache = forward_kinematics(model, state)
        for call in (lambda: PvWorkspace(model, cs),
                     lambda: pv_solve(model, state, np.zeros(model.nv), cs),
                     lambda: pv_osim(model, state, cs),
                     lambda: constraint_jacobian(model, cache, cs),
                     lambda: link_jacobian(model, cache, link),
                     lambda: attach_anchors(model, state, cs)):
            with pytest.raises(DimensionMismatch, match="link index"):
                call()

    def test_link_jacobian_refuses_a_negative_link(self):
        model = generate_chain(4)
        cache = forward_kinematics(model, random_state(model, 0))
        with pytest.raises(DimensionMismatch, match="link index"):
            link_jacobian(model, cache, -1)
        np.testing.assert_array_equal(link_jacobian(model, cache, model.n_links - 1),
                                      constraint_jacobian(model, cache, ConstraintSet(
                                          [weld_constraint(model.n_links - 1)])))

    @pytest.mark.parametrize("gains", [(math.nan, 0.0), (0.0, math.inf), (-1.0, 0.0)],
                             ids=["kp_nan", "kd_inf", "kp_negative"])
    def test_baumgarte_gains_validation(self, gains):
        with pytest.raises(ValueError, match="Baumgarte"):
            weld_constraint(1, baumgarte=gains)

    def test_empty(self):
        cs = ConstraintSet.empty()
        assert cs.m == 0 and len(cs) == 0

    @pytest.mark.parametrize("m", [-1, -4, -5])
    def test_standard_constraints_refuse_negative_m(self, m):
        with pytest.raises(ValueError, match="non-negative"):
            standard_constraints(generate_chain(8), m)


def test_model_validation_catches_bad_mass():
    m = generate_chain(2)
    from pvdyn import Model, SpatialInertia
    bad = Model(m.parent, m.joints, m.placement,
                (m.inertia[0], m.inertia[1],
                 SpatialInertia(-1.0, np.zeros(3), np.eye(3))))
    with pytest.raises(ValueError):
        bad.validate()


def test_ancestor_dofs(chain8):
    dofs = chain8.ancestor_dofs(5)
    np.testing.assert_array_equal(dofs, np.arange(5))


def test_depth_state_invariant(chain8):
    assert chain8.depth == 8
    # depth is structural; no state enters its computation
    assert generate_chain(8).depth == chain8.depth


def test_floating_joint_below_the_root_raises():
    m = generate_chain(2)
    with pytest.raises(ValueError, match="only allowed on link 0"):
        Model(m.parent, (m.joints[0], Joint.floating(), m.joints[2]), m.placement, m.inertia)


def reference_levels(plan, links):
    """The ``Level`` fields of the link subset `links`, built link by link:
    its plan positions by depth, each level's parents and the offsets and
    parents of its sibling runs, each index a slice where it runs by one."""
    def index(idx):
        return slice(idx[0], idx[-1] + 1) if idx == list(range(idx[0], idx[-1] + 1)) \
            else np.array(idx)
    by_depth: dict = {}
    for p in sorted(plan.position[np.asarray(links, dtype=int)].tolist()):
        by_depth.setdefault(int(plan.depth[p]), []).append(p)
    out = []
    for pos in by_depth.values():
        if pos == [0]:
            out.append((slice(0, 1), None, None, None, 1, 0, False))
            continue
        par = [int(plan.parent[p]) for p in pos]
        starts = [j for j in range(len(pos)) if j == 0 or par[j] != par[j - 1]]
        out.append((index(pos), index(par), np.array(starts), index([par[j] for j in starts]),
                    len(pos), sum(int(plan.fixed[p, 0, 0] == 0.0) for p in pos),
                    len(starts) == len(pos)))
    return out


def _same_field(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and a.shape == b.shape and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _level_cases():
    for spec in ("chain:64", "humanoid", "tree:128:3"):
        model = load_model(spec)
        yield spec, model, [standard_constraints(model, m) for m in (6, 12, 24)]
    for seed in range(50):
        model, _, _, cs = random_feasible_instance(seed)
        yield f"feasible{seed}", model, [cs]


@pytest.mark.parametrize("name, model, sets", list(_level_cases()),
                         ids=[name for name, _, _ in _level_cases()])
def test_levels_match_a_per_link_reference(name, model, sets):
    # field by field, for the whole tree and each plan's support and
    # off-support subsets
    plan = model.plan
    subsets = [(plan.sweep, range(model.n_links))]
    for cs in sets:
        row_plan = PvWorkspace(model, cs).plan
        subsets += [(row_plan.support_levels, plan.order[row_plan.support_pos]),
                    (row_plan.off_levels, plan.order[row_plan.off_pos])]
    fields = ("links", "parents", "starts", "heads", "size", "moving", "lone")
    for levels, links in subsets:
        want = reference_levels(plan, list(links))
        assert len(levels) == len(want)
        for lv, ref in zip(levels, want):
            for field, value in zip(fields, ref):
                assert _same_field(getattr(lv, field), value), (name, field)


def reference_dof_parents(model):
    """Each dof's parent (the previous dof of its joint, else the last dof
    of the nearest movable ancestor) and each link's last dof on its root
    path, link by link."""
    dof_parent, last = np.full(model.nv, -1), np.full(model.n_links, -1)
    for i, joint in enumerate(model.joints):
        prev = last[model.parent[i]] if i else -1
        for d in range(model.v_offset[i], model.v_offset[i] + joint.nv):
            dof_parent[d], prev = prev, d
        last[i] = prev
    return dof_parent, last


@pytest.mark.parametrize("name, model, sets", list(_level_cases()),
                         ids=[name for name, _, _ in _level_cases()])
def test_model_arrays_match_a_per_link_reference(name, model, sets):
    dof_parent, last = reference_dof_parents(model)
    assert model.dof_parent.tolist() == dof_parent.tolist()
    assert model._last_dof.tolist() == last.tolist()
    depth = [0] * model.n_links
    for i in range(1, model.n_links):
        depth[i] = depth[model.parent[i]] + 1
    assert model.link_depth.tolist() == depth and model.depth == max(depth)
    assert model.v_offset == tuple(np.cumsum([0] + [j.nv for j in model.joints])[:-1].tolist())
    assert model.q_offset == tuple(np.cumsum([0] + [j.nq for j in model.joints])[:-1].tolist())
    want = np.stack([inertia.to_matrix() for inertia in model.inertia])
    assert model.inertia66.tobytes() == want.tobytes()
