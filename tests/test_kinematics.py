import copy
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from pvdyn import (ConstraintSet, Joint, Model, PvWorkspace, State, aba, caba_osim,
                   constrained_aba, constraint_drift, constraint_jacobian, crba, flops,
                   forward_kinematics, generate_chain, generate_humanoid_like,
                   generate_tree, link_jacobian, neutral_state,
                   parse_urdf_subset, point_constraint, pv_early_solve, pv_osim, pv_osimr,
                   pv_soft_solve, pv_solve, random_state, rnea, weld_constraint)
from pvdyn.errors import CacheMismatch, DimensionMismatch
from pvdyn.generators import standard_constraints
from pvdyn.integrate import integrate_position
from pvdyn.kinematics import velocity_products
from pvdyn.checks import random_feasible_instance
from pvdyn.spatial import axis_angle_rotation, compose_rt, motion_matrix, skew


def cross_matrix(v):
    """6x6 matrix of v x (.) on motion vectors, [[w^, 0], [u^, w^]]; its
    negative transpose is v x* (.) on forces."""
    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = skew(v[:3])
    out[3:, :3] = skew(v[3:])
    return out


def per_link_fk(model, state):
    """Reference forward kinematics: one Python iteration per link, with
    every quantity by link index.  It charges the flops of
    ``forward_kinematics``, which leaves ``avp`` to ``constraint_drift``."""
    n = model.n_links
    rot = np.empty((n, 3, 3))
    trans = np.empty((n, 3))
    w_rot = np.empty((n, 3, 3))
    w_trans = np.empty((n, 3))
    v = np.zeros((n, 6))
    c = np.zeros((n, 6))
    avp = np.zeros((n, 6))
    vj = np.zeros((n, 6))
    work = 0
    for i in range(n):
        joint = model.joints[i]
        jr, jt = joint.transform(state.q[model.q_block(i)])
        rot[i], trans[i] = compose_rt(jr, jt, model.placement_rot[i],
                                      model.placement_trans[i])
        p = model.parent[i]
        if p < 0:
            w_rot[i], w_trans[i] = rot[i], trans[i]
        else:
            w_rot[i], w_trans[i] = compose_rt(rot[i], trans[i], w_rot[p], w_trans[p])
        if joint.nv:
            vj[i] = model.S[i] @ state.v[model.v_block(i)]
        if p >= 0:
            x = motion_matrix(rot[i], trans[i])
            v[i] = x @ v[p] + vj[i]
            c[i] = cross_matrix(v[i]) @ vj[i]
            avp[i] = x @ avp[p] + c[i]
        else:
            v[i] = vj[i]
        work += flops.AXIS_ANGLE + 2 * flops.COMPOSE + flops.XMOT \
            + flops.CROSS_M + 6 * joint.nv + flops.ADD6
    flops.add(work)
    return SimpleNamespace(rot=rot, trans=trans, w_rot=w_rot, w_trans=w_trans, v=v, c=c,
                           avp=avp)


def frames_from_rotations(model, state):
    """The motion transforms (plan order) and world rotations of
    ``forward_kinematics`` with no per-model constants: each revolute
    rotation from ``axis_angle_rotation`` and each transform from
    ``motion_matrix``, composed in the same order, so that the two agree
    bit for bit."""
    plan, q = model.plan, state.q
    rot, trans = model.placement_rot.copy(), model.placement_trans.copy()
    rev, pri = plan.revolute, plan.prismatic
    if rev.links.size:
        jr = axis_angle_rotation(rev.axis, q[rev.q])
        rot[rev.links] = np.swapaxes(jr, 1, 2) @ rot[rev.links]
    if pri.links.size:
        jt = pri.axis * q[pri.q][:, None]
        trans[pri.links] += (jt[:, None, :] @ rot[pri.links])[:, 0]
    for i in plan.floating:
        jr, jt = model.joints[i].transform(q[model.q_block(i)])
        rot[i], trans[i] = compose_rt(jr, jt, rot[i], trans[i])
    rot, trans = rot[plan.order], trans[plan.order]
    pose = np.zeros((model.n_links, 4, 4))
    pose[:, :3, :3] = np.swapaxes(rot, 1, 2)
    pose[:, :3, 3] = trans
    pose[:, 3, 3] = 1.0
    world = pose.copy()
    for lv in plan.sweep[1:]:
        world[lv.links] = world[lv.parents] @ pose[lv.links]
    return motion_matrix(rot, trans), np.swapaxes(world[plan.position, :3, :3], 1, 2)


# floating trunk; document order interleaves depths 0,1,2,1,3,4,2 and
# mixes revolute, prismatic and a fixed interior joint
MIXED_URDF = """<robot name="mixed">
  <link name="world"/>
{links}
  <joint name="root" type="floating">
    <parent link="world"/><child link="trunk"/>
  </joint>
  <joint name="ja" type="revolute">
    <parent link="trunk"/><child link="a"/>
    <origin xyz="0.1 0.2 0" rpy="0.3 0 0.1"/><axis xyz="0 0 1"/>
  </joint>
  <joint name="jb" type="prismatic">
    <parent link="a"/><child link="b"/>
    <origin xyz="0 0 -0.2" rpy="0 0.4 0"/><axis xyz="1 0 0"/>
  </joint>
  <joint name="jc" type="revolute">
    <parent link="trunk"/><child link="c"/>
    <origin xyz="-0.1 0 0.05" rpy="0 0 0"/><axis xyz="0 1 0"/>
  </joint>
  <joint name="jd" type="fixed">
    <parent link="b"/><child link="d"/>
    <origin xyz="0.05 0 -0.1" rpy="0.2 -0.1 0.5"/>
  </joint>
  <joint name="je" type="revolute">
    <parent link="d"/><child link="e"/>
    <origin xyz="0 0.1 0" rpy="0 0 0"/><axis xyz="0 1 1"/>
  </joint>
  <joint name="jf" type="revolute">
    <parent link="c"/><child link="f"/>
    <origin xyz="0 0 -0.3" rpy="0 0 0"/><axis xyz="1 0 0"/>
  </joint>
</robot>
""".format(links="\n".join(
    f'''  <link name="{name}"><inertial><origin xyz="0 0 -0.1"/><mass value="1.0"/>
    <inertia ixx="0.01" iyy="0.02" izz="0.03" ixy="0" ixz="0" iyz="0"/></inertial></link>'''
    for name in "trunk a b c d e f".split()))


def with_fixed_joint(model, link):
    """`model` with the joint of an interior link welded."""
    joints = list(model.joints)
    joints[link] = Joint.fixed()
    return Model(model.parent, joints, model.placement, model.inertia, model.gravity)


MODELS = {
    "chain1": lambda: generate_chain(1),
    "chain7": lambda: generate_chain(7),
    "chain64": lambda: generate_chain(64),
    "prismatic-chain": lambda: generate_chain(9, kind="prismatic"),
    "tree-fixed": lambda: generate_tree(40, 2, seed=3),
    "tree-floating": lambda: generate_tree(40, 2, seed=4, base_kind="floating"),
    "tree-128-3": lambda: generate_tree(128, 3, seed=0),
    "humanoid": generate_humanoid_like,
    "fixed-interior": lambda: with_fixed_joint(generate_tree(20, 2, seed=5), 3),
    "urdf-mixed": lambda: parse_urdf_subset(MIXED_URDF),
}


class TestForwardKinematics:
    def test_chain_positions_at_zero(self):
        model = generate_chain(2)
        cache = forward_kinematics(model, neutral_state(model))
        np.testing.assert_allclose(cache.w_trans[1], [0.5, 0, 0], atol=1e-14)
        np.testing.assert_allclose(cache.w_trans[2], [1.0, 0, 0], atol=1e-14)
        np.testing.assert_allclose(cache.v, np.zeros((3, 6)), atol=1e-14)

    def test_pendulum_rate(self, pendulum):
        state = State(np.zeros(1), np.ones(1))
        cache = forward_kinematics(pendulum, state)
        np.testing.assert_allclose(cache.v[1], [0, 0, 1, 0, 0, 0], atol=1e-14)

    def test_floating_rigid_transport(self):
        model = generate_tree(6, 2, seed=2, base_kind="floating")
        state = neutral_state(model)
        v = state.v.copy()
        v[3:6] = [1.0, 0.0, 0.0]
        cache = forward_kinematics(model, State(state.q, v))
        for i in range(model.n_links):
            expected = cache.w_rot[i] @ np.array([1.0, 0.0, 0.0])
            np.testing.assert_allclose(cache.v[i][3:], expected, atol=1e-12)
            np.testing.assert_allclose(cache.v[i][:3], np.zeros(3), atol=1e-12)

    def test_dimension_mismatch(self, chain8):
        with pytest.raises(DimensionMismatch):
            forward_kinematics(chain8, State(np.zeros(3), np.zeros(8)))


MOTION_FIELDS = ("w_rot", "w_trans", "v", "c")


class TestTwistsOnFirstRead:
    """The twists, world poses and c are built together on the first read
    of any of them, from what the cache holds, and never by the readers of
    the frames alone."""

    @pytest.mark.parametrize("reader", ["pv_osim", "pv_osimr", "caba_osim", "crba",
                                        "constraint_jacobian"])
    @pytest.mark.parametrize("name", ["humanoid", "tree-floating", "chain7"])
    def test_frame_readers_leave_them_unbuilt(self, name, reader):
        model = MODELS[name]()
        state = random_state(model, 2)
        cs = standard_constraints(model, min(6, model.nv - 1), seed=2)
        cache = forward_kinematics(model, state)
        {"pv_osim": lambda: pv_osim(model, state, cs, cache=cache),
         "pv_osimr": lambda: pv_osimr(model, state, cs, cache=cache),
         "caba_osim": lambda: caba_osim(model, state, cs, cache=cache),
         "crba": lambda: crba(model, state, cache=cache),
         "constraint_jacobian": lambda: constraint_jacobian(model, cache, cs)}[reader]()
        assert not set(MOTION_FIELDS) & vars(cache).keys()

    @pytest.mark.parametrize("first", MOTION_FIELDS)
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_same_bytes_whichever_is_read_first(self, name, first):
        model = MODELS[name]()
        state = random_state(model, 4)
        want = forward_kinematics(model, state)
        for field in reversed(MOTION_FIELDS):
            getattr(want, field)
        got = forward_kinematics(model, state)
        getattr(got, first)
        assert set(MOTION_FIELDS) <= vars(got).keys()
        for field in MOTION_FIELDS + ("xm", "xm_t"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
        # the per-link reference forms c = v x vj in another order, and the
        # rest with the same arithmetic
        ref = per_link_fk(model, state)
        for field in ("w_rot", "w_trans", "v"):
            assert getattr(got, field).tobytes() == getattr(ref, field).tobytes(), field

    @pytest.mark.parametrize("name", ["humanoid", "tree-floating", "prismatic-chain"])
    def test_a_later_change_to_the_state_reaches_no_field(self, name):
        model = MODELS[name]()
        state = random_state(model, 6)
        pristine = State(state.q.copy(), state.v.copy())
        cache = forward_kinematics(model, state)
        state.q[:] += 0.25
        state.v[:] *= -3.0
        want = forward_kinematics(model, pristine)
        for field in MOTION_FIELDS + ("xm", "xm_t"):
            assert getattr(cache, field).tobytes() == getattr(want, field).tobytes(), field

    def test_copies_of_an_unbuilt_cache(self):
        model = MODELS["humanoid"]()
        state = random_state(model, 8)
        cache = forward_kinematics(model, state)
        copies = (copy.copy(cache), copy.deepcopy(cache), pickle.loads(pickle.dumps(cache)))
        assert not hasattr(cache, "w_pose") and not set(MOTION_FIELDS) & vars(cache).keys()
        for other in copies:
            for field in MOTION_FIELDS:
                assert getattr(other, field).tobytes() == getattr(cache, field).tobytes()


# every entry point that takes cache=, as (model, state, tau, cs, cache) -> its answer
CACHE_ENTRY_POINTS = {
    "pv_solve": lambda *a: pv_solve(*a[:4], cache=a[4]).qdd,
    "pv_early_solve": lambda *a: pv_early_solve(*a[:4], cache=a[4]).qdd,
    "pv_soft_solve": lambda *a: pv_soft_solve(*a[:4], cache=a[4]).qdd,
    "constrained_aba": lambda *a: constrained_aba(*a[:4], cache=a[4]).qdd,
    "pv_osim": lambda m, s, t, cs, c: pv_osim(m, s, cs, cache=c).matrix,
    "pv_osimr": lambda m, s, t, cs, c: pv_osimr(m, s, cs, cache=c).matrix,
    "caba_osim": lambda m, s, t, cs, c: caba_osim(m, s, cs, cache=c).matrix,
    "rnea": lambda m, s, t, cs, c: rnea(m, s, t, cache=c),
    "crba": lambda m, s, t, cs, c: crba(m, s, cache=c).matrix,
    "aba": lambda m, s, t, cs, c: aba(m, s, t, cache=c),
}


class TestForeignCache:
    """A cache passed with another model than it was built from raises,
    though both trees have 30 links: with a weld on link 29, ``pv_osim``
    once returned a Delassus matrix 1.6 off (max abs) without a word."""

    @pytest.mark.parametrize("entry", sorted(CACHE_ENTRY_POINTS))
    def test_cache_of_another_model_raises(self, entry):
        model, other = generate_tree(30, 3, seed=1), generate_tree(30, 3, seed=2)
        state = random_state(model, 1)
        tau = np.random.default_rng(1).uniform(-1, 1, model.nv)
        cs = ConstraintSet([point_constraint(29, [0.1, 0.0, 0.0])])
        call = CACHE_ENTRY_POINTS[entry]
        with pytest.raises(CacheMismatch):
            call(model, state, tau, cs, forward_kinematics(other, state))
        # the model's own cache gives the answer of a call without one
        own = call(model, state, tau, cs, forward_kinematics(model, state))
        assert own.tobytes() == call(model, state, tau, cs, None).tobytes()


class TestLevelBatchedKinematics:
    """The level-batched pass against the per-link reference loop."""

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_link_loop(self, name, seed):
        model = MODELS[name]()
        state = random_state(model, seed)
        # construction charges the frames; the first read of any of the
        # twists and world poses charges the rest of fk_flops, later reads none
        with flops.counted() as fl_new:
            new = forward_kinematics(model, state)
            n_frames = fl_new()
            new.w_rot
            n_new = fl_new()
            new.v, new.c, new.w_trans, new.w_rot
            assert fl_new() == n_new
        with flops.counted() as fl_ref:
            ref = per_link_fk(model, state)
            n_ref = fl_ref()
        assert n_frames == model.n_links * (flops.AXIS_ANGLE + flops.COMPOSE)
        assert n_new == n_ref == model.plan.fk_flops
        # the plan-order frames and c by link, and the zero-gravity
        # acceleration that constraint_drift forms, read through welds
        n, pos = model.n_links, model.plan.position
        xm = motion_matrix(ref.rot, ref.trans)
        welds = ConstraintSet([weld_constraint(i) for i in range(n)])
        with flops.counted() as fl_drift:
            avp = constraint_drift(model, new, welds).reshape(n, 6)
            assert fl_drift() == n * (flops.XMOT + flops.ADD6) + flops.gemm(6 * n, 6, 1)
        pairs = {"w_rot": (new.w_rot, ref.w_rot), "w_trans": (new.w_trans, ref.w_trans),
                 "v": (new.v, ref.v), "xm": (new.xm[pos], xm),
                 "xm_t": (new.xm_t[pos], xm.swapaxes(1, 2)), "c": (new.c[pos, :, 0], ref.c),
                 "avp": (avp, ref.avp)}
        for field, (a, b) in pairs.items():
            assert a.shape == b.shape
            scale = max(1.0, float(np.abs(b).max()))
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-13 * scale, err_msg=field)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_levels_cover_each_link_once(self, name):
        # on the whole tree and on a workspace's support and off-support
        # subsets, whose levels are index arrays where links are not adjacent
        model = MODELS[name]()
        plan = model.plan
        np.testing.assert_array_equal(plan.order[plan.position], np.arange(model.n_links))
        m = min(6, model.nv - 1)
        ws = PvWorkspace(model, standard_constraints(model, m, seed=11) if m > 0
                         else ConstraintSet.empty())
        for levels, subset in ((plan.sweep, range(model.n_links)),
                               (ws.support_levels, ws.support),
                               (ws.off_levels, ws.off_support)):
            seen = np.zeros(model.n_links, dtype=int)
            depths = []
            for lv in levels:
                links = plan.order[lv.links]
                seen[links] += 1
                depths.append(model.link_depth[links[0]])
                assert np.all(model.link_depth[links] == depths[-1]) and len(links) == lv.size
                if lv.parents is None:
                    np.testing.assert_array_equal(links, [0])
                    continue
                np.testing.assert_array_equal(model.parent[links], plan.order[lv.parents])
                # each sibling run under its parent, each parent once
                heads = plan.order[lv.heads]
                runs = np.split(links, lv.starts[1:])
                assert lv.starts[0] == 0 and len(runs) == len(set(heads.tolist()))
                for run, head in zip(runs, heads):
                    np.testing.assert_array_equal(model.parent[run], head)
            assert depths == sorted(set(depths))
            np.testing.assert_array_equal(seen, np.isin(np.arange(model.n_links), subset))

    @pytest.mark.parametrize("case", [f"feasible{seed}" for seed in range(100)]
                             + ["humanoid", "prismatic-chain", "urdf-mixed"])
    def test_frames_match_rotations_bit_for_bit(self, case):
        # the revolute terms a a' and skew(a)' and the placements' -skew(p)
        # that the plan holds give the frames that axis_angle_rotation and
        # motion_matrix give, at floating bases and prismatic joints too
        if case.startswith("feasible"):
            model, state, _, _ = random_feasible_instance(int(case[8:]))
        else:
            model = MODELS[case]()
            state = random_state(model, 5)
        cache = forward_kinematics(model, state)
        xm, w_rot = frames_from_rotations(model, state)
        for got, want in ((cache.xm, xm), (cache.w_rot, w_rot)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["humanoid", "tree-128-3", "chain64"])
    def test_scatter_adds_one_link_runs_plainly(self, name):
        # the plain add is taken on exactly the levels whose sibling runs
        # are all one link, and it equals the sum over runs bit for bit, on
        # the whole tree and on a workspace's support and off-support levels
        model = MODELS[name]()
        plan = model.plan
        lone = [lv.lone for lv in plan.sweep[1:]]
        expected = {"humanoid": (11, 9), "tree-128-3": (5, 1), "chain64": (64, 64)}[name]
        assert (len(lone), sum(lone)) == expected
        if name == "tree-128-3":
            assert lone[-1]
        ws = PvWorkspace(model, standard_constraints(model, 6, seed=11))
        rng = np.random.default_rng(3)
        for levels in (plan.sweep, ws.support_levels, ws.off_levels):
            for lv in (lv for lv in levels if lv.parents is not None):
                assert lv.lone == (lv.starts.size == lv.size)
                buf = rng.standard_normal((model.n_links, 6, 6))
                push = rng.standard_normal((lv.size, 6, 6))
                want = buf.copy()
                want[lv.heads] += np.add.reduceat(push, lv.starts, axis=0)
                lv.scatter(buf, push)
                assert buf.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["chain7", "tree-floating", "humanoid", "urdf-mixed"])
    def test_velocity_products(self, name):
        model = MODELS[name]()
        state = random_state(model, 7)
        cache = forward_kinematics(model, state)
        ref = np.array([-cross_matrix(cache.v[i]).T @ model.inertia66[i] @ cache.v[i]
                        for i in range(model.n_links)])
        with flops.counted() as fl:
            out = velocity_products(model, cache)
            charged = fl()
        assert charged == model.n_links * (flops.CROSS_F + flops.APPLY_I)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13 * max(1.0, np.abs(ref).max()))


class TestLinkJacobian:
    @pytest.mark.parametrize("seed", range(5))
    def test_jacobian_times_velocity(self, seed):
        model = generate_tree(20, 2, seed=seed,
                              base_kind="floating" if seed % 2 else "fixed")
        state = random_state(model, seed)
        cache = forward_kinematics(model, state)
        for link in (model.n_links - 1, model.n_links // 2):
            jac = link_jacobian(model, cache, link)
            np.testing.assert_allclose(jac @ state.v, cache.v[link], atol=1e-12)

    def test_non_ancestor_columns_zero(self):
        model = generate_tree(15, 3, seed=4)
        state = random_state(model, 0)
        cache = forward_kinematics(model, state)
        link = model.n_links - 1
        jac = link_jacobian(model, cache, link)
        support = set(model.ancestor_dofs(link).tolist())
        for dof in range(model.nv):
            if dof not in support:
                np.testing.assert_array_equal(jac[:, dof], np.zeros(6))

    def test_pendulum_column_against_finite_difference(self, pendulum):
        state = State(np.array([0.3]), np.zeros(1))
        cache = forward_kinematics(pendulum, state)
        jac = link_jacobian(pendulum, cache, 1)
        eps = 1e-6
        vel = np.ones(1)
        cp = forward_kinematics(pendulum, State(state.q + eps, vel))
        cm = forward_kinematics(pendulum, State(state.q - eps, vel))
        # world-frame positions differentiated, rotated into the link frame
        dpos_world = (cp.w_trans[1] - cm.w_trans[1]) / (2 * eps)
        np.testing.assert_allclose(jac[3:, 0], cache.w_rot[1] @ dpos_world,
                                   atol=1e-6)
        np.testing.assert_allclose(jac[:3, 0], [0, 0, 1], atol=1e-12)


class TestConstraintJacobian:
    def test_identity_selector_matches_link_jacobian(self, chain8):
        state = random_state(chain8, 3)
        cache = forward_kinematics(chain8, state)
        cs = ConstraintSet([weld_constraint(8)])
        np.testing.assert_allclose(constraint_jacobian(chain8, cache, cs),
                                   link_jacobian(chain8, cache, 8), atol=1e-14)

    def test_empty_set(self, chain8):
        cache = forward_kinematics(chain8, neutral_state(chain8))
        jac = constraint_jacobian(chain8, cache, ConstraintSet.empty())
        assert jac.shape == (0, 8)

    def test_offsets_respected(self, chain8):
        state = random_state(chain8, 5)
        cache = forward_kinematics(chain8, state)
        c1 = point_constraint(4, [0.1, 0, 0])
        c2 = weld_constraint(8)
        cs = ConstraintSet([c1, c2])
        jac = constraint_jacobian(chain8, cache, cs)
        np.testing.assert_allclose(jac[:3], c1.K @ link_jacobian(chain8, cache, 4))
        np.testing.assert_allclose(jac[3:], link_jacobian(chain8, cache, 8))


class TestConstraintDrift:
    def test_zero_velocity_zero_drift(self, chain8):
        cache = forward_kinematics(chain8, neutral_state(chain8))
        cs = ConstraintSet([point_constraint(8, [0.5, 0, 0])])
        np.testing.assert_array_equal(constraint_drift(chain8, cache, cs),
                                      np.zeros(3))

    def test_gravity_invariance(self, chain8):
        state = random_state(chain8, 9)
        cs = ConstraintSet([weld_constraint(6)])
        g1 = constraint_drift(chain8, forward_kinematics(chain8, state), cs)
        other = chain8.with_gravity([5.0, -2.0, 1.0])
        g2 = constraint_drift(other, forward_kinematics(other, state), cs)
        np.testing.assert_array_equal(g1, g2)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_difference_of_jv(self, seed):
        # oracle: d/dt(J v) - J qdd evaluated by central differences
        model = generate_tree(16, 2, seed=seed,
                              base_kind="floating" if seed % 2 else "fixed")
        state = random_state(model, seed + 10)
        cache = forward_kinematics(model, state)
        cs = ConstraintSet([point_constraint(model.n_links - 1, [0.1, 0.05, 0]),
                            weld_constraint(model.n_links // 2)])
        jac = constraint_jacobian(model, cache, cs)
        gamma = constraint_drift(model, cache, cs)
        qdd = np.random.default_rng(seed).uniform(-1, 1, model.nv)
        eps = 1e-6

        def stacked_jv(sign):
            q = integrate_position(model, state.q, state.v, sign * eps)
            v = state.v + sign * eps * qdd
            c = forward_kinematics(model, State(q, v))
            return np.concatenate([con.K @ c.v[con.link] for con in cs])

        fd = (stacked_jv(+1) - stacked_jv(-1)) / (2 * eps)
        np.testing.assert_allclose(fd, jac @ qdd + gamma, atol=1e-5)

    def test_spinning_pendulum_drift_matches_fd(self, pendulum):
        # the local-frame point-velocity is constant for a single revolute
        # joint, so the finite-difference oracle gives zero drift here
        state = State(np.zeros(1), np.ones(1))
        cache = forward_kinematics(pendulum, state)
        cs = ConstraintSet([point_constraint(1, [0.5, 0, 0])])
        gamma = constraint_drift(pendulum, cache, cs)
        eps = 1e-6

        def stacked_jv(sign):
            c = forward_kinematics(pendulum, State(state.q + sign * eps, state.v))
            return cs.constraints[0].K @ c.v[1]

        fd = (stacked_jv(+1) - stacked_jv(-1)) / (2 * eps)
        np.testing.assert_allclose(gamma, fd, atol=1e-8)
        np.testing.assert_allclose(gamma, np.zeros(3), atol=1e-12)
