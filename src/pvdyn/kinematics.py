"""Forward kinematics, frame Jacobians, and constraint drift terms.

Everything is expressed in link-local frames.  The cache produced here
is the shared front end of all dynamics sweeps: joint transforms,
world transforms, link twists and velocity-product accelerations.

The pass is batched over the tree's depth levels.  The link-local terms
(joint transforms, composition with the placements, joint twists, 6x6
motion transforms) run as whole-tree array operations on terms the plan
holds once per model: a a' and skew(a)' of the revolute axes a, and
-skew(p) of the placement translations p where p does not move with q.
The recursion then runs one array step per depth level, since links at
the same depth do not depend on each other: world poses and twists, then
``c`` for the whole tree at once.  The schedule is the model's
``LevelPlan``; the cache holds poses and twists by link index, and the
frames and ``c`` in plan order for the articulated sweeps.  The
arithmetic and its flop charge are those of the per-link recursion; only
the Python overhead changes, from per link to per level.
``velocity_products`` does the same for the bias forces ``v x* (I v)``
that every sweep starts from, and ``constraint_drift`` for the
zero-gravity acceleration at qdd = 0 that the oracles' drift reads.

``forward_kinematics`` builds only the frames ``xm``/``xm_t``, all that
the Delassus producers, ``crba`` and the Jacobians read; the cache builds
the rest on first read.  Solvers take an optional cache, so one pass can
serve a caller and the solver it calls.
"""

from __future__ import annotations

import numpy as np

from . import flops
from .errors import CacheMismatch
from .model import ConstraintSet, Model, State, check_state
from .spatial import compose_rt, cross_rows, skew

# v x m and v x* f on rows of 6-vectors as three 3-vector cross products each:
# w, w and v_lin of v with m_ang, m_lin, m_ang of a motion or f_ang, f_lin, f_lin of a force
_TWIST, _MOTION, _FORCE = np.arange(6).reshape(2, 3)[[[0, 0, 1], [0, 1, 0], [0, 1, 1]]]


class KinematicsCache:
    """Kinematic quantities for one (q, v): world poses and twists by link
    index, and the joint frames and ``c`` in plan order (``Model.plan``)
    for the level sweeps, vectors as (n,6,1) columns: ``xm @ v`` takes
    parent motion vectors into the links' frames and ``xm_t @ f`` pushes
    link forces into their parents'.  ``w_rot``, ``w_trans``, ``v`` and
    ``c`` are built together on the first read of any of them, charging the
    rest of ``LevelPlan.fk_flops``, and are plain attributes from then on.
    The cache owns a copy of v, so it stays a pure function of (model,
    state); ``model`` is the model it was built from."""

    xm: np.ndarray         # (n,6,6) parent-to-link motion transforms, plan order
    xm_t: np.ndarray       # (n,6,6) their transposes
    w_rot: np.ndarray      # (n,3,3) world-to-link rotations
    w_trans: np.ndarray    # (n,3)   world-to-link translations
    v: np.ndarray          # (n,6)   link twists, link frame
    c: np.ndarray          # (n,6,1) velocity-product accelerations, plan order

    def __init__(self, model: Model, qd: np.ndarray, rot_l, trans_l, xm: np.ndarray):
        self.model, self.xm, self.xm_t = model, xm, xm.swapaxes(1, 2)
        self._motion_terms = qd, rot_l, trans_l

    def __getattr__(self, name):
        if name not in ("w_rot", "w_trans", "v", "c"):
            raise AttributeError(name)
        (qd, rot_l, trans_l), model, xm = self._motion_terms, self.model, self.xm
        plan, n = model.plan, model.n_links
        vj, rev, pri = np.zeros((n, 6)), plan.revolute, plan.prismatic
        if rev.links.size:
            vj[rev.links, :3] = rev.axis * qd[rev.v][:, None]
        if pri.links.size:
            vj[pri.links, 3:] = pri.axis * qd[pri.v][:, None]
        for i in plan.floating:
            vj[i] = qd[model.v_block(i)]
        vj_l = vj[plan.order, :, None]
        # 4x4 link-to-world poses [[w_rot', w_trans], [0, 1]]; roots keep their own, and v = vj
        pose = np.zeros((n, 4, 4))
        pose[:, :3, :3] = np.swapaxes(rot_l, 1, 2)
        pose[:, :3, 3] = trans_l
        pose[:, 3, 3] = 1.0
        world, v = pose.copy(), vj_l.copy()
        for lv in plan.sweep[1:]:
            world[lv.links] = world[lv.parents] @ pose[lv.links]
            v[lv.links] = xm[lv.links] @ v[lv.parents] + vj_l[lv.links]
        # c = v x vj; exactly zero at a root, where v = vj
        c = cross_rows(v[:, _TWIST, 0], vj_l[:, _MOTION, 0])
        c[:, 1] += c[:, 2]
        world = world[plan.position]
        self.w_rot = np.swapaxes(world[:, :3, :3], 1, 2).copy()
        self.w_trans = world[:, :3, 3].copy()
        self.v, self.c = v[plan.position, :, 0], c[:, :2].reshape(n, 6, 1)
        flops.add(plan.fk_flops - n * (flops.AXIS_ANGLE + flops.COMPOSE))
        return self.__dict__[name]


def forward_kinematics(model: Model, state: State) -> KinematicsCache:
    """The joint frames of q, one array step per joint group; the twists
    and world poses follow on first read (``KinematicsCache``)."""
    check_state(model, state)
    plan, q, n = model.plan, state.q, model.n_links
    # joint transforms composed with the placements, for all links at once
    rot, trans = model.placement_rot.copy(), model.placement_trans.copy()
    rev, pri = plan.revolute, plan.prismatic
    if rev.links.size:
        # the joints' rotations R' = c I + s skew(a)' + (1 - c) a a'
        angle = q[rev.q]
        cos, sin = np.cos(angle), np.sin(angle)
        jr = (1.0 - cos)[:, None, None] * rev.outer + sin[:, None, None] * rev.skew_t
        jr.reshape(-1, 9)[:, ::4] += cos[:, None]
        rot[rev.links] = jr @ rot[rev.links]
    if pri.links.size:
        jt = pri.axis * q[pri.q][:, None]
        trans[pri.links] += (jt[:, None, :] @ rot[pri.links])[:, 0]
    for i in plan.floating:
        jr, jt = model.joints[i].transform(q[model.q_block(i)])
        rot[i], trans[i] = compose_rt(jr, jt, rot[i], trans[i])
    # 6x6 motion transforms in level order, where each level is a slice
    order = plan.order
    rot_l, trans_l = rot[order], trans[order]
    xm = np.zeros((n, 6, 6))
    xm[:, :3, :3] = xm[:, 3:, 3:] = rot_l
    xm[:, 3:, :3] = rot_l @ plan.neg_skew
    if plan.moved.size:         # links whose p moves with q
        xm[plan.moved, 3:, :3] = rot_l[plan.moved] @ -skew(trans_l[plan.moved])
    flops.add(n * (flops.AXIS_ANGLE + flops.COMPOSE))
    return KinematicsCache(model, state.v.copy(), rot_l, trans_l, xm)


def kinematics_of(model: Model, state: State, cache: KinematicsCache | None) -> KinematicsCache:
    """`cache`, which must come from `model` (the state is checked), or
    forward kinematics of `state`; every ``cache=`` entry point calls this."""
    if cache is None:
        return forward_kinematics(model, state)
    if cache.model is not model:
        raise CacheMismatch("kinematics cache was built from another model")
    check_state(model, state)
    return cache


def velocity_products(model: Model, cache: KinematicsCache) -> np.ndarray:
    """Velocity-product force ``v x* (I v)`` of every link, as an (n, 6) array."""
    v, n = cache.v, model.n_links
    h = (model.inertia66 @ v[:, :, None])[:, :, 0]
    out = cross_rows(v[:, _TWIST], h[:, _FORCE])
    out[:, 0] += out[:, 2]
    flops.add(n * (flops.CROSS_F + flops.APPLY_I))
    return out[:, :2].reshape(n, 6)


def _jacobians(model: Model, cache: KinematicsCache, links) -> np.ndarray:
    """Local-frame geometric Jacobians of `links` as a (links, 6, nv) array.
    Each link's transform from an ancestor's frame is composed one parent
    per hop, all links at once (``Model.jacobian_walk``), and maps the
    ancestor's joint columns into the link's frame."""
    walk, s0, nv = model.jacobian_walk(links), model.S[0], model.nv
    jac = np.zeros((walk.cols.size, 6, nv + 1))    # column nv takes the fixed joints
    x = np.broadcast_to(np.eye(6), (walk.cols.size, 6, 6))
    at_root = x.copy()                             # each link's transform from the root
    for hop in walk.hops:
        rows, dof = hop.at
        jac[rows, :, dof] = (x[:hop.k] @ model.plan.S[hop.src])[:, :, 0]
        x = x[:hop.k] @ cache.xm[hop.src]
        at_root[hop.below:hop.k] = x[hop.below:]
    jac[walk.cols, :, :s0.shape[1]] = at_root @ s0
    flops.add(walk.flops)
    return jac[:, :, :nv]


def link_jacobian(model: Model, cache: KinematicsCache, link: int) -> np.ndarray:
    """Local-frame geometric Jacobian of a link: J v = link twist."""
    return _jacobians(model, cache, [link])[0]


def constraint_jacobian(model: Model, cache: KinematicsCache,
                        cs: ConstraintSet) -> np.ndarray:
    """Stacked m x n Jacobian of a constraint set (dense, oracle-facing)."""
    jac = _jacobians(model, cache, cs.links)[cs.row_con]
    flops.add(flops.gemm(cs.m, 6, model.nv))
    return np.einsum("ij,ijk->ik", cs.K, jac)


def constraint_drift(model: Model, cache: KinematicsCache,
                     cs: ConstraintSet) -> np.ndarray:
    """Acceleration-level drift: the constraint reads J qdd = a_star - drift.

    Equals each constrained link's zero-gravity, zero-qdd spatial
    acceleration projected through its constraint rows; independent of
    the gravity setting by construction.
    """
    plan = model.plan
    avp = np.zeros((model.n_links, 6, 1))
    for lv in plan.sweep[1:]:
        avp[lv.links] = cache.xm[lv.links] @ avp[lv.parents] + cache.c[lv.links]
    flops.add(model.n_links * (flops.XMOT + flops.ADD6) + flops.gemm(cs.m, 6, 1))
    return (cs.K * avp[plan.position[cs.links], :, 0][cs.row_con]).sum(1)
