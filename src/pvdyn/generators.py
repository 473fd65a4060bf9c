"""Synthetic model generators for tests and benchmarks.

All generators are deterministic: the same arguments (and seed, where
one is taken) produce identical models.
"""

from __future__ import annotations

import numpy as np

from .model import (ConstraintSet, Joint, Model, MotionConstraint,
                    point_constraint)
from .spatial import PlueckerTransform, SpatialInertia

_AXES = (np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]),
         np.array([1.0, 0.0, 0.0]))


def _xlt(p) -> PlueckerTransform:
    return PlueckerTransform(np.eye(3), np.asarray(p, dtype=float))


def _base_inertia() -> SpatialInertia:
    return SpatialInertia.from_com(1.0, np.zeros(3), 1e-3 * np.eye(3))


def generate_chain(n_joints: int, kind: str = "revolute") -> Model:
    """Serial chain: unit masses, 0.5 m offsets along x, com at the far end.

    Joint axes alternate z, y, ... so that chains of three or more links
    move in all six directions; a single-link chain is the planar
    pendulum used throughout the examples.
    """
    if n_joints < 1:
        raise ValueError("chain needs at least one joint")
    if kind not in ("revolute", "prismatic"):
        raise ValueError(f"unsupported chain joint kind {kind!r}")
    parent = [-1]
    joints = [Joint.fixed()]
    placement = [PlueckerTransform.identity()]
    inertia = [_base_inertia()]
    link_inertia = SpatialInertia.from_com(1.0, np.array([0.5, 0.0, 0.0]),
                                           0.01 * np.eye(3))
    for i in range(1, n_joints + 1):
        parent.append(i - 1)
        axis = _AXES[(i - 1) % 2]
        joints.append(Joint(kind, axis))
        placement.append(_xlt([0.5, 0.0, 0.0]))
        inertia.append(link_inertia)
    return Model(parent, joints, placement, inertia)


def generate_tree(n_joints: int, branching: int, seed: int,
                  base_kind: str = "fixed") -> Model:
    """Random tree with revolute joints and depth about log_branching(n).

    New links attach to the shallowest link that still has room for a
    child, so the depth is that of the complete `branching`-ary tree;
    the seed drives axes, offsets, and inertial values.
    """
    if n_joints < 1:
        raise ValueError("tree needs at least one joint")
    if branching < 1:
        raise ValueError("branching factor must be >= 1")
    rng = np.random.default_rng(seed)
    parent = [-1]
    joints = [Joint.floating() if base_kind == "floating" else Joint.fixed()]
    placement = [PlueckerTransform.identity()]
    inertia = [SpatialInertia.from_com(2.0, np.zeros(3), 0.02 * np.eye(3))]
    n_children = [0]
    for i in range(1, n_joints + 1):
        eligible = [j for j in range(i) if n_children[j] < branching]
        depths = [_depth_of(parent, j) for j in eligible]
        dmin = min(depths)
        shallowest = [j for j, d in zip(eligible, depths) if d == dmin]
        p = int(rng.choice(shallowest))
        n_children[p] += 1
        n_children.append(0)
        parent.append(p)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        joints.append(Joint.revolute(axis))
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        placement.append(_xlt(rng.uniform(0.25, 0.45) * direction))
        mass = rng.uniform(0.7, 1.3)
        com = rng.uniform(0.1, 0.3) * direction
        inertia.append(SpatialInertia.from_com(
            mass, com, np.diag(rng.uniform(0.01, 0.05, 3))))
    return Model(parent, joints, placement, inertia)


def _depth_of(parent: list[int], j: int) -> int:
    d = 0
    while parent[j] >= 0:
        j = parent[j]
        d += 1
    return d


def generate_humanoid_like() -> Model:
    """38-dof floating-base biped: pelvis + 2x6 legs, 4 spine, 2x7 arms, 2 neck."""
    parent: list[int] = [-1]
    joints: list[Joint] = [Joint.floating()]
    placement = [PlueckerTransform.identity()]
    inertia = [SpatialInertia.from_com(8.0, np.zeros(3), np.diag([0.08, 0.06, 0.09]))]
    names = ["pelvis"]

    def add(name, p, axis, offset, mass, com, idiag):
        parent.append(p)
        joints.append(Joint.revolute(_AXES["zyx".index(axis)]))
        placement.append(_xlt(offset))
        inertia.append(SpatialInertia.from_com(mass, com, np.diag(idiag)))
        names.append(name)
        return len(parent) - 1

    for side, sy in (("l", 1.0), ("r", -1.0)):
        p = add(f"hip_yaw_{side}", 0, "z", [0.0, 0.1 * sy, -0.05], 1.0,
                [0, 0, -0.03], [0.002, 0.002, 0.002])
        p = add(f"hip_roll_{side}", p, "x", [0.0, 0.0, -0.06], 1.2,
                [0, 0, -0.05], [0.004, 0.004, 0.002])
        p = add(f"hip_pitch_{side}", p, "y", [0.0, 0.0, -0.06], 4.0,
                [0, 0, -0.2], [0.06, 0.06, 0.01])
        p = add(f"knee_{side}", p, "y", [0.0, 0.0, -0.4], 3.0,
                [0, 0, -0.18], [0.045, 0.045, 0.006])
        p = add(f"ankle_pitch_{side}", p, "y", [0.0, 0.0, -0.38], 0.6,
                [0, 0, -0.02], [0.001, 0.001, 0.001])
        add(f"foot_{side}", p, "x", [0.0, 0.0, -0.04], 1.0,
            [0.05, 0, -0.03], [0.002, 0.006, 0.006])

    p = 0
    for k in range(4):
        p = add(f"spine_{k}", p, "zy"[k % 2], [0.0, 0.0, 0.1 + 0.02 * k], 3.0,
                [0, 0, 0.06], [0.02, 0.02, 0.015])
    chest = p

    for side, sy in (("l", 1.0), ("r", -1.0)):
        p = add(f"shoulder_pitch_{side}", chest, "y", [0.0, 0.2 * sy, 0.12], 0.8,
                [0, 0.04 * sy, 0], [0.002, 0.002, 0.002])
        p = add(f"shoulder_roll_{side}", p, "x", [0.0, 0.06 * sy, 0.0], 0.8,
                [0, 0, -0.05], [0.003, 0.003, 0.001])
        p = add(f"shoulder_yaw_{side}", p, "z", [0.0, 0.0, -0.08], 1.4,
                [0, 0, -0.12], [0.012, 0.012, 0.002])
        p = add(f"elbow_{side}", p, "y", [0.0, 0.0, -0.25], 1.0,
                [0, 0, -0.1], [0.008, 0.008, 0.001])
        p = add(f"wrist_yaw_{side}", p, "z", [0.0, 0.0, -0.22], 0.4,
                [0, 0, -0.03], [0.0008, 0.0008, 0.0004])
        p = add(f"wrist_pitch_{side}", p, "y", [0.0, 0.0, -0.05], 0.3,
                [0, 0, -0.02], [0.0005, 0.0005, 0.0003])
        add(f"hand_{side}", p, "x", [0.0, 0.0, -0.04], 0.4,
            [0, 0, -0.05], [0.001, 0.001, 0.0006])

    p = add("neck", chest, "z", [0.0, 0.0, 0.12], 0.4,
            [0, 0, 0.04], [0.0008, 0.0008, 0.0005])
    add("head", p, "y", [0.0, 0.0, 0.08], 2.0,
        [0, 0, 0.08], [0.01, 0.01, 0.008])

    return Model(parent, joints, placement, inertia, names=names)


def standard_constraints(model: Model, m: int, seed: int = 0) -> ConstraintSet:
    """Deterministic constraint fixture totalling m rows.

    Blocks of three (body-point constraints) are placed on the deepest
    links, spread across distinct branches; a remainder of 1 or 2 rows
    becomes single-direction constraints.  Targets are small and seeded.
    """
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if m == 0:
        return ConstraintSet.empty()
    rng = np.random.default_rng(seed)
    order = sorted(range(model.n_links), key=lambda i: -model.link_depth[i])
    order = [i for i in order if model.link_depth[i] > 0 or model.base_kind == "floating"]
    if not order:
        raise ValueError("model has no constrainable link")
    sizes = [3] * (m // 3) + [1] * (m % 3)
    constraints = []
    for idx, size in enumerate(sizes):
        link = order[idx % len(order)]
        if size == 3:
            c = point_constraint(link, rng.uniform(-0.2, 0.2, 3),
                                 a_star=rng.uniform(-0.5, 0.5, 3))
        else:
            row = rng.standard_normal(6)
            row /= np.linalg.norm(row)
            c = MotionConstraint(link, row.reshape(1, 6),
                                 np.array([rng.uniform(-0.5, 0.5)]))
        constraints.append(c)
    return ConstraintSet(constraints)
