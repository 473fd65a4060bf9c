"""Kinematic-tree data model: joints, links, state, and motion constraints.

A model always has a base body, link 0, whose joint is either ``fixed``
(zero dofs) or ``floating`` (six dofs); that one convention gives every
algorithm a single code path for fixed- and floating-base trees.  The
parent array is topologically ordered with ``parent[i] < i`` and
``parent[0] == -1`` standing for the world.

Configuration layout: one block per link in link order; revolute and
prismatic joints contribute one coordinate, a floating joint contributes
a unit quaternion (w, x, y, z) followed by a translation.  Velocity
blocks follow the same order with the floating block being the base's
spatial velocity in base coordinates (angular first).

Models are immutable after construction and safe to share across
threads; State is a plain value type.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import flops, spatial
from .errors import DimensionMismatch, NonFiniteInput
from .spatial import PlueckerTransform, SpatialInertia

GRAVITY_DEFAULT = (0.0, 0.0, -9.81)
_NV = {"revolute": 1, "prismatic": 1, "floating": 6, "fixed": 0}
_NQ = {"revolute": 1, "prismatic": 1, "floating": 7, "fixed": 0}


@dataclass(frozen=True)
class Joint:
    """Joint connecting a link to its parent."""

    kind: str                      # revolute | prismatic | floating | fixed
    axis: np.ndarray | None = None

    def __post_init__(self):
        if self.kind in ("revolute", "prismatic"):
            a = np.asarray(self.axis, dtype=float)
            norm = np.linalg.norm(a)
            if abs(norm - 1.0) > 1e-12:
                a = a / norm
            object.__setattr__(self, "axis", a)
        elif self.kind in ("floating", "fixed"):
            object.__setattr__(self, "axis", None)
        else:
            raise ValueError(f"unknown joint kind {self.kind!r}")

    @staticmethod
    def revolute(axis) -> "Joint":
        return Joint("revolute", axis)

    @staticmethod
    def prismatic(axis) -> "Joint":
        return Joint("prismatic", axis)

    @staticmethod
    def floating() -> "Joint":
        return Joint("floating")

    @staticmethod
    def fixed() -> "Joint":
        return Joint("fixed")

    @property
    def nv(self) -> int:
        return _NV[self.kind]

    @property
    def nq(self) -> int:
        return _NQ[self.kind]

    def motion_subspace(self) -> np.ndarray:
        """6 x nv matrix mapping joint velocities to link-frame twists."""
        if self.kind == "revolute":
            s = np.zeros((6, 1))
            s[:3, 0] = self.axis
            return s
        if self.kind == "prismatic":
            s = np.zeros((6, 1))
            s[3:, 0] = self.axis
            return s
        if self.kind == "floating":
            return np.eye(6)
        return np.zeros((6, 0))

    def transform(self, q_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Joint coordinate transform (R, p), parent side to child side."""
        if self.kind == "revolute":
            return spatial.axis_angle_rotation(self.axis, float(q_block[0])).T, np.zeros(3)
        if self.kind == "prismatic":
            return np.eye(3), float(q_block[0]) * self.axis
        if self.kind == "floating":
            return spatial.quat_to_rotation(q_block[:4]).T, np.asarray(q_block[4:], dtype=float)
        return np.eye(3), np.zeros(3)


def _index(idx: list[int]):
    """A slice where the indices are one ascending run, else an index array."""
    if all(b - a == 1 for a, b in zip(idx, idx[1:])):
        return slice(idx[0], idx[-1] + 1)
    return np.array(idx)


@dataclass(frozen=True)
class JointGroup:
    """The links of one 1-dof joint kind, with their coordinate and
    velocity indices and their unit axes."""

    links: np.ndarray
    q: np.ndarray
    v: np.ndarray
    axis: np.ndarray


@dataclass(frozen=True)
class Level:
    """One array step of the articulated sweeps: the links of a subset at
    one depth and their parents, as positions in plan order (the root
    level has no parents).  In plan order the children of a parent are
    adjacent, so the level is a sequence of sibling runs: ``starts`` holds
    the offset where each run begins and ``heads`` its parent.
    ``moving`` counts the 1-dof joints.
    """

    links: slice | np.ndarray
    parents: slice | np.ndarray | None
    starts: np.ndarray | None
    heads: slice | np.ndarray | None
    size: int
    moving: int

    def scatter(self, buf: np.ndarray, push: np.ndarray) -> None:
        """Add each link's push into its parent's row of `buf`."""
        buf[self.heads] += np.add.reduceat(push, self.starts, axis=0)


@dataclass(frozen=True)
class LevelPlan:
    """Schedule of the link-batched kinematics and articulated sweeps.

    Links at the same depth do not depend on each other, so each
    recursion runs one array step per level.  It runs in level order:
    ``order`` lists the links breadth first (by depth, then by parent,
    then by index) and ``position`` is its inverse.  ``sweep`` holds the
    levels of the whole tree from the root down (``Level``), as positions
    in that order.  The link-local joint work runs once over each 1-dof
    joint-kind group and per floating link.

    The articulated sweeps stack each joint below the root as a 6 x 1
    column of ``S`` (zero at a fixed joint, where ``fixed`` is 1).  A joint
    vector in plan layout has a slot per position and then the root's
    dofs; ``dof_slot`` and ``slot_dof`` map dofs and slots (nv: padding).
    """

    order: np.ndarray
    position: np.ndarray
    revolute: JointGroup
    prismatic: JointGroup
    floating: tuple[int, ...]
    fk_flops: int          # flops of one forward-kinematics pass
    parent: np.ndarray     # parent position of each position (-1 at the root)
    depth: np.ndarray      # depth of each position
    S: np.ndarray          # (n,6,1)
    ST: np.ndarray         # (n,1,6), a view of S
    fixed: np.ndarray      # (n,1,1)
    inertia66: np.ndarray  # (n,6,6) link inertias
    dof_slot: np.ndarray
    slot_dof: np.ndarray
    sweep: tuple[Level, ...]

    @staticmethod
    def of(model: "Model") -> "LevelPlan":
        def links_of(kind):
            return [i for i, j in enumerate(model.joints) if j.kind == kind]

        def group(kind):
            links = np.array(links_of(kind), dtype=int)
            return JointGroup(links, np.array([model.q_offset[i] for i in links], dtype=int),
                              np.array([model.v_offset[i] for i in links], dtype=int),
                              np.array([model.joints[i].axis for i in links]).reshape(-1, 3))

        n = model.n_links
        if any(j.nv > 1 for j in model.joints[1:]):
            raise ValueError("floating joints are only allowed on link 0")
        order, frontier = [0], [0]
        while frontier:
            frontier = [c for p in frontier for c in model.children[p]]
            order += frontier
        order = np.array(order, dtype=int)
        position = np.empty_like(order)
        position[order] = np.arange(n)
        parent = np.where(order > 0, position[model.parent[order]], -1)
        moving = np.array([i > 0 and model.joints[i].nv == 1 for i in order])
        s = np.stack([model.S[i] if m else np.zeros((6, 1)) for i, m in zip(order, moving)])
        fixed = (~moving).astype(float).reshape(n, 1, 1)
        depth = model.link_depth[order]
        sweep = _levels(parent, depth, fixed, np.arange(n))
        fk_flops = n * (flops.AXIS_ANGLE + 2 * flops.COMPOSE + flops.XMOT
                        + flops.CROSS_M + flops.ADD6) + 6 * model.nv
        slot_dof = np.r_[np.where(moving, np.array(model.v_offset)[order], model.nv),
                         np.arange(model.joints[0].nv)]
        return LevelPlan(order, position, group("revolute"), group("prismatic"),
                         tuple(links_of("floating")), fk_flops, parent, depth, s,
                         s.swapaxes(1, 2), fixed, model.inertia66[order],
                         np.argsort(slot_dof, kind="stable")[:model.nv], slot_dof, sweep)

    def levels_of(self, links) -> tuple[Level, ...]:
        """The levels of a link subset, from the root down."""
        return _levels(self.parent, self.depth, self.fixed,
                       np.sort(self.position[np.asarray(links, dtype=int)]))


def _levels(parent: np.ndarray, depth: np.ndarray, fixed: np.ndarray,
            pos: np.ndarray) -> tuple[Level, ...]:
    """The levels of the sorted plan positions `pos`."""
    parent, depth = parent.tolist(), depth.tolist()
    moving = (fixed[:, 0, 0] == 0.0).tolist()
    out = []
    for _, level in itertools.groupby(pos.tolist(), key=depth.__getitem__):
        p = list(level)
        if p[0] == 0:
            out.append(Level(slice(0, 1), None, None, None, 1, 0))
            continue
        par = [parent[k] for k in p]
        starts = [j for j in range(len(p)) if not j or par[j] != par[j - 1]]
        out.append(Level(_index(p), _index(par), np.array(starts),
                         _index([par[j] for j in starts]), len(p), sum(moving[k] for k in p)))
    return tuple(out)


def dof_levels(dof_parent: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The dofs by their number of ancestors in `dof_parent`, root level
    first, as (dofs, ancestor table) pairs with each dof's ancestors from
    the root down; the LTL factor and solves take one step per level."""
    levels, row = [], np.zeros(len(dof_parent), dtype=int)
    dofs = np.flatnonzero(dof_parent < 0)
    while dofs.size:
        row[dofs] = np.arange(dofs.size)
        par = dof_parent[dofs]
        anc = (np.column_stack((levels[-1][1][row[par]], par)) if levels
               else np.zeros((dofs.size, 0), dtype=int))
        levels.append((dofs, anc))
        dofs = np.flatnonzero(np.isin(dof_parent, dofs))
    return tuple(levels)


class Model:
    """Immutable kinematic tree: topology, joints, placements, inertias."""

    def __init__(self, parent, joints, placement, inertia,
                 gravity=GRAVITY_DEFAULT, names=None):
        self.parent = np.asarray(parent, dtype=int)
        self.joints = tuple(joints)
        self.placement = tuple(placement)
        self.inertia = tuple(inertia)
        self.gravity = np.asarray(gravity, dtype=float)
        self.n_links = len(self.joints)
        self.names = tuple(names) if names is not None else tuple(
            f"link{i}" for i in range(self.n_links))

        self.nv = sum(j.nv for j in self.joints)
        self.nq = sum(j.nq for j in self.joints)

        v_off, q_off = [], []
        iv = iq = 0
        for j in self.joints:
            v_off.append(iv)
            q_off.append(iq)
            iv += j.nv
            iq += j.nq
        self.v_offset = tuple(v_off)
        self.q_offset = tuple(q_off)

        self.S = tuple(j.motion_subspace() for j in self.joints)
        self.placement_rot = np.stack([x.rotation for x in self.placement])
        self.placement_trans = np.stack([x.translation for x in self.placement])
        self.inertia66 = np.stack([ine.to_matrix() for ine in self.inertia])

        children: list[list[int]] = [[] for _ in range(self.n_links)]
        depth = np.zeros(self.n_links, dtype=int)
        for i in range(1, self.n_links):
            children[self.parent[i]].append(i)
            depth[i] = depth[self.parent[i]] + 1
        self.children = tuple(tuple(c) for c in children)
        self.link_depth = depth
        self.depth = int(depth.max()) if self.n_links > 1 else 0
        self.plan = LevelPlan.of(self)

        # per-dof parent chain (previous dof of the same joint, else the
        # last dof of the nearest movable ancestor) and its levels; they
        # drive the branch-sparse factorization pattern
        dof_parent = np.full(self.nv, -1, dtype=int)
        last_dof = np.full(self.n_links, -1, dtype=int)
        for i in range(self.n_links):
            nv = self.joints[i].nv
            anc = self.parent[i]
            prev = last_dof[anc] if anc >= 0 else -1
            for k in range(nv):
                d = self.v_offset[i] + k
                dof_parent[d] = prev
                prev = d
            last_dof[i] = prev if nv > 0 else (last_dof[anc] if anc >= 0 else -1)
        self.dof_parent = dof_parent
        self.dof_levels = dof_levels(dof_parent)
        self._last_dof = last_dof

    @property
    def base_kind(self) -> str:
        return "floating" if self.joints[0].kind == "floating" else "fixed"

    def gravity6(self) -> np.ndarray:
        return np.concatenate((np.zeros(3), self.gravity))

    def v_block(self, i: int) -> slice:
        return slice(self.v_offset[i], self.v_offset[i] + self.joints[i].nv)

    def q_block(self, i: int) -> slice:
        return slice(self.q_offset[i], self.q_offset[i] + self.joints[i].nq)

    def ancestor_dofs(self, link: int) -> np.ndarray:
        """All dofs on the path from `link` (inclusive) to the base, sorted."""
        dofs = []
        d = self._last_dof[link]
        while d >= 0:
            dofs.append(d)
            d = self.dof_parent[d]
        return np.array(sorted(dofs), dtype=int)

    def with_gravity(self, gravity) -> "Model":
        return Model(self.parent, self.joints, self.placement, self.inertia,
                     gravity, self.names)

    def validate(self) -> None:
        if self.parent[0] != -1:
            raise ValueError("link 0 must attach to the world")
        for i in range(1, self.n_links):
            if not 0 <= self.parent[i] < i:
                raise ValueError("parent array is not topologically ordered")
            if self.joints[i].kind == "floating":
                raise ValueError("floating joints are only allowed on link 0")
        for i, (x, ine) in enumerate(zip(self.placement, self.inertia)):
            x.validate()
            movable = i > 0 or self.base_kind == "floating"
            if movable:
                if ine.mass <= 0:
                    raise ValueError(f"link {i} has non-positive mass")
                eigs = np.linalg.eigvalsh(ine.to_matrix())
                if eigs.min() < 1e-12:
                    raise ValueError(f"link {i} inertia is not positive definite")


@dataclass(frozen=True)
class State:
    """Generalized position and velocity."""

    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


def check_finite(x: np.ndarray, name: str) -> None:
    if not np.isfinite(x).all():
        raise NonFiniteInput(f"{name} holds a NaN or an infinity")


def check_state(model: Model, state: State) -> None:
    if state.q.shape != (model.nq,) or state.v.shape != (model.nv,):
        raise DimensionMismatch(
            f"state dims {state.q.shape}/{state.v.shape} do not match "
            f"model nq={model.nq}, nv={model.nv}")
    check_finite(state.q, "q")
    check_finite(state.v, "v")


def check_vec(model: Model, vec, name: str) -> np.ndarray:
    """`vec` as a finite float array of length nv."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (model.nv,):
        raise DimensionMismatch(f"{name} must have length nv={model.nv}")
    check_finite(vec, name)
    return vec


def neutral_state(model: Model) -> State:
    q = np.zeros(model.nq)
    for i, j in enumerate(model.joints):
        if j.kind == "floating":
            q[model.q_offset[i]] = 1.0  # identity quaternion
    return State(q, np.zeros(model.nv))


def random_state(model: Model, seed: int) -> State:
    rng = np.random.default_rng(seed)
    q = np.zeros(model.nq)
    for i, j in enumerate(model.joints):
        off = model.q_offset[i]
        if j.kind == "revolute":
            q[off] = rng.uniform(-np.pi, np.pi)
        elif j.kind == "prismatic":
            q[off] = rng.uniform(-0.5, 0.5)
        elif j.kind == "floating":
            quat = rng.standard_normal(4)
            q[off:off + 4] = quat / np.linalg.norm(quat)
            q[off + 4:off + 7] = rng.uniform(-1.0, 1.0, 3)
    v = rng.uniform(-1.0, 1.0, model.nv)
    return State(q, v)


@dataclass(frozen=True)
class MotionConstraint:
    """Acceleration-level equality constraint K a_link = a_star on one link.

    K rows are constrained spatial-acceleration directions in the link's
    own frame; rows need not be linearly independent (the proximal
    solver tolerates rank deficiency, the exact solvers refuse it).
    Optional Baumgarte gains and a pose anchor let the integrator damp
    position-level drift.
    """

    link: int
    K: np.ndarray
    a_star: np.ndarray
    baumgarte: tuple[float, float] | None = None
    anchor: PlueckerTransform | None = None

    def __post_init__(self):
        k = np.atleast_2d(np.asarray(self.K, dtype=float))
        a = np.atleast_1d(np.asarray(self.a_star, dtype=float))
        if k.shape[1] != 6 or not 1 <= k.shape[0] <= 6:
            raise ValueError("constraint matrix must be m_e x 6 with 1 <= m_e <= 6")
        if a.shape != (k.shape[0],):
            raise ValueError("a_star length must match constraint rows")
        if self.baumgarte is not None and not all(0 <= g < math.inf for g in self.baumgarte):
            raise ValueError("Baumgarte gains must be finite and non-negative")
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "a_star", a)

    @property
    def dim(self) -> int:
        return self.K.shape[0]


def point_constraint(link: int, point, a_star=None, baumgarte=None) -> MotionConstraint:
    """3-D constraint on the acceleration of a body point (link frame)."""
    k = np.hstack((-spatial.skew(np.asarray(point, dtype=float)), np.eye(3)))
    return MotionConstraint(link, k, np.zeros(3) if a_star is None else a_star,
                            baumgarte=baumgarte)


def weld_constraint(link: int, a_star=None, baumgarte=None) -> MotionConstraint:
    """Full 6-D constraint on a link's spatial acceleration."""
    return MotionConstraint(link, np.eye(6), np.zeros(6) if a_star is None else a_star,
                            baumgarte=baumgarte)


class ConstraintSet:
    """Ordered collection of motion constraints, stacked as rows.

    The rows are built once and are read-only: ``K`` (m x 6), each row's
    constraint index ``row_con``, each constraint's link in ``links``,
    each constraint's (link, dim) in ``layout`` and the targets behind
    ``stacked_targets``.  ``replace_targets`` shares all of them but the
    targets, and builds its ``constraints`` only when they are read.
    """

    def __init__(self, constraints=()):
        self._source = self.constraints = tuple(constraints)
        self.layout = tuple((c.link, c.dim) for c in self._source)
        dims = [d for _, d in self.layout]
        self.offsets = tuple(itertools.accumulate(dims, initial=0))[:-1]
        self.m = sum(dims)
        self.K = _frozen(np.concatenate([np.zeros((0, 6))] + [c.K for c in self._source]))
        self.row_con = _frozen(np.repeat(np.arange(len(dims)), dims))
        self.links = _frozen(np.array([link for link, _ in self.layout], dtype=int))
        self._targets = _frozen(np.concatenate([np.zeros(0)]
                                               + [c.a_star for c in self._source]))
        self._rows = tuple(_frozen(np.arange(o, o + d)) for o, d in zip(self.offsets, dims))

    @cached_property
    def constraints(self) -> tuple[MotionConstraint, ...]:
        """The constraints, each with its rows of the targets."""
        return tuple(replace(c, a_star=self._targets[o:o + c.dim])
                     for o, c in zip(self.offsets, self._source))

    @staticmethod
    def empty() -> "ConstraintSet":
        return ConstraintSet()

    def __len__(self) -> int:
        return len(self.layout)

    def __iter__(self):
        return iter(self.constraints)

    def rows(self, i: int) -> np.ndarray:
        """Global row indices of constraint i (a shared, read-only array)."""
        return self._rows[i]

    def stacked_targets(self) -> np.ndarray:
        """The targets a_star of all rows (a shared, read-only array)."""
        return self._targets

    def replace_targets(self, a_star: np.ndarray) -> "ConstraintSet":
        out = copy.copy(self)
        out._targets = targets = _frozen(np.array(a_star, dtype=float))
        if targets.shape != (self.m,):
            raise DimensionMismatch(f"a_star must have length m={self.m}")
        out.__dict__.pop("constraints", None)     # built from the new targets when read
        return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a
