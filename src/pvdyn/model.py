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
threads (the static plans of CRBA, the Jacobians, the LTL factor and the
constraint layouts' rows are built on first read, and a thread that
races another builds the same plan); State is a plain value type.
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
            norm = math.sqrt(a @ a)         # np.linalg.norm's sum, without its overhead
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


@dataclass(frozen=True)
class JointGroup:
    """The links of one 1-dof joint kind, with their coordinate and
    velocity indices, their unit axes a, and a a' and skew(a)' of each."""

    links: np.ndarray
    q: np.ndarray
    v: np.ndarray
    axis: np.ndarray
    outer: np.ndarray
    skew_t: np.ndarray


@dataclass(frozen=True)
class Level:
    """One array step of the articulated sweeps: the links of a subset at
    one depth and their parents, as positions in plan order (the root
    level has no parents).  In plan order the children of a parent are
    adjacent, so the level is a sequence of sibling runs: ``starts`` holds
    the offset where each run begins and ``heads`` its parent (``lone``:
    each run is one link).  ``moving`` counts the 1-dof joints.
    """

    links: slice | np.ndarray
    parents: slice | np.ndarray | None
    starts: np.ndarray | None
    heads: slice | np.ndarray | None
    size: int
    moving: int
    lone: bool = False

    def scatter(self, buf: np.ndarray, push: np.ndarray) -> None:
        """Add each link's push into its parent's row of `buf`."""
        buf[self.heads] += push if self.lone else np.add.reduceat(push, self.starts, axis=0)


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
    neg_skew: np.ndarray   # (n,3,3) -skew(p) of the placements' translations p
    moved: np.ndarray      # positions of the prismatic and floating joints
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
            a = np.array([model.joints[i].axis for i in links]).reshape(-1, 3)
            return JointGroup(links, np.array([model.q_offset[i] for i in links], dtype=int),
                              np.array([model.v_offset[i] for i in links], dtype=int), a,
                              a[:, :, None] * a[:, None], spatial.skew(a).swapaxes(1, 2).copy())

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
                         tuple(links_of("floating")), -spatial.skew(model.placement_trans[order]),
                         position[links_of("prismatic") + links_of("floating")], fk_flops,
                         parent, depth, s, s.swapaxes(1, 2), fixed, model.inertia66[order],
                         np.argsort(slot_dof, kind="stable")[:model.nv], slot_dof, sweep)

    def levels_of(self, links) -> tuple[Level, ...]:
        """The levels of a link subset, from the root down."""
        return _levels(self.parent, self.depth, self.fixed,
                       np.sort(self.position[np.asarray(links, dtype=int)]))


def _levels(parent: np.ndarray, depth: np.ndarray, fixed: np.ndarray,
            pos: np.ndarray) -> tuple[Level, ...]:
    """The levels of the sorted plan positions `pos`.  In plan order a
    level's parents do not decrease, so its links, parents and heads
    each run (a slice) where their span is their count less one, the
    parents only where each run of siblings is one link."""
    if not pos.size:
        return ()
    par, d = parent[pos], depth[pos]
    lo = np.flatnonzero(np.concatenate(([True], d[1:] != d[:-1])))
    runs = np.flatnonzero(np.concatenate(([True], par[1:] != par[:-1])))  # and so a new level
    ra = np.searchsorted(runs, lo)
    starts, heads = runs - lo[np.searchsorted(lo, runs, "right") - 1], par[runs]
    moving = np.add.reduceat(fixed[pos, 0, 0] == 0.0, lo).tolist()
    p, q, h = pos.tolist(), par.tolist(), heads.tolist()
    lo, ra = lo.tolist() + [len(p)], ra.tolist() + [len(h)]
    out = [Level(slice(0, 1), None, None, None, 1, 0)] if p[0] == 0 else []
    for k in range(len(out), len(moving)):
        a, b, u, v = lo[k], lo[k + 1], ra[k], ra[k + 1]
        one = v - u == b - a
        out.append(Level(slice(p[a], p[b - 1] + 1) if p[b - 1] - p[a] == b - a - 1 else pos[a:b],
                         slice(q[a], q[b - 1] + 1) if one and q[b - 1] - q[a] == b - a - 1
                         else par[a:b], starts[u:v],
                         slice(h[u], h[v - 1] + 1) if h[v - 1] - h[u] == v - u - 1 else heads[u:v],
                         b - a, moving[k], one))
    return tuple(out)


def _run(idx: np.ndarray) -> slice | np.ndarray:
    """`idx` as a slice where it is one arithmetic run, else as it is."""
    if idx.size == 1:
        return slice(int(idx[0]), int(idx[0]) + 1)
    if idx.size > 1:
        first, step, last = int(idx[0]), int(idx[1] - idx[0]), int(idx[-1])
        if step and first + step * (idx.size - 1) == last and (idx[1:] - idx[:-1] == step).all():
            return slice(first, last + step if last + step >= 0 else None, step)
    return idx


@dataclass(frozen=True)
class Hop:
    """One step of a ``RootWalk``: the `k` columns still walking move from
    plan positions `src` to their parents `dst`, and the first `below` of
    them are still off the root after it (the others have reached it).
    `at` holds the walk's user's scatter indices for the step."""

    k: int
    below: int
    src: slice | np.ndarray
    dst: slice | np.ndarray
    at: tuple


@dataclass(frozen=True)
class RootWalk:
    """The root paths of a set of columns, one parent per hop for all of
    them at once.  The columns start at plan positions `start`, deepest
    first, so the ones still walking are always a prefix and those that
    reach the root at a hop are its positions ``below:k``; `cols` are their
    output rows.  `flops` is the static charge of one walk."""

    start: slice | np.ndarray
    cols: np.ndarray
    hops: tuple[Hop, ...]
    flops: int

    @staticmethod
    def of(plan: LevelPlan, start: np.ndarray, cols: np.ndarray, step, work: int) -> "RootWalk":
        """The walk from the positions `start` (by non-increasing depth);
        ``step(src, dst, cols)`` gives a hop's scatter indices and flops, and
        `work` is the charge of the start and of the arrivals at the root."""
        depth = plan.depth[start]
        hops, src, k = [], start, int(np.count_nonzero(depth > 0))
        while k:
            src, dst = src[:k], plan.parent[src[:k]]
            below = int(np.count_nonzero(depth > len(hops) + 1))     # off the root after it
            at, charge = step(src, dst, cols[:k])
            hops.append(Hop(k, below, _run(src), _run(dst), at))
            src, k, work = dst, below, work + charge
        return RootWalk(_run(start), cols, tuple(hops), work)


@dataclass(frozen=True)
class DofLevel:
    """One step of the branch-sparse LTL factor and its solves: `dofs`,
    each with `a` ancestors in `anc` (from the root down), and flat indices
    into the n x n matrix of their pivots (`piv`), their rows of L (`rows`,
    dofs x a) and the entries (anc[i], anc[j]), j <= i, that each row's
    outer product updates (`targets`, with the pair columns i and j in
    `pi` and `pj`).  `flops` is the factor's charge for the level."""

    dofs: np.ndarray
    anc: np.ndarray
    piv: slice | np.ndarray
    rows: np.ndarray
    pi: np.ndarray
    pj: np.ndarray
    targets: np.ndarray
    flops: int


def root_scan(parent: np.ndarray, x: np.ndarray, op=np.add) -> np.ndarray:
    """`x` reduced by `op` over each node's root path, itself included, by
    pointer jumping: each step folds in the path up to `up` and doubles it."""
    x, up = x.copy(), parent.copy()
    for _ in range(len(parent).bit_length()):  # k steps span 2^k links, a cycle stops too
        if not (on := up >= 0).any():
            break
        x[on] = op(x[on], x[up[on]])
        up[on] = up[up[on]]
    return x


def dof_levels(dof_parent: np.ndarray) -> tuple[DofLevel, ...]:
    """The dofs by their number of ancestors in `dof_parent`, root level
    first and each level's dofs ascending; the LTL factor and solves take
    one step per level, deepest first for the factor.  A level whose dofs
    each have a child in the next level, in one run, takes a view of that
    level's targets, so a chain holds one table of them, not one per level."""
    n = len(dof_parent)
    depth = root_scan(dof_parent, (dof_parent >= 0).astype(int))
    order = np.argsort(depth, kind="stable")
    row, ancs = np.empty(n, dtype=int), []
    for dofs in np.split(order, np.cumsum(np.bincount(depth))[:-1]) if n else ():
        row[dofs] = np.arange(dofs.size)
        par = dof_parent[dofs]
        ancs.append((dofs, np.column_stack((ancs[-1][1][row[par]], par)) if ancs
                     else np.zeros((dofs.size, 0), dtype=int)))
    a_max = max(len(ancs) - 1, 0)
    pi = np.repeat(np.arange(a_max), np.arange(1, a_max + 1))
    pj = np.arange(pi.size) - pi * (pi + 1) // 2          # the pairs j <= i, i major
    levels = []
    for dofs, anc in reversed(ancs):
        a = anc.shape[1]
        p = a * (a + 1) // 2
        sel = None
        if levels:                      # each dof's first child in the level below
            parents, first = np.unique(row[dof_parent[levels[-1].dofs]], return_index=True)
            sel = _run(first) if parents.size == dofs.size else None
        targets = (levels[-1].targets[sel, :p] if isinstance(sel, slice)
                   else anc[:, pi[:p]] * n + anc[:, pj[:p]])
        levels.append(DofLevel(dofs, anc, _run(dofs * (n + 1)), dofs[:, None] * n + anc,
                               pi[:p], pj[:p], targets, dofs.size * (1 + a * (a + 2))))
    return tuple(reversed(levels))


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

        nvs = np.array([j.nv for j in self.joints], dtype=int)
        nqs = np.array([j.nq for j in self.joints], dtype=int)
        self.nv, self.nq = int(nvs.sum()), int(nqs.sum())
        self.v_offset = tuple((np.cumsum(nvs) - nvs).tolist())
        self.q_offset = tuple((np.cumsum(nqs) - nqs).tolist())

        self.S = tuple(j.motion_subspace() for j in self.joints)
        self.placement_rot = np.stack([x.rotation for x in self.placement])
        self.placement_trans = np.stack([x.translation for x in self.placement])
        self.inertia66 = spatial.inertia_matrix(*(np.array([getattr(i, f) for i in self.inertia])
                                                  for f in ("mass", "first_moment", "rot_inertia")))

        children: list[list[int]] = [[] for _ in range(self.n_links)]
        for i in range(1, self.n_links):
            children[self.parent[i]].append(i)
        self.children = tuple(tuple(c) for c in children)
        self.link_depth = root_scan(self.parent, (self.parent >= 0).astype(int))
        self.depth = int(self.link_depth.max())
        self.plan = LevelPlan.of(self)

        # per-dof parent chain (previous dof of the same joint, else the
        # last dof of the nearest movable ancestor); it drives the
        # branch-sparse factorization pattern.  Dofs grow down each root
        # path, so that last dof is the largest on the path
        first = np.cumsum(nvs) - nvs
        self._last_dof = root_scan(self.parent, np.where(nvs > 0, first + nvs - 1, -1), np.maximum)
        self.dof_parent = np.arange(self.nv) - 1
        self.dof_parent[first[nvs > 0]] = np.append(self._last_dof, -1)[self.parent[nvs > 0]]
        self._jacobian_walks: dict[bytes, RootWalk] = {}
        self._row_plans: dict = {}      # constrained._RowPlan by constraint layout

    @cached_property
    def dof_levels(self) -> tuple[DofLevel, ...]:
        """``dof_levels(dof_parent)``, built on first read (CRBA and the LTL)."""
        return dof_levels(self.dof_parent)

    @cached_property
    def crba_walk(self) -> RootWalk:
        """CRBA's walk: the column F = IC S of each moving link up its root
        path, writing S' F at each joint it passes (``at``: flat indices into
        the (nv+1) x (nv+1) matrix, below and above the diagonal; row and
        column nv take the fixed joints) and F' S0 at the root."""
        plan, nv, nv0 = self.plan, self.nv, self.joints[0].nv
        start = np.flatnonzero(plan.fixed[:, 0, 0] == 0.0)[::-1]

        def step(src, dst, cols):
            rows = plan.slot_dof[dst]
            return ((_run(rows * (nv + 1) + cols), _run(cols * (nv + 1) + rows)),
                    cols.size * flops.XFORCE_T + flops.gemm(1, 6, 1) * np.count_nonzero(rows < nv))
        return RootWalk.of(plan, start, plan.slot_dof[start], step, start.size * (
            flops.gemm(6, 6, 1) + flops.gemm(1, 6, 1) + flops.gemm(nv0, 6, 1)))

    def jacobian_walk(self, links) -> RootWalk:
        """The Jacobian walk of `links`, built once per link set: each link's
        transform from an ancestor's frame, composed one parent per hop, maps
        that ancestor's joint column into the link's frame (``at``: the rows
        and the dof columns, nv at fixed joints)."""
        links = check_links(self, links)
        key = links.tobytes()
        if key not in self._jacobian_walks:
            plan, nv, nv0 = self.plan, self.nv, self.joints[0].nv
            pos = plan.position[links]
            order = np.argsort(-plan.depth[pos], kind="stable")

            def step(src, dst, cols):
                dof = plan.slot_dof[src]
                return (cols, dof), cols.size * flops.COMPOSE + flops.XMOT * np.count_nonzero(dof < nv)
            self._jacobian_walks[key] = RootWalk.of(plan, pos[order], order, step,
                                                    links.size * (flops.COMPOSE + flops.XMOT * nv0))
        return self._jacobian_walks[key]

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
        if not ((0 <= self.parent[1:]) & (self.parent[1:] < np.arange(1, self.n_links))).all():
            raise ValueError("parent array is not topologically ordered")
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


def check_links(model: Model, links) -> np.ndarray:
    """`links` as an int array of link indices, each in range(n_links)."""
    links = np.asarray(links, dtype=int)
    if links.size and not 0 <= links.min() <= links.max() < model.n_links:
        raise DimensionMismatch(f"link index out of range for n_links={model.n_links}")
    return links


def check_vec(model: Model, vec, name: str) -> np.ndarray:
    """`vec` as a finite float array of length nv."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (model.nv,):
        raise DimensionMismatch(f"{name} must have length nv={model.nv}")
    check_finite(vec, name)
    return vec


def check_rows(x, m: int, name: str) -> np.ndarray:
    """`x`, a scalar or one value per constraint row, as a float array of length m."""
    x = np.asarray(x, dtype=float)
    if x.shape not in ((), (1,), (m,)):
        raise DimensionMismatch(f"{name} must be a scalar or have length m={m}")
    return np.broadcast_to(x, (m,))


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
        if not isinstance(self.link, (int, np.integer)) or self.link < 0:
            raise ValueError("constraint link must be a non-negative integer")
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
