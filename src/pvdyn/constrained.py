"""Constrained forward dynamics by recursive sweeps over the tree.

The solvers here, ``baseline.aba`` and the Delassus producers are all
the articulated-body recursion plus one extra term, so they share one
set of passes, each charging its own flops:

* ``_inertia_pass`` — articulated inertias IA (plus any added inertia),
  joint factors U = IA S, D = S' U, and below the root
  IA_proj = IA - U D^-1 U'.
* ``_bias_pass`` — joint biases u and articulated biases pA: over the
  whole tree from tau, velocity products and c, or homogeneous (no tau,
  no c) over a link subset for the change a bias increment makes.
* ``_coupling_pass`` — coupling blocks K, L and optionally l with
  ``K a_link + L lam + l = 0``, over the constraint support (the links
  whose subtree holds a constraint) and the rows of a ``_RowLayout``;
  ``_eliminate`` is its early-elimination step.
* ``_forward_pass`` — accelerations and qdd over all links or a subset,
  with an optional K_S' lam term and the back-substitution of rows
  eliminated early.

Links at one depth do not depend on each other, so the inertia, bias,
coupling and forward passes take one array step per depth level of
``Model.plan`` (``model.Level``), children first backward and parents
first forward, and so does ``_eliminate``, in rounds.  The buffers
are in plan order, where each level is a slice, and below the root
every joint has one dof or none, so its factors stack as arrays: U,
D^-1 and u per link (a fixed joint has S = 0 and D = 1).  Link 0, with
0, 1 or 6 dofs, is a level of its own with a small dense factor.  A
level step transforms with one 6x6 product per link (the cache's ``xm``)
and adds each run of siblings into its parent with one sum
(``Level.scatter``).  The coupling pass keeps K as one array indexed by
constraint row, each row in the frame of its link's ancestor at the
depth the sweep has reached; sibling subtrees hold disjoint rows, so a
level step updates the rows of all its support links at once and adds
to L over the level's block of rows (``_LevelRows``).  Sums
run in another order than in a per-link sweep, so answers agree with
one to rounding, not bit for bit.  A subset pass (the support, or the
links off it) runs on the subset's levels (``LevelPlan.levels_of``), as
index arrays where a level's links are not contiguous.

How the solvers compose them:

* ``pv_solve`` — inertia, bias, coupling, a dense multiplier solve at
  the base, forward.  Exact.
* ``pv_early_solve`` — the same passes, stopped above each level where
  a constraint can be eliminated: before that level's projections each
  of its links eliminates the multiplier blocks that have become safely
  invertible; blocks that stay singular ride to the base as in
  ``pv_solve``.  A schedule built once per layout
  (``PvWorkspace.early``) lists each level's candidates, the constraints
  with at least as many moving joints between their link and the
  eliminating one as they have rows.  Sibling subtrees hold disjoint
  rows, so a level's links eliminate together in rounds, each round
  one factor of the union of one block per link, and the
  back-substitution takes one solve per round.
* ``pv_soft_solve`` — the relaxed solve (``_relaxed``): K' R^-1 K is
  added inertia and -K' R^-1 beta_hat added bias, then inertia, bias,
  forward.
* ``constrained_aba`` — proximal method of multipliers: the relaxed
  solve with R = mu and the added bias -K' (beta_hat/mu + lam0), which
  is its first iteration, followed by conjugate-residual steps on the
  bias.  The passes are affine in the bias, so the residual is
  r0 + B y for the bias lam0 + y, where B v is the homogeneous bias and
  forward pass over the support with the bias -K' v
  (``_support_response``); each step runs one such pass, and links off
  the support are filled in once at exit.  lam0 is zero unless the
  caller passes a warm start (``integrate`` passes the previous RK4
  stage's lam).  The solve stops ``converged`` at ||r|| <= tol_primal,
  and ``least_squares`` when r has stopped falling and the multipliers
  without their component along r have stopped moving, both to within
  tol_primal/mu relative: r then lies in the null space of K', the rows
  are rank-deficient or infeasible, and qdd is the least-squares
  solution.  From lam0 = 0 the multipliers are then the minimum-norm
  ones, while a warm start keeps lam0's component in the null space of
  K', which qdd does not see.
* ``pv_osim`` and ``caba_osim`` run inertia and coupling without l;
  ``pv_osimr`` over rows compressed to six per link.

A constraint set enters as its stacked rows (``ConstraintSet.K``):
added terms are per-row terms summed into their links' entries of IA
and pA (``_add_rows``), and the residual reads K a row by row.

Gravity is applied by giving the world an acceleration of -g, so a
constraint target a* on true link acceleration becomes
``beta_hat = a* - K X_world g`` on sweep accelerations.

Each solve is single threaded; distinct workspaces may run concurrently
but one workspace must never be shared by two simultaneous solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import flops, linalg
from .errors import (DimensionMismatch, NotPositiveDefinite, SingularBaseInertia, SingularDual,
                     SingularJointInertia)
from .kinematics import KinematicsCache, forward_kinematics, velocity_products
from .model import ConstraintSet, Model, State, check_finite, check_state, check_vec

_ELIM_PIVOT_RATIO = 1e-6     # eagerness threshold for early elimination
_DUAL_PIVOT_RATIO = 1e-10    # base dual block counts as singular below this


@dataclass
class SolverSettings:
    """Knobs shared by the relaxed and proximal solvers."""

    mu: float = 1e-6
    soft_R: float | np.ndarray = 1e-6
    tol_primal: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        r = np.asarray(self.soft_R, dtype=float)
        if not (0 < self.mu < math.inf and 0 < self.tol_primal < math.inf
                and ((r > 0) & (r < math.inf)).all()):
            raise ValueError("mu, tol_primal and soft_R must be finite and positive")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer of at least 1")


@dataclass
class ConstrainedSolution:
    qdd: np.ndarray
    lam: np.ndarray
    iterations: int
    primal_residual: float
    status: str                   # converged | max_iter | least_squares
    # primal residual per iteration: K a - beta_hat as measured for the
    # first entry; constrained_aba's later entries are its conjugate-residual
    # recurrence's, which match the measured one to rounding but can fall
    # below the rounding floor that a measured residual cannot
    residual_history: tuple[float, ...] = ()


class _Sweep:
    """Buffers of the articulated passes, all that ``aba`` needs, in plan
    order (``Model.plan``) with vectors as (n,6,1) columns.  Below the
    root the joint factors are stacked: U = IA S and D^-1 with D = S' U
    (1 at a fixed joint).  Link 0 keeps its own U, factor of D and bias u."""

    def __init__(self, model: Model):
        n, nv0 = model.n_links, model.joints[0].nv
        self.IA = np.empty((n, 6, 6))
        self.IA_proj = np.empty((n, 6, 6))     # IA projected across each joint but the root
        self.pA = np.empty((n, 6, 1))
        self.U = np.zeros((n, 6, 1))
        self.U_t = self.U.swapaxes(1, 2)
        self.D_inv = np.ones((n, 1, 1))
        self.u = np.zeros((n, 1, 1))           # joint bias force
        self.root_U = self.root_D = None       # root_D: lower Cholesky factor of D
        self.root_u = np.zeros(nv0)
        self.acc = np.empty((n, 6, 1))
        self.qj = np.empty((n + nv0, 1, 1))    # joint accelerations, plan layout


class PvWorkspace(_Sweep):
    """Preallocated buffers and static row bookkeeping for one (model, cs).

    ``rows[i]`` lists the global constraint rows active in link i's
    subtree, in ascending order (``_carried_rows`` without a cap); its
    length is the m_i of the sweep.  ``con_pos`` and
    ``row_pos`` hold each constraint's and each row's link as a plan
    position.  The coupling pass holds K as one (m, 6) array indexed by
    constraint row and walks a ``_RowLayout``: ``full`` (every row),
    ``live(alive)`` (the rows not eliminated early, built once per
    pattern) or ``compressed`` (``pv_osimr``'s rows, built on first use,
    like ``early``, ``pv_early_solve``'s schedule).  Shapes and
    bookkeeping depend only on the model and each constraint's (link,
    dim) in order, so a workspace is reusable across solves and
    constraint sets with that layout; the rows' K come from the set on
    every call.
    """

    def __init__(self, model: Model, cs: ConstraintSet):
        n = model.n_links
        m = cs.m
        super().__init__(model)
        self.model = model
        self.layout = cs.layout
        plan = model.plan
        self.con_pos = plan.position[np.array([link for link, _ in self.layout], dtype=int)]
        self.row_pos = np.repeat(self.con_pos, [dim for _, dim in self.layout])
        self.n_con_links = len(set(self.con_pos.tolist()))
        self.rows = rows = _carried_rows(model, self.layout)[0]
        # links whose subtree holds a constraint, and the others, in index
        # order, as levels and as plan positions
        self.support = tuple(i for i in range(n) if rows[i].size)
        self.off_support = tuple(i for i in range(n) if not rows[i].size)
        self.support_levels = plan.levels_of(self.support)
        self.off_levels = plan.levels_of(self.off_support)
        self.support_pos = plan.position[np.array(self.support, dtype=int)]
        self.off_pos = plan.position[np.array(self.off_support, dtype=int)]
        # the support's slots in the plan layout of joint vectors (the root's
        # dofs in place of its padding slot 0), and its links with a child
        # off it, as plan positions
        self.support_slots = np.append(self.support_pos[self.support_pos > 0],
                                       n + np.arange(model.joints[0].nv if self.support else 0))
        frontier = np.zeros(n + 1, dtype=bool)     # the root's parent -1 lands in the spare slot
        frontier[plan.parent[self.off_pos]] = True
        frontier[self.off_pos] = False
        self.frontier_pos = np.flatnonzero(frontier[:n])
        self.da = np.empty((n, 6, 1))
        self.dqj = np.empty_like(self.qj)
        self.K = np.empty((m, 6))
        self.L = np.empty((m, m))
        self.full = _RowLayout(_coupling_levels(plan, rows, self.support), (), self.K, self.L)
        self._live = {np.ones(m, dtype=bool).tobytes(): self.full}
        self.l = np.empty(m)
        self.lam = np.empty(m)
        self.beta = np.empty(m)
        self.resid = np.empty(m)
        # per level of the coupling pass, its K_S and rows for the forward pass
        self.ks: list = [None] * len(plan.sweep)
        self.counters: dict = {}

    @staticmethod
    def ensure(model: Model, cs: ConstraintSet, ws: "PvWorkspace | None"):
        if ws is None or ws.model is not model or ws.layout != cs.layout:
            return PvWorkspace(model, cs)
        return ws

    def live(self, alive: np.ndarray) -> "_RowLayout":
        """The layout of the rows `alive` (not eliminated early), built once per pattern."""
        key = alive.tobytes()
        if key not in self._live:
            rows = [r[alive[r]] for r in self.rows]
            self._live[key] = _RowLayout(_coupling_levels(self.model.plan, rows, self.support),
                                         (), self.K, self.L)
        return self._live[key]

    @cached_property
    def compressed(self) -> "_RowLayout":
        rows, swaps = _carried_rows(self.model, self.layout, 6)
        mm = self.K.shape[0] + 6 * len(swaps)
        return _RowLayout(_coupling_levels(self.model.plan, rows, self.support),
                          tuple(reversed(swaps)), np.empty((mm, 6)), np.empty((mm, mm)))

    @cached_property
    def early(self) -> tuple:
        """``pv_early_solve``'s schedule: an ``_EarlyLevel`` per level of
        ``Model.plan.sweep`` (None where no link has a candidate).

        With d(i) the number of moving joints on link i's root path, a
        constraint of `dim` rows on link c is a candidate at its ancestor i
        only if d(c) - d(i) >= dim: before i's projection its block of L is
        a sum of one rank-one term per moving joint passed, and the Schur
        update of an earlier elimination cannot raise its rank.
        """
        plan = self.model.plan
        d = np.zeros(len(plan.order), dtype=int)
        for lv in plan.sweep[1:]:
            d[lv.links] = d[lv.parents] + (plan.fixed[lv.links, 0, 0] == 0.0)
        dims = np.array([dim for _, dim in self.layout], dtype=int)
        starts = np.cumsum(dims) - dims
        # each constraint at its link and at each ancestor: the links whose
        # rows hold its first row
        row = np.concatenate(self.rows)
        at = np.repeat(plan.position, [r.size for r in self.rows])
        first = np.isin(row, starts)
        con, at = np.searchsorted(starts, row[first]), at[first]
        keep = d[self.con_pos[con]] - d[at] >= dims[con]
        con, at = con[keep], at[keep]
        # a level's links in descending index order, as the coupling pass
        # lists them, and each link's candidates in constraint order
        by = np.lexsort((con, -plan.order[at]))
        con, at = con[by], at[by]
        levels: list = [None] * len(plan.sweep)
        for k in np.unique(plan.depth[at]).tolist():
            here = plan.depth[at] == k
            levels[k] = _EarlyLevel.of(self.rows, plan.order, at[here], con[here], starts, dims)
        return tuple(levels)


class _EarlyLevel(NamedTuple):
    """The early-elimination candidates of one level, in the order they
    are tried: each candidate's link (its index into the level's links
    that have candidates), plan position, rows and first row; each such
    link's rows, also one after another (``scale_rows``, split at
    ``scale_at``); and the rounds built so far for each set of live
    candidates (``rounds_of``)."""

    link: list[int]
    pos: list[int]
    rows: list[np.ndarray]
    first: list[int]
    link_rows: list[np.ndarray]
    scale_rows: np.ndarray
    scale_at: np.ndarray
    rounds: dict

    @staticmethod
    def of(rows, order, at, con, starts, dims) -> "_EarlyLevel":
        # a link's candidates are adjacent
        new = np.r_[True, at[1:] != at[:-1]]
        link_rows = [rows[i] for i in order[at[new]].tolist()]
        first = starts[con].tolist()
        return _EarlyLevel((np.cumsum(new) - 1).tolist(), at.tolist(),
                           [np.arange(f, f + dims[c]) for f, c in zip(first, con.tolist())],
                           first, link_rows, np.concatenate(link_rows),
                           np.cumsum([0] + [r.size for r in link_rows[:-1]]), {})

    def rounds_of(self, live: tuple) -> list["_RoundPlan"]:
        """The rounds that try the candidates `live`: round r takes each
        link's r-th."""
        if live not in self.rounds:
            rounds: list[list[int]] = []
            seen: dict[int, int] = {}
            for c in live:
                r = seen[self.link[c]] = seen.get(self.link[c], -1) + 1
                if r == len(rounds):
                    rounds.append([])
                rounds[r].append(c)
            self.rounds[live] = [_RoundPlan.of(self, tuple(cands)) for cands in rounds]
        return self.rounds[live]


class _RoundPlan(NamedTuple):
    """What a round of early eliminations takes from the layout: its
    candidates; the index grid of their block of L (``grid[1]`` lists their
    rows one block after another), each block's span in it and its link
    (an index into the level's scales), the blocks' sizes and the flops
    of trying them; the links' plan positions (one int for one block) and
    rows (``link_rows``, one link's starting at each of ``link_at``); and,
    for more than one block, the (blocks, 1, rows) mask of each block's
    own rows and each row's link (``pos_rows``)."""

    cands: tuple
    grid: tuple
    spans: list[tuple[int, int, int]]
    dims: list[int]
    tries: int
    pos: int | np.ndarray
    link_rows: np.ndarray
    link_at: np.ndarray
    own: np.ndarray | None
    pos_rows: int | np.ndarray

    @staticmethod
    def of(sched: _EarlyLevel, cands: tuple) -> "_RoundPlan":
        dims = [sched.rows[c].size for c in cands]
        links = [sched.link[c] for c in cands]
        pos = [sched.pos[c] for c in cands]
        at = np.cumsum([0] + dims).tolist()
        rows = np.concatenate([sched.rows[c] for c in cands])
        link_rows = [sched.link_rows[k] for k in links]
        one = len(cands) == 1
        return _RoundPlan(cands, (rows[:, None], rows), list(zip(at, at[1:], links)), dims,
                          sum(flops.cholesky(d) for d in dims),
                          pos[0] if one else np.array(pos), np.concatenate(link_rows),
                          np.cumsum([0] + [r.size for r in link_rows[:-1]]),
                          None if one else np.repeat(np.eye(len(cands)), dims, axis=1)[:, None],
                          pos[0] if one else np.repeat(pos, dims))


def _carried_rows(model: Model, layout, cap: int | None = None):
    """The constraint rows each link's coupling step carries, ascending,
    bottom-up from the constraint `layout`: its own and its children's,
    the rows of the constraints in its subtree.  With `cap` (``pv_osimr``'s
    compressed rows) a link below the root with more than `cap` carries
    `cap` fresh rows (numbered from m up) instead.  Returns the rows by
    link index and those links' (replaced, fresh)."""
    rows: list[list[int]] = [[] for _ in range(model.n_links)]
    top = 0
    for link, dim in layout:
        rows[link] += range(top, top + dim)
        top += dim
    swaps = []
    for i in range(model.n_links - 1, -1, -1):
        for c in model.children[i]:
            rows[i] += rows[c]
        rows[i].sort()
        if cap is not None and i and len(rows[i]) > cap:
            swaps.append((np.array(rows[i]), np.arange(top, top + cap)))
            rows[i], top = list(range(top, top + cap)), top + cap
    return [np.array(r, dtype=int) for r in rows], swaps


class _RowLayout(NamedTuple):
    """The rows a coupling pass walks: ``coupling`` holds a ``_LevelRows``
    per level of ``Model.plan.sweep`` (None where the level carries no
    row), and the pass works on ``K`` and ``L``.  In ``pv_osimr``'s
    compressed layout a link below the root with more than 6 rows R
    carries 6 fresh rows V, seeded with K = I, instead.  The pass leaves
    C = K[R] in its frame, and above it R's rows of K are C times V's, so
    ``swaps`` ((R, V), ancestors first) expand L; Lambda is L[:m, :m].
    The other layouts have no swaps and share the workspace's K and L."""

    coupling: tuple
    swaps: tuple
    K: np.ndarray
    L: np.ndarray


class _LevelRows(NamedTuple):
    """The constraint rows of one level's support links, in ascending
    order: each row with its link's plan position and its link's offset
    in the level.  ``block`` is L's rows x rows block (``_block``) and
    ``same`` masks its same-link pairs with 1 and the others with 0 on a
    level of more than one support link (None on a level of one, where
    every pair is); the counts are of rows and of same-link row pairs at
    moving joints."""

    rows: np.ndarray
    pos: np.ndarray
    off: np.ndarray
    block: tuple
    same: np.ndarray | None
    n_moving: int
    n_pairs: int


def _coupling_levels(plan, rows: list[np.ndarray], support) -> tuple:
    """A ``_LevelRows`` per level of ``plan.sweep`` (None where the level
    holds no row of `rows`), as views of arrays built for all levels at
    once.  Whether a level has one support link or more decides ``same``,
    whether or not each of them still holds rows."""
    levels: list = [None] * len(plan.sweep)
    link_pos = np.sort(plan.position[list(support)])
    links = plan.order[link_pos].tolist()
    sizes = [rows[i].size for i in links]
    if not sum(sizes):
        return tuple(levels)
    row_of = np.concatenate([rows[i] for i in links])
    pos = np.repeat(link_pos, sizes)
    depth = plan.depth[pos]
    # each level's rows in ascending order (a link's rows already are), so
    # that a level holding one run of rows takes its block of L as slices
    at = np.lexsort((row_of, depth))
    row_of, pos, link_rows = row_of[at], pos[at], np.repeat(sizes, sizes)[at]
    off = pos - np.searchsorted(plan.depth, depth)
    moving = plan.fixed[pos, 0, 0] == 0.0
    # running counts of moving rows and of the pairs they start
    n_moving = [0] + np.cumsum(moving).tolist()
    n_pairs = [0] + np.cumsum(np.where(moving, link_rows, 0)).tolist()
    levels_at = np.arange(depth[-1] + 2)
    bounds = np.searchsorted(depth, levels_at).tolist()
    link_bounds = np.searchsorted(plan.depth[link_pos], levels_at).tolist()
    for d, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if lo < hi:
            r = slice(lo, hi)
            one = link_bounds[d + 1] - link_bounds[d] == 1
            same = None if one else (off[r, None] == off[r]).astype(float)
            levels[d] = _LevelRows(row_of[r], pos[r], off[r], _block(row_of[r]), same,
                                   n_moving[hi] - n_moving[lo], n_pairs[hi] - n_pairs[lo])
    return tuple(levels)


def _block(rows: np.ndarray) -> tuple:
    """L's rows x rows block: slices where `rows` ascend in one run, else
    an index grid."""
    r = rows.tolist()
    run = slice(r[0], r[-1] + 1)
    return (run, run) if r == list(range(r[0], r[-1] + 1)) else (rows[:, None], rows)


def _setup(model: Model, state: State, tau, cs: ConstraintSet, ws: PvWorkspace | None,
           cache: KinematicsCache | None):
    """Every solver's and Delassus producer's workspace, kinematics cache
    (forward kinematics unless given; the state is checked once) and tau."""
    ws = PvWorkspace.ensure(model, cs, ws)
    if cache is None:
        cache = forward_kinematics(model, state)
    else:
        check_state(model, state)
    return ws, cache, None if tau is None else check_vec(model, tau, "tau")


def _beta_hat(model: Model, cache: KinematicsCache, cs: ConstraintSet,
              out: np.ndarray) -> np.ndarray:
    """Constraint targets shifted into gravity-trick sweep coordinates."""
    g = (cache.w_rot[cs.links] @ model.gravity)[cs.row_con]
    np.subtract(cs.stacked_targets(), (cs.K[:, 3:] * g).sum(1), out=out)
    flops.add(len(cs) * flops.XMOT + flops.gemm(cs.m, 6, 1))
    return out


def _slots(model: Model, x: np.ndarray) -> np.ndarray:
    """A dof vector in the plan layout of joint vectors (0 at fixed joints)."""
    return np.append(x, 0.0)[model.plan.slot_dof, None, None]


def _dofs(model: Model, xj: np.ndarray) -> np.ndarray:
    return xj[model.plan.dof_slot, 0, 0]


def _add_rows(ws: PvWorkspace, buf: np.ndarray, terms: np.ndarray) -> None:
    """Add per-row terms (added inertia or bias, one product of a row of
    K each) into their links' entries of a plan-order buffer, charged as
    those products and one sum per constrained link."""
    np.add.at(buf, ws.row_pos, terms)
    flops.add(buf[0].size * (2 * len(terms) + ws.n_con_links))


# per-link flops of a 1-dof joint below the root: its factors and IA_proj,
# its bias and projected bias, and its acceleration
_JOINT_FACTOR = flops.gemm(6, 6, 1) + flops.gemm(1, 6, 1) + flops.cholesky(1) \
    + flops.chol_solve(1, 6) + flops.gemm(6, 1, 6)
_JOINT_BIAS = 11 + flops.gemm(6, 1, 1) + flops.chol_solve(1) + flops.ADD6
_JOINT_ACC = flops.gemm(1, 6, 1) + flops.chol_solve(1) + 6 + flops.ADD6


# ---------------------------------------------------------------------------
# the passes: one array step per level, and a per-link step at the root


def _inertia_pass(model: Model, cache: KinematicsCache, ws: _Sweep, levels) -> None:
    """IA, the joint factors and IA_proj over `levels`, children first.

    ``ws.IA`` holds each link's own inertia (plus any added inertia) on
    entry; each link's projection is pushed into its parent.  The factors
    do not depend on tau or lambda, so any number of bias and forward
    passes can reuse them.  A singular joint-space block raises
    SingularBaseInertia at a floating base and SingularJointInertia
    anywhere else.
    """
    plan = model.plan
    work = 0
    for lv in reversed(levels):
        sl = lv.links
        if lv.parents is None:
            work += _root_inertia(model, ws)
            continue
        ia = ws.IA[sl]
        ws.U[sl] = uu = ia @ plan.S[sl]
        d = plan.ST[sl] @ uu + plan.fixed[sl]
        if d.min() <= 0.0:
            joint = plan.order[sl][np.argmax(d[:, 0, 0] <= 0.0)]
            raise SingularJointInertia(f"joint {joint} inertia is singular")
        ws.D_inv[sl] = inv = 1.0 / d
        ws.IA_proj[sl] = proj = ia - uu * (uu.swapaxes(1, 2) * inv)
        push = cache.xm_t[sl] @ proj @ cache.xm[sl]
        lv.scatter(ws.IA, 0.5 * (push + push.swapaxes(1, 2)))
        work += lv.moving * _JOINT_FACTOR + lv.size * (flops.XINERTIA + 36)
    flops.add(work)


def _root_inertia(model: Model, ws: _Sweep) -> int:
    ia, nv = ws.IA[0], model.joints[0].nv
    ws.root_U = ws.root_D = None
    if not nv:
        return 0
    s = model.S[0]
    uu = ia @ s
    try:
        dfac = linalg._factor(s.T @ uu)
    except NotPositiveDefinite:
        if model.base_kind == "floating":
            raise SingularBaseInertia(
                "floating-base articulated inertia is singular") from None
        raise SingularJointInertia("joint 0 inertia is singular") from None
    ws.root_U, ws.root_D = uu, dfac
    return flops.gemm(6, 6, nv) + flops.gemm(nv, 6, nv) + flops.cholesky(nv)


def _bias_pass(model: Model, cache: KinematicsCache, ws: _Sweep, levels,
               tau: np.ndarray | None = None) -> None:
    """Joint biases u and articulated biases pA over `levels`, children first.

    ``ws.pA`` holds each link's own bias on entry: the velocity products
    plus any added bias.  With `tau` (in the plan layout of ``_slots``)
    this is the bias recursion of the articulated-body algorithm, pushing
    pA + IA_proj c + U D^-1 u into each parent.  Without it the pass is
    homogeneous (no tau, no c): with fixed factors the bias and forward
    passes are affine in the bias, so the pass gives the change that the
    bias in ``ws.pA`` makes, provided `levels` hold the root paths of the
    links carrying it.  At the root only the joint bias is formed, since
    no pass reads a projected base bias.
    """
    plan = model.plan
    work = 0
    for lv in reversed(levels):
        sl = lv.links
        if lv.parents is None:
            work += _root_bias(model, ws, tau)
            continue
        pa = ws.pA[sl]
        su = plan.ST[sl] @ pa
        if tau is None:
            u = -su
        else:
            u = tau[sl] - su
            pa = pa + ws.IA_proj[sl] @ cache.c[sl]
            work += lv.size * flops.APPLY_I + lv.moving * flops.ADD6
        ws.u[sl] = u
        pa = pa + ws.U[sl] * (u * ws.D_inv[sl])
        lv.scatter(ws.pA, cache.xm_t[sl] @ pa)
        work += lv.moving * _JOINT_BIAS + lv.size * (flops.XFORCE_T + flops.ADD6)
    flops.add(work)


def _root_bias(model: Model, ws: _Sweep, tau: np.ndarray | None) -> int:
    nv = model.joints[0].nv
    if nv:
        su = model.S[0].T @ ws.pA[0, :, 0]
        ws.root_u = -su if tau is None else tau[model.n_links:, 0, 0] - su
    return 11 * nv


def _forward_pass(model: Model, cache: KinematicsCache, ws: _Sweep, levels,
                  lam: np.ndarray | None = None, elim: list | None = None,
                  change: bool = False) -> None:
    """Link and joint accelerations over `levels`, parents first.

    The full form starts from the world's acceleration -g, adds each
    link's c and writes ``ws.acc`` and ``ws.qj``; `lam` adds the coupling
    term K_S' lam that the coupling pass left at the support links of
    the levels (`levels` is then ``Model.plan.sweep``) and `elim`
    back-substitutes the rows eliminated early there.  With `change` it
    is the homogeneous form of the bias pass's: from rest, without c,
    into ``ws.da`` and ``ws.dqj`` (each link's parent in the levels or
    already done).
    """
    plan = model.plan
    acc, qj = (ws.da, ws.dqj) if change else (ws.acc, ws.qj)
    work = 0
    for k, lv in enumerate(levels):
        sl = lv.links
        coupled = None if lam is None else ws.ks[k]
        if lv.parents is None:
            work += _root_forward(model, cache, ws, lam, coupled, change)
        else:
            a_in = cache.xm[sl] @ acc[lv.parents]
            if not change:
                a_in += cache.c[sl]
            t = ws.u[sl] - ws.U_t[sl] @ a_in
            if coupled is not None:
                ks, rows, off, n_moving = coupled
                t[:, 0, 0] += np.bincount(off, ks * lam[rows], minlength=lv.size)
                work += 2 * n_moving
            qj[sl] = q = t * ws.D_inv[sl]
            acc[sl] = a_in + plan.S[sl] * q
            work += lv.size * (flops.XMOT + (0 if change else flops.ADD6)) \
                + lv.moving * _JOINT_ACC
        for rec in reversed(elim[k]) if elim else ():
            a = acc[rec.pos, :, 0]
            rhs = (rec.K @ a if a.ndim == 1 else (rec.K * a).sum(1)) + rec.l_j
            if rec.other_rows.size:
                rhs += rec.L_jo @ lam[rec.other_rows]
            lam[rec.rows] = -linalg._solve(rec.low, rhs)
            work += rec.work
    flops.add(work)


def _root_forward(model: Model, cache: KinematicsCache, ws: _Sweep,
                  lam: np.ndarray | None, coupled: tuple | None, change: bool) -> int:
    acc, qj = (ws.da, ws.dqj) if change else (ws.acc, ws.qj)
    if change:
        a_in, work = np.zeros(6), 0
    else:
        a_in = cache.xm[0] @ -model.gravity6() + cache.c[0, :, 0]
        work = flops.XMOT + flops.ADD6
    nv = model.joints[0].nv
    if nv:
        t = ws.root_u - ws.root_U.T @ a_in
        if coupled is not None:
            ks, rows = coupled
            t = t + ks.T @ lam[rows]
            work += flops.gemm(nv, rows.size, 1)
        qj[model.n_links:, 0, 0] = blk = linalg._solve(ws.root_D, t)
        a_in = a_in + model.S[0] @ blk
        work += flops.gemm(nv, 6, 1) + flops.chol_solve(nv) + 6 * nv + flops.ADD6
    acc[0, :, 0] = a_in
    return work


def _own_terms(model: Model, cache: KinematicsCache, ws: _Sweep) -> None:
    """Each link's own inertia and velocity-product bias into ``ws.IA`` and ``ws.pA``."""
    np.copyto(ws.IA, model.plan.inertia66)
    ws.pA[:, :, 0] = velocity_products(model, cache)[model.plan.order]


def _aba(model: Model, cache: KinematicsCache, ws: _Sweep, tau: np.ndarray) -> np.ndarray:
    """Inertia, bias and forward pass over the whole tree from the terms
    in ``ws.IA`` and ``ws.pA``; returns qdd (link accelerations in ``ws.acc``)."""
    plan = model.plan
    _inertia_pass(model, cache, ws, plan.sweep)
    _bias_pass(model, cache, ws, plan.sweep, _slots(model, tau))
    _forward_pass(model, cache, ws, plan.sweep)
    return _dofs(model, ws.qj)


def _residual(cs: ConstraintSet, ws: PvWorkspace) -> float:
    """K a - beta_hat into ``ws.resid`` from the accelerations in ``ws.acc``
    and beta_hat in ``ws.beta``; returns its norm."""
    a = ws.acc[ws.con_pos, :, 0]
    np.subtract((cs.K * a[cs.row_con]).sum(1), ws.beta, out=ws.resid)
    flops.add(flops.gemm(cs.m, 6, 1))
    return float(np.linalg.norm(ws.resid))


# ---------------------------------------------------------------------------
# constraint coupling


class _Round(NamedTuple):
    """One round of early eliminations at a level: a constraint's block
    of rows at each of some of its links, solved out together.  ``rows``
    lists the blocks one after another and ``pos`` gives their links'
    plan positions, one per row (an int for a round of one block);
    ``low`` is the block-diagonal factor of their block of L, and ``K``,
    ``l_j`` and ``L_jo`` their rows of K, l and L (over the rows still
    coupled at their links, ``other_rows``) at elimination.  ``work`` is
    the flops of the back-substitution."""

    rows: np.ndarray
    pos: int | np.ndarray
    low: np.ndarray
    K: np.ndarray
    l_j: np.ndarray
    other_rows: np.ndarray
    L_jo: np.ndarray
    work: int


def _pivots_pass(piv: list, diag: list, ratio: float, scale: float) -> bool:
    """The pivot rule: a block (diagonal `diag`) is comfortably PD if its
    factor's smallest pivot squared is at least `ratio` times max(diag,
    `scale`); without `scale`, the largest dual diagonal of the system
    around it, a tiny-but-positive block would pass its own test."""
    return min(piv) ** 2 >= ratio * max(max(diag), scale)


def _try_chol(block: np.ndarray, ratio: float, scale: float = 0.0):
    """Cholesky factor if the block passes the pivot rule, else None."""
    low = linalg._factor_or_none(block)
    if low is None or not _pivots_pass(low.diagonal().tolist(), block.diagonal().tolist(),
                                       ratio, scale):
        return None
    return low


def _seed_coupling(cs: ConstraintSet, ws, beta: np.ndarray | None = None) -> None:
    """Each constraint's K into its rows of ``ws.K`` (a workspace or a
    ``_RowLayout``, whose fresh rows past m take K = I by blocks of six),
    L = 0, l = -beta."""
    ws.K[:cs.m] = cs.K
    ws.K[cs.m:].reshape(-1, 6, 6)[:] = np.eye(6)
    ws.L[:] = 0.0
    if beta is not None:
        ws.l[:] = -beta


def _rows_times(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row of k times x: one (6, j) block for all rows, or an
    (r, 6, j) stack with one block per row."""
    return k @ x if x.ndim == 2 else (k[:, None, :] @ x)[:, 0]


def _coupling_pass(model: Model, cache: KinematicsCache, ws: PvWorkspace, levels,
                   lay: _RowLayout, with_l: bool = True) -> None:
    """K, L and optionally l over `levels` (indices into ``Model.plan.sweep``,
    children first) and the rows of `lay`.

    Runs after the inertia pass, and after the bias pass if `with_l`, on
    the same levels.  A level step takes each of its rows of K from its
    link's frame into its parent's, and at the base into the world frame
    if `with_l`.  Per same-link pair of rows it adds to the level's block
    of L; a row eliminated early is not in ``ws.live``'s layout, so its
    diagonal of L keeps the value that ``_eliminate`` scales its pivot
    tests by.
    """
    plan = model.plan
    K, L = lay.K, lay.L
    work = 0
    for k in levels:
        lr = lay.coupling[k]
        ws.ks[k] = None
        if lr is None:
            continue
        rows, pos, off, block, same, n_moving, n_pairs = lr
        if plan.sweep[k].parents is None:
            work += _root_coupling(model, cache, ws, K, L, k, rows, with_l)
            continue
        # a level of one support link (each level of a chain) takes its
        # blocks as 2-D products, which round as a per-link sweep does
        sel, idx = block[1], (pos[0] if same is None else pos)
        ka = K[sel]
        ks = _rows_times(ka, plan.S[idx])[:, 0]
        w = ks * ws.D_inv[idx, 0, 0]
        L[block] += w[:, None] * ks if same is None else w[:, None] * ks * same
        if with_l:
            c = cache.c[idx]
            uc = (ws.U_t[idx] @ c)[..., 0, 0]
            ws.l[sel] += _rows_times(ka, c)[:, 0] + w * (ws.u[idx, 0, 0] - uc)
        K[sel] = _rows_times(ka - w[:, None] * ws.U[idx, :, 0], cache.xm[idx])
        ws.ks[k] = (ks, rows, off, n_moving)
        work += n_moving * (26 + (14 if with_l else 0)) + 2 * n_pairs \
            + flops.XFORCE_T * rows.size
    flops.add(work)


def _root_coupling(model: Model, cache: KinematicsCache, ws: PvWorkspace, K: np.ndarray,
                   L: np.ndarray, k: int, rows: np.ndarray, with_l: bool) -> int:
    ka, r, nv = K[rows], rows.size, model.joints[0].nv
    work = 0
    if nv:
        ks = ka @ model.S[0]
        w = linalg._solve(ws.root_D, ks.T).T
        L[rows[:, None], rows] += w @ ks.T
        ws.ks[k] = (ks, rows)
        work += flops.gemm(r, 6, nv) + flops.chol_solve(nv, r) + flops.gemm(r, nv, r)
        if with_l:
            c = cache.c[0, :, 0]
            ws.l[rows] += ka @ c + w @ (ws.root_u - ws.root_U.T @ c)
            ka = ka - w @ ws.root_U.T
            work += flops.gemm(r, 6, 1) + flops.gemm(r, nv, 1) + flops.gemm(r, nv, 6)
    # K in the world frame only feeds the base solve's gravity term
    if with_l:
        K[rows] = ka @ cache.xm[0]
        work += flops.XFORCE_T * r
    return work


def _backward(model: Model, cache: KinematicsCache, ws: PvWorkspace, tau: np.ndarray,
              levels: range, lay: _RowLayout) -> None:
    """The inertia, bias and coupling passes over `levels` (a range of
    ``Model.plan.sweep``), children first, the last over the rows of `lay`."""
    if levels:
        run = model.plan.sweep[levels.start:levels.stop]
        _inertia_pass(model, cache, ws, run)
        _bias_pass(model, cache, ws, run, tau)
        _coupling_pass(model, cache, ws, levels[::-1], lay)


def _eliminate(ws: PvWorkspace, sched: _EarlyLevel, live: tuple, alive: np.ndarray,
               done: list[_Round]) -> None:
    """Early elimination at the links of one level (before their
    projections): every coupled constraint block of the schedule that has
    become safely invertible is solved out of L and l into IA, pA and the
    other rows, and each round of eliminations is appended to `done`.
    `live` lists the candidates still coupled.

    Sibling subtrees hold disjoint rows, and L couples no two of them, so
    the links work together in rounds: round r tries the r-th candidate in
    `live` of each link, as one factor of the block-diagonal union of their
    blocks, and eliminates those that pass together.  No pass reads an
    eliminated row of L or l again, so they keep their values: each pivot
    test is scaled by the largest diagonal of its link's rows at the
    level, eliminated ones included, and the roundoff that a duplicated
    row leaves once its twin is eliminated fails it.
    """
    L = ws.L
    scale = np.maximum.reduceat(L.diagonal()[sched.scale_rows], sched.scale_at).tolist()
    eliminated = []
    work = 0
    for rp in sched.rounds_of(live):
        work += rp.tries
        block = L[rp.grid]
        low = linalg._factor_or_none(block)
        if low is None:
            ok = [_try_chol(block[i:j, i:j], _ELIM_PIVOT_RATIO, scale[k]) is not None
                  for i, j, k in rp.spans]
        else:
            piv, diag = low.diagonal().tolist(), block.diagonal().tolist()
            ok = [_pivots_pass(piv[i:j], diag[i:j], _ELIM_PIVOT_RATIO, scale[k])
                  for i, j, k in rp.spans]
        if not all(ok):
            cands = tuple(c for c, keep in zip(rp.cands, ok) if keep)
            if not cands:
                continue
            rp = _RoundPlan.of(sched, cands)
            low = linalg._factor(L[rp.grid])
        rj = rp.grid[1]
        alive[rj] = False
        keep = alive[rp.link_rows]
        others = rp.link_rows[keep]
        kj, lj, ljo = ws.K[rj], ws.l[rj], L[rp.grid[0], others]
        x = linalg._solve(low, np.concatenate((kj, lj[:, None], ljo), axis=1))
        # each link's added inertia and bias, from its own block's rows; a
        # round of one block (each round on a chain) takes 2-D products
        if rp.own is None:
            ws.IA[rp.pos] += kj.T @ x[:, :6]
            ws.pA[rp.pos, :, 0] += kj.T @ x[:, 6]
        else:
            add = (kj.T * rp.own) @ x[:, :7]
            ws.IA[rp.pos] += add[:, :, :6]
            ws.pA[rp.pos, :, 0] += add[:, :, 6]
        if others.size:
            upd = ljo.T @ x
            ws.K[others] -= upd[:, :6]
            ws.l[others] -= upd[:, 6]
            L[others[:, None], others] -= upd[:, 7:]
        back = 0
        for dim, o in zip(rp.dims, np.add.reduceat(keep, rp.link_at).tolist()):
            work += flops.chol_solve(dim, 7 + o) + flops.gemm(6, dim, 7) + flops.gemm(o, dim, 7 + o)
            back += flops.gemm(dim, o + 6, 1) + flops.chol_solve(dim)
        done.append(_Round(rj, rp.pos_rows, low, kj, lj, others, ljo, back))
        eliminated += rp.cands
    ws.counters["dual_factor_dims"] += [sched.rows[c].size for c in sorted(eliminated)]
    flops.add(work)


# ---------------------------------------------------------------------------
# exact solvers


def _exact(model: Model, cache: KinematicsCache, tau: np.ndarray, cs: ConstraintSet,
           ws: PvWorkspace, early: bool) -> ConstrainedSolution:
    beta = _beta_hat(model, cache, cs, ws.beta)
    _own_terms(model, cache, ws)
    tau = _slots(model, tau)
    _seed_coupling(cs, ws, beta)
    lam = ws.lam
    lam[:] = 0.0
    alive = np.ones(cs.m, dtype=bool)
    ws.counters = {"base_dual_dim": 0, "dual_factor_dims": []}

    sweep = model.plan.sweep
    elim: list[list[_Round]] = [[] for _ in sweep]
    # the passes run over runs of levels, children first; with early
    # elimination a run ends above each level that still has a coupled
    # candidate, which eliminates before its projections
    end = len(sweep)
    for k in reversed(range(len(sweep))) if early else ():
        sched = ws.early[k]
        live = tuple(c for c, first in enumerate(sched.first) if alive[first]) if sched else ()
        if live:
            _backward(model, cache, ws, tau, range(k + 1, end), ws.live(alive))
            _eliminate(ws, sched, live, alive, elim[k])
            end = k + 1
    _backward(model, cache, ws, tau, range(end), ws.live(alive))

    # dense dual solve for the rows that reached the base, scaled as in _eliminate
    act = alive.nonzero()[0]
    ws.counters["base_dual_dim"] = int(act.size)
    if act.size:
        rhs = -(ws.l[act] + ws.K[act] @ -model.gravity6())
        low = _try_chol(ws.L[act[:, None], act], _DUAL_PIVOT_RATIO,
                        float(ws.L.diagonal().max()))
        flops.add(flops.gemm(act.size, 6, 1) + flops.cholesky(act.size))
        if low is None:
            raise SingularDual(
                "dual system is singular (rank-deficient constraint rows); "
                "constrained_aba handles such systems in a least-squares sense")
        lam[act] = linalg.chol_solve(low, rhs)

    _forward_pass(model, cache, ws, sweep, lam, elim)
    qdd = _dofs(model, ws.qj)

    resid = _residual(cs, ws)
    return ConstrainedSolution(qdd, lam.copy(), 1, resid, "converged", (resid,))


def pv_solve(model: Model, state: State, tau, cs: ConstraintSet,
             ws: PvWorkspace | None = None,
             cache: KinematicsCache | None = None) -> ConstrainedSolution:
    """Exact constrained dynamics with base-level multiplier solve."""
    ws, cache, tau = _setup(model, state, tau, cs, ws, cache)
    return _exact(model, cache, tau, cs, ws, False)


def pv_early_solve(model: Model, state: State, tau, cs: ConstraintSet,
                   ws: PvWorkspace | None = None,
                   cache: KinematicsCache | None = None) -> ConstrainedSolution:
    """Exact constrained dynamics with aggressive early multiplier elimination."""
    ws, cache, tau = _setup(model, state, tau, cs, ws, cache)
    return _exact(model, cache, tau, cs, ws, True)


# ---------------------------------------------------------------------------
# relaxed and proximal solvers


def _relaxed(model: Model, cache: KinematicsCache, cs: ConstraintSet, ws: PvWorkspace,
             tau: np.ndarray, weights: np.ndarray,
             lam0: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """The relaxed solve with R = diag(`weights`): K' R^-1 K added inertia,
    -K' (R^-1 beta_hat + lam0) added bias, the whole-tree sweep and the
    residual K a - beta_hat in ``ws.resid``.  Returns qdd and the residual
    norm."""
    beta = _beta_hat(model, cache, cs, ws.beta)
    kw = cs.K / weights[:, None]
    _own_terms(model, cache, ws)
    _add_rows(ws, ws.IA, kw[:, :, None] * cs.K[:, None, :])
    bias = -beta / weights
    if lam0 is not None:
        bias -= lam0
        flops.add(cs.m)
    _add_rows(ws, ws.pA[:, :, 0], cs.K * bias[:, None])
    qdd = _aba(model, cache, ws, tau)
    return qdd, _residual(cs, ws)


def pv_soft_solve(model: Model, state: State, tau, cs: ConstraintSet,
                  settings: SolverSettings | None = None,
                  ws: PvWorkspace | None = None,
                  cache: KinematicsCache | None = None) -> ConstrainedSolution:
    """Relaxed constrained dynamics in one sweep (no dual system at all)."""
    settings = settings or SolverSettings()
    ws, cache, tau = _setup(model, state, tau, cs, ws, cache)
    weights = np.broadcast_to(np.asarray(settings.soft_R, dtype=float), (cs.m,))
    qdd, rnorm = _relaxed(model, cache, cs, ws, tau, weights)
    lam = -ws.resid / weights
    flops.add(2 * cs.m)
    return ConstrainedSolution(qdd, lam, 1, rnorm, "converged", (rnorm,))


def _support_response(model: Model, cache: KinematicsCache, cs: ConstraintSet,
                      ws: PvWorkspace, v: np.ndarray) -> np.ndarray:
    """B v = K da: the change in the residual that the added bias -K' v
    makes, swept over the support into ``ws.da`` and ``ws.dqj``.  With
    the inertia of the relaxed solve, B = Lambda (I + Lambda/mu)^-1 is
    symmetric PSD with eigenvalues below mu."""
    ws.pA[ws.support_pos] = 0.0
    _add_rows(ws, ws.pA[:, :, 0], cs.K * -v[:, None])
    _bias_pass(model, cache, ws, ws.support_levels)
    _forward_pass(model, cache, ws, ws.support_levels, change=True)
    flops.add(flops.gemm(cs.m, 6, 1))
    return (cs.K * ws.da[ws.con_pos, :, 0][cs.row_con]).sum(1)


def _min_norm(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """`w` without its component along `r`."""
    flops.add(6 * r.size)
    return w - (r @ w) / (r @ r) * r


def constrained_aba(model: Model, state: State, tau, cs: ConstraintSet,
                    settings: SolverSettings | None = None,
                    ws: PvWorkspace | None = None,
                    cache: KinematicsCache | None = None,
                    lam0=None) -> ConstrainedSolution:
    """Proximal constrained dynamics; robust to singular and infeasible rows.

    Iteration 1 is the relaxed solve with R = mu and the multipliers
    `lam0` (length m; None is zero) in its bias, leaving the residual
    r0 = K a - beta_hat.  Each later iteration is one step of conjugate
    residuals on B y = -r0 (``_support_response``) for the bias
    lam0 + y, and the solve returns lam = lam0 + y - r/mu at the final
    residual r, with which qdd is exactly the dynamics.  The steps update
    r by recurrence, which agrees with K a - beta_hat to rounding.  A warm
    start (`integrate` passes the previous derivative's lam) saves
    iterations.

    The solve stops ``converged`` once ||r|| <= tol_primal.  It stops
    ``least_squares`` once r lies in the null space of B: in two
    iterations running ||r|| fell by at most tol_dual = tol_primal/mu of
    itself, and the multipliers without their component along r moved by
    at most tol_dual of their size; it then returns those multipliers.
    On rank-deficient or infeasible rows qdd and K' lam are the
    least-squares ones, and lam is the minimum-norm multiplier for
    ``lam0=None``; a warm start keeps its component in the null space
    of K', which qdd does not see.
    """
    settings = settings or SolverSettings()
    ws, cache, tau = _setup(model, state, tau, cs, ws, cache)
    if lam0 is not None:
        lam0 = np.array(lam0, dtype=float)
        if lam0.shape != (cs.m,):
            raise DimensionMismatch(f"lam0 must have length m={cs.m}")
        check_finite(lam0, "lam0")
    mu, tol = settings.mu, settings.tol_primal
    # B < mu, so a multiplier change below tol/mu moves the residual by
    # less than the primal test resolves
    tol_dual = tol / mu
    qdd, rnorm = _relaxed(model, cache, cs, ws, tau, np.full(cs.m, mu), lam0)
    r = ws.resid
    w = np.zeros(cs.m) if lam0 is None else lam0           # lam0 + y
    # the running sums of y's change hold what the fill off the support
    # reads: da at the frontier and dqj over the support
    terms = 6 * ws.frontier_pos.size + ws.support_slots.size
    history = [rnorm]
    status = "max_iter"
    it, gamma, lam_hat, hat_at = 1, 0.0, None, 0
    # after one step y's change over the support is `scale` times the last
    # sweep's; from the second step on, running sums hold it
    scale = da_y = dqj_y = None
    while True:
        if rnorm <= tol:
            status = "converged"
            break
        if it > 1 and history[-2] - rnorm <= tol_dual * history[-2]:
            prev, lam_hat = lam_hat, _min_norm(w, r)
            if hat_at == it - 1 and \
                    np.linalg.norm(lam_hat - prev) <= tol_dual * np.linalg.norm(lam_hat):
                status = "least_squares"
                break
            hat_at = it
        if it == settings.max_iter:
            break
        if it == 2:
            # the next sweep overwrites the first step's
            da_p, dqj_p = ws.da[ws.frontier_pos], ws.dqj[ws.support_slots]
            da_y, dqj_y = scale * da_p, scale * dqj_p
            flops.add(terms)
        it += 1
        br = _support_response(model, cache, cs, ws, r)
        gamma, gamma_prev = float(r @ br), gamma
        if not gamma > 0.0:
            # no part of r is in the range of B
            status, lam_hat = "least_squares", _min_norm(w, r)
            history.append(rnorm)
            break
        if it == 2:
            p, bp = r.copy(), br
            alpha = gamma / float(bp @ bp)
            scale = -alpha
            work = 8 * cs.m
        else:
            beta = gamma / gamma_prev
            p = r + beta * p
            bp = br + beta * bp
            alpha = gamma / float(bp @ bp)
            da_p = ws.da[ws.frontier_pos] + beta * da_p
            dqj_p = ws.dqj[ws.support_slots] + beta * dqj_p
            da_y -= alpha * da_p
            dqj_y -= alpha * dqj_p
            work = 12 * cs.m + 4 * terms
        w -= alpha * p
        r -= alpha * bp
        rnorm = math.sqrt(r @ r)
        history.append(rnorm)
        flops.add(work)
    if scale is not None:
        # y's change over the support, filled in off it, where the bias
        # change is zero
        if da_y is not None:
            ws.da[ws.frontier_pos], ws.dqj[ws.support_slots] = da_y, dqj_y
        ws.u[ws.off_pos] = 0.0
        _forward_pass(model, cache, ws, ws.off_levels, change=True)
        dqdd = _dofs(model, ws.dqj)
        if da_y is None:
            dqdd *= scale
            flops.add(model.nv)
        qdd += dqdd
    if status == "least_squares":
        lam = lam_hat
    else:
        lam = w - r / mu
        flops.add(2 * cs.m)
    return ConstrainedSolution(qdd, lam, it, rnorm, status, tuple(history))
