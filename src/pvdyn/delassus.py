"""Delassus-matrix (inverse operational-space inertia) algorithms.

Three producers and one consumer:

* ``pv_osim`` — the tau-independent half of the exact solver: the
  engine's inertia pass, then its coupling pass without l over the
  constraint support (``constrained.py``).  The Delassus matrix is the
  L block left at the base; crossing a floating base joint supplies the
  rank-6 base correction, a fixed base adds nothing.
* ``pv_osimr`` — the same matrix from extended propagators after the
  inertia pass: each reduced-tree edge is walked once, junction kernels
  are memoized, and blocks couple only through nearest common
  ancestors, so shared paths do not pay the per-joint m-row cost.
* ``caba_osim`` — damped inverse (Lambda + mu I)^-1: the ``pv_osim``
  matrix shifted and factored at the constraint dimension, well-defined
  for rank-deficient rows since the damping keeps the system PD.
* ``delassus_apply`` / ``delassus_factor_solve`` — map constraint-space
  right-hand sides to multipliers: explicit operators factorize once
  and cache, damped operators multiply directly.

A singular joint-space inertia raises from the inertia pass, with the
engine's one rule: SingularBaseInertia at a floating base,
SingularJointInertia naming the joint anywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import flops, linalg
from .constrained import (PvWorkspace, SolverSettings, _coupling_pass,
                          _inertia_pass, _seed_coupling)
from .kinematics import KinematicsCache, forward_kinematics
from .model import ConstraintSet, Model, State


@dataclass
class DelassusOperator:
    """Either an explicit Delassus matrix or its damped inverse.

    kind "explicit" holds Lambda = J M^-1 J'; kind "damped_inverse"
    holds X ~= (Lambda + mu I)^-1.  `factorizations` counts how many
    times a factor was actually computed (it is cached after the first
    solve).
    """

    kind: str
    matrix: np.ndarray
    mu: float | None = None
    offsets: tuple = ()
    factorizations: int = 0
    _chol: np.ndarray | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def delassus_factor_solve(op: DelassusOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve Lambda x = rhs for an explicit operator (factor cached)."""
    if op.kind != "explicit":
        raise ValueError("factor_solve applies to explicit operators only")
    if op._chol is None:
        op._chol = linalg.chol_factor(op.matrix)   # NotPositiveDefinite if singular
        op.factorizations += 1
    return linalg.chol_solve(op._chol, rhs)


def delassus_apply(op: DelassusOperator, rhs: np.ndarray) -> np.ndarray:
    """Map a constraint-space right-hand side to multipliers."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != op.m:
        raise ValueError(f"rhs length {rhs.shape[0]} != operator dim {op.m}")
    if op.kind == "damped_inverse":
        flops.add(flops.gemm(op.m, op.m, 1))
        return op.matrix @ rhs
    return delassus_factor_solve(op, rhs)


# ---------------------------------------------------------------------------
# coupling-block variant


def _coupled_delassus(model: Model, cache, cs: ConstraintSet, ws: PvWorkspace) -> np.ndarray:
    """Lambda as the base L block of the inertia and coupling passes."""
    if cs.m == 0:
        return np.zeros((0, 0))
    np.copyto(ws.IA, model.plan.inertia66)
    _seed_coupling(cs, ws)
    _inertia_pass(model, cache, ws, model.plan.sweep)
    _coupling_pass(model, cache, ws, reversed(range(len(ws.sweep))), with_l=False)
    out = ws.L.copy()
    return 0.5 * (out + out.T)


def pv_osim(model: Model, state: State, cs: ConstraintSet,
            ws: PvWorkspace | None = None,
            cache: KinematicsCache | None = None) -> DelassusOperator:
    """Delassus matrix as the base-level coupling block of the exact sweep."""
    ws = PvWorkspace.ensure(model, cs, ws)
    if cache is None:
        cache = forward_kinematics(model, state)
    lam = _coupled_delassus(model, cache, cs, ws)
    return DelassusOperator("explicit", lam, offsets=tuple(cs.offsets))


# ---------------------------------------------------------------------------
# propagator-composition variant


def _d_solve(model: Model, ws: PvWorkspace, i: int, x: np.ndarray) -> np.ndarray:
    """D^-1 x at the moving joint of link i."""
    if i:
        return x * ws.D_inv[model.plan.position[i], 0, 0]
    return ws.root_D.solve(x)


def _push_block(model: Model, ws: PvWorkspace, cache, i: int,
                block: np.ndarray) -> tuple[np.ndarray, int]:
    """The joint-i force propagator and frame change applied to a 6 x k
    block, and the flops of doing so."""
    nv, k, pos = model.joints[i].nv, block.shape[1], model.plan.position[i]
    work = flops.XFORCE_T * k
    if nv:
        uu = ws.U[pos] if i else ws.root_U
        block = block - uu @ _d_solve(model, ws, i, model.S[i].T @ block)
        work += flops.gemm(nv, 6, k) + flops.chol_solve(nv, k) + flops.gemm(6, nv, k)
    return cache.frames.xm_t[pos] @ block, work


def pv_osimr(model: Model, state: State, cs: ConstraintSet,
             ws: PvWorkspace | None = None,
             cache: KinematicsCache | None = None) -> DelassusOperator:
    """Delassus matrix by composing extended propagators at tree junctions."""
    ws = PvWorkspace.ensure(model, cs, ws)
    if cache is None:
        cache = forward_kinematics(model, state)
    m = cs.m
    if m == 0:
        return DelassusOperator("explicit", np.zeros((0, 0)), offsets=())
    np.copyto(ws.IA, model.plan.inertia66)
    _inertia_pass(model, cache, ws, model.plan.sweep)

    # group constraint rows by link
    e_links = sorted({con.link for con in cs})
    rows_by_link = {e: np.concatenate([cs.rows(c) for c, con in enumerate(cs) if con.link == e])
                    for e in e_links}
    k_by_link = {e: np.vstack([con.K for con in cs if con.link == e]) for e in e_links}

    # reduced tree: constrained links, their pairwise nearest common
    # ancestors, and the world anchor (-1)
    chains = {e: [e] + model.ancestors(e) + [-1] for e in e_links}
    nodes = set(e_links) | {-1}
    for a in e_links:
        for b in e_links:
            if a < b:
                in_b = set(chains[b])
                nodes.add(next(x for x in chains[a] if x in in_b))
    reduced_parent = {node: next(x for x in model.ancestors(node) + [-1] if x in nodes)
                      for node in nodes - {-1}}

    # walk each reduced edge once: propagator transpose and kernel sum
    edge_t: dict[int, np.ndarray] = {}
    edge_sigma: dict[int, np.ndarray] = {}
    for node in reduced_parent:
        t = np.eye(6)
        sigma = np.zeros((6, 6))
        work = 0
        j = node
        while j != reduced_parent[node]:
            nv = model.joints[j].nv
            if nv:
                phi = t @ model.S[j]
                sigma += phi @ _d_solve(model, ws, j, phi.T)
                work += flops.gemm(6, 6, nv) + flops.chol_solve(nv, 6) + flops.gemm(6, nv, 6)
            t, w = _push_block(model, ws, cache, j, t.T)
            t = t.T
            work += w
            j = model.parent[j]
        flops.add(work)
        edge_t[node] = t
        edge_sigma[node] = sigma

    # junction kernels from the world down
    omega: dict[int, np.ndarray] = {-1: np.zeros((6, 6))}

    def omega_of(node: int) -> np.ndarray:
        if node not in omega:
            up = omega_of(reduced_parent[node])
            omega[node] = edge_sigma[node] + edge_t[node] @ up @ edge_t[node].T
            flops.add(2 * flops.gemm(6, 6, 6))
        return omega[node]

    # constraint blocks pushed to every reduced ancestor
    pushed: dict[int, dict[int, np.ndarray]] = {}
    red_chain: dict[int, list[int]] = {}
    for e in e_links:
        blocks = {e: k_by_link[e]}
        chain = [e]
        node = e
        while node != -1:
            nxt = reduced_parent[node]
            blocks[nxt] = blocks[node] @ edge_t[node]
            flops.add(flops.gemm(blocks[node].shape[0], 6, 6))
            chain.append(nxt)
            node = nxt
        pushed[e] = blocks
        red_chain[e] = chain

    # blocks in link order, then one permutation into row order
    grid = [[None] * len(e_links) for _ in e_links]
    work = 0
    for ai, e in enumerate(e_links):
        for bi in range(ai, len(e_links)):
            f = e_links[bi]
            in_f = set(red_chain[f])
            common = next(x for x in red_chain[e] if x in in_f)
            grid[ai][bi] = block = pushed[e][common] @ omega_of(common) @ pushed[f][common].T
            grid[bi][ai] = block.T
            work += flops.gemm(len(block), 6, 6) + flops.gemm(len(block), 6, block.shape[1])
    flops.add(work)
    back = np.argsort(np.concatenate([rows_by_link[e] for e in e_links]))
    lam = np.concatenate([np.concatenate(row, axis=1) for row in grid])[np.ix_(back, back)]
    return DelassusOperator("explicit", 0.5 * (lam + lam.T),
                            offsets=tuple(cs.offsets))


def caba_osim(model: Model, state: State, cs: ConstraintSet,
              settings: SolverSettings | None = None,
              ws: PvWorkspace | None = None,
              cache: KinematicsCache | None = None) -> DelassusOperator:
    """Damped Delassus inverse (Lambda + mu I)^-1.

    Assembles the coupling blocks with the exact tau-independent sweep
    and factors the mu-shifted matrix at the constraint dimension, which
    keeps the grading identity X (Lambda + mu I) = I at full double
    precision even for mu far below the norm of Lambda, and stays
    well-defined for rank-deficient constraint rows.
    """
    settings = settings or SolverSettings()
    ws = PvWorkspace.ensure(model, cs, ws)
    if cache is None:
        cache = forward_kinematics(model, state)
    m = cs.m
    if m == 0:
        return DelassusOperator("damped_inverse", np.zeros((0, 0)), mu=settings.mu)
    lam = _coupled_delassus(model, cache, cs, ws)
    shifted = lam + settings.mu * np.eye(m)
    x = linalg.chol_inverse(linalg.chol_factor(shifted))
    return DelassusOperator("damped_inverse", x, mu=settings.mu,
                            offsets=tuple(cs.offsets))
