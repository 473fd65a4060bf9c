"""Time integration and rollout simulation on top of the solvers.

Two schemes: semi-implicit Euler (velocity first, then position through
the exponential map on floating-base blocks) and classical RK4 on the
(q, v) flow with the same manifold retraction.  Quaternions are
renormalized here and only here; the dynamics sweeps never correct
rotations.

Baumgarte stabilization: constraints may carry (k_p, k_d) gains and a
pose anchor captured at attachment time.  Each step folds
``k_p * (pose error) - k_d * (velocity error)`` into the constraint
target before calling the solver, bounding position-level drift that
acceleration-level constraints cannot see.  The gains and anchors are
stacked once per step or rollout (``_Baumgarte``), and each derivative
forms its targets from them with array expressions.

With the proximal solver (``caba``) each derivative after the first
warm-starts from the multipliers of the one before: RK4 stages 2-4 from
the previous stage's, and in ``rollout`` each step's first derivative
from the previous step's last.  Nearby states have nearby multipliers,
so the warm start saves proximal iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .baseline import aba
from .constrained import (PvWorkspace, SolverSettings, constrained_aba, pv_early_solve,
                          pv_solve, pv_soft_solve)
from .errors import UnknownAlgorithm
from .kinematics import KinematicsCache, forward_kinematics
from .model import ConstraintSet, Model, State
from .spatial import (PlueckerTransform, quat_exp, quat_multiply, quat_to_rotation,
                      rotation_log)

SOLVERS = ("aba", "pv", "pv_soft", "pv_early", "caba")


@dataclass
class IntegratorConfig:
    scheme: str = "semi_implicit_euler"       # or "rk4"
    dt: float = 1e-3
    baumgarte_default: tuple[float, float] = (0.0, 0.0)
    settings: SolverSettings | None = None

    def __post_init__(self):
        if self.scheme not in ("semi_implicit_euler", "rk4"):
            raise ValueError(f"unknown integration scheme {self.scheme!r}")
        if not math.isfinite(self.dt) or self.dt <= 0:
            raise ValueError("dt must be finite and positive")
        if not all(math.isfinite(g) and g >= 0 for g in self.baumgarte_default):
            raise ValueError("Baumgarte gains must be finite and non-negative")


def attach_anchors(model: Model, state: State, cs: ConstraintSet) -> ConstraintSet:
    """Capture each constraint's current link pose as its drift anchor."""
    cache = forward_kinematics(model, state)
    out = []
    for con in cs:
        anchor = PlueckerTransform(cache.w_rot[con.link].copy(),
                                   cache.w_trans[con.link].copy())
        out.append(replace(con, anchor=anchor))
    return ConstraintSet(out)


class _Baumgarte(NamedTuple):
    """A constraint set's Baumgarte terms, stacked: each constraint's k_d,
    and the constraints with k_p > 0 and an anchor, with their k_p, links,
    transposed anchor rotations and anchor translations."""

    kd: np.ndarray
    anchored: np.ndarray
    kp: np.ndarray
    links: np.ndarray
    rot_t: np.ndarray
    trans: np.ndarray


def _baumgarte(cs: ConstraintSet, config: IntegratorConfig) -> _Baumgarte | None:
    """The set's stacked Baumgarte terms; None where every gain is zero."""
    gains = np.array([con.baumgarte or config.baumgarte_default for con in cs], dtype=float)
    if not gains.any():
        return None
    anchored = np.array([ci for ci, con in enumerate(cs)
                         if gains[ci, 0] > 0.0 and con.anchor is not None], dtype=int)
    anchors = [cs.constraints[ci].anchor for ci in anchored]
    # a gain that is not positive is off
    return _Baumgarte(np.maximum(gains[:, 1], 0.0), anchored, gains[anchored, 0],
                      cs.links[anchored],
                      np.array([a.rotation.T for a in anchors]).reshape(-1, 3, 3),
                      np.array([a.translation for a in anchors]).reshape(-1, 3))


def _stabilized_targets(cache: KinematicsCache, cs: ConstraintSet,
                        terms: _Baumgarte | None) -> ConstraintSet:
    """The set with k_p (pose error) - k_d (link velocity) folded into
    each constraint's targets through its rows of K."""
    if terms is None:
        return cs
    # the twist (link frame) moving each anchored pose onto its anchor: the
    # log map of the relative rotation, and the translation in the link frame
    rot = cache.w_rot[terms.links]
    lin = (rot @ (terms.trans - cache.w_trans[terms.links])[:, :, None])[:, :, 0]
    twist = -terms.kd[:, None] * cache.v[cs.links]
    twist[terms.anchored] += terms.kp[:, None] * np.concatenate(
        (rotation_log(rot @ terms.rot_t), lin), axis=1)
    return cs.replace_targets(cs.stacked_targets() + (cs.K * twist[cs.row_con]).sum(1))


def _accel(model: Model, state: State, tau, cs: ConstraintSet, solver: str,
           config: IntegratorConfig, ws, terms: _Baumgarte | None,
           lam0: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """qdd, and with ``caba`` its multipliers, warm-started from `lam0`
    (None with the other solvers)."""
    # one kinematics pass serves the Baumgarte targets and the solver
    cache = forward_kinematics(model, state)
    if solver == "aba":
        return aba(model, state, tau, cache=cache), None
    cs_eff = _stabilized_targets(cache, cs, terms)
    settings = config.settings or SolverSettings()
    if solver == "pv":
        return pv_solve(model, state, tau, cs_eff, ws, cache=cache).qdd, None
    if solver == "pv_early":
        return pv_early_solve(model, state, tau, cs_eff, ws, cache=cache).qdd, None
    if solver == "pv_soft":
        return pv_soft_solve(model, state, tau, cs_eff, settings, ws, cache=cache).qdd, None
    sol = constrained_aba(model, state, tau, cs_eff, settings, ws, cache=cache, lam0=lam0)
    return sol.qdd, sol.lam


def integrate_position(model: Model, q: np.ndarray, v: np.ndarray,
                       dt: float) -> np.ndarray:
    """q + dt*v through the exponential map on floating-base blocks."""
    out = q.copy()
    plan = model.plan
    for group in (plan.revolute, plan.prismatic):
        out[group.q] += dt * v[group.v]
    for i in plan.floating:
        qo = model.q_offset[i]
        vo = model.v_offset[i]
        quat = q[qo:qo + 4]
        omega = v[vo:vo + 3]
        vlin = v[vo + 3:vo + 6]
        quat_new = quat_multiply(quat, quat_exp(dt * omega))
        out[qo:qo + 4] = quat_new / np.linalg.norm(quat_new)
        out[qo + 4:qo + 7] += dt * (quat_to_rotation(quat) @ vlin)
    return out


def _step(model: Model, state: State, tau, cs: ConstraintSet, solver: str,
          config: IntegratorConfig, ws, terms: _Baumgarte | None,
          lam: np.ndarray | None) -> tuple[State, np.ndarray | None]:
    """One step whose first derivative warm-starts from `lam`; returns the
    new state and the last derivative's multipliers."""
    dt = config.dt
    if config.scheme == "semi_implicit_euler":
        qdd, lam = _accel(model, state, tau, cs, solver, config, ws, terms, lam)
        v_new = state.v + dt * qdd
        q_new = integrate_position(model, state.q, v_new, dt)
        return State(q_new, v_new), lam
    # classical RK4 on the (q, v) flow with manifold retraction, each
    # stage warm-started from the previous one
    k1a, lam = _accel(model, state, tau, cs, solver, config, ws, terms, lam)
    s2 = State(integrate_position(model, state.q, state.v, 0.5 * dt),
               state.v + 0.5 * dt * k1a)
    k2a, lam = _accel(model, s2, tau, cs, solver, config, ws, terms, lam)
    s3 = State(integrate_position(model, state.q, s2.v, 0.5 * dt),
               state.v + 0.5 * dt * k2a)
    k3a, lam = _accel(model, s3, tau, cs, solver, config, ws, terms, lam)
    s4 = State(integrate_position(model, state.q, s3.v, dt), state.v + dt * k3a)
    k4a, lam = _accel(model, s4, tau, cs, solver, config, ws, terms, lam)
    v_avg = (state.v + 2 * s2.v + 2 * s3.v + s4.v) / 6.0
    a_avg = (k1a + 2 * k2a + 2 * k3a + k4a) / 6.0
    return State(integrate_position(model, state.q, v_avg, dt),
                 state.v + dt * a_avg), lam


def step(model: Model, state: State, tau, cs: ConstraintSet,
         solver: str = "pv", config: IntegratorConfig | None = None,
         ws=None) -> State:
    """Advance one time step with the chosen solver and scheme."""
    return rollout(model, state, tau, cs, solver, config, 1, ws)[-1]


def rollout(model: Model, state: State, tau, cs: ConstraintSet,
            solver: str = "pv", config: IntegratorConfig | None = None,
            steps: int = 100, ws=None) -> list[State]:
    """Simulate `steps` steps; returns the trajectory including the start.
    The derivatives share one workspace (`ws` if it fits); with ``caba``
    each step warm-starts from the previous step's multipliers."""
    if solver not in SOLVERS:
        raise UnknownAlgorithm(f"unknown solver {solver!r}; choose from {SOLVERS}")
    if solver == "aba" and cs.m:
        raise UnknownAlgorithm("solver 'aba' cannot handle constraints")
    if solver != "aba":
        ws = PvWorkspace.ensure(model, cs, ws)
    config = config or IntegratorConfig()
    terms = _baumgarte(cs, config)
    traj, lam = [state], None
    for _ in range(steps):
        state, lam = _step(model, state, tau, cs, solver, config, ws, terms, lam)
        traj.append(state)
    return traj
