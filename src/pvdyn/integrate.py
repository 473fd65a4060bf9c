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
acceleration-level constraints cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .baseline import aba
from .constrained import (SolverSettings, constrained_aba, pv_early_solve,
                          pv_solve, pv_soft_solve)
from .errors import UnknownAlgorithm
from .kinematics import KinematicsCache, forward_kinematics
from .model import ConstraintSet, Model, State
from .spatial import PlueckerTransform, quat_exp, quat_multiply, quat_to_rotation

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
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if any(g < 0 for g in self.baumgarte_default):
            raise ValueError("Baumgarte gains must be non-negative")


def attach_anchors(model: Model, state: State, cs: ConstraintSet) -> ConstraintSet:
    """Capture each constraint's current link pose as its drift anchor."""
    cache = forward_kinematics(model, state)
    out = []
    for con in cs:
        anchor = PlueckerTransform(cache.w_rot[con.link].copy(),
                                   cache.w_trans[con.link].copy())
        out.append(replace(con, anchor=anchor))
    return ConstraintSet(out)


def _log_rotation(r: np.ndarray) -> np.ndarray:
    """Rotation vector of a rotation matrix."""
    cos = max(-1.0, min(1.0, 0.5 * (np.trace(r) - 1.0)))
    angle = np.arccos(cos)
    axis_raw = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if angle < 1e-9:
        return axis_raw
    return axis_raw * angle / np.sin(angle)


def _pose_error(cache, con) -> np.ndarray:
    """Twist (link frame) moving the current pose onto the anchor pose."""
    e = con.link
    ang = _log_rotation(cache.w_rot[e] @ con.anchor.rotation.T)
    lin = cache.w_rot[e] @ (con.anchor.translation - cache.w_trans[e])
    return np.concatenate((ang, lin))


def _stabilized_targets(cache: KinematicsCache, cs: ConstraintSet,
                        config: IntegratorConfig) -> ConstraintSet:
    if cs.m == 0:
        return cs
    gains = [con.baumgarte or config.baumgarte_default for con in cs]
    if all(g == (0.0, 0.0) for g in gains):
        return cs
    new_targets = cs.stacked_targets().copy()
    for ci, con in enumerate(cs):
        kp, kd = gains[ci]
        if kp == 0.0 and kd == 0.0:
            continue
        rows = cs.rows(ci)
        if kp > 0.0 and con.anchor is not None:
            new_targets[rows] += kp * (con.K @ _pose_error(cache, con))
        if kd > 0.0:
            new_targets[rows] -= kd * (con.K @ cache.v[con.link])
    return cs.replace_targets(new_targets)


def _accel(model: Model, state: State, tau, cs: ConstraintSet, solver: str,
           config: IntegratorConfig, ws=None) -> np.ndarray:
    if solver not in SOLVERS:
        raise UnknownAlgorithm(f"unknown solver {solver!r}; choose from {SOLVERS}")
    if solver == "aba" and cs.m:
        raise UnknownAlgorithm("solver 'aba' cannot handle constraints")
    # one kinematics pass serves the Baumgarte targets and the solver
    cache = forward_kinematics(model, state)
    if solver == "aba":
        return aba(model, state, tau, cache=cache)
    cs_eff = _stabilized_targets(cache, cs, config)
    settings = config.settings or SolverSettings()
    if solver == "pv":
        return pv_solve(model, state, tau, cs_eff, ws, cache=cache).qdd
    if solver == "pv_early":
        return pv_early_solve(model, state, tau, cs_eff, ws, cache=cache).qdd
    if solver == "pv_soft":
        return pv_soft_solve(model, state, tau, cs_eff, settings, ws, cache=cache).qdd
    return constrained_aba(model, state, tau, cs_eff, settings, ws, cache=cache).qdd


def integrate_position(model: Model, q: np.ndarray, v: np.ndarray,
                       dt: float) -> np.ndarray:
    """q + dt*v through the exponential map on floating-base blocks."""
    out = q.copy()
    for i, joint in enumerate(model.joints):
        qo = model.q_offset[i]
        vo = model.v_offset[i]
        if joint.kind in ("revolute", "prismatic"):
            out[qo] += dt * v[vo]
        elif joint.kind == "floating":
            quat = q[qo:qo + 4]
            omega = v[vo:vo + 3]
            vlin = v[vo + 3:vo + 6]
            quat_new = quat_multiply(quat, quat_exp(dt * omega))
            out[qo:qo + 4] = quat_new / np.linalg.norm(quat_new)
            out[qo + 4:qo + 7] += dt * (quat_to_rotation(quat) @ vlin)
    return out


def step(model: Model, state: State, tau, cs: ConstraintSet,
         solver: str = "pv", config: IntegratorConfig | None = None,
         ws=None) -> State:
    """Advance one time step with the chosen solver and scheme."""
    config = config or IntegratorConfig()
    dt = config.dt
    if config.scheme == "semi_implicit_euler":
        qdd = _accel(model, state, tau, cs, solver, config, ws)
        v_new = state.v + dt * qdd
        q_new = integrate_position(model, state.q, v_new, dt)
        return State(q_new, v_new)
    # classical RK4 on the (q, v) flow with manifold retraction
    def deriv(st: State):
        return st.v, _accel(model, st, tau, cs, solver, config, ws)

    k1v, k1a = deriv(state)
    s2 = State(integrate_position(model, state.q, k1v, 0.5 * dt),
               state.v + 0.5 * dt * k1a)
    k2v, k2a = deriv(s2)
    s3 = State(integrate_position(model, state.q, k2v, 0.5 * dt),
               state.v + 0.5 * dt * k2a)
    k3v, k3a = deriv(s3)
    s4 = State(integrate_position(model, state.q, k3v, dt), state.v + dt * k3a)
    k4v, k4a = deriv(s4)
    v_avg = (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
    a_avg = (k1a + 2 * k2a + 2 * k3a + k4a) / 6.0
    return State(integrate_position(model, state.q, v_avg, dt),
                 state.v + dt * a_avg)


def rollout(model: Model, state: State, tau, cs: ConstraintSet,
            solver: str = "pv", config: IntegratorConfig | None = None,
            steps: int = 100, ws=None) -> list[State]:
    """Simulate `steps` steps; returns the trajectory including the start."""
    config = config or IntegratorConfig()
    traj = [state]
    for _ in range(steps):
        state = step(model, state, tau, cs, solver, config, ws)
        traj.append(state)
    return traj
