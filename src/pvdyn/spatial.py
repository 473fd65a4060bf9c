"""6-D spatial vector algebra for kinematic-tree dynamics.

Conventions, fixed once and used everywhere:

* components are ordered angular-then-linear;
* a coordinate transform X = (R, p) maps a point expressed in the
  source frame A to the target frame B via ``x_B = R (x_A - p)``, i.e.
  R is the A-to-B rotation and p is the origin of B written in A;
* the motion transform of X is the 6x6 block matrix
  ``[[R, 0], [-R.skew(p), R]]`` and the force transform is its inverse
  transpose ``[[R, -R.skew(p)], [0, R]]``, so power v.f is invariant;
* transforms are stored as (rotation, translation) pairs and applied as
  6x6 matrices: ``motion_matrix`` builds them for a stack of links at
  once, ``X @ v`` moves a motion into the target frame and ``X.T @ f``
  pushes a target-frame force back into the source frame.

All scalars are double precision.  Every value type here is immutable;
instances can be shared freely between threads.

Motions, forces and inertias are plain arrays, acted on by 6x6 matrix
products in the recursive sweeps.  Two small frozen dataclasses describe
a model: a transform (``PlueckerTransform``) and a rigid-body inertia
(``SpatialInertia``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


_SKEW_AT, _SKEW_OF = np.array([1, 2, 3, 5, 6, 7]), np.array([2, 1, 2, 0, 1, 0])
_SKEW_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])     # cross_rows's permutations


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: skew(v) @ w == cross(v, w); broadcasts over
    the leading axes of v (..., 3)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (9,))
    out[..., _SKEW_AT] = v[..., _SKEW_OF] * _SKEW_SIGNS
    return out.reshape(v.shape[:-1] + (3, 3))


def axis_angle_rotation(axis: np.ndarray, angle: float | np.ndarray) -> np.ndarray:
    """Rotation matrix turning vectors by `angle` about unit `axis`
    (Rodrigues: ``c I + s skew(a) + (1 - c) a a'``, written out).

    Broadcasts: axes of shape (..., 3) and angles of shape (...) give
    rotations of shape (..., 3, 3).
    """
    c = np.cos(angle)
    s = np.sin(angle)
    t = 1.0 - c
    axis = np.asarray(axis, dtype=float)
    x, y, z = axis[..., 0], axis[..., 1], axis[..., 2]
    txy, txz, tyz = t * (x * y), t * (x * z), t * (y * z)
    out = np.stack((
        c + t * (x * x), txy - s * z, txz + s * y,
        txy + s * z, c + t * (y * y), tyz - s * x,
        txz - s * y, tyz + s * x, c + t * (z * z),
    ), axis=-1)
    return out.reshape(out.shape[:-1] + (3, 3))


def rpy_rotation(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Fixed-axis roll/pitch/yaw rotation R = Rz(yaw) Ry(pitch) Rx(roll)."""
    rx = axis_angle_rotation(np.array([1.0, 0, 0]), roll)
    ry = axis_angle_rotation(np.array([0, 1.0, 0]), pitch)
    rz = axis_angle_rotation(np.array([0, 0, 1.0]), yaw)
    return rz @ ry @ rx


def rotation_to_rpy(r: np.ndarray) -> tuple[float, float, float]:
    """Inverse of :func:`rpy_rotation` (pitch taken in (-pi/2, pi/2))."""
    pitch = math.atan2(-r[2, 0], math.hypot(r[0, 0], r[1, 0]))
    roll = math.atan2(r[2, 1], r[2, 2])
    yaw = math.atan2(r[1, 0], r[0, 0])
    return roll, pitch, yaw


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=float).tolist()
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_exp(omega_dt: np.ndarray) -> np.ndarray:
    """Unit quaternion of the rotation vector omega*dt."""
    theta = float(np.linalg.norm(omega_dt))
    if theta < 1e-12:
        q = np.array([1.0, 0.5 * omega_dt[0], 0.5 * omega_dt[1], 0.5 * omega_dt[2]])
        return q / np.linalg.norm(q)
    axis = omega_dt / theta
    half = 0.5 * theta
    return np.concatenate(([math.cos(half)], math.sin(half) * axis))


def _quat_outer_map() -> tuple[np.ndarray, np.ndarray]:
    """The affine map from a rotation matrix's entries, flattened, to
    4 q q' of its quaternion q = (x, y, z, w), flattened: 4 x x =
    1 + r00 - r11 - r22, 4 x y = r01 + r10, 4 x w = r21 - r12 and
    4 w w = 1 + trace, cyclically."""
    a = np.zeros((3, 3, 4, 4))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        a[i, i, i, i] = a[i, i, 3, 3] = 1.0
        a[j, j, i, i] = a[k, k, i, i] = -1.0
        a[i, j, i, j] = a[j, i, i, j] = a[i, j, j, i] = a[j, i, j, i] = 1.0
        a[k, j, i, 3] = a[k, j, 3, i] = 1.0
        a[j, k, i, 3] = a[j, k, 3, i] = -1.0
    return a.reshape(9, 16), np.eye(4).reshape(16)


_QUAT_OUTER, _QUAT_ONE = _quat_outer_map()


def rotation_log(r: np.ndarray) -> np.ndarray:
    """Rotation vectors (k, 3) of the rotations `r` (k, 3, 3), accurate up
    to a half turn (Shepperd's method): of 4 q q', take the row with the
    largest diagonal, (v, w) = 4 q_p q, and return 2 atan2(|v|, |w|) v / |v|
    with v's sign turned where w < 0."""
    q = r.reshape(-1, 9) @ _QUAT_OUTER + _QUAT_ONE
    row = q.reshape(-1, 4, 4)[np.arange(len(r)), np.argmax(q[:, ::5], axis=1)]
    v, w = row[:, :3], row[:, 3]
    size = np.sqrt((v * v).sum(1))
    # atan2(|v|, |w|) / |v| keeps its precision as |v| -> 0; at |v| = 0
    # (no rotation) v is zero and any finite scale does
    scale = np.copysign(2.0 * np.arctan2(size, np.abs(w)), w) / np.where(size > 0.0, size, 1.0)
    return v * scale[:, None]


# ---------------------------------------------------------------------------
# array kernels used by the recursive sweeps


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis of two broadcastable (..., 3) arrays."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def motion_matrix(rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """The motion transform of (R, p), for one link or a stack of links."""
    rot = np.asarray(rot, dtype=float)
    x = np.zeros(rot.shape[:-2] + (6, 6))
    x[..., :3, :3] = x[..., 3:, 3:] = rot
    x[..., 3:, :3] = -rot @ skew(trans)
    return x


def force_matrix(rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """The force transform of (R, p): the motion transform with its
    off-diagonal block moved to the top right."""
    x = motion_matrix(rot, trans)
    x[..., :3, 3:] = x[..., 3:, :3]
    x[..., 3:, :3] = 0.0
    return x


def compose_rt(r1: np.ndarray, p1: np.ndarray, r2: np.ndarray, p2: np.ndarray):
    """Compose raw (R, p) pairs: apply (r2, p2) first, then (r1, p1)."""
    return r1 @ r2, p2 + r2.T @ p1


def inertia_matrix(mass: float, h: np.ndarray, rot_inertia: np.ndarray) -> np.ndarray:
    """6x6 inertia from mass, first moment h = m*com, inertia about origin."""
    m = np.zeros((6, 6))
    m[:3, :3] = rot_inertia
    hs = skew(h)
    m[:3, 3:] = hs
    m[3:, :3] = hs.T
    m[3:, 3:] = mass * np.eye(3)
    return m


# ---------------------------------------------------------------------------
# value types


def _vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError("expected a 3-vector")
    return a


@dataclass(frozen=True)
class PlueckerTransform:
    """Coordinate transform between two frames, stored as (R, p)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        object.__setattr__(self, "translation", _vec3(self.translation))

    @staticmethod
    def identity() -> "PlueckerTransform":
        return PlueckerTransform(np.eye(3), np.zeros(3))

    def motion_matrix(self) -> np.ndarray:
        return motion_matrix(self.rotation, self.translation)

    def force_matrix(self) -> np.ndarray:
        return force_matrix(self.rotation, self.translation)

    def validate(self, tol: float = 1e-12) -> None:
        r = self.rotation
        if not np.allclose(r.T @ r, np.eye(3), atol=tol):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > tol:
            raise ValueError("rotation determinant is not +1")


def compose(x1: PlueckerTransform, x2: PlueckerTransform) -> PlueckerTransform:
    """Transform applying x2 first, then x1."""
    r, p = compose_rt(x1.rotation, x1.translation, x2.rotation, x2.translation)
    return PlueckerTransform(r, p)


def inverse(x: PlueckerTransform) -> PlueckerTransform:
    return PlueckerTransform(x.rotation.T, -(x.rotation @ x.translation))


@dataclass(frozen=True)
class SpatialInertia:
    """Rigid-body inertia: mass, first moment m*com, and rotational inertia
    about the frame origin."""

    mass: float
    first_moment: np.ndarray
    rot_inertia: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", float(self.mass))
        object.__setattr__(self, "first_moment", _vec3(self.first_moment))
        object.__setattr__(self, "rot_inertia", np.asarray(self.rot_inertia, dtype=float))

    @staticmethod
    def from_com(mass: float, com, inertia_about_com) -> "SpatialInertia":
        c = _vec3(com)
        icom = np.asarray(inertia_about_com, dtype=float)
        io = icom + mass * (float(c @ c) * np.eye(3) - np.outer(c, c))
        return SpatialInertia(mass, mass * c, io)

    @property
    def com(self) -> np.ndarray:
        return self.first_moment / self.mass if self.mass > 0 else np.zeros(3)

    def inertia_about_com(self) -> np.ndarray:
        c = self.com
        return self.rot_inertia - self.mass * (float(c @ c) * np.eye(3) - np.outer(c, c))

    def to_matrix(self) -> np.ndarray:
        return inertia_matrix(self.mass, self.first_moment, self.rot_inertia)
