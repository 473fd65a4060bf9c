import numpy as np
import pytest

from pvdyn import PlueckerTransform, SpatialInertia, compose, inverse
from pvdyn.spatial import cross_rows, force_matrix, motion_matrix
from conftest import congruence, random_transform


def xm(x, v):
    return x.motion_matrix() @ v


def xf(rot, trans, f):
    return force_matrix(rot, trans) @ f


def xi(x, inertia):
    return congruence(x.motion_matrix(), inertia)


def random_spd(rng):
    mat = rng.standard_normal((6, 6))
    return mat @ mat.T


class TestTransformMotion:
    def test_identity(self, rng):
        v = rng.standard_normal(6)
        np.testing.assert_array_equal(xm(PlueckerTransform.identity(), v), v)

    def test_pure_translation(self):
        # oracle: linear part picks up -p x omega
        p = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        out = xm(PlueckerTransform(np.eye(3), p), v)
        np.testing.assert_allclose(out[:3], [0.0, 0.0, 1.0])
        np.testing.assert_allclose(out[3:], -np.cross(p, v[:3]))
        np.testing.assert_allclose(out[3:], [0.0, 1.0, 0.0])

    def test_inverse_roundtrip(self, rng):
        for _ in range(20):
            x = random_transform(rng)
            v = rng.standard_normal(6)
            np.testing.assert_allclose(xm(inverse(x), xm(x, v)), v, atol=1e-14)

    def test_composition_law(self, rng):
        for _ in range(20):
            x1, x2 = random_transform(rng), random_transform(rng)
            v = rng.standard_normal(6)
            np.testing.assert_allclose(xm(compose(x1, x2), v), xm(x1, xm(x2, v)),
                                       atol=1e-12)


class TestTransformForce:
    def test_identity(self, rng):
        f = rng.standard_normal(6)
        x = PlueckerTransform.identity()
        np.testing.assert_array_equal(xf(x.rotation, x.translation, f), f)

    def test_power_invariance(self, rng):
        for _ in range(50):
            x = random_transform(rng)
            v, f = rng.standard_normal(6), rng.standard_normal(6)
            p0 = f @ v
            p1 = xf(x.rotation, x.translation, f) @ xm(x, v)
            assert abs(p0 - p1) <= 1e-12 * (1 + abs(p0))

    def test_pure_rotation_rotates_both(self, rng):
        from pvdyn.spatial import axis_angle_rotation
        r = axis_angle_rotation(np.array([0.0, 0.0, 1.0]), 0.7)
        f = rng.standard_normal(6)
        out = xf(r, np.zeros(3), f)
        np.testing.assert_allclose(out[:3], r @ f[:3], atol=1e-14)
        np.testing.assert_allclose(out[3:], r @ f[3:], atol=1e-14)


class TestInertia:
    def test_point_mass_newton(self):
        inertia = SpatialInertia.from_com(2.0, np.zeros(3), np.zeros((3, 3)))
        f = inertia.to_matrix() @ np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(f[:3], np.zeros(3))
        np.testing.assert_allclose(f[3:], [2.0, 0.0, 0.0])

    def test_zero_motion(self, rng):
        inertia = SpatialInertia.from_com(1.5, rng.standard_normal(3) * 0.1,
                                          np.diag([0.1, 0.2, 0.3]))
        np.testing.assert_array_equal(inertia.to_matrix() @ np.zeros(6), np.zeros(6))

    def test_symmetry_identity(self, rng):
        mat = SpatialInertia.from_com(1.5, [0.1, -0.2, 0.05],
                                      np.diag([0.1, 0.2, 0.3])).to_matrix()
        for _ in range(20):
            v, w = rng.standard_normal(6), rng.standard_normal(6)
            a = (mat @ w) @ v
            b = (mat @ v) @ w
            assert abs(a - b) <= 1e-12 * (1 + abs(a))


class TestTransformInertia:
    def test_identity(self, rng):
        ai = random_spd(rng)
        np.testing.assert_allclose(xi(PlueckerTransform.identity(), ai), ai, atol=1e-14)

    def test_roundtrip(self, rng):
        ai = random_spd(rng)
        x = random_transform(rng)
        np.testing.assert_allclose(xi(inverse(x), xi(x, ai)), ai, atol=1e-12)

    def test_quadratic_form_invariance(self, rng):
        for _ in range(20):
            ai = random_spd(rng)
            x = random_transform(rng)
            v = rng.standard_normal(6)
            xv = xm(x, v)
            lhs = v @ xi(x, ai) @ v
            rhs = xv @ ai @ xv
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_preserves_symmetry_and_psd(self, rng):
        out = xi(random_transform(rng), random_spd(rng))
        np.testing.assert_allclose(out, out.T, atol=1e-12)
        assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_rigid_body_inertia_spd(rng):
    inertia = SpatialInertia.from_com(2.0, [0.3, 0.1, -0.2], np.diag([0.2, 0.3, 0.25]))
    eigs = np.linalg.eigvalsh(inertia.to_matrix())
    assert eigs.min() > 0
    np.testing.assert_allclose(inertia.to_matrix(), inertia.to_matrix().T)


def test_transform_validation():
    with pytest.raises(ValueError):
        PlueckerTransform(np.eye(3) * 2.0, np.zeros(3)).validate()


class TestArrayKernels:
    """The array kernels against np.cross and the 6x6 matrix forms."""

    def test_cross_helper_matches_numpy(self, rng):
        for _ in range(50):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            np.testing.assert_allclose(cross_rows(a, b), np.cross(a, b), rtol=0, atol=1e-15)
        a, blk = rng.standard_normal((4, 1, 3)), rng.standard_normal((5, 3))
        out = cross_rows(a, blk)
        assert out.shape == (4, 5, 3)
        np.testing.assert_allclose(out, np.cross(a, blk), rtol=0, atol=1e-14)

    def test_matrices_broadcast_over_links(self, rng):
        xs = [random_transform(rng) for _ in range(7)]
        rot = np.stack([x.rotation for x in xs])
        trans = np.stack([x.translation for x in xs])
        xm_all, xf_all = motion_matrix(rot, trans), force_matrix(rot, trans)
        assert xm_all.shape == xf_all.shape == (7, 6, 6)
        for k, x in enumerate(xs):
            np.testing.assert_array_equal(xm_all[k], x.motion_matrix())
            np.testing.assert_array_equal(xf_all[k], x.force_matrix())
            np.testing.assert_allclose(xf_all[k], np.linalg.inv(xm_all[k]).T,
                                       rtol=0, atol=1e-12)

    def test_axis_angle_rotation_matches_rodrigues(self, rng):
        from pvdyn.spatial import axis_angle_rotation, skew
        axes = [np.eye(3)[i] for i in range(3)] + [rng.standard_normal(3) for _ in range(20)]
        for axis in axes:
            axis = axis / np.linalg.norm(axis)
            angle = rng.uniform(-np.pi, np.pi)
            c, s = np.cos(angle), np.sin(angle)
            ref = c * np.eye(3) + s * skew(axis) + (1.0 - c) * np.outer(axis, axis)
            r = axis_angle_rotation(axis, angle)
            np.testing.assert_allclose(r, ref, rtol=0, atol=1e-15)
            np.testing.assert_allclose(r.T @ r, np.eye(3), rtol=0, atol=1e-15)
            assert abs(np.linalg.det(r) - 1.0) <= 1e-15
            np.testing.assert_allclose(r @ axis, axis, rtol=0, atol=1e-15)

    def test_rotation_log_matches_scipy(self, rng):
        # every turn size from none to just short of a half turn, about the
        # coordinate axes (one pivot each) and random ones
        from scipy.spatial.transform import Rotation
        from pvdyn.spatial import axis_angle_rotation, rotation_log
        axes = [np.eye(3)[i] for i in range(3)] + [rng.standard_normal(3) for _ in range(20)]
        angles = [0.0, 1e-12, 1e-6, 0.5, 2.6, 3.09, 3.13, np.pi - 1e-9]
        rots = np.array([axis_angle_rotation(a / np.linalg.norm(a), t)
                         for a in axes for t in angles])
        np.testing.assert_allclose(rotation_log(rots), Rotation.from_matrix(rots).as_rotvec(),
                                   rtol=0, atol=1e-14)
