import numpy as np
import pytest

from pvdyn import (ArticulatedInertia, PlueckerTransform, SpatialForce,
                   SpatialInertia, SpatialMotion, apply_inertia, compose,
                   inverse, motion_cross_force, motion_cross_motion,
                   transform_force, transform_inertia, transform_motion)
from conftest import random_force, random_motion, random_transform


class TestTransformMotion:
    def test_identity(self, rng):
        v = random_motion(rng)
        out = transform_motion(PlueckerTransform.identity(), v)
        np.testing.assert_array_equal(out.as_array(), v.as_array())

    def test_pure_translation(self):
        # oracle: linear part picks up -p x omega
        p = np.array([1.0, 0.0, 0.0])
        x = PlueckerTransform(np.eye(3), p)
        v = SpatialMotion([0.0, 0.0, 1.0], np.zeros(3))
        out = transform_motion(x, v)
        expected_lin = -np.cross(p, v.angular)
        np.testing.assert_allclose(out.angular, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(out.linear, expected_lin)
        np.testing.assert_allclose(out.linear, [0.0, 1.0, 0.0])

    def test_inverse_roundtrip(self, rng):
        for _ in range(20):
            x = random_transform(rng)
            v = random_motion(rng)
            back = transform_motion(inverse(x), transform_motion(x, v))
            np.testing.assert_allclose(back.as_array(), v.as_array(), atol=1e-14)

    def test_composition_law(self, rng):
        for _ in range(20):
            x1, x2 = random_transform(rng), random_transform(rng)
            v = random_motion(rng)
            a = transform_motion(compose(x1, x2), v)
            b = transform_motion(x1, transform_motion(x2, v))
            np.testing.assert_allclose(a.as_array(), b.as_array(), atol=1e-12)


class TestTransformForce:
    def test_identity(self, rng):
        f = random_force(rng)
        out = transform_force(PlueckerTransform.identity(), f)
        np.testing.assert_array_equal(out.as_array(), f.as_array())

    def test_power_invariance(self, rng):
        for _ in range(50):
            x = random_transform(rng)
            v, f = random_motion(rng), random_force(rng)
            p0 = f.dot(v)
            p1 = transform_force(x, f).dot(transform_motion(x, v))
            assert abs(p0 - p1) <= 1e-12 * (1 + abs(p0))

    def test_pure_rotation_rotates_both(self, rng):
        from pvdyn.spatial import axis_angle_rotation
        r = axis_angle_rotation(np.array([0.0, 0.0, 1.0]), 0.7)
        x = PlueckerTransform(r, np.zeros(3))
        f = random_force(rng)
        out = transform_force(x, f)
        np.testing.assert_allclose(out.torque, r @ f.torque, atol=1e-14)
        np.testing.assert_allclose(out.force, r @ f.force, atol=1e-14)


class TestCrossProducts:
    def test_self_cross_vanishes(self, rng):
        v = random_motion(rng)
        np.testing.assert_allclose(motion_cross_motion(v, v).as_array(),
                                   np.zeros(6), atol=1e-14)

    def test_componentwise_example(self):
        v = SpatialMotion([0.0, 0.0, 1.0], np.zeros(3))
        w = SpatialMotion(np.zeros(3), [1.0, 0.0, 0.0])
        out = motion_cross_motion(v, w)
        np.testing.assert_allclose(out.angular, np.zeros(3))
        np.testing.assert_allclose(out.linear, [0.0, 1.0, 0.0])

    def test_duality(self, rng):
        for _ in range(30):
            v, w, f = random_motion(rng), random_motion(rng), random_force(rng)
            lhs = f.dot(motion_cross_motion(v, w))
            rhs = -motion_cross_force(v, f).dot(w)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


class TestInertia:
    def test_point_mass_newton(self):
        inertia = SpatialInertia.from_com(2.0, np.zeros(3), np.zeros((3, 3)))
        f = apply_inertia(inertia, SpatialMotion(np.zeros(3), [1.0, 0.0, 0.0]))
        np.testing.assert_allclose(f.torque, np.zeros(3))
        np.testing.assert_allclose(f.force, [2.0, 0.0, 0.0])

    def test_zero_motion(self, rng):
        inertia = SpatialInertia.from_com(1.5, rng.standard_normal(3) * 0.1,
                                          np.diag([0.1, 0.2, 0.3]))
        f = apply_inertia(inertia, SpatialMotion.zero())
        np.testing.assert_array_equal(f.as_array(), np.zeros(6))

    def test_symmetry_identity(self, rng):
        inertia = SpatialInertia.from_com(1.5, [0.1, -0.2, 0.05],
                                          np.diag([0.1, 0.2, 0.3]))
        for _ in range(20):
            v, w = random_motion(rng), random_motion(rng)
            a = apply_inertia(inertia, w).dot(v)
            b = apply_inertia(inertia, v).dot(w)
            assert abs(a - b) <= 1e-12 * (1 + abs(a))


class TestTransformInertia:
    def test_identity(self, rng):
        mat = rng.standard_normal((6, 6))
        ai = ArticulatedInertia(mat @ mat.T)
        out = transform_inertia(PlueckerTransform.identity(), ai)
        np.testing.assert_allclose(out.matrix, ai.matrix, atol=1e-14)

    def test_roundtrip(self, rng):
        mat = rng.standard_normal((6, 6))
        ai = ArticulatedInertia(mat @ mat.T)
        x = random_transform(rng)
        back = transform_inertia(inverse(x), transform_inertia(x, ai))
        np.testing.assert_allclose(back.matrix, ai.matrix, atol=1e-12)

    def test_quadratic_form_invariance(self, rng):
        for _ in range(20):
            mat = rng.standard_normal((6, 6))
            ai = ArticulatedInertia(mat @ mat.T)
            x = random_transform(rng)
            v = random_motion(rng)
            xv = transform_motion(x, v).as_array()
            lhs = v.as_array() @ transform_inertia(x, ai).matrix @ v.as_array()
            rhs = xv @ ai.matrix @ xv
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_preserves_symmetry_and_psd(self, rng):
        mat = rng.standard_normal((6, 6))
        ai = ArticulatedInertia(mat @ mat.T)
        out = transform_inertia(random_transform(rng), ai)
        np.testing.assert_allclose(out.matrix, out.matrix.T, atol=1e-12)
        assert np.linalg.eigvalsh(out.matrix).min() >= -1e-10


def test_rigid_body_inertia_spd(rng):
    inertia = SpatialInertia.from_com(2.0, [0.3, 0.1, -0.2], np.diag([0.2, 0.3, 0.25]))
    eigs = np.linalg.eigvalsh(inertia.to_matrix())
    assert eigs.min() > 0
    np.testing.assert_allclose(inertia.to_matrix(), inertia.to_matrix().T)


def test_transform_validation():
    with pytest.raises(ValueError):
        PlueckerTransform(np.eye(3) * 2.0, np.zeros(3)).validate()


def _cross_matrix_m(v):
    """6x6 matrix of v x (.) on motion vectors: [[w^, 0], [u^, w^]]."""
    from pvdyn.spatial import skew
    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = skew(v[:3])
    out[3:, :3] = skew(v[3:])
    return out


class TestArrayKernels:
    """The array kernels against np.cross and the 6x6 matrix forms."""

    def test_cross_helper_matches_numpy(self, rng):
        from pvdyn.spatial import _cross
        for _ in range(50):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            np.testing.assert_allclose(_cross(a, b), np.cross(a, b), rtol=0, atol=1e-15)
        for k in (1, 2, 7):
            a, blk = rng.standard_normal(3), rng.standard_normal((3, k))
            out = _cross(a, blk)
            assert out.shape == (3, k)
            np.testing.assert_allclose(out, np.cross(a, blk.T).T, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", ["xm6", "xf6", "xft6"])
    def test_transforms_blockwise_and_dense(self, rng, name):
        from pvdyn import spatial
        kernel = getattr(spatial, name)
        for _ in range(20):
            x = random_transform(rng)
            rot, trans = x.rotation, x.translation
            dense = {"xm6": x.motion_matrix(), "xf6": x.force_matrix(),
                     "xft6": x.motion_matrix().T}[name]
            blk = rng.standard_normal((6, 5))
            out = kernel(rot, trans, blk)
            assert out.shape == (6, 5)
            for j in range(5):
                np.testing.assert_allclose(out[:, j], kernel(rot, trans, blk[:, j]),
                                           rtol=0, atol=1e-14)
            np.testing.assert_allclose(out, dense @ blk, rtol=0, atol=1e-14)

    def test_spatial_cross_products_match_matrices(self, rng):
        from pvdyn.spatial import cross_f6, cross_m6
        for _ in range(20):
            v, w = rng.standard_normal(6), rng.standard_normal(6)
            crm = _cross_matrix_m(v)
            np.testing.assert_allclose(cross_m6(v, w), crm @ w, rtol=0, atol=1e-14)
            np.testing.assert_allclose(cross_f6(v, w), -crm.T @ w, rtol=0, atol=1e-14)
            blk = rng.standard_normal((6, 4))
            np.testing.assert_allclose(cross_m6(v, blk), crm @ blk, rtol=0, atol=1e-14)
            np.testing.assert_allclose(cross_f6(v, blk), -crm.T @ blk, rtol=0, atol=1e-14)

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
