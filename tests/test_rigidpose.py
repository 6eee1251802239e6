"""Rigid alignment and DLT pose-solver tests.

The independent oracle for both solvers is construction: apply a known
rigid transform to known model points, then check recovery.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpose import geometry as geo
from gridpose import rigidpose as rp
from gridpose.errors import DegenerateConfiguration, RankDeficient

from conftest import rotation_geodesic

BOX = geo.cuboid_control_points(geo.Cuboid(0.04, 0.06, 0.1)).points
CAM = geo.CameraIntrinsics(fx=600.0, fy=600.0, cx=208.0, cy=208.0)


def random_pose(rng, t_scale=0.3, z_offset=0.8):
    t = rng.uniform(-t_scale, t_scale, size=3)
    t[2] += z_offset
    return rp.Pose6D(rp.random_rotation(rng), t)


def rz(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestPose6D:
    def test_identity_apply(self):
        pts = np.random.default_rng(1).normal(size=(5, 3))
        np.testing.assert_array_equal(rp.Pose6D(np.eye(3), np.zeros(3)).apply(pts), pts)

    def test_pure_translation(self):
        pose = rp.Pose6D(np.eye(3), np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(pose.apply(np.zeros(3)), [0.0, 0.0, 1.0])


class TestProcrustes:
    def test_identity(self):
        pose = rp.procrustes_align(BOX, BOX)
        np.testing.assert_allclose(pose.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(pose.translation, np.zeros(3), atol=1e-12)

    def test_rz90_plus_translation(self):
        true = rp.Pose6D(rz(np.pi / 2), np.array([0.0, 0.0, 1.0]))
        pose = rp.procrustes_align(BOX, true.apply(BOX))
        np.testing.assert_allclose(pose.rotation, true.rotation, atol=1e-12)
        np.testing.assert_allclose(pose.translation, true.translation, atol=1e-12)

    def test_noisy_alignment_is_optimal(self):
        # The least-squares solution can never have a larger residual than
        # the transform that generated the data.
        rng = np.random.default_rng(42)
        worse = 0
        for _ in range(100):
            true = random_pose(rng)
            noisy = true.apply(BOX) + rng.normal(scale=1e-3, size=(21, 3))
            est = rp.procrustes_align(BOX, noisy)
            res_est = np.sum((est.apply(BOX) - noisy) ** 2)
            res_true = np.sum((true.apply(BOX) - noisy) ** 2)
            worse += res_est > res_true + 1e-15
        assert worse == 0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_recovers_random_rigid_exactly(self, seed):
        rng = np.random.default_rng(seed)
        src = rng.normal(size=(21, 3))
        true = random_pose(rng)
        est = rp.procrustes_align(src, true.apply(src))
        assert rotation_geodesic(est.rotation, true.rotation) < 1e-9
        assert np.linalg.norm(est.translation - true.translation) < 1e-9

    def test_determinant_stays_positive_on_mirrored_input(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            src = rng.normal(size=(21, 3))
            mirrored = src * np.array([1.0, 1.0, -1.0]) + rng.normal(scale=0.01, size=(21, 3))
            est = rp.procrustes_align(src, mirrored)
            assert np.linalg.det(est.rotation) == pytest.approx(1.0, abs=1e-9)
            np.testing.assert_allclose(est.rotation @ est.rotation.T, np.eye(3), atol=1e-9)

    def test_residual_invariant_under_common_rigid_motion(self):
        rng = np.random.default_rng(11)
        src = rng.normal(size=(21, 3))
        dst = src + rng.normal(scale=0.05, size=(21, 3))
        base = rp.procrustes_align(src, dst)
        res_base = np.sum((base.apply(src) - dst) ** 2)
        move = random_pose(rng)
        moved = rp.procrustes_align(move.apply(src), move.apply(dst))
        res_moved = np.sum((moved.apply(move.apply(src)) - move.apply(dst)) ** 2)
        assert res_moved == pytest.approx(res_base, rel=1e-9)

    def test_collinear_source_rejected(self):
        line = np.outer(np.linspace(0, 1, 21), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateConfiguration):
            rp.procrustes_align(line, line + 0.1)

    def test_corners_only_flag(self):
        rng = np.random.default_rng(5)
        true = random_pose(rng)
        dst = true.apply(BOX)
        est = rp.procrustes_align(BOX, dst, corners_only=True)
        assert rotation_geodesic(est.rotation, true.rotation) < 1e-9


class TestPnpDlt:
    def test_exact_frontal_pose(self):
        true = rp.Pose6D(np.eye(3), np.array([0.0, 0.0, 1.0]))
        px = geo.project(true.apply(BOX), CAM)
        est = rp.pnp_dlt(px, BOX, CAM)
        assert rotation_geodesic(est.rotation, true.rotation) < 1e-6
        np.testing.assert_allclose(est.translation, true.translation, atol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_exact_random_pose(self, seed):
        rng = np.random.default_rng(seed)
        true = random_pose(rng, t_scale=0.2, z_offset=1.0)
        px = geo.project(true.apply(BOX), CAM)
        est = rp.pnp_dlt(px, BOX, CAM)
        assert rotation_geodesic(est.rotation, true.rotation) < 1e-6
        assert np.linalg.norm(est.translation - true.translation) < 1e-6

    def test_five_points_rejected(self):
        with pytest.raises(RankDeficient):
            rp.pnp_dlt(np.zeros((5, 2)), np.zeros((5, 3)), CAM)

    def test_det_is_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            true = random_pose(rng, t_scale=0.2, z_offset=1.0)
            px = geo.project(true.apply(BOX), CAM)
            px = px + rng.normal(scale=2.0, size=px.shape)
            est = rp.pnp_dlt(px, BOX, CAM)
            assert np.linalg.det(est.rotation) == pytest.approx(1.0, abs=1e-9)


def test_rotation_geodesic_small_angles():
    # angle 1e-7 about z: the Frobenius form keeps full precision
    r = rz(1e-7)
    assert rotation_geodesic(r, np.eye(3)) == pytest.approx(1e-7, rel=1e-6)
    assert rotation_geodesic(np.eye(3), np.eye(3)) == 0.0
