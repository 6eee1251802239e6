"""Projection, grid back-projection and cuboid control-point tests.

Expected values are hand-computed from the pinhole equations
    u = fx*x/z + cx,  v = fy*y/z + cy
and their inverse through the grid parametrization.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpose import config
from gridpose import geometry as geo
from gridpose.errors import ConfigError, NonPositiveDepth
from gridpose.rigidpose import Pose6D, random_rotation


IDENTITY_CAM = geo.CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
UNIT_GRID = geo.GridSpec(h=8, w=8, d=8, cell_u_px=1.0, cell_v_px=1.0, cell_z_m=1.0,
                         z_min=0.0, cutoff_px=10.0)


class TestProject:
    def test_on_optical_axis(self):
        assert np.allclose(geo.project(np.array([0.0, 0.0, 1.0]), IDENTITY_CAM), [0.0, 0.0])

    def test_similar_triangles(self):
        # (1, 2, 2) with unit focal: u = 1/2, v = 2/2
        assert np.allclose(geo.project(np.array([1.0, 2.0, 2.0]), IDENTITY_CAM), [0.5, 1.0])

    def test_hand_arithmetic(self):
        # u = 600*0.1/0.5 + 208 = 328, v = 600*(-0.05)/0.5 + 208 = 148
        cam = geo.CameraIntrinsics(fx=600.0, fy=600.0, cx=208.0, cy=208.0)
        px = geo.project(np.array([0.1, -0.05, 0.5]), cam)
        np.testing.assert_allclose(px, [328.0, 148.0], rtol=0, atol=1e-12)

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(NonPositiveDepth):
            geo.project(np.array([0.0, 0.0, 0.0]), IDENTITY_CAM)
        with pytest.raises(NonPositiveDepth):
            geo.project(np.array([[0.0, 0.0, 1.0], [0.1, 0.1, -0.2]]), IDENTITY_CAM)

    def test_batched_matches_single(self):
        cam = geo.CameraIntrinsics(fx=320.0, fy=240.0, cx=100.0, cy=80.0)
        rng = np.random.default_rng(0)
        pts = rng.uniform([-1, -1, 0.5], [1, 1, 3.0], size=(17, 3))
        batched = geo.project(pts, cam)
        singles = np.array([geo.project(p, cam) for p in pts])
        np.testing.assert_allclose(batched, singles)


class TestBackprojectGrid:
    def test_identity_intrinsics_scaling(self):
        # K = I, unit cells: (2, 3, 4) -> depth 4, pixel (2, 3) -> (8, 12, 4)
        p = geo.grid_to_camera(np.array([2.0, 3.0, 4.0]), IDENTITY_CAM, UNIT_GRID)
        np.testing.assert_allclose(p, [8.0, 12.0, 4.0], atol=1e-15)

    def test_principal_ray(self):
        p = geo.grid_to_camera(np.array([0.0, 0.0, 1.0]), IDENTITY_CAM, UNIT_GRID)
        np.testing.assert_allclose(p, [0.0, 0.0, 1.0], atol=1e-15)

    def test_round_trip_solved_by_hand(self):
        # Pixel (6.5*32, 6.5*32) = (208, 208) = principal point, depth
        # (10/3)*0.15 = 0.5 -> the camera point is (0, 0, 0.5).
        cam = geo.CameraIntrinsics(fx=600.0, fy=600.0, cx=208.0, cy=208.0)
        grid = geo.GridSpec(h=13, w=13, d=5, cell_u_px=32.0, cell_v_px=32.0,
                            cell_z_m=0.15, z_min=0.0)
        p = geo.grid_to_camera(np.array([6.5, 6.5, 10.0 / 3.0]), cam, grid)
        np.testing.assert_allclose(p, [0.0, 0.0, 0.5], atol=1e-12)

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(NonPositiveDepth):
            geo.grid_to_camera(np.array([1.0, 1.0, 0.0]), IDENTITY_CAM, UNIT_GRID)

    def test_z_min_offsets_depth(self):
        grid = geo.GridSpec(h=4, w=4, d=4, cell_u_px=8.0, cell_v_px=8.0,
                            cell_z_m=0.1, z_min=0.3)
        cam = geo.CameraIntrinsics(fx=50.0, fy=50.0, cx=16.0, cy=16.0)
        p = geo.grid_to_camera(np.array([2.0, 2.0, 0.0]), cam, grid)
        assert p[2] == pytest.approx(0.3)

    @settings(max_examples=100, deadline=None)
    @given(
        wu=st.floats(0.0, 13.0), wv=st.floats(0.0, 13.0),
        wz=st.floats(0.01, 5.0),
    )
    def test_round_trip_is_identity(self, wu, wv, wz):
        cam = geo.CameraIntrinsics(fx=600.0, fy=450.0, cx=208.0, cy=200.0)
        grid = geo.GridSpec(h=13, w=13, d=5, cell_u_px=32.0, cell_v_px=32.0,
                            cell_z_m=0.15, z_min=0.0)
        g = np.array([wu, wv, wz])
        back = geo.camera_to_grid(geo.grid_to_camera(g, cam, grid), cam, grid)
        np.testing.assert_allclose(back, g, rtol=1e-9, atol=1e-9)


class TestCellDiagonal:
    def test_toy_preset(self):
        # the central cell's corners (3, 3, 1) and (4, 4, 2) lie at depths 0.45
        # and 0.6 m, -4 and +4 px off the principal point at fx = fy = 80:
        # x and y run from -0.0225 to 0.03 m, z by one 0.15 m cell
        cfg = config.toy_preset()
        diag = geo.cell_diagonal_m(cfg.grid, cfg.camera)
        assert diag == pytest.approx(np.sqrt(2 * 0.0525 ** 2 + 0.15 ** 2), rel=1e-12)
        assert round(diag, 5) == 0.16737


class TestCuboidControlPoints:
    def test_unit_cube_layout(self):
        cps = geo.cuboid_control_points(geo.Cuboid(0.5, 0.5, 0.5))
        pts = cps.points
        assert pts.shape == (21, 3)
        corners, mids, centroid = pts[:8], pts[8:20], pts[20]
        assert np.all(np.abs(corners) == 0.5)
        # every midpoint has exactly one zero coordinate on a unit cube
        assert np.all((mids == 0).sum(axis=1) == 1)
        np.testing.assert_allclose(centroid, [0.0, 0.0, 0.0])

    def test_sign_ordering(self):
        pts = geo.cuboid_control_points(geo.Cuboid(1.0, 2.0, 3.0)).points
        np.testing.assert_allclose(pts[0], [-1.0, -2.0, -3.0])
        np.testing.assert_allclose(pts[7], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(pts[20], [0.0, 0.0, 0.0])

    def test_centroid_is_corner_mean(self):
        pts = geo.cuboid_control_points(geo.Cuboid(0.2, 0.7, 1.3)).points
        np.testing.assert_allclose(pts[20], pts[:8].mean(axis=0), atol=1e-15)

    def test_mean_of_all_points_is_origin(self):
        pts = geo.cuboid_control_points(geo.Cuboid(0.11, 0.37, 0.91)).points
        np.testing.assert_allclose(pts.mean(axis=0), [0.0, 0.0, 0.0], atol=1e-15)

    def test_midpoints_exact(self):
        c = geo.Cuboid(0.4, 0.2, 0.9)
        corners = geo.cuboid_corners(c)
        pts = geo.cuboid_control_points(c).points
        for k, (i, j) in enumerate(geo.CUBOID_EDGES):
            np.testing.assert_array_equal(pts[8 + k], (corners[i] + corners[j]) / 2.0)

    @settings(max_examples=50, deadline=None)
    @given(
        ex=st.floats(0.01, 2.0), ey=st.floats(0.01, 2.0), ez=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_rigid_transform_commutes_with_construction(self, ex, ey, ez, seed):
        # Transforming the 21 points equals rebuilding midpoints/centroid
        # from transformed corners: midpoints and centroid are affine.
        rng = np.random.default_rng(seed)
        pose = Pose6D(random_rotation(rng), rng.uniform(-1, 1, size=3))
        c = geo.Cuboid(ex, ey, ez)
        direct = pose.apply(geo.cuboid_control_points(c).points)
        corners = pose.apply(geo.cuboid_corners(c))
        rebuilt_mids = np.array([(corners[i] + corners[j]) / 2 for i, j in geo.CUBOID_EDGES])
        rebuilt = np.concatenate([corners, rebuilt_mids, corners.mean(axis=0, keepdims=True)])
        np.testing.assert_allclose(direct, rebuilt, atol=1e-12)

    def test_rejects_bad_extents(self):
        with pytest.raises(ConfigError):
            geo.Cuboid(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("extents", [(0.0, 0.1, 0.1), (0.1, -0.1, 0.1), (0.1, 0.1, -0.0)])
    def test_bad_extents_raise_past_the_cache(self, extents):
        geo.cuboid_control_points(geo.Cuboid(*np.abs(extents) + 0.1))
        with pytest.raises(ConfigError, match="half-extents"):
            geo.cuboid_control_points(geo.Cuboid(*extents))

    def test_cached_points_are_read_only(self):
        c = geo.Cuboid(0.03, 0.04, 0.05)
        cps = geo.cuboid_control_points(c)
        assert geo.cuboid_control_points(geo.Cuboid(0.03, 0.04, 0.05)) is cps
        before = cps.points.copy()
        with pytest.raises(ValueError, match="read-only"):
            cps.points[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            cps.points += 1.0
        np.testing.assert_array_equal(geo.cuboid_control_points(c).points, before)


class TestSpecValidation:
    def test_grid_spec_rejects_zero_cells(self):
        with pytest.raises(ConfigError):
            geo.GridSpec(h=0, w=4, d=4, cell_u_px=8, cell_v_px=8, cell_z_m=0.1)

    def test_intrinsics_reject_zero_focal(self):
        with pytest.raises(ConfigError):
            geo.CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0)

    def test_image_size(self):
        grid = geo.GridSpec(h=7, w=7, d=3, cell_u_px=8, cell_v_px=8, cell_z_m=0.15)
        assert (grid.image_w, grid.image_h) == (56, 56)

    def test_root_index(self):
        # the wrist starts the skeleton, the centroid ends the box points
        assert geo.root_index(geo.HAND) == 0
        assert geo.root_index(geo.OBJECT) == geo.NUM_CONTROL_POINTS - 1 == 20

    @pytest.mark.parametrize("shape", [(21,), (21, 2), (1, 21, 3)])
    def test_control_point_set_rejects_non_n_by_3(self, shape):
        with pytest.raises(ConfigError, match=r"\(N, 3\)"):
            geo.ControlPointSet(points=np.zeros(shape))
