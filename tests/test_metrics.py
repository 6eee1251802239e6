"""PCK / ADD / projection / accuracy metric tests against brute-force recounts."""

import json

import numpy as np
import pytest

from gridpose import geometry as geo
from gridpose import metrics
from gridpose.errors import DegenerateConfiguration, EmptyModel, LengthMismatch
from gridpose.rigidpose import Pose6D, random_rotation

CAM = geo.CameraIntrinsics(fx=600.0, fy=600.0, cx=208.0, cy=208.0)
CUBE = geo.cuboid_control_points(geo.Cuboid(0.05, 0.05, 0.05)).points


def compose(a: Pose6D, b: Pose6D) -> Pose6D:
    """a after b: compose(a, b).apply(p) == a.apply(b.apply(p))."""
    return Pose6D(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def random_pose(rng, z=0.8):
    t = rng.uniform(-0.1, 0.1, size=3)
    t[2] += z
    return Pose6D(random_rotation(rng), t)


def pck3d(pred, gt, thresholds):
    """The hand curve as evaluate builds it."""
    return metrics.fraction_below(metrics.mean_frame_errors(pred, gt), thresholds)


class TestPck3d:
    def test_perfect_prediction_is_one_everywhere(self):
        rng = np.random.default_rng(0)
        gt = rng.normal(size=(10, 21, 3))
        curve = pck3d(gt, gt, [0.001, 0.01, 0.1])
        np.testing.assert_array_equal(curve, [1.0, 1.0, 1.0])

    def test_constant_offset(self):
        # every joint off by exactly 2 cm: 0 below 1 cm, 1 below 3 cm
        rng = np.random.default_rng(1)
        gt = rng.normal(size=(5, 21, 3))
        pred = gt + np.array([0.02, 0.0, 0.0])
        curve = pck3d(pred, gt, [0.01, 0.03])
        np.testing.assert_array_equal(curve, [0.0, 1.0])

    def test_matches_per_frame_recount(self):
        rng = np.random.default_rng(2)
        gt = rng.normal(size=(40, 21, 3))
        pred = gt + rng.normal(scale=0.02, size=gt.shape)
        thresholds = np.linspace(0.0, 0.08, 9)
        curve = pck3d(pred, gt, thresholds)
        for k, th in enumerate(thresholds):
            count = 0
            for f in range(40):
                errs = [np.linalg.norm(pred[f, j] - gt[f, j]) for j in range(21)]
                count += np.mean(errs) < th
            assert curve[k] == pytest.approx(count / 40)

    def test_monotone_and_limits(self):
        rng = np.random.default_rng(3)
        gt = rng.normal(size=(30, 21, 3))
        pred = gt + rng.normal(scale=0.05, size=gt.shape)
        curve = pck3d(pred, gt, np.linspace(0, 1e3, 50))
        assert np.all(np.diff(curve) >= 0)
        assert curve[-1] == 1.0   # threshold far beyond any error
        assert curve[0] == 0.0    # zero threshold with nonzero error

    def test_reorder_invariance(self):
        rng = np.random.default_rng(4)
        gt = rng.normal(size=(12, 21, 3))
        pred = gt + rng.normal(scale=0.01, size=gt.shape)
        perm = rng.permutation(12)
        a = pck3d(pred, gt, [0.01, 0.02])
        b = pck3d(pred[perm], gt[perm], [0.01, 0.02])
        np.testing.assert_array_equal(a, b)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            metrics.mean_frame_errors(np.zeros((3, 21, 3)), np.zeros((4, 21, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_joint_scores_inf_and_misses(self, value):
        rng = np.random.default_rng(6)
        gt = rng.normal(size=(4, 21, 3))
        pred = gt + 0.001
        pred[2, 7, 1] = value
        errors = metrics.mean_frame_errors(pred, gt)
        assert errors[2] == np.inf and np.all(np.isfinite(errors[[0, 1, 3]]))
        np.testing.assert_array_equal(pck3d(pred, gt, [0.01, 1e9]), [0.75, 0.75])


class TestAdd:
    def test_identical_poses(self):
        pose = random_pose(np.random.default_rng(0))
        assert metrics.add_metric(pose, pose, CUBE) == 0.0

    def test_pure_translation_gives_exact_distance(self):
        rng = np.random.default_rng(1)
        base = random_pose(rng)
        moved = Pose6D(base.rotation, base.translation + [0.0, 0.03, 0.04])
        assert metrics.add_metric(moved, base, CUBE) == pytest.approx(0.05)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(2)
        a, b = random_pose(rng), random_pose(rng)
        direct = np.mean([np.linalg.norm(a.apply(p) - b.apply(p)) for p in CUBE])
        assert metrics.add_metric(a, b, CUBE) == pytest.approx(direct, rel=1e-12)

    def test_invariant_under_common_rigid_motion(self):
        rng = np.random.default_rng(3)
        a, b = random_pose(rng), random_pose(rng)
        move = random_pose(rng, z=0.0)
        base = metrics.add_metric(a, b, CUBE)
        shifted = metrics.add_metric(compose(move, a), compose(move, b), CUBE)
        assert shifted == pytest.approx(base, rel=1e-9)

    def test_empty_model_rejected(self):
        pose = Pose6D(np.eye(3), np.zeros(3))
        with pytest.raises(EmptyModel):
            metrics.add_metric(pose, pose, np.zeros((0, 3)))


class TestProj2d:
    def test_identical_poses(self):
        pose = random_pose(np.random.default_rng(0))
        assert metrics.proj2d_error(pose, pose, CUBE, CAM) == 0.0

    def test_depth_offset_error_shrinks_with_distance(self):
        errors = []
        for z in (0.5, 1.0, 2.0, 4.0):
            a = Pose6D(np.eye(3), np.array([0.0, 0.0, z]))
            b = Pose6D(np.eye(3), np.array([0.0, 0.0, z + 0.05]))
            errors.append(metrics.proj2d_error(a, b, CUBE, CAM))
        assert all(y < x for x, y in zip(errors, errors[1:]))

    def test_threshold_sweep_monotone(self):
        rng = np.random.default_rng(5)
        gts = [random_pose(rng) for _ in range(30)]
        preds = [Pose6D(p.rotation, p.translation + rng.normal(scale=0.01, size=3))
                 for p in gts]
        errs = [metrics.proj2d_error(a, b, CUBE, CAM) for a, b in zip(preds, gts)]
        curve = metrics.fraction_below(errs, np.linspace(0, 40, 20))
        assert np.all(np.diff(curve) >= 0)


class TestObjectPoseErrors:
    def test_exact_points_give_zero_errors(self):
        truth = random_pose(np.random.default_rng(0))
        errors = metrics.object_pose_errors(CUBE, truth.apply(CUBE), truth, CAM)
        np.testing.assert_allclose(errors, 0.0, atol=1e-9)

    @pytest.mark.parametrize("route,failed", [("procrustes_align", (True, True, False)),
                                              ("pnp_dlt", (False, False, True))])
    def test_a_raising_route_fails_only_its_own_errors(self, monkeypatch, route, failed):
        def degenerate(*args):
            raise DegenerateConfiguration("degenerate")

        truth = random_pose(np.random.default_rng(1))
        points = truth.apply(CUBE) + np.random.default_rng(2).normal(scale=0.002, size=CUBE.shape)
        monkeypatch.setattr(metrics, route, degenerate)
        errors = metrics.object_pose_errors(CUBE, points, truth, CAM)
        assert tuple(np.isinf(errors)) == failed, errors

    def test_truth_behind_the_camera_fails_only_the_2d_error(self):
        truth = Pose6D(np.eye(3), [0.0, 0.0, -0.5])
        points = Pose6D(np.eye(3), [0.0, 0.0, 0.5]).apply(CUBE)
        add, proj, add_pnp = metrics.object_pose_errors(CUBE, points, truth, CAM)
        assert np.isinf(proj)
        assert add == pytest.approx(1.0) and add_pnp == pytest.approx(1.0)

    @pytest.mark.parametrize("z", [0.0, 1e-6])
    def test_a_point_not_in_front_fails_only_pnp(self, z):
        truth = random_pose(np.random.default_rng(3))
        points = truth.apply(CUBE)
        points[4, 2] = z
        add, proj, add_pnp = metrics.object_pose_errors(CUBE, points, truth, CAM)
        assert np.isfinite(add) and np.isfinite(proj) and add_pnp == np.inf

    def test_a_nan_point_fails_every_error(self):
        # a NaN pixel can decode to NaN object points (network.predict)
        truth = random_pose(np.random.default_rng(5))
        points = truth.apply(CUBE)
        points[2] = np.nan
        assert metrics.object_pose_errors(CUBE, points, truth, CAM) == (np.inf,) * 3

    def test_a_point_at_infinite_depth_fails_every_error(self):
        # x / inf projects to a finite pixel, so only the finiteness check
        # keeps PnP from fitting the other points
        truth = random_pose(np.random.default_rng(5))
        points = truth.apply(CUBE)
        points[2] = [0.0, 0.0, np.inf]
        assert metrics.object_pose_errors(CUBE, points, truth, CAM) == (np.inf,) * 3

    def test_a_fit_behind_the_camera_keeps_its_add(self):
        # the predicted centroid sits behind the camera: the Procrustes pose
        # still has an ADD, but neither a projection nor a PnP pose
        truth = random_pose(np.random.default_rng(4))
        points = truth.apply(CUBE) - [0.0, 0.0, truth.translation[2] + 0.01]
        add, proj, add_pnp = metrics.object_pose_errors(CUBE, points, truth, CAM)
        assert add == pytest.approx(truth.translation[2] + 0.01)
        assert proj == np.inf and add_pnp == np.inf


class TestAccuracy:
    def test_all_correct(self):
        assert metrics.classification_accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_none_correct(self):
        assert metrics.classification_accuracy([0, 0, 0], [1, 2, 3]) == 0.0

    def test_half_correct(self):
        assert metrics.classification_accuracy([1, 2, 0, 0], [1, 2, 3, 4]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            metrics.classification_accuracy([1], [1, 2])


class TestMeanJointErrorMm:
    def test_zero_for_equal(self):
        x = np.random.default_rng(0).normal(size=(4, 21, 3))
        assert metrics.mean_joint_error_mm(x, x) == 0.0

    def test_uniform_offset(self):
        x = np.random.default_rng(1).normal(size=(4, 21, 3))
        assert metrics.mean_joint_error_mm(x + [0.01, 0, 0], x) == pytest.approx(10.0)

    def test_matches_flat_average(self):
        rng = np.random.default_rng(2)
        gt = rng.normal(size=(7, 21, 3))
        pred = gt + rng.normal(scale=0.02, size=gt.shape)
        flat = np.mean([np.linalg.norm(pred[f, j] - gt[f, j])
                        for f in range(7) for j in range(21)]) * 1000
        assert metrics.mean_joint_error_mm(pred, gt) == pytest.approx(flat, rel=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_frames_with_a_non_finite_joint_are_left_out(self, value):
        rng = np.random.default_rng(3)
        gt = rng.normal(size=(5, 21, 3))
        pred = gt + rng.normal(scale=0.02, size=gt.shape)
        healthy = metrics.mean_joint_error_mm(pred[[0, 2, 4]], gt[[0, 2, 4]])
        pred[[1, 3], 4, 0] = value
        assert metrics.mean_joint_error_mm(pred, gt) == healthy
        pred[:, 0, 2] = value
        assert metrics.mean_joint_error_mm(pred, gt) == np.inf


class TestReports:
    def test_curve_csv(self, tmp_path):
        metrics.write_csv(tmp_path / "c.csv", ("threshold", "fraction"),
                          zip([0.01, 0.02], [0.5, 1.0]))
        text = (tmp_path / "c.csv").read_text()
        assert text.splitlines()[0] == "threshold,fraction"
        assert "0.01,0.5" in text

    def test_strings_as_they_are_numbers_as_10g_and_newline_ends(self, tmp_path):
        metrics.write_csv(tmp_path / "c.csv", ("name", "value"),
                          [("palm", 1 / 3), (7, np.float64(2.5e-12)), ("x", float("inf"))])
        assert (tmp_path / "c.csv").read_bytes() == (
            b"name,value\npalm,0.3333333333\n7,2.5e-12\nx,inf\n")

    def test_json_summary(self, tmp_path):
        metrics.write_json(tmp_path / "s.json", {"b": 1, "a": 2})
        text = (tmp_path / "s.json").read_text()
        assert text.index('"a"') < text.index('"b"')
        assert (tmp_path / "s.json").read_bytes() == b'{\n  "a": 2,\n  "b": 1\n}\n'

    def test_non_finite_floats_are_written_as_null_at_any_depth(self, tmp_path):
        def no_constants(name):
            raise ValueError(f"{name} is not JSON")

        doc = {"add": float("inf"), "pnp": -np.inf, "mje": np.float64("nan"), "ok": 0.5,
               "nested": {"curve": [1.0, float("nan"), (float("-inf"), 2)], "n": 3}}
        metrics.write_json(tmp_path / "s.json", doc)
        got = json.loads((tmp_path / "s.json").read_text(), parse_constant=no_constants)
        assert got == {"add": None, "pnp": None, "mje": None, "ok": 0.5,
                       "nested": {"curve": [1.0, None, [None, 2]], "n": 3}}
        assert doc["add"] == float("inf")   # the caller's document is not changed
