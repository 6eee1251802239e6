"""Encode/decode round trips, the confidence law, and pruning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpose import codec
from gridpose import geometry as geo
from gridpose.errors import LengthMismatch, OutOfVolume, RoleMismatch

from conftest import PAPER_CAM, PAPER_GRID, SceneStub, hand_around, random_scene


LABELS = codec.LabelSpec(n_objects=3, n_actions=4, n_interactions=12)


def raw_from_target(t: codec.TargetTensor, labels: codec.LabelSpec) -> np.ndarray:
    """Invert the decode activations on a target tensor.

    Root offsets and confidences go through the logit; identity channels and
    one-hot class targets stay as they are (softmax keeps the argmax).
    """
    n_c = labels.n_control
    hand = t.hand.astype(float).copy()
    obj = t.object.astype(float).copy()
    hand[..., 0:3] = codec.logit(hand[..., 0:3])                       # wrist
    obj[..., 3 * (n_c - 1): 3 * n_c] = codec.logit(obj[..., 3 * (n_c - 1): 3 * n_c])  # centroid
    hand[..., -1] = codec.logit(hand[..., -1])
    obj[..., -1] = codec.logit(obj[..., -1])
    return np.concatenate([hand, obj], axis=-1)


class TestLabelSpec:
    def test_fpha_ho_slot_sizes(self):
        # 4 objects, 10 actions: hand slot 3*21+10+1 = 74, object slot 68
        labels = codec.LabelSpec(n_objects=4, n_actions=10, n_interactions=10)
        assert labels.hand_slot == 74
        assert labels.object_slot == 68

    def test_slot_length_formula(self):
        for n_a, n_o in [(1, 1), (4, 3), (10, 4), (45, 26)]:
            labels = codec.LabelSpec(n_objects=n_o, n_actions=n_a, n_interactions=n_a * n_o)
            assert labels.hand_slot == 3 * 21 + n_a + 1
            assert labels.object_slot == 3 * 21 + n_o + 1

    def test_interaction_index(self):
        labels = codec.LabelSpec(n_objects=3, n_actions=4, n_interactions=12)
        assert labels.interaction_index(0, 0) == 0
        assert labels.interaction_index(1, 0) == 3
        assert labels.interaction_index(3, 2) == 11


class TestEncodeFrame:
    def test_hand_responsible_cell_and_offsets(self):
        # Root pixel (100, 150) at depth 0.5 m: 100/32 = 3.125 -> cell u=3,
        # 150/32 = 4.6875 -> v=4, 0.5/0.15 = 3.333 -> z=3,
        # offsets (0.125, 0.6875, 1/3).
        root = geo.grid_to_camera(
            np.array([100.0 / 32.0, 150.0 / 32.0, 0.5 / 0.15]), PAPER_CAM, PAPER_GRID
        )
        scene = SceneStub(
            hand_points=hand_around(root),
            object_points=hand_around(geo.grid_to_camera(np.array([6.0, 6.0, 2.0]),
                                                         PAPER_CAM, PAPER_GRID))[::-1],
            action_id=2, object_id=1,
        )
        t = codec.encode_frame(scene, PAPER_GRID, LABELS, PAPER_CAM)
        assert t.hand_cell == (3, 4, 3)
        off = t.hand[4, 3, 3, :3]
        np.testing.assert_allclose(off, [0.125, 0.6875, 1.0 / 3.0], atol=1e-12)
        # one-hot action and unit confidence at the responsible cell
        np.testing.assert_array_equal(t.hand[4, 3, 3, 63:67], [0, 0, 1, 0])
        assert t.hand[4, 3, 3, -1] == 1.0

    def test_root_on_cell_corner_gets_zero_offsets(self):
        # Constants chosen binary-exact so the corner projection is exact:
        # root (-0.109375, -0.078125, 0.5) projects to pixel (96, 128),
        # i.e. grid coordinate (3, 4, 2) precisely on the corner.
        grid = geo.GridSpec(h=13, w=13, d=5, cell_u_px=32.0, cell_v_px=32.0,
                            cell_z_m=0.25, z_min=0.0)
        cam = geo.CameraIntrinsics(fx=512.0, fy=512.0, cx=208.0, cy=208.0)
        root = np.array([-0.109375, -0.078125, 0.5])
        np.testing.assert_array_equal(geo.camera_to_grid(root, cam, grid), [3.0, 4.0, 2.0])
        scene = SceneStub(hand_points=hand_around(root),
                          object_points=hand_around(root + 0.01)[::-1],
                          action_id=0, object_id=0)
        t = codec.encode_frame(scene, grid, LABELS, cam)
        assert t.hand_cell == (3, 4, 2)
        np.testing.assert_array_equal(t.hand[4, 3, 2, :3], [0.0, 0.0, 0.0])

    def test_out_of_volume_reports_entity_and_axis(self):
        far = geo.grid_to_camera(np.array([6.0, 6.0, 5.5]), PAPER_CAM, PAPER_GRID)
        near = geo.grid_to_camera(np.array([6.0, 6.0, 2.0]), PAPER_CAM, PAPER_GRID)
        scene = SceneStub(hand_points=hand_around(far, spread=0.0),
                          object_points=hand_around(near)[::-1],
                          action_id=0, object_id=0)
        with pytest.raises(OutOfVolume) as exc:
            codec.encode_frame(scene, PAPER_GRID, LABELS, PAPER_CAM)
        assert exc.value.entity == "hand"
        assert exc.value.axis == "z"

    def test_single_responsible_cell_per_entity(self):
        rng = np.random.default_rng(5)
        scene, _, _ = random_scene(rng)
        t = codec.encode_frame(scene, PAPER_GRID, LABELS, PAPER_CAM)
        assert (t.hand[..., -1] == 1.0).sum() == 1
        assert (t.object[..., -1] == 1.0).sum() == 1
        # everything else is zero
        u, v, z = t.hand_cell
        masked = t.hand.copy()
        masked[v, u, z] = 0.0
        assert np.all(masked == 0.0)


class TestDecodeCell:
    def test_zero_root_offsets_decode_to_cell_center(self):
        raw = np.zeros(LABELS.cell_channels)
        cell = codec.decode_cell(raw, (3, 4, 3), PAPER_GRID, LABELS, PAPER_CAM)
        np.testing.assert_allclose(cell.hand.grid_coords[0], [3.5, 4.5, 3.5])
        np.testing.assert_allclose(cell.object.grid_coords[20], [3.5, 4.5, 3.5])
        # zero logits: uniform classes, confidence 1/2
        np.testing.assert_allclose(cell.hand.probs, np.full(4, 0.25))
        assert cell.hand.confidence == pytest.approx(0.5)

    def test_identity_activation_for_non_root(self):
        raw = np.zeros(LABELS.cell_channels)
        raw[3:6] = [1.25, -0.5, 0.0]   # hand point 1
        cell = codec.decode_cell(raw, (3, 4, 3), PAPER_GRID, LABELS, PAPER_CAM)
        np.testing.assert_allclose(cell.hand.grid_coords[1], [4.25, 3.5, 3.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(LengthMismatch):
            codec.decode_cell(np.zeros(10), (0, 0, 0), PAPER_GRID, LABELS, PAPER_CAM)

    def test_root_offsets_stay_inside_cell(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(scale=5.0, size=LABELS.cell_channels)
        cell = codec.decode_cell(raw, (6, 6, 2), PAPER_GRID, LABELS, PAPER_CAM)
        for slot, role in ((cell.hand, geo.HAND), (cell.object, geo.OBJECT)):
            root = slot.grid_coords[geo.root_index(role)]
            corner = np.array([6.0, 6.0, 2.0])
            assert np.all(root > corner) and np.all(root < corner + 1.0)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_encode_decode_recovers_points(self, seed):
        rng = np.random.default_rng(seed)
        scene, _, _ = random_scene(rng)
        t = codec.encode_frame(scene, PAPER_GRID, LABELS, PAPER_CAM)
        raw = raw_from_target(t, LABELS)

        hand = codec.decode_cell(raw[t.hand_cell[1], t.hand_cell[0], t.hand_cell[2]],
                                 t.hand_cell, PAPER_GRID, LABELS, PAPER_CAM).hand
        obj = codec.decode_cell(raw[t.object_cell[1], t.object_cell[0], t.object_cell[2]],
                                t.object_cell, PAPER_GRID, LABELS, PAPER_CAM).object
        assert np.abs(hand.points - scene.hand_points).max() < 1e-9
        assert np.abs(obj.points - scene.object_points).max() < 1e-9
        assert int(np.argmax(hand.probs)) == scene.action_id
        assert int(np.argmax(obj.probs)) == scene.object_id

    def test_decode_grid_matches_decode_cell(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(PAPER_GRID.h, PAPER_GRID.w, PAPER_GRID.d, LABELS.cell_channels))
        dec = codec.decode_grid(raw, PAPER_GRID, LABELS)
        for u, v, z in [(0, 0, 0), (3, 4, 2), (12, 12, 4)]:
            cell = codec.decode_cell(raw[v, u, z], (u, v, z), PAPER_GRID, LABELS, PAPER_CAM)
            np.testing.assert_allclose(dec.hand_coords[v, u, z], cell.hand.grid_coords)
            np.testing.assert_allclose(dec.object_probs[v, u, z], cell.object.probs)
            assert dec.hand_conf[v, u, z] == pytest.approx(cell.hand.confidence)


class TestConfidence:
    def test_zero_distance_gives_one(self):
        assert codec.confidence_from_distances(0.0, 0.0, PAPER_GRID) == pytest.approx(1.0)

    def test_cutoff_gives_zero(self):
        assert codec.confidence_from_distances(75.0, 0.075, PAPER_GRID) == 0.0
        assert codec.confidence_from_distances(200.0, 1.0, PAPER_GRID) == 0.0

    def test_half_cutoff_closed_form(self):
        # alpha = 2 at D = d_th/2: (e^1 - 1)/(e^2 - 1) = 1/(e + 1) per component
        c = codec.confidence_from_distances(37.5, 0.0375, PAPER_GRID)
        assert c == pytest.approx(1.0 / (np.e + 1.0), abs=1e-12)

    def test_strictly_decreasing(self):
        d = np.linspace(0.0, 74.999, 100)
        c = codec.confidence_component(d, 75.0, 2.0)
        assert np.all(np.diff(c) < 0)
        assert c[0] == pytest.approx(1.0)

    def test_role_mismatch(self):
        hand = geo.ControlPointSet(np.zeros((21, 3)) + [0, 0, 1], role=geo.HAND)
        obj = geo.ControlPointSet(np.zeros((21, 3)) + [0, 0, 1], role=geo.OBJECT)
        with pytest.raises(RoleMismatch):
            codec.confidence_target(hand, obj, PAPER_GRID, PAPER_CAM)

    def test_point_set_interface(self):
        pts = hand_around(np.array([0.0, 0.0, 0.5]))
        gt = geo.ControlPointSet(pts, role=geo.HAND)
        pred = geo.ControlPointSet(pts, role=geo.HAND)
        assert codec.confidence_target(pred, gt, PAPER_GRID, PAPER_CAM) == pytest.approx(1.0)

    def test_grid_coord_form_matches_point_form(self):
        rng = np.random.default_rng(4)
        gt = hand_around(geo.grid_to_camera(np.array([6.0, 6.0, 2.5]), PAPER_CAM, PAPER_GRID), rng)
        pred = gt + rng.normal(scale=0.01, size=gt.shape)
        w_gt = geo.camera_to_grid(gt, PAPER_CAM, PAPER_GRID)
        w_pred = geo.camera_to_grid(pred, PAPER_CAM, PAPER_GRID)
        via_grid = codec.confidence_from_grid_coords(w_pred, w_gt, PAPER_GRID)
        via_points = codec.confidence_target(
            geo.ControlPointSet(pred, role=geo.HAND),
            geo.ControlPointSet(gt, role=geo.HAND), PAPER_GRID, PAPER_CAM
        )
        assert via_grid == pytest.approx(via_points, abs=1e-12)


class TestPrune:
    def _grid_with_conf(self, hand_conf_logits):
        raw = np.zeros((PAPER_GRID.h, PAPER_GRID.w, PAPER_GRID.d, LABELS.cell_channels))
        raw[..., LABELS.hand_slot - 1] = hand_conf_logits
        return codec.decode_grid(raw, PAPER_GRID, LABELS)

    def test_single_hot_cell_wins(self):
        logits = np.full((13, 13, 5), -10.0)
        logits[4, 7, 2] = 10.0   # (u=7, v=4, z=2)
        dec = self._grid_with_conf(logits)
        pred = codec.prune(dec, PAPER_GRID, PAPER_CAM)
        assert pred.hand_cell == (7, 4, 2)

    def test_tie_breaks_to_lowest_linear_index(self):
        logits = np.full((13, 13, 5), -10.0)
        logits[0, 1, 0] = 10.0   # (u=1, v=0, z=0), linear (1*13+0)*5+0 = 65
        logits[1, 0, 0] = 10.0   # (u=0, v=1, z=0), linear (0*13+1)*5+0 = 5
        dec = self._grid_with_conf(logits)
        pred = codec.prune(dec, PAPER_GRID, PAPER_CAM)
        assert pred.hand_cell == (0, 1, 0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_matches_exhaustive_scan(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(PAPER_GRID.h, PAPER_GRID.w, PAPER_GRID.d, LABELS.cell_channels))
        dec = codec.decode_grid(raw, PAPER_GRID, LABELS)
        pred = codec.prune(dec, PAPER_GRID, PAPER_CAM)
        # brute-force scan in documented linear order
        best, best_conf = None, -1.0
        for u in range(PAPER_GRID.w):
            for v in range(PAPER_GRID.h):
                for z in range(PAPER_GRID.d):
                    c = dec.object_conf[v, u, z]
                    if c > best_conf:
                        best, best_conf = (u, v, z), c
        assert pred.object_cell == best
        assert pred.object_confidence == pytest.approx(best_conf)
