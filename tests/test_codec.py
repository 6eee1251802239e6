"""Sparse targets, grid decoding, the confidence law and pruning."""

import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpose import codec, config
from gridpose import geometry as geo
from gridpose.errors import ConfigError, LengthMismatch, OutOfVolume

from conftest import PAPER_CAM, PAPER_GRID, SceneStub, hand_around, logit, random_scene


LABELS = codec.LabelSpec(n_objects=3, n_actions=4)


def raw_grid_from_targets(t: codec.FrameTargets, grid, labels) -> np.ndarray:
    """A raw output grid that decodes to the targets exactly.

    The responsible cell of each entity holds its offsets (the root through
    the logit), a one-hot class (softmax keeps the argmax) and confidence
    logit +inf; every other cell has confidence logit -inf.
    """
    n_c = geo.NUM_CONTROL_POINTS
    raw = np.zeros((grid.h, grid.w, grid.d, labels.cell_channels))
    raw[..., labels.hand_slot - 1] = logit(0.0)
    raw[..., -1] = logit(0.0)
    role_offsets = t.coords - t.cells[:, None, :]
    for (u, v, z), offsets, class_id, role, base in (
        (t.cells[0], role_offsets[0], t.action_id, geo.HAND, 0),
        (t.cells[1], role_offsets[1], t.object_id, geo.OBJECT, labels.hand_slot),
    ):
        coords = offsets.copy()
        root = geo.root_index(role)
        coords[root] = logit(coords[root])
        slot_len = labels.hand_slot if role == geo.HAND else labels.object_slot
        raw[v, u, z, base: base + 3 * n_c] = coords.ravel()
        raw[v, u, z, base + 3 * n_c + class_id] = 1.0
        raw[v, u, z, base + slot_len - 1] = logit(1.0)
    return raw


Slot = namedtuple("Slot", "points probs confidence")


def decode_cell(raw, cell, grid, labels, cam) -> tuple[Slot, Slot]:
    """Reference decoder of one cell's raw vector into its (hand, object) slots,
    with its own sigmoid and softmax; the oracle for the cells that
    codec.decode_best and codec.prune pick."""
    raw = np.asarray(raw, dtype=float)
    n_c = geo.NUM_CONTROL_POINTS
    slots = []
    for role, vec in ((geo.HAND, raw[: labels.hand_slot]), (geo.OBJECT, raw[labels.hand_slot:])):
        offsets = vec[: 3 * n_c].reshape(n_c, 3).copy()
        root = geo.root_index(role)
        offsets[root] = 1.0 / (1.0 + np.exp(-offsets[root]))
        coords = offsets + np.asarray(cell, dtype=float)
        logits = vec[3 * n_c: -1]
        e = np.exp(logits - logits.max())
        slots.append(Slot(points=geo.grid_to_camera_unchecked(coords, cam, grid),
                          probs=e / e.sum(),
                          confidence=1.0 / (1.0 + np.exp(-vec[-1]))))
    return slots[0], slots[1]


def first_max_cell(conf) -> tuple[int, int, int]:
    """Exhaustive scan of an (h, w, d) confidence grid in the documented
    linear order (u-major, then v, then z): the first NaN, else the first
    maximum; the oracle for the cell choice of codec.decode_best."""
    conf = np.asarray(conf).tolist()
    best, best_conf = None, -1.0
    for u in range(len(conf[0])):
        for v in range(len(conf)):
            for z in range(len(conf[0][0])):
                c = conf[v][u][z]
                if math.isnan(c):
                    return u, v, z
                if c > best_conf:
                    best, best_conf = (u, v, z), c
    return best


def reference_prediction(raw, grid, labels, cam) -> tuple[Slot, Slot, tuple, tuple]:
    """The hand and object slot of a dense (h, w, d, cell_channels) raw grid
    at their first most confident cells, and those cells, from the oracles."""
    conf = 1.0 / (1.0 + np.exp(-raw[..., [labels.hand_slot - 1, -1]]))
    cells = [first_max_cell(conf[..., role]) for role in (0, 1)]
    hand, obj = (decode_cell(raw[v, u, z], (u, v, z), grid, labels, cam)[role]
                 for role, (u, v, z) in enumerate(cells))
    return hand, obj, *cells


def cells_of(pred) -> tuple[tuple, tuple]:
    """The (u, v, z) hand and object cell of a one-frame prediction, as the
    tuples of int that reference_prediction gives."""
    return tuple(pred.hand_cell.tolist()), tuple(pred.object_cell.tolist())


def point_set_confidence(pred, gt, grid, cam) -> float:
    """Reference confidence of camera-frame points (N, 3) against truth: mean
    pixel distance of the projections and mean depth distance, through the
    distance law; the oracle for codec.confidence_from_grid_coords."""
    d_px = np.linalg.norm(geo.project(pred, cam) - geo.project(gt, cam), axis=1).mean()
    d_m = np.abs(pred[:, 2] - gt[:, 2]).mean()
    return float(codec.confidence_from_distances(d_px, d_m, grid))


class TestLabelSpec:
    def test_fpha_ho_slot_sizes(self):
        # 4 objects, 10 actions: hand slot 3*21+10+1 = 74, object slot 68
        labels = codec.LabelSpec(n_objects=4, n_actions=10)
        assert labels.hand_slot == 74
        assert labels.object_slot == 68

    def test_slot_length_formula(self):
        for n_a, n_o in [(1, 1), (4, 3), (10, 4), (45, 26)]:
            labels = codec.LabelSpec(n_objects=n_o, n_actions=n_a)
            assert labels.hand_slot == 3 * 21 + n_a + 1
            assert labels.object_slot == 3 * 21 + n_o + 1

    def test_interaction_index(self):
        labels = codec.LabelSpec(n_objects=3, n_actions=4)
        assert labels.interaction_index(0, 0) == 0
        assert labels.interaction_index(1, 0) == 3
        assert labels.interaction_index(3, 2) == 11

    @pytest.mark.parametrize("n_a,n_o", [(1, 1), (4, 3), (3, 4), (10, 4), (7, 1)])
    def test_every_pair_is_a_class(self, n_a, n_o):
        labels = codec.LabelSpec(n_objects=n_o, n_actions=n_a)
        assert labels.n_interactions == n_a * n_o
        ids = [labels.interaction_index(a, o) for a in range(n_a) for o in range(n_o)]
        assert sorted(ids) == list(range(labels.n_interactions))

    @pytest.mark.parametrize("n_a,n_o", [(0, 3), (4, 0)])
    def test_empty_class_count_rejected(self, n_a, n_o):
        with pytest.raises(ConfigError, match="class counts"):
            codec.LabelSpec(n_objects=n_o, n_actions=n_a)



class TestFramePrediction:
    LABELS = codec.LabelSpec(n_objects=3, n_actions=4)

    def prediction(self, action_probs, object_probs):
        points = np.zeros((geo.NUM_CONTROL_POINTS, 3))
        return codec.FramePrediction(points, 1.0, np.asarray(action_probs), (0, 0, 0),
                                     points, 1.0, np.asarray(object_probs), (0, 0, 0))

    def test_ids_are_the_most_probable_classes(self):
        p = self.prediction([0.1, 0.2, 0.6, 0.1], [0.2, 0.2, 0.6])
        assert (p.action_id, p.object_id, p.interaction_id(self.LABELS)) == (2, 2, 8)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_probabilities_give_no_class(self, value):
        # argmax of these would be 0, a real class; -1 matches no label
        p = self.prediction([value, 0.2, 0.6, 0.1], [0.7, 0.2, 0.1])
        assert (p.action_id, p.object_id, p.interaction_id(self.LABELS)) == (-1, 0, -1)
        p = self.prediction([0.1, 0.2, 0.6, 0.1], [0.7, value, 0.1])
        assert (p.action_id, p.object_id, p.interaction_id(self.LABELS)) == (2, -1, -1)

    def test_stacked_ids_are_minus_one_on_exactly_the_non_finite_rows(self):
        action = np.array([[0.1, 0.2, 0.6, 0.1], [np.nan, 0.2, 0.6, 0.1],
                           [0.7, 0.1, 0.1, 0.1], [0.1, 0.1, 0.1, 0.7], [0.1, 0.1, 0.1, 0.7]])
        obj = np.array([[0.2, 0.2, 0.6], [0.7, 0.2, 0.1], [0.7, np.inf, 0.1],
                        [0.1, 0.8, 0.1], [np.nan, np.nan, np.nan]])
        points = np.zeros((5, geo.NUM_CONTROL_POINTS, 3))
        p = codec.FramePrediction(points, np.ones(5), action, np.zeros((5, 3), int),
                                  points, np.ones(5), obj, np.zeros((5, 3), int))
        assert p.action_id.tolist() == [2, -1, 0, 3, 3]
        assert p.object_id.tolist() == [2, 0, -1, 1, -1]
        assert p.interaction_id(self.LABELS).tolist() == [8, -1, -1, 10, -1]
        assert [p[i].interaction_id(self.LABELS) for i in range(len(p))] == [8, -1, -1, 10, -1]

    def test_class_ids_of_rows(self):
        z = np.array([[0.0, 3.0, 1.0], [np.nan, 0.0, 0.0], [2.0, -np.inf, 1.0]])
        assert codec.class_ids(z).tolist() == [1, -1, -1]


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
        t = codec.frame_targets(scene, PAPER_GRID, LABELS, PAPER_CAM)
        assert tuple(t.cells[0]) == (3, 4, 3)
        np.testing.assert_allclose(t.coords[0, 0] - t.cells[0], [0.125, 0.6875, 1.0 / 3.0],
                                   atol=1e-12)
        assert (t.action_id, t.object_id) == (2, 1)

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
        t = codec.frame_targets(scene, grid, LABELS, cam)
        assert tuple(t.cells[0]) == (3, 4, 2)
        np.testing.assert_array_equal(t.coords[0, 0] - t.cells[0], [0.0, 0.0, 0.0])

    def test_out_of_volume_reports_entity_and_axis(self):
        far = geo.grid_to_camera(np.array([6.0, 6.0, 5.5]), PAPER_CAM, PAPER_GRID)
        near = geo.grid_to_camera(np.array([6.0, 6.0, 2.0]), PAPER_CAM, PAPER_GRID)
        scene = SceneStub(hand_points=hand_around(far, spread=0.0),
                          object_points=hand_around(near)[::-1],
                          action_id=0, object_id=0)
        with pytest.raises(OutOfVolume) as exc:
            codec.frame_targets(scene, PAPER_GRID, LABELS, PAPER_CAM)
        assert exc.value.entity == "hand"
        assert exc.value.axis == "z"

    def test_single_responsible_cell_per_entity(self):
        # the responsible cell is the one cell holding the root: its offsets
        # from the cell corner lie in [0, 1) on every axis
        rng = np.random.default_rng(5)
        for _ in range(20):
            scene, _, _ = random_scene(rng)
            t = codec.frame_targets(scene, PAPER_GRID, LABELS, PAPER_CAM)
            for r, role in enumerate((geo.HAND, geo.OBJECT)):
                root = t.coords[r, geo.root_index(role)] - t.cells[r]
                assert np.all(root >= 0.0) and np.all(root < 1.0)
            roots = [geo.root_index(geo.HAND), geo.root_index(geo.OBJECT)]
            np.testing.assert_array_equal(t.cells, np.floor(t.coords[[0, 1], roots]))


def _raw_grid(rng=None, scale=1.0):
    shape = (PAPER_GRID.h, PAPER_GRID.w, PAPER_GRID.d, LABELS.cell_channels)
    return np.zeros(shape) if rng is None else rng.normal(scale=scale, size=shape)


def _prune(raw, grid=PAPER_GRID, cam=PAPER_CAM):
    return codec.prune(codec.decode_grid(raw, grid, LABELS), grid, cam)


def _only_confident_cell(raw, u, v, z):
    """raw with every cell's confidence logits but (u, v, z)'s set to -10,
    so that cell wins for both hand and object."""
    raw = raw.copy()
    keep = raw[v, u, z, [LABELS.hand_slot - 1, -1]]
    raw[..., [LABELS.hand_slot - 1, -1]] = -10.0
    raw[v, u, z, [LABELS.hand_slot - 1, -1]] = keep
    return raw


def _grid_coords(points):
    return geo.camera_to_grid(points, PAPER_CAM, PAPER_GRID)


class TestDecodeCell:
    def test_zero_root_offsets_decode_to_cell_center(self):
        pred = _prune(_only_confident_cell(_raw_grid(), 3, 4, 3))
        assert cells_of(pred) == ((3, 4, 3), (3, 4, 3))
        np.testing.assert_allclose(_grid_coords(pred.hand_points[0]), [3.5, 4.5, 3.5])
        np.testing.assert_allclose(_grid_coords(pred.object_points[20]), [3.5, 4.5, 3.5])
        # zero logits: uniform classes, confidence 1/2
        np.testing.assert_allclose(pred.action_probs, np.full(4, 0.25))
        np.testing.assert_allclose(pred.object_probs, np.full(3, 1.0 / 3.0))
        assert pred.hand_confidence == pred.object_confidence == 0.5

    def test_identity_activation_for_non_root(self):
        raw = _raw_grid()
        raw[4, 3, 3, 3:6] = [1.25, -0.5, 0.0]   # hand point 1 of cell (u=3, v=4, z=3)
        pred = _prune(_only_confident_cell(raw, 3, 4, 3))
        np.testing.assert_allclose(_grid_coords(pred.hand_points[1]), [4.25, 3.5, 3.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(LengthMismatch):
            codec.decode_grid(np.zeros((PAPER_GRID.h, PAPER_GRID.w, PAPER_GRID.d, 10)),
                              PAPER_GRID, LABELS)

    def test_root_offsets_stay_inside_cell(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pred = _prune(_raw_grid(rng, scale=5.0))
            for points, cell, role in ((pred.hand_points, pred.hand_cell, geo.HAND),
                                       (pred.object_points, pred.object_cell, geo.OBJECT)):
                root = _grid_coords(points[geo.root_index(role)])
                assert np.all(root > cell) and np.all(root < np.add(cell, 1.0))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_encode_decode_recovers_points(self, seed):
        rng = np.random.default_rng(seed)
        scene, _, _ = random_scene(rng)
        t = codec.frame_targets(scene, PAPER_GRID, LABELS, PAPER_CAM)
        raw = raw_grid_from_targets(t, PAPER_GRID, LABELS)
        pred = _prune(raw)
        assert cells_of(pred) == tuple(map(tuple, t.cells.tolist()))
        assert np.abs(pred.hand_points - scene.hand_points).max() < 1e-9
        assert np.abs(pred.object_points - scene.object_points).max() < 1e-9
        assert pred.action_id == scene.action_id
        assert pred.object_id == scene.object_id

    def test_decode_grid_matches_decode_cell(self):
        raw = _raw_grid(np.random.default_rng(0))
        for u, v, z in [(0, 0, 0), (3, 4, 2), (12, 12, 4)]:
            pred = _prune(_only_confident_cell(raw, u, v, z))
            assert cells_of(pred) == ((u, v, z), (u, v, z))
            hand, obj = decode_cell(raw[v, u, z], (u, v, z), PAPER_GRID, LABELS, PAPER_CAM)
            np.testing.assert_allclose(pred.hand_points, hand.points)
            np.testing.assert_allclose(pred.object_points, obj.points)
            np.testing.assert_allclose(pred.action_probs, hand.probs)
            np.testing.assert_allclose(pred.object_probs, obj.probs)
            assert pred.hand_confidence == pytest.approx(hand.confidence)
            assert pred.object_confidence == pytest.approx(obj.confidence)


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
        c = codec.confidence_component(d, 75.0)
        assert np.all(np.diff(c) < 0)
        assert c[0] == pytest.approx(1.0)

    def test_point_set_interface(self):
        w = geo.camera_to_grid(hand_around(np.array([0.0, 0.0, 0.5])), PAPER_CAM, PAPER_GRID)
        assert codec.confidence_from_grid_coords(w, w, PAPER_GRID) == pytest.approx(1.0)

    def test_grid_coord_form_matches_point_form(self):
        rng = np.random.default_rng(4)
        gt = hand_around(geo.grid_to_camera(np.array([6.0, 6.0, 2.5]), PAPER_CAM, PAPER_GRID), rng)
        pred = gt + rng.normal(scale=0.01, size=gt.shape)
        w_gt = geo.camera_to_grid(gt, PAPER_CAM, PAPER_GRID)
        w_pred = geo.camera_to_grid(pred, PAPER_CAM, PAPER_GRID)
        via_grid = codec.confidence_from_grid_coords(w_pred, w_gt, PAPER_GRID)
        via_points = point_set_confidence(pred, gt, PAPER_GRID, PAPER_CAM)
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
        assert cells_of(pred)[0] == (7, 4, 2)

    def test_tie_breaks_to_lowest_linear_index(self):
        logits = np.full((13, 13, 5), -10.0)
        logits[0, 1, 0] = 10.0   # (u=1, v=0, z=0), linear (1*13+0)*5+0 = 65
        logits[1, 0, 0] = 10.0   # (u=0, v=1, z=0), linear (0*13+1)*5+0 = 5
        dec = self._grid_with_conf(logits)
        pred = codec.prune(dec, PAPER_GRID, PAPER_CAM)
        assert cells_of(pred)[0] == (0, 1, 0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_matches_exhaustive_scan(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(PAPER_GRID.h, PAPER_GRID.w, PAPER_GRID.d, LABELS.cell_channels))
        pred = _prune(raw)
        hand, obj, hand_cell, object_cell = reference_prediction(raw, PAPER_GRID, LABELS,
                                                                 PAPER_CAM)
        assert cells_of(pred) == (hand_cell, object_cell)
        assert pred.hand_confidence == pytest.approx(hand.confidence)
        assert pred.object_confidence == pytest.approx(obj.confidence)


TOY = config.toy_preset()
TOY_GRID, TOY_CAM = TOY.grid, TOY.camera


def decode_dense(raw, grid, cam, labels=LABELS):
    """decode_best reading a dense (B, h, w, d, hand_slot+object_slot) raw batch."""
    frames = np.arange(len(raw))[:, None]
    conf = raw[..., [labels.hand_slot - 1, labels.cell_channels - 1]]
    return codec.decode_best(
        conf, lambda cells: raw[frames, cells[..., 1], cells[..., 0], cells[..., 2]],
        grid, labels, cam)


class TestDecodeBest:
    """The batched decoder against the exhaustive scan and decode_cell, frame
    by frame."""

    @staticmethod
    def _batch(rng, grid, n):
        return rng.normal(scale=3.0, size=(n, grid.h, grid.w, grid.d, LABELS.cell_channels))

    def _assert_matches_per_frame(self, raw, grid, cam):
        batch = decode_dense(raw, grid, cam)
        n = len(raw)
        assert len(batch) == n
        for name, shape, kind in (("hand_cell", (n, 3), "i"), ("object_cell", (n, 3), "i"),
                                  ("hand_confidence", (n,), "f"),
                                  ("object_confidence", (n,), "f")):
            column = getattr(batch, name)
            assert (column.shape, column.dtype.kind) == (shape, kind), name
        for frame, got in zip(raw, batch):
            hand, obj, hand_cell, object_cell = reference_prediction(frame, grid, LABELS, cam)
            assert cells_of(got) == (hand_cell, object_cell)
            for name, want in (("hand_confidence", hand.confidence),
                               ("object_confidence", obj.confidence),
                               ("hand_points", hand.points), ("object_points", obj.points),
                               ("action_probs", hand.probs), ("object_probs", obj.probs)):
                np.testing.assert_allclose(getattr(got, name), want, rtol=1e-13, atol=1e-13,
                                           err_msg=name)
            for name in ("hand_points", "object_points", "action_probs", "object_probs"):
                assert not np.shares_memory(getattr(got, name), raw)
        return batch

    @pytest.mark.parametrize("grid, cam", [(TOY_GRID, TOY_CAM), (PAPER_GRID, PAPER_CAM)])
    @pytest.mark.parametrize("n", [1, 9])
    def test_random_batches_match(self, grid, cam, n):
        rng = np.random.default_rng(11 + n)
        for _ in range(3):
            self._assert_matches_per_frame(self._batch(rng, grid, n), grid, cam)

    def test_saturated_ties_break_to_lowest_u_major_index(self):
        # logits >= 40 round to confidence exactly 1.0, so several cells tie
        rng = np.random.default_rng(3)
        raw = self._batch(rng, TOY_GRID, 4)
        hand_conf, obj_conf = LABELS.hand_slot - 1, LABELS.cell_channels - 1
        # the winner has the smaller logit, so an argmax over logits would miss it
        raw[0, 2, 5, 1, hand_conf] = 55.0   # (u=5, v=2, z=1)
        raw[0, 6, 1, 2, hand_conf] = 40.0   # (u=1, v=6, z=2): lower u, wins
        raw[1, 3, 3, 0, obj_conf] = 60.0    # (u=3, v=3, z=0)
        raw[1, 0, 3, 2, obj_conf] = 41.0    # (u=3, v=0, z=2): same u, lower v, wins
        raw[2, :, :, :, hand_conf] = 45.0   # every cell ties: (0, 0, 0) wins
        preds = self._assert_matches_per_frame(raw, TOY_GRID, TOY_CAM)
        assert cells_of(preds[0])[0] == (1, 6, 2) and preds[0].hand_confidence == 1.0
        assert cells_of(preds[1])[1] == (3, 0, 2)
        assert cells_of(preds[2])[0] == (0, 0, 0)

    def test_first_nan_confidence_wins(self):
        rng = np.random.default_rng(4)
        raw = self._batch(rng, TOY_GRID, 3)
        hand_conf = LABELS.hand_slot - 1
        raw[1, 4, 2, 0, hand_conf] = np.nan   # (u=2, v=4, z=0)
        raw[1, 1, 3, 1, hand_conf] = np.nan   # (u=3, v=1, z=1): later in u-major order
        raw[1, 0, 0, 0, hand_conf] = 80.0
        preds = self._assert_matches_per_frame(raw, TOY_GRID, TOY_CAM)
        assert cells_of(preds[1])[0] == (2, 4, 0)
        assert np.isnan(preds[1].hand_confidence)

    def test_no_frames_give_a_record_of_length_zero(self):
        preds = decode_dense(self._batch(np.random.default_rng(0), TOY_GRID, 0),
                             TOY_GRID, TOY_CAM)
        assert len(preds) == 0
        assert preds.hand_points.shape == preds.object_points.shape == (0, 21, 3)
        assert preds.hand_cell.shape == preds.object_cell.shape == (0, 3)
        assert preds.action_probs.shape == (0, LABELS.n_actions)
        assert preds.interaction_id(LABELS).shape == (0,)

    def test_wrong_shape_rejected(self):
        raw = np.zeros((1, TOY_GRID.h, TOY_GRID.w, TOY_GRID.d, LABELS.cell_channels))
        with pytest.raises(LengthMismatch, match="confidence logits"):
            codec.decode_best(raw[0, ..., :2], lambda cells: raw[:, 0, :2, 0],
                              TOY_GRID, LABELS, TOY_CAM)
        with pytest.raises(LengthMismatch, match="read_cells"):
            codec.decode_best(raw[..., :2], lambda cells: raw[:, 0, :2, 0, 1:],
                              TOY_GRID, LABELS, TOY_CAM)
