"""Sparse grid targets, grid decoding, pruning and the confidence law.

The network predicts two slots per grid cell:

    hand slot   [3·NUM_CONTROL_POINTS coord values | n_actions class values | confidence]
    object slot [3·NUM_CONTROL_POINTS coord values | n_objects class values | confidence]

Coordinate values are offsets in cell units relative to the cell's near
top-left corner (the corner with the smallest u, v and depth). The root
point (wrist for hands, box centroid for objects) is constrained to lie
inside its cell, so its raw value passes through a sigmoid at decode time;
all other points decode with the identity and may land outside the cell.

Targets are sparse: frame_targets gives, per entity, the one cell that
contains the root point (the "responsible" cell) and the control points'
grid coordinates, for one frame or a whole stack of frames in one pass.
The loss reads their offsets from that cell's corner at the responsible
cells only; every other cell is trained towards confidence 0. Points on a
cell boundary belong to the lower-index cell.

At inference decode_best takes a batch's confidence logits of every cell,
picks each frame's most confident hand and object cell, asks for the raw
channels of those two cells only (network.predict runs the head in full
there) and returns one FramePrediction whose fields are batch columns.
decode_grid and prune are its one-frame case on a dense raw grid:
decode_grid checks its shape and prune takes frame 0 of a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import logistic as sigmoid
from .errors import ConfigError, ConfigOutOfRange, LengthMismatch, OutOfVolume
from .geometry import (
    HAND,
    NUM_CONTROL_POINTS,
    OBJECT,
    CameraIntrinsics,
    GridSpec,
    camera_to_grid,
    grid_to_camera_unchecked,
    root_index,
)


# Coordinate channels at the head of each slot: x, y, z of every control point.
COORD_CHANNELS = 3 * NUM_CONTROL_POINTS


@dataclass(frozen=True)
class LabelSpec:
    """Label space: the verb (action) and noun (object) class counts.

    Every (verb, noun) pair is an interaction class, so there are
    n_actions * n_objects of them, numbered action-major.
    """

    n_objects: int
    n_actions: int

    def __post_init__(self):
        if min(self.n_objects, self.n_actions) < 1:
            raise ConfigError("class counts must be >= 1")

    @property
    def n_interactions(self) -> int:
        return self.n_actions * self.n_objects

    @property
    def hand_slot(self) -> int:
        return COORD_CHANNELS + self.n_actions + 1

    @property
    def object_slot(self) -> int:
        return COORD_CHANNELS + self.n_objects + 1

    @property
    def cell_channels(self) -> int:
        return self.hand_slot + self.object_slot

    def interaction_index(self, action_id: int, object_id: int) -> int:
        """Pair index for (verb, noun): action-major."""
        return action_id * self.n_objects + object_id


@dataclass(frozen=True, eq=False)
class DecodedGrid:
    """One frame's shape-checked float64 (h, w, d, cell_channels) raw grid."""

    raw: np.ndarray
    labels: LabelSpec


@dataclass(frozen=True, eq=False)
class FramePrediction:
    """Best hand and object slot of one frame, or of a stack of frames with
    leading axes (...); len() and an index count and take frames on axis 0."""

    hand_points: np.ndarray         # (..., NUM_CONTROL_POINTS, 3) camera frame
    hand_confidence: np.ndarray     # (...)
    action_probs: np.ndarray        # (..., n_actions)
    hand_cell: np.ndarray           # (..., 3) int (u, v, z)
    object_points: np.ndarray
    object_confidence: np.ndarray
    object_probs: np.ndarray        # (..., n_objects)
    object_cell: np.ndarray

    def __len__(self) -> int:
        return len(self.hand_confidence)

    def __getitem__(self, idx) -> "FramePrediction":
        return FramePrediction(*(column[idx] for column in vars(self).values()))

    @staticmethod
    def join(records) -> "FramePrediction":
        return FramePrediction(*map(np.concatenate, zip(*(vars(r).values() for r in records))))

    @property
    def action_id(self) -> np.ndarray:
        """The most probable action, or -1 if a probability is not finite (class_ids)."""
        return class_ids(self.action_probs)

    @property
    def object_id(self) -> np.ndarray:
        return class_ids(self.object_probs)

    def interaction_id(self, labels: LabelSpec) -> np.ndarray:
        """The (action, object) pair index, or -1 if either class is -1."""
        a, o = self.action_id, self.object_id
        return np.where((a < 0) | (o < 0), -1, labels.interaction_index(a, o))


def class_ids(scores) -> np.ndarray:
    """Argmax over the last axis, or -1, which matches no label, where the
    scores hold a non-finite value: argmax would pick the first NaN."""
    z = np.asarray(scores)
    return np.where(np.isfinite(z).all(axis=-1), z.argmax(axis=-1), -1)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


@dataclass(frozen=True, eq=False)
class FrameTargets:
    """Sparse training targets of one frame, or of a stack of frames with
    leading axes (...).

    Role row 0 is the hand and row 1 the object, as in decode_best. The
    in-cell offsets are coords - cells[..., None, :].
    """

    cells: np.ndarray       # (..., 2, 3) int (u, v, z) responsible cell of each role
    coords: np.ndarray      # (..., 2, NUM_CONTROL_POINTS, 3) ground-truth grid coordinates
    action_id: np.ndarray   # (...) int
    object_id: np.ndarray


def frame_targets(scene, grid: GridSpec, labels: LabelSpec, cam: CameraIntrinsics) -> FrameTargets:
    """Responsible cells and grid coordinates of ground-truth scenes.

    The scene exposes hand_points and object_points (..., 21, 3) and
    action_id and object_id (...): one frame, or a stack of frames with
    leading axes. A stack is checked ids first, then depth, then volume,
    so a stack with one bad frame raises what that frame raises alone:
    ConfigOutOfRange for a class id outside its label space,
    NonPositiveDepth for a point at z <= 0, and OutOfVolume for the first
    hand root or object centroid (hand before object, then u, v, z) that
    falls outside the grid volume.
    """
    ids = np.asarray(scene.action_id), np.asarray(scene.object_id)
    for name, i, n in zip(("action", "object"), ids, (labels.n_actions, labels.n_objects)):
        bad = (i < 0) | (i >= n)
        if np.any(bad):
            raise ConfigOutOfRange(f"{name} id {i[bad][0]} not in [0, {n})")

    points = np.stack([np.asarray(scene.hand_points, dtype=float),
                       np.asarray(scene.object_points, dtype=float)], axis=-3)
    coords = camera_to_grid(points.reshape(*ids[0].shape, 2, NUM_CONTROL_POINTS, 3), cam, grid)
    roots = coords[..., [0, 1], [root_index(HAND), root_index(OBJECT)], :]   # (..., 2, 3)
    dims = np.array([grid.w, grid.h, grid.d])
    outside = ~((0 <= roots) & (roots < dims))
    if np.any(outside):
        first = int(np.argmax(outside.ravel()))   # frame-major, then role, then axis
        role, axis = divmod(first % 6, 3)
        raise OutOfVolume((HAND, OBJECT)[role], "uvz"[axis], float(roots.ravel()[first]),
                          (0.0, float(dims[axis])))
    return FrameTargets(cells=np.floor(roots).astype(int), coords=coords,
                        action_id=ids[0].astype(int), object_id=ids[1].astype(int))


def decode_offsets(raw_coords: np.ndarray, role: str) -> np.ndarray:
    """Raw coordinate channels -> in-cell offsets (sigmoid on the root point only)."""
    arr = np.asarray(raw_coords, dtype=float)
    off = arr.reshape(*arr.shape[:-1], NUM_CONTROL_POINTS, 3).copy()
    root = root_index(role)
    off[..., root, :] = sigmoid(off[..., root, :])
    return off


def decode_grid(raw_grid: np.ndarray, grid: GridSpec, labels: LabelSpec) -> DecodedGrid:
    """One frame's (h, w, d, hand_slot+object_slot) raw grid, for prune."""
    raw_grid = np.asarray(raw_grid, dtype=float)
    expect = (grid.h, grid.w, grid.d, labels.cell_channels)
    if raw_grid.shape != expect:
        raise LengthMismatch(f"raw grid has shape {raw_grid.shape}, expected {expect}")
    return DecodedGrid(raw=raw_grid, labels=labels)


def _best_cell(conf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-confidence cell of each (h, w, d) grid in a (B, h, w, d) batch.

    Returns the (B,) arrays u, v, z. Ties break to the lowest linear index
    in (u-major, then v, then z) order; a NaN confidence beats every number,
    and the first NaN in that order wins.
    """
    swapped = conf.transpose(0, 2, 1, 3)  # (B, w, h, d)
    best = np.argmax(swapped.reshape(len(conf), math.prod(swapped.shape[1:])), axis=1)
    return np.unravel_index(best, swapped.shape[1:])


def prune(decoded: DecodedGrid, grid: GridSpec, cam: CameraIntrinsics) -> FramePrediction:
    """decode_best on a batch of one: the frame's best hand and object slot."""
    raw, labels = decoded.raw, decoded.labels
    return decode_best(raw[None, ..., [labels.hand_slot - 1, labels.cell_channels - 1]],
                       lambda cells: raw[cells[..., 1], cells[..., 0], cells[..., 2]],
                       grid, labels, cam)[0]


def decode_best(conf_logits: np.ndarray, read_cells, grid: GridSpec, labels: LabelSpec,
                cam: CameraIntrinsics) -> FramePrediction:
    """The most confident hand and object slot of each of B >= 0 frames, as
    one FramePrediction of length B, from only those two cells per frame.

    conf_logits (B, h, w, d, 2) holds the hand and object confidence logits
    of every cell. read_cells(cells), for a (B, 2, 3) int array of the
    (u, v, z) hand and object cell of each frame, gives their
    (B, 2, hand_slot+object_slot) raw channels. The most confident cells
    come from the confidences alone, so only those two cells per frame are
    read and decoded, for all frames at once. No result is a view into the
    inputs.
    """
    conf_logits = np.asarray(conf_logits, dtype=float)
    expect = (grid.h, grid.w, grid.d, 2)
    if conf_logits.shape[1:] != expect:
        raise LengthMismatch(
            f"confidence logits have shape {conf_logits.shape}, expected (B, *{expect})")
    b = len(conf_logits)
    conf = sigmoid(conf_logits)
    u, v, z = (i.reshape(b, 2) for i in _best_cell(
        conf.transpose(0, 4, 1, 2, 3).reshape(2 * b, grid.h, grid.w, grid.d)))
    cells = np.stack([u, v, z], axis=-1)
    channels = np.asarray(read_cells(cells), dtype=float)
    if channels.shape != (b, 2, labels.cell_channels):
        raise LengthMismatch(f"read_cells gave shape {channels.shape}, "
                             f"expected ({b}, 2, {labels.cell_channels})")
    hand, obj = channels[:, 0, : labels.hand_slot], channels[:, 1, labels.hand_slot:]
    offsets = np.stack([decode_offsets(hand[:, :COORD_CHANNELS], HAND),
                        decode_offsets(obj[:, :COORD_CHANNELS], OBJECT)], axis=1)
    points = grid_to_camera_unchecked(offsets + cells[:, :, None, :], cam, grid)
    best = conf[np.arange(b)[:, None], v, u, z, [0, 1]]
    return FramePrediction(
        hand_points=points[:, 0], hand_confidence=best[:, 0],
        action_probs=softmax(hand[:, COORD_CHANNELS:-1]), hand_cell=cells[:, 0],
        object_points=points[:, 1], object_confidence=best[:, 1],
        object_probs=softmax(obj[:, COORD_CHANNELS:-1]), object_cell=cells[:, 1])


def confidence_component(distance, cutoff: float, sharpness: float):
    """Normalized exponential confidence law on one distance axis.

    Equals 1 at distance 0, decreases strictly, and clamps to 0 at and
    beyond the cutoff: (e^(a*(1 - D/cutoff)) - 1) / (e^a - 1).
    """
    d = np.asarray(distance, dtype=float)
    scaled = np.expm1(sharpness * (1.0 - d / cutoff)) / np.expm1(sharpness)
    return np.where(d < cutoff, scaled, 0.0)


def confidence_from_distances(d_px, d_m, grid: GridSpec):
    """Fused confidence: equal-weight mix of the image-space and depth laws."""
    c_uv = confidence_component(d_px, grid.cutoff_px, grid.sharpness)
    c_z = confidence_component(d_m, grid.cutoff_m, grid.sharpness)
    return 0.5 * c_uv + 0.5 * c_z


def confidence_from_grid_coords(pred_w: np.ndarray, gt_w: np.ndarray, grid: GridSpec):
    """Confidence target from grid-coordinate predictions (vectorized).

    pred_w/gt_w have shape (..., n_points, 3); distances are the mean 2D
    pixel distance and the mean metric depth distance over the points.
    """
    delta = np.asarray(pred_w, dtype=float) - np.asarray(gt_w, dtype=float)
    d_px = np.hypot(delta[..., 0] * grid.cell_u_px, delta[..., 1] * grid.cell_v_px).mean(axis=-1)
    d_m = (np.abs(delta[..., 2]) * grid.cell_z_m).mean(axis=-1)
    return confidence_from_distances(d_px, d_m, grid)

