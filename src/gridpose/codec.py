"""Sparse grid targets, grid decoding, pruning and the confidence law.

The network predicts two slots per grid cell:

    hand slot   [3*n_control coord values | n_actions class values | confidence]
    object slot [3*n_control coord values | n_objects class values | confidence]

Coordinate values are offsets in cell units relative to the cell's near
top-left corner (the corner with the smallest u, v and depth). The root
point (wrist for hands, box centroid for objects) is constrained to lie
inside its cell, so its raw value passes through a sigmoid at decode time;
all other points decode with the identity and may land outside the cell.

Targets are sparse: frame_targets gives, per entity, the one cell that
contains the root point (the "responsible" cell) and the control points'
offsets from that cell's corner. The loss reads these at the responsible
cells only; every other cell is trained towards confidence 0. Points on a
cell boundary belong to the lower-index cell.

At inference decode_best takes a batch of raw grids, picks each frame's
most confident hand cell and object cell from the confidence channels alone
and decodes only those two slots. decode_grid and prune are the full-grid
form of the same step on one frame: decode every cell, then keep the most
confident cell per entity. Both share one argmax and tie-break rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import logistic as sigmoid
from .errors import ConfigError, ConfigOutOfRange, LengthMismatch, OutOfVolume
from .geometry import (
    HAND,
    OBJECT,
    CameraIntrinsics,
    GridSpec,
    camera_to_grid,
    grid_to_camera_unchecked,
    root_index,
)


@dataclass(frozen=True)
class LabelSpec:
    """Label-space sizes: control points per entity and class counts."""

    n_objects: int
    n_actions: int
    n_interactions: int
    n_control: int = 21

    def __post_init__(self):
        if min(self.n_objects, self.n_actions, self.n_interactions) < 1:
            raise ConfigError("class counts must be >= 1")
        if self.n_interactions > self.n_actions * self.n_objects:
            raise ConfigError(
                f"n_interactions={self.n_interactions} exceeds "
                f"n_actions*n_objects={self.n_actions * self.n_objects}"
            )
        if self.n_control < 1:
            raise ConfigError("need at least one control point")

    @property
    def hand_slot(self) -> int:
        return 3 * self.n_control + self.n_actions + 1

    @property
    def object_slot(self) -> int:
        return 3 * self.n_control + self.n_objects + 1

    @property
    def cell_channels(self) -> int:
        return self.hand_slot + self.object_slot

    def interaction_index(self, action_id: int, object_id: int) -> int:
        """Pair index for (verb, noun): action-major."""
        return action_id * self.n_objects + object_id


@dataclass(frozen=True, eq=False)
class DecodedGrid:
    """Vectorized decode of a full raw grid (arrays indexed [v, u, z, ...])."""

    hand_coords: np.ndarray   # (h, w, d, n_control, 3) grid units
    hand_probs: np.ndarray    # (h, w, d, n_actions)
    hand_conf: np.ndarray     # (h, w, d)
    object_coords: np.ndarray
    object_probs: np.ndarray
    object_conf: np.ndarray


@dataclass(frozen=True, eq=False)
class FramePrediction:
    """Best hand and object slots of a decoded frame."""

    hand_points: np.ndarray
    hand_confidence: float
    action_probs: np.ndarray
    hand_cell: tuple[int, int, int]
    object_points: np.ndarray
    object_confidence: float
    object_probs: np.ndarray
    object_cell: tuple[int, int, int]

    @property
    def action_id(self) -> int:
        return int(np.argmax(self.action_probs))

    @property
    def object_id(self) -> int:
        return int(np.argmax(self.object_probs))

    def interaction_id(self, labels: LabelSpec) -> int:
        return labels.interaction_index(self.action_id, self.object_id)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _responsible_cell(w_root: np.ndarray, grid: GridSpec, entity: str) -> tuple[int, int, int]:
    dims = (grid.w, grid.h, grid.d)
    names = ("u", "v", "z")
    cell = np.floor(w_root).astype(int)
    for axis in range(3):
        if not (0 <= w_root[axis] < dims[axis]):
            raise OutOfVolume(entity, names[axis], float(w_root[axis]), (0.0, float(dims[axis])))
    return int(cell[0]), int(cell[1]), int(cell[2])


@dataclass(frozen=True, eq=False)
class FrameTargets:
    """Sparse per-frame targets: responsible cells, offsets, labels."""

    hand_cell: tuple[int, int, int]
    object_cell: tuple[int, int, int]
    hand_offsets: np.ndarray    # (n_control, 3) grid units from the cell corner
    object_offsets: np.ndarray
    hand_coords: np.ndarray     # (n_control, 3) ground-truth grid coordinates
    object_coords: np.ndarray
    action_id: int
    object_id: int


def frame_targets(scene, grid: GridSpec, labels: LabelSpec, cam: CameraIntrinsics) -> FrameTargets:
    """Compute responsibility and grid-unit offsets for a ground-truth scene.

    The scene must expose hand_points (21, 3), object_points (21, 3),
    action_id and object_id. Raises OutOfVolume when the hand root or the
    object centroid falls outside the grid volume.
    """
    n_c = labels.n_control
    if not (0 <= scene.action_id < labels.n_actions):
        raise ConfigOutOfRange(f"action id {scene.action_id} not in [0, {labels.n_actions})")
    if not (0 <= scene.object_id < labels.n_objects):
        raise ConfigOutOfRange(f"object id {scene.object_id} not in [0, {labels.n_objects})")

    w_h = camera_to_grid(np.asarray(scene.hand_points, dtype=float).reshape(n_c, 3), cam, grid)
    w_o = camera_to_grid(np.asarray(scene.object_points, dtype=float).reshape(n_c, 3), cam, grid)

    cell_h = _responsible_cell(w_h[root_index(HAND, n_c)], grid, HAND)
    cell_o = _responsible_cell(w_o[root_index(OBJECT, n_c)], grid, OBJECT)

    return FrameTargets(
        hand_cell=cell_h,
        object_cell=cell_o,
        hand_offsets=w_h - np.asarray(cell_h, dtype=float),
        object_offsets=w_o - np.asarray(cell_o, dtype=float),
        hand_coords=w_h,
        object_coords=w_o,
        action_id=int(scene.action_id),
        object_id=int(scene.object_id),
    )


def decode_offsets(raw_coords: np.ndarray, role: str, n_control: int) -> np.ndarray:
    """Raw coordinate channels -> in-cell offsets (sigmoid on the root point only)."""
    arr = np.asarray(raw_coords, dtype=float)
    off = arr.reshape(*arr.shape[:-1], n_control, 3).copy()
    root = root_index(role, n_control)
    off[..., root, :] = sigmoid(off[..., root, :])
    return off


def _cell_corners(grid: GridSpec) -> np.ndarray:
    """(h, w, d, 3) array of cell corner coordinates in (u, v, z) order."""
    v, u, z = np.meshgrid(
        np.arange(grid.h), np.arange(grid.w), np.arange(grid.d), indexing="ij"
    )
    return np.stack([u, v, z], axis=-1).astype(float)


def decode_grid(raw_grid: np.ndarray, grid: GridSpec, labels: LabelSpec) -> DecodedGrid:
    """Vectorized decode of a full (h, w, d, hand_slot+object_slot) raw grid.

    Back-projection to camera frame is deferred to prune(): only the chosen
    cells need metric points.
    """
    raw_grid = np.asarray(raw_grid, dtype=float)
    expect = (grid.h, grid.w, grid.d, labels.cell_channels)
    if raw_grid.shape != expect:
        raise LengthMismatch(f"raw grid has shape {raw_grid.shape}, expected {expect}")
    n_c = labels.n_control
    corners = _cell_corners(grid)[..., None, :]

    hand_raw = raw_grid[..., : labels.hand_slot]
    obj_raw = raw_grid[..., labels.hand_slot:]
    hand_coords = decode_offsets(hand_raw[..., : 3 * n_c], HAND, n_c) + corners
    obj_coords = decode_offsets(obj_raw[..., : 3 * n_c], OBJECT, n_c) + corners
    return DecodedGrid(
        hand_coords=hand_coords,
        hand_probs=softmax(hand_raw[..., 3 * n_c: -1]),
        hand_conf=sigmoid(hand_raw[..., -1]),
        object_coords=obj_coords,
        object_probs=softmax(obj_raw[..., 3 * n_c: -1]),
        object_conf=sigmoid(obj_raw[..., -1]),
    )


def _best_cell(conf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-confidence cell of each (h, w, d) grid in a (B, h, w, d) batch.

    Returns the (B,) arrays u, v, z. Ties break to the lowest linear index
    in (u-major, then v, then z) order; a NaN confidence beats every number,
    and the first NaN in that order wins.
    """
    swapped = conf.transpose(0, 2, 1, 3)  # (B, w, h, d)
    best = np.argmax(swapped.reshape(len(conf), -1), axis=1)
    return np.unravel_index(best, swapped.shape[1:])


def prune(decoded: DecodedGrid, grid: GridSpec, cam: CameraIntrinsics) -> FramePrediction:
    """Keep the single best hand slot and best object slot of a frame."""
    hu, hv, hz = (int(i[0]) for i in _best_cell(decoded.hand_conf[None]))
    ou, ov, oz = (int(i[0]) for i in _best_cell(decoded.object_conf[None]))
    return FramePrediction(
        hand_points=grid_to_camera_unchecked(decoded.hand_coords[hv, hu, hz], cam, grid),
        hand_confidence=float(decoded.hand_conf[hv, hu, hz]),
        action_probs=decoded.hand_probs[hv, hu, hz],
        hand_cell=(hu, hv, hz),
        object_points=grid_to_camera_unchecked(decoded.object_coords[ov, ou, oz], cam, grid),
        object_confidence=float(decoded.object_conf[ov, ou, oz]),
        object_probs=decoded.object_probs[ov, ou, oz],
        object_cell=(ou, ov, oz),
    )


def decode_best(raw: np.ndarray, grid: GridSpec, labels: LabelSpec,
                cam: CameraIntrinsics) -> list[FramePrediction]:
    """decode_grid + prune for a (B, h, w, d, hand_slot+object_slot) batch.

    Only the confidence channels are decoded for every cell; each frame's
    winning hand and object slots are gathered (copied, so no result is a
    view into raw) and decoded together. Equal, bit for bit, to decode_grid
    then prune on each frame.
    """
    raw = np.asarray(raw, dtype=float)
    expect = (grid.h, grid.w, grid.d, labels.cell_channels)
    if raw.shape[1:] != expect:
        raise LengthMismatch(f"raw batch has shape {raw.shape}, expected (B, *{expect})")
    n_c = labels.n_control
    frames = np.arange(len(raw))
    conf = sigmoid(raw[..., [labels.hand_slot - 1, labels.cell_channels - 1]])
    roles = []
    for r, (role, lo, hi) in enumerate(((HAND, 0, labels.hand_slot),
                                        (OBJECT, labels.hand_slot, labels.cell_channels))):
        u, v, z = _best_cell(conf[..., r])
        slot = raw[frames, v, u, z, lo:hi]
        cell = np.stack([u, v, z], axis=-1)
        coords = decode_offsets(slot[:, : 3 * n_c], role, n_c) + cell[:, None, :].astype(float)
        roles.append((grid_to_camera_unchecked(coords, cam, grid),
                      conf[frames, v, u, z, r].tolist(),
                      softmax(slot[:, 3 * n_c: -1]),
                      [tuple(c) for c in cell.tolist()]))
    (h_pts, h_conf, h_probs, h_cell), (o_pts, o_conf, o_probs, o_cell) = roles
    return [
        FramePrediction(
            hand_points=h_pts[i], hand_confidence=h_conf[i], action_probs=h_probs[i],
            hand_cell=h_cell[i],
            object_points=o_pts[i], object_confidence=o_conf[i], object_probs=o_probs[i],
            object_cell=o_cell[i],
        )
        for i in frames.tolist()
    ]


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

