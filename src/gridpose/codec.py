"""Grid target encoding and decoding.

Each grid cell stores two slots:

    hand slot   [3*n_control coord values | n_actions class values | confidence]
    object slot [3*n_control coord values | n_objects class values | confidence]

Coordinate values are offsets in cell units relative to the cell's near
top-left corner (the corner with the smallest u, v and depth). The root
point (wrist for hands, box centroid for objects) is constrained to lie
inside its cell, so its raw value passes through a sigmoid at decode time;
all other points decode with the identity and may land outside the cell.

A frame's targets live in the cell containing the root point (the
"responsible" cell); every other cell carries zeros and a confidence
target of 0. Points on a cell boundary belong to the lower-index cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import logistic as sigmoid
from .errors import ConfigError, ConfigOutOfRange, LengthMismatch, OutOfVolume, RoleMismatch
from .geometry import (
    HAND,
    OBJECT,
    CameraIntrinsics,
    ControlPointSet,
    GridSpec,
    camera_to_grid,
    grid_to_camera_unchecked,
    project,
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
class TargetTensor:
    """Per-frame grid of target cell vectors plus the responsible cells.

    hand/object arrays are indexed [v, u, z, channel]; the responsible
    cells are (u, v, z) integer triples.
    """

    hand: np.ndarray
    object: np.ndarray
    hand_cell: tuple[int, int, int]
    object_cell: tuple[int, int, int]


@dataclass(frozen=True, eq=False)
class DecodedSlot:
    """One entity decoded from one cell."""

    grid_coords: np.ndarray   # (n_control, 3) continuous grid units
    points: np.ndarray        # (n_control, 3) camera frame, meters
    probs: np.ndarray         # class distribution
    confidence: float


@dataclass(frozen=True, eq=False)
class DecodedCell:
    hand: DecodedSlot
    object: DecodedSlot


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


def logit(p: np.ndarray) -> np.ndarray:
    """Inverse sigmoid; maps 0 and 1 to -inf/+inf."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(p) - np.log1p(-p)


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


def encode_frame(scene, grid: GridSpec, labels: LabelSpec, cam: CameraIntrinsics) -> TargetTensor:
    """Build the dense target tensor for a ground-truth scene.

    Raises OutOfVolume when the hand root or the object centroid falls
    outside the grid volume.
    """
    n_c = labels.n_control
    t = frame_targets(scene, grid, labels, cam)
    hand = np.zeros((grid.h, grid.w, grid.d, labels.hand_slot))
    obj = np.zeros((grid.h, grid.w, grid.d, labels.object_slot))

    u, v, z = t.hand_cell
    hand[v, u, z, : 3 * n_c] = t.hand_offsets.ravel()
    hand[v, u, z, 3 * n_c + t.action_id] = 1.0
    hand[v, u, z, -1] = 1.0

    u, v, z = t.object_cell
    obj[v, u, z, : 3 * n_c] = t.object_offsets.ravel()
    obj[v, u, z, 3 * n_c + t.object_id] = 1.0
    obj[v, u, z, -1] = 1.0

    return TargetTensor(hand=hand, object=obj, hand_cell=t.hand_cell, object_cell=t.object_cell)


def decode_offsets(raw_coords: np.ndarray, role: str, n_control: int) -> np.ndarray:
    """Raw coordinate channels -> in-cell offsets (sigmoid on the root point only)."""
    arr = np.asarray(raw_coords, dtype=float)
    off = arr.reshape(*arr.shape[:-1], n_control, 3).copy()
    root = root_index(role, n_control)
    off[..., root, :] = sigmoid(off[..., root, :])
    return off


def decode_cell(
    raw: np.ndarray,
    cell_index: tuple[int, int, int],
    grid: GridSpec,
    labels: LabelSpec,
    cam: CameraIntrinsics,
) -> DecodedCell:
    """Decode the raw value vector of one cell (hand slot then object slot)."""
    raw = np.asarray(raw, dtype=float).ravel()
    if raw.shape[0] != labels.cell_channels:
        raise LengthMismatch(
            f"cell vector has {raw.shape[0]} values, expected {labels.cell_channels}"
        )
    hand_raw = raw[: labels.hand_slot]
    obj_raw = raw[labels.hand_slot:]
    return DecodedCell(
        hand=_decode_slot(hand_raw, cell_index, HAND, grid, labels, cam),
        object=_decode_slot(obj_raw, cell_index, OBJECT, grid, labels, cam),
    )


def _decode_slot(vec, cell_index, role, grid, labels, cam) -> DecodedSlot:
    n_c = labels.n_control
    off = decode_offsets(vec[: 3 * n_c], role, n_c)
    coords = off + np.asarray(cell_index, dtype=float)
    return DecodedSlot(
        grid_coords=coords,
        points=grid_to_camera_unchecked(coords, cam, grid),
        probs=softmax(vec[3 * n_c: -1]),
        confidence=float(sigmoid(vec[-1])),
    )


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


def _best_cell(conf: np.ndarray) -> tuple[int, int, int]:
    """Max-confidence cell; ties break to the lowest linear index in
    (u-major, then v, then z) order."""
    swapped = conf.transpose(1, 0, 2)  # (w, h, d)
    u, v, z = np.unravel_index(int(np.argmax(swapped)), swapped.shape)
    return int(u), int(v), int(z)


def prune(decoded: DecodedGrid, grid: GridSpec, cam: CameraIntrinsics) -> FramePrediction:
    """Keep the single best hand slot and best object slot of a frame."""
    hu, hv, hz = _best_cell(decoded.hand_conf)
    ou, ov, oz = _best_cell(decoded.object_conf)
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


def confidence_target(
    pred: ControlPointSet, gt: ControlPointSet, grid: GridSpec, cam: CameraIntrinsics
) -> float:
    """Confidence of a predicted control-point set against ground truth.

    Both sets live in the camera frame. Predicted points with non-positive
    depth cannot be projected and count as beyond the image-space cutoff.
    """
    if pred.role != gt.role:
        raise RoleMismatch(f"cannot score {pred.role} prediction against {gt.role} truth")
    if len(pred) != len(gt):
        raise LengthMismatch(f"point counts differ: {len(pred)} vs {len(gt)}")
    ok = pred.points[:, 2] > 0
    if np.all(ok):
        d_px = float(np.linalg.norm(project(pred.points, cam) - project(gt.points, cam), axis=1).mean())
    else:
        d_px = float("inf")
    d_m = float(np.abs(pred.points[:, 2] - gt.points[:, 2]).mean())
    return float(confidence_from_distances(d_px, d_m, grid))


# ---------------------------------------------------------------------------
# Target tensor file format: flat little-endian float32 values in
# (u, v, z, slot, channel) order plus a JSON sidecar with the grid, label
# and camera parameters and the responsible cells.

TENSOR_FORMAT_VERSION = 1


def target_tensor_to_flat(t: TargetTensor) -> np.ndarray:
    """Flatten to the documented (u, v, z, slot, channel) order as float32."""
    hand_t = t.hand.transpose(1, 0, 2, 3)    # (w, h, d, hand_slot)
    obj_t = t.object.transpose(1, 0, 2, 3)
    return np.concatenate([hand_t, obj_t], axis=3).ravel().astype("<f4")


def save_target_tensor(
    tensor_path,
    sidecar_path,
    t: TargetTensor,
    grid: GridSpec,
    labels: LabelSpec,
    cam: CameraIntrinsics,
) -> None:
    with open(tensor_path, "wb") as f:
        f.write(target_tensor_to_flat(t).tobytes())
    sidecar = {
        "format": TENSOR_FORMAT_VERSION,
        "order": "u,v,z,slot,channel",
        "dtype": "<f4",
        "grid": {
            "h": grid.h, "w": grid.w, "d": grid.d,
            "cell_u_px": grid.cell_u_px, "cell_v_px": grid.cell_v_px,
            "cell_z_m": grid.cell_z_m, "z_min": grid.z_min,
            "sharpness": grid.sharpness,
            "cutoff_px": grid.cutoff_px, "cutoff_m": grid.cutoff_m,
        },
        "labels": {
            "n_control": labels.n_control, "n_objects": labels.n_objects,
            "n_actions": labels.n_actions, "n_interactions": labels.n_interactions,
        },
        "camera": {"fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy},
        "responsible": {"hand": list(t.hand_cell), "object": list(t.object_cell)},
    }
    with open(sidecar_path, "w") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def load_target_tensor(tensor_path, sidecar_path):
    """Returns (TargetTensor, GridSpec, LabelSpec, CameraIntrinsics)."""
    with open(sidecar_path) as f:
        meta = json.load(f)
    if meta.get("format") != TENSOR_FORMAT_VERSION:
        raise ConfigError(f"unsupported tensor format {meta.get('format')}")
    grid = GridSpec(**meta["grid"])
    labels = LabelSpec(**meta["labels"])
    cam = CameraIntrinsics(**meta["camera"])
    flat = np.fromfile(tensor_path, dtype="<f4").astype(float)
    expect = grid.w * grid.h * grid.d * labels.cell_channels
    if flat.size != expect:
        raise LengthMismatch(f"tensor file holds {flat.size} values, expected {expect}")
    block = flat.reshape(grid.w, grid.h, grid.d, labels.cell_channels)
    hand = block[..., : labels.hand_slot].transpose(1, 0, 2, 3).copy()
    obj = block[..., labels.hand_slot:].transpose(1, 0, 2, 3).copy()
    t = TargetTensor(
        hand=hand,
        object=obj,
        hand_cell=tuple(meta["responsible"]["hand"]),
        object_cell=tuple(meta["responsible"]["object"]),
    )
    return t, grid, labels, cam
