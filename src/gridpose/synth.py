"""Deterministic synthetic scenes, sequences, rendering and dataset files.

Scenes place a jittered 21-joint hand skeleton and a posed cuboid inside
the grid volume. The renderer draws Gaussian blobs at projected control
points and line strokes along bones and box edges; intensity encodes
depth (nearer is brighter) and the third channel encodes point identity,
so a network can recover full 3D from the raster alone. Every blob and
stroke sample is one Gaussian window bounded at three sigma.
render_frames works out the windows of a whole frame list as arrays,
with the frame folded into the plane index (frame f draws on planes
3f .. 3f + 2), and max-composites them into the planes one array pass per
window radius, off-image pixels masked. Max-compositing does not depend
on the order of the windows, so a frame's raster is the same to the bit
whether it is rendered alone (render_entities) or in a list.
The windows are composited RENDER_CHUNK = 16 frames at a time: fewer
frames per call pay more per-call overhead, more pay for temporaries
that outgrow the cache. On the toy preset (56 px, 2-vCPU host) 64 frames
took 42 ms one frame per call, 22 ms in chunks of 16 and 31 ms in one
call, and the tracemalloc peak over the (64, 3, 56, 56) output was
4.7 MiB in chunks of 16 and 17.7 MiB in one call.

Scene geometry is built as arrays too. One Rodrigues builder, rodrigues,
makes every rotation: a hand's five abductions and fifteen curls are one
call each, and its joints are a cumulative sum along each finger. A
sequence lays out the hand points and object poses of all its frames at
once, and a cuboid's control points are built once per size
(geometry.cuboid_control_points). The arrays reproduce the per-finger,
per-frame scalar construction to the bit; the tests keep that
construction as their oracle.

Four built-in action generators define the synthetic verbs:

    0 approach  hand root moves monotonically toward the object centroid
    1 retract   hand root moves monotonically away from it
    2 rotate    object orientation angle grows frame by frame, translation fixed
    3 shake     hand and grasped object oscillate along a line together

A dataset split is a directory of two .npy files. frames.npy is a 1-D
array of FRAME_RECORD, one record per frame: its sequence, action and
object ids, hand points, object rotation and translation, and the
cuboid's half-extents. rasters.npy is the uint8 (N, IMAGE_CHANNELS, H, W)
stack of the rasters, each value clip(round(255 x), 0, 255). load_frames
rebuilds the object points from the pose and half-extents and divides the
rasters by 255 in float64; numpy's reader checks the file headers, and
load_frames checks that the two files fit each other and that every float
field is finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .codec import LabelSpec
from .errors import (ConfigError, ConfigOutOfRange, LengthMismatch, NonPositiveDepth,
                     ShapeMismatch)
from .geometry import (
    CUBOID_EDGES,
    HAND_BONES,
    IMAGE_CHANNELS,
    NUM_CONTROL_POINTS,
    CameraIntrinsics,
    Cuboid,
    GridSpec,
    camera_to_grid,
    cuboid_control_points,
    grid_to_camera,
    project,
)
from .rigidpose import Pose6D

ACTION_NAMES = ("approach", "retract", "rotate", "shake")


@dataclass(frozen=True)
class RenderSpec:
    """Raster appearance: blob and stroke geometry."""

    blob_radius_m: float = 0.010
    min_sigma_px: float = 0.8
    bone_gain: float = 0.45
    depth_floor: float = 0.15

    def __post_init__(self):
        # every blob's sigma is max(min_sigma_px, a multiple of blob_radius_m)
        if self.min_sigma_px <= 0 or self.blob_radius_m < 0:
            raise ConfigError("render.min_sigma_px must be > 0 and render.blob_radius_m >= 0")


@dataclass(frozen=True)
class SceneParams:
    """Everything sample_scene / sample_sequence need, bundled."""

    grid: GridSpec
    cam: CameraIntrinsics
    labels: LabelSpec
    hand_scale_range: tuple[float, float] = (0.9, 1.1)
    curl_max: float = 1.1
    abduct_max: float = 0.12
    tilt_max: float = 0.7
    margin_uv_cells: float = 1.0
    margin_z_cells: float = 0.6
    object_sizes: tuple[tuple[float, float, float], ...] = (
        (0.025, 0.030, 0.045),
        (0.040, 0.050, 0.065),
        (0.055, 0.070, 0.090),
    )
    object_angle_max: float = np.pi
    sequence_length: int = 16
    render: RenderSpec = field(default_factory=RenderSpec)

    def __post_init__(self):
        if len(self.object_sizes) < self.labels.n_objects:
            raise ConfigOutOfRange(
                f"{self.labels.n_objects} object classes need at least as many "
                f"entries in object_sizes (got {len(self.object_sizes)})"
            )
        if self.labels.n_actions > len(ACTION_NAMES):
            raise ConfigOutOfRange(
                f"only {len(ACTION_NAMES)} action generators exist, "
                f"config wants {self.labels.n_actions}"
            )
        if self.sequence_length < 2:
            raise ConfigOutOfRange("sequences need at least 2 frames")


@dataclass(frozen=True, eq=False)
class SceneFrame:
    """Ground truth for one frame; raster is (IMAGE_CHANNELS, H, W) in [0, 1]."""

    hand_points: np.ndarray
    object_pose: Pose6D
    cuboid: Cuboid
    object_points: np.ndarray
    object_id: int
    action_id: int
    raster: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class FrameSequence:
    frames: list
    action_id: int
    object_id: int
    interaction_id: int


def _seed_keys(seed) -> tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        return tuple(int(k) for k in seed)
    return (int(seed),)


def seeded_rng(*keys) -> np.random.Generator:
    flat = tuple(k for key in keys for k in _seed_keys(key))
    return np.random.default_rng(np.random.SeedSequence(flat))


# -- hand skeleton -----------------------------------------------------------

# Knuckle offsets from the wrist (meters, canonical palm frame: x lateral,
# y toward the fingers, z palm normal) and per-finger bone lengths.
_KNUCKLES = np.array([
    [-0.035, 0.025, 0.0],   # thumb
    [-0.020, 0.080, 0.0],   # index
    [0.000, 0.085, 0.0],    # middle
    [0.020, 0.080, 0.0],    # ring
    [0.038, 0.070, 0.0],    # pinky
])
_SPLAY = np.array([
    [-0.80, 0.60, 0.0],
    [-0.15, 0.99, 0.0],
    [0.00, 1.00, 0.0],
    [0.15, 0.99, 0.0],
    [0.35, 0.94, 0.0],
])
_BONE_LENGTHS = np.array([
    [0.032, 0.028, 0.024],  # thumb
    [0.030, 0.022, 0.020],
    [0.033, 0.025, 0.022],
    [0.030, 0.023, 0.021],
    [0.023, 0.017, 0.017],
])


# Unit splay directions, normalised as np.linalg.norm does (a BLAS dot).
_SPLAY_DIRS = _SPLAY / np.sqrt(_SPLAY[:, None, :] @ _SPLAY[:, :, None])[:, 0]


def rodrigues(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """(N, 3, 3) rotations by angles[i] about axes[i]; axes need not be unit.

    Each axis is normalised by sqrt(a @ a), written as a stacked
    (1, 3) @ (3, 1) product because that is the dot np.linalg.norm takes:
    a row-wise einsum or norm(axis=-1) rounds differently in the last bit.
    """
    axes = np.asarray(axes, dtype=float)
    angles = np.asarray(angles, dtype=float)[:, None, None]
    a = axes / np.sqrt(axes[:, None, :] @ axes[:, :, None])[:, 0]
    k = np.zeros((len(a), 9))   # the cross-product matrix [a]x, row-major
    k[:, [7, 2, 3]] = a
    k[:, [5, 6, 1]] = -a
    k = k.reshape(-1, 3, 3)
    return np.eye(3) + np.sin(angles) * k + (1 - np.cos(angles)) * (k @ k)


def _rotate(rotations: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """(N, 3) rows rotations[i] @ vectors[i]; np.matmul keeps each product's bits."""
    return np.matmul(rotations, vectors[:, :, None])[:, :, 0]


def hand_skeleton(rng: np.random.Generator, params: SceneParams) -> np.ndarray:
    """A jittered hand in the canonical palm frame, wrist at the origin.

    Bone lengths are fixed (up to a global scale); the jitter is angular:
    per-finger abduction in the palm plane and cumulative curl toward the
    palm normal at each of the three finger joints. Each finger draws its
    abduction, then its three curls; the five abductions and the fifteen
    curls are then one rodrigues call each, and the joints of every finger
    are one cumulative sum along its bones.
    """
    scale = rng.uniform(*params.hand_scale_range)
    curl = params.curl_max / 3.0
    jitter = rng.uniform([-params.abduct_max, 0.0, 0.0, 0.0],
                         [params.abduct_max, curl, curl, curl], size=(5, 4))
    normals = np.tile([0.0, 0.0, 1.0], (5, 1))
    direction = _rotate(rodrigues(normals, jitter[:, 0]), _SPLAY_DIRS)
    lateral = np.cross(direction, normals)
    curls = np.cumsum(jitter[:, 1:], axis=1).ravel()   # each joint's curl from the knuckle
    seg_dir = _rotate(rodrigues(np.repeat(lateral, 3, axis=0), curls),
                      np.repeat(direction, 3, axis=0)).reshape(5, 3, 3)
    steps = np.concatenate([_KNUCKLES[:, None, :] * scale,
                            (scale * _BONE_LENGTHS)[:, :, None] * seg_dir], axis=1)
    pts = np.zeros((NUM_CONTROL_POINTS, 3))
    pts[1:] = np.cumsum(steps, axis=1).reshape(-1, 3)
    return pts


# -- scene sampling ----------------------------------------------------------

def volume_bounds(params: SceneParams) -> tuple[np.ndarray, np.ndarray]:
    """Grid-coordinate bounds of the margin-shrunk volume; callers compute
    them once and pass them to sample_position and in_volume."""
    g = params.grid
    lo = np.array([params.margin_uv_cells, params.margin_uv_cells, params.margin_z_cells])
    hi = np.array([g.w - params.margin_uv_cells, g.h - params.margin_uv_cells,
                   g.d - params.margin_z_cells])
    if np.any(lo >= hi):
        raise ConfigOutOfRange("margins leave no room inside the grid volume")
    return lo, hi


def sample_position(rng, params: SceneParams, bounds) -> np.ndarray:
    """Uniform position in the (margin-shrunk) grid volume, camera frame."""
    return grid_to_camera(rng.uniform(*bounds), params.cam, params.grid)


def in_volume(points: np.ndarray, params: SceneParams, bounds) -> bool:
    """Whether every camera-frame point (..., 3) lies inside bounds = volume_bounds(params)."""
    points = np.asarray(points, dtype=float)
    if np.any(points[..., 2] <= 0):
        return False
    w = camera_to_grid(points, params.cam, params.grid)
    lo, hi = bounds
    return bool(np.all(w >= lo) and np.all(w <= hi))


def _unit_normal(rng) -> np.ndarray:
    axis = rng.normal(size=3)
    return axis / np.linalg.norm(axis)


def _tilt(rng, params: SceneParams, skel: np.ndarray) -> np.ndarray:
    """skel rotated by a bounded random tilt about a random axis."""
    axis = _unit_normal(rng)
    return skel @ rodrigues(axis[None], [rng.uniform(0.0, params.tilt_max)])[0].T


def place_hand(rng, params: SceneParams, root: np.ndarray) -> np.ndarray:
    """Rotate a fresh skeleton by a bounded random tilt and move it to root."""
    return _tilt(rng, params, hand_skeleton(rng, params)) + np.asarray(root)


def object_cuboid(params: SceneParams, object_id: int) -> Cuboid:
    if not (0 <= object_id < params.labels.n_objects):
        raise ConfigOutOfRange(f"object id {object_id} out of range")
    return Cuboid(*params.object_sizes[object_id])


def sample_object_pose(rng, params: SceneParams, centroid: np.ndarray) -> Pose6D:
    axis = _unit_normal(rng)
    angle = rng.uniform(0.0, params.object_angle_max)
    return Pose6D(rodrigues(axis[None], [angle])[0], np.asarray(centroid))


def build_frames(params: SceneParams, hand_points: np.ndarray, rotations: np.ndarray,
                 translations: np.ndarray, cuboid: Cuboid, object_id: int, action_id: int,
                 with_raster: bool = True) -> list[SceneFrame]:
    """One frame per row of (T, 21, 3) hand points and (T, 3) object translations.

    rotations is (T, 3, 3), or (1, 3, 3) for an orientation that every frame
    shares; the object points of a shared orientation are rotated once. Each
    frame's points are its own row of a fresh (T, 21, 3) stack, and the T
    rasters are one render_frames call.
    """
    object_points = (np.matmul(cuboid_control_points(cuboid).points, rotations.transpose(0, 2, 1))
                     + translations[:, None, :])
    if np.min(hand_points[..., 2]) <= 0 or np.min(object_points[..., 2]) <= 0:
        raise NonPositiveDepth("scene has control points behind the camera")
    rotations = np.broadcast_to(rotations, (len(translations), 3, 3))
    rasters = (render_frames(params.cam, params.grid, params.render, hand_points, object_points)
               if with_raster else [None] * len(translations))
    return [
        SceneFrame(hand_points=hand, object_pose=Pose6D(rot, t), cuboid=cuboid,
                   object_points=obj, object_id=int(object_id), action_id=int(action_id),
                   raster=raster)
        for hand, rot, t, obj, raster in zip(hand_points, rotations, translations,
                                             object_points, rasters)
    ]


def sample_scene(seed: int, params: SceneParams, with_raster: bool = True) -> SceneFrame:
    """One random frame, fully determined by the seed."""
    rng = seeded_rng(seed, 0x5ce)
    bounds = volume_bounds(params)
    for _ in range(200):
        root = sample_position(rng, params, bounds)
        hand = place_hand(rng, params, root)
        object_id = int(rng.integers(params.labels.n_objects))
        action_id = int(rng.integers(params.labels.n_actions))
        cuboid = object_cuboid(params, object_id)
        pose = sample_object_pose(rng, params, sample_position(rng, params, bounds))
        pts = pose.apply(cuboid_control_points(cuboid).points)
        if np.min(hand[:, 2]) > 1e-3 and np.min(pts[:, 2]) > 1e-3:
            (frame,) = build_frames(params, hand[None], pose.rotation[None],
                                    pose.translation[None], cuboid, object_id, action_id,
                                    with_raster)
            return frame
    raise ConfigOutOfRange("could not place a scene inside the volume; check margins")


# -- sequences ---------------------------------------------------------------

def _monotone_root_path(rng, params, bounds, centroid, decreasing: bool):
    """Start/end hand-root positions on a ray through the object centroid."""
    for _ in range(200):
        direction = rng.normal(size=3)
        direction[2] *= 0.3   # mostly lateral so the path stays in the volume
        direction /= np.linalg.norm(direction)
        far = centroid + direction * rng.uniform(0.13, 0.20)
        near = centroid + direction * rng.uniform(0.03, 0.05)
        if in_volume(np.stack([far, near]), params, bounds):
            return (far, near) if decreasing else (near, far)
    raise ConfigOutOfRange("no valid approach path found; check margins")


def sample_sequence(seed: int, action_id: int, object_id: int,
                    params: SceneParams, with_raster: bool = True) -> FrameSequence:
    """A deterministic sequence for one (verb, noun) pair.

    Each verb lays out the hand points and object poses of all frames as
    (T, ...) arrays; build_frames then cuts them into frames.
    """
    if not (0 <= action_id < params.labels.n_actions):
        raise ConfigOutOfRange(f"action id {action_id} out of range")
    rng = seeded_rng(seed, 0x5e9, action_id, object_id)
    n = params.sequence_length
    cuboid = object_cuboid(params, object_id)
    skel_rng = seeded_rng(seed, 0xa17d, action_id, object_id)
    bounds = volume_bounds(params)

    centroid = sample_position(rng, params, bounds)
    base_rot = sample_object_pose(rng, params, centroid).rotation
    oriented_hand = _tilt(rng, params, hand_skeleton(skel_rng, params))

    t = np.arange(n)
    rotations, centers = base_rot[None], np.tile(centroid, (n, 1))
    name = ACTION_NAMES[action_id]
    if name in ("approach", "retract"):
        start, end = _monotone_root_path(rng, params, bounds, centroid, name == "approach")
        a = (t / (n - 1))[:, None]
        hands = oriented_hand + ((1 - a) * start + a * end)[:, None, :]
    elif name == "rotate":
        spin_axis = _unit_normal(rng)
        step = rng.uniform(0.05, 0.10)
        offset = rng.normal(size=3)
        offset[2] *= 0.3
        offset = offset / np.linalg.norm(offset) * rng.uniform(0.08, 0.12)
        root = centroid + offset
        if not in_volume(root, params, bounds):
            root = centroid - offset
        hands = np.tile(oriented_hand + root, (n, 1, 1))
        rotations = np.matmul(rodrigues(np.tile(spin_axis, (n, 1)), step * t), base_rot)
    elif name == "shake":
        direction = rng.normal(size=3)
        direction[2] *= 0.3
        direction /= np.linalg.norm(direction)
        amp = rng.uniform(0.03, 0.05)
        grasp = direction * 0.0 + rng.normal(size=3) * 0.01
        cycles = rng.uniform(2.0, 3.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        wobble = amp * np.sin(2 * np.pi * cycles * t / n + phase)
        centers = centroid + direction * wobble[:, None]
        hands = oriented_hand + centers[:, None, :] + grasp
    else:  # pragma: no cover - guarded by SceneParams validation
        raise ConfigOutOfRange(f"no generator for action {action_id}")

    return FrameSequence(
        frames=build_frames(params, hands, rotations, centers, cuboid, object_id, action_id,
                            with_raster),
        action_id=action_id,
        object_id=object_id,
        interaction_id=params.labels.interaction_index(action_id, object_id),
    )


# -- rendering ---------------------------------------------------------------

def _depth_code(z, grid: GridSpec, floor: float):
    span = grid.d * grid.cell_z_m
    a = 1.0 - (np.asarray(z) - grid.z_min) / span
    return np.clip(a, floor, 1.0)


_STROKE_SIGMA = 0.6
# Every 2 sigma^2 is Python's float pow, not numpy's square (they can differ
# in the last bit): that keeps rasters bit-identical to the per-window reference.
_STROKE_TWO_VAR = 2 * _STROKE_SIGMA ** 2
RENDER_CHUNK = 16   # frames per _composite call; see the module docstring


def _windows(pts, plane, edges, n_ids, cam, grid, spec):
    """Gaussian windows (u, v, sigma, two_var, amp, plane) of one entity in N frames, one per row.

    pts is (N, P, 3). Each point j of frame f in front of the camera is a
    depth-coded blob on plane `plane + 3 f` and an identity blob,
    (j + 1) / n_ids, on plane 2 + 3 f. Each edge with both ends in front,
    L pixels long, gets max(2, ceil(L)) stroke samples at t = k / (steps - 1),
    the last at exactly 1 as in np.linspace. two_var = 2 sigma^2 is computed
    once per blob point and is one constant for every stroke sample.
    """
    front = pts[..., 2] > 0
    f, j = np.nonzero(front)
    p = pts[front]
    blobs = np.column_stack([project(p, cam), p[:, 2]])   # (u, v, z) of every point in front
    uvz = np.zeros(pts.shape)
    uvz[front] = blobs
    a, b = np.array(edges, dtype=int).reshape(-1, 2).T
    fe, e = np.nonzero(front[:, a] & front[:, b])
    ua, ub = uvz[fe, a[e]], uvz[fe, b[e]]
    steps = np.maximum(2, np.ceil(np.linalg.norm(ub[:, :2] - ua[:, :2], axis=1)).astype(int))
    ends = np.cumsum(steps)
    k = np.arange(steps.sum()) - np.repeat(ends - steps, steps)
    t = (k * np.repeat(1.0 / (steps - 1), steps))[:, None]
    t[ends - 1] = 1.0
    line = (1 - t) * np.repeat(ua, steps, axis=0) + t * np.repeat(ub, steps, axis=0)
    sigma = np.maximum(spec.min_sigma_px, cam.fx * spec.blob_radius_m / blobs[:, 2])
    two_var = np.array([2 * s ** 2 for s in sigma.tolist()])
    n = len(line)
    amp = [_depth_code(blobs[:, 2], grid, spec.depth_floor), 0.25 + 0.75 * (j + 1) / n_ids,
           spec.bone_gain * _depth_code(line[:, 2], grid, spec.depth_floor)]
    u, v, _ = np.concatenate([blobs, blobs, line]).T
    return (u, v, np.concatenate([sigma, sigma, np.full(n, _STROKE_SIGMA)]),
            np.concatenate([two_var, two_var, np.full(n, _STROKE_TWO_VAR)]), np.concatenate(amp),
            np.concatenate([plane + 3 * f, 2 + 3 * f, plane + 3 * np.repeat(fe, steps)]))


def _composite(planes: np.ndarray, u, v, sigma, two_var, amp, plane) -> None:
    """Max-composite the windows into planes, +-max(1, ceil(3 sigma)) px, off-image masked."""
    _, h, w = planes.shape
    radius = np.maximum(1, np.ceil(3 * sigma).astype(int))
    for r in set(radius.tolist()):  # not np.unique: it imports numpy.ma (1.3 MB RSS)
        sel = radius == r
        d = np.arange(-r, r + 1)
        x = np.floor(u[sel]).astype(int)[:, None] + d
        y = np.floor(v[sel]).astype(int)[:, None] + d
        xs, ys = x - u[sel, None], y - v[sel, None]
        g = amp[sel, None, None] * np.exp(
            -(ys[:, :, None] ** 2 + xs[:, None, :] ** 2) / two_var[sel, None, None])
        inside = ((y >= 0) & (y < h))[:, :, None] & ((x >= 0) & (x < w))[:, None, :]
        flat = (plane[sel, None, None] * h + y[:, :, None]) * w + x[:, None, :]
        np.maximum.at(planes.reshape(-1), flat[inside], g[inside])


def render_frames(cam: CameraIntrinsics, grid: GridSpec, spec: RenderSpec,
                  hand_points: np.ndarray, object_points: np.ndarray) -> np.ndarray:
    """Rasters (N, IMAGE_CHANNELS, H, W) of N frames' hand (N, P, 3) and object (N, Q, 3) points.

    Channel 0 carries the hand (depth-coded), channel 1 the object
    (depth-coded), channel 2 point identity. A hand of 21 points gets its
    bones, an object its first 8 points and, with all 8, the box edges;
    an entity with no points draws nothing.
    """
    hand = np.asarray(hand_points, dtype=float)
    obj = np.asarray(object_points, dtype=float)[:, :8]
    if len(hand) != len(obj):
        raise ShapeMismatch(f"{len(hand)} hands and {len(obj)} objects are not frames")
    hand_edges = HAND_BONES if hand.shape[1] == NUM_CONTROL_POINTS else ()
    obj_edges = CUBOID_EDGES if obj.shape[1] == 8 else ()
    h, w = grid.image_h, grid.image_w
    out = np.zeros((len(hand), IMAGE_CHANNELS, h, w))
    for s in range(0, len(hand), RENDER_CHUNK):
        chunk = slice(s, s + RENDER_CHUNK)
        windows = zip(_windows(hand[chunk], 0, hand_edges, hand.shape[1], cam, grid, spec),
                      _windows(obj[chunk], 1, obj_edges, 8.0, cam, grid, spec))
        _composite(out[chunk].reshape(-1, h, w), *(np.concatenate(col) for col in windows))
    return out


def render_entities(
    cam: CameraIntrinsics,
    grid: GridSpec,
    spec: RenderSpec,
    hand_points: np.ndarray | None = None,
    object_points: np.ndarray | None = None,
) -> np.ndarray:
    """Raster (IMAGE_CHANNELS, H, W) of one frame, the one-frame case of render_frames;
    a missing entity draws nothing, so no entities give zeros."""
    points = [np.zeros((1, 0, 3)) if p is None else np.asarray(p, dtype=float)[None]
              for p in (hand_points, object_points)]
    return render_frames(cam, grid, spec, *points)[0]


# -- dataset files -------------------------------------------------------------

# One record per frame of frames.npy: the frame's ids, hand and object pose, and box size.
FRAME_RECORD = np.dtype([
    ("seq_id", "<i8"), ("action_id", "<i8"), ("object_id", "<i8"),
    ("hand_points", "<f8", (NUM_CONTROL_POINTS, 3)),
    ("rotation", "<f8", (3, 3)), ("translation", "<f8", (3,)), ("half_extents", "<f8", (3,)),
])


def check_rasters(frames, shape=None, start: int = 0) -> None:
    """ShapeMismatch naming the index, counted from start, of the first frame
    without a raster or with one of another shape than shape (by default the
    first frame's)."""
    for i, frame in enumerate(frames, start):
        if frame.raster is None:
            raise ShapeMismatch(f"frame {i} has no raster")
        shape = shape or np.shape(frame.raster)
        if np.shape(frame.raster) != shape:
            raise ShapeMismatch(f"frame {i} has a raster of shape {np.shape(frame.raster)}; "
                                f"want {shape}")


def save_frames(directory, frames: list[SceneFrame], seq_ids: list[int]) -> None:
    """Write frames.npy, one FRAME_RECORD per frame, and rasters.npy, the rasters
    as one uint8 (N, IMAGE_CHANNELS, H, W) stack. Unequal lengths raise
    LengthMismatch, and a frame without a raster of the first frame's shape a
    ShapeMismatch (check_rasters), before either file is written."""
    if len(frames) != len(seq_ids):
        raise LengthMismatch(f"{len(frames)} frames but {len(seq_ids)} sequence ids")
    check_rasters(frames)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records = np.zeros(len(frames), FRAME_RECORD)
    shape = frames[0].raster.shape if frames else (IMAGE_CHANNELS, 0, 0)
    rasters = np.zeros((len(frames), *shape), np.uint8)
    for i, (f, seq) in enumerate(zip(frames, seq_ids)):
        records[i] = (seq, f.action_id, f.object_id, f.hand_points, f.object_pose.rotation,
                      f.object_pose.translation, f.cuboid.half_extents())
        rasters[i] = np.clip(np.round(f.raster * 255.0), 0, 255)
    np.save(directory / "frames.npy", records)
    np.save(directory / "rasters.npy", rasters)


def _load_array(path: Path) -> np.ndarray:
    """One .npy array; a missing, truncated, malformed, pickled or .npz file is a ConfigError."""
    try:
        array = np.load(path, allow_pickle=False)
    except FileNotFoundError as e:
        raise ConfigError(f"{path}: no dataset file") from e
    except (OSError, ValueError, EOFError) as e:
        raise ConfigError(f"{path}: unreadable dataset file: {e}") from e
    if not isinstance(array, np.ndarray):   # an .npz archive
        array.close()
        raise ConfigError(f"{path}: not a .npy array file")
    return array


def load_frames(directory) -> tuple[list[SceneFrame], list[int]]:
    """Read what save_frames wrote; a missing, unreadable or inconsistent file,
    or a non-finite record field, raises ConfigError naming the file."""
    directory = Path(directory)
    records_path, rasters_path = directory / "frames.npy", directory / "rasters.npy"
    records, rasters = _load_array(records_path), _load_array(rasters_path)
    if records.dtype != FRAME_RECORD or records.ndim != 1:
        raise ConfigError(f"{records_path}: records of dtype {records.dtype} and shape "
                          f"{records.shape}, not a 1-D array of {FRAME_RECORD}")
    if rasters.dtype != np.uint8 or rasters.ndim != 4 or rasters.shape[:2] != (
            len(records), IMAGE_CHANNELS):
        raise ConfigError(f"{rasters_path}: rasters of dtype {rasters.dtype} and shape "
                          f"{rasters.shape}, not uint8 ({len(records)}, {IMAGE_CHANNELS}, H, W)")
    for name in ("hand_points", "rotation", "translation", "half_extents"):
        finite = np.isfinite(records[name])
        bad = np.flatnonzero(~finite.all(axis=tuple(range(1, finite.ndim))))
        if bad.size:
            raise ConfigError(f"{records_path}: record {bad[0]} has a non-finite {name}")
    images = rasters / 255.0
    frames = []
    for i, rec in enumerate(records):
        cuboid = Cuboid(*rec["half_extents"])
        pose = Pose6D(rec["rotation"], rec["translation"])
        frames.append(SceneFrame(
            hand_points=rec["hand_points"], object_pose=pose, cuboid=cuboid,
            object_points=pose.apply(cuboid_control_points(cuboid).points),
            object_id=int(rec["object_id"]), action_id=int(rec["action_id"]), raster=images[i],
        ))
    return frames, records["seq_id"].tolist()
