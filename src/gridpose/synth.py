"""Deterministic synthetic scenes, sequences, rendering and dataset files.

Scenes place a jittered 21-joint hand skeleton and a posed cuboid inside
the grid volume. The renderer draws Gaussian blobs at projected control
points and line strokes along bones and box edges; intensity encodes
depth (nearer is brighter) and the third channel encodes point identity,
so a network can recover full 3D from the raster alone. Every blob and
stroke sample of a frame is one Gaussian window bounded at three sigma;
the windows are evaluated as arrays, one per window radius, and
max-composited into the planes with the off-image pixels masked, so the
raster does not depend on the order of the windows.

Four built-in action generators define the synthetic verbs:

    0 approach  hand root moves monotonically toward the object centroid
    1 retract   hand root moves monotonically away from it
    2 rotate    object orientation angle grows frame by frame, translation fixed
    3 shake     hand and grasped object oscillate along a line together

Dataset files are line-delimited text records

    frame_id seq_id action_id object_id  <63 hand floats>
    <9 rotation floats row-major> <3 translation floats>
    <3 half-extents> <raster file reference>

with rasters stored as binary PGM (1 channel) or PPM (3 channels).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .codec import LabelSpec
from .errors import ConfigError, ConfigOutOfRange, NonPositiveDepth
from .geometry import (
    _CUBOID_EDGES,
    HAND,
    HAND_BONES,
    OBJECT,
    CameraIntrinsics,
    Cuboid,
    GridSpec,
    camera_to_grid,
    cuboid_control_points,
    grid_to_camera,
    project,
    root_index,
)
from .rigidpose import Pose6D

ACTION_NAMES = ("approach", "retract", "rotate", "shake")


@dataclass(frozen=True)
class RenderSpec:
    """Raster appearance: channel count and stroke geometry."""

    channels: int = 3
    blob_radius_m: float = 0.010
    min_sigma_px: float = 0.8
    bone_gain: float = 0.45
    depth_floor: float = 0.15

    def __post_init__(self):
        if self.channels not in (1, 3):
            raise ConfigError("render channels must be 1 or 3")


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
    """Ground truth for one frame; raster is (channels, H, W) in [0, 1]."""

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


def _axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def hand_skeleton(rng: np.random.Generator, params: SceneParams) -> np.ndarray:
    """A jittered hand in the canonical palm frame, wrist at the origin.

    Bone lengths are fixed (up to a global scale); the jitter is angular:
    per-finger abduction in the palm plane and cumulative curl toward the
    palm normal at each of the three finger joints.
    """
    scale = rng.uniform(*params.hand_scale_range)
    pts = np.zeros((21, 3))
    z = np.array([0.0, 0.0, 1.0])
    for f in range(5):
        splay = _SPLAY[f] / np.linalg.norm(_SPLAY[f])
        abduct = rng.uniform(-params.abduct_max, params.abduct_max)
        direction = _axis_angle(z, abduct) @ splay
        lateral = np.cross(direction, z)
        curls = rng.uniform(0.0, params.curl_max / 3.0, size=3)
        p = _KNUCKLES[f] * scale
        pts[1 + 4 * f] = p
        cum = 0.0
        for k in range(3):
            cum += curls[k]
            seg_dir = _axis_angle(lateral, cum) @ direction
            p = p + scale * _BONE_LENGTHS[f, k] * seg_dir
            pts[2 + 4 * f + k] = p
    return pts


# -- scene sampling ----------------------------------------------------------

def _volume_bounds(params: SceneParams) -> tuple[np.ndarray, np.ndarray]:
    g = params.grid
    lo = np.array([params.margin_uv_cells, params.margin_uv_cells, params.margin_z_cells])
    hi = np.array([g.w - params.margin_uv_cells, g.h - params.margin_uv_cells,
                   g.d - params.margin_z_cells])
    if np.any(lo >= hi):
        raise ConfigOutOfRange("margins leave no room inside the grid volume")
    return lo, hi


def _sample_position(rng, params: SceneParams) -> np.ndarray:
    """Uniform position in the (margin-shrunk) grid volume, camera frame."""
    lo, hi = _volume_bounds(params)
    return grid_to_camera(rng.uniform(lo, hi), params.cam, params.grid)


def in_volume(point: np.ndarray, params: SceneParams) -> bool:
    if point[2] <= 0:
        return False
    w = camera_to_grid(point, params.cam, params.grid)
    lo, hi = _volume_bounds(params)
    return bool(np.all(w >= lo) and np.all(w <= hi))


def place_hand(rng, params: SceneParams, root: np.ndarray) -> np.ndarray:
    """Rotate a fresh skeleton by a bounded random tilt and move it to root."""
    skel = hand_skeleton(rng, params)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, params.tilt_max)
    return skel @ _axis_angle(axis, angle).T + np.asarray(root)


def object_cuboid(params: SceneParams, object_id: int) -> Cuboid:
    if not (0 <= object_id < params.labels.n_objects):
        raise ConfigOutOfRange(f"object id {object_id} out of range")
    return Cuboid(*params.object_sizes[object_id])


def sample_object_pose(rng, params: SceneParams, centroid: np.ndarray) -> Pose6D:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, params.object_angle_max)
    return Pose6D(_axis_angle(axis, angle), np.asarray(centroid))


def build_frame(params: SceneParams, hand_points, pose: Pose6D, cuboid: Cuboid,
                object_id: int, action_id: int, with_raster: bool = True) -> SceneFrame:
    object_points = pose.apply(cuboid_control_points(cuboid).points)
    if np.min(hand_points[:, 2]) <= 0 or np.min(object_points[:, 2]) <= 0:
        raise NonPositiveDepth("scene has control points behind the camera")
    frame = SceneFrame(
        hand_points=np.asarray(hand_points, dtype=float),
        object_pose=pose,
        cuboid=cuboid,
        object_points=object_points,
        object_id=int(object_id),
        action_id=int(action_id),
    )
    if with_raster:
        frame = replace(frame, raster=render(frame, params.cam, params.grid, params.render))
    return frame


def sample_scene(seed: int, params: SceneParams, with_raster: bool = True) -> SceneFrame:
    """One random frame, fully determined by the seed."""
    rng = seeded_rng(seed, 0x5ce)
    for _ in range(200):
        root = _sample_position(rng, params)
        hand = place_hand(rng, params, root)
        object_id = int(rng.integers(params.labels.n_objects))
        action_id = int(rng.integers(params.labels.n_actions))
        cuboid = object_cuboid(params, object_id)
        pose = sample_object_pose(rng, params, _sample_position(rng, params))
        pts = pose.apply(cuboid_control_points(cuboid).points)
        if np.min(hand[:, 2]) > 1e-3 and np.min(pts[:, 2]) > 1e-3:
            return build_frame(params, hand, pose, cuboid, object_id, action_id, with_raster)
    raise ConfigOutOfRange("could not place a scene inside the volume; check margins")


# -- sequences ---------------------------------------------------------------

def _monotone_root_path(rng, params, centroid, decreasing: bool):
    """Start/end hand-root positions on a ray through the object centroid."""
    for _ in range(200):
        direction = rng.normal(size=3)
        direction[2] *= 0.3   # mostly lateral so the path stays in the volume
        direction /= np.linalg.norm(direction)
        far = centroid + direction * rng.uniform(0.13, 0.20)
        near = centroid + direction * rng.uniform(0.03, 0.05)
        if in_volume(far, params) and in_volume(near, params):
            return (far, near) if decreasing else (near, far)
    raise ConfigOutOfRange("no valid approach path found; check margins")


def sample_sequence(seed: int, action_id: int, object_id: int,
                    params: SceneParams, with_raster: bool = True) -> FrameSequence:
    """A deterministic sequence for one (verb, noun) pair."""
    if not (0 <= action_id < params.labels.n_actions):
        raise ConfigOutOfRange(f"action id {action_id} out of range")
    rng = seeded_rng(seed, 0x5e9, action_id, object_id)
    n = params.sequence_length
    cuboid = object_cuboid(params, object_id)
    skel_rng = seeded_rng(seed, 0xa17d, action_id, object_id)

    centroid = _sample_position(rng, params)
    base_rot = sample_object_pose(rng, params, centroid).rotation
    hand_shape = hand_skeleton(skel_rng, params)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    tilt = _axis_angle(axis, rng.uniform(0.0, params.tilt_max))
    oriented_hand = hand_shape @ tilt.T

    frames = []
    name = ACTION_NAMES[action_id]
    if name in ("approach", "retract"):
        start, end = _monotone_root_path(rng, params, centroid, name == "approach")
        for t in range(n):
            a = t / (n - 1)
            root = (1 - a) * start + a * end
            pose = Pose6D(base_rot, centroid)
            frames.append(build_frame(params, oriented_hand + root, pose, cuboid,
                                      object_id, action_id, with_raster))
    elif name == "rotate":
        spin_axis = rng.normal(size=3)
        spin_axis /= np.linalg.norm(spin_axis)
        step = rng.uniform(0.05, 0.10)
        offset = rng.normal(size=3)
        offset[2] *= 0.3
        offset = offset / np.linalg.norm(offset) * rng.uniform(0.08, 0.12)
        root = centroid + offset
        if not in_volume(root, params):
            root = centroid - offset
        for t in range(n):
            pose = Pose6D(_axis_angle(spin_axis, step * t) @ base_rot, centroid)
            frames.append(build_frame(params, oriented_hand + root, pose, cuboid,
                                      object_id, action_id, with_raster))
    elif name == "shake":
        direction = rng.normal(size=3)
        direction[2] *= 0.3
        direction /= np.linalg.norm(direction)
        amp = rng.uniform(0.03, 0.05)
        grasp = direction * 0.0 + rng.normal(size=3) * 0.01
        cycles = rng.uniform(2.0, 3.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        for t in range(n):
            wobble = amp * np.sin(2 * np.pi * cycles * t / n + phase)
            center = centroid + direction * wobble
            pose = Pose6D(base_rot, center)
            frames.append(build_frame(params, oriented_hand + center + grasp, pose,
                                      cuboid, object_id, action_id, with_raster))
    else:  # pragma: no cover - guarded by SceneParams validation
        raise ConfigOutOfRange(f"no generator for action {action_id}")

    return FrameSequence(
        frames=frames,
        action_id=action_id,
        object_id=object_id,
        interaction_id=params.labels.interaction_index(action_id, object_id),
    )


# -- rendering ---------------------------------------------------------------

def _depth_code(z, grid: GridSpec, floor: float):
    span = grid.d * grid.cell_z_m
    a = 1.0 - (np.asarray(z) - grid.z_min) / span
    return np.clip(a, floor, 1.0)


def _windows(pts, plane, edges, n_ids, cam, grid, spec):
    """Gaussian windows (u, v, sigma, amp, plane) of one entity, one per row.

    Each point j in front of the camera is a depth-coded blob on the
    entity's plane and an identity blob, (j + 1) / n_ids, on plane 2. Each
    edge with both ends in front, L pixels long, gets max(2, ceil(L)) stroke
    samples at t = k / (steps - 1), the last at exactly 1 as in np.linspace.
    """
    j = np.flatnonzero(pts[:, 2] > 0)
    uvz = np.zeros((len(pts), 3))
    uvz[j] = np.column_stack([project(pts[j], cam), pts[j, 2]])
    a, b = np.array(edges, dtype=int).reshape(-1, 2).T
    keep = (uvz[a, 2] > 0) & (uvz[b, 2] > 0)
    a, b = a[keep], b[keep]
    steps = np.maximum(2, np.ceil(np.linalg.norm(uvz[b, :2] - uvz[a, :2], axis=1)).astype(int))
    ends = np.cumsum(steps)
    k = np.arange(steps.sum()) - np.repeat(ends - steps, steps)
    t = (k * np.repeat(1.0 / (steps - 1), steps))[:, None]
    t[ends - 1] = 1.0
    line = (1 - t) * uvz[np.repeat(a, steps)] + t * uvz[np.repeat(b, steps)]
    sigma = np.maximum(spec.min_sigma_px, cam.fx * spec.blob_radius_m / uvz[j, 2])
    amp = [_depth_code(uvz[j, 2], grid, spec.depth_floor), 0.25 + 0.75 * (j + 1) / n_ids,
           spec.bone_gain * _depth_code(line[:, 2], grid, spec.depth_floor)]
    u, v, _ = np.concatenate([uvz[j], uvz[j], line]).T
    return (u, v, np.concatenate([sigma, sigma, np.full(len(line), 0.6)]), np.concatenate(amp),
            np.repeat([plane, 2, plane], [len(j), len(j), len(line)]))


def _composite(planes: np.ndarray, u, v, sigma, amp, plane) -> None:
    """Max-composite the windows into planes, +-max(1, ceil(3 sigma)) px, off-image masked."""
    _, h, w = planes.shape
    radius = np.maximum(1, np.ceil(3 * sigma).astype(int))
    for r in set(radius.tolist()):  # not np.unique: it imports numpy.ma (1.3 MB RSS)
        sel = radius == r
        d = np.arange(-r, r + 1)
        x = np.floor(u[sel]).astype(int)[:, None] + d
        y = np.floor(v[sel]).astype(int)[:, None] + d
        xs, ys = x - u[sel, None], y - v[sel, None]
        # Python's float pow, not numpy's square (they can differ in the last
        # bit), keeps rasters bit-identical to the per-window test reference.
        two_var = np.array([2 * s ** 2 for s in sigma[sel].tolist()])
        g = amp[sel, None, None] * np.exp(
            -(ys[:, :, None] ** 2 + xs[:, None, :] ** 2) / two_var[:, None, None])
        inside = ((y >= 0) & (y < h))[:, :, None] & ((x >= 0) & (x < w))[:, None, :]
        flat = (plane[sel, None, None] * h + y[:, :, None]) * w + x[:, None, :]
        np.maximum.at(planes.reshape(-1), flat[inside], g[inside])


def render_entities(
    cam: CameraIntrinsics,
    grid: GridSpec,
    spec: RenderSpec,
    hand_points: np.ndarray | None = None,
    object_points: np.ndarray | None = None,
) -> np.ndarray:
    """Raster for any combination of entities; no entities -> zeros.

    Channel 0 carries the hand (depth-coded), channel 1 the object
    (depth-coded), channel 2 point identity; with channels=1 everything
    is max-composited into a single plane.
    """
    planes = np.zeros((3, grid.image_h, grid.image_w))
    windows = []
    if hand_points is not None:
        pts = np.asarray(hand_points, dtype=float)
        windows.append(_windows(pts, 0, HAND_BONES if len(pts) == 21 else (),
                                len(pts), cam, grid, spec))
    if object_points is not None:
        pts = np.asarray(object_points, dtype=float)
        windows.append(_windows(pts[:8], 1, _CUBOID_EDGES if len(pts) >= 8 else (),
                                8.0, cam, grid, spec))
    if windows:
        _composite(planes, *(np.concatenate(col) for col in zip(*windows)))
    if spec.channels == 1:
        return planes.max(axis=0, keepdims=True)
    return planes


def render(frame: SceneFrame, cam: CameraIntrinsics, grid: GridSpec,
           spec: RenderSpec) -> np.ndarray:
    return render_entities(cam, grid, spec,
                           hand_points=frame.hand_points,
                           object_points=frame.object_points)


# -- augmentation ------------------------------------------------------------

def translate_frame(frame: SceneFrame, du_px: int, dv_px: int,
                    cam: CameraIntrinsics) -> SceneFrame:
    """Shift the raster by whole pixels and re-derive all 3D labels.

    Each point moves by (du*z/fx, dv*z/fy, 0) so its projection shifts by
    exactly (du, dv) at unchanged depth. The stored object pose is shifted
    by the centroid's displacement (the per-point map is a depth-dependent
    shear, so the pose is exact at the centroid).
    """
    def shift_pts(pts):
        pts = np.asarray(pts, dtype=float).copy()
        pts[:, 0] += du_px * pts[:, 2] / cam.fx
        pts[:, 1] += dv_px * pts[:, 2] / cam.fy
        return pts

    hand = shift_pts(frame.hand_points)
    obj = shift_pts(frame.object_points)
    tz = frame.object_pose.translation[2]
    new_t = frame.object_pose.translation + np.array(
        [du_px * tz / cam.fx, dv_px * tz / cam.fy, 0.0])
    raster = frame.raster
    if raster is not None:
        shifted = np.zeros_like(raster)
        h, w = raster.shape[1:]
        ys = slice(max(0, dv_px), min(h, h + dv_px))
        xs = slice(max(0, du_px), min(w, w + du_px))
        ys_src = slice(max(0, -dv_px), min(h, h - dv_px))
        xs_src = slice(max(0, -du_px), min(w, w - du_px))
        shifted[:, ys, xs] = raster[:, ys_src, xs_src]
        raster = shifted
    return replace(frame, hand_points=hand, object_points=obj,
                   object_pose=Pose6D(frame.object_pose.rotation, new_t),
                   raster=raster)


def photometric_jitter(raster: np.ndarray, rng: np.random.Generator,
                       max_frac: float = 0.5) -> np.ndarray:
    """Random exposure/saturation/hue-style jitter on the raster only."""
    out = raster.astype(float).copy()
    exposure = 1.0 + rng.uniform(-max_frac, max_frac)
    out *= exposure
    if out.shape[0] == 3:
        sat = 1.0 + rng.uniform(-max_frac, max_frac)
        gray = out.mean(axis=0, keepdims=True)
        out = gray + sat * (out - gray)
        shift = rng.uniform(0.0, max_frac)
        out = (1.0 - shift) * out + shift * np.roll(out, 1, axis=0)
    return np.clip(out, 0.0, 1.0)


def augment_frame(frame: SceneFrame, rng: np.random.Generator,
                  params: SceneParams, photometric: bool = True,
                  translate_frac: float = 0.1) -> SceneFrame:
    """Training-time augmentation keeping labels consistent with the raster."""
    out = frame
    if translate_frac > 0:
        w, h = params.grid.image_w, params.grid.image_h
        du = int(round(rng.uniform(-translate_frac, translate_frac) * w))
        dv = int(round(rng.uniform(-translate_frac, translate_frac) * h))
        for _ in range(8):
            cand = translate_frame(out, du, dv, params.cam)
            if (in_volume(cand.hand_points[root_index(HAND)], params)
                    and in_volume(cand.object_points[root_index(OBJECT)], params)):
                out = cand
                break
            du //= 2
            dv //= 2
    if photometric and out.raster is not None:
        out = replace(out, raster=photometric_jitter(out.raster, rng))
    return out


# -- dataset files -------------------------------------------------------------

def write_raster(path, raster: np.ndarray) -> None:
    """8-bit binary PGM (1 channel) or PPM (3 channels)."""
    path = Path(path)
    arr = np.clip(np.round(np.asarray(raster) * 255.0), 0, 255).astype(np.uint8)
    c, h, w = arr.shape
    if c == 1:
        header = f"P5\n{w} {h}\n255\n".encode()
        body = arr[0].tobytes()
    else:
        header = f"P6\n{w} {h}\n255\n".encode()
        body = arr.transpose(1, 2, 0).tobytes()
    path.write_bytes(header + body)


def read_raster(path) -> np.ndarray:
    """Read an 8-bit binary PGM/PPM; a malformed or truncated file raises ConfigError."""
    data = Path(path).read_bytes()
    fields_out = []
    pos = 0
    while len(fields_out) < 4:
        while pos < len(data) and data[pos: pos + 1].isspace():
            pos += 1
        if data[pos: pos + 1] == b"#":
            while pos < len(data) and data[pos: pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos: pos + 1].isspace():
            pos += 1
        fields_out.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    magic, dims = fields_out[0], fields_out[1:]
    if magic not in (b"P5", b"P6"):
        raise ConfigError(f"{path}: unsupported raster magic {magic!r}")
    if not all(t.isdigit() for t in dims):
        raise ConfigError(f"{path}: malformed raster header {b' '.join(fields_out)!r}")
    w, h, maxval = (int(t) for t in dims)
    if maxval != 255:
        raise ConfigError(f"{path}: only 8-bit rasters are supported, maxval is {maxval}")
    channels = 1 if magic == b"P5" else 3
    body = data[pos: pos + h * w * channels]
    if len(body) != h * w * channels:
        raise ConfigError(f"{path}: raster body has {len(body)} bytes, "
                          f"a {w}x{h}x{channels} image needs {h * w * channels}")
    img = np.frombuffer(body, dtype=np.uint8).reshape(h, w, channels).transpose(2, 0, 1)
    return img.astype(float) / 255.0


def save_frames(directory, frames: list[SceneFrame], seq_ids: list[int]) -> None:
    """Write frames.txt plus one raster file per frame under rasters/."""
    directory = Path(directory)
    (directory / "rasters").mkdir(parents=True, exist_ok=True)
    lines = []
    for i, (frame, seq) in enumerate(zip(frames, seq_ids)):
        ref = f"rasters/frame_{i:06d}." + ("pgm" if frame.raster.shape[0] == 1 else "ppm")
        write_raster(directory / ref, frame.raster)
        fieldvals = [str(i), str(int(seq)), str(frame.action_id), str(frame.object_id)]
        fieldvals += [f"{x:.17g}" for x in frame.hand_points.ravel()]
        fieldvals += [f"{x:.17g}" for x in frame.object_pose.rotation.ravel()]
        fieldvals += [f"{x:.17g}" for x in frame.object_pose.translation]
        fieldvals += [f"{x:.17g}" for x in frame.cuboid.half_extents()]
        fieldvals.append(ref)
        lines.append(" ".join(fieldvals))
    (directory / "frames.txt").write_text("\n".join(lines) + "\n")


def load_frames(directory) -> tuple[list[SceneFrame], list[int]]:
    directory = Path(directory)
    path = directory / "frames.txt"
    frames, seq_ids = [], []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4 + 63 + 12 + 3 + 1:
            raise ConfigError(f"{path}:{lineno}: malformed dataset record with {len(parts)} fields")
        try:
            _, seq, action_id, object_id = (int(x) for x in parts[:4])
            vals = np.array([float(x) for x in parts[4:-1]])
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: non-numeric dataset record field: {e}") from e
        hand = vals[:63].reshape(21, 3)
        rot = vals[63:72].reshape(3, 3)
        t = vals[72:75]
        cuboid = Cuboid(*vals[75:78])
        pose = Pose6D(rot, t)
        raster = read_raster(directory / parts[-1])
        frames.append(SceneFrame(
            hand_points=hand, object_pose=pose, cuboid=cuboid,
            object_points=pose.apply(cuboid_control_points(cuboid).points),
            object_id=object_id, action_id=action_id, raster=raster,
        ))
        seq_ids.append(seq)
    return frames, seq_ids


def group_sequences(frames: list[SceneFrame], seq_ids: list[int],
                    labels: LabelSpec) -> list[FrameSequence]:
    """Rebuild ordered sequences from per-frame records."""
    by_seq: dict[int, list[SceneFrame]] = {}
    for frame, seq in zip(frames, seq_ids):
        by_seq.setdefault(seq, []).append(frame)
    out = []
    for seq in sorted(by_seq):
        fs = by_seq[seq]
        out.append(FrameSequence(
            frames=fs, action_id=fs[0].action_id, object_id=fs[0].object_id,
            interaction_id=labels.interaction_index(fs[0].action_id, fs[0].object_id),
        ))
    return out
