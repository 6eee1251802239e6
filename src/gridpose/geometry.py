"""Camera model, grid discretization and canonical control points.

Coordinate conventions used throughout the package:

    Camera frame (right-handed, standard computer vision):
      x right, y down, z forward along the optical axis. Units: meters.
    Image frame:
      u right, v down, origin at the top-left corner. Units: pixels.
    Grid coordinates:
      continuous cell units (w_u, w_v, w_z). One unit equals one cell:
      cell_u_px pixels horizontally, cell_v_px pixels vertically and
      cell_z_m meters in depth. Depth cell 0 starts at z_min meters.

The grid has w columns (u axis), h rows (v axis) and d depth bins, so
the image is w*cell_u_px by h*cell_v_px pixels and the scene volume
spans depths [z_min, z_min + d*cell_z_m).

The pinhole model carries no distortion; undistort upstream if needed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonPositiveDepth

HAND = "hand"
OBJECT = "object"

NUM_CONTROL_POINTS = 21

# Planes of every raster and of the backbone's input: the hand and the object
# (both depth-coded), then point identity.
IMAGE_CHANNELS = 3

# Root point per role: the hand skeleton starts at the wrist, the cuboid
# control points end with the centroid (corners, then midpoints, then centroid).
def root_index(role: str) -> int:
    return 0 if role == HAND else NUM_CONTROL_POINTS - 1


# Hand skeleton layout: joint 0 is the wrist; fingers follow in order
# thumb, index, middle, ring, pinky, each contributing MCP, PIP, DIP, TIP.
HAND_PARTS = {
    "wrist": (0,),
    "mcp": (1, 5, 9, 13, 17),
    "pip": (2, 6, 10, 14, 18),
    "dip": (3, 7, 11, 15, 19),
    "tip": (4, 8, 12, 16, 20),
}

HAND_BONES = tuple(
    [(0, 1 + 4 * f) for f in range(5)]
    + [(1 + 4 * f + k, 2 + 4 * f + k) for f in range(5) for k in range(3)]
)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: u = fx*x/z + cx, v = fy*y/z + cy."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ConfigError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry plus the image-space cutoff of the confidence law.

    h, w, d: cell counts along v, u and depth.
    cell_u_px, cell_v_px: cell size in pixels; cell_z_m: cell size in meters.
    z_min: depth where bin 0 starts (meters from the camera center).
    cutoff_px: pixel distance beyond which confidence is zero (the law's
    exponent and depth cutoff are codec constants).
    """

    h: int
    w: int
    d: int
    cell_u_px: float
    cell_v_px: float
    cell_z_m: float
    z_min: float = 0.0
    cutoff_px: float = 75.0

    def __post_init__(self):
        if min(self.h, self.w, self.d) < 1:
            raise ConfigError(f"cell counts must be >= 1, got {self.h}x{self.w}x{self.d}")
        if min(self.cell_u_px, self.cell_v_px, self.cell_z_m, self.cutoff_px) <= 0:
            raise ConfigError("cell sizes and cutoff_px must be positive")

    @property
    def image_w(self) -> int:
        return int(round(self.w * self.cell_u_px))

    @property
    def image_h(self) -> int:
        return int(round(self.h * self.cell_v_px))


@dataclass(frozen=True)
class Cuboid:
    """Axis-aligned box in the object reference frame, centered at the origin."""

    ex: float
    ey: float
    ez: float

    def __post_init__(self):
        if min(self.ex, self.ey, self.ez) <= 0:
            raise ConfigError(f"half-extents must be positive, got ({self.ex}, {self.ey}, {self.ez})")

    def half_extents(self) -> np.ndarray:
        return np.array([self.ex, self.ey, self.ez])

    def diameter(self) -> float:
        return float(2.0 * np.linalg.norm(self.half_extents()))


@dataclass(frozen=True, eq=False)
class ControlPointSet:
    """Ordered 3D control points, an (N, 3) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ConfigError(f"control points must be (N, 3), got {pts.shape}")
        object.__setattr__(self, "points", pts)


def project(points: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Project camera-frame points (..., 3) to pixels (..., 2).

    Raises NonPositiveDepth if any point has z <= 0.
    """
    p = np.asarray(points, dtype=float)
    z = p[..., 2]
    if np.any(z <= 0):
        raise NonPositiveDepth(f"cannot project point(s) with depth <= 0 (min z = {z.min():.6g})")
    u = cam.fx * p[..., 0] / z + cam.cx
    v = cam.fy * p[..., 1] / z + cam.cy
    return np.stack([u, v], axis=-1)


def camera_to_grid(points: np.ndarray, cam: CameraIntrinsics, grid: GridSpec) -> np.ndarray:
    """Map camera-frame points (..., 3) to continuous grid coordinates (..., 3)."""
    p = np.asarray(points, dtype=float)
    px = project(p, cam)
    w_u = px[..., 0] / grid.cell_u_px
    w_v = px[..., 1] / grid.cell_v_px
    w_z = (p[..., 2] - grid.z_min) / grid.cell_z_m
    return np.stack([w_u, w_v, w_z], axis=-1)


def grid_to_camera(coords: np.ndarray, cam: CameraIntrinsics, grid: GridSpec) -> np.ndarray:
    """Back-project grid coordinates (..., 3) to camera-frame points (..., 3).

    The depth is w_z*cell_z_m + z_min and the ray direction comes from the
    inverse intrinsics applied to the pixel (w_u*cell_u_px, w_v*cell_v_px).
    Raises NonPositiveDepth when the recovered depth is <= 0.
    """
    g = np.asarray(coords, dtype=float)
    depth = g[..., 2] * grid.cell_z_m + grid.z_min
    if np.any(depth <= 0):
        raise NonPositiveDepth(
            f"grid coordinate decodes to depth <= 0 (min depth = {depth.min():.6g})"
        )
    return grid_to_camera_unchecked(g, cam, grid)


def grid_to_camera_unchecked(coords: np.ndarray, cam: CameraIntrinsics, grid: GridSpec) -> np.ndarray:
    """grid_to_camera without the depth-positivity check.

    Used when decoding raw network output, where unconstrained offsets may
    produce unphysical depths; callers must treat those points as garbage.
    """
    g = np.asarray(coords, dtype=float)
    depth = g[..., 2] * grid.cell_z_m + grid.z_min
    x = (g[..., 0] * grid.cell_u_px - cam.cx) / cam.fx * depth
    y = (g[..., 1] * grid.cell_v_px - cam.cy) / cam.fy * depth
    return np.stack([x, y, depth], axis=-1)


# Corner i carries sign pattern (bit 2 -> x, bit 1 -> y, bit 0 -> z),
# bit 0 meaning the negative half-extent. Edges are corner-index pairs that
# differ in exactly one bit, listed in lexicographic order.
CUBOID_EDGES = (
    (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
    (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
)


def cuboid_corners(c: Cuboid) -> np.ndarray:
    """The 8 corners in binary sign order: corner 0 is (-ex, -ey, -ez)."""
    signs = np.array(
        [[1.0 if (i >> b) & 1 else -1.0 for b in (2, 1, 0)] for i in range(8)]
    )
    return signs * c.half_extents()


@functools.lru_cache(maxsize=64)
def cuboid_control_points(c: Cuboid) -> ControlPointSet:
    """21 control points of a cuboid: 8 corners, 12 edge midpoints, centroid.

    Ordering is fixed: corners in binary order of the sign pattern, edge
    midpoints in lexicographic corner-pair order, centroid (origin) last.
    The set is built once per half-extents and cached, so its points array
    is read-only; transform it (Pose6D.apply) or copy it before writing.
    """
    corners = cuboid_corners(c)
    a, b = np.array(CUBOID_EDGES).T
    midpoints = (corners[a] + corners[b]) / 2.0
    centroid = corners.mean(axis=0, keepdims=True)
    cps = ControlPointSet(points=np.concatenate([corners, midpoints, centroid], axis=0))
    cps.points.setflags(write=False)
    return cps


def cell_diagonal_m(grid: GridSpec, cam: CameraIntrinsics) -> float:
    """Metric diagonal of the central grid cell.

    The natural length scale of the discretization: the distance between
    the back-projections of the two extreme corners of cell
    (w//2, h//2, d//2).
    """
    corner = np.array([grid.w // 2, grid.h // 2, grid.d // 2], dtype=float)
    a = grid_to_camera(corner, cam, grid)
    b = grid_to_camera(corner + 1.0, cam, grid)
    return float(np.linalg.norm(b - a))
