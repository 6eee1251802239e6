"""6D pose recovery: least-squares rigid alignment and a DLT PnP baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, RankDeficient
from .geometry import CameraIntrinsics

_RANK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Pose6D:
    """Rigid transform from the object reference frame to the camera frame."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        for name, shape in (("rotation", (3, 3)), ("translation", (3,))):
            a = getattr(self, name)
            if not (type(a) is np.ndarray and a.dtype == float and a.shape == shape):
                object.__setattr__(self, name, np.asarray(a, dtype=float).reshape(shape))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation


def procrustes_align(src, dst) -> Pose6D:
    """Least-squares rigid transform mapping src points onto dst points.

    Solves argmin over (R, t) of sum ||R*src_i + t - dst_i||^2 via centroid
    subtraction, SVD of the cross-covariance and the determinant sign fix
    that excludes reflections.

    Raises DegenerateConfiguration on non-finite points or a src covariance of rank < 2.
    """
    s = np.asarray(src, dtype=float)
    d = np.asarray(dst, dtype=float)
    if s.shape != d.shape:
        raise DegenerateConfiguration(f"point sets disagree in shape: {s.shape} vs {d.shape}")
    if not (np.isfinite(s).all() and np.isfinite(d).all()):
        raise DegenerateConfiguration("point sets hold non-finite values")

    mu_s = s.mean(axis=0)
    mu_d = d.mean(axis=0)
    sc = s - mu_s
    dc = d - mu_d

    sing_src = np.linalg.svd(sc, compute_uv=False)
    if sing_src.size < 2 or sing_src[1] <= _RANK_TOL * max(1.0, sing_src[0]):
        raise DegenerateConfiguration("source points are (near-)collinear; rank < 2")

    cov = sc.T @ dc
    u, _, vt = np.linalg.svd(cov)
    v = vt.T
    if np.linalg.det(v @ u.T) < 0:   # a reflection: flip the last singular direction
        v[:, 2] *= -1.0
    rot = v @ u.T
    t = mu_d - rot @ mu_s
    return Pose6D(rot, t)


def pnp_dlt(pixels: np.ndarray, src, cam: CameraIntrinsics) -> Pose6D:
    """Direct-linear-transform pose from 2D pixel / 3D model correspondences.

    Normalizes pixels with the inverse intrinsics, solves the homogeneous
    system for the 3x4 pose matrix by SVD, then orthonormalizes the rotation
    block (with reflection and cheirality fixes). A least-squares baseline,
    not a refined PnP: it exists to compare against the direct 3D route.

    Raises RankDeficient with fewer than 6 correspondences, and
    DegenerateConfiguration on non-finite ones or when the system has no unique solution.
    """
    model = np.asarray(src, dtype=float)
    px = np.asarray(pixels, dtype=float)
    n = model.shape[0]
    if px.shape != (n, 2):
        raise DegenerateConfiguration(f"need matching (N,2)/(N,3) arrays, got {px.shape} and {model.shape}")
    if n < 6:
        raise RankDeficient(f"DLT pose needs >= 6 correspondences, got {n}")
    if not (np.all(np.isfinite(model)) and np.all(np.isfinite(px))):
        raise DegenerateConfiguration("correspondences hold non-finite values")

    # Normalized image coordinates: K^-1 [u, v, 1]
    xn = (px[:, 0] - cam.cx) / cam.fx
    yn = (px[:, 1] - cam.cy) / cam.fy

    xh = np.concatenate([model, np.ones((n, 1))], axis=1)
    a = np.zeros((2 * n, 12))
    a[0::2, 0:4] = xh
    a[0::2, 8:12] = -xn[:, None] * xh
    a[1::2, 4:8] = xh
    a[1::2, 8:12] = -yn[:, None] * xh

    _, sing, vt = np.linalg.svd(a)
    # A unique (up to scale) null direction needs a clear gap to the
    # second-smallest singular value.
    if sing[-2] <= 1e-12 * max(1.0, sing[0]):
        raise DegenerateConfiguration("correspondences are degenerate for DLT (coplanar or repeated)")
    p = vt[-1].reshape(3, 4)

    # Fix the overall sign so the model sits in front of the camera: the
    # third row of P times X~ is the (scaled) depth of each point.
    if np.median(xh @ p[2]) < 0:
        p = -p

    rb = p[:, :3]
    u, s, vt_r = np.linalg.svd(rb)
    scale = s.mean()
    if scale <= 0:
        raise DegenerateConfiguration("zero-scale rotation block in DLT solution")
    rot = u @ vt_r
    if np.linalg.det(rot) < 0:
        # Noise pushed the nearest orthonormal matrix to a reflection;
        # keep det = +1 at the cost of a worse fit.
        rot = u @ np.diag([1.0, 1.0, -1.0]) @ vt_r
    return Pose6D(rot, p[:, 3] / scale)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via QR of a Gaussian matrix with sign fix."""
    m = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(m)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q
