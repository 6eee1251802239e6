"""Pose and classification evaluation measures, and the report writers.

Every curve is fraction_below over one error per frame. write_csv and
write_json write every report, log and manifest as text with "\\n" line
ends: CSV numbers as %.10g, JSON keys sorted and indented by 2, with a
non-finite float as null.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .codec import class_ids
from .errors import EmptyModel, LengthMismatch, NonPositiveDepth, NumericError
from .geometry import CameraIntrinsics, project
from .rigidpose import Pose6D, pnp_dlt, procrustes_align


def _paired(pred, gt, name: str) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=float)
    g = np.asarray(gt, dtype=float)
    if p.shape != g.shape:
        raise LengthMismatch(f"{name}: prediction shape {p.shape} != truth shape {g.shape}")
    return p, g


def mean_frame_errors(pred_frames, gt_frames) -> np.ndarray:
    """Per-frame mean joint distance (meters) over paired (F, N, 3) arrays;
    inf for a frame with a non-finite joint, so every curve counts it a miss."""
    p, g = _paired(pred_frames, gt_frames, "pose pairs")
    if p.ndim != 3:
        raise LengthMismatch(f"expected (frames, joints, 3) arrays, got {p.shape}")
    errors = np.linalg.norm(p - g, axis=2).mean(axis=1)
    return np.where(np.isfinite(errors), errors, np.inf)


def add_metric(pose_pred: Pose6D, pose_gt: Pose6D, model_points) -> float:
    """Mean 3D distance of model points under the two poses (meters)."""
    pts = np.asarray(model_points, dtype=float)
    if pts.size == 0:
        raise EmptyModel("ADD needs at least one model point")
    return float(np.linalg.norm(pose_pred.apply(pts) - pose_gt.apply(pts), axis=1).mean())


def proj2d_error(pose_pred: Pose6D, pose_gt: Pose6D, model_points,
                 cam: CameraIntrinsics) -> float:
    """Mean pixel distance of projected model points under the two poses."""
    pts = np.asarray(model_points, dtype=float)
    if pts.size == 0:
        raise EmptyModel("projection error needs at least one model point")
    a = pose_pred.apply(pts)
    b = pose_gt.apply(pts)
    if np.any(a[:, 2] <= 0) or np.any(b[:, 2] <= 0):
        raise NonPositiveDepth("a transformed model point lies behind the camera")
    return float(np.linalg.norm(project(a, cam) - project(b, cam), axis=1).mean())


def object_pose_errors(ref, points, truth: Pose6D,
                       cam: CameraIntrinsics) -> tuple[float, float, float]:
    """(ADD, 2D projection error, PnP ADD) of an object whose reference
    control points ref were predicted at the camera-frame points.

    The first two score the Procrustes fit of ref to points, the last the
    DLT PnP pose from the projections of points. Each is inf on its own when
    its route raises NumericError; each route needs finite points, and PnP
    also needs every point at z > 1e-6.
    """
    add = proj = add_pnp = float("inf")
    try:
        est = procrustes_align(ref, points)
        add = add_metric(est, truth, ref)
        proj = proj2d_error(est, truth, ref, cam)
    except NumericError:
        pass
    try:
        points = np.asarray(points, dtype=float)
        if not (np.all(np.isfinite(points)) and np.all(points[:, 2] > 1e-6)):
            raise NumericError("PnP needs finite points in front of the camera")
        add_pnp = add_metric(pnp_dlt(project(points, cam), ref, cam), truth, ref)
    except NumericError:
        pass
    return add, proj, add_pnp


def fraction_below(values, thresholds) -> np.ndarray:
    """Correct-pose style sweep: share of values under each threshold."""
    values = np.asarray(values, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    return (values[None, :] < thresholds[:, None]).mean(axis=1)


def finite_mean(values) -> float:
    """Mean of the finite values; inf when there is none."""
    values = np.asarray(values, dtype=float)
    finite = values[np.isfinite(values)]
    return float(np.mean(finite)) if finite.size else float("inf")


def classification_accuracy(pred_labels, gt_labels) -> float:
    p = np.asarray(pred_labels)
    g = np.asarray(gt_labels)
    if p.shape != g.shape:
        raise LengthMismatch(f"label lists differ in length: {p.shape} vs {g.shape}")
    return float((p == g).mean())


def logits_accuracy(logits, gt_labels) -> float:
    """classification_accuracy of each row's argmax; a row that holds a
    non-finite logit counts as wrong (codec.class_ids)."""
    return classification_accuracy(class_ids(logits), gt_labels)


def mean_joint_error_mm(pred_frames, gt_frames) -> float:
    """Grand mean joint distance over the frames whose joints are all
    finite, in millimeters; inf when there is none (the rule of finite_mean)."""
    p, g = _paired(pred_frames, gt_frames, "pose pairs")
    distances = np.linalg.norm(p - g, axis=-1)
    finite = np.isfinite(distances).all(axis=-1)
    if not finite.any():
        return float("inf")
    return float(distances[finite].mean() * 1000.0)


# -- report files --------------------------------------------------------------

def write_csv(path, header, rows) -> None:
    """A header line, then one line per row: strings as they are, numbers as %.10g."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else f"{v:.10g}" for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def _finite_or_none(value):
    """value with every non-finite float in it, at any depth, as None."""
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path, doc: dict) -> None:
    """doc as strict JSON, keys sorted and indented by 2, with a final line
    end; a non-finite float is written as null."""
    text = json.dumps(_finite_or_none(doc), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", newline="\n")
