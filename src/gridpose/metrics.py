"""Pose and classification evaluation measures."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyModel, LengthMismatch, NonPositiveDepth
from .geometry import CameraIntrinsics, project
from .rigidpose import Pose6D


@dataclass(frozen=True, eq=False)
class PckCurve:
    """Fraction of frames whose mean joint error falls under each threshold."""

    thresholds: np.ndarray   # meters, ascending
    fractions: np.ndarray    # in [0, 1], non-decreasing


def _paired(pred, gt, name: str) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=float)
    g = np.asarray(gt, dtype=float)
    if p.shape != g.shape:
        raise LengthMismatch(f"{name}: prediction shape {p.shape} != truth shape {g.shape}")
    return p, g


def mean_frame_errors(pred_frames, gt_frames) -> np.ndarray:
    """Per-frame mean joint distance (meters) over paired (F, N, 3) arrays."""
    p, g = _paired(pred_frames, gt_frames, "pose pairs")
    if p.ndim != 3:
        raise LengthMismatch(f"expected (frames, joints, 3) arrays, got {p.shape}")
    return np.linalg.norm(p - g, axis=2).mean(axis=1)


def pck3d(pred_frames, gt_frames, thresholds) -> PckCurve:
    """3D percentage-of-correct-keypoints curve over mean joint error."""
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(np.diff(thresholds) < 0):
        raise LengthMismatch("thresholds must be ascending")
    errors = mean_frame_errors(pred_frames, gt_frames)
    fractions = (errors[None, :] < thresholds[:, None]).mean(axis=1)
    return PckCurve(thresholds=thresholds, fractions=fractions)


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


def fraction_below(values, thresholds) -> np.ndarray:
    """Correct-pose style sweep: share of values under each threshold."""
    values = np.asarray(values, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    return (values[None, :] < thresholds[:, None]).mean(axis=1)


def classification_accuracy(pred_labels, gt_labels) -> float:
    p = np.asarray(pred_labels)
    g = np.asarray(gt_labels)
    if p.shape != g.shape:
        raise LengthMismatch(f"label lists differ in length: {p.shape} vs {g.shape}")
    return float((p == g).mean())


def mean_joint_error_mm(pred_frames, gt_frames) -> float:
    """Grand mean joint distance over frames and joints, in millimeters."""
    p, g = _paired(pred_frames, gt_frames, "pose pairs")
    return float(np.linalg.norm(p - g, axis=-1).mean() * 1000.0)


# -- report files --------------------------------------------------------------

def write_curve_csv(path, thresholds, values, value_name: str = "fraction") -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["threshold", value_name])
        for t, v in zip(thresholds, values):
            writer.writerow([f"{t:.10g}", f"{v:.10g}"])


def write_json_summary(path, summary: dict) -> None:
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
