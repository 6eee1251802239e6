"""Shared test helpers: the paper-scale grid and camera, scene stubs,
measurement helpers, float64 copies of a model, a tanh autodiff node and
the finite-difference gradient check."""

from dataclasses import dataclass

import numpy as np

from gridpose import autodiff as ad
from gridpose import geometry as geo
from gridpose import interaction as ia
from gridpose import network as net
from gridpose.errors import NumericError
from gridpose.rigidpose import Pose6D, random_rotation


@dataclass
class SceneStub:
    """Minimal stand-in for synth.SceneFrame: just what codec.frame_targets reads."""

    hand_points: np.ndarray
    object_points: np.ndarray
    action_id: int
    object_id: int


PAPER_GRID = geo.GridSpec(h=13, w=13, d=5, cell_u_px=32.0, cell_v_px=32.0,
                          cell_z_m=0.15, z_min=0.0, cutoff_px=75.0)
PAPER_CAM = geo.CameraIntrinsics(fx=600.0, fy=600.0, cx=208.0, cy=208.0)


def logit(p):
    """Inverse sigmoid; maps 0 and 1 to -inf and +inf."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(p) - np.log1p(-p)


def float64(model):
    """A float64 copy of a network.ModelParams or an interaction.InteractionModel.

    autodiff computes in its operands' dtype and the forward passes cast
    their data to the parameters' dtype, so the gradient checks and the
    float64 oracles run the production code in float64 on such a copy.
    """
    if isinstance(model, net.ModelParams):
        return net.ModelParams({k: v.astype(np.float64) for k, v in model.tensors.items()},
                               model.signature)
    return ia.InteractionModel(model.cfg, {k: v.astype(np.float64)
                                           for k, v in model.params.items()})


def tanh(a) -> ad.Tensor:
    """tanh as its own autodiff node, for the step-by-step LSTM oracle; the
    package's lstm node applies its tanh inside the fused gate pass."""
    a = ad.as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - out_data * out_data), owned=True)

    return ad.Tensor._make(out_data, (a,), backward)


def rotation_geodesic(r_a, r_b) -> float:
    """Angle of the relative rotation between two rotation matrices.

    Computed as 2*asin(||Ra - Rb||_F / (2*sqrt(2))), which stays accurate
    for tiny angles where the trace/arccos form loses half the digits.
    """
    diff = np.linalg.norm(np.asarray(r_a) - np.asarray(r_b))
    return float(2.0 * np.arcsin(min(1.0, diff / (2.0 * np.sqrt(2.0)))))


def hand_around(root, rng=None, spread=0.05):
    """21 hand points with the wrist at `root` and the rest scattered nearby."""
    root = np.asarray(root, dtype=float)
    if rng is None:
        rng = np.random.default_rng(0)
    pts = root + rng.uniform(-spread, spread, size=(21, 3))
    pts[0] = root
    return pts


def random_scene(rng, grid=PAPER_GRID, cam=PAPER_CAM, n_actions=4, n_objects=3):
    """A random in-volume scene: hand cloud + posed cuboid control points.

    Depths start 1.5 cells into the volume so scattered non-root points
    stay in front of the camera even when z_min = 0.
    """
    margin = 0.02
    def sample_root():
        w = rng.uniform([margin, margin, 1.5],
                        [grid.w - margin, grid.h - margin, grid.d - margin])
        return geo.grid_to_camera(w, cam, grid)

    hand = hand_around(sample_root(), rng)
    cuboid = geo.Cuboid(*rng.uniform(0.02, 0.08, size=3))
    pose = Pose6D(random_rotation(rng), sample_root())
    obj_pts = pose.apply(geo.cuboid_control_points(cuboid).points)
    return SceneStub(
        hand_points=hand,
        object_points=obj_pts,
        action_id=int(rng.integers(n_actions)),
        object_id=int(rng.integers(n_objects)),
    ), cuboid, pose


def grad_check(arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray], value,
               eps: float, n_samples: int, seed: int) -> float:
    """Max relative error of grads against central finite differences.

    Checks up to n_samples entries drawn without replacement. value()
    gives (loss, kinks) at the current arrays, kinks a list of arrays such as
    rectifier sign patterns; an entry whose +-eps sides differ in kinks is
    redrawn, since the loss is only piecewise smooth. The denominator is
    max(|analytic|, |numeric|, 1e-6), so vanishing gradients do not fail.
    Raises NumericError when every drawn entry was redrawn: a check that
    compared nothing must not pass.
    """
    rng = np.random.default_rng(seed)
    names = sorted(arrays)
    offsets = np.concatenate([[0], np.cumsum([arrays[k].size for k in names])])
    picks = list(rng.permutation(int(offsets[-1])))
    worst = 0.0
    checked = 0
    while checked < n_samples and picks:
        flat_idx = picks.pop()
        t_i = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
        name = names[t_i]
        local = int(flat_idx - offsets[t_i])
        arr = arrays[name].ravel()
        orig = arr[local]
        arr[local] = orig + eps
        hi, kinks_hi = value()
        arr[local] = orig - eps
        lo, kinks_lo = value()
        arr[local] = orig
        if any(not np.array_equal(a, b) for a, b in zip(kinks_hi, kinks_lo)):
            continue
        numeric = (hi - lo) / (2 * eps)
        analytic = grads[name].ravel()[local]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, rel)
        checked += 1
    if checked == 0:
        raise NumericError("grad_check compared no entry: every drawn entry crossed a kink")
    return worst
