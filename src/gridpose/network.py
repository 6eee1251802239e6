"""Convolutional backbone and multi-task grid loss, with their SGD training.

The backbone is a small strided conv stack with leaky-rectifier
activations and a final 1x1 projection: a single feed-forward pass maps
an image of grid.image_h x grid.image_w pixels to a raw output grid of
shape (h, w, d, hand_slot + object_slot), depth-major in the channel
dimension with the hand slot before the object slot.

The loss combines, per frame:
  * squared coordinate error in grid units at the two responsible cells
    (sigmoid on the root channels, identity elsewhere),
  * squared confidence error at every cell, weighted conf_obj at
    responsible cells and conf_noobj elsewhere,
  * cross-entropy of the action / object class at the responsible cells.

Confidence targets are recomputed from the current predictions through
the distance law by default ("online"); "fixed" uses target 1 at the
responsible cells instead (every other cell's target is 0 in both).

Training uses the minibatch loop and the gradient checker in autodiff.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import codec
from .codec import LabelSpec, confidence_from_grid_coords, frame_targets
from .errors import ConfigError, NonFiniteLoss, ShapeMismatch
from .geometry import HAND, OBJECT, CameraIntrinsics, GridSpec, root_index

CHECKPOINT_FORMAT = 1


@dataclass(frozen=True)
class BackboneConfig:
    """Conv stack layout; strides must multiply to the pixel cell size."""

    channels: tuple[int, ...] = (16, 32, 64, 64, 96)
    strides: tuple[int, ...] = (2, 2, 2, 1, 1)
    in_channels: int = 3
    kernel: int = 3
    leak: float = 0.1

    def __post_init__(self):
        if len(self.channels) != len(self.strides):
            raise ConfigError("channels and strides must have the same length")
        if not self.channels:
            raise ConfigError("backbone needs at least one conv layer")
        if any(c < 1 for c in self.channels) or any(s < 1 for s in self.strides):
            raise ConfigError("channels and strides must be >= 1")


@dataclass(frozen=True)
class LossWeights:
    """Loss term weights; conf_obj applies at responsible cells only."""

    pose: float = 1.0
    action_class: float = 1.0
    object_class: float = 1.0
    conf_obj: float = 5.0
    conf_noobj: float = 0.1

    def __post_init__(self):
        if min(self.pose, self.action_class, self.object_class,
               self.conf_obj, self.conf_noobj) < 0:
            raise ConfigError("loss weights must be >= 0")


def output_channels(grid: GridSpec, labels: LabelSpec) -> int:
    return grid.d * labels.cell_channels


def model_signature(bb: BackboneConfig, grid: GridSpec, labels: LabelSpec) -> str:
    """Digest tying a parameter set to the config that shaped it."""
    doc = {
        "backbone": [bb.channels, bb.strides, bb.in_channels, bb.kernel, bb.leak],
        "grid": [grid.h, grid.w, grid.d],
        "labels": [labels.n_control, labels.n_actions, labels.n_objects],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


class ModelParams:
    """Named parameter tensors plus the signature of their config."""

    def __init__(self, tensors: dict[str, np.ndarray], signature: str):
        self.tensors = {k: np.asarray(v, dtype=np.float64) for k, v in tensors.items()}
        self.signature = signature

    def copy(self) -> "ModelParams":
        return ModelParams({k: v.copy() for k, v in self.tensors.items()}, self.signature)


def init_params(bb: BackboneConfig, grid: GridSpec, labels: LabelSpec, seed: int) -> ModelParams:
    """Fan-in scaled uniform init, fully determined by the seed."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x6e65)))
    tensors: dict[str, np.ndarray] = {}
    c_in = bb.in_channels
    for i, (c_out, _) in enumerate(zip(bb.channels, bb.strides)):
        fan_in = c_in * bb.kernel * bb.kernel
        s = 1.0 / np.sqrt(fan_in)
        tensors[f"conv{i}.w"] = rng.uniform(-s, s, size=(c_out, c_in, bb.kernel, bb.kernel))
        tensors[f"conv{i}.b"] = rng.uniform(-s, s, size=(c_out,))
        c_in = c_out
    s = 1.0 / np.sqrt(c_in)
    tensors["head.w"] = rng.uniform(-s, s, size=(output_channels(grid, labels), c_in, 1, 1))
    tensors["head.b"] = rng.uniform(-s, s, size=(output_channels(grid, labels),))
    return ModelParams(tensors, model_signature(bb, grid, labels))


def wrap_params(params: ModelParams, requires_grad: bool = True) -> dict[str, ad.Tensor]:
    return ad.wrap(params.tensors, requires_grad)


def _check_image_shape(images: np.ndarray, bb: BackboneConfig, grid: GridSpec) -> None:
    if images.ndim != 4 or images.shape[1] != bb.in_channels:
        raise ShapeMismatch(f"images must be (B, {bb.in_channels}, H, W), got {images.shape}")
    if images.shape[2] != grid.image_h or images.shape[3] != grid.image_w:
        raise ShapeMismatch(
            f"image is {images.shape[2]}x{images.shape[3]}, grid wants "
            f"{grid.image_h}x{grid.image_w}"
        )
    h, w = images.shape[2], images.shape[3]
    k = bb.kernel
    for s in bb.strides:
        h = (h + 2 * (k // 2) - k) // s + 1
        w = (w + 2 * (k // 2) - k) // s + 1
    if (h, w) != (grid.h, grid.w):
        raise ShapeMismatch(
            f"backbone maps the image to {h}x{w} cells but the grid is "
            f"{grid.h}x{grid.w}; image dimensions must match the stride product"
        )


def forward_graph(
    ptensors: dict[str, ad.Tensor],
    images: np.ndarray,
    bb: BackboneConfig,
    grid: GridSpec,
    labels: LabelSpec,
    preact_signs: list | None = None,
) -> ad.Tensor:
    """Differentiable forward pass: (B, C, H, W) image -> (B, h, w, d, slots).

    preact_signs, when given, collects the sign pattern of every rectifier
    input (used by grad_check to reject kink-crossing perturbations).
    """
    images = np.asarray(images, dtype=np.float64)
    _check_image_shape(images, bb, grid)
    x = ad.Tensor(images)
    pad = bb.kernel // 2
    for i, stride in enumerate(bb.strides):
        x = ad.conv2d(x, ptensors[f"conv{i}.w"], ptensors[f"conv{i}.b"],
                      stride=stride, padding=pad)
        if preact_signs is not None:
            preact_signs.append(x.data > 0)
        x = ad.leaky_relu(x, bb.leak)
    x = ad.conv2d(x, ptensors["head.w"], ptensors["head.b"], stride=1, padding=0)
    b = images.shape[0]
    x = x.transpose(0, 2, 3, 1)  # (B, h, w, d*slots)
    return x.reshape(b, grid.h, grid.w, grid.d, labels.cell_channels)


def forward(
    params: ModelParams,
    images: np.ndarray,
    bb: BackboneConfig,
    grid: GridSpec,
    labels: LabelSpec,
) -> np.ndarray:
    """Inference pass; returns the raw output grid as a plain array."""
    return forward_graph(wrap_params(params, requires_grad=False),
                         images, bb, grid, labels).data


@dataclass(frozen=True, eq=False)
class BatchTargets:
    """Precomputed per-frame training targets (indexable, concatenable)."""

    images: np.ndarray        # (B, C, H, W)
    hand_cells: np.ndarray    # (B, 3) int, (u, v, z)
    object_cells: np.ndarray
    hand_offsets: np.ndarray  # (B, n_c, 3) grid-unit offsets from the cell corner
    object_offsets: np.ndarray
    hand_coords: np.ndarray   # (B, n_c, 3) ground-truth grid coordinates
    object_coords: np.ndarray
    action_ids: np.ndarray    # (B,) int
    object_ids: np.ndarray

    def __len__(self) -> int:
        return self.images.shape[0]

    def take(self, idx) -> "BatchTargets":
        return BatchTargets(*(getattr(self, f.name)[idx] for f in fields(BatchTargets)))

    @staticmethod
    def from_scenes(scenes, grid: GridSpec, labels: LabelSpec, cam: CameraIntrinsics,
                    images: np.ndarray) -> "BatchTargets":
        ts = [frame_targets(s, grid, labels, cam) for s in scenes]
        return BatchTargets(
            images=np.asarray(images, dtype=np.float64),
            hand_cells=np.array([t.hand_cell for t in ts], dtype=int),
            object_cells=np.array([t.object_cell for t in ts], dtype=int),
            hand_offsets=np.array([t.hand_offsets for t in ts]),
            object_offsets=np.array([t.object_offsets for t in ts]),
            hand_coords=np.array([t.hand_coords for t in ts]),
            object_coords=np.array([t.object_coords for t in ts]),
            action_ids=np.array([t.action_id for t in ts], dtype=int),
            object_ids=np.array([t.object_id for t in ts], dtype=int),
        )


def loss_graph(
    raw: ad.Tensor,
    targets: BatchTargets,
    weights: LossWeights,
    grid: GridSpec,
    labels: LabelSpec,
    conf_targets: str = "online",
) -> tuple[ad.Tensor, dict[str, float]]:
    """Mean per-frame multi-task loss over a batch, as an autodiff scalar.

    Returns (loss, parts) where parts holds the detached per-term means.
    """
    b = len(targets)
    expect = (b, grid.h, grid.w, grid.d, labels.cell_channels)
    if raw.shape != expect:
        raise ShapeMismatch(f"raw grid is {raw.shape}, expected {expect}")
    if conf_targets not in ("online", "fixed"):
        raise ConfigError(f"conf_targets must be 'online' or 'fixed', got {conf_targets!r}")
    n_c = labels.n_control
    bidx = np.arange(b)
    scale = 1.0 / b

    def slot_terms(cells, offsets, coords, class_ids, base, slot_len, role, n_classes):
        idx = (bidx, cells[:, 1], cells[:, 0], cells[:, 2])
        resp = raw[idx][:, base: base + slot_len]

        root = root_index(role, n_c)
        root_sl = slice(3 * root, 3 * root + 3)
        pose_root = ad.sigmoid(resp[:, root_sl]) - offsets[:, root, :]
        rest_target = np.delete(offsets.reshape(b, -1), np.r_[3 * root: 3 * root + 3], axis=1)
        if root == 0:
            rest = resp[:, 3: 3 * n_c]
        else:
            rest = resp[:, : 3 * root]
        pose_rest = rest - rest_target
        pose = ad.mul(pose_root, pose_root).sum() + ad.mul(pose_rest, pose_rest).sum()

        logp = ad.log_softmax(resp[:, 3 * n_c: 3 * n_c + n_classes], axis=-1)
        ce = -logp[(bidx, class_ids)].sum()

        conf_logit = raw[..., base + slot_len - 1]
        conf = ad.sigmoid(conf_logit)
        if conf_targets == "online":
            pred_w = codec.decode_offsets(resp.data[:, : 3 * n_c], role, n_c) + cells[:, None, :]
            resp_target = confidence_from_grid_coords(pred_w, coords, grid)
        else:
            resp_target = np.ones(b)
        tgt = np.zeros((b, grid.h, grid.w, grid.d))
        tgt[idx] = resp_target
        lam = np.full((b, grid.h, grid.w, grid.d), weights.conf_noobj)
        lam[idx] = weights.conf_obj
        dc = conf - ad.Tensor(tgt)
        conf_term = ad.mul(ad.mul(dc, dc), ad.Tensor(lam)).sum()
        return pose, ce, conf_term

    pose_h, ce_a, conf_h = slot_terms(
        targets.hand_cells, targets.hand_offsets, targets.hand_coords,
        targets.action_ids, 0, labels.hand_slot, HAND, labels.n_actions)
    pose_o, ce_o, conf_o = slot_terms(
        targets.object_cells, targets.object_offsets, targets.object_coords,
        targets.object_ids, labels.hand_slot, labels.object_slot, OBJECT, labels.n_objects)

    pose = ad.mul(pose_h + pose_o, weights.pose * scale)
    conf = ad.mul(conf_h + conf_o, scale)
    act = ad.mul(ce_a, weights.action_class * scale)
    obj = ad.mul(ce_o, weights.object_class * scale)
    total = pose + conf + act + obj

    if not np.isfinite(total.data):
        raise NonFiniteLoss(
            f"loss is not finite: pose={pose.data}, conf={conf.data}, "
            f"action={act.data}, object={obj.data}"
        )
    parts = {
        "pose": float(pose.data), "conf": float(conf.data),
        "action": float(act.data), "object": float(obj.data),
        "total": float(total.data),
    }
    return total, parts


def multitask_loss(
    params: ModelParams,
    targets: BatchTargets,
    weights: LossWeights,
    bb: BackboneConfig,
    grid: GridSpec,
    labels: LabelSpec,
    conf_targets: str = "online",
) -> tuple[float, dict[str, np.ndarray], dict[str, float]]:
    """Loss value, exact per-parameter gradients and loss parts for a batch."""
    return ad.value_and_grads(params.tensors, lambda pt: loss_graph(
        forward_graph(pt, targets.images, bb, grid, labels),
        targets, weights, grid, labels, conf_targets))


def grad_check(
    params: ModelParams,
    targets: BatchTargets,
    weights: LossWeights,
    bb: BackboneConfig,
    grid: GridSpec,
    labels: LabelSpec,
    eps: float = 1e-4,
    n_samples: int = 200,
    seed: int = 0,
    conf_targets: str = "fixed",
) -> float:
    """Max relative error of analytic vs central finite-difference gradients;
    entries whose two-sided interval flips a rectifier input are resampled.

    Online confidence targets are a function of the prediction that the
    loss deliberately treats as constant, so grad_check defaults to the
    fixed variant (the analytic gradient matches FD of either variant as
    long as both sides use the same convention; see loss_graph).
    """
    def value() -> tuple[float, list]:
        pt = wrap_params(params, requires_grad=False)
        signs: list = []
        raw = forward_graph(pt, targets.images, bb, grid, labels, preact_signs=signs)
        loss, _ = loss_graph(raw, targets, weights, grid, labels, conf_targets)
        return float(loss.data), signs

    _, grads, _ = multitask_loss(params, targets, weights, bb, grid, labels, conf_targets)
    return ad.grad_check(params.tensors, grads, value, eps, n_samples, seed)


def sgd_epoch(
    params: ModelParams,
    dataset: BatchTargets,
    lr: float,
    weights: LossWeights,
    bb: BackboneConfig,
    grid: GridSpec,
    labels: LabelSpec,
    rng: np.random.Generator,
    batch_size: int = 16,
    conf_targets: str = "online",
) -> float:
    """One epoch of minibatch SGD, mutating params in place; returns mean loss."""
    return ad.sgd_epoch(params.tensors, len(dataset), lambda idx: multitask_loss(
        params, dataset.take(idx), weights, bb, grid, labels, conf_targets)[:2],
        lr, rng, batch_size)


# ---------------------------------------------------------------------------
# Checkpoint container: one JSON header line followed by the raw
# little-endian float32 blobs of the named tensors in header order.

def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    header = dict(meta)
    header["format"] = CHECKPOINT_FORMAT
    header["tensors"] = [{"name": k, "shape": list(v.shape)} for k, v in tensors.items()]
    with open(path, "wb") as f:
        f.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for v in tensors.values():
            f.write(np.asarray(v, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; a malformed header or body raises ConfigError."""
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline().decode())
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"checkpoint header is not JSON: {e}") from e
        if not isinstance(header, dict):
            raise ConfigError("checkpoint header is not a JSON object")
        if header.get("format") != CHECKPOINT_FORMAT:
            raise ConfigError(f"unsupported checkpoint format {header.get('format')}")
        if not isinstance(header.get("tensors"), list):
            raise ConfigError("checkpoint header has no tensors list")
        tensors = {}
        for entry in header["tensors"]:
            try:
                name, shape = entry["name"], tuple(int(s) for s in entry["shape"])
            except (KeyError, TypeError, ValueError) as e:
                raise ConfigError(f"malformed checkpoint tensor entry {entry!r}") from e
            if any(d < 0 for d in shape):
                raise ConfigError(f"malformed checkpoint tensor entry {entry!r}: negative dimension")
            count = int(np.prod(shape)) if shape else 1
            buf = f.read(count * 4)
            if len(buf) != count * 4:
                raise ConfigError(f"checkpoint truncated at tensor {name}")
            tensors[name] = np.frombuffer(buf, dtype="<f4").reshape(shape).astype(np.float64)
    return tensors, header


def file_hash(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
