"""Convolutional backbone and multi-task grid loss, with their SGD training.

The backbone is a small strided conv stack with leaky-rectifier
activations and a final 1x1 projection: a single feed-forward pass maps
an image of grid.image_h x grid.image_w pixels to a raw output grid of
shape (h, w, d, hand_slot + object_slot), depth-major in the channel
dimension with the hand slot before the object slot.

The 1x1 head is a linear map of each cell's feature column, so it is
evaluated only where its output is read. Training (multitask_loss) and
inference (predict) take the 2·d confidence channels at every cell, and
all channels only at each frame's responsible cells (training) or most
confident cells (inference), never building the dense grid or its
gradient. forward_graph and forward evaluate the same head at every cell
for every channel; they are the dense form that tests and benchmark
probes read, and loss_graph is the loss of such a dense grid.

The loss combines, per frame:
  * squared coordinate error in grid units at the two responsible cells
    (sigmoid on the root channels, identity elsewhere),
  * squared confidence error at every cell, weighted conf_obj at
    responsible cells and conf_noobj elsewhere,
  * cross-entropy of the action / object class at the responsible cells.

Confidence targets are recomputed from the current predictions through
the distance law by default ("online"); "fixed" uses target 1 at the
responsible cells instead (every other cell's target is 0 in both).

BatchTargets holds a batch's images and its codec.FrameTargets in the
layout head_at_cells and decode_best use: responsible cells (B, 2, 3) and
grid coordinates (B, 2, 21, 3), hand in row 0 and object in row 1. The
loss derives the coordinate offsets from them; no offsets are stored.

Training uses the minibatch loop in autodiff.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from . import codec
from .codec import COORD_CHANNELS, LabelSpec, confidence_from_grid_coords, frame_targets
from .errors import ConfigError, NonFiniteLoss, ShapeMismatch
from .geometry import (HAND, IMAGE_CHANNELS, NUM_CONTROL_POINTS, OBJECT, CameraIntrinsics,
                       GridSpec, root_index)

CHECKPOINT_FORMAT = 1

Array = ad.Tensor | np.ndarray


@dataclass(frozen=True)
class BackboneConfig:
    """Conv stack layout; strides must multiply to the pixel cell size. The
    kernel size and rectifier slope are class constants the benchmark reads."""

    kernel: ClassVar[int] = 3
    leak: ClassVar[float] = 0.1   # autodiff.leaky_relu is max(x, leak·x)
    channels: tuple[int, ...] = (16, 32, 64, 64, 96)
    strides: tuple[int, ...] = (2, 2, 2, 1, 1)

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
    """Digest tying a parameter set to the config that shaped it. The literal
    3 is the input channel count, kept so that signatures stay as they were
    when it was a config field."""
    doc = {
        "backbone": [bb.channels, bb.strides, 3, bb.kernel, bb.leak],
        "grid": [grid.h, grid.w, grid.d],
        "labels": [NUM_CONTROL_POINTS, labels.n_actions, labels.n_objects],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


class ModelParams:
    """Named parameter tensors plus the signature of their config."""

    def __init__(self, tensors: dict[str, np.ndarray], signature: str):
        self.tensors = dict(tensors)   # autodiff computes in their dtype
        self.signature = signature

    def copy(self) -> "ModelParams":
        return ModelParams({k: v.copy() for k, v in self.tensors.items()}, self.signature)


def param_shapes(bb: BackboneConfig, grid: GridSpec, labels: LabelSpec) -> dict[str, tuple]:
    """The name and shape of every parameter tensor, in the order init_params draws them."""
    shapes: dict[str, tuple] = {}
    c_in = IMAGE_CHANNELS
    for i, c_out in enumerate(bb.channels):
        shapes[f"conv{i}.w"] = (c_out, c_in, bb.kernel, bb.kernel)
        shapes[f"conv{i}.b"] = (c_out,)
        c_in = c_out
    shapes["head.w"] = (output_channels(grid, labels), c_in, 1, 1)
    shapes["head.b"] = (output_channels(grid, labels),)
    return shapes


def init_params(bb: BackboneConfig, grid: GridSpec, labels: LabelSpec, seed: int) -> ModelParams:
    """Fan-in scaled uniform init in COMPUTE_DTYPE, fully determined by the seed:
    each weight and then its bias, drawn within 1/sqrt of the weight's fan-in."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x6e65)))
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(bb, grid, labels).items():
        if name.endswith(".w"):
            s = 1.0 / np.sqrt(math.prod(shape[1:]))
        tensors[name] = rng.uniform(-s, s, size=shape)
    return ModelParams({k: v.astype(ad.COMPUTE_DTYPE) for k, v in tensors.items()},
                       model_signature(bb, grid, labels))


def wrap_params(params: ModelParams, requires_grad: bool = True) -> dict[str, ad.Tensor]:
    return ad.wrap(params.tensors, requires_grad)


def _check_image_shape(images: np.ndarray, bb: BackboneConfig, grid: GridSpec) -> None:
    if images.ndim != 4 or images.shape[1] != IMAGE_CHANNELS:
        raise ShapeMismatch(f"images must be (B, {IMAGE_CHANNELS}, H, W), got {images.shape}")
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


def features_graph(
    ptensors: dict[str, ad.Tensor],
    images: np.ndarray,
    bb: BackboneConfig,
    grid: GridSpec,
) -> ad.Tensor:
    """Differentiable conv stack: (B, C, H, W) image -> leaky-ReLU features (B, F, h, w)."""
    images = np.asarray(images, dtype=ptensors["conv0.w"].data.dtype)
    _check_image_shape(images, bb, grid)
    x = ad.Tensor(images)
    pad = bb.kernel // 2
    for i, stride in enumerate(bb.strides):
        x = ad.conv2d(x, ptensors[f"conv{i}.w"], ptensors[f"conv{i}.b"],
                      stride=stride, padding=pad)
        x = ad.leaky_relu(x, bb.leak)
    return x


def feature_columns(x: Array) -> Array:
    """(B, F, h, w) features as the (F, h·w·B) matrix the head maps column
    by column: column (v·w + u)·B + i is cell (u, v) of frame i. conv2d
    keeps its output in (F, h, w, B) memory, so this is a view, not a copy.

    Like the head functions below, it takes autodiff tensors (training and
    the dense forward) or plain arrays (predict): both support the same
    operators, so the head has one definition and inference builds no graph.
    """
    b, f, h, w = x.shape
    return x.transpose(1, 2, 3, 0).reshape(f, h * w * b)


def _head(params: dict[str, Array], cols: Array, rows=None) -> Array:
    """The 1x1 head as a linear map of feature columns: (F, N) -> (rows, N),
    all d·slots output channels or only the channel indices in rows."""
    w, b = params["head.w"], params["head.b"]
    w = w.reshape(b.shape[0], w.shape[1])
    if rows is not None:
        w, b = w[rows], b[rows]
    return w @ cols + b.reshape(-1, 1)


def confidence_logits(params: dict[str, Array], cols: Array,
                      grid: GridSpec, labels: LabelSpec) -> Array:
    """Hand and object confidence logits of every cell, (B, h, w, d, 2):
    the 2·d confidence channels of the head over every feature column."""
    c = labels.cell_channels
    rows = (np.array([[labels.hand_slot - 1], [c - 1]]) + c * np.arange(grid.d)).ravel()
    b = cols.shape[1] // (grid.h * grid.w)
    out = _head(params, cols, rows).reshape(2, grid.d, grid.h, grid.w, b)
    return out.transpose(4, 2, 3, 1, 0)


def head_at_cells(params: dict[str, Array], cols: Array, cells: np.ndarray,
                  grid: GridSpec, labels: LabelSpec) -> Array:
    """All raw channels of k cells per frame, (B, k, hand_slot + object_slot).

    cells is a (B, k, 3) int array of (u, v, z). The head runs on the B·k
    feature columns of those cells only, for all d depths; the depth z of
    each cell is then picked from the result.
    """
    b, k = cells.shape[:2]
    u, v, z = np.moveaxis(cells, -1, 0)
    frames = np.arange(b)[:, None]
    at = _head(params, cols[:, ((v * grid.w + u) * b + frames).ravel()])   # (d·slots, B·k)
    at = at.transpose(1, 0).reshape(b, k, grid.d, labels.cell_channels)
    return at[frames, np.arange(k), z]


def forward_graph(
    ptensors: dict[str, ad.Tensor],
    images: np.ndarray,
    bb: BackboneConfig,
    grid: GridSpec,
    labels: LabelSpec,
) -> ad.Tensor:
    """Differentiable dense forward pass: (B, C, H, W) image -> (B, h, w, d, slots).

    The same features and head as training and inference, with the head
    evaluated for every channel at every cell.
    """
    cols = feature_columns(features_graph(ptensors, images, bb, grid))
    b = cols.shape[1] // (grid.h * grid.w)
    out = _head(ptensors, cols).reshape(output_channels(grid, labels), grid.h, grid.w, b)
    return out.transpose(3, 1, 2, 0).reshape(b, grid.h, grid.w, grid.d, labels.cell_channels)


def forward(
    params: ModelParams,
    images: np.ndarray,
    bb: BackboneConfig,
    grid: GridSpec,
    labels: LabelSpec,
) -> np.ndarray:
    """Dense inference pass; returns the raw output grid as a plain array."""
    return forward_graph(wrap_params(params, requires_grad=False),
                         images, bb, grid, labels).data


def predict(params: ModelParams, images: np.ndarray, bb: BackboneConfig, grid: GridSpec,
            labels: LabelSpec, cam: CameraIntrinsics) -> codec.FramePrediction:
    """Best hand and object slot of each image, as one record (codec.decode_best).

    The head gives the confidence channels at every cell, then the full
    cell channels only at each frame's winning hand and object cell.
    """
    feats = features_graph(wrap_params(params, requires_grad=False), images, bb, grid)
    cols = feature_columns(feats.data)
    return codec.decode_best(
        confidence_logits(params.tensors, cols, grid, labels),
        lambda cells: head_at_cells(params.tensors, cols, cells, grid, labels),
        grid, labels, cam)


@dataclass(frozen=True, eq=False)
class BatchTargets(codec.FrameTargets):
    """A batch's images and the codec.FrameTargets of its frames, leading
    axis B (indexable, concatenable)."""

    images: np.ndarray        # (B, C, H, W)

    def __len__(self) -> int:
        return self.images.shape[0]

    def take(self, idx) -> "BatchTargets":
        return BatchTargets(*(getattr(self, f.name)[idx] for f in fields(BatchTargets)))

    @staticmethod
    def from_scenes(scenes, grid: GridSpec, labels: LabelSpec, cam: CameraIntrinsics,
                    images: np.ndarray) -> "BatchTargets":
        """Targets of a list of scenes, from one frame_targets call on their stack."""
        stack = SimpleNamespace(**{k: np.array([getattr(s, k) for s in scenes]) for k in (
            "hand_points", "object_points", "action_id", "object_id")})
        t = frame_targets(stack, grid, labels, cam)
        return BatchTargets(images=np.asarray(images, dtype=ad.COMPUTE_DTYPE), **vars(t))


def _loss_terms(
    conf_logits: ad.Tensor,
    hand_raw: ad.Tensor,
    obj_raw: ad.Tensor,
    targets: BatchTargets,
    weights: LossWeights,
    grid: GridSpec,
    conf_targets: str,
) -> tuple[ad.Tensor, dict[str, float]]:
    """The loss from what it reads of the raw grid: the (B, h, w, d, 2) hand
    and object confidence logits of every cell, and the raw hand slot
    (B, hand_slot) and object slot (B, object_slot) at the responsible cells."""
    if conf_targets not in ("online", "fixed"):
        raise ConfigError(f"conf_targets must be 'online' or 'fixed', got {conf_targets!r}")
    b = len(targets)
    bidx = np.arange(b)
    scale = 1.0 / b
    tgt = np.zeros(conf_logits.shape, conf_logits.data.dtype)
    lam = np.full(conf_logits.shape, weights.conf_noobj, conf_logits.data.dtype)
    offsets = targets.coords - targets.cells[..., None, :]   # (B, 2, 21, 3) from the cell corner

    def slot_terms(r, role, resp, class_ids):
        cells, root = targets.cells[:, r], root_index(role)
        root_sl = slice(3 * root, 3 * root + 3)
        pose_root = ad.sigmoid(resp[:, root_sl]) - offsets[:, r, root, :]
        rest_target = np.delete(offsets[:, r].reshape(b, -1), np.r_[root_sl], axis=1)
        if root == 0:
            rest = resp[:, 3:COORD_CHANNELS]
        else:
            rest = resp[:, : 3 * root]
        pose_rest = rest - rest_target
        pose = ad.mul(pose_root, pose_root).sum() + ad.mul(pose_rest, pose_rest).sum()

        logp = ad.log_softmax(resp[:, COORD_CHANNELS: -1], axis=-1)
        ce = -logp[(bidx, class_ids)].sum()

        if conf_targets == "online":
            pred_w = codec.decode_offsets(resp.data[:, :COORD_CHANNELS], role) + cells[:, None, :]
            resp_target = confidence_from_grid_coords(pred_w, targets.coords[:, r], grid)
        else:
            resp_target = np.ones(b)
        idx = (bidx, cells[:, 1], cells[:, 0], cells[:, 2], r)
        tgt[idx] = resp_target
        lam[idx] = weights.conf_obj
        return pose, ce

    pose_h, ce_a = slot_terms(0, HAND, hand_raw, targets.action_id)
    pose_o, ce_o = slot_terms(1, OBJECT, obj_raw, targets.object_id)
    dc = ad.sigmoid(conf_logits) - ad.Tensor(tgt)

    pose = ad.mul(pose_h + pose_o, weights.pose * scale)
    conf = ad.mul(ad.mul(ad.mul(dc, dc), ad.Tensor(lam)).sum(), scale)
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


def loss_graph(
    raw: ad.Tensor,
    targets: BatchTargets,
    weights: LossWeights,
    grid: GridSpec,
    labels: LabelSpec,
    conf_targets: str = "online",
) -> tuple[ad.Tensor, dict[str, float]]:
    """Mean per-frame multi-task loss of a dense raw grid, as an autodiff scalar.

    Reads the confidence channels and the responsible slots out of raw and
    feeds them to the loss terms that multitask_loss uses. Returns
    (loss, parts) where parts holds the detached per-term means.
    """
    b = len(targets)
    expect = (b, grid.h, grid.w, grid.d, labels.cell_channels)
    if raw.shape != expect:
        raise ShapeMismatch(f"raw grid is {raw.shape}, expected {expect}")
    bidx = np.arange(b)

    def at(cells):
        return raw[(bidx, cells[:, 1], cells[:, 0], cells[:, 2])]

    conf = raw[..., np.array([labels.hand_slot - 1, labels.cell_channels - 1])]
    return _loss_terms(conf, at(targets.cells[:, 0])[:, : labels.hand_slot],
                       at(targets.cells[:, 1])[:, labels.hand_slot:],
                       targets, weights, grid, conf_targets)


def multitask_loss(
    params: ModelParams,
    targets: BatchTargets,
    weights: LossWeights,
    bb: BackboneConfig,
    grid: GridSpec,
    labels: LabelSpec,
    conf_targets: str = "online",
) -> tuple[float, dict[str, np.ndarray], dict[str, float]]:
    """Loss value, exact per-parameter gradients and loss parts for a batch.

    The value and gradients of loss_graph(forward_graph(...)), with the head
    evaluated only where the loss reads it: the confidence channels at every
    cell, the full cell channels at the responsible cells.
    """
    def loss(pt):
        cols = feature_columns(features_graph(pt, targets.images, bb, grid))
        at = head_at_cells(pt, cols, targets.cells, grid, labels)
        return _loss_terms(confidence_logits(pt, cols, grid, labels),
                           at[:, 0, : labels.hand_slot], at[:, 1, labels.hand_slot:],
                           targets, weights, grid, conf_targets)

    return ad.value_and_grads(params.tensors, loss)


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
    """Read a checkpoint as writable COMPUTE_DTYPE arrays; a malformed header
    or body, a non-finite tensor or bytes after the last tensor raise ConfigError.
    The header's shapes are checked against the file's size before any tensor is read."""
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
        shapes, left = {}, os.fstat(f.fileno()).st_size - f.tell()
        for entry in header["tensors"]:
            try:
                name, shape = entry["name"], tuple(int(s) for s in entry["shape"])
            except (KeyError, TypeError, ValueError) as e:
                raise ConfigError(f"malformed checkpoint tensor entry {entry!r}") from e
            if any(d < 0 for d in shape):
                raise ConfigError(f"malformed checkpoint tensor entry {entry!r}: negative dimension")
            if name in shapes:
                raise ConfigError(f"checkpoint lists tensor {name} twice")
            left -= 4 * math.prod(shape)   # a Python int: no shape overflows it
            if left < 0:
                raise ConfigError(f"checkpoint truncated at tensor {name}")
            shapes[name] = shape
        if left:
            raise ConfigError("checkpoint has bytes after its last tensor")
        tensors = {}
        for name, shape in shapes.items():
            buf = f.read(4 * math.prod(shape))
            tensors[name] = np.frombuffer(buf, "<f4").reshape(shape).astype(ad.COMPUTE_DTYPE)
            if not np.all(np.isfinite(tensors[name])):
                raise ConfigError(f"checkpoint tensor {name} holds non-finite values")
    return tensors, header


def file_hash(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
