"""Temporal interaction classifier over per-frame pose predictions.

The classifier is a composition: an affine-rectifier-affine map first
mixes the hand and object control points of one frame into a feature
vector (the interaction map), then a 2-layer LSTM consumes the per-frame
features and the final hidden state feeds an affine + softmax over
interaction classes. Disabling the interaction map yields the plain
recurrent baseline that consumes pose vectors directly.

The map runs once over all B·T frames of a batch, and each LSTM layer is
one autodiff node over the whole sequence (autodiff.lstm), not a graph
built step by step.

Each frame's input (pose_rows) is its hand and object control points,
relative to the hand root so the classifier sees relative geometry, times
INPUT_SCALE. There is no option to add stage 1's class probabilities.

Training runs the minibatch loop in autodiff (sgd_epoch), which both stages
share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .codec import COORD_CHANNELS, FramePrediction, softmax
from .errors import ConfigError, EmptySequence, NonFiniteLoss, WidthMismatch
from .geometry import HAND, HAND_PARTS, NUM_CONTROL_POINTS, root_index

# metres to decimetres: desk-scale offsets from the hand root land near unit scale
INPUT_SCALE = 10.0


@dataclass(frozen=True)
class InteractionConfig:
    lstm_layers: ClassVar[int] = 2
    n_classes: int
    feature_width: int = 512
    lstm_width: int = 512
    use_pair_map: bool = True

    def __post_init__(self):
        if self.n_classes < 1:
            raise ConfigError("class count must be >= 1")
        if self.lstm_width < 1 or self.feature_width < 1:
            raise ConfigError("widths must be >= 1")

    @property
    def input_width(self) -> int:
        return 2 * COORD_CHANNELS

    @property
    def rnn_input_width(self) -> int:
        return self.feature_width if self.use_pair_map else self.input_width


class InteractionModel:
    """Named parameters of the interaction map + LSTM + output head."""

    def __init__(self, cfg: InteractionConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = dict(params)   # autodiff computes in their dtype


def param_shapes(cfg: InteractionConfig) -> dict[str, tuple]:
    """The name and shape of every parameter, in the order init_interaction makes them."""
    shapes: dict[str, tuple] = {}
    if cfg.use_pair_map:
        shapes["g.w1"] = (cfg.input_width, cfg.feature_width)
        shapes["g.b1"] = (cfg.feature_width,)
        shapes["g.w2"] = (cfg.feature_width, cfg.feature_width)
        shapes["g.b2"] = (cfg.feature_width,)
    width_in = cfg.rnn_input_width
    for layer in range(cfg.lstm_layers):
        h = cfg.lstm_width
        shapes[f"lstm{layer}.wx"] = (width_in, 4 * h)
        shapes[f"lstm{layer}.wh"] = (h, 4 * h)
        shapes[f"lstm{layer}.b"] = (4 * h,)
        width_in = h
    shapes["out.w"] = (cfg.lstm_width, cfg.n_classes)
    shapes["out.b"] = (cfg.n_classes,)
    return shapes


def init_interaction(cfg: InteractionConfig, seed: int) -> InteractionModel:
    """Fan-in scaled uniform init in COMPUTE_DTYPE: a (fan-in, fan-out) weight
    is drawn within 1/sqrt(fan-in) in the order of param_shapes, and a bias
    starts at 0, except the LSTM forget-gate block, which starts at 1."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x17a)))
    p: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 2:
            s = 1.0 / np.sqrt(shape[0])
            p[name] = rng.uniform(-s, s, size=shape)
        else:
            p[name] = np.zeros(shape)
            if name.startswith("lstm"):
                p[name][cfg.lstm_width: 2 * cfg.lstm_width] = 1.0
    return InteractionModel(cfg, {k: v.astype(ad.COMPUTE_DTYPE) for k, v in p.items()})


def pose_rows(hand_points, object_points) -> np.ndarray:
    """(..., input_width) inputs of (..., NUM_CONTROL_POINTS, 3) hand and
    object points: hand, then object points, relative to the hand root,
    times INPUT_SCALE. The layout is the same for every config."""
    points = np.concatenate([hand_points, object_points], axis=-2, dtype=float)
    rows = (points - points[..., root_index(HAND), None, :]) * INPUT_SCALE
    return rows.reshape(*rows.shape[:-2], 2 * COORD_CHANNELS)


def _features_graph(pt: dict[str, ad.Tensor], x: ad.Tensor) -> ad.Tensor:
    hidden = ad.relu(x @ pt["g.w1"] + pt["g.b1"])
    return hidden @ pt["g.w2"] + pt["g.b2"]


def logits_graph(pt: dict[str, ad.Tensor], cfg: InteractionConfig,
                 batch: np.ndarray) -> ad.Tensor:
    """(B, T, input_width) constant batch -> (B, n_classes) logits, in the parameters' dtype."""
    batch = np.asarray(batch, dtype=pt["out.w"].data.dtype)
    if batch.ndim != 3 or batch.shape[2] != cfg.input_width:
        raise WidthMismatch(
            f"sequence batch must be (B, T, {cfg.input_width}), got {batch.shape}"
        )
    b, t, _ = batch.shape
    if t < 1:
        raise EmptySequence("cannot classify an empty sequence")
    if cfg.use_pair_map:
        frames = ad.Tensor(batch.reshape(b * t, cfg.input_width))
        x = _features_graph(pt, frames).reshape(b, t, cfg.feature_width)
    else:
        x = ad.Tensor(batch)
    for layer in range(cfg.lstm_layers):
        x = ad.lstm(x, pt[f"lstm{layer}.wx"], pt[f"lstm{layer}.wh"], pt[f"lstm{layer}.b"])
    # the last hidden state of the top layer feeds the classifier
    return x[:, -1] @ pt["out.w"] + pt["out.b"]


def classify_sequence(model: InteractionModel, inputs: np.ndarray) -> np.ndarray:
    """Probability vector over interaction classes for one (T, input_width)
    sequence of pose_rows; zero frames raise EmptySequence (from logits_graph)."""
    pt = ad.wrap(model.params, requires_grad=False)
    logits = logits_graph(pt, model.cfg, inputs[None, ...])
    return softmax(logits.data[0])


def sequence_inputs(cfg: InteractionConfig, preds: list[FramePrediction]) -> np.ndarray:
    """(T, input_width) pose_rows of a list of T one-frame predictions; cfg is not read."""
    return pose_rows(*np.reshape([(p.hand_points, p.object_points) for p in preds],
                                 (-1, 2, NUM_CONTROL_POINTS, 3)).swapaxes(0, 1))


def _loss_graph(pt: dict[str, ad.Tensor], cfg: InteractionConfig, batch: np.ndarray,
                labels: np.ndarray) -> ad.Tensor:
    logp = ad.log_softmax(logits_graph(pt, cfg, batch), axis=-1)
    picked = logp[(np.arange(len(labels)), np.asarray(labels, dtype=int))]
    loss = ad.mul(picked.sum(), -1.0 / len(labels))
    if not np.isfinite(loss.data):
        raise NonFiniteLoss(f"sequence loss is not finite: {loss.data}")
    return loss


def sequence_loss(model: InteractionModel, batch: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over a batch of equal-length sequences, and its grads."""
    value, grads, _ = ad.value_and_grads(
        model.params, lambda pt: (_loss_graph(pt, model.cfg, batch, labels), None))
    return value, grads


def sgd_epoch_sequences(model: InteractionModel, inputs: np.ndarray,
                        labels: np.ndarray, lr: float,
                        rng: np.random.Generator, batch_size: int = 16) -> float:
    """One SGD epoch over (N, T, input_width) sequences; returns mean loss."""
    return ad.sgd_epoch(model.params, inputs.shape[0],
                        lambda idx: sequence_loss(model, inputs[idx], labels[idx]),
                        lr, rng, batch_size)


def weight_importance(model: InteractionModel) -> tuple[np.ndarray, dict[str, float]]:
    """Per-joint share of first-layer weight mass tied to hand-joint inputs.

    Sums absolute weights over each joint's three coordinate columns of the
    first trainable layer (the interaction map's first affine, or the
    recurrent input matrix for the plain baseline), normalized to sum 1
    across the 21 joints. Also aggregates by hand part.
    """
    cfg = model.cfg
    matrix = model.params["g.w1"] if cfg.use_pair_map else model.params["lstm0.wx"]
    per_joint = np.abs(matrix[:COORD_CHANNELS], dtype=float).sum(axis=1)
    per_joint = per_joint.reshape(NUM_CONTROL_POINTS, 3).sum(axis=1)
    total = per_joint.sum()
    if total > 0:
        per_joint = per_joint / total
    parts = {name: float(per_joint[list(idx)].sum()) for name, idx in HAND_PARTS.items()}
    return per_joint, parts
