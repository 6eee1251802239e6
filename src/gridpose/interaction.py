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

Per-frame inputs are camera-frame meters, by default centered on the
hand root so the classifier sees relative geometry, optionally extended
with the per-frame action/object class probabilities.

Training uses the minibatch loop and the gradient checker in autodiff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .codec import COORD_CHANNELS, FramePrediction, softmax
from .errors import ConfigError, EmptySequence, NonFiniteLoss, WidthMismatch
from .geometry import HAND, HAND_PARTS, NUM_CONTROL_POINTS, root_index


@dataclass(frozen=True)
class InteractionConfig:
    n_classes: int
    feature_width: int = 512
    lstm_width: int = 512
    lstm_layers: int = 2
    include_class_probs: bool = False
    n_actions: int = 0
    n_objects: int = 0
    root_relative: bool = True
    use_pair_map: bool = True
    input_scale: float = 10.0

    def __post_init__(self):
        if self.n_classes < 1:
            raise ConfigError("class count must be >= 1")
        if self.lstm_layers < 1 or self.lstm_width < 1 or self.feature_width < 1:
            raise ConfigError("widths and layer counts must be >= 1")
        if self.include_class_probs and (self.n_actions < 1 or self.n_objects < 1):
            raise ConfigError("class-prob features need n_actions and n_objects")

    @property
    def input_width(self) -> int:
        width = 2 * COORD_CHANNELS
        if self.include_class_probs:
            width += self.n_actions + self.n_objects
        return width

    @property
    def rnn_input_width(self) -> int:
        return self.feature_width if self.use_pair_map else self.input_width


class InteractionModel:
    """Named parameters of the interaction map + LSTM + output head."""

    def __init__(self, cfg: InteractionConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}


def init_interaction(cfg: InteractionConfig, seed: int) -> InteractionModel:
    """Fan-in scaled uniform init; LSTM forget-gate biases start at 1."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x17a)))
    p: dict[str, np.ndarray] = {}

    def uniform(fan_in, shape):
        s = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-s, s, size=shape)

    if cfg.use_pair_map:
        p["g.w1"] = uniform(cfg.input_width, (cfg.input_width, cfg.feature_width))
        p["g.b1"] = np.zeros(cfg.feature_width)
        p["g.w2"] = uniform(cfg.feature_width, (cfg.feature_width, cfg.feature_width))
        p["g.b2"] = np.zeros(cfg.feature_width)
    width_in = cfg.rnn_input_width
    for layer in range(cfg.lstm_layers):
        h = cfg.lstm_width
        p[f"lstm{layer}.wx"] = uniform(width_in, (width_in, 4 * h))
        p[f"lstm{layer}.wh"] = uniform(h, (h, 4 * h))
        bias = np.zeros(4 * h)
        bias[h: 2 * h] = 1.0
        p[f"lstm{layer}.b"] = bias
        width_in = h
    p["out.w"] = uniform(cfg.lstm_width, (cfg.lstm_width, cfg.n_classes))
    p["out.b"] = np.zeros(cfg.n_classes)
    return InteractionModel(cfg, p)


def frame_input(
    cfg: InteractionConfig,
    hand_points: np.ndarray,
    object_points: np.ndarray,
    action_probs: np.ndarray | None = None,
    object_probs: np.ndarray | None = None,
) -> np.ndarray:
    """Flatten one frame's predictions into the classifier's input layout."""
    hand = np.asarray(hand_points, dtype=float).reshape(NUM_CONTROL_POINTS, 3)
    obj = np.asarray(object_points, dtype=float).reshape(NUM_CONTROL_POINTS, 3)
    root = hand[root_index(HAND)].copy() if cfg.root_relative else np.zeros(3)
    parts = [(hand - root).ravel() * cfg.input_scale, (obj - root).ravel() * cfg.input_scale]
    if cfg.include_class_probs:
        if action_probs is None or object_probs is None:
            raise WidthMismatch("config includes class probabilities but none were given")
        if len(action_probs) != cfg.n_actions or len(object_probs) != cfg.n_objects:
            raise WidthMismatch("class probability widths disagree with the config")
        parts.append(np.asarray(action_probs, dtype=float))
        parts.append(np.asarray(object_probs, dtype=float))
    return np.concatenate(parts)


def sequence_inputs(cfg: InteractionConfig, preds: list[FramePrediction]) -> np.ndarray:
    """(T, input_width) array from pruned per-frame predictions."""
    return np.stack([
        frame_input(cfg, p.hand_points, p.object_points, p.action_probs, p.object_probs)
        for p in preds
    ])


def _features_graph(pt: dict[str, ad.Tensor], x: ad.Tensor) -> ad.Tensor:
    hidden = ad.relu(x @ pt["g.w1"] + pt["g.b1"])
    return hidden @ pt["g.w2"] + pt["g.b2"]


def logits_graph(pt: dict[str, ad.Tensor], cfg: InteractionConfig,
                 batch: np.ndarray) -> ad.Tensor:
    """(B, T, input_width) constant batch -> (B, n_classes) logits."""
    batch = np.asarray(batch, dtype=np.float64)
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


def classify_sequence(model: InteractionModel, seq) -> np.ndarray:
    """Probability vector over interaction classes for one sequence.

    Accepts a list of FramePredictions or a precomputed (T, input_width)
    array. Raises EmptySequence on zero frames.
    """
    if isinstance(seq, np.ndarray):
        inputs = seq
    else:
        if len(seq) == 0:
            raise EmptySequence("cannot classify an empty sequence")
        inputs = sequence_inputs(model.cfg, seq)
    if inputs.shape[0] == 0:
        raise EmptySequence("cannot classify an empty sequence")
    pt = ad.wrap(model.params, requires_grad=False)
    logits = logits_graph(pt, model.cfg, inputs[None, ...])
    return softmax(logits.data[0])


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


def grad_check_sequences(model: InteractionModel, batch: np.ndarray,
                         labels: np.ndarray, eps: float = 1e-5,
                         n_samples: int = 150, seed: int = 0) -> float:
    """Analytic vs central-FD gradients through the map and the LSTM."""
    def value() -> tuple[float, list]:
        pt = ad.wrap(model.params, requires_grad=False)
        return float(_loss_graph(pt, model.cfg, batch, labels).data), []

    _, grads = sequence_loss(model, batch, labels)
    return ad.grad_check(model.params, grads, value, eps, n_samples, seed)


def weight_importance(model: InteractionModel) -> tuple[np.ndarray, dict[str, float]]:
    """Per-joint share of first-layer weight mass tied to hand-joint inputs.

    Sums absolute weights over each joint's three coordinate columns of the
    first trainable layer (the interaction map's first affine, or the
    recurrent input matrix for the plain baseline), normalized to sum 1
    across the 21 joints. Also aggregates by hand part.
    """
    cfg = model.cfg
    matrix = model.params["g.w1"] if cfg.use_pair_map else model.params["lstm0.wx"]
    per_joint = np.abs(matrix[:COORD_CHANNELS]).sum(axis=1)
    per_joint = per_joint.reshape(NUM_CONTROL_POINTS, 3).sum(axis=1)
    total = per_joint.sum()
    if total > 0:
        per_joint = per_joint / total
    parts = {name: float(per_joint[list(idx)].sum()) for name, idx in HAND_PARTS.items()}
    return per_joint, parts
