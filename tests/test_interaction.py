"""Interaction features, sequence classification and weight importance."""

import tracemalloc
import warnings

import numpy as np
import pytest

from gridpose import autodiff as ad
from gridpose import codec
from gridpose import interaction as ia
from gridpose.errors import ConfigError, EmptySequence, NonFiniteLoss, WidthMismatch
from gridpose.geometry import HAND_PARTS

from conftest import float64, grad_check, tanh


CFG = ia.InteractionConfig(n_classes=6, feature_width=24, lstm_width=16)
BASELINE = ia.InteractionConfig(n_classes=6, feature_width=24, lstm_width=16,
                                use_pair_map=False)


# -- reference: the LSTM composed step by step from elementwise graph ops ------

def lstm_step(pt, layer: int, x, h, c, width: int):
    gates = x @ pt[f"lstm{layer}.wx"] + h @ pt[f"lstm{layer}.wh"] + pt[f"lstm{layer}.b"]
    i = ad.sigmoid(gates[:, 0 * width: 1 * width])
    f = ad.sigmoid(gates[:, 1 * width: 2 * width])
    g = tanh(gates[:, 2 * width: 3 * width])
    o = ad.sigmoid(gates[:, 3 * width: 4 * width])
    c_new = ad.mul(f, c) + ad.mul(i, g)
    h_new = ad.mul(o, tanh(c_new))
    return h_new, c_new


def stepwise_lstm(pt, layers: int, steps):
    """Top-layer hidden states, one (B, h) Tensor per (B, in) input step."""
    n = steps[0].shape[0]
    width = pt["lstm0.wh"].shape[0]
    hs = [ad.Tensor(np.zeros((n, width))) for _ in range(layers)]
    cs = [ad.Tensor(np.zeros((n, width))) for _ in range(layers)]
    top = []
    for x in steps:
        for layer in range(layers):
            hs[layer], cs[layer] = lstm_step(pt, layer, x, hs[layer], cs[layer], width)
            x = hs[layer]
        top.append(x)
    return top


def stepwise_logits(pt, cfg, batch):
    steps = [ad.Tensor(batch[:, s]) for s in range(batch.shape[1])]
    if cfg.use_pair_map:
        steps = [ia._features_graph(pt, x) for x in steps]
    top = stepwise_lstm(pt, cfg.lstm_layers, steps)
    return top[-1] @ pt["out.w"] + pt["out.b"]


def stepwise_loss(model, batch, labels):
    """sequence_loss through the stepwise graph: (loss, grads)."""
    pt = {k: ad.Tensor(v, requires_grad=True) for k, v in model.params.items()}
    logp = ad.log_softmax(stepwise_logits(pt, model.cfg, batch), axis=-1)
    loss = ad.mul(logp[(np.arange(len(labels)), labels)].sum(), -1.0 / len(labels))
    loss.backward()
    return float(loss.data), {k: t.grad for k, t in pt.items()}


def grad_check_sequences(model, batch, labels, eps=1e-5, n_samples=150, seed=0):
    """Analytic vs central-FD gradients of sequence_loss through the map and the LSTM."""
    def value():
        pt = ad.wrap(model.params, requires_grad=False)
        return float(ia._loss_graph(pt, model.cfg, batch, labels).data), []

    _, grads = ia.sequence_loss(model, batch, labels)
    return grad_check(model.params, grads, value, eps, n_samples, seed)


def assert_close(actual, expected, name):
    np.testing.assert_allclose(actual, expected, rtol=1e-10,
                               atol=1e-13 * np.abs(expected).max(), err_msg=name)


def rnd_points(rng, n=21):
    return rng.normal(scale=0.1, size=(n, 3))


def frame_input(hand_points, object_points):
    """Per-frame oracle of the classifier's input layout: the hand's and then
    the object's points, relative to the hand root (joint 0), times INPUT_SCALE."""
    hand = np.asarray(hand_points, dtype=float).reshape(21, 3)
    obj = np.asarray(object_points, dtype=float).reshape(21, 3)
    return np.concatenate([((hand - hand[0]) * ia.INPUT_SCALE).ravel(),
                           ((obj - hand[0]) * ia.INPUT_SCALE).ravel()])



def init_drawn_block_by_block(cfg, seed):
    """init_interaction as it drew before param_shapes: the pair map, then
    each LSTM layer, then the output head."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x17a)))
    p = {}

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
        p[f"lstm{layer}.b"] = np.zeros(4 * h)
        p[f"lstm{layer}.b"][h: 2 * h] = 1.0
        width_in = h
    p["out.w"] = uniform(cfg.lstm_width, (cfg.lstm_width, cfg.n_classes))
    p["out.b"] = np.zeros(cfg.n_classes)
    return {k: v.astype(ad.COMPUTE_DTYPE) for k, v in p.items()}


@pytest.mark.parametrize("cfg,layers", [(CFG, 2), (BASELINE, 2),
                                        (ia.InteractionConfig(5, 7, 9), 3)],
                         ids=["pair-map", "baseline", "three-layers"])
def test_init_draws_the_shapes_in_order_with_the_same_bits(cfg, layers, monkeypatch):
    # the LSTM depth is a class constant; the draw order must hold at any depth
    monkeypatch.setattr(ia.InteractionConfig, "lstm_layers", layers)
    model = ia.init_interaction(cfg, 4)
    want = init_drawn_block_by_block(cfg, 4)
    assert list(model.params) == list(want) == list(ia.param_shapes(cfg))
    for name, shape in ia.param_shapes(cfg).items():
        assert model.params[name].shape == shape
        assert model.params[name].tobytes() == want[name].tobytes()


class TestFrameInput:
    def test_width(self):
        rng = np.random.default_rng(0)
        x = frame_input(rnd_points(rng), rnd_points(rng))
        assert x.shape == (CFG.input_width,) == (126,)

    def test_root_relative_centering(self):
        rng = np.random.default_rng(1)
        hand, obj = rnd_points(rng), rnd_points(rng)
        a = frame_input(hand, obj)
        b = frame_input(hand + 5.0, obj + 5.0)
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert np.all(a[:3] == 0.0)


class TestSequenceInputs:
    def test_rows_are_frame_inputs_to_the_bit(self):
        rng = np.random.default_rng(5)
        preds = [codec.FramePrediction(
            hand_points=rnd_points(rng), hand_confidence=0.9,
            action_probs=rng.dirichlet(np.ones(4)), hand_cell=(0, 0, 0),
            object_points=rnd_points(rng), object_confidence=0.8,
            object_probs=rng.dirichlet(np.ones(3)), object_cell=(1, 1, 0))
            for _ in range(7)]
        got = ia.sequence_inputs(CFG, preds)
        want = np.stack([frame_input(p.hand_points, p.object_points) for p in preds])
        assert got.shape == (7, CFG.input_width)
        assert np.array_equal(got, want)

    def test_pose_rows_of_a_stack_are_frame_inputs_to_the_bit(self):
        rng = np.random.default_rng(6)
        hand, obj = rng.normal(size=(2, 3, 5, 21, 3))
        got = ia.pose_rows(hand, obj)
        assert got.shape == (3, 5, CFG.input_width)
        for i, t in np.ndindex(3, 5):
            assert np.array_equal(got[i, t], frame_input(hand[i, t], obj[i, t]))


def features(model, hand, obj):
    """The interaction map of one frame's input, as the classifier applies it."""
    x = frame_input(hand, obj)[None, :]
    pt = ad.wrap(model.params, requires_grad=False)
    return ia._features_graph(pt, ad.Tensor(x)).data[0]


class TestFeatures:
    def test_zero_inputs_zero_params_give_zero(self):
        model = ia.init_interaction(CFG, seed=0)
        for k in model.params:
            model.params[k][:] = 0.0
        out = features(model, np.zeros((21, 3)), np.zeros((21, 3)))
        assert out.shape == (CFG.feature_width,)
        np.testing.assert_array_equal(out, 0.0)

    def test_hidden_layer_is_rectified(self):
        # identity second affine exposes the hidden layer: all entries >= 0
        model = ia.init_interaction(CFG, seed=1)
        model.params["g.w2"] = np.eye(CFG.feature_width)
        model.params["g.b2"] = np.zeros(CFG.feature_width)
        rng = np.random.default_rng(4)
        out = features(model, rnd_points(rng), rnd_points(rng))
        assert np.all(out >= 0.0)

    def test_hand_object_swap_changes_output(self):
        # the map is not symmetric in its two point blocks for generic weights
        model = ia.init_interaction(CFG, seed=2)
        rng = np.random.default_rng(5)
        hand, obj = rnd_points(rng), rnd_points(rng)
        a = features(model, hand, obj)
        b = features(model, obj, hand)
        assert not np.allclose(a, b)

    def test_baseline_features_are_the_input(self):
        # the plain baseline has no map: its first LSTM layer reads frame_input
        model = ia.init_interaction(BASELINE, seed=0)
        assert not any(name.startswith("g.") for name in model.params)
        assert model.params["lstm0.wx"].shape[0] == BASELINE.input_width


class TestClassify:
    def test_distribution_sums_to_one(self):
        model = ia.init_interaction(CFG, seed=3)
        rng = np.random.default_rng(7)
        seq = rng.normal(size=(9, CFG.input_width))
        probs = ia.classify_sequence(model, seq)
        assert probs.shape == (6,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs >= 0)

    def test_zero_params_give_uniform(self):
        model = ia.init_interaction(CFG, seed=0)
        for k in model.params:
            model.params[k][:] = 0.0
        seq = np.random.default_rng(8).normal(size=(5, CFG.input_width))
        probs = ia.classify_sequence(model, seq)
        np.testing.assert_allclose(probs, np.full(6, 1 / 6), atol=1e-12)

    def test_single_frame_equals_one_step(self):
        model = ia.init_interaction(CFG, seed=4)
        x = np.random.default_rng(9).normal(size=(1, CFG.input_width))
        probs = ia.classify_sequence(model, x)
        # manual single recurrent step
        pt = {k: ad.Tensor(v) for k, v in model.params.items()}
        feat = ia._features_graph(pt, ad.Tensor(x))
        h = c = ad.Tensor(np.zeros((1, CFG.lstm_width)))
        h, c = lstm_step(pt, 0, feat, h, c, CFG.lstm_width)
        h2 = c2 = ad.Tensor(np.zeros((1, CFG.lstm_width)))
        h2, _ = lstm_step(pt, 1, h, h2, c2, CFG.lstm_width)
        logits = (h2 @ pt["out.w"] + pt["out.b"]).data[0]
        np.testing.assert_allclose(probs, ia.softmax(logits), atol=1e-12)

    @pytest.mark.parametrize("cfg", [CFG, BASELINE], ids=["pair_map", "baseline"])
    def test_matches_stepwise_graph(self, cfg):
        model = float64(ia.init_interaction(cfg, seed=13))
        rng = np.random.default_rng(14)
        batch = rng.normal(size=(5, 7, cfg.input_width))
        labels = rng.integers(0, cfg.n_classes, size=5)
        loss, grads = ia.sequence_loss(model, batch, labels)
        ref_loss, ref_grads = stepwise_loss(model, batch, labels)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert sorted(grads) == sorted(ref_grads)
        for name in grads:
            assert_close(grads[name], ref_grads[name], name)
        pt = {k: ad.Tensor(v) for k, v in model.params.items()}
        for seq in batch[:2]:
            ref = ia.softmax(stepwise_logits(pt, cfg, seq[None]).data[0])
            np.testing.assert_allclose(ia.classify_sequence(model, seq), ref, rtol=1e-10)

    def test_empty_sequence_rejected(self):
        model = ia.init_interaction(CFG, seed=0)
        with pytest.raises(EmptySequence):
            ia.classify_sequence(model, np.zeros((0, CFG.input_width)))

    def test_width_mismatch_rejected(self):
        model = ia.init_interaction(CFG, seed=0)
        with pytest.raises(WidthMismatch):
            ia.classify_sequence(model, np.zeros((3, 40)))


def lstm_peak_buffers(dtype) -> float:
    """tracemalloc peak of one lstm forward and backward on dtype operands, in
    (T, B, 4h) buffers of that dtype."""
    n, t, width_in, h = 16, 16, 64, 48
    rng = np.random.default_rng(0)
    arrays = [a.astype(dtype) for a in (
        rng.normal(size=(n, t, width_in)), rng.uniform(-0.2, 0.2, size=(width_in, 4 * h)),
        rng.uniform(-0.2, 0.2, size=(h, 4 * h)), rng.uniform(-0.5, 0.5, size=4 * h))]

    def forward_backward():
        ad.lstm(*(ad.Tensor(a, requires_grad=True) for a in arrays)).sum().backward()

    forward_backward()
    tracemalloc.start()
    try:
        forward_backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (t * n * 4 * h * np.dtype(dtype).itemsize)


def fused_vs_stepwise(n, t, layers, x_grad, seed, saturation=0.0):
    """Hidden states and gradients of ad.lstm and of the stepwise graph,
    under the same random projection of every top-layer hidden state.
    With saturation > 0, a random half of each layer's bias entries move by
    +-saturation, which pins those gate columns near 0, 1 or +-1."""
    width_in, width = 10, 6
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(n, t, width_in))
    params = {}
    for layer in range(layers):
        fan_in = width_in if layer == 0 else width
        params[f"lstm{layer}.wx"] = rng.uniform(-0.6, 0.6, size=(fan_in, 4 * width))
        params[f"lstm{layer}.wh"] = rng.uniform(-0.6, 0.6, size=(width, 4 * width))
        params[f"lstm{layer}.b"] = rng.uniform(-0.5, 0.5, size=4 * width)
    proj = rng.normal(size=(n, t, width))
    for layer in range(layers if saturation else 0):
        signs = rng.choice([-1.0, 1.0], size=4 * width) * (rng.random(4 * width) < 0.5)
        params[f"lstm{layer}.b"] += saturation * signs

    sides = []
    for fused in (True, False):
        pt = {k: ad.Tensor(v.copy(), requires_grad=True) for k, v in params.items()}
        x = ad.Tensor(x0.copy(), requires_grad=x_grad)
        if fused:
            out = x
            for layer in range(layers):
                out = ad.lstm(out, pt[f"lstm{layer}.wx"], pt[f"lstm{layer}.wh"],
                              pt[f"lstm{layer}.b"])
            ad.mul(out, ad.Tensor(proj)).sum().backward()
            hidden = out.data
        else:
            top = stepwise_lstm(pt, layers, [x[:, s] for s in range(t)])
            loss = ad.mul(top[0], ad.Tensor(proj[:, 0])).sum()
            for s in range(1, t):
                loss = loss + ad.mul(top[s], ad.Tensor(proj[:, s])).sum()
            loss.backward()
            hidden = np.stack([h.data for h in top], axis=1)
        grads = {k: v.grad for k, v in pt.items()}
        grads["x"] = x.grad
        sides.append((hidden, grads))
    return sides


class TestFusedLstm:
    @pytest.mark.parametrize("n,t", [(1, 1), (1, 16), (16, 1), (16, 16), (3, 5)])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_one_layer_matches_stepwise_graph(self, n, t, x_grad):
        (hidden, grads), (ref_hidden, ref_grads) = fused_vs_stepwise(n, t, 1, x_grad, seed=n + t)
        assert hidden.shape == (n, t, 6)
        assert_close(hidden, ref_hidden, "hidden")
        if not x_grad:
            assert grads.pop("x") is None and ref_grads.pop("x") is None
        for name in ref_grads:
            assert_close(grads[name], ref_grads[name], name)

    @pytest.mark.parametrize("x_grad", [True, False])
    def test_two_stacked_layers_match_stepwise_graph(self, x_grad):
        (hidden, grads), (ref_hidden, ref_grads) = fused_vs_stepwise(4, 6, 2, x_grad, seed=21)
        assert_close(hidden, ref_hidden, "hidden")
        assert sorted(grads) == ["lstm0.b", "lstm0.wh", "lstm0.wx",
                                 "lstm1.b", "lstm1.wh", "lstm1.wx", "x"]
        for name in ref_grads:
            if ref_grads[name] is None:
                assert grads[name] is None
            else:
                assert_close(grads[name], ref_grads[name], name)

    @pytest.mark.parametrize("saturation", [50.0, 1e3])
    def test_saturated_gates_match_stepwise_graph(self, saturation):
        # pre-activations of about +-50 or +-1e3 in half the columns: the
        # sigmoids reach 0 and 1 and tanh +-1 without overflow, and the live
        # columns keep every gradient array away from zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (hidden, grads), (ref_hidden, ref_grads) = fused_vs_stepwise(
                8, 12, 2, True, seed=41, saturation=saturation)
        assert np.isfinite(hidden).all()
        assert_close(hidden, ref_hidden, "hidden")
        for name in ref_grads:
            assert np.isfinite(grads[name]).all()
            assert_close(grads[name], ref_grads[name], name)

    def test_forward_backward_peak_memory(self):
        # numpy reports its buffers to tracemalloc, so the peak repeats
        # exactly. Counted in (T, B, 4h) float64 buffers it is 3.72 at these
        # widths: the gate buffer, which the backward reuses in place, the
        # cell, hidden and tanh(c) states, the time-major input copy and the
        # gradients. A second (T, B, 4h) buffer kept for the backward would
        # cross the bound.
        assert lstm_peak_buffers(np.float64) <= 4.0

    def test_compute_dtype_buffers_peak_memory(self):
        # the same count in float32 (3.74): a state buffer allocated in
        # float64 instead of the operands' dtype would cross the bound
        assert lstm_peak_buffers(ad.COMPUTE_DTYPE) <= 4.0

    def test_weight_shapes_checked(self):
        x = ad.Tensor(np.zeros((2, 3, 5)))
        with pytest.raises(ValueError):
            ad.lstm(x, ad.Tensor(np.zeros((4, 8))), ad.Tensor(np.zeros((2, 8))),
                    ad.Tensor(np.zeros(8)))


class TestGradients:
    def test_recurrent_grad_check(self):
        model = float64(ia.init_interaction(CFG, seed=5))
        rng = np.random.default_rng(10)
        batch = rng.normal(size=(3, 5, CFG.input_width))
        labels = rng.integers(0, 6, size=3)
        err = grad_check_sequences(model, batch, labels, eps=1e-5, n_samples=150)
        assert err < 1e-4

    def test_baseline_grad_check(self):
        model = float64(ia.init_interaction(BASELINE, seed=6))
        rng = np.random.default_rng(11)
        batch = rng.normal(size=(2, 4, BASELINE.input_width))
        labels = rng.integers(0, 6, size=2)
        err = grad_check_sequences(model, batch, labels, eps=1e-5, n_samples=120)
        assert err < 1e-4

    def test_training_reduces_loss_on_separable_toy(self):
        # two constant-signal classes must be trivially separable
        rng = np.random.default_rng(12)
        cfg = ia.InteractionConfig(n_classes=2, feature_width=16, lstm_width=12)
        model = ia.init_interaction(cfg, seed=7)
        n = 24
        labels = np.arange(n) % 2
        base = rng.normal(size=(2, cfg.input_width))
        inputs = np.stack([
            np.tile(base[y], (6, 1)) + rng.normal(scale=0.05, size=(6, cfg.input_width))
            for y in labels
        ])
        first = ia.sgd_epoch_sequences(model, inputs, labels, 0.3, np.random.default_rng(0))
        last = first
        for _ in range(40):
            last = ia.sgd_epoch_sequences(model, inputs, labels, 0.3, np.random.default_rng(0))
        assert last < 0.2 * first
        correct = sum(
            int(np.argmax(ia.classify_sequence(model, inputs[i]))) == labels[i]
            for i in range(n)
        )
        assert correct == n


class TestSequenceSgd:
    def test_update_rule_is_exact_gradient_step(self):
        # one batch of all N sequences, in the order the epoch permutes them
        model = ia.init_interaction(CFG, seed=3)
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(4, 5, CFG.input_width))
        labels = rng.integers(0, CFG.n_classes, size=4)
        order = np.random.default_rng(0).permutation(4)
        _, grads = ia.sequence_loss(model, inputs[order], labels[order])
        expected = {k: model.params[k] - 0.05 * grads[k] for k in grads}
        ia.sgd_epoch_sequences(model, inputs, labels, 0.05, np.random.default_rng(0),
                               batch_size=4)
        assert sorted(model.params) == sorted(expected)
        for k in expected:
            np.testing.assert_array_equal(model.params[k], expected[k])

    def test_nonfinite_loss_names_the_batch(self):
        model = ia.init_interaction(CFG, seed=0)
        inputs = np.random.default_rng(1).normal(size=(4, 3, CFG.input_width))
        order = np.random.default_rng(2).permutation(4)
        inputs[order[3]] = np.nan  # batches of 2: the second is order[2:]
        with pytest.raises(NonFiniteLoss, match="epoch aborted at batch 1"):
            ia.sgd_epoch_sequences(model, inputs, np.arange(4), 0.1,
                                   np.random.default_rng(2), batch_size=2)


    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        model = ia.init_interaction(CFG, seed=0)
        before = {k: v.copy() for k, v in model.params.items()}
        inputs = np.random.default_rng(1).normal(size=(4, 3, CFG.input_width))
        with pytest.raises(ConfigError, match="batch_size"):
            ia.sgd_epoch_sequences(model, inputs, np.arange(4), 0.1,
                                   np.random.default_rng(2), batch_size=batch_size)
        for k in before:
            np.testing.assert_array_equal(model.params[k], before[k])

class TestWeightImportance:
    def test_uniform_weights_give_uniform_importance(self):
        model = ia.init_interaction(CFG, seed=0)
        model.params["g.w1"][:] = 0.5
        per_joint, parts = ia.weight_importance(model)
        np.testing.assert_allclose(per_joint, np.full(21, 1 / 21), atol=1e-12)
        assert parts["wrist"] == pytest.approx(1 / 21)
        assert parts["tip"] == pytest.approx(5 / 21)

    def test_zeroed_joint_gets_zero_importance(self):
        model = ia.init_interaction(CFG, seed=1)
        model.params["g.w1"][3 * 7: 3 * 8, :] = 0.0
        per_joint, _ = ia.weight_importance(model)
        assert per_joint[7] == 0.0

    def test_sums_to_one(self):
        model = ia.init_interaction(CFG, seed=8)
        per_joint, parts = ia.weight_importance(model)
        assert per_joint.shape == (21,)
        assert np.all(per_joint >= 0)
        assert per_joint.sum() == pytest.approx(1.0, abs=1e-9)
        assert sum(parts.values()) == pytest.approx(1.0, abs=1e-9)
        assert set(parts) == set(HAND_PARTS)

    def test_invariant_under_positive_rescale(self):
        model = ia.init_interaction(CFG, seed=9)
        a, _ = ia.weight_importance(model)
        model.params["g.w1"] *= 7.5
        b, _ = ia.weight_importance(model)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_baseline_uses_recurrent_input_matrix(self):
        model = ia.init_interaction(BASELINE, seed=10)
        model.params["lstm0.wx"][0:3, :] = 0.0
        per_joint, _ = ia.weight_importance(model)
        assert per_joint[0] == 0.0
