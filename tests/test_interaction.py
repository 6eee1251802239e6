"""Interaction features, sequence classification and weight importance."""

import numpy as np
import pytest

from gridpose import autodiff as ad
from gridpose import interaction as ia
from gridpose.errors import EmptySequence, NonFiniteLoss, WidthMismatch
from gridpose.geometry import HAND_PARTS


CFG = ia.InteractionConfig(n_classes=6, feature_width=24, lstm_width=16,
                           lstm_layers=2, input_scale=1.0)
BASELINE = ia.InteractionConfig(n_classes=6, feature_width=24, lstm_width=16,
                                lstm_layers=2, use_pair_map=False, input_scale=1.0)


# -- reference: the LSTM composed step by step from elementwise graph ops ------

def lstm_step(pt, layer: int, x, h, c, width: int):
    gates = x @ pt[f"lstm{layer}.wx"] + h @ pt[f"lstm{layer}.wh"] + pt[f"lstm{layer}.b"]
    i = ad.sigmoid(gates[:, 0 * width: 1 * width])
    f = ad.sigmoid(gates[:, 1 * width: 2 * width])
    g = ad.tanh(gates[:, 2 * width: 3 * width])
    o = ad.sigmoid(gates[:, 3 * width: 4 * width])
    c_new = ad.mul(f, c) + ad.mul(i, g)
    h_new = ad.mul(o, ad.tanh(c_new))
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


def assert_close(actual, expected, name):
    np.testing.assert_allclose(actual, expected, rtol=1e-10,
                               atol=1e-13 * np.abs(expected).max(), err_msg=name)


def rnd_points(rng, n=21):
    return rng.normal(scale=0.1, size=(n, 3))


class TestFrameInput:
    def test_width(self):
        rng = np.random.default_rng(0)
        x = ia.frame_input(CFG, rnd_points(rng), rnd_points(rng))
        assert x.shape == (CFG.input_width,) == (126,)

    def test_root_relative_centering(self):
        rng = np.random.default_rng(1)
        hand, obj = rnd_points(rng), rnd_points(rng)
        a = ia.frame_input(CFG, hand, obj)
        b = ia.frame_input(CFG, hand + 5.0, obj + 5.0)
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert np.all(a[:3] == 0.0)

    def test_absolute_mode_flag(self):
        cfg = ia.InteractionConfig(n_classes=6, feature_width=8, lstm_width=8,
                                   root_relative=False, input_scale=1.0)
        rng = np.random.default_rng(2)
        hand, obj = rnd_points(rng), rnd_points(rng)
        a = ia.frame_input(cfg, hand, obj)
        b = ia.frame_input(cfg, hand + 1.0, obj + 1.0)
        assert not np.allclose(a, b)

    def test_class_prob_features(self):
        cfg = ia.InteractionConfig(n_classes=6, feature_width=8, lstm_width=8,
                                   include_class_probs=True, n_actions=4, n_objects=3)
        rng = np.random.default_rng(3)
        x = ia.frame_input(cfg, rnd_points(rng), rnd_points(rng),
                           action_probs=np.full(4, 0.25), object_probs=np.full(3, 1 / 3))
        assert x.shape == (126 + 7,)
        with pytest.raises(WidthMismatch):
            ia.frame_input(cfg, rnd_points(rng), rnd_points(rng),
                           action_probs=np.full(5, 0.2), object_probs=np.full(3, 1 / 3))


def features(model, hand, obj):
    """The interaction map of one frame's input, as the classifier applies it."""
    x = ia.frame_input(model.cfg, hand, obj)[None, :]
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
        model = ia.init_interaction(
            ia.InteractionConfig(n_classes=6, feature_width=24, lstm_width=16,
                                 root_relative=False, input_scale=1.0), seed=2)
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
        model = ia.init_interaction(cfg, seed=13)
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
            ia.classify_sequence(model, [])
        with pytest.raises(EmptySequence):
            ia.classify_sequence(model, np.zeros((0, CFG.input_width)))

    def test_width_mismatch_rejected(self):
        model = ia.init_interaction(CFG, seed=0)
        with pytest.raises(WidthMismatch):
            ia.classify_sequence(model, np.zeros((3, 40)))


def fused_vs_stepwise(n, t, layers, x_grad, seed):
    """Hidden states and gradients of ad.lstm and of the stepwise graph,
    under the same random projection of every top-layer hidden state."""
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

    def test_weight_shapes_checked(self):
        x = ad.Tensor(np.zeros((2, 3, 5)))
        with pytest.raises(ValueError):
            ad.lstm(x, ad.Tensor(np.zeros((4, 8))), ad.Tensor(np.zeros((2, 8))),
                    ad.Tensor(np.zeros(8)))


class TestGradients:
    def test_recurrent_grad_check(self):
        model = ia.init_interaction(CFG, seed=5)
        rng = np.random.default_rng(10)
        batch = rng.normal(size=(3, 5, CFG.input_width))
        labels = rng.integers(0, 6, size=3)
        err = ia.grad_check_sequences(model, batch, labels, eps=1e-5, n_samples=150)
        assert err < 1e-4

    def test_baseline_grad_check(self):
        model = ia.init_interaction(BASELINE, seed=6)
        rng = np.random.default_rng(11)
        batch = rng.normal(size=(2, 4, BASELINE.input_width))
        labels = rng.integers(0, 6, size=2)
        err = ia.grad_check_sequences(model, batch, labels, eps=1e-5, n_samples=120)
        assert err < 1e-4

    def test_training_reduces_loss_on_separable_toy(self):
        # two constant-signal classes must be trivially separable
        rng = np.random.default_rng(12)
        cfg = ia.InteractionConfig(n_classes=2, feature_width=16, lstm_width=12,
                                   lstm_layers=2, input_scale=1.0)
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
