"""Backbone forward pass, multi-task loss, gradient checks and SGD."""

import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from gridpose import autodiff as ad
from gridpose import codec, config, synth
from gridpose import geometry as geo
from gridpose import network as net
from gridpose.errors import ConfigError, GridposeError, NonFiniteLoss, OutOfVolume, ShapeMismatch

from conftest import float64, grad_check as array_grad_check, logit, random_scene

# Micro configuration: 12x12 image over a 3x3x2 grid of 4px cells.
GRID = geo.GridSpec(h=3, w=3, d=2, cell_u_px=4.0, cell_v_px=4.0, cell_z_m=0.3,
                    z_min=0.2, cutoff_px=6.0, cutoff_m=0.15)
CAM = geo.CameraIntrinsics(fx=20.0, fy=20.0, cx=6.0, cy=6.0)
LABELS = codec.LabelSpec(n_objects=2, n_actions=3)
BB = net.BackboneConfig(channels=(6, 8), strides=(2, 2))
W = net.LossWeights()


def micro_batch(n=3, seed=0):
    rng = np.random.default_rng(seed)
    scenes = []
    for _ in range(n):
        scene, _, _ = random_scene(rng, grid=GRID, cam=CAM,
                                   n_actions=LABELS.n_actions, n_objects=LABELS.n_objects)
        scenes.append(scene)
    images = rng.uniform(0.0, 1.0, size=(n, 3, GRID.image_h, GRID.image_w))
    return net.BatchTargets.from_scenes(scenes, GRID, LABELS, CAM, images)


def grad_check(params, targets, weights, bb, grid, labels, eps=1e-4, n_samples=200, seed=0,
               conf_targets="fixed"):
    """Max relative error of multitask_loss's gradients (the head evaluated
    only where the loss reads it) against central finite differences of the
    dense loss_graph(forward_graph(...)); entries whose two-sided interval
    flips a rectifier input are redrawn.

    Online confidence targets are a function of the prediction that the
    loss deliberately treats as constant, so the check defaults to the
    fixed variant; finite differences match the online variant only while
    its targets are held (test_online_targets_match_fd_of_detached_loss).
    """
    def value():
        signs = []
        leaky_relu = ad.leaky_relu

        def recording(x, slope):
            signs.append(x.data > 0)
            return leaky_relu(x, slope)

        with mock.patch.object(ad, "leaky_relu", recording):
            raw = net.forward_graph(net.wrap_params(params, requires_grad=False),
                                    targets.images, bb, grid, labels)
        assert len(signs) == len(bb.channels)
        loss, _ = net.loss_graph(raw, targets, weights, grid, labels, conf_targets)
        return float(loss.data), signs

    _, grads, _ = net.multitask_loss(params, targets, weights, bb, grid, labels, conf_targets)
    return array_grad_check(params.tensors, grads, value, eps, n_samples, seed)


class TestForward:
    def test_zero_params_give_zero_logits_and_half_confidence(self):
        params = net.init_params(BB, GRID, LABELS, seed=0)
        for k in params.tensors:
            params.tensors[k][:] = 0.0
        img = np.zeros((1, 3, 12, 12))
        raw = net.forward(params, img, BB, GRID, LABELS)
        assert np.all(raw == 0.0)
        # every cell ties at confidence 1/2, so the first cell wins
        pred = codec.prune(codec.decode_grid(raw[0], GRID, LABELS), GRID, CAM)
        assert pred.hand_cell.tolist() == pred.object_cell.tolist() == [0, 0, 0]
        assert pred.hand_confidence == pred.object_confidence == 0.5
        np.testing.assert_array_equal(pred.action_probs, np.full(LABELS.n_actions, 1 / 3))
        np.testing.assert_array_equal(pred.object_probs, np.full(LABELS.n_objects, 1 / 2))

    def test_deterministic_bitwise(self):
        params = net.init_params(BB, GRID, LABELS, seed=7)
        img = np.random.default_rng(1).uniform(size=(2, 3, 12, 12))
        a = net.forward(params, img, BB, GRID, LABELS)
        b = net.forward(params, img, BB, GRID, LABELS)
        assert a.tobytes() == b.tobytes()

    def test_toy_output_channel_count(self):
        # 7x7x3 grid with 4 actions / 3 objects: 3 * ((63+4+1) + (63+3+1)) = 405
        grid = geo.GridSpec(h=7, w=7, d=3, cell_u_px=8, cell_v_px=8, cell_z_m=0.15)
        labels = codec.LabelSpec(n_objects=3, n_actions=4)
        assert net.output_channels(grid, labels) == 405
        bb = net.BackboneConfig(channels=(8, 8, 8), strides=(2, 2, 2))
        params = net.init_params(bb, grid, labels, seed=0)
        assert params.tensors["head.w"].shape == (405, 8, 1, 1)
        raw = net.forward(params, np.zeros((1, 3, 56, 56)), bb, grid, labels)
        assert raw.shape == (1, 7, 7, 3, labels.cell_channels)

    def test_toy_signature_is_pinned(self):
        # saved stage-1 checkpoints record this digest; load_backbone compares it
        cfg = config.toy_preset()
        assert net.model_signature(cfg.backbone, cfg.grid, cfg.labels) == "624f96d1653f5faa"

    def test_shape_mismatch_rejected(self):
        params = net.init_params(BB, GRID, LABELS, seed=0)
        with pytest.raises(ShapeMismatch):
            net.forward(params, np.zeros((1, 3, 16, 16)), BB, GRID, LABELS)
        with pytest.raises(ShapeMismatch):
            net.forward(params, np.zeros((1, 1, 12, 12)), BB, GRID, LABELS)

    def test_stride_product_must_match_cell_size(self):
        bb_bad = net.BackboneConfig(channels=(6,), strides=(2,))
        params = net.init_params(bb_bad, GRID, LABELS, seed=0)
        with pytest.raises(ShapeMismatch):
            net.forward(params, np.zeros((1, 3, 12, 12)), bb_bad, GRID, LABELS)

    def test_seed_changes_params(self):
        a = net.init_params(BB, GRID, LABELS, seed=0)
        b = net.init_params(BB, GRID, LABELS, seed=1)
        assert any(not np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)



def init_params_drawn_layer_by_layer(bb, grid, labels, seed):
    """init_params as it drew before param_shapes: conv weight and bias, layer
    by layer, then the head, each within 1/sqrt of the layer's fan-in."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x6e65)))
    tensors = {}
    c_in = 3
    for i, c_out in enumerate(bb.channels):
        s = 1.0 / np.sqrt(c_in * bb.kernel * bb.kernel)
        tensors[f"conv{i}.w"] = rng.uniform(-s, s, size=(c_out, c_in, bb.kernel, bb.kernel))
        tensors[f"conv{i}.b"] = rng.uniform(-s, s, size=(c_out,))
        c_in = c_out
    s = 1.0 / np.sqrt(c_in)
    tensors["head.w"] = rng.uniform(-s, s, size=(net.output_channels(grid, labels), c_in, 1, 1))
    tensors["head.b"] = rng.uniform(-s, s, size=(net.output_channels(grid, labels),))
    return {k: v.astype(ad.COMPUTE_DTYPE) for k, v in tensors.items()}


class TestParamShapes:
    @pytest.mark.parametrize("bb", [BB, net.BackboneConfig(channels=(4, 5, 6), strides=(1, 2, 2),
                                                          kernel=5)])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_init_draws_the_shapes_in_order_with_the_same_bits(self, bb, seed):
        params = net.init_params(bb, GRID, LABELS, seed)
        want = init_params_drawn_layer_by_layer(bb, GRID, LABELS, seed)
        assert list(params.tensors) == list(want) == list(net.param_shapes(bb, GRID, LABELS))
        for name, shape in net.param_shapes(bb, GRID, LABELS).items():
            assert params.tensors[name].shape == shape
            assert params.tensors[name].tobytes() == want[name].tobytes()


class TestLoss:
    def test_perfect_prediction_has_near_zero_loss(self):
        targets = micro_batch(n=2)
        b = len(targets)
        raw = np.zeros((b, GRID.h, GRID.w, GRID.d, LABELS.cell_channels))
        big = 50.0
        offsets = targets.coords - targets.cells[..., None, :]
        for i in range(b):
            u, v, z = targets.cells[i, 0]
            hand = np.zeros(LABELS.hand_slot)
            hand[:63] = offsets[i, 0].ravel()
            hand[0:3] = logit(offsets[i, 0, 0])
            hand[63 + targets.action_id[i]] = big
            hand[-1] = big
            raw[i, v, u, z, :LABELS.hand_slot] = hand

            u, v, z = targets.cells[i, 1]
            obj = np.zeros(LABELS.object_slot)
            obj[:63] = offsets[i, 1].ravel()
            obj[60:63] = logit(offsets[i, 1, 20])
            obj[63 + targets.object_id[i]] = big
            obj[-1] = big
            raw[i, v, u, z, LABELS.hand_slot:] = obj
        # every non-responsible confidence logit to -big
        for i in range(b):
            mask = np.ones((GRID.h, GRID.w, GRID.d), dtype=bool)
            u, v, z = targets.cells[i, 0]
            mask[v, u, z] = False
            raw[i, ..., LABELS.hand_slot - 1][mask] = -big
            mask = np.ones((GRID.h, GRID.w, GRID.d), dtype=bool)
            u, v, z = targets.cells[i, 1]
            mask[v, u, z] = False
            raw[i, ..., -1][mask] = -big

        loss, parts = net.loss_graph(ad.Tensor(raw), targets, W, GRID, LABELS,
                                     conf_targets="online")
        assert parts["pose"] < 1e-12
        assert parts["action"] < 1e-12
        assert parts["object"] < 1e-12
        assert parts["conf"] < 1e-12
        assert float(loss.data) < 1e-10

    def test_zero_raw_confidence_closed_form(self):
        # sigmoid(0) = 0.5 everywhere; fixed targets: 1 at the two
        # responsible slots, 0 elsewhere:
        #   conf = 2*5*(0.5-1)^2 + (2*h*w*d - 2)*0.1*(0.5-0)^2
        targets = micro_batch(n=1)
        raw = ad.Tensor(np.zeros((1, GRID.h, GRID.w, GRID.d, LABELS.cell_channels)))
        _, parts = net.loss_graph(raw, targets, W, GRID, LABELS, conf_targets="fixed")
        cells = GRID.h * GRID.w * GRID.d
        expect = 2 * 5.0 * 0.25 + (2 * cells - 2) * 0.1 * 0.25
        assert parts["conf"] == pytest.approx(expect, rel=1e-12)

    def test_uniform_logits_give_log_n_cross_entropy(self):
        targets = micro_batch(n=1)
        raw = ad.Tensor(np.zeros((1, GRID.h, GRID.w, GRID.d, LABELS.cell_channels)))
        _, parts = net.loss_graph(raw, targets, W, GRID, LABELS, conf_targets="fixed")
        assert parts["action"] == pytest.approx(np.log(LABELS.n_actions), rel=1e-12)
        assert parts["object"] == pytest.approx(np.log(LABELS.n_objects), rel=1e-12)

    def test_pose_weight_scales_gradient_linearly(self):
        targets = micro_batch(n=2)
        params = float64(net.init_params(BB, GRID, LABELS, seed=3))
        pose_only = net.LossWeights(pose=1.0, action_class=0, object_class=0,
                                    conf_obj=0, conf_noobj=0)
        pose_k = net.LossWeights(pose=3.5, action_class=0, object_class=0,
                                 conf_obj=0, conf_noobj=0)
        _, g1, _ = net.multitask_loss(params, targets, pose_only, BB, GRID, LABELS)
        _, gk, _ = net.multitask_loss(params, targets, pose_k, BB, GRID, LABELS)
        for k in g1:
            np.testing.assert_allclose(gk[k], 3.5 * g1[k], rtol=1e-12, atol=1e-15)

    def test_nonfinite_loss_raises(self):
        targets = micro_batch(n=1)
        raw = np.zeros((1, GRID.h, GRID.w, GRID.d, LABELS.cell_channels))
        # confidence channels enter the loss at every cell
        raw[0, 0, 0, 0, LABELS.hand_slot - 1] = np.nan
        with pytest.raises(NonFiniteLoss):
            net.loss_graph(ad.Tensor(raw), targets, W, GRID, LABELS)

    def test_batch_loss_is_mean_of_per_frame_losses(self):
        targets = micro_batch(n=4, seed=5)
        params = float64(net.init_params(BB, GRID, LABELS, seed=1))
        full, _, _ = net.multitask_loss(params, targets, W, BB, GRID, LABELS,
                                        conf_targets="fixed")
        singles = []
        for i in range(4):
            one = targets.take(np.array([i]))
            v, _, _ = net.multitask_loss(params, one, W, BB, GRID, LABELS,
                                         conf_targets="fixed")
            singles.append(v)
        assert full == pytest.approx(np.mean(singles), rel=1e-12)


def with_point(scene, role, index, value):
    """A copy of scene with one hand or object point replaced."""
    name = "hand_points" if role == geo.HAND else "object_points"
    points = getattr(scene, name).copy()
    points[index] = value
    return replace(scene, **{name: points})


def at_grid(coords):
    return geo.grid_to_camera(np.array(coords, dtype=float), CAM, GRID)


class TestBatchTargets:
    def test_from_scenes_equals_frame_targets_per_frame(self):
        rng = np.random.default_rng(4)
        scenes = [random_scene(rng, grid=GRID, cam=CAM, n_actions=LABELS.n_actions,
                               n_objects=LABELS.n_objects)[0] for _ in range(6)]
        images = np.zeros((6, 3, GRID.image_h, GRID.image_w))
        batch = net.BatchTargets.from_scenes(scenes, GRID, LABELS, CAM, images)
        for i, scene in enumerate(scenes):
            t = codec.frame_targets(scene, GRID, LABELS, CAM)
            np.testing.assert_array_equal(batch.cells[i], t.cells)
            np.testing.assert_array_equal(batch.coords[i], t.coords)
            assert (batch.action_id[i], batch.object_id[i]) == (t.action_id, t.object_id)
        assert batch.cells.dtype == int and batch.coords.dtype == np.float64

    @pytest.mark.parametrize("spoil", [
        lambda s: replace(s, action_id=LABELS.n_actions),
        lambda s: replace(s, object_id=-1),
        lambda s: with_point(s, geo.HAND, 5, [0.0, 0.0, -0.1]),
        lambda s: with_point(s, geo.HAND, 0, at_grid([1.5, 1.5, GRID.d + 0.25])),
        lambda s: with_point(s, geo.HAND, 0, at_grid([1.5, -0.5, 1.5])),
        lambda s: with_point(s, geo.OBJECT, 20, at_grid([GRID.w + 0.5, 1.5, 1.5])),
        lambda s: with_point(s, geo.OBJECT, 20, [np.nan, 0.0, 0.5]),
        lambda s: with_point(with_point(s, geo.OBJECT, 20, at_grid([1.5, 1.5, -0.5])),
                             geo.HAND, 0, at_grid([GRID.w, 1.5, 1.5])),
    ])
    def test_one_bad_frame_raises_what_it_raises_alone(self, spoil):
        rng = np.random.default_rng(6)
        scenes = [random_scene(rng, grid=GRID, cam=CAM, n_actions=LABELS.n_actions,
                               n_objects=LABELS.n_objects)[0] for _ in range(5)]
        scenes[3] = spoil(scenes[3])
        with pytest.raises(GridposeError) as alone:
            codec.frame_targets(scenes[3], GRID, LABELS, CAM)
        with pytest.raises(GridposeError) as stacked:
            net.BatchTargets.from_scenes(scenes, GRID, LABELS, CAM,
                                         np.zeros((5, 3, GRID.image_h, GRID.image_w)))
        assert type(stacked.value) is type(alone.value)
        if isinstance(alone.value, OutOfVolume):
            got, want = stacked.value, alone.value
            assert (got.entity, got.axis, got.bound) == (want.entity, want.axis, want.bound)
            np.testing.assert_array_equal(got.value, want.value)


class TestGradCheck:
    def test_full_loss_below_1e4(self):
        targets = micro_batch(n=2)
        params = float64(net.init_params(BB, GRID, LABELS, seed=2))
        err = grad_check(params, targets, W, BB, GRID, LABELS,
                             eps=1e-4, n_samples=200, seed=0)
        assert err < 1e-4

    @pytest.mark.parametrize("name,weights", [
        ("pose", net.LossWeights(1, 0, 0, 0, 0)),
        ("action", net.LossWeights(0, 1, 0, 0, 0)),
        ("object", net.LossWeights(0, 0, 1, 0, 0)),
        ("conf", net.LossWeights(0, 0, 0, 5, 0.1)),
    ])
    def test_each_term_in_isolation(self, name, weights):
        targets = micro_batch(n=2)
        params = float64(net.init_params(BB, GRID, LABELS, seed=2))
        err = grad_check(params, targets, weights, BB, GRID, LABELS,
                             eps=1e-4, n_samples=120, seed=1)
        assert err < 1e-4, name

    def test_error_grows_with_epsilon(self):
        # central differences have O(eps^2) truncation error; on a smooth
        # region a 10x bigger step should cost accuracy
        targets = micro_batch(n=1)
        params = float64(net.init_params(BB, GRID, LABELS, seed=4))
        small = grad_check(params, targets, W, BB, GRID, LABELS,
                               eps=1e-4, n_samples=60, seed=3)
        large = grad_check(params, targets, W, BB, GRID, LABELS,
                               eps=1e-2, n_samples=60, seed=3)
        assert large > small

    def test_online_targets_match_fd_of_detached_loss(self):
        # online confidence targets are constants to the gradient, so the
        # finite differences hold them at their values at the unperturbed
        # parameters: each loss evaluation replays the recorded hand and
        # object targets in the order the loss asks for them
        targets = micro_batch(n=1)
        params = float64(net.init_params(BB, GRID, LABELS, seed=5))
        online = net.confidence_from_grid_coords
        recorded = []

        def record(pred_w, gt_w, grid):
            recorded.append(online(pred_w, gt_w, grid))
            return recorded[-1]

        with mock.patch.object(net, "confidence_from_grid_coords", record):
            net.multitask_loss(params, targets, W, BB, GRID, LABELS, "online")
        assert len(recorded) == 2 and not np.allclose(np.concatenate(recorded), 1.0)
        replay = itertools.cycle(recorded)
        with mock.patch.object(net, "confidence_from_grid_coords", lambda *_: next(replay)):
            err = grad_check(params, targets, W, BB, GRID, LABELS,
                             eps=1e-4, n_samples=60, seed=2, conf_targets="online")
        assert err < 1e-4


def toy_batch(n):
    cfg = config.toy_preset()
    frames = [synth.sample_scene((41, i), cfg.scene) for i in range(n)]
    return cfg, net.BatchTargets.from_scenes(frames, cfg.grid, cfg.labels, cfg.camera,
                                             np.stack([f.raster for f in frames]))


class TestSparseHead:
    """multitask_loss evaluates the head only where the loss reads it; its
    value and gradients must be those of the dense loss_graph(forward_graph)."""

    @pytest.mark.parametrize("conf_targets", ["online", "fixed"])
    @pytest.mark.parametrize("n", [1, 16])
    @pytest.mark.parametrize("preset", ["micro", "toy"])
    def test_loss_and_grads_match_the_dense_grid(self, preset, n, conf_targets):
        if preset == "micro":
            bb, grid, labels, weights, targets = BB, GRID, LABELS, W, micro_batch(n=n, seed=n)
        else:
            cfg, targets = toy_batch(n)
            bb, grid, labels, weights = cfg.backbone, cfg.grid, cfg.labels, cfg.loss
        params = float64(net.init_params(bb, grid, labels, seed=n))
        value, grads, parts = net.multitask_loss(params, targets, weights, bb, grid, labels,
                                                 conf_targets)
        want, want_grads, want_parts = ad.value_and_grads(params.tensors, lambda pt: net.loss_graph(
            net.forward_graph(pt, targets.images, bb, grid, labels),
            targets, weights, grid, labels, conf_targets))
        assert value == pytest.approx(want, rel=1e-12)
        assert parts == pytest.approx(want_parts, rel=1e-12)
        assert sorted(grads) == sorted(want_grads)
        for name, g in want_grads.items():
            # atol only guards entries that cancel to ~0 against terms of size ~max
            np.testing.assert_allclose(grads[name], g, rtol=1e-10,
                                       atol=1e-13 * np.abs(g).max(), err_msg=name)

    def test_head_of_one_cell_is_the_dense_grid_there(self):
        params = net.init_params(BB, GRID, LABELS, seed=3)
        images = np.random.default_rng(3).uniform(size=(4, 3, 12, 12))
        raw = net.forward(params, images, BB, GRID, LABELS)
        pt = net.wrap_params(params, requires_grad=False)
        cols = net.feature_columns(net.features_graph(pt, images, BB, GRID))
        cells = np.array([[[0, 0, 0], [2, 1, 1]], [[1, 2, 0], [1, 2, 0]],
                          [[2, 2, 1], [0, 1, 0]], [[1, 1, 1], [2, 0, 1]]])
        got = net.head_at_cells(pt, cols, cells, GRID, LABELS).data
        want = raw[np.arange(4)[:, None], cells[..., 1], cells[..., 0], cells[..., 2]]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        conf = net.confidence_logits(pt, cols, GRID, LABELS).data
        np.testing.assert_allclose(conf, raw[..., [LABELS.hand_slot - 1, -1]],
                                   rtol=1e-12, atol=1e-12)


class TestSgd:
    def test_zero_lr_keeps_params(self):
        targets = micro_batch(n=3)
        params = net.init_params(BB, GRID, LABELS, seed=0)
        before = {k: v.copy() for k, v in params.tensors.items()}
        net.sgd_epoch(params, targets, 0.0, W, BB, GRID, LABELS,
                      np.random.default_rng(0), batch_size=2)
        for k in before:
            np.testing.assert_array_equal(params.tensors[k], before[k])

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        params = net.init_params(BB, GRID, LABELS, seed=0)
        with pytest.raises(ConfigError, match="batch_size"):
            net.sgd_epoch(params, micro_batch(n=3), 0.01, W, BB, GRID, LABELS,
                          np.random.default_rng(0), batch_size=batch_size)

    def test_update_rule_is_exact_gradient_step(self):
        targets = micro_batch(n=1)
        params = net.init_params(BB, GRID, LABELS, seed=1)
        _, grads, _ = net.multitask_loss(params, targets, W, BB, GRID, LABELS,
                                         conf_targets="fixed")
        expected = {k: params.tensors[k] - 0.01 * grads[k] for k in grads}
        net.sgd_epoch(params, targets, 0.01, W, BB, GRID, LABELS,
                      np.random.default_rng(0), batch_size=1, conf_targets="fixed")
        for k in expected:
            np.testing.assert_array_equal(params.tensors[k], expected[k])

    def test_loss_decreases_on_single_sample(self):
        # repeated steps on one sample: the quadratic-ish local model must
        # shrink the loss for a small enough learning rate
        targets = micro_batch(n=1)
        params = net.init_params(BB, GRID, LABELS, seed=6)
        rng = np.random.default_rng(0)
        losses = [net.sgd_epoch(params, targets, 0.01, W, BB, GRID, LABELS,
                                rng, batch_size=1, conf_targets="fixed")
                  for _ in range(8)]
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_determinism_same_seed_same_params(self):
        targets = micro_batch(n=6)
        runs = []
        for _ in range(2):
            params = net.init_params(BB, GRID, LABELS, seed=9)
            rng = np.random.default_rng(42)
            for _ in range(3):
                net.sgd_epoch(params, targets, 0.05, W, BB, GRID, LABELS,
                              rng, batch_size=2)
            runs.append({k: v.copy() for k, v in params.tensors.items()})
        for k in runs[0]:
            assert runs[0][k].tobytes() == runs[1][k].tobytes()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = net.init_params(BB, GRID, LABELS, seed=11)
        meta = {"kind": "backbone", "epoch": 3, "seed": 11,
                "config_hash": "abc", "signature": params.signature}
        path = tmp_path / "model.ckpt"
        net.save_checkpoint(path, params.tensors, meta)
        tensors, header = net.load_checkpoint(path)
        assert header["epoch"] == 3
        assert header["signature"] == params.signature
        assert set(tensors) == set(params.tensors)
        for k in tensors:
            # the model computes in float32 and the file stores <f4: exact
            assert tensors[k].dtype == params.tensors[k].dtype == ad.COMPUTE_DTYPE
            assert tensors[k].flags.writeable
            np.testing.assert_array_equal(tensors[k], params.tensors[k])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_is_config_error(self, tmp_path, value):
        params = net.init_params(BB, GRID, LABELS, seed=0)
        params.tensors["conv1.w"][1, 0, 2, 2] = value
        path = tmp_path / "model.ckpt"
        net.save_checkpoint(path, params.tensors, {"kind": "backbone"})
        with pytest.raises(ConfigError, match=r"tensor conv1\.w holds non-finite values"):
            net.load_checkpoint(path)

    def test_serialization_is_deterministic(self, tmp_path):
        params = net.init_params(BB, GRID, LABELS, seed=0)
        meta = {"kind": "backbone", "epoch": 0, "seed": 0, "config_hash": "x"}
        net.save_checkpoint(tmp_path / "a.ckpt", params.tensors, meta)
        net.save_checkpoint(tmp_path / "b.ckpt", params.tensors, meta)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert net.file_hash(tmp_path / "a.ckpt") == net.file_hash(tmp_path / "b.ckpt")

    def test_bytes_after_the_last_tensor_are_config_error(self, tmp_path):
        params = net.init_params(BB, GRID, LABELS, seed=0)
        path = tmp_path / "model.ckpt"
        net.save_checkpoint(path, params.tensors, {"kind": "backbone"})
        path.write_bytes(path.read_bytes() + b"\0" * 7)
        with pytest.raises(ConfigError, match="bytes after its last tensor"):
            net.load_checkpoint(path)

    def test_garbage_header_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not json\n")
        with pytest.raises(ConfigError, match="not JSON"):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[-1, -2], [2, -1]])
    def test_negative_dimension_is_config_error(self, tmp_path, shape):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"format": 1, "tensors": [{"name": "w", "shape": %s}]}\n'
                         % str(shape).encode() + bytes(64))
        with pytest.raises(ConfigError, match="negative dimension"):
            net.load_checkpoint(path)

    def test_header_without_tensor_list_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"format": 1, "kind": "backbone"}\n')
        with pytest.raises(ConfigError, match="no tensors list"):
            net.load_checkpoint(path)
