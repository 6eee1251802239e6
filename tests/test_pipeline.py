"""Stage orchestration: identical seeds must give identical bytes."""

import hashlib
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridpose import codec, config, interaction as ia, network as net, pipeline, synth
from gridpose.errors import ConfigError, HashMismatch, ShapeMismatch

from conftest import float64


def tiny_config():
    # Relative directories, so two runs from different working directories
    # also write the same config.txt (it records data.dir and out_dir).
    cfg = config.toy_preset(seed=5, out_dir="run", data_dir="data")
    return replace(
        cfg,
        scene=replace(cfg.scene, sequence_length=4),
        optim=replace(cfg.optim, epochs=1, schedule_epochs=()),
        interaction=replace(cfg.interaction, epochs=2, schedule_epochs=()),
        data=replace(cfg.data, train_frames=16, val_frames=4,
                     train_sequences=2, val_sequences=2),
    )


def run_every_stage() -> None:
    """Every stage of tiny_config(), writing into the working directory."""
    cfg = tiny_config()
    pipeline.gen_data(cfg)
    stage1 = pipeline.train_stage1(cfg)
    stage2, baseline = pipeline.train_stage2(cfg, stage1)
    pipeline.evaluate(cfg, stage1, "report", stage2, baseline, noise_trials=8)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


SPLITS = ("train", "val", "seq_train", "seq_val")

# sha256 over the path and bytes of every file in the four dataset splits
# (frames.npy and rasters.npy) that gen_data writes for pinned_data_config().
PINNED_SPLITS_SHA256 = "de35247bd29769b9a2cc624af8655fa19c588807e4823dd38fbf7ff433adea82"

# sha256 over every id, pose array and float raster that load_frames returns for
# those splits, recorded when a split was a text record file plus one PPM file
# per frame: the arrays read back do not depend on the file format.
PINNED_LOADED_SHA256 = "7e0b7ef37ecf98613ce34eab00bb256b77c4e3dab349cafce4f2ab4bdef82857"


def pinned_data_config(data_dir):
    # 18 train frames: more than one render_frames chunk
    cfg = config.toy_preset(seed=2024, data_dir=str(data_dir))
    return replace(cfg, scene=replace(cfg.scene, sequence_length=4),
                   data=replace(cfg.data, train_frames=18, val_frames=2,
                                train_sequences=3, val_sequences=2))


def loaded_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for split in SPLITS:
        frames, seq_ids = synth.load_frames(root / split)
        assert all(type(s) is int for s in seq_ids)
        digest.update(repr(seq_ids).encode())
        for f in frames:
            assert type(f.action_id) is int and type(f.object_id) is int
            digest.update(repr((f.action_id, f.object_id)).encode())
            for a in (f.hand_points, f.object_pose.rotation, f.object_pose.translation,
                      f.cuboid.half_extents(), f.object_points, f.raster):
                digest.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return digest.hexdigest()


class TestGenData:
    def test_pinned_split_bytes(self, tmp_path):
        root = pipeline.gen_data(pinned_data_config(tmp_path / "data"))
        digest = hashlib.sha256()
        files = [p for split in SPLITS for p in sorted((root / split).rglob("*")) if p.is_file()]
        for p in files:
            digest.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
        assert len(files) == 2 * len(SPLITS)
        assert digest.hexdigest() == PINNED_SPLITS_SHA256
        assert loaded_digest(root) == PINNED_LOADED_SHA256

    def test_second_run_leaves_only_its_own_files(self, tmp_path):
        cfg = pinned_data_config(tmp_path / "data")
        pipeline.gen_data(cfg)
        root = pipeline.gen_data(replace(cfg, data=replace(cfg.data, train_frames=4)))
        for split in SPLITS:
            assert sorted(p.name for p in (root / split).rglob("*")) == ["frames.npy",
                                                                         "rasters.npy"]
        assert len(synth.load_frames(root / "train")[0]) == 4

    def test_missing_split_directory_is_config_error(self, tmp_path):
        cfg = replace(tiny_config(), out_dir=str(tmp_path / "run"),
                      data=replace(tiny_config().data, dir=str(tmp_path)))
        with pytest.raises(ConfigError, match=re.escape(str(tmp_path / "train" / "frames.npy"))):
            pipeline.train_stage1(cfg)
        assert not (tmp_path / "run").exists()


class TestDeterminism:
    def test_every_stage_is_byte_identical(self, tmp_path, monkeypatch):
        trees = []
        for side in ("a", "b"):
            (tmp_path / side).mkdir()
            monkeypatch.chdir(tmp_path / side)
            run_every_stage()
            trees.append(tree_bytes(tmp_path / side))
        a, b = trees
        assert {"run/stage1.ckpt", "run/stage1_log.csv", "data/train/frames.npy",
                "run/stage2.ckpt", "run/stage2_baseline.ckpt", "run/stage2_log.csv",
                "report/summary.json", "report/importance.csv"} <= set(a)
        assert sorted(a) == sorted(b)
        for name in a:
            assert a[name] == b[name], f"{name} differs between identical runs"
        # reports, logs, manifests and config.txt: one text format with "\n" line ends
        text = {name: data for name, data in a.items() if not name.endswith((".npy", ".ckpt"))}
        assert len(text) == 12
        assert [name for name, data in text.items() if b"\r" in data] == []


# A child process runs every stage and prints how many threads it holds.
CHILD = ("import os, test_pipeline; test_pipeline.run_every_stage(); "
         "print(len(os.listdir('/proc/self/task')))")


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="counts threads in /proc and needs two CPUs for two BLAS threads")
def test_one_and_two_blas_threads_write_the_same_bytes(tmp_path):
    """The bytes of every stage do not depend on the BLAS thread count: each
    side runs in its own process, whose OpenBLAS starts with 1 or 2 threads."""
    path = os.pathsep.join([str(Path(pipeline.__file__).parents[1]), str(Path(__file__).parent)])
    trees = []
    for threads in (1, 2):
        (tmp_path / str(threads)).mkdir()
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)}
        out = subprocess.run([sys.executable, "-W", "error", "-c", CHILD], env=env,
                             cwd=tmp_path / str(threads), capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split()[-1] == str(threads)
        trees.append(tree_bytes(tmp_path / str(threads)))
    one, two = trees
    assert "run/stage1.ckpt" in one and sorted(one) == sorted(two)
    assert [name for name in one if one[name] != two[name]] == []


class TestEmptySplit:
    def test_empty_training_splits_rejected(self, tmp_path):
        cfg = tiny_config()
        cfg = replace(cfg, out_dir=str(tmp_path / "run"), data=replace(
            cfg.data, dir=str(tmp_path / "data"), train_frames=0))
        pipeline.gen_data(cfg)
        with pytest.raises(ConfigError, match="'train'"):
            pipeline.train_stage1(cfg)

        cfg = replace(cfg, data=replace(cfg.data, train_frames=4, train_sequences=0))
        pipeline.gen_data(cfg)
        stage1 = pipeline.train_stage1(cfg)
        with pytest.raises(ConfigError, match="'seq_train'"):
            pipeline.train_stage2(replace(cfg, out_dir=str(tmp_path / "run2")), stage1)
        assert not (tmp_path / "run2").exists()

    def test_empty_validation_splits_rejected(self, tmp_path):
        cfg = tiny_config()
        cfg = replace(cfg, out_dir=str(tmp_path / "run"), data=replace(
            cfg.data, dir=str(tmp_path / "data"), train_frames=4, val_sequences=0))
        pipeline.gen_data(cfg)
        stage1 = pipeline.train_stage1(cfg)
        stage2, _ = pipeline.train_stage2(cfg, stage1)
        report = tmp_path / "report"
        with pytest.raises(ConfigError, match="'seq_val'"):
            pipeline.evaluate(cfg, stage1, report, stage2, noise_trials=2)
        # held-out sizes are not hashed, so the same checkpoints still load
        cfg = replace(cfg, data=replace(cfg.data, val_frames=0))
        pipeline.gen_data(cfg)
        with pytest.raises(ConfigError, match="'val'"):
            pipeline.evaluate(cfg, stage1, report, noise_trials=2)


class TestRunLocation:
    def test_checkpoint_does_not_depend_on_run_location(self, tmp_path):
        cfg = tiny_config()
        cfg = replace(cfg, data=replace(cfg.data, dir=str(tmp_path / "data")))
        pipeline.gen_data(cfg)
        a, b = (pipeline.train_stage1(replace(cfg, out_dir=str(tmp_path / side / "run")))
                for side in ("a", "b"))
        assert a.read_bytes() == b.read_bytes()

        # move the run and its data, re-point the config, change the held-out sizes
        (tmp_path / "a").rename(tmp_path / "moved")
        (tmp_path / "data").rename(tmp_path / "data_moved")
        moved = replace(cfg, out_dir=str(tmp_path / "moved" / "run"),
                        data=replace(cfg.data, dir=str(tmp_path / "data_moved"),
                                     val_frames=3, val_sequences=1))
        ckpt = tmp_path / "moved" / "run" / "stage1.ckpt"
        params = pipeline.load_backbone(moved, ckpt)
        assert set(params.tensors) and params.signature
        with pytest.raises(HashMismatch):
            pipeline.load_backbone(replace(moved, data=replace(moved.data, train_frames=8)), ckpt)

    def test_run_directory_outside_text_form_trains_and_loads(self, tmp_path):
        # out_dir is neither hashed nor written by training, so a path the
        # config text cannot hold is still a valid run directory
        cfg = tiny_config()
        cfg = replace(cfg, data=replace(cfg.data, dir=str(tmp_path / "data")))
        pipeline.gen_data(cfg)
        run = replace(cfg, out_dir=str(tmp_path / "exp#3 "))
        ckpt = pipeline.train_stage1(run)
        assert ckpt.parent == tmp_path / "exp#3 "
        assert set(pipeline.load_backbone(run, ckpt).tensors)

    def test_data_directory_outside_text_form_rejected_before_writing(self, tmp_path):
        cfg = tiny_config()
        cfg = replace(cfg, data=replace(cfg.data, dir=str(tmp_path / "data #1")))
        with pytest.raises(ConfigError, match="cannot hold"):
            pipeline.gen_data(cfg)
        assert list(tmp_path.iterdir()) == []


def mangled(tensors):
    """The tensors without the last one and with the first cut to 2x2."""
    names = list(tensors)
    return {name: np.zeros((2, 2)) if name == names[0] else tensors[name]
            for name in names[:-1]}


class TestLoadBackbone:
    def test_tensors_that_do_not_fit_the_model_rejected(self, tmp_path):
        # the header is right; predict_frames would fail on the missing head.b
        cfg = tiny_config()
        params = net.init_params(cfg.backbone, cfg.grid, cfg.labels, cfg.seed)
        path = tmp_path / "stage1.ckpt"
        net.save_checkpoint(path, mangled(params.tensors), {
            "kind": "backbone", "config_hash": config.config_hash(cfg),
            "signature": params.signature})
        with pytest.raises(ConfigError, match=r"conv0\.w: \(2, 2\), want \(16, 3, 3, 3\), "
                                              r"head\.b: missing, want \(\d+,\)"):
            pipeline.load_backbone(cfg, path)

    @pytest.mark.parametrize("kind", ["interaction", None])
    def test_other_checkpoint_kind_rejected(self, tmp_path, kind):
        # named before the hashes, which a stage-2 checkpoint fails with a
        # misleading message about the tensor signature
        cfg = tiny_config()
        model = ia.init_interaction(cfg.interaction_model_config(), cfg.seed)
        header = {"use_pair_map": True, "config_hash": config.config_hash(cfg)}
        path = tmp_path / "stage2.ckpt"
        net.save_checkpoint(path, model.params, {**header, "kind": kind} if kind else header)
        with pytest.raises(ConfigError, match=f"not a backbone checkpoint: kind {kind!r}"):
            pipeline.load_backbone(cfg, path)


class TestLoadInteraction:
    @pytest.mark.parametrize("header", [
        pytest.param({"kind": "backbone"}, id="backbone"),
        pytest.param({"kind": "interaction"}, id="no-use_pair_map"),
        pytest.param({"use_pair_map": True}, id="no-kind"),
    ])
    def test_other_checkpoint_kind_rejected(self, tmp_path, header):
        # a stage-1 checkpoint of the same config holds conv tensors, not an LSTM
        cfg = tiny_config()
        params = net.init_params(cfg.backbone, cfg.grid, cfg.labels, cfg.seed)
        path = tmp_path / "stage1.ckpt"
        net.save_checkpoint(path, params.tensors, {
            **header, "config_hash": config.config_hash(cfg), "signature": params.signature})
        with pytest.raises(ConfigError, match="not an interaction checkpoint"):
            pipeline.load_interaction(cfg, path)

    @pytest.mark.parametrize("use_pair_map,tensors", [
        pytest.param(True, mangled, id="mangled"),
        pytest.param(False, dict, id="pair-map-tensors-under-baseline-header"),
    ])
    def test_tensors_that_do_not_fit_the_model_rejected(self, tmp_path, use_pair_map, tensors):
        cfg = tiny_config()
        model = ia.init_interaction(cfg.interaction_model_config(), cfg.seed)
        path = tmp_path / "stage2.ckpt"
        net.save_checkpoint(path, tensors(model.params), {
            "kind": "interaction", "use_pair_map": use_pair_map,
            "config_hash": config.config_hash(cfg)})
        with pytest.raises(ConfigError, match="does not hold the model's tensors"):
            pipeline.load_interaction(cfg, path)


class TestPredictFrames:
    @pytest.fixture(scope="class")
    def model(self):
        cfg = config.toy_preset(seed=7)
        frames = [synth.sample_scene((7, i), cfg.scene) for i in range(20)]
        return cfg, net.init_params(cfg.backbone, cfg.grid, cfg.labels, 7), frames

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, model, batch_size):
        cfg, params, frames = model
        with pytest.raises(ConfigError, match="batch_size"):
            pipeline.predict_frames(cfg, params, frames, batch_size=batch_size)

    def test_no_frames_give_no_predictions(self, model):
        cfg, params, _ = model
        assert pipeline.predict_frames(cfg, params, []) == []

    def test_predictions_do_not_depend_on_batch_size(self, model):
        # 20 frames at batch 7 leave a ragged last batch of 6
        cfg, params, frames = model
        ref, *others = (pipeline.predict_frames(cfg, params, frames, batch_size=b)
                        for b in (1, 7, 64))
        assert len(ref) == len(frames)
        for preds in others:
            assert len(preds) == len(ref)
            for got, want in zip(preds, ref):
                assert (got.hand_cell, got.object_cell) == (want.hand_cell, want.object_cell)
                for name in ("hand_points", "object_points", "action_probs", "object_probs"):
                    np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                               rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("saturated", [False, True])
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_matches_dense_forward_decode_and_prune(self, model, batch_size, saturated):
        cfg, params, frames = model
        params = float64(params)   # the dense path sums in another order
        # a NaN pixel in frame 1 gives a patch of its cells NaN confidences
        raster = frames[1].raster.copy()
        raster[1, 30, 21] = np.nan
        frames = [frames[0], replace(frames[1], raster=raster)] + frames[2:]
        labels = cfg.labels
        if saturated:
            # hand confidences of depths 1 and 2 and object confidences of
            # depth 2 round to exactly 1.0, so those cells tie
            params = params.copy()
            c = labels.cell_channels
            params.tensors["head.b"][[c + labels.hand_slot - 1, 2 * c + labels.hand_slot - 1,
                                      3 * c - 1]] = 60.0
        got = pipeline.predict_frames(cfg, params, frames, batch_size=batch_size)
        raw = net.forward(params, np.stack([f.raster for f in frames]),
                          cfg.backbone, cfg.grid, labels)
        assert len(got) == len(frames)
        for i, (g, frame) in enumerate(zip(got, raw)):
            want = codec.prune(codec.decode_grid(frame, cfg.grid, labels), cfg.grid, cfg.camera)
            assert (g.hand_cell, g.object_cell) == (want.hand_cell, want.object_cell), i
            for name in ("hand_points", "object_points", "action_probs", "object_probs",
                         "hand_confidence", "object_confidence"):
                np.testing.assert_allclose(getattr(g, name), getattr(want, name),
                                           rtol=1e-12, atol=1e-12, err_msg=f"{name} {i}")
        assert np.isnan(got[1].hand_confidence) and np.isnan(got[1].object_confidence)
        if saturated:
            # among the tied cells the lowest u-major index wins; NaN beats them
            for p in got[:1] + got[2:]:
                assert (p.hand_cell, p.hand_confidence) == ((0, 0, 1), 1.0)
                assert (p.object_cell, p.object_confidence) == ((0, 0, 2), 1.0)

    def test_training_and_prediction_never_run_the_dense_head(self, model, monkeypatch):
        cfg, params, frames = model
        targets = net.BatchTargets.from_scenes(frames[:4], cfg.grid, cfg.labels, cfg.camera,
                                               np.stack([f.raster for f in frames[:4]]))
        want_loss, _, _ = net.multitask_loss(params, targets, cfg.loss, cfg.backbone,
                                             cfg.grid, cfg.labels)

        def dense(*args, **kwargs):
            raise AssertionError("the dense head ran")

        for name in ("forward_graph", "forward", "loss_graph"):
            monkeypatch.setattr(net, name, dense)
        loss, _, _ = net.multitask_loss(params, targets, cfg.loss, cfg.backbone,
                                        cfg.grid, cfg.labels)
        assert loss == want_loss
        net.sgd_epoch(params.copy(), targets, 0.01, cfg.loss, cfg.backbone, cfg.grid,
                      cfg.labels, np.random.default_rng(0), batch_size=2)
        assert len(pipeline.predict_frames(cfg, params, frames, batch_size=7)) == len(frames)

    def test_frame_without_raster_is_named(self, model):
        cfg, params, frames = model
        bare = synth.sample_scene((7, 99), cfg.scene, with_raster=False)
        with pytest.raises(ShapeMismatch, match="frame 3 has no raster"):
            pipeline.predict_frames(cfg, params, frames[:3] + [bare] + frames[3:], batch_size=2)

    def test_raster_of_another_shape_is_named(self, model):
        cfg, params, frames = model
        small = replace(frames[5], raster=frames[5].raster[:, :28, :28])
        with pytest.raises(ShapeMismatch, match=r"frame 5 has a raster of shape \(3, 28, 28\)"):
            pipeline.predict_frames(cfg, params, frames[:5] + [small] + frames[6:])


class TestSequenceDataset:
    def test_sequences_in_id_order_labelled_by_their_first_frame(self, tmp_path):
        cfg = replace(tiny_config(), data=replace(tiny_config().data, dir=str(tmp_path)))
        late = synth.sample_sequence(1, 2, 1, cfg.scene)
        early = synth.sample_sequence(2, 0, 2, cfg.scene)
        synth.save_frames(tmp_path / "seq_val", late.frames + early.frames, [7] * 4 + [3] * 4)
        params = net.init_params(cfg.backbone, cfg.grid, cfg.labels, cfg.seed)
        inputs, labels = pipeline._sequence_dataset(cfg, params, "seq_val")
        preds = pipeline.predict_frames(cfg, params, synth.load_frames(tmp_path / "seq_val")[0])
        icfg = cfg.interaction_model_config()
        np.testing.assert_array_equal(inputs, np.stack([ia.sequence_inputs(icfg, preds[4:]),
                                                        ia.sequence_inputs(icfg, preds[:4])]))
        assert labels.tolist() == [early.interaction_id, late.interaction_id]

    def test_sequences_of_unequal_length_are_named(self, tmp_path):
        cfg = replace(tiny_config(), data=replace(tiny_config().data, dir=str(tmp_path)))
        whole = synth.sample_sequence(1, 2, 1, cfg.scene)
        cut = synth.sample_sequence(2, 0, 2, cfg.scene)
        synth.save_frames(tmp_path / "seq_train", whole.frames + cut.frames[:3], [0] * 4 + [1] * 3)
        params = net.init_params(cfg.backbone, cfg.grid, cfg.labels, cfg.seed)
        with pytest.raises(ConfigError, match=r"'seq_train'.*\{1: 3\}.*other 1, which hold 4 "):
            pipeline._sequence_dataset(cfg, params, "seq_train")


class TestPoseNoiseSweep:
    @pytest.fixture(scope="class")
    def rows(self):
        return pipeline.pose_noise_sweep(config.toy_preset(), trials=40)

    def test_rows_follow_noise_levels(self, rows):
        assert [r["level"] for r in rows] == list(pipeline.NOISE_LEVELS)

    def test_noise_free_points_recover_the_pose(self, rows):
        assert rows[0]["procrustes_add"] < 1e-12
        assert rows[0]["pnp_add"] < 1e-12

    def test_procrustes_error_grows_with_noise(self, rows):
        adds = [r["procrustes_add"] for r in rows]
        assert all(a < b for a, b in zip(adds, adds[1:])), adds

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_is_config_error(self, trials):
        with pytest.raises(ConfigError, match=f"at least 1 trial, got {trials}"):
            pipeline.pose_noise_sweep(config.toy_preset(), trials=trials)

    def test_evaluate_without_trials_writes_no_report(self, tmp_path):
        with pytest.raises(ConfigError, match="at least 1 trial, got 0"):
            pipeline.evaluate(tiny_config(), tmp_path / "stage1.ckpt", tmp_path / "report",
                              noise_trials=0)
        assert not (tmp_path / "report").exists()


class TestEvaluate:
    def test_baseline_without_stage2_writes_no_report(self, tmp_path):
        with pytest.raises(ConfigError, match="baseline_ckpt is scored only beside stage2_ckpt"):
            pipeline.evaluate(tiny_config(), tmp_path / "stage1.ckpt", tmp_path / "report",
                              baseline_ckpt=tmp_path / "stage2_baseline.ckpt", noise_trials=2)
        assert not (tmp_path / "report").exists()

    def test_every_curve_holds_one_value_per_val_frame(self, tmp_path, monkeypatch):
        # the middle prediction's object points sit around a centroid behind
        # the camera: its Procrustes pose has an ADD but no 2D error
        cfg = config.toy_preset()
        frames = [synth.sample_scene((1, i), cfg.scene) for i in range(3)]
        one_hot = np.eye(cfg.labels.n_actions)[0], np.eye(cfg.labels.n_objects)[0]
        preds = [codec.FramePrediction(f.hand_points, 1.0, one_hot[0], (0, 0, 0),
                                       f.object_points, 1.0, one_hot[1], (0, 0, 0))
                 for f in frames]
        shifted = frames[1].object_points.copy()
        shifted[:, 2] -= shifted[:, 2].mean() + 0.01
        preds[1] = replace(preds[1], object_points=shifted)
        monkeypatch.setattr(pipeline, "load_backbone", lambda cfg, ckpt: None)
        monkeypatch.setattr(pipeline, "_load_split", lambda cfg, split: (frames, [0, 1, 2]))
        monkeypatch.setattr(pipeline, "predict_frames", lambda cfg, params, frames: preds)
        ckpt = tmp_path / "stage1.ckpt"
        ckpt.write_bytes(b"unread")

        summary = pipeline.evaluate(cfg, ckpt, tmp_path / "report", noise_trials=2)
        curves = {name: np.loadtxt(tmp_path / "report" / f"{name}.csv", delimiter=",",
                                   skiprows=1)
                  for name in ("pck3d", "add_sweep", "proj2d_sweep")}
        for name, curve in curves.items():
            assert curve.shape == (41, 2), name
            np.testing.assert_allclose(curve[:, 1] * 3, np.round(curve[:, 1] * 3), atol=1e-9,
                                       err_msg=name)
        assert curves["add_sweep"][-1, 1] == pytest.approx(2 / 3)    # at the mean diameter
        assert curves["proj2d_sweep"][-1, 1] == pytest.approx(2 / 3)
        assert summary["object_add_mean_m"] == pytest.approx(
            (frames[1].object_points[:, 2].mean() + 0.01) / 3)
