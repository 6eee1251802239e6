"""Stage orchestration: identical seeds must give identical bytes."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridpose import config, network as net, pipeline, synth
from gridpose.errors import ConfigError, HashMismatch


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


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestDeterminism:
    def test_every_stage_is_byte_identical(self, tmp_path, monkeypatch):
        trees = []
        for side in ("a", "b"):
            (tmp_path / side).mkdir()
            monkeypatch.chdir(tmp_path / side)
            cfg = tiny_config()
            pipeline.gen_data(cfg)
            stage1 = pipeline.train_stage1(cfg)
            stage2, baseline = pipeline.train_stage2(cfg, stage1)
            pipeline.evaluate(cfg, stage1, "report", stage2, baseline, noise_trials=8)
            trees.append(tree_bytes(tmp_path / side))
        a, b = trees
        assert {"run/stage1.ckpt", "run/stage1_log.csv", "data/train/frames.txt",
                "run/stage2.ckpt", "run/stage2_baseline.ckpt", "run/stage2_log.csv",
                "report/summary.json", "report/importance.csv"} <= set(a)
        assert sorted(a) == sorted(b)
        for name in a:
            assert a[name] == b[name], f"{name} differs between identical runs"


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
            pipeline.train_stage2(cfg, stage1)

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
