"""Run configuration: the flat text form, the config hash and validation."""

from dataclasses import replace

import numpy as np
import pytest

from gridpose import config
from gridpose import interaction as ia
from gridpose import synth
from gridpose.errors import ConfigError, ConfigOutOfRange


def variant_config():
    """Non-default values in every section, including empty schedules."""
    cfg = config.toy_preset(seed=7, out_dir="runs/variant", data_dir="data/variant")
    return replace(
        cfg,
        scene=replace(cfg.scene, sequence_length=8, tilt_max=0.3, margin_z_cells=0.5,
                      object_sizes=((0.02, 0.03, 0.04),) * 3,
                      render=synth.RenderSpec(channels=1, bone_gain=0.3)),
        optim=replace(cfg.optim, lr=1 / 3, schedule_epochs=(), conf_targets="fixed"),
        interaction=replace(cfg.interaction, include_class_probs=True,
                            root_relative=False, schedule_epochs=()),
        aug=config.AugConfig(enabled=True, photometric=False, translate_frac=0.05),
        data=replace(cfg.data, train_frames=64, val_frames=7),
    )


CONFIGS = {"toy": config.toy_preset, "variant": variant_config}


class TestFlatText:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_round_trip(self, name):
        cfg = CONFIGS[name]()
        assert config.config_from_flat(config.parse_flat_text(config.config_to_text(cfg))) == cfg

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_hash_ignores_formatting(self, name):
        cfg = CONFIGS[name]()
        lines = config.config_to_text(cfg).splitlines()
        order = np.random.default_rng(3).permutation(len(lines))
        text = "# a hand-edited copy\n\n"
        for i in order:
            key, value = lines[i].split(" = ")
            text += f"   {key}={value}\t# was line {i}\n\n"
        assert config.parse_flat_text(text) == config.config_to_flat(cfg)
        reparsed = config.config_from_flat(config.parse_flat_text(text))
        assert config.config_hash(reparsed) == config.config_hash(cfg)

    def test_hash_leaves_out_run_location(self):
        cfg = variant_config()
        moved = replace(cfg, out_dir="/elsewhere/run",
                        data=replace(cfg.data, dir="/elsewhere/data", val_frames=1,
                                     val_sequences=2))
        assert config.config_hash(moved) == config.config_hash(cfg)
        assert "out_dir = /elsewhere/run\n" in config.config_to_text(moved)
        for changed in (replace(cfg, seed=8),
                        replace(cfg, data=replace(cfg.data, train_frames=65)),
                        replace(cfg, data=replace(cfg.data, train_sequences=1))):
            assert config.config_hash(changed) != config.config_hash(cfg)

    def test_paper_preset_is_out_of_range(self):
        # it asks for 10 actions, synth has generators for 4
        with pytest.raises(ConfigOutOfRange, match="action generators"):
            config.paper_preset()


class TestInteractionTrainConfig:
    def test_presets_construct(self):
        assert config.toy_preset().interaction.epochs == 120
        # paper_preset's stage-2 settings are the defaults with 512 wide layers
        config.InteractionTrainConfig(feature_width=512, lstm_width=512, lstm_layers=2)

    @pytest.mark.parametrize("field,value", [
        ("lr", -0.1), ("epochs", 0), ("batch_size", 0),
        ("feature_width", 0), ("lstm_width", 0), ("lstm_layers", 0),
    ])
    def test_out_of_range_setting_rejected(self, field, value):
        with pytest.raises(ConfigError):
            replace(config.toy_preset().interaction, **{field: value})

    @pytest.mark.parametrize("schedule", [(120,), (10, 200)])
    def test_schedule_past_last_epoch_rejected(self, schedule):
        with pytest.raises(ConfigError, match="schedule"):
            replace(config.toy_preset().interaction, schedule_epochs=schedule)

    def test_flat_text_with_zero_batch_rejected(self):
        flat = config.config_to_flat(config.toy_preset())
        flat["interaction.batch_size"] = "0"
        with pytest.raises(ConfigError):
            config.config_from_flat(flat)


class TestSgdEpochSequences:
    def test_negative_learning_rate_rejected(self):
        cfg = ia.InteractionConfig(n_classes=2, feature_width=4, lstm_width=3, lstm_layers=1)
        model = ia.init_interaction(cfg, seed=0)
        inputs = np.zeros((2, 3, cfg.input_width))
        with pytest.raises(ConfigError, match="learning rate"):
            ia.sgd_epoch_sequences(model, inputs, np.array([0, 1]), -0.1,
                                   np.random.default_rng(0))
