"""Run configuration: validation of the stage-2 training settings."""

from dataclasses import replace

import numpy as np
import pytest

from gridpose import config
from gridpose import interaction as ia
from gridpose.errors import ConfigError


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
