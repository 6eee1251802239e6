"""Run configuration: the flat text form, the config hash and validation."""

import dataclasses
import hashlib
import typing
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
                      render=synth.RenderSpec(bone_gain=0.3)),
        backbone=replace(cfg.backbone, channels=(8, 16, 32, 32, 48)),
        optim=replace(cfg.optim, lr=1 / 3, schedule_epochs=()),
        interaction=replace(cfg.interaction, lstm_width=5, schedule_epochs=()),
        data=replace(cfg.data, train_frames=64, val_frames=7),
    )


CONFIGS = {"toy": config.toy_preset, "variant": variant_config}

# (config_hash, sha256 of config_to_text). Checkpoints record the config hash,
# so a change here stops every saved checkpoint from loading.
PINNED = {
    "toy": ("05c93e05836d180a193ba14f2dd7cd402538933459ee40c5eb4e8de76108ad6e",
            "fd76971b16d25ca3a303630b92a47c864736fe50e6583db1dbf6cf5238139df2"),
    "variant": ("1fbcfbd2051c2bd068f49e47fa98c9686484c1923ac016bb7ba5981a60a54d97",
                "42bde87281f0728ecf89c7f57a97dc0b307bd010759481ac0153275a5aefe5d0"),
}


def toy_text():
    return config.config_to_text(config.toy_preset())


def with_value(key, value):
    """The toy preset's text with one key's value replaced."""
    return "".join(f"{key} = {value}\n" if line.startswith(f"{key} = ") else line
                   for line in toy_text().splitlines(keepends=True))


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

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_hash_and_text_are_pinned(self, name):
        cfg = CONFIGS[name]()
        text = config.config_to_text(cfg)
        assert (config.config_hash(cfg), hashlib.sha256(text.encode()).hexdigest()) == PINNED[name]

    def test_save_load_round_trip(self, tmp_path):
        cfg = variant_config()
        config.save_config(tmp_path / "config.txt", cfg)
        assert config.load_config(tmp_path / "config.txt") == cfg

    @pytest.mark.parametrize("value", [
        pytest.param("runs/#1", id="comment"), pytest.param(" runs/x ", id="outer-spaces"),
        pytest.param("runs/x ", id="trailing-space"), pytest.param("runs\nx", id="newline"),
        pytest.param("runs\rx", id="carriage-return"),
    ])
    def test_string_that_cannot_round_trip_rejected(self, value, tmp_path):
        cfg = config.toy_preset()
        for bad in (replace(cfg, out_dir=value), replace(cfg, data=replace(cfg.data, dir=value))):
            with pytest.raises(ConfigError, match="cannot hold"):
                config.save_config(tmp_path / "config.txt", bad)
        assert not (tmp_path / "config.txt").exists()

    @pytest.mark.parametrize("text,match", [
        pytest.param(toy_text() + "grid.q = 1\n", "unknown config keys", id="unknown"),
        pytest.param(toy_text().replace("grid.h = 7\n", ""), "missing config key 'grid.h'",
                     id="missing"),
        pytest.param(toy_text() + "grid.h = 7\n", "duplicate key 'grid.h'", id="duplicate"),
        pytest.param(toy_text() + "grid.h 7\n", "expected 'key = value'", id="no-equals"),
    ])
    def test_malformed_text_rejected(self, text, match):
        with pytest.raises(ConfigError, match=match):
            config.config_from_flat(config.parse_flat_text(text))

    @pytest.mark.parametrize("key,value", [
        ("grid.h", "1.5"),
        ("backbone.channels", "16,x,64,64,96"), ("backbone.channels", "16,,64,64,96"),
        ("synth.hand_scale_range", "0.9"),
        ("synth.object_sizes", "0.02,0.03,0.04;0.05,0.06;0.07,0.08,0.09"),
        ("synth.object_sizes", "0.02,0.03,0.04;0.05,x,0.06;0.07,0.08,0.09"),
        ("optim.lr", "nan"),
        ("grid.cell_u_px", "inf"), ("grid.cell_u_px", "-inf"),
        ("synth.hand_scale_range", "0.9,nan"),
    ])
    def test_malformed_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key!r} has malformed value"):
            config.config_from_flat(config.parse_flat_text(with_value(key, value)))

    def test_schema_covers_every_field(self):
        leaves, sections = [], []

        def walk(cls, path):
            sections.append(path)
            hints = typing.get_type_hints(cls)
            for f in dataclasses.fields(cls):
                if dataclasses.is_dataclass(hints[f.name]):
                    walk(hints[f.name], path + (f.name,))
                else:
                    leaves.append(path + (f.name,))

        walk(config.RunConfig, ())
        keys = [key for key, _, _ in config._SCHEMA_LEAVES]
        assert sorted(path for _, path, _ in config._SCHEMA_LEAVES) == sorted(leaves)
        assert len(set(keys)) == len(keys) == len(leaves)
        assert sorted(path for path, _ in config._SCHEMA_SECTIONS) == sorted(sections)
        assert sorted(config.config_to_flat(config.toy_preset())) == sorted(keys)

    def test_every_leaf_has_a_type_the_parser_reads(self):
        # _parse reads int, float and str, and tuples of them; it would read
        # a bool field's "false" as bool("false"), which is True
        def readable(hint):
            if typing.get_origin(hint) is tuple:
                return all(arg is ... or readable(arg) for arg in typing.get_args(hint))
            return hint in (int, float, str)

        unread = [(key, hint) for key, _, hint in config._SCHEMA_LEAVES if not readable(hint)]
        assert unread == []

    def test_hash_accepts_run_location_outside_text_form(self):
        cfg = variant_config()
        moved = replace(cfg, out_dir="runs/exp#3", data=replace(cfg.data, dir="data #1 "))
        assert config.config_hash(moved) == config.config_hash(cfg)

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

    def test_label_space_is_two_class_counts(self):
        flat = config.config_to_flat(config.toy_preset())
        assert sorted(k for k in flat if k.startswith("labels.")) == [
            "labels.n_actions", "labels.n_objects"]
        assert config.toy_preset().labels.n_interactions == 12

    @pytest.mark.parametrize("line", ["labels.n_interactions = 12", "labels.n_interactions = 6",
                                      "labels.n_control = 21", "labels.n_control = 20"])
    def test_derived_label_sizes_cannot_be_set(self, line):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config.config_from_flat(config.parse_flat_text(toy_text() + line + "\n"))

    @pytest.mark.parametrize("key", ["render.channels", "backbone.in_channels"])
    def test_image_channel_count_cannot_be_set(self, key):
        # rasters and the backbone input always have geometry.IMAGE_CHANNELS planes
        with pytest.raises(ConfigError, match=rf"unknown config keys: \['{key}'\]"):
            config.config_from_flat(config.parse_flat_text(toy_text() + f"{key} = 3\n"))

    @pytest.mark.parametrize("key,value", [
        ("backbone.kernel", "3"), ("backbone.leak", "0.1"), ("optim.conf_targets", "online"),
        ("optim.schedule_factor", "0.1"), ("interaction.schedule_factor", "0.1"),
        ("interaction.lstm_layers", "2"), ("grid.sharpness", "2.0"), ("grid.cutoff_m", "0.075"),
    ])
    def test_method_constant_cannot_be_set(self, key, value):
        # properties of the method are constants, not keys (see the config module)
        with pytest.raises(ConfigError, match=rf"unknown config keys: \['{key}'\]"):
            config.config_from_flat(config.parse_flat_text(toy_text() + f"{key} = {value}\n"))

    def test_paper_preset_is_out_of_range(self):
        # it asks for 10 actions, synth has generators for 4
        with pytest.raises(ConfigOutOfRange, match="action generators"):
            config.paper_preset()


class TestDataConfig:
    FIELDS = ["train_frames", "val_frames", "train_sequences", "val_sequences"]

    @pytest.mark.parametrize("field", FIELDS)
    def test_negative_count_rejected(self, field):
        cfg = config.toy_preset()
        with pytest.raises(ConfigError, match="split sizes"):
            replace(cfg.data, **{field: -3})
        flat = config.config_to_flat(cfg)
        flat[f"data.{field}"] = "-3"
        with pytest.raises(ConfigError, match="split sizes"):
            config.config_from_flat(flat)

    def test_zero_counts_allowed(self):
        data = replace(config.toy_preset().data, **dict.fromkeys(self.FIELDS, 0))
        assert config.config_from_flat(config.config_to_flat(
            replace(config.toy_preset(), data=data))).data == data


class TestInteractionTrainConfig:
    """Stage-2 training settings; `optim.` cases check the stage-1 OptimConfig,
    which shares the range and schedule checks."""

    def test_presets_construct(self):
        assert config.toy_preset().interaction.epochs == 120
        # paper_preset's stage-2 settings are the defaults with 512 wide layers
        config.InteractionTrainConfig(feature_width=512, lstm_width=512)

    @pytest.mark.parametrize("field,value", [
        ("lr", -0.1), ("epochs", 0), ("batch_size", 0),
        ("feature_width", 0), ("lstm_width", 0),
        ("optim.lr", -0.1), ("optim.epochs", 0), ("optim.batch_size", 0),
        pytest.param("optim.schedule_epochs", (12, 30), id="optim.schedule_epochs-12,30"),
        pytest.param("schedule_epochs", (-1,), id="schedule_epochs--1"),
        pytest.param("optim.schedule_epochs", (-1, 12), id="optim.schedule_epochs--1,12"),
    ])
    def test_out_of_range_setting_rejected(self, field, value):
        section, _, name = field.rpartition(".")
        with pytest.raises(ConfigError):
            replace(getattr(config.toy_preset(), section or "interaction"), **{name: value})

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
        cfg = ia.InteractionConfig(n_classes=2, feature_width=4, lstm_width=3)
        model = ia.init_interaction(cfg, seed=0)
        inputs = np.zeros((2, 3, cfg.input_width))
        with pytest.raises(ConfigError, match="learning rate"):
            ia.sgd_epoch_sequences(model, inputs, np.array([0, 1]), -0.1,
                                   np.random.default_rng(0))
