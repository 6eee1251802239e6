"""Run configuration: presets, the flat key=value config format, hashing.

Config files are plain text, one `key = value` per line, `#` comments.
Each key is a section prefix from _SECTIONS, a dot and a dataclass field
name (`grid.h = 7` sets RunConfig.scene.grid.h); the empty prefix stands
for RunConfig's own fields, which take no dot (`seed = 0`). A value is
read by its field's type hint, which is int, float, str or a tuple of
them: lists are comma-separated (`backbone.channels = 16,32,64`) and
the object size table separates triples with semicolons
(`synth.object_sizes = 0.02,0.03,0.04;...`).
A string holding `#`, a line break or outer spaces cannot be read back,
so config_to_text raises ConfigError for one; the hash does not.
The config hash is the SHA-256 of the canonicalized serialization
(sorted keys, normalized spacing), so formatting and comments never
change identity. It leaves out RUN_LOCATION_KEYS, on which no checkpoint
depends, so a run directory can be moved or re-split and still load.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from functools import reduce
from typing import get_args, get_origin, get_type_hints

from .codec import LabelSpec
from .errors import ConfigError
from .geometry import CameraIntrinsics, GridSpec
from .interaction import InteractionConfig
from .network import BackboneConfig, LossWeights
from .synth import SceneParams


class _StepSchedule:
    """Range checks and the step learning-rate schedule shared by both
    training stages: lr drops by schedule_factor at each schedule epoch."""

    def _check_schedule(self, what: str) -> None:
        if self.lr < 0 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"{what} settings out of range")
        if any(not 0 <= e < self.epochs for e in self.schedule_epochs):
            raise ConfigError(f"{what} schedule epochs must lie in [0, total epochs)")
        if self.schedule_factor < 0:
            raise ConfigError(f"{what} schedule_factor must be >= 0")

    def lr_at(self, epoch: int) -> float:
        drops = sum(1 for e in self.schedule_epochs if epoch >= e)
        return self.lr * self.schedule_factor ** drops


@dataclass(frozen=True)
class OptimConfig(_StepSchedule):
    lr: float = 1e-4
    epochs: int = 200
    batch_size: int = 16
    schedule_epochs: tuple[int, ...] = (80, 160)
    schedule_factor: float = 0.1
    conf_targets: str = "online"

    def __post_init__(self):
        self._check_schedule("optimizer")
        if self.conf_targets not in ("online", "fixed"):
            raise ConfigError("conf_targets must be 'online' or 'fixed'")


@dataclass(frozen=True)
class InteractionTrainConfig(_StepSchedule):
    feature_width: int = 512
    lstm_width: int = 512
    lstm_layers: int = 2
    lr: float = 0.05
    epochs: int = 150
    batch_size: int = 16
    schedule_epochs: tuple[int, ...] = (100,)
    schedule_factor: float = 0.1

    def __post_init__(self):
        self._check_schedule("interaction training")
        if self.feature_width < 1 or self.lstm_width < 1 or self.lstm_layers < 1:
            raise ConfigError("interaction widths and layer counts must be >= 1")


@dataclass(frozen=True)
class DataConfig:
    dir: str = "data"
    train_frames: int = 500
    val_frames: int = 100
    train_sequences: int = 200
    val_sequences: int = 60

    def __post_init__(self):
        if min(self.train_frames, self.val_frames, self.train_sequences, self.val_sequences) < 0:
            raise ConfigError("data split sizes must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    scene: SceneParams
    backbone: BackboneConfig
    loss: LossWeights
    optim: OptimConfig
    interaction: InteractionTrainConfig
    data: DataConfig
    seed: int = 0
    out_dir: str = "runs/run"

    @property
    def grid(self) -> GridSpec:
        return self.scene.grid

    @property
    def camera(self) -> CameraIntrinsics:
        return self.scene.cam

    @property
    def labels(self) -> LabelSpec:
        return self.scene.labels

    def interaction_model_config(self, use_pair_map: bool = True) -> InteractionConfig:
        it = self.interaction
        return InteractionConfig(
            n_classes=self.labels.n_interactions,
            feature_width=it.feature_width,
            lstm_width=it.lstm_width,
            lstm_layers=it.lstm_layers,
            use_pair_map=use_pair_map,
        )


def toy_preset(seed: int = 0, out_dir: str = "runs/toy", data_dir: str = "data/toy") -> RunConfig:
    """Desk-scale preset used by the acceptance suite: 7x7x3 grid, 56px."""
    grid = GridSpec(h=7, w=7, d=3, cell_u_px=8.0, cell_v_px=8.0, cell_z_m=0.15,
                    z_min=0.3, sharpness=2.0, cutoff_px=12.0, cutoff_m=0.075)
    cam = CameraIntrinsics(fx=80.0, fy=80.0, cx=28.0, cy=28.0)
    labels = LabelSpec(n_objects=3, n_actions=4)
    return RunConfig(
        scene=SceneParams(grid=grid, cam=cam, labels=labels),
        backbone=BackboneConfig(channels=(16, 32, 64, 64, 96), strides=(2, 2, 2, 1, 1)),
        loss=LossWeights(),
        optim=OptimConfig(lr=5e-3, epochs=30, batch_size=16,
                          schedule_epochs=(12, 24), schedule_factor=0.1),
        interaction=InteractionTrainConfig(
            feature_width=64, lstm_width=48, lstm_layers=2,
            lr=0.08, epochs=120, batch_size=16, schedule_epochs=(80,)),
        data=DataConfig(dir=data_dir, train_frames=500, val_frames=100,
                        train_sequences=200, val_sequences=60),
        seed=seed,
        out_dir=out_dir,
    )


def paper_preset(seed: int = 0, out_dir: str = "runs/paper", data_dir: str = "data/paper") -> RunConfig:
    """Full-scale hyperparameters: 13x13x5 grid over 416px images, SGD at
    1e-4 dropped 10x at epochs 80 and 160, batch 16, 200 epochs.

    The backbone stays a small strided stack; with synthetic desk scenes
    this preset exercises the machinery, it does not reproduce published
    accuracy (that needs the real recordings and the full-size network).
    Stage 1 trains on the rendered frames as they are, without the
    paper's colour and translation jitter.
    """
    grid = GridSpec(h=13, w=13, d=5, cell_u_px=32.0, cell_v_px=32.0, cell_z_m=0.15,
                    z_min=0.0, sharpness=2.0, cutoff_px=75.0, cutoff_m=0.075)
    cam = CameraIntrinsics(fx=600.0, fy=600.0, cx=208.0, cy=208.0)
    labels = LabelSpec(n_objects=4, n_actions=10)
    return RunConfig(
        scene=SceneParams(
            grid=grid, cam=cam, labels=labels,
            margin_z_cells=1.2,
            object_sizes=((0.025, 0.030, 0.045), (0.040, 0.050, 0.065),
                          (0.055, 0.070, 0.090), (0.035, 0.075, 0.035)),
        ),
        backbone=BackboneConfig(channels=(32, 64, 128, 256, 512), strides=(2, 2, 2, 2, 2)),
        loss=LossWeights(),
        optim=OptimConfig(lr=1e-4, epochs=200, batch_size=16,
                          schedule_epochs=(80, 160), schedule_factor=0.1),
        interaction=InteractionTrainConfig(feature_width=512, lstm_width=512,
                                           lstm_layers=2),
        data=DataConfig(dir=data_dir),
        seed=seed,
        out_dir=out_dir,
    )


# -- flat text form -------------------------------------------------------------

# Attribute path of each section's dataclass in RunConfig -> its flat key prefix.
_SECTIONS = {
    ("scene", "grid"): "grid", ("scene", "cam"): "camera",
    ("scene", "labels"): "labels", ("scene", "render"): "render", ("scene",): "synth",
    ("backbone",): "backbone", ("loss",): "loss", ("optim",): "optim",
    ("interaction",): "interaction", ("data",): "data", (): "",
}


def _build_schema():
    """Sections deepest first as (attribute path, dataclass), and every leaf
    field as (flat key, attribute path, type hint)."""
    sections, leaves = [], []
    for path in sorted(_SECTIONS, key=len, reverse=True):
        cls = reduce(lambda c, name: get_type_hints(c)[name], path, RunConfig)
        hints = get_type_hints(cls)
        sections.append((path, cls))
        leaves += [(f"{_SECTIONS[path]}.{f.name}".lstrip("."), path + (f.name,), hints[f.name])
                   for f in fields(cls) if path + (f.name,) not in _SECTIONS]
    return tuple(sections), tuple(leaves)


_SCHEMA_SECTIONS, _SCHEMA_LEAVES = _build_schema()
_KEYS = frozenset(key for key, _, _ in _SCHEMA_LEAVES)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        sep = ";" if value and isinstance(value[0], tuple) else ","
        return sep.join(_fmt(v) for v in value)
    return str(value)


def _parse(raw: str, hint):
    if get_origin(hint) is not tuple:
        value = hint(raw)
        if hint is float and not math.isfinite(value):
            raise ValueError(raw)
        return value
    args = get_args(hint)
    sep = ";" if get_origin(args[0]) is tuple else ","
    items = tuple(_parse(part, args[0]) for part in raw.split(sep)) if raw else ()
    if ... not in args and len(items) != len(args):
        raise ValueError(raw)
    return items


def config_to_flat(cfg: RunConfig) -> dict[str, str]:
    return {key: _fmt(reduce(getattr, path, cfg)) for key, path, _ in _SCHEMA_LEAVES}


def config_to_text(cfg: RunConfig) -> str:
    flat = config_to_flat(cfg)
    for key, value in flat.items():
        # parse_flat_text cuts at '#', strips spaces and splits lines
        if "#" in value or value != value.strip() or len(value.splitlines()) > 1:
            raise ConfigError(f"config key {key!r} has value {value!r}, "
                              "which the text form cannot hold")
    return "".join(f"{k} = {flat[k]}\n" for k in sorted(flat))


def parse_flat_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _get(flat: dict[str, str], key: str, hint):
    if key not in flat:
        raise ConfigError(f"missing config key {key!r}")
    raw = flat[key]
    try:
        return _parse(raw, hint)
    except ValueError as e:
        raise ConfigError(f"config key {key!r} has malformed value {raw!r}") from e


def config_from_flat(flat: dict[str, str]) -> RunConfig:
    unknown = set(flat) - _KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values = {path: _get(flat, key, hint) for key, path, hint in _SCHEMA_LEAVES}
    for path, cls in _SCHEMA_SECTIONS:
        values[path] = cls(**{f.name: values.pop(path + (f.name,)) for f in fields(cls)})
    return values[()]


def load_config(path) -> RunConfig:
    with open(path) as f:
        return config_from_flat(parse_flat_text(f.read()))


def save_config(path, cfg: RunConfig) -> None:
    text = config_to_text(cfg)
    with open(path, "w") as f:
        f.write(text)


RUN_LOCATION_KEYS = ("out_dir", "data.dir", "data.val_frames", "data.val_sequences")


def config_hash(cfg: RunConfig) -> str:
    """Digest of the canonical serialization without RUN_LOCATION_KEYS; ignores formatting."""
    flat = sorted(config_to_flat(cfg).items())
    text = "".join(f"{k} = {v}\n" for k, v in flat if k not in RUN_LOCATION_KEYS)
    return hashlib.sha256(text.encode()).hexdigest()
