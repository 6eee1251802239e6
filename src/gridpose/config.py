"""Run configuration: presets, the flat key=value config format, hashing.

Config files are plain text, one `key = value` per line, `#` comments.
Keys are dotted paths (e.g. `grid.h = 7`); lists are comma-separated
(`backbone.channels = 16,32,64`) and the object size table separates
triples with semicolons (`synth.object_sizes = 0.02,0.03,0.04;...`).
The config hash is the SHA-256 of the canonicalized serialization
(sorted keys, normalized spacing), so formatting and comments never
change identity. It leaves out RUN_LOCATION_KEYS, on which no checkpoint
depends, so a run directory can be moved or re-split and still load.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .codec import LabelSpec
from .errors import ConfigError
from .geometry import CameraIntrinsics, GridSpec
from .interaction import InteractionConfig
from .network import BackboneConfig, LossWeights
from .synth import RenderSpec, SceneParams


@dataclass(frozen=True)
class OptimConfig:
    lr: float = 1e-4
    epochs: int = 200
    batch_size: int = 16
    schedule_epochs: tuple[int, ...] = (80, 160)
    schedule_factor: float = 0.1
    conf_targets: str = "online"

    def __post_init__(self):
        if self.lr < 0 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("optimizer settings out of range")
        if any(e >= self.epochs for e in self.schedule_epochs):
            raise ConfigError("schedule epochs must be < total epochs")
        if self.conf_targets not in ("online", "fixed"):
            raise ConfigError("conf_targets must be 'online' or 'fixed'")

    def lr_at(self, epoch: int) -> float:
        drops = sum(1 for e in self.schedule_epochs if epoch >= e)
        return self.lr * self.schedule_factor ** drops


@dataclass(frozen=True)
class InteractionTrainConfig:
    feature_width: int = 512
    lstm_width: int = 512
    lstm_layers: int = 2
    include_class_probs: bool = False
    root_relative: bool = True
    input_scale: float = 10.0
    lr: float = 0.05
    epochs: int = 150
    batch_size: int = 16
    schedule_epochs: tuple[int, ...] = (100,)
    schedule_factor: float = 0.1

    def __post_init__(self):
        if self.lr < 0 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("interaction training settings out of range")
        if any(e >= self.epochs for e in self.schedule_epochs):
            raise ConfigError("interaction schedule epochs must be < total epochs")
        if self.feature_width < 1 or self.lstm_width < 1 or self.lstm_layers < 1:
            raise ConfigError("interaction widths and layer counts must be >= 1")

    def lr_at(self, epoch: int) -> float:
        drops = sum(1 for e in self.schedule_epochs if epoch >= e)
        return self.lr * self.schedule_factor ** drops


@dataclass(frozen=True)
class AugConfig:
    enabled: bool = False
    photometric: bool = True
    translate_frac: float = 0.1


@dataclass(frozen=True)
class DataConfig:
    dir: str = "data"
    train_frames: int = 500
    val_frames: int = 100
    train_sequences: int = 200
    val_sequences: int = 60


@dataclass(frozen=True)
class RunConfig:
    scene: SceneParams
    backbone: BackboneConfig
    loss: LossWeights
    optim: OptimConfig
    interaction: InteractionTrainConfig
    aug: AugConfig
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
            n_control=self.labels.n_control,
            feature_width=it.feature_width,
            lstm_width=it.lstm_width,
            lstm_layers=it.lstm_layers,
            include_object_points=True,
            include_class_probs=it.include_class_probs,
            n_actions=self.labels.n_actions,
            n_objects=self.labels.n_objects,
            root_relative=it.root_relative,
            use_pair_map=use_pair_map,
            input_scale=it.input_scale,
        )


def toy_preset(seed: int = 0, out_dir: str = "runs/toy", data_dir: str = "data/toy") -> RunConfig:
    """Desk-scale preset used by the acceptance suite: 7x7x3 grid, 56px."""
    grid = GridSpec(h=7, w=7, d=3, cell_u_px=8.0, cell_v_px=8.0, cell_z_m=0.15,
                    z_min=0.3, sharpness=2.0, cutoff_px=12.0, cutoff_m=0.075)
    cam = CameraIntrinsics(fx=80.0, fy=80.0, cx=28.0, cy=28.0)
    labels = LabelSpec(n_objects=3, n_actions=4, n_interactions=12)
    return RunConfig(
        scene=SceneParams(grid=grid, cam=cam, labels=labels),
        backbone=BackboneConfig(channels=(16, 32, 64, 64, 96), strides=(2, 2, 2, 1, 1)),
        loss=LossWeights(),
        optim=OptimConfig(lr=5e-3, epochs=30, batch_size=16,
                          schedule_epochs=(12, 24), schedule_factor=0.1),
        interaction=InteractionTrainConfig(
            feature_width=64, lstm_width=48, lstm_layers=2, input_scale=10.0,
            lr=0.08, epochs=120, batch_size=16, schedule_epochs=(80,)),
        aug=AugConfig(enabled=False),
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
    """
    grid = GridSpec(h=13, w=13, d=5, cell_u_px=32.0, cell_v_px=32.0, cell_z_m=0.15,
                    z_min=0.0, sharpness=2.0, cutoff_px=75.0, cutoff_m=0.075)
    cam = CameraIntrinsics(fx=600.0, fy=600.0, cx=208.0, cy=208.0)
    labels = LabelSpec(n_objects=4, n_actions=10, n_interactions=40)
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
        aug=AugConfig(enabled=True),
        data=DataConfig(dir=data_dir),
        seed=seed,
        out_dir=out_dir,
    )


PRESETS = {"toy": toy_preset, "paper": paper_preset}


# -- flat text form -------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_list(values) -> str:
    return ",".join(_fmt(v) for v in values)


def config_to_flat(cfg: RunConfig) -> dict[str, str]:
    g, c, l = cfg.grid, cfg.camera, cfg.labels
    s, r = cfg.scene, cfg.scene.render
    bb, lw, op, it = cfg.backbone, cfg.loss, cfg.optim, cfg.interaction
    a, d = cfg.aug, cfg.data
    return {
        "grid.h": _fmt(g.h), "grid.w": _fmt(g.w), "grid.d": _fmt(g.d),
        "grid.cell_u_px": _fmt(g.cell_u_px), "grid.cell_v_px": _fmt(g.cell_v_px),
        "grid.cell_z_m": _fmt(g.cell_z_m), "grid.z_min": _fmt(g.z_min),
        "grid.sharpness": _fmt(g.sharpness),
        "grid.cutoff_px": _fmt(g.cutoff_px), "grid.cutoff_m": _fmt(g.cutoff_m),
        "camera.fx": _fmt(c.fx), "camera.fy": _fmt(c.fy),
        "camera.cx": _fmt(c.cx), "camera.cy": _fmt(c.cy),
        "labels.n_objects": _fmt(l.n_objects), "labels.n_actions": _fmt(l.n_actions),
        "labels.n_interactions": _fmt(l.n_interactions),
        "labels.n_control": _fmt(l.n_control),
        "synth.hand_scale_range": _fmt_list(s.hand_scale_range),
        "synth.curl_max": _fmt(s.curl_max), "synth.abduct_max": _fmt(s.abduct_max),
        "synth.tilt_max": _fmt(s.tilt_max),
        "synth.margin_uv_cells": _fmt(s.margin_uv_cells),
        "synth.margin_z_cells": _fmt(s.margin_z_cells),
        "synth.object_sizes": ";".join(_fmt_list(t) for t in s.object_sizes),
        "synth.object_angle_max": _fmt(s.object_angle_max),
        "synth.sequence_length": _fmt(s.sequence_length),
        "render.channels": _fmt(r.channels),
        "render.blob_radius_m": _fmt(r.blob_radius_m),
        "render.min_sigma_px": _fmt(r.min_sigma_px),
        "render.bone_gain": _fmt(r.bone_gain),
        "render.depth_floor": _fmt(r.depth_floor),
        "backbone.channels": _fmt_list(bb.channels),
        "backbone.strides": _fmt_list(bb.strides),
        "backbone.in_channels": _fmt(bb.in_channels),
        "backbone.kernel": _fmt(bb.kernel), "backbone.leak": _fmt(bb.leak),
        "loss.pose": _fmt(lw.pose), "loss.action_class": _fmt(lw.action_class),
        "loss.object_class": _fmt(lw.object_class),
        "loss.conf_obj": _fmt(lw.conf_obj), "loss.conf_noobj": _fmt(lw.conf_noobj),
        "optim.lr": _fmt(op.lr), "optim.epochs": _fmt(op.epochs),
        "optim.batch_size": _fmt(op.batch_size),
        "optim.schedule_epochs": _fmt_list(op.schedule_epochs),
        "optim.schedule_factor": _fmt(op.schedule_factor),
        "optim.conf_targets": op.conf_targets,
        "interaction.feature_width": _fmt(it.feature_width),
        "interaction.lstm_width": _fmt(it.lstm_width),
        "interaction.lstm_layers": _fmt(it.lstm_layers),
        "interaction.include_class_probs": _fmt(it.include_class_probs),
        "interaction.root_relative": _fmt(it.root_relative),
        "interaction.input_scale": _fmt(it.input_scale),
        "interaction.lr": _fmt(it.lr), "interaction.epochs": _fmt(it.epochs),
        "interaction.batch_size": _fmt(it.batch_size),
        "interaction.schedule_epochs": _fmt_list(it.schedule_epochs),
        "interaction.schedule_factor": _fmt(it.schedule_factor),
        "aug.enabled": _fmt(a.enabled), "aug.photometric": _fmt(a.photometric),
        "aug.translate_frac": _fmt(a.translate_frac),
        "data.dir": d.dir,
        "data.train_frames": _fmt(d.train_frames),
        "data.val_frames": _fmt(d.val_frames),
        "data.train_sequences": _fmt(d.train_sequences),
        "data.val_sequences": _fmt(d.val_sequences),
        "seed": _fmt(cfg.seed),
        "out_dir": cfg.out_dir,
    }


def config_to_text(cfg: RunConfig) -> str:
    flat = config_to_flat(cfg)
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


def _get(flat: dict[str, str], key: str, kind, default=None):
    if key not in flat:
        if default is not None:
            return default
        raise ConfigError(f"missing config key {key!r}")
    raw = flat[key]
    try:
        if kind is bool:
            if raw not in ("true", "false"):
                raise ValueError(raw)
            return raw == "true"
        if kind in (int, float, str):
            return kind(raw)
        if kind == "ints":
            return tuple(int(x) for x in raw.split(",") if x != "")
        if kind == "floats":
            return tuple(float(x) for x in raw.split(",") if x != "")
        if kind == "triples":
            return tuple(tuple(float(x) for x in part.split(","))
                         for part in raw.split(";") if part != "")
    except ValueError as e:
        raise ConfigError(f"config key {key!r} has malformed value {raw!r}") from e
    raise ConfigError(f"unknown kind for key {key!r}")


def config_from_flat(flat: dict[str, str]) -> RunConfig:
    known = set(config_to_flat(toy_preset()))
    unknown = set(flat) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    grid = GridSpec(
        h=_get(flat, "grid.h", int), w=_get(flat, "grid.w", int),
        d=_get(flat, "grid.d", int),
        cell_u_px=_get(flat, "grid.cell_u_px", float),
        cell_v_px=_get(flat, "grid.cell_v_px", float),
        cell_z_m=_get(flat, "grid.cell_z_m", float),
        z_min=_get(flat, "grid.z_min", float),
        sharpness=_get(flat, "grid.sharpness", float),
        cutoff_px=_get(flat, "grid.cutoff_px", float),
        cutoff_m=_get(flat, "grid.cutoff_m", float),
    )
    cam = CameraIntrinsics(
        fx=_get(flat, "camera.fx", float), fy=_get(flat, "camera.fy", float),
        cx=_get(flat, "camera.cx", float), cy=_get(flat, "camera.cy", float),
    )
    labels = LabelSpec(
        n_objects=_get(flat, "labels.n_objects", int),
        n_actions=_get(flat, "labels.n_actions", int),
        n_interactions=_get(flat, "labels.n_interactions", int),
        n_control=_get(flat, "labels.n_control", int),
    )
    render = RenderSpec(
        channels=_get(flat, "render.channels", int),
        blob_radius_m=_get(flat, "render.blob_radius_m", float),
        min_sigma_px=_get(flat, "render.min_sigma_px", float),
        bone_gain=_get(flat, "render.bone_gain", float),
        depth_floor=_get(flat, "render.depth_floor", float),
    )
    scene = SceneParams(
        grid=grid, cam=cam, labels=labels,
        hand_scale_range=_get(flat, "synth.hand_scale_range", "floats"),
        curl_max=_get(flat, "synth.curl_max", float),
        abduct_max=_get(flat, "synth.abduct_max", float),
        tilt_max=_get(flat, "synth.tilt_max", float),
        margin_uv_cells=_get(flat, "synth.margin_uv_cells", float),
        margin_z_cells=_get(flat, "synth.margin_z_cells", float),
        object_sizes=_get(flat, "synth.object_sizes", "triples"),
        object_angle_max=_get(flat, "synth.object_angle_max", float),
        sequence_length=_get(flat, "synth.sequence_length", int),
        render=render,
    )
    return RunConfig(
        scene=scene,
        backbone=BackboneConfig(
            channels=_get(flat, "backbone.channels", "ints"),
            strides=_get(flat, "backbone.strides", "ints"),
            in_channels=_get(flat, "backbone.in_channels", int),
            kernel=_get(flat, "backbone.kernel", int),
            leak=_get(flat, "backbone.leak", float),
        ),
        loss=LossWeights(
            pose=_get(flat, "loss.pose", float),
            action_class=_get(flat, "loss.action_class", float),
            object_class=_get(flat, "loss.object_class", float),
            conf_obj=_get(flat, "loss.conf_obj", float),
            conf_noobj=_get(flat, "loss.conf_noobj", float),
        ),
        optim=OptimConfig(
            lr=_get(flat, "optim.lr", float),
            epochs=_get(flat, "optim.epochs", int),
            batch_size=_get(flat, "optim.batch_size", int),
            schedule_epochs=_get(flat, "optim.schedule_epochs", "ints"),
            schedule_factor=_get(flat, "optim.schedule_factor", float),
            conf_targets=_get(flat, "optim.conf_targets", str),
        ),
        interaction=InteractionTrainConfig(
            feature_width=_get(flat, "interaction.feature_width", int),
            lstm_width=_get(flat, "interaction.lstm_width", int),
            lstm_layers=_get(flat, "interaction.lstm_layers", int),
            include_class_probs=_get(flat, "interaction.include_class_probs", bool),
            root_relative=_get(flat, "interaction.root_relative", bool),
            input_scale=_get(flat, "interaction.input_scale", float),
            lr=_get(flat, "interaction.lr", float),
            epochs=_get(flat, "interaction.epochs", int),
            batch_size=_get(flat, "interaction.batch_size", int),
            schedule_epochs=_get(flat, "interaction.schedule_epochs", "ints"),
            schedule_factor=_get(flat, "interaction.schedule_factor", float),
        ),
        aug=AugConfig(
            enabled=_get(flat, "aug.enabled", bool),
            photometric=_get(flat, "aug.photometric", bool),
            translate_frac=_get(flat, "aug.translate_frac", float),
        ),
        data=DataConfig(
            dir=_get(flat, "data.dir", str),
            train_frames=_get(flat, "data.train_frames", int),
            val_frames=_get(flat, "data.val_frames", int),
            train_sequences=_get(flat, "data.train_sequences", int),
            val_sequences=_get(flat, "data.val_sequences", int),
        ),
        seed=_get(flat, "seed", int),
        out_dir=_get(flat, "out_dir", str),
    )


def load_config(path) -> RunConfig:
    with open(path) as f:
        return config_from_flat(parse_flat_text(f.read()))


def save_config(path, cfg: RunConfig) -> None:
    with open(path, "w") as f:
        f.write(config_to_text(cfg))


RUN_LOCATION_KEYS = ("out_dir", "data.dir", "data.val_frames", "data.val_sequences")


def config_hash(cfg: RunConfig) -> str:
    """Digest of the canonical serialization without RUN_LOCATION_KEYS; ignores formatting."""
    flat = sorted(config_to_flat(cfg).items())
    text = "".join(f"{k} = {v}\n" for k, v in flat if k not in RUN_LOCATION_KEYS)
    return hashlib.sha256(text.encode()).hexdigest()
