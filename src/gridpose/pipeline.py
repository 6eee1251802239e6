"""Two-stage training orchestration, evaluation runs and reports.

Stage 1 trains the single-image network on frames; stage 2 freezes it,
runs it over the training sequences and fits the recurrent interaction
classifier (plus the plain recurrent baseline, trained on the same
split for the paired comparison). Every run directory gets a manifest
(config hash, seed, library versions) sufficient to reproduce the run,
and no output embeds wall-clock time, so identical seeds give identical
bytes. Each stage writes, its text through metrics.write_csv/write_json:

- gen_data, in data.dir: {train,val,seq_train,seq_val}/{frames,rasters}.npy,
  config.txt, manifest.json
- train_stage1, in out_dir: stage1.ckpt, stage1_log.csv, manifest.json
- train_stage2, in out_dir: stage2.ckpt, stage2_baseline.ckpt, stage2_log.csv,
  manifest.json
- evaluate, in report_dir: pck3d.csv, add_sweep.csv, proj2d_sweep.csv,
  pose_noise_sweep.csv, importance.csv (given stage2_ckpt), summary.json,
  manifest.json
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__, autodiff as ad, codec, interaction as ia, metrics, network as net, synth
from .config import RunConfig, config_hash, config_to_text
from .errors import ConfigError, HashMismatch, NumericError
from .geometry import IMAGE_CHANNELS, NUM_CONTROL_POINTS, cell_diagonal_m, cuboid_control_points
from .rigidpose import Pose6D, random_rotation


def _write_manifest(directory: Path, cfg: RunConfig, extra: dict) -> None:
    metrics.write_json(directory / "manifest.json", {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "versions": {"gridpose": __version__, "numpy": np.__version__,
                     "python": ".".join(str(v) for v in sys.version_info[:3])},
        **extra,
    })


# -- data generation -----------------------------------------------------------

def gen_data(cfg: RunConfig) -> Path:
    """Write the four dataset splits plus the resolved config and manifest."""
    config_text = config_to_text(cfg)  # raises before any split is written
    root = Path(cfg.data.dir)
    root.mkdir(parents=True, exist_ok=True)

    for name, count, salt in (("train", cfg.data.train_frames, 1),
                              ("val", cfg.data.val_frames, 2)):
        frames = [synth.sample_scene((cfg.seed, salt, i), cfg.scene, with_raster=False)
                  for i in range(count)]
        _save_split(cfg, root / name, frames, list(range(count)))

    for name, count, salt in (("seq_train", cfg.data.train_sequences, 3),
                              ("seq_val", cfg.data.val_sequences, 4)):
        frames, ids = [], []
        for i in range(count):
            pair = i % cfg.labels.n_interactions
            seq = synth.sample_sequence((cfg.seed, salt, i),
                                        pair // cfg.labels.n_objects,
                                        pair % cfg.labels.n_objects, cfg.scene,
                                        with_raster=False)
            frames.extend(seq.frames)
            ids.extend([i] * len(seq.frames))
        _save_split(cfg, root / name, frames, ids)

    (root / "config.txt").write_text(config_text)
    _write_manifest(root, cfg, {
        "counts": {"train": cfg.data.train_frames, "val": cfg.data.val_frames,
                   "seq_train": cfg.data.train_sequences,
                   "seq_val": cfg.data.val_sequences},
    })
    return root


def _save_split(cfg: RunConfig, directory: Path, frames: list, seq_ids: list[int]) -> None:
    """Render a split's frames in one synth.render_frames call and write them."""
    hands = np.reshape([f.hand_points for f in frames], (-1, NUM_CONTROL_POINTS, 3))
    objects = np.reshape([f.object_points for f in frames], (-1, NUM_CONTROL_POINTS, 3))
    rasters = synth.render_frames(cfg.camera, cfg.grid, cfg.scene.render, hands, objects)
    synth.save_frames(directory, [replace(f, raster=r) for f, r in zip(frames, rasters)],
                      seq_ids)


def _load_split(cfg: RunConfig, split: str):
    """Frames and sequence ids of one dataset split. An empty split, or a
    record whose action_id or object_id lies outside the config's label
    space, is a ConfigError."""
    frames, seq_ids = synth.load_frames(Path(cfg.data.dir) / split)
    if not frames:
        raise ConfigError(f"dataset split {split!r} in {cfg.data.dir} holds no frames")
    for field, n in (("action_id", cfg.labels.n_actions), ("object_id", cfg.labels.n_objects)):
        ids = np.array([getattr(f, field) for f in frames])
        bad = np.flatnonzero((ids < 0) | (ids >= n))
        if bad.size:
            raise ConfigError(f"dataset split {split!r} in {cfg.data.dir}: record {bad[0]} has "
                              f"{field} {ids[bad[0]]}, not in [0, {n})")
    return frames, seq_ids


def _frames_dataset(cfg: RunConfig, split: str) -> net.BatchTargets:
    frames, _ = _load_split(cfg, split)
    images = np.stack([f.raster for f in frames], dtype=ad.COMPUTE_DTYPE)
    return net.BatchTargets.from_scenes(frames, cfg.grid, cfg.labels, cfg.camera, images)


# -- stage 1 ---------------------------------------------------------------------

def train_stage1(cfg: RunConfig) -> Path:
    """Train the single-image network; returns the checkpoint path."""
    dataset = _frames_dataset(cfg, "train")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = net.init_params(cfg.backbone, cfg.grid, cfg.labels, cfg.seed)
    rng = synth.seeded_rng(cfg.seed, 0x51)

    log = []
    for epoch in range(cfg.optim.epochs):
        lr = cfg.optim.lr_at(epoch)
        loss = net.sgd_epoch(params, dataset, lr, cfg.loss, cfg.backbone,
                             cfg.grid, cfg.labels, rng,
                             batch_size=cfg.optim.batch_size)
        log.append((epoch, lr, loss))

    ckpt = out / "stage1.ckpt"
    net.save_checkpoint(ckpt, params.tensors, {
        "kind": "backbone", "epoch": cfg.optim.epochs, "seed": cfg.seed,
        "config_hash": config_hash(cfg), "signature": params.signature,
    })
    metrics.write_csv(out / "stage1_log.csv", ("epoch", "lr", "loss"), log)
    _write_manifest(out, cfg, {"stage": 1})
    return ckpt


def _check_tensors(ckpt_path, tensors: dict, want: dict) -> None:
    """ConfigError unless the checkpoint's tensors have the names and shapes of want."""
    got = {k: v.shape for k, v in tensors.items()}
    wrong = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    if wrong:
        raise ConfigError(f"{ckpt_path} does not hold the model's tensors: " + ", ".join(
            f"{k}: {got.get(k, 'missing')}, want {want.get(k, 'none')}" for k in wrong))


def load_backbone(cfg: RunConfig, ckpt_path) -> net.ModelParams:
    """Load a stage-1 checkpoint, verifying it belongs to this config and
    holds the tensors of its backbone; any other kind of checkpoint is a
    ConfigError."""
    tensors, header = net.load_checkpoint(ckpt_path)
    if header.get("kind") != "backbone":
        raise ConfigError(f"{ckpt_path} is not a backbone checkpoint: kind {header.get('kind')!r}")
    expect_sig = net.model_signature(cfg.backbone, cfg.grid, cfg.labels)
    if header.get("config_hash") != config_hash(cfg):
        raise HashMismatch(
            f"checkpoint was trained under config {header.get('config_hash')!r}, "
            f"this run is {config_hash(cfg)!r}"
        )
    if header.get("signature") != expect_sig:
        raise HashMismatch("checkpoint tensor signature does not match the model config")
    _check_tensors(ckpt_path, tensors, net.param_shapes(cfg.backbone, cfg.grid, cfg.labels))
    return net.ModelParams(tensors, expect_sig)


# -- per-frame predictions -------------------------------------------------------

def _stack_rasters(cfg: RunConfig, frames, start: int, dtype) -> np.ndarray:
    """The rasters of frames as one (N, C, H, W) image batch of dtype, N >= 0;
    a frame without a raster of the backbone's input shape is a ShapeMismatch
    that names its index, counted from start (synth.check_rasters)."""
    shape = (IMAGE_CHANNELS, cfg.grid.image_h, cfg.grid.image_w)
    synth.check_rasters(frames, shape, start)
    return np.array([f.raster for f in frames], dtype=dtype).reshape(-1, *shape)


def predict_frames(cfg: RunConfig, params: net.ModelParams, frames,
                   batch_size: int = 64) -> codec.FramePrediction:
    """Each frame's best hand and object slot, as one codec.FramePrediction
    of len(frames): network.predict runs once per batch of batch_size frames
    (the head's confidence channels at every cell, then its full channels
    only at each frame's winning cells, through codec.decode_best), and the
    batches' records are joined. Each batch's images are stacked when it
    runs, so memory grows with the batch, not with the frame list, and in
    the parameters' dtype, so no wider copy of the batch is made.

    An empty frame list gives a record of length 0; batch_size below 1 is a
    ConfigError; a frame without a raster of the backbone's input shape is a
    ShapeMismatch that names the frame's index.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    dtype = params.tensors["conv0.w"].dtype
    records = [
        net.predict(params, _stack_rasters(cfg, frames[start: start + batch_size], start, dtype),
                    cfg.backbone, cfg.grid, cfg.labels, cfg.camera)
        for start in range(0, max(len(frames), 1), batch_size)]
    return records[0] if len(records) == 1 else codec.FramePrediction.join(records)


def _sequence_dataset(cfg: RunConfig, params: net.ModelParams, split: str):
    """Pruned per-frame predictions grouped into (N, T, width) inputs, in
    sequence id order (frames in file order), and each sequence's label.
    Sequences of unequal length, or a sequence whose frames disagree on
    action_id or object_id, are a ConfigError that names them."""
    frames, seq_ids = _load_split(cfg, split)
    ids, lengths = (a.tolist() for a in np.unique(seq_ids, return_counts=True))
    common = max(lengths, key=lengths.count)
    odd = {sid: n for sid, n in zip(ids, lengths) if n != common}
    if odd:
        raise ConfigError(f"dataset split {split!r} in {cfg.data.dir}: sequences (id: frames) "
                          f"{odd} differ in length from the other {len(ids) - len(odd)}, "
                          f"which hold {common} frames each")
    order = np.argsort(seq_ids, kind="stable").reshape(len(ids), common)   # (N, T) frame indices
    classes = np.array([(f.action_id, f.object_id) for f in frames])[order]   # (N, T, 2)
    disagree = np.argwhere((classes != classes[:, :1]).any(axis=1))
    if disagree.size:
        row, k = disagree[0]
        raise ConfigError(f"dataset split {split!r} in {cfg.data.dir}: the frames of sequence "
                          f"{ids[row]} disagree on {('action_id', 'object_id')[k]}: "
                          f"{sorted(set(classes[row, :, k].tolist()))}")
    preds = predict_frames(cfg, params, frames)
    inputs = ia.pose_rows(preds.hand_points[order], preds.object_points[order])
    return inputs, cfg.labels.interaction_index(classes[:, 0, 0], classes[:, 0, 1])


# -- stage 2 ---------------------------------------------------------------------

def train_stage2(cfg: RunConfig, backbone_ckpt) -> tuple[Path, Path]:
    """Train the interaction classifier and the plain recurrent baseline.

    The backbone stays frozen: its tensors are only read. Returns the
    paths of the interaction checkpoint and the baseline checkpoint.
    """
    params = load_backbone(cfg, backbone_ckpt)
    frozen_before = {k: v.tobytes() for k, v in params.tensors.items()}
    backbone_hash = net.file_hash(backbone_ckpt)

    inputs, labels = _sequence_dataset(cfg, params, "seq_train")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log = []
    paths = {}
    for variant, pair_map in (("interact", True), ("baseline", False)):
        icfg = cfg.interaction_model_config(use_pair_map=pair_map)
        model = ia.init_interaction(icfg, cfg.seed)
        rng = synth.seeded_rng(cfg.seed, 0x52, int(pair_map))
        for epoch in range(cfg.interaction.epochs):
            lr = cfg.interaction.lr_at(epoch)
            loss = ia.sgd_epoch_sequences(model, inputs, labels, lr, rng,
                                          batch_size=cfg.interaction.batch_size)
            log.append((variant, epoch, lr, loss))
        path = out / ("stage2.ckpt" if pair_map else "stage2_baseline.ckpt")
        net.save_checkpoint(path, model.params, {
            "kind": "interaction", "use_pair_map": pair_map,
            "epoch": cfg.interaction.epochs, "seed": cfg.seed,
            "config_hash": config_hash(cfg), "backbone_hash": backbone_hash,
        })
        paths[variant] = path

    frozen_after = {k: v.tobytes() for k, v in params.tensors.items()}
    if frozen_before != frozen_after:
        raise NumericError("stage 2 modified frozen backbone tensors")
    metrics.write_csv(out / "stage2_log.csv", ("variant", "epoch", "lr", "loss"), log)
    _write_manifest(out, cfg, {"stage": 2, "backbone_hash": backbone_hash})
    return paths["interact"], paths["baseline"]


def load_interaction(cfg: RunConfig, ckpt_path, backbone_ckpt=None) -> ia.InteractionModel:
    """Load a stage-2 checkpoint; any other kind of checkpoint, or one
    without the tensors of its model, is a ConfigError."""
    tensors, header = net.load_checkpoint(ckpt_path)
    if header.get("kind") != "interaction" or "use_pair_map" not in header:
        raise ConfigError(f"{ckpt_path} is not an interaction checkpoint: kind "
                          f"{header.get('kind')!r}, use_pair_map {header.get('use_pair_map')!r}")
    if header.get("config_hash") != config_hash(cfg):
        raise HashMismatch("interaction checkpoint belongs to a different config")
    if backbone_ckpt is not None:
        if header.get("backbone_hash") != net.file_hash(backbone_ckpt):
            raise HashMismatch("interaction checkpoint references a different backbone")
    icfg = cfg.interaction_model_config(use_pair_map=bool(header["use_pair_map"]))
    _check_tensors(ckpt_path, tensors, ia.param_shapes(icfg))
    return ia.InteractionModel(icfg, tensors)


# -- direct-3D vs PnP noise sweep ------------------------------------------------

NOISE_LEVELS = (0.0, 0.002, 0.005, 0.01, 0.02)


def pose_noise_sweep(cfg: RunConfig, trials: int) -> list[dict]:
    """Paired ADD of Procrustes vs DLT PnP under depth-correlated noise.

    Each trial poses a random cuboid in the volume and perturbs its
    control points with isotropic Gaussian noise whose scale grows
    linearly with each point's depth (sigma = level * z / z_ref). Both
    routes of metrics.object_pose_errors consume the same noisy points:
    Procrustes aligns in 3D, the PnP baseline only sees their 2D
    projections. trials below 1 is a ConfigError.
    """
    if trials < 1:
        raise ConfigError(f"the pose noise sweep needs at least 1 trial, got {trials}")
    rng = synth.seeded_rng(cfg.seed, 0xadd)
    z_ref = cfg.grid.z_min + 0.5 * cfg.grid.d * cfg.grid.cell_z_m
    bounds = synth.volume_bounds(cfg.scene)
    posed = []   # (pose, reference points, posed points) of each trial
    for _ in range(trials):
        ref = cuboid_control_points(
            synth.object_cuboid(cfg.scene, int(rng.integers(cfg.labels.n_objects)))).points
        center = synth.sample_position(rng, cfg.scene, bounds)
        pose = Pose6D(random_rotation(rng), center)
        posed.append((pose, ref, pose.apply(ref)))
    noise_unit = [rng.standard_normal((NUM_CONTROL_POINTS, 3)) for _ in range(trials)]

    rows = []
    for level in NOISE_LEVELS:
        errors = [metrics.object_pose_errors(ref, clean + unit * (level * clean[:, 2:3] / z_ref),
                                             pose, cfg.camera)
                  for (pose, ref, clean), unit in zip(posed, noise_unit)]
        rows.append({"level": float(level),
                     "procrustes_add": float(np.mean([e[0] for e in errors])),
                     "pnp_add": float(np.mean([e[2] for e in errors]))})
    return rows


# -- evaluation ------------------------------------------------------------------

def evaluate(cfg: RunConfig, backbone_ckpt, report_dir,
             stage2_ckpt=None, baseline_ckpt=None,
             noise_trials: int = 200) -> dict:
    """Full metric suite on the validation splits; writes CSV/JSON reports.
    A baseline_ckpt without stage2_ckpt, or noise_trials below 1, is a
    ConfigError raised before any report is written."""
    if baseline_ckpt is not None and stage2_ckpt is None:
        raise ConfigError("baseline_ckpt is scored only beside stage2_ckpt, which is None")
    sweep = pose_noise_sweep(cfg, noise_trials)
    report = Path(report_dir)
    report.mkdir(parents=True, exist_ok=True)
    params = load_backbone(cfg, backbone_ckpt)

    frames, _ = _load_split(cfg, "val")
    preds = predict_frames(cfg, params, frames)
    truth = SimpleNamespace(**{k: np.array([getattr(f, k) for f in frames]) for k in (
        "hand_points", "object_points", "action_id", "object_id")})
    cells = codec.frame_targets(truth, cfg.grid, cfg.labels, cfg.camera).cells

    adds, projs, adds_pnp = np.array([
        metrics.object_pose_errors(cuboid_control_points(f.cuboid).points, points,
                                   f.object_pose, cfg.camera)
        for f, points in zip(frames, preds.object_points)]).T
    diag = cell_diagonal_m(cfg.grid, cfg.camera)
    diameter = float(np.mean([f.cuboid.diameter() for f in frames]))
    hand_errors = metrics.mean_frame_errors(preds.hand_points, truth.hand_points)
    curves = {}   # one value per val frame under each of 41 thresholds from 0 to top
    for name, values, top in (("pck3d", hand_errors, 2.0 * diag),
                              ("add_sweep", adds, diameter), ("proj2d_sweep", projs, 20.0)):
        thresholds = np.linspace(0.0, top, 41)
        curves[name] = (thresholds, metrics.fraction_below(values, thresholds))
        metrics.write_csv(report / f"{name}.csv", ("threshold", "fraction"), zip(*curves[name]))

    summary = {
        "frames": len(frames),
        "cell_diagonal_m": diag,
        "mean_joint_error_mm": metrics.mean_joint_error_mm(preds.hand_points, truth.hand_points),
        "pck_at_cell_diagonal": float(np.interp(diag, *curves["pck3d"])),
        "object_add_mean_m": metrics.finite_mean(adds),
        "object_add_pnp_mean_m": metrics.finite_mean(adds_pnp),
        "action_accuracy": metrics.classification_accuracy(preds.action_id, truth.action_id),
        "object_accuracy": metrics.classification_accuracy(preds.object_id, truth.object_id),
        "single_image_interaction_accuracy": metrics.classification_accuracy(
            preds.interaction_id(cfg.labels),
            cfg.labels.interaction_index(truth.action_id, truth.object_id)),
        "hand_cell_accuracy": float(np.mean((preds.hand_cell == cells[:, 0]).all(axis=-1))),
        "object_cell_accuracy": float(np.mean((preds.object_cell == cells[:, 1]).all(axis=-1))),
        "noise_sweep_direct_never_worse": all(r["procrustes_add"] <= r["pnp_add"] for r in sweep),
    }
    metrics.write_csv(report / "pose_noise_sweep.csv", ("level", "procrustes_add", "pnp_add"),
                      ([r["level"], r["procrustes_add"], r["pnp_add"]] for r in sweep))

    if stage2_ckpt is not None:
        model = load_interaction(cfg, stage2_ckpt, backbone_ckpt)
        inputs, seq_labels = _sequence_dataset(cfg, params, "seq_val")
        logits = ia.logits_graph(ad.wrap(model.params, False), model.cfg, inputs).data
        summary["interaction_accuracy"] = metrics.logits_accuracy(logits, seq_labels)
        per_joint, parts = ia.weight_importance(model)
        metrics.write_csv(report / "importance.csv", ("joint", "importance"),
                          [*enumerate(per_joint), *parts.items()])
        if baseline_ckpt is not None:
            base = load_interaction(cfg, baseline_ckpt, backbone_ckpt)
            logits = ia.logits_graph(ad.wrap(base.params, False), base.cfg, inputs).data
            summary["baseline_interaction_accuracy"] = metrics.logits_accuracy(logits, seq_labels)

    metrics.write_json(report / "summary.json", summary)
    _write_manifest(report, cfg, {"backbone_ckpt_hash": net.file_hash(backbone_ckpt)})
    return summary
