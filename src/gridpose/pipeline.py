"""Two-stage training orchestration, evaluation runs and reports.

Stage 1 trains the single-image network on frames; stage 2 freezes it,
runs it over the training sequences and fits the recurrent interaction
classifier (plus the plain recurrent baseline, trained on the same
split for the paired comparison). Every run directory gets a manifest
(config hash, seed, library versions) sufficient to reproduce the run,
and no output embeds wall-clock time, so identical seeds give identical
bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, autodiff as ad, codec, interaction as ia, metrics, network as net, synth
from .config import RunConfig, config_hash, config_to_text
from .errors import ConfigError, HashMismatch, NumericError
from .geometry import cell_diagonal_m, cuboid_control_points, project
from .rigidpose import Pose6D, pnp_dlt, procrustes_align, random_rotation


def _manifest(cfg: RunConfig, extra: dict | None = None) -> dict:
    doc = {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "versions": {
            "gridpose": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    if extra:
        doc.update(extra)
    return doc


def _write_manifest(directory: Path, cfg: RunConfig, extra: dict | None = None) -> None:
    with open(directory / "manifest.json", "w") as f:
        json.dump(_manifest(cfg, extra), f, indent=2, sort_keys=True)
        f.write("\n")


# -- data generation -----------------------------------------------------------

def gen_data(cfg: RunConfig) -> Path:
    """Write the four dataset splits plus the resolved config and manifest."""
    config_text = config_to_text(cfg)  # raises before any split is written
    root = Path(cfg.data.dir)
    root.mkdir(parents=True, exist_ok=True)

    for name, count, salt in (("train", cfg.data.train_frames, 1),
                              ("val", cfg.data.val_frames, 2)):
        frames = [synth.sample_scene((cfg.seed, salt, i), cfg.scene)
                  for i in range(count)]
        synth.save_frames(root / name, frames, seq_ids=list(range(count)))

    for name, count, salt in (("seq_train", cfg.data.train_sequences, 3),
                              ("seq_val", cfg.data.val_sequences, 4)):
        frames, ids = [], []
        for i in range(count):
            pair = i % cfg.labels.n_interactions
            seq = synth.sample_sequence((cfg.seed, salt, i),
                                        pair // cfg.labels.n_objects,
                                        pair % cfg.labels.n_objects, cfg.scene)
            frames.extend(seq.frames)
            ids.extend([i] * len(seq.frames))
        synth.save_frames(root / name, frames, ids)

    (root / "config.txt").write_text(config_text)
    _write_manifest(root, cfg, {
        "counts": {"train": cfg.data.train_frames, "val": cfg.data.val_frames,
                   "seq_train": cfg.data.train_sequences,
                   "seq_val": cfg.data.val_sequences},
    })
    return root


def _load_split(cfg: RunConfig, split: str):
    """Frames and sequence ids of one dataset split; an empty one is a ConfigError."""
    frames, seq_ids = synth.load_frames(Path(cfg.data.dir) / split)
    if not frames:
        raise ConfigError(f"dataset split {split!r} in {cfg.data.dir} holds no frames")
    return frames, seq_ids


def _frames_dataset(cfg: RunConfig, split: str):
    frames, _ = _load_split(cfg, split)
    images = np.stack([f.raster for f in frames])
    return frames, net.BatchTargets.from_scenes(frames, cfg.grid, cfg.labels,
                                                cfg.camera, images)


# -- stage 1 ---------------------------------------------------------------------

def train_stage1(cfg: RunConfig) -> Path:
    """Train the single-image network; returns the checkpoint path."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frames, dataset = _frames_dataset(cfg, "train")
    params = net.init_params(cfg.backbone, cfg.grid, cfg.labels, cfg.seed)
    rng = synth.seeded_rng(cfg.seed, 0x51)

    log_lines = ["epoch,lr,loss"]
    for epoch in range(cfg.optim.epochs):
        lr = cfg.optim.lr_at(epoch)
        if cfg.aug.enabled:
            aug_rng = synth.seeded_rng(cfg.seed, 0xa06, epoch)
            aug_frames = [synth.augment_frame(f, aug_rng, cfg.scene,
                                              photometric=cfg.aug.photometric,
                                              translate_frac=cfg.aug.translate_frac)
                          for f in frames]
            images = np.stack([f.raster for f in aug_frames])
            epoch_set = net.BatchTargets.from_scenes(aug_frames, cfg.grid, cfg.labels,
                                                     cfg.camera, images)
        else:
            epoch_set = dataset
        loss = net.sgd_epoch(params, epoch_set, lr, cfg.loss, cfg.backbone,
                             cfg.grid, cfg.labels, rng,
                             batch_size=cfg.optim.batch_size,
                             conf_targets=cfg.optim.conf_targets)
        log_lines.append(f"{epoch},{lr:.10g},{loss:.10g}")

    ckpt = out / "stage1.ckpt"
    net.save_checkpoint(ckpt, params.tensors, {
        "kind": "backbone", "epoch": cfg.optim.epochs, "seed": cfg.seed,
        "config_hash": config_hash(cfg), "signature": params.signature,
    })
    (out / "stage1_log.csv").write_text("\n".join(log_lines) + "\n")
    _write_manifest(out, cfg, {"stage": 1})
    return ckpt


def load_backbone(cfg: RunConfig, ckpt_path) -> net.ModelParams:
    """Load a stage-1 checkpoint, verifying it belongs to this config."""
    tensors, header = net.load_checkpoint(ckpt_path)
    expect_sig = net.model_signature(cfg.backbone, cfg.grid, cfg.labels)
    if header.get("config_hash") != config_hash(cfg):
        raise HashMismatch(
            f"checkpoint was trained under config {header.get('config_hash')!r}, "
            f"this run is {config_hash(cfg)!r}"
        )
    if header.get("signature") != expect_sig:
        raise HashMismatch("checkpoint tensor signature does not match the model config")
    return net.ModelParams(tensors, expect_sig)


# -- per-frame predictions -------------------------------------------------------

def predict_frames(cfg: RunConfig, params: net.ModelParams, frames,
                   batch_size: int = 64) -> list[codec.FramePrediction]:
    """Run the backbone on batches of batch_size frames and keep each frame's
    best hand and object slot (codec.decode_best, once per batch). Each
    batch's images are stacked when it runs, so memory grows with the batch,
    not with the frame list.

    An empty frame list gives [] without running the network; batch_size
    below 1 is a ConfigError.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if not frames:
        return []
    preds = []
    for start in range(0, len(frames), batch_size):
        images = np.stack([f.raster for f in frames[start: start + batch_size]])
        raw = net.forward(params, images, cfg.backbone, cfg.grid, cfg.labels)
        preds.extend(codec.decode_best(raw, cfg.grid, cfg.labels, cfg.camera))
    return preds


def _sequence_dataset(cfg: RunConfig, params: net.ModelParams, split: str):
    """Pruned per-frame predictions grouped into (N, T, width) inputs."""
    frames, seq_ids = _load_split(cfg, split)
    seqs = synth.group_sequences(frames, seq_ids, cfg.labels)
    preds = predict_frames(cfg, params, frames)
    by_seq: dict[int, list] = {}
    for pred, sid in zip(preds, seq_ids):
        by_seq.setdefault(sid, []).append(pred)
    icfg = cfg.interaction_model_config()
    inputs = np.stack([ia.sequence_inputs(icfg, by_seq[sid]) for sid in sorted(by_seq)])
    labels = np.array([s.interaction_id for s in seqs], dtype=int)
    return inputs, labels


# -- stage 2 ---------------------------------------------------------------------

def train_stage2(cfg: RunConfig, backbone_ckpt) -> tuple[Path, Path]:
    """Train the interaction classifier and the plain recurrent baseline.

    The backbone stays frozen: its tensors are only read. Returns the
    paths of the interaction checkpoint and the baseline checkpoint.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = load_backbone(cfg, backbone_ckpt)
    frozen_before = {k: v.tobytes() for k, v in params.tensors.items()}
    backbone_hash = net.file_hash(backbone_ckpt)

    inputs, labels = _sequence_dataset(cfg, params, "seq_train")
    log_lines = ["variant,epoch,lr,loss"]
    paths = {}
    for variant, pair_map in (("interact", True), ("baseline", False)):
        icfg = cfg.interaction_model_config(use_pair_map=pair_map)
        model = ia.init_interaction(icfg, cfg.seed)
        rng = synth.seeded_rng(cfg.seed, 0x52, int(pair_map))
        for epoch in range(cfg.interaction.epochs):
            lr = cfg.interaction.lr_at(epoch)
            loss = ia.sgd_epoch_sequences(model, inputs, labels, lr, rng,
                                          batch_size=cfg.interaction.batch_size)
            log_lines.append(f"{variant},{epoch},{lr:.10g},{loss:.10g}")
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
    (out / "stage2_log.csv").write_text("\n".join(log_lines) + "\n")
    _write_manifest(out, cfg, {"stage": 2, "backbone_hash": backbone_hash})
    return paths["interact"], paths["baseline"]


def load_interaction(cfg: RunConfig, ckpt_path, backbone_ckpt=None) -> ia.InteractionModel:
    """Load a stage-2 checkpoint; any other kind of checkpoint is a ConfigError."""
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
    return ia.InteractionModel(icfg, tensors)


# -- direct-3D vs PnP noise sweep ------------------------------------------------

NOISE_LEVELS = (0.0, 0.002, 0.005, 0.01, 0.02)


def pose_noise_sweep(cfg: RunConfig, trials: int = 500) -> list[dict]:
    """Paired ADD of Procrustes vs DLT PnP under depth-correlated noise.

    Each trial poses a random cuboid in the volume and perturbs its 21
    control points with isotropic Gaussian noise whose scale grows
    linearly with each point's depth (sigma = level * z / z_ref). Both
    recovery routes consume the same noisy points: Procrustes aligns in
    3D, the PnP baseline only sees their 2D projections.
    """
    rng = synth.seeded_rng(cfg.seed, 0xadd)
    z_ref = cfg.grid.z_min + 0.5 * cfg.grid.d * cfg.grid.cell_z_m
    rows = []
    poses = []
    cuboids = []
    for _ in range(trials):
        object_id = int(rng.integers(cfg.labels.n_objects))
        cuboid = synth.object_cuboid(cfg.scene, object_id)
        center = synth._sample_position(rng, cfg.scene)
        poses.append(Pose6D(random_rotation(rng), center))
        cuboids.append(cuboid)
    noise_unit = [rng.standard_normal((21, 3)) for _ in range(trials)]

    for level in NOISE_LEVELS:
        adds_direct, adds_pnp = [], []
        for pose, cuboid, unit in zip(poses, cuboids, noise_unit):
            ref = cuboid_control_points(cuboid).points
            clean = pose.apply(ref)
            sigma = level * clean[:, 2:3] / z_ref
            noisy = clean + unit * sigma
            est_direct = procrustes_align(ref, noisy)
            adds_direct.append(metrics.add_metric(est_direct, pose, ref))
            try:
                est_pnp = pnp_dlt(project(noisy, cfg.camera), ref, cfg.camera)
                adds_pnp.append(metrics.add_metric(est_pnp, pose, ref))
            except NumericError:
                adds_pnp.append(float("inf"))
        rows.append({
            "level": float(level),
            "procrustes_add": float(np.mean(adds_direct)),
            "pnp_add": float(np.mean(adds_pnp)),
        })
    return rows


# -- evaluation ------------------------------------------------------------------

def evaluate(cfg: RunConfig, backbone_ckpt, report_dir,
             stage2_ckpt=None, baseline_ckpt=None,
             noise_trials: int = 200) -> dict:
    """Full metric suite on the validation splits; writes CSV/JSON reports."""
    report = Path(report_dir)
    report.mkdir(parents=True, exist_ok=True)
    params = load_backbone(cfg, backbone_ckpt)

    frames, _ = _load_split(cfg, "val")
    preds = predict_frames(cfg, params, frames)

    pred_hand = np.stack([p.hand_points for p in preds])
    gt_hand = np.stack([f.hand_points for f in frames])
    diag = cell_diagonal_m(cfg.grid, cfg.camera)
    thresholds = np.linspace(0.0, 2.0 * diag, 41)
    pck = metrics.pck3d(pred_hand, gt_hand, thresholds)
    metrics.write_curve_csv(report / "pck3d.csv", pck.thresholds, pck.fractions)

    adds, projs, adds_pnp = [], [], []
    for frame, pred in zip(frames, preds):
        ref = cuboid_control_points(frame.cuboid).points
        try:
            est = procrustes_align(ref, pred.object_points)
            adds.append(metrics.add_metric(est, frame.object_pose, ref))
            projs.append(metrics.proj2d_error(est, frame.object_pose, ref, cfg.camera))
        except NumericError:
            adds.append(float("inf"))
            projs.append(float("inf"))
        try:
            ok = pred.object_points[:, 2] > 1e-6
            if not np.all(ok):
                raise NumericError("points behind the camera")
            est = pnp_dlt(project(pred.object_points, cfg.camera), ref, cfg.camera)
            adds_pnp.append(metrics.add_metric(est, frame.object_pose, ref))
        except NumericError:
            adds_pnp.append(float("inf"))
    adds = np.array(adds)
    projs = np.array(projs)
    diameter = float(np.mean([f.cuboid.diameter() for f in frames]))
    add_thresholds = np.linspace(0.0, diameter, 41)
    metrics.write_curve_csv(report / "add_sweep.csv", add_thresholds,
                            metrics.fraction_below(adds, add_thresholds))
    px_thresholds = np.linspace(0.0, 20.0, 41)
    metrics.write_curve_csv(report / "proj2d_sweep.csv", px_thresholds,
                            metrics.fraction_below(projs, px_thresholds))

    action_acc = metrics.classification_accuracy(
        [p.action_id for p in preds], [f.action_id for f in frames])
    object_acc = metrics.classification_accuracy(
        [p.object_id for p in preds], [f.object_id for f in frames])
    pair_acc = metrics.classification_accuracy(
        [p.interaction_id(cfg.labels) for p in preds],
        [cfg.labels.interaction_index(f.action_id, f.object_id) for f in frames])

    summary = {
        "frames": len(frames),
        "cell_diagonal_m": diag,
        "mean_joint_error_mm": metrics.mean_joint_error_mm(pred_hand, gt_hand),
        "pck_at_cell_diagonal": float(np.interp(diag, pck.thresholds, pck.fractions)),
        "object_add_mean_m": float(np.mean(adds[np.isfinite(adds)]))
        if np.any(np.isfinite(adds)) else float("inf"),
        "object_add_pnp_mean_m": float(np.mean(np.array(adds_pnp)[np.isfinite(adds_pnp)]))
        if np.any(np.isfinite(adds_pnp)) else float("inf"),
        "action_accuracy": action_acc,
        "object_accuracy": object_acc,
        "single_image_interaction_accuracy": pair_acc,
    }

    sweep = pose_noise_sweep(cfg, trials=noise_trials)
    with open(report / "pose_noise_sweep.csv", "w") as f:
        f.write("level,procrustes_add,pnp_add\n")
        for row in sweep:
            f.write(f"{row['level']:.10g},{row['procrustes_add']:.10g},{row['pnp_add']:.10g}\n")
    summary["noise_sweep_direct_never_worse"] = bool(
        all(r["procrustes_add"] <= r["pnp_add"] for r in sweep))

    if stage2_ckpt is not None:
        model = load_interaction(cfg, stage2_ckpt, backbone_ckpt)
        inputs, seq_labels = _sequence_dataset(cfg, params, "seq_val")
        logits = ia.logits_graph(ad.wrap(model.params, False), model.cfg, inputs).data
        summary["interaction_accuracy"] = metrics.classification_accuracy(
            logits.argmax(axis=1), seq_labels)
        per_joint, parts = ia.weight_importance(model)
        with open(report / "importance.csv", "w") as f:
            f.write("joint,importance\n")
            for j, v in enumerate(per_joint):
                f.write(f"{j},{v:.10g}\n")
            for name, v in parts.items():
                f.write(f"{name},{v:.10g}\n")
        if baseline_ckpt is not None:
            base = load_interaction(cfg, baseline_ckpt, backbone_ckpt)
            logits = ia.logits_graph(ad.wrap(base.params, False), base.cfg, inputs).data
            summary["baseline_interaction_accuracy"] = metrics.classification_accuracy(
                logits.argmax(axis=1), seq_labels)

    metrics.write_json_summary(report / "summary.json", summary)
    _write_manifest(report, cfg, {"backbone_ckpt_hash": net.file_hash(backbone_ckpt)})
    return summary
