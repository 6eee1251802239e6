"""The benchmark's three workloads over gridpose's public stage functions.

Every workload has the same shape, so every run reports the same
end-to-end metrics:

* set-up: builds the workload's inputs from the seed; it is repeated at
  even intervals over the run, and `setup_s` is the median;
* a bulk path, run in identical rounds: items per second of the fastest
  round is `throughput_per_s`;
* a single-item path over a fixed list of items (100 on infer and
  interact, 5 training steps on train), in passes interleaved with the
  rounds: each item's fastest pass is its latency, and `latency_p50_ms`
  and `latency_p90_ms` are taken over the items;
* a reference kernel, fixed code of the benchmark's own timed before
  every cycle: its fastest time is `ref_ms`.

The gated metrics divide out the machine's speed in the run:
`throughput_per_ref` is throughput_per_s x ref_ms / 1000 (items per
reference time) and `latency_p50_ref` is latency_p50_ms / ref_ms. The
wall-clock figures are printed beside them, not gated.

`MEANING` says what the paths are on each workload; bench/README.md says
why each workload was chosen. A traced run (`trace=True`) records spans
around the same calls, then runs per-layer probes: repeated direct calls
into single modules whose median times are the per-layer metrics in
`PER_LAYER`.
"""

from __future__ import annotations

import csv
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from gridpose import autodiff as ad
from gridpose import codec, config, pipeline, synth
from gridpose import interaction as ia
from gridpose import network as net
from gridpose.geometry import cuboid_control_points
from gridpose.rigidpose import procrustes_align

from tracing import NullTracer, Tracer, self_time_by_layer

WORKLOADS = ("train", "infer", "interact")
LAYERS = ("synth", "codec", "autodiff", "network", "interaction", "rigidpose", "pipeline", "bench")
CONV_LAYERS = ("conv0", "conv1", "conv2", "conv3", "conv4", "head")

# name -> unit; "lower" is better for every end-to-end metric but throughput.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_ref": "1/ref",
    "latency_p50_ref": "ref",
    "peak_rss_mb": "MB",
}

# What throughput_per_s and latency_* mean on each workload.
MEANING = {
    "train": ("frame-epochs per second of pipeline.train_stage1 (train_frames_per_s)",
              "one batch-16 SGD step through network.sgd_epoch from the initial weights, "
              "as train_stage1 takes its first step"),
    "infer": ("frames per second at batch 64: forward, decode, prune, Procrustes (infer_frames_per_s)",
              "one frame at batch 1: forward, decode, prune, Procrustes (infer_latency_*)"),
    "interact": ("sequence-epochs per second of sgd_epoch_sequences, both variants "
                 "(interact_sequences_per_s)",
                 "classify_sequence of one held-out sequence (1000/p50 = classify_sequences_per_s)"),
}


def _conv_metrics():
    out = []
    for layer in CONV_LAYERS:
        key = f"autodiff.conv2d.{layer}"
        out += [
            (f"{key}.fwd_ms", "ms", "train, infer", "throughput_per_ref on train; throughput and latency on infer"),
            (f"{key}.bwd_ms", "ms", "train", "throughput_per_ref on train only"),
            (f"{key}.fwd_mflop", "MFLOP", "train, infer", "computed from shapes; fwd_mflop / fwd_ms = GFLOP/s"),
            (f"{key}.bwd_mflop", "MFLOP", "train", "computed from shapes; bwd_mflop / bwd_ms = GFLOP/s"),
        ]
    return out


# (name, unit, workloads that measure it, end-to-end metric it should move).
# A workload that does not measure a metric reports 0 for it.
PER_LAYER = [
    ("synth.sample_scene.ms", "ms", "infer", "setup_s on infer and train"),
    ("synth.render_entities.ms", "ms", "infer", "setup_s on infer and train"),
    ("synth.sample_sequence.ms_per_frame", "ms", "infer", "setup_s on interact (geometry only there)"),
    ("synth.save_frames.ms_per_frame", "ms", "infer", "setup_s on infer and train"),
    ("synth.load_frames.ms_per_frame", "ms", "infer", "setup_s on infer and train; throughput on train"),
    ("synth.bytes_per_frame", "bytes", "infer", "computed from file sizes; setup_s on infer"),
    ("codec.frame_targets.ms", "ms", "train", "setup_s on train; throughput_per_ref on train slightly"),
    ("codec.decode_grid.ms", "ms", "infer", "throughput and latency on infer; nothing on train"),
    ("codec.prune.ms", "ms", "infer", "throughput and latency on infer; nothing on train"),
    *_conv_metrics(),
    ("autodiff.backward.ms", "ms", "train, interact", "throughput_per_ref on train and on interact"),
    ("network.forward_graph.ms", "ms", "train", "throughput_per_ref on train"),
    ("network.loss_graph.ms", "ms", "train", "throughput_per_ref on train"),
    ("network.sgd_update.ms", "ms", "train", "throughput_per_ref on train"),
    ("network.forward.b1_ms", "ms", "infer", "latency_p50_ref on infer"),
    ("network.forward.b64_ms", "ms", "infer", "throughput_per_ref on infer"),
    ("network.BatchTargets.from_scenes.ms", "ms", "train", "setup_s on train; throughput_per_ref on train slightly"),
    ("network.save_checkpoint.ms", "ms", "train, infer", "setup_s on infer; throughput_per_ref on train slightly"),
    ("network.load_checkpoint.ms", "ms", "train, infer", "setup_s on infer; throughput_per_ref on train slightly"),
    ("interaction.sequence_inputs.ms", "ms", "interact", "setup_s on interact"),
    ("interaction.logits_graph.ms", "ms", "interact", "throughput and latency on interact"),
    ("interaction.lstm_step.ms", "ms", "interact", "throughput and latency on interact (logits_graph / T)"),
    ("interaction.sequence_loss.ms", "ms", "interact", "throughput_per_ref on interact"),
    ("interaction.classify_sequence.ms", "ms", "interact", "latency_p50_ref on interact"),
    ("rigidpose.procrustes_align.ms", "ms", "infer", "throughput and latency on infer"),
    ("pipeline.gen_data.s", "s", "infer", "setup_s on train (gen_data of its frames)"),
    ("pipeline.train_stage1.s", "s", "train", "stage wall of throughput_per_ref on train"),
    ("pipeline.predict_frames.ms_per_frame", "ms", "infer", "stage wall of throughput_per_ref on infer"),
    *[(f"{layer}.self_share", "share", "all",
       "share of the traced measurement spent in this layer's own spans")
      for layer in LAYERS],
    ("trace.overhead_throughput_share", "share", "all",
     "1 - traced / untraced bulk rate, median over adjacent cycle pairs"),
    ("trace.overhead_latency_share", "share", "all",
     "traced / untraced p50 item latency - 1, median over adjacent cycle pairs"),
]
PER_LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, smaller ones are for tests."""

    gen_frames: int = 8             # gen_data probe: frames, plus 2 val frames
    gen_sequences: int = 2          # gen_data probe: sequences
    gen_sequence_length: int = 4
    sequence_length: int = 16
    train_frames: int = 64
    train_steps: int = 5            # train's single-path items: batches of the train frames
    infer_frames: int = 64
    infer_batch: int = 64
    interact_sequences: int = 64
    heldout_sequences: int = 32
    latency_items: int = 100        # single-path items on infer and interact
    setup_repeats: int = 7          # set-ups, spread evenly over an untraced run
    probe_repeats: int = 5


MIN_CYCLES = 3  # bulk rounds and passes over the items, at least, per tracer


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def require(problems: list[str]) -> None:
    if problems:
        raise CheckFailed("; ".join(problems[:5]))


@dataclass
class Counter:
    attempted: int = 0
    failed: int = 0

    def attempt(self, fn, *args):
        """Run one operation; an exception or failed check counts as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # every failure is counted and reported, the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def timed(tracer, name, fn, *args, **kwargs):
    """Call fn inside a span; returns (result, seconds)."""
    with tracer.span(name):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0


def toy_config(seed: int, root: Path, sequence_length: int, **data) -> config.RunConfig:
    """The toy preset with its data and run directories under root."""
    cfg = config.toy_preset(seed=seed, out_dir=str(root / "run"), data_dir=str(root / "data"))
    scene = replace(cfg.scene, sequence_length=sequence_length)
    counts = dict(train_frames=0, val_frames=0, train_sequences=0, val_sequences=0)
    counts.update(data)
    return replace(cfg, scene=scene, data=replace(cfg.data, **counts))


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


# -- output checks ---------------------------------------------------------------

def check_rasters(frames, shape) -> list[str]:
    problems = []
    for i, f in enumerate(frames):
        r = f.raster
        if r is None or r.shape != shape:
            got = None if r is None else r.shape
            problems.append(f"frame {i}: raster shape {got}, want {shape}")
        elif not (np.all(np.isfinite(r)) and r.min() >= 0.0 and r.max() <= 1.0):
            problems.append(f"frame {i}: raster values outside [0, 1]")
    return problems


def check_round_trip(written, loaded) -> list[str]:
    """Labels read back equal the in-memory frames; rasters within 1/255."""
    if len(written) != len(loaded):
        return [f"wrote {len(written)} frames, read {len(loaded)}"]
    problems = []
    for i, (a, b) in enumerate(zip(written, loaded)):
        same = (a.action_id == b.action_id and a.object_id == b.object_id
                and np.array_equal(a.hand_points, b.hand_points)
                and np.array_equal(a.object_pose.rotation, b.object_pose.rotation)
                and np.array_equal(a.object_pose.translation, b.object_pose.translation)
                and np.allclose(a.object_points, b.object_points, rtol=0, atol=1e-12))
        if not same:
            problems.append(f"frame {i}: labels differ after the round trip")
        if np.max(np.abs(a.raster - b.raster)) > 1.0 / 255.0:
            problems.append(f"frame {i}: raster differs by more than 1/255")
    return problems


def check_probabilities(probs) -> list[str]:
    if not np.all(np.isfinite(probs)) or abs(float(np.sum(probs)) - 1.0) > 1e-9:
        return [f"class probabilities {probs} do not sum to 1"]
    return []


def check_predictions(preds, reference=None, tol: float = 1e-8) -> list[str]:
    """Finite points, class probabilities summing to 1, and agreement with a
    reference prediction of the same frames (batch 1 against batch 64)."""
    problems = []
    for i, p in enumerate(preds):
        arrays = (p.hand_points, p.object_points, p.action_probs, p.object_probs)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            problems.append(f"prediction {i}: not finite")
            continue
        for probs in (p.action_probs, p.object_probs):
            problems += [f"prediction {i}: {m}" for m in check_probabilities(probs)]
        if reference is not None:
            r = reference[i]
            if not all(np.allclose(a, b, rtol=tol, atol=tol) for a, b in zip(
                    arrays, (r.hand_points, r.object_points, r.action_probs, r.object_probs))):
                problems.append(f"prediction {i}: disagrees with the reference batch")
    return problems


def check_pose(pose) -> list[str]:
    rot = pose.rotation
    if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(pose.translation))):
        return ["Procrustes pose is not finite"]
    if abs(np.linalg.det(rot) - 1.0) > 1e-6:
        return ["Procrustes rotation is not proper"]
    return []


def check_losses(losses) -> list[str]:
    return [] if all(math.isfinite(v) for v in losses) else [f"non-finite loss in {losses}"]


# -- workloads -------------------------------------------------------------------

@dataclass
class State:
    sizes: Sizes
    seed: int
    root: Path
    cfg: config.RunConfig
    info: dict = field(default_factory=dict)   # extra printed numbers, name -> (value, unit)
    data: dict = field(default_factory=dict)


class Train:
    """pipeline.train_stage1 for one epoch over a data dir built in set-up,
    and single SGD steps on batches of the same frames. conv2d backward
    dominates; decode and prune are never called."""

    name = "train"
    stage_wall = ("pipeline.train_stage1", "pipeline.train_stage1.s")

    def setup(self, sizes, seed, root):
        cfg = toy_config(seed, root, sizes.sequence_length, train_frames=sizes.train_frames)
        cfg = replace(cfg, optim=replace(cfg.optim, epochs=1, schedule_epochs=()))
        st = State(sizes, seed, root, cfg)
        pipeline.gen_data(cfg)
        frames, _ = synth.load_frames(Path(cfg.data.dir) / "train")
        dataset = net.BatchTargets.from_scenes(
            frames, cfg.grid, cfg.labels, cfg.camera, np.stack([f.raster for f in frames]))
        rng = synth.seeded_rng(seed, 0x7a)
        batch = min(cfg.optim.batch_size, len(frames))
        st.data["dataset"] = dataset
        st.data["batches"] = [dataset.take(rng.choice(len(frames), batch, replace=False))
                              for _ in range(sizes.train_steps)]
        st.data["frames"] = frames
        st.data["init"] = net.init_params(cfg.backbone, cfg.grid, cfg.labels, seed)
        st.data["rng"] = rng
        return st

    def items(self, st):
        return len(st.data["batches"])

    def bulk(self, st, tracer):
        cfg = st.cfg
        ckpt, seconds = timed(tracer, "pipeline.train_stage1", pipeline.train_stage1, cfg)
        with open(Path(cfg.out_dir) / "stage1_log.csv") as f:
            losses = [float(row["loss"]) for row in csv.DictReader(f)]
        problems = check_losses(losses)
        if len(losses) != cfg.optim.epochs:
            problems.append(f"stage-1 log has {len(losses)} epochs, expected {cfg.optim.epochs}")
        params = pipeline.load_backbone(cfg, ckpt)
        if not all(np.all(np.isfinite(v)) for v in params.tensors.values()):
            problems.append("trained checkpoint holds non-finite weights")
        require(problems)
        st.info["train_loss_final"] = (losses[-1], "loss")
        return cfg.data.train_frames * cfg.optim.epochs, seconds

    def single(self, st, i, tracer):
        """One step at the configured batch and learning rate from the seed's
        initial weights, as train_stage1 takes its first step. Every item
        starts from those weights: a run of full-rate steps over these 64
        frames diverges on some seeds (seed 703 at its 18th step), and the
        passes over the items must repeat identical work."""
        cfg, params = st.cfg, st.data["init"].copy()
        loss, seconds = timed(tracer, "network.sgd_epoch", net.sgd_epoch,
                              params, st.data["batches"][i], cfg.optim.lr_at(0),
                              cfg.loss, cfg.backbone, cfg.grid, cfg.labels, st.data["rng"],
                              batch_size=cfg.optim.batch_size,
                              conf_targets=cfg.optim.conf_targets)
        require(check_losses([loss]))
        return seconds

    def probes(self, st, tracer):
        cfg, frames = st.cfg, st.data["frames"]
        batch = st.data["dataset"].take(np.arange(min(cfg.optim.batch_size, len(frames))))
        params = st.data["init"].copy()
        ckpt = st.root / "probe.ckpt"
        for r in range(st.sizes.probe_repeats):
            for f in frames[: cfg.optim.batch_size]:
                with tracer.span("codec.frame_targets"):
                    codec.frame_targets(f, cfg.grid, cfg.labels, cfg.camera)
            with tracer.span("network.BatchTargets.from_scenes"):
                net.BatchTargets.from_scenes(frames[: len(batch)], cfg.grid, cfg.labels,
                                             cfg.camera, batch.images)
            pt = net.wrap_params(params)
            with tracer.span("network.forward_graph"):
                raw = net.forward_graph(pt, batch.images, cfg.backbone, cfg.grid, cfg.labels)
            with tracer.span("network.loss_graph"):
                loss, _ = net.loss_graph(raw, batch, cfg.loss, cfg.grid, cfg.labels,
                                         cfg.optim.conf_targets)
            with tracer.span("autodiff.backward"):
                loss.backward()
            with tracer.span("network.sgd_update"):
                for name, t in pt.items():
                    params.tensors[name] -= cfg.optim.lr * t.grad
            with tracer.span("network.save_checkpoint"):
                net.save_checkpoint(ckpt, params.tensors, {"kind": "backbone"})
            with tracer.span("network.load_checkpoint"):
                net.load_checkpoint(ckpt)
        out = conv_probes(tracer, st.data["init"], cfg, batch.images, st.sizes.probe_repeats,
                          backward=True)
        out.update({name: _median_ms(tracer, name.rsplit(".", 1)[0]) for name in (
            "codec.frame_targets.ms", "network.BatchTargets.from_scenes.ms",
            "network.forward_graph.ms", "network.loss_graph.ms", "autodiff.backward.ms",
            "network.sgd_update.ms", "network.save_checkpoint.ms", "network.load_checkpoint.ms")})
        return out


def ground_truth_prediction(frame, labels) -> codec.FramePrediction:
    """A FramePrediction holding a frame's ground truth, for stage-2 inputs."""
    return codec.FramePrediction(
        hand_points=frame.hand_points, hand_confidence=1.0,
        action_probs=np.eye(labels.n_actions)[frame.action_id], hand_cell=(0, 0, 0),
        object_points=frame.object_points, object_confidence=1.0,
        object_probs=np.eye(labels.n_objects)[frame.object_id], object_cell=(0, 0, 0))


class Infer:
    """Forward-only: frames rendered and read back from the dataset files, a
    seeded backbone saved and loaded back, then batch-64 and batch-1
    prediction with Procrustes per frame. Never runs backward. Its set-up is
    synth-bound, so the traced run also probes synth here."""

    name = "infer"
    stage_wall = None

    def setup(self, sizes, seed, root):
        cfg = toy_config(seed, root, sizes.sequence_length)
        st = State(sizes, seed, root, cfg)
        rendered = [synth.sample_scene((seed, 0x1f, i), cfg.scene)
                    for i in range(sizes.infer_frames)]
        # infer on frames read back from the dataset files, as evaluation does
        synth.save_frames(root / "frames", rendered, list(range(len(rendered))))
        frames, _ = synth.load_frames(root / "frames")
        require(check_rasters(frames, (3, cfg.grid.image_h, cfg.grid.image_w))
                + check_round_trip(rendered, frames))
        params = net.init_params(cfg.backbone, cfg.grid, cfg.labels, seed)
        ckpt = root / "backbone.ckpt"
        net.save_checkpoint(ckpt, params.tensors, {
            "kind": "backbone", "seed": seed, "config_hash": config.config_hash(cfg),
            "signature": params.signature})
        st.data["params"] = pipeline.load_backbone(cfg, ckpt)
        st.data["frames"] = frames
        st.data["refs"] = [cuboid_control_points(f.cuboid).points for f in frames]
        return st

    def items(self, st):
        return st.sizes.latency_items

    def _poses(self, st, preds, indices, tracer):
        poses = []
        for i, p in zip(indices, preds):
            with tracer.span("rigidpose.procrustes_align"):
                poses.append(procrustes_align(st.data["refs"][i], p.object_points))
        return poses

    def bulk(self, st, tracer):
        frames = st.data["frames"]
        t0 = time.perf_counter()
        with tracer.span("pipeline.predict_frames"):
            preds = pipeline.predict_frames(st.cfg, st.data["params"], frames,
                                            batch_size=st.sizes.infer_batch)
        poses = self._poses(st, preds, range(len(frames)), tracer)
        seconds = time.perf_counter() - t0
        problems = check_predictions(preds, st.data.get("batch_preds"))
        for pose in poses:
            problems += check_pose(pose)
        require(problems)
        st.data.setdefault("batch_preds", preds)
        return len(frames), seconds

    def single(self, st, i, tracer):
        i %= len(st.data["frames"])
        t0 = time.perf_counter()
        with tracer.span("pipeline.predict_frames"):
            preds = pipeline.predict_frames(st.cfg, st.data["params"], [st.data["frames"][i]],
                                            batch_size=1)
        (pose,) = self._poses(st, preds, [i], tracer)
        seconds = time.perf_counter() - t0
        reference = st.data.get("batch_preds")
        require(check_predictions(preds, None if reference is None else [reference[i]])
                + check_pose(pose))
        return seconds

    def probes(self, st, tracer):
        cfg, frames, params = st.cfg, st.data["frames"], st.data["params"]
        images = np.stack([f.raster for f in frames[: st.sizes.infer_batch]])
        for r in range(st.sizes.probe_repeats):
            with tracer.span("network.forward.b1"):
                net.forward(params, images[:1], cfg.backbone, cfg.grid, cfg.labels)
            with tracer.span("network.forward.b64"):
                raw = net.forward(params, images, cfg.backbone, cfg.grid, cfg.labels)
            for i in range(raw.shape[0]):
                with tracer.span("codec.decode_grid"):
                    dec = codec.decode_grid(raw[i], cfg.grid, cfg.labels)
                with tracer.span("codec.prune"):
                    pred = codec.prune(dec, cfg.grid, cfg.camera)
                with tracer.span("rigidpose.procrustes_align"):
                    procrustes_align(st.data["refs"][i], pred.object_points)
            with tracer.span("pipeline.predict_frames"):
                pipeline.predict_frames(cfg, params, frames[: len(images)], batch_size=len(images))
            ckpt = st.root / "probe.ckpt"
            with tracer.span("network.save_checkpoint"):
                net.save_checkpoint(ckpt, params.tensors, {"kind": "backbone"})
            with tracer.span("network.load_checkpoint"):
                net.load_checkpoint(ckpt)
        out = conv_probes(tracer, params, cfg, images, st.sizes.probe_repeats, backward=False)
        out.update(synth_probes(st, tracer))
        out.update({
            "pipeline.predict_frames.ms_per_frame":
                _median_ms(tracer, "pipeline.predict_frames") / len(images),
            "network.forward.b1_ms": _median_ms(tracer, "network.forward.b1"),
            "network.forward.b64_ms": _median_ms(tracer, "network.forward.b64"),
            "codec.decode_grid.ms": _median_ms(tracer, "codec.decode_grid"),
            "codec.prune.ms": _median_ms(tracer, "codec.prune"),
            "rigidpose.procrustes_align.ms": _median_ms(tracer, "rigidpose.procrustes_align"),
            "network.save_checkpoint.ms": _median_ms(tracer, "network.save_checkpoint"),
            "network.load_checkpoint.ms": _median_ms(tracer, "network.load_checkpoint"),
        })
        return out


class Interact:
    """Stage-2 training of both variants (pair map on and off) on ground-truth
    sequence inputs, then classify_sequence on held-out sequences. Many tiny
    matmuls: autodiff's per-op Python overhead dominates, not conv GEMMs."""

    name = "interact"
    stage_wall = None

    def setup(self, sizes, seed, root):
        cfg = toy_config(seed, root, sizes.sequence_length)
        st = State(sizes, seed, root, cfg)
        labels = cfg.labels
        n_pairs = labels.n_actions * labels.n_objects
        icfg = cfg.interaction_model_config()
        inputs, ids = [], []
        for i in range(sizes.interact_sequences + sizes.heldout_sequences):
            pair = i % n_pairs
            seq = synth.sample_sequence((seed, 0x5e, i), pair // labels.n_objects,
                                        pair % labels.n_objects, cfg.scene, with_raster=False)
            preds = [ground_truth_prediction(f, labels) for f in seq.frames]
            inputs.append(ia.sequence_inputs(icfg, preds))
            ids.append(seq.interaction_id)
        n = sizes.interact_sequences
        st.data["inputs"], st.data["heldout"] = np.stack(inputs[:n]), np.stack(inputs[n:])
        st.data["labels"] = np.array(ids[:n], dtype=int)
        st.data["preds"] = preds
        return st

    def items(self, st):
        return st.sizes.latency_items

    def bulk(self, st, tracer):
        cfg, it = st.cfg, st.cfg.interaction
        seconds, losses = 0.0, []
        for pair_map in (True, False):
            model, dt = timed(tracer, "interaction.init_interaction", ia.init_interaction,
                              cfg.interaction_model_config(use_pair_map=pair_map), st.seed)
            seconds += dt
            rng = synth.seeded_rng(st.seed, 0x52, int(pair_map))
            loss, dt = timed(tracer, "interaction.sgd_epoch_sequences", ia.sgd_epoch_sequences,
                             model, st.data["inputs"], st.data["labels"], it.lr_at(0), rng,
                             batch_size=it.batch_size)
            seconds += dt
            losses.append(loss)
            if pair_map:
                trained = model
        require(check_losses(losses))
        st.data["model"] = trained
        st.info["interact_loss_final"] = (losses[0], "loss")
        return 2 * len(st.data["labels"]), seconds

    def single(self, st, i, tracer):
        x = st.data["heldout"][i % len(st.data["heldout"])]
        probs, seconds = timed(tracer, "interaction.classify_sequence", ia.classify_sequence,
                               st.data["model"], x)
        require(check_probabilities(probs))
        return seconds

    def probes(self, st, tracer):
        cfg, model = st.cfg, st.data["model"]
        b = cfg.interaction.batch_size
        batch, labels = st.data["inputs"][:b], st.data["labels"][:b]
        for r in range(st.sizes.probe_repeats):
            with tracer.span("interaction.sequence_inputs"):
                ia.sequence_inputs(model.cfg, st.data["preds"])
            pt = {k: ad.Tensor(v, requires_grad=True) for k, v in model.params.items()}
            with tracer.span("interaction.logits_graph"):
                logits = ia.logits_graph(pt, model.cfg, batch)
            logp = ad.log_softmax(logits, axis=-1)
            loss = ad.mul(logp[(np.arange(len(labels)), labels)].sum(), -1.0 / len(labels))
            with tracer.span("autodiff.backward"):
                loss.backward()
            with tracer.span("interaction.sequence_loss"):
                ia.sequence_loss(model, batch, labels)
            with tracer.span("interaction.classify_sequence"):
                ia.classify_sequence(model, st.data["heldout"][r % len(st.data["heldout"])])
        logits_ms = _median_ms(tracer, "interaction.logits_graph")
        return {
            "interaction.sequence_inputs.ms": _median_ms(tracer, "interaction.sequence_inputs"),
            "interaction.logits_graph.ms": logits_ms,
            "interaction.lstm_step.ms": logits_ms / batch.shape[1],
            "interaction.sequence_loss.ms": _median_ms(tracer, "interaction.sequence_loss"),
            "interaction.classify_sequence.ms": _median_ms(tracer, "interaction.classify_sequence"),
            "autodiff.backward.ms": _median_ms(tracer, "autodiff.backward"),
        }


def synth_probes(st, tracer) -> dict:
    """The renderer and the dataset files, and one small gen_data call."""
    s, cfg = st.sizes, st.cfg
    scene = cfg.scene
    d = st.root / "probe"
    bytes_per_frame = []
    for r in range(s.probe_repeats):
        frame = synth.sample_scene((st.seed, 0x9b, r), scene, with_raster=False)
        with tracer.span("synth.sample_scene"):
            synth.sample_scene((st.seed, 0x9b, r), scene)
        with tracer.span("synth.render_entities"):
            synth.render_entities(cfg.camera, cfg.grid, scene.render,
                                  frame.hand_points, frame.object_points)
        pair = r % (cfg.labels.n_actions * cfg.labels.n_objects)
        with tracer.span("synth.sample_sequence"):
            seq = synth.sample_sequence((st.seed, 0x9c, r), pair // cfg.labels.n_objects,
                                        pair % cfg.labels.n_objects, scene)
        with tracer.span("synth.save_frames"):
            synth.save_frames(d, seq.frames, [0] * len(seq.frames))
        with tracer.span("synth.load_frames"):
            synth.load_frames(d)
        bytes_per_frame.append(dir_bytes(d) / len(seq.frames))
        shutil.rmtree(d)
        gen = toy_config(st.seed, st.root / "gen", s.gen_sequence_length,
                         train_frames=s.gen_frames, val_frames=2, train_sequences=s.gen_sequences)
        with tracer.span("pipeline.gen_data"):
            pipeline.gen_data(gen)
        shutil.rmtree(st.root / "gen")
    t = len(seq.frames)
    return {
        "synth.sample_scene.ms": _median_ms(tracer, "synth.sample_scene"),
        "synth.render_entities.ms": _median_ms(tracer, "synth.render_entities"),
        "synth.sample_sequence.ms_per_frame": _median_ms(tracer, "synth.sample_sequence") / t,
        "synth.save_frames.ms_per_frame": _median_ms(tracer, "synth.save_frames") / t,
        "synth.load_frames.ms_per_frame": _median_ms(tracer, "synth.load_frames") / t,
        "synth.bytes_per_frame": statistics.median(bytes_per_frame),
        "pipeline.gen_data.s": _median_ms(tracer, "pipeline.gen_data") / 1000.0,
    }


def conv_flops(n, c, f, k, oh, ow) -> float:
    """Multiply-adds x 2 of one conv forward, from shapes."""
    return 2.0 * n * f * c * k * k * oh * ow


def conv_probes(tracer, params, cfg, images, repeats, backward) -> dict:
    """Forward (and backward) time and computed FLOPs of each conv layer on the
    activations it sees in the network, at the batch of `images`."""
    bb = cfg.backbone
    pad = bb.kernel // 2
    layers = [(f"conv{i}", s, pad, bb.kernel) for i, s in enumerate(bb.strides)]
    layers.append(("head", 1, 0, 1))
    x = ad.Tensor(images)
    out = {}
    for i, (name, stride, padding, k) in enumerate(layers):
        w, b = params.tensors[f"{name}.w"], params.tensors[f"{name}.b"]
        n, c = x.data.shape[:2]
        for _ in range(repeats):
            # the image entering conv0 needs no gradient, every later input does
            xin = ad.Tensor(x.data, requires_grad=backward and i > 0)
            wt = ad.Tensor(w, requires_grad=backward)
            bt = ad.Tensor(b, requires_grad=backward)
            with tracer.span(f"autodiff.conv2d.{name}.fwd"):
                y = ad.conv2d(xin, wt, bt, stride=stride, padding=padding)
            if backward:
                loss = ad.tsum(ad.mul(y, 1.0))
                with tracer.span(f"autodiff.conv2d.{name}.bwd"):
                    loss.backward()
        _, f, oh, ow = y.data.shape
        fwd = conv_flops(n, c, f, k, oh, ow) / 1e6
        key = f"autodiff.conv2d.{name}"
        out[f"{key}.fwd_ms"] = _median_ms(tracer, f"{key}.fwd")
        out[f"{key}.fwd_mflop"] = fwd
        if backward:
            out[f"{key}.bwd_ms"] = _median_ms(tracer, f"{key}.bwd")
            out[f"{key}.bwd_mflop"] = fwd * (2 if i > 0 else 1)
        x = ad.leaky_relu(ad.Tensor(y.data), bb.leak) if name != "head" else x
    return out


def _median_ms(tracer, name) -> float:
    durations = tracer.durations(name)
    return 1000.0 * statistics.median(durations) if durations else 0.0


REGISTRY = {w.name: w for w in (Train(), Infer(), Interact())}


# -- runner ----------------------------------------------------------------------

def percentile(samples, q: int) -> float:
    """q-th percentile (q in 10..90 step 10) by statistics.quantiles."""
    return statistics.quantiles(samples, n=10)[q // 10 - 1]


@dataclass
class Side:
    """The cycles of a measurement that ran under one tracer, in order:
    each bulk round's rate, and each item's latency in every pass."""

    rates: list = field(default_factory=list)
    samples: list = field(default_factory=list)     # per item: ms per pass

    def metrics(self) -> dict:
        """Wall-clock figures: fastest round, fastest pass of each item."""
        latencies = [min(item) for item in self.samples]
        return {
            "throughput_per_s": max(self.rates),
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": percentile(latencies, 90),
        }

    def pass_p50_ms(self) -> list[float]:
        return [statistics.median(one_pass) for one_pass in zip(*self.samples)]


def paired_ratio(before, after) -> float:
    """Median over cycle pairs of a value over the one measured just before."""
    return statistics.median(b / a for a, b in zip(before, after))


class Reference:
    """A fixed mix of the three kinds of work gridpose does: interpreted
    Python, numpy calls on small arrays, and a float64 GEMM. None of it is
    gridpose code, so no change to the program moves it; only the speed of
    the machine does. Each part keeps its fastest time; `ms` is their sum.

    Over whole runs the shared host is slower by up to 1.5x for minutes at
    a time, and the fastest repeat inside a run cannot see that: in such a
    run this kernel is as much slower as the workload (see README.md).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a, self.b = rng.random((256, 576)), rng.random((576, 784))
        self.x = rng.random((16, 64))
        self.best = [math.inf] * 3

    def _python(self):
        total = 0
        for i in range(70_000):
            total += i * i
        return total

    def _numpy(self):
        y = self.x
        for _ in range(600):
            y = np.tanh(y * 0.5 + 0.1)
        return y

    def _gemm(self):
        return self.a @ self.b

    def sample(self) -> None:
        for k, part in enumerate((self._python, self._numpy, self._gemm)):
            t0 = time.perf_counter()
            part()
            self.best[k] = min(self.best[k], time.perf_counter() - t0)

    @property
    def ms(self) -> float:
        return 1000.0 * sum(self.best)


def measure(wl, st, seconds, tracers, counter, setup=None, setups=0) -> tuple[list[Side], int, float]:
    """Cycles of one bulk round and one pass over the single-path items, for
    `seconds` in all and at least MIN_CYCLES cycles per tracer; returns each
    tracer's cycles, the number of cycles and `Reference.ms` of the run,
    sampled before every cycle.

    On a shared host the CPU runs up to 1.5x slower for stretches of a
    fraction of a second to minutes (see README.md). Every round does
    identical work and so does every pass over an item, so each is timed at
    its fastest repeat: throughput from the fastest round, and each item's
    latency from its fastest pass (then p50 and p90 over the items). The
    paths are interleaved so both sample the whole run, and the cycles take
    the tracers in turn, so a traced and an untraced side sample the same
    stretches. `setup` is called `setups` times at even intervals over the
    run, so the set-up timings sample the whole run too. The first round and
    the first item are warm-ups: checked, not timed.
    """
    start = time.perf_counter()
    deadline = start + seconds
    n_items = wl.items(st)
    sides = [Side(samples=[[] for _ in range(n_items)]) for _ in tracers]
    counter.attempt(wl.bulk, st, tracers[0])
    counter.attempt(wl.single, st, 0, tracers[0])
    reference = Reference()
    cycles = done = 0
    while cycles < MIN_CYCLES * len(tracers) or time.perf_counter() < deadline:
        reference.sample()
        tracer = tracers[cycles % len(tracers)]
        side = sides[cycles % len(tracers)]
        with tracer.span("bench.cycle"):
            result = counter.attempt(wl.bulk, st, tracer)
            if result is not None:
                side.rates.append(result[0] / result[1])
            for i, item in enumerate(side.samples):
                secs = counter.attempt(wl.single, st, i, tracer)
                if secs is not None:
                    item.append(1000.0 * secs)
        cycles += 1
        if done < setups and (done + 1) * seconds <= (setups + 1) * (time.perf_counter() - start):
            setup()
            done += 1
        if counter.failed > cycles * (1 + n_items) // 2:
            break
    for _ in range(done, setups):
        setup()
    if not all(side.rates and all(side.samples) for side in sides):
        raise CheckFailed(f"{wl.name}: too many failed operations to report metrics")
    return sides, cycles, reference.ms


@dataclass
class Result:
    workload: str
    counter: Counter
    metrics: dict           # name -> value
    units: dict             # name -> unit
    info: dict              # name -> (value, unit), printed only
    samples: dict           # how many set-ups, cycles and items the numbers cover

    @property
    def correct(self) -> bool:
        return self.counter.failed == 0


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 sizes: Sizes = Sizes()) -> Result:
    """Set up, then measure; an untraced run repeats the set-up over the run,
    a traced run probes the layers after it."""
    wl = REGISTRY[name]
    counter = Counter()
    setup_times = []

    def timed_setup():
        root = work / f"{name}-setup{len(setup_times)}"
        t0 = time.perf_counter()
        st = wl.setup(sizes, seed, root)
        setup_times.append(time.perf_counter() - t0)
        return st

    def spare_setup():
        timed_setup()
        shutil.rmtree(work / f"{name}-setup{len(setup_times) - 1}", ignore_errors=True)

    st = timed_setup()
    if not trace:
        (side,), cycles, ref_ms = measure(wl, st, seconds, [NullTracer()], counter,
                                          spare_setup, sizes.setup_repeats - 1)
        wall = side.metrics()
        metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput_per_ref": wall["throughput_per_s"] * ref_ms / 1000.0,
            "latency_p50_ref": wall["latency_p50_ms"] / ref_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"setup_repeats": len(setup_times), "cycles": cycles,
                   "items": wl.items(st)}
        info = dict(st.info, ref_ms=(ref_ms, "ms"))
        info.update({k: (v, "1/s" if k.startswith("throughput") else "ms")
                     for k, v in wall.items()})
        return Result(name, counter, metrics, dict(END_TO_END), info, samples)

    # Traced: cycles alternate between untraced and traced, then the layer
    # probes run with their own spans. The tracing overhead compares each
    # traced cycle with the untraced one just before it, so the machine's
    # drift between stretches of the run cancels.
    tracer = Tracer()
    (plain, traced), cycles, _ = measure(wl, st, seconds, [NullTracer(), tracer], counter)
    probe_tracer = Tracer()
    metrics = {metric: 0.0 for metric in PER_LAYER_UNITS}
    metrics.update(wl.probes(st, probe_tracer))
    if wl.stage_wall:
        span_name, metric = wl.stage_wall
        metrics[metric] = statistics.median(tracer.durations(span_name))
    own = self_time_by_layer(tracer.spans)
    total = sum(own.values())
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = own.get(layer, 0.0) / total
    metrics["trace.overhead_throughput_share"] = 1.0 - paired_ratio(plain.rates, traced.rates)
    metrics["trace.overhead_latency_share"] = (
        paired_ratio(plain.pass_p50_ms(), traced.pass_p50_ms()) - 1.0)
    info = dict(st.info, spans_recorded=(len(tracer.spans) + len(probe_tracer.spans), "count"))
    samples = {"cycles": cycles, "items": wl.items(st), "probe_repeats": sizes.probe_repeats}
    return Result(name, counter, metrics, dict(PER_LAYER_UNITS), info, samples)
