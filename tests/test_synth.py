"""Scene/sequence generators, renderer and dataset file round trips."""

import hashlib

import numpy as np
import pytest
from scipy import stats

from gridpose import codec, config
from gridpose import geometry as geo
from gridpose import synth
from gridpose.codec import LabelSpec
from gridpose.errors import ConfigError, ConfigOutOfRange

from conftest import rotation_geodesic


GRID = geo.GridSpec(h=7, w=7, d=3, cell_u_px=8.0, cell_v_px=8.0, cell_z_m=0.15,
                    z_min=0.3, cutoff_px=12.0, cutoff_m=0.075)
CAM = geo.CameraIntrinsics(fx=80.0, fy=80.0, cx=28.0, cy=28.0)
LABELS = LabelSpec(n_objects=3, n_actions=4)
PARAMS = synth.SceneParams(grid=GRID, cam=CAM, labels=LABELS)

# sha256 of np.round(raster * 255) as uint8 for toy_preset().scene frames
# sample_scene((2024, i)), i = 0..7, recorded from the per-window loop renderer.
PINNED_RASTER_SHA256 = (
    "7b9764c50ec26c8f9dfb0c14bdc466a26abffa295e393ff47ed280f497afb6ee",
    "f27507b949087a9c27249ff65590da33b0c3fd24160427d5ada5b4c455a342cf",
    "b45979eec3a85b06593b0d1e6c05a51645a9fa1329eed510107ae642f1909b75",
    "d615e39f5d6b93b6348da6c9dc8fe38733a3af967e0cf09daa81d695e5b5457a",
    "2ccce49e197b18c922c4935e6c36af93ae7ca5f94f7e63b305a0af2ad0126966",
    "6b4f725240a95ce75787ff2ba3ddec1dda180f3f6adeed4389e17a42f69ddd7e",
    "17ce8abc61da9c552503b3efc291f98d417a38978fd784f322573753ee41e4ff",
    "46884fc65d96201cc3a28e4bc09799c7655d1a600252d9ce9b97a27f5ac51251",
)


# -- reference renderer: one Gaussian window per call, in a Python loop --------

def ref_splat(img, u, v, sigma, amp):
    """Max-composite one Gaussian blob; window clipped to the image."""
    h, w = img.shape
    r = max(1, int(np.ceil(3 * sigma)))
    x0, x1 = int(np.floor(u)) - r, int(np.floor(u)) + r + 1
    y0, y1 = int(np.floor(v)) - r, int(np.floor(v)) + r + 1
    x0c, x1c = max(0, x0), min(w, x1)
    y0c, y1c = max(0, y0), min(h, y1)
    if x0c >= x1c or y0c >= y1c:
        return
    xs = np.arange(x0c, x1c) - u
    ys = np.arange(y0c, y1c) - v
    g = amp * np.exp(-(ys[:, None] ** 2 + xs[None, :] ** 2) / (2 * sigma ** 2))
    np.maximum(img[y0c:y1c, x0c:x1c], g, out=img[y0c:y1c, x0c:x1c])


def ref_stroke(img, p_a, p_b, cam, grid, spec, gain):
    """Line segment between two camera-frame points as dense small blobs."""
    if p_a[2] <= 0 or p_b[2] <= 0:
        return
    px_a, px_b = geo.project(p_a, cam), geo.project(p_b, cam)
    steps = max(2, int(np.ceil(np.linalg.norm(px_b - px_a))))
    for t in np.linspace(0.0, 1.0, steps):
        p = (1 - t) * p_a + t * p_b
        px = (1 - t) * px_a + t * px_b
        amp = gain * synth._depth_code(p[2], grid, spec.depth_floor)
        ref_splat(img, px[0], px[1], 0.6, float(amp))


def ref_render_entities(cam, grid, spec, hand_points=None, object_points=None):
    h, w = grid.image_h, grid.image_w
    planes = np.zeros((3, h, w))

    def blob_sigma(z):
        return max(spec.min_sigma_px, cam.fx * spec.blob_radius_m / z)

    if hand_points is not None:
        pts = np.asarray(hand_points, dtype=float)
        if pts.shape[0] == 21:
            for a, b in geo.HAND_BONES:
                ref_stroke(planes[0], pts[a], pts[b], cam, grid, spec, spec.bone_gain)
        for j, p in enumerate(pts):
            if p[2] <= 0:
                continue
            u, v = geo.project(p, cam)
            amp = synth._depth_code(p[2], grid, spec.depth_floor)
            ref_splat(planes[0], u, v, blob_sigma(p[2]), float(amp))
            ref_splat(planes[2], u, v, blob_sigma(p[2]), 0.25 + 0.75 * (j + 1) / len(pts))

    if object_points is not None:
        pts = np.asarray(object_points, dtype=float)
        if pts.shape[0] >= 8:
            for a, b in geo._CUBOID_EDGES:
                ref_stroke(planes[1], pts[a], pts[b], cam, grid, spec, spec.bone_gain)
        for k, p in enumerate(pts[:8]):
            if p[2] <= 0:
                continue
            u, v = geo.project(p, cam)
            amp = synth._depth_code(p[2], grid, spec.depth_floor)
            ref_splat(planes[1], u, v, blob_sigma(p[2]), float(amp))
            ref_splat(planes[2], u, v, blob_sigma(p[2]), 0.25 + 0.75 * (k + 1) / 8.0)

    if spec.channels == 1:
        return planes.max(axis=0, keepdims=True)
    return planes


def assert_matches_reference(hand=None, obj=None, spec=PARAMS.render):
    """The batched renderer against the loop: 1e-12 in float, equal as uint8."""
    new = synth.render_entities(CAM, GRID, spec, hand_points=hand, object_points=obj)
    ref = ref_render_entities(CAM, GRID, spec, hand_points=hand, object_points=obj)
    assert new.shape == ref.shape
    assert np.abs(new - ref).max() <= 1e-12
    np.testing.assert_array_equal(np.round(new * 255).astype(np.uint8),
                                  np.round(ref * 255).astype(np.uint8))
    return new


class TestSampleScene:
    def test_deterministic_per_seed(self):
        a = synth.sample_scene(123, PARAMS)
        b = synth.sample_scene(123, PARAMS)
        np.testing.assert_array_equal(a.hand_points, b.hand_points)
        np.testing.assert_array_equal(a.object_points, b.object_points)
        np.testing.assert_array_equal(a.raster, b.raster)
        assert (a.action_id, a.object_id) == (b.action_id, b.object_id)

    def test_different_seeds_differ(self):
        a = synth.sample_scene(1, PARAMS, with_raster=False)
        b = synth.sample_scene(2, PARAMS, with_raster=False)
        assert not np.array_equal(a.hand_points, b.hand_points)

    def test_all_roots_and_centroids_in_volume(self):
        for seed in range(300):
            frame = synth.sample_scene(seed, PARAMS, with_raster=False)
            # encoding raises OutOfVolume if the invariant fails
            codec.frame_targets(frame, GRID, LABELS, CAM)

    def test_centroid_depth_is_uniform(self):
        # constructive sampling draws the depth cell uniformly on
        # [margin, d - margin]; chi-square on 10 equal bins
        depths = np.array([
            synth.sample_scene(seed, PARAMS, with_raster=False).object_points[20, 2]
            for seed in range(1000)
        ])
        lo = GRID.z_min + PARAMS.margin_z_cells * GRID.cell_z_m
        hi = GRID.z_min + (GRID.d - PARAMS.margin_z_cells) * GRID.cell_z_m
        assert depths.min() >= lo and depths.max() <= hi
        counts, _ = np.histogram(depths, bins=10, range=(lo, hi))
        _, p = stats.chisquare(counts)
        assert p > 0.01

    def test_bone_lengths_are_scaled_template(self):
        frame = synth.sample_scene(7, PARAMS, with_raster=False)
        pts = frame.hand_points
        # per-finger bone lengths keep template ratios (rigid bones)
        for f in range(5):
            mcp, pip_, dip, tip = pts[1 + 4 * f: 5 + 4 * f]
            seg = [np.linalg.norm(pip_ - mcp), np.linalg.norm(dip - pip_),
                   np.linalg.norm(tip - dip)]
            expect = synth._BONE_LENGTHS[f]
            ratios = np.array(seg) / expect
            assert ratios.std() / ratios.mean() < 1e-9


class TestHandSkeleton:
    def test_wrist_at_origin(self):
        rng = np.random.default_rng(0)
        pts = synth.hand_skeleton(rng, PARAMS)
        np.testing.assert_array_equal(pts[0], [0.0, 0.0, 0.0])
        assert pts.shape == (21, 3)

    def test_zero_jitter_reproduces_template_directions(self):
        frozen = synth.SceneParams(grid=GRID, cam=CAM, labels=LABELS,
                                   hand_scale_range=(1.0, 1.0),
                                   curl_max=0.0, abduct_max=0.0)
        pts = synth.hand_skeleton(np.random.default_rng(0), frozen)
        # flat hand: everything stays in the palm plane z = 0
        np.testing.assert_allclose(pts[:, 2], 0.0, atol=1e-12)


class TestRender:
    def test_empty_scene_is_all_zero(self):
        raster = synth.render_entities(CAM, GRID, PARAMS.render)
        assert raster.shape == (3, 56, 56)
        assert np.all(raster == 0.0)

    def test_single_point_peaks_at_projection(self):
        center = geo.grid_to_camera(np.array([3.5, 3.5, 1.5]), CAM, GRID)
        raster = synth.render_entities(CAM, GRID, PARAMS.render,
                                       hand_points=center[None, :])
        u, v = geo.project(center, CAM)
        peak = np.unravel_index(np.argmax(raster[0]), raster[0].shape)
        assert peak == (int(round(v)), int(round(u)))

    def test_nearer_points_are_brighter(self):
        near = geo.grid_to_camera(np.array([2.0, 3.5, 0.7]), CAM, GRID)
        far = geo.grid_to_camera(np.array([5.0, 3.5, 2.6]), CAM, GRID)
        raster = synth.render_entities(CAM, GRID, PARAMS.render,
                                       hand_points=np.stack([near, far]))
        u_n, v_n = geo.project(near, CAM)
        u_f, v_f = geo.project(far, CAM)
        assert raster[0, int(v_n), int(u_n)] > raster[0, int(v_f), int(u_f)]

    def test_one_cell_shift_moves_raster_by_cell_pixels(self):
        frame = synth.sample_scene(11, PARAMS)
        du = int(GRID.cell_u_px)
        shifted = synth.translate_frame(frame, du, 0, CAM)
        re_rendered = synth.render(shifted, CAM, GRID, PARAMS.render)
        # cross-correlation argmax between the two hand planes
        a = frame.raster[0]
        b = re_rendered[0]
        corr = np.fft.irfft2(np.fft.rfft2(b) * np.conj(np.fft.rfft2(a)))
        dv_hat, du_hat = np.unravel_index(np.argmax(corr), corr.shape)
        assert (du_hat, dv_hat) == (du, 0)

    def test_grayscale_mode(self):
        params = synth.SceneParams(grid=GRID, cam=CAM, labels=LABELS,
                                   render=synth.RenderSpec(channels=1))
        frame = synth.sample_scene(3, params)
        assert frame.raster.shape == (1, 56, 56)
        assert frame.raster.max() <= 1.0


class TestRenderMatchesReference:
    def test_seeded_scenes(self):
        for seed in range(60):
            frame = synth.sample_scene((seed, 0xe9), PARAMS, with_raster=False)
            assert_matches_reference(frame.hand_points, frame.object_points)

    def test_sequences(self):
        for action in range(4):
            seq = synth.sample_sequence(41, action, action % 3, PARAMS, with_raster=False)
            for f in seq.frames:
                assert_matches_reference(f.hand_points, f.object_points)

    def test_stroke_samples_are_placed_as_linspace(self):
        # A stroke's end samples lie under its endpoint blobs, which outshine
        # them, so the sample placement is checked on the windows themselves.
        # edge (0, 1) spans 49.5 px: 50 samples, and 49 * (1 / 49) != 1.0
        pts = np.array([[-0.15, 0.0, 0.5], [0.159375, 0.0, 0.5], [0.0, 0.05, 0.55]])
        edges = ((0, 1), (1, 2), (2, 0))
        u, v, sigma, _, plane = synth._windows(pts, 1, edges, 3, CAM, GRID, PARAMS.render)
        stroke = sigma == 0.6   # blobs have sigma >= min_sigma_px = 0.8
        px = geo.project(pts, CAM)
        expect = [(1 - t) * px[a] + t * px[b] for a, b in edges
                  for t in np.linspace(0.0, 1.0, int(np.ceil(np.linalg.norm(px[b] - px[a]))))]
        np.testing.assert_array_equal(np.stack([u[stroke], v[stroke]], axis=1), expect)
        assert np.all(plane[stroke] == 1)

    @pytest.mark.parametrize("du,dv", [(-30, 0), (30, 0), (0, -30), (0, 30)])
    def test_clipped_at_each_border(self, du, dv):
        frame = synth.translate_frame(synth.sample_scene(5, PARAMS, with_raster=False),
                                      du, dv, CAM)
        uv = geo.project(np.concatenate([frame.hand_points, frame.object_points]), CAM)
        axis, size = (0, GRID.image_w) if du else (1, GRID.image_h)
        outside = (uv[:, axis] < 0) | (uv[:, axis] >= size)
        assert outside.any() and not outside.all()
        raster = assert_matches_reference(frame.hand_points, frame.object_points)
        assert raster.max() > 0

    @pytest.mark.parametrize("du,dv", [(-200, 0), (200, 0), (0, -200), (0, 200)])
    def test_wholly_outside_image(self, du, dv):
        frame = synth.translate_frame(synth.sample_scene(5, PARAMS, with_raster=False),
                                      du, dv, CAM)
        raster = assert_matches_reference(frame.hand_points, frame.object_points)
        assert np.all(raster == 0.0)

    def test_near_point_uses_a_second_window_radius(self):
        hand = synth.sample_scene(8, PARAMS, with_raster=False).hand_points.copy()
        hand[6] = [0.01, -0.01, 0.12]   # blob sigma 0.8 / 0.12 px: radius 20, strokes 2
        radii = {max(1, int(np.ceil(3 * max(PARAMS.render.min_sigma_px,
                                                CAM.fx * PARAMS.render.blob_radius_m / z))))
                 for z in hand[:, 2]}
        assert len(radii | {2}) >= 3
        assert_matches_reference(hand)

    def test_points_behind_camera_are_skipped(self):
        frame = synth.sample_scene(9, PARAMS, with_raster=False)
        hand, obj = frame.hand_points.copy(), frame.object_points.copy()
        hand[2, 2] = -0.05   # bone endpoint and blob
        hand[20, 2] = 0.0    # fingertip: last bone endpoint and blob
        obj[3, 2] = -0.2     # box corner: three edges and a blob
        assert_matches_reference(hand, obj)

    def test_partial_entities(self):
        frame = synth.sample_scene(10, PARAMS, with_raster=False)
        hand, obj = frame.hand_points, frame.object_points
        assert_matches_reference(hand[:20], obj[:7])   # no strokes on either
        assert_matches_reference(hand[:5])
        assert_matches_reference(hand=hand)
        assert_matches_reference(obj=obj)
        assert_matches_reference(obj=obj[:8])

    def test_grayscale_and_empty(self):
        gray = synth.RenderSpec(channels=1)
        for seed in range(5):
            frame = synth.sample_scene(seed, PARAMS, with_raster=False)
            assert assert_matches_reference(frame.hand_points, frame.object_points,
                                            spec=gray).shape == (1, 56, 56)
        assert_matches_reference()
        assert_matches_reference(spec=gray)
        assert_matches_reference(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_pinned_raster_bytes(self):
        scene = config.toy_preset().scene
        for i, digest in enumerate(PINNED_RASTER_SHA256):
            raster = synth.sample_scene((2024, i), scene).raster
            quantised = np.clip(np.round(raster * 255.0), 0, 255).astype(np.uint8)
            assert hashlib.sha256(quantised.tobytes()).hexdigest() == digest, f"frame {i}"


class TestSequences:
    def test_approach_distance_strictly_decreasing(self):
        seq = synth.sample_sequence(5, 0, 1, PARAMS, with_raster=False)
        d = [np.linalg.norm(f.hand_points[0] - f.object_points[20]) for f in seq.frames]
        assert all(b < a for a, b in zip(d, d[1:]))

    def test_retract_distance_strictly_increasing(self):
        seq = synth.sample_sequence(5, 1, 1, PARAMS, with_raster=False)
        d = [np.linalg.norm(f.hand_points[0] - f.object_points[20]) for f in seq.frames]
        assert all(b > a for a, b in zip(d, d[1:]))

    def test_rotate_angle_increases_translation_fixed(self):
        seq = synth.sample_sequence(9, 2, 0, PARAMS, with_raster=False)
        r0 = seq.frames[0].object_pose.rotation
        angles = [rotation_geodesic(f.object_pose.rotation, r0) for f in seq.frames]
        assert all(b > a for a, b in zip(angles, angles[1:]))
        for f in seq.frames:
            np.testing.assert_array_equal(f.object_pose.translation,
                                          seq.frames[0].object_pose.translation)

    def test_shake_oscillates(self):
        seq = synth.sample_sequence(13, 3, 2, PARAMS, with_raster=False)
        pos = np.array([f.object_points[20] for f in seq.frames])
        vel = np.diff(pos, axis=0)
        main_axis = np.argmax(np.abs(vel).sum(axis=0))
        signs = np.sign(vel[:, main_axis])
        assert (np.diff(signs) != 0).sum() >= 2

    def test_two_seeds_same_action_share_signature(self):
        for seed in (20, 21):
            seq = synth.sample_sequence(seed, 0, 0, PARAMS, with_raster=False)
            d = [np.linalg.norm(f.hand_points[0] - f.object_points[20]) for f in seq.frames]
            assert all(b < a for a, b in zip(d, d[1:]))
        a = synth.sample_sequence(20, 0, 0, PARAMS, with_raster=False)
        b = synth.sample_sequence(21, 0, 0, PARAMS, with_raster=False)
        assert not np.array_equal(a.frames[0].hand_points, b.frames[0].hand_points)

    def test_every_frame_encodable(self):
        for action in range(4):
            seq = synth.sample_sequence(31, action, action % 3, PARAMS, with_raster=False)
            for f in seq.frames:
                codec.frame_targets(f, GRID, LABELS, CAM)

    def test_interaction_label(self):
        seq = synth.sample_sequence(1, 2, 1, PARAMS, with_raster=False)
        assert seq.interaction_id == LABELS.interaction_index(2, 1)
        assert len(seq.frames) == PARAMS.sequence_length

    def test_invalid_ids_rejected(self):
        with pytest.raises(ConfigOutOfRange):
            synth.sample_sequence(0, 7, 0, PARAMS)
        with pytest.raises(ConfigOutOfRange):
            synth.object_cuboid(PARAMS, 5)


class TestAugmentation:
    def test_translation_keeps_round_trip_exact(self):
        frame = synth.sample_scene(17, PARAMS)
        moved = synth.translate_frame(frame, 5, -3, CAM)
        t = codec.frame_targets(moved, GRID, LABELS, CAM)
        # decode the stored offsets back to camera points
        coords_h = t.hand_offsets + np.asarray(t.hand_cell, dtype=float)
        back = geo.grid_to_camera(coords_h, CAM, GRID)
        assert np.abs(back - moved.hand_points).max() < 1e-9

    def test_translation_shifts_projections_exactly(self):
        frame = synth.sample_scene(17, PARAMS, with_raster=False)
        moved = synth.translate_frame(frame, 4, 2, CAM)
        before = geo.project(frame.hand_points, CAM)
        after = geo.project(moved.hand_points, CAM)
        np.testing.assert_allclose(after - before, [[4.0, 2.0]] * 21, atol=1e-9)
        # depths unchanged
        np.testing.assert_array_equal(frame.hand_points[:, 2], moved.hand_points[:, 2])

    def test_augment_frame_stays_in_volume(self):
        rng = np.random.default_rng(0)
        for seed in range(40):
            frame = synth.sample_scene(seed, PARAMS)
            out = synth.augment_frame(frame, rng, PARAMS)
            codec.frame_targets(out, GRID, LABELS, CAM)

    def test_photometric_keeps_labels_and_range(self):
        frame = synth.sample_scene(23, PARAMS)
        rng = np.random.default_rng(1)
        out = synth.photometric_jitter(frame.raster, rng)
        assert out.shape == frame.raster.shape
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestDatasetFiles:
    def test_raster_file_round_trip(self, tmp_path):
        frame = synth.sample_scene(2, PARAMS)
        synth.write_raster(tmp_path / "f.ppm", frame.raster)
        back = synth.read_raster(tmp_path / "f.ppm")
        # 8-bit quantization
        assert np.abs(back - frame.raster).max() <= 0.5 / 255.0 + 1e-12

    def test_grayscale_raster_round_trip(self, tmp_path):
        img = np.linspace(0, 1, 30 * 20).reshape(1, 20, 30)
        synth.write_raster(tmp_path / "g.pgm", img)
        back = synth.read_raster(tmp_path / "g.pgm")
        assert back.shape == (1, 20, 30)
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_raster_rewrite_is_byte_identical(self, tmp_path):
        frame = synth.sample_scene(2, PARAMS)
        synth.write_raster(tmp_path / "a.ppm", frame.raster)
        synth.write_raster(tmp_path / "b.ppm", synth.read_raster(tmp_path / "a.ppm"))
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()

    def test_truncated_raster_body_is_config_error(self, tmp_path):
        synth.write_raster(tmp_path / "f.ppm", np.full((3, 4, 5), 0.5))
        data = (tmp_path / "f.ppm").read_bytes()
        (tmp_path / "f.ppm").write_bytes(data[:-31])
        with pytest.raises(ConfigError, match="body"):
            synth.read_raster(tmp_path / "f.ppm")

    def test_truncated_raster_header_is_config_error(self, tmp_path):
        (tmp_path / "f.pgm").write_bytes(b"P5\n5 4\n")
        with pytest.raises(ConfigError, match="header"):
            synth.read_raster(tmp_path / "f.pgm")

    def test_16_bit_raster_is_config_error(self, tmp_path):
        (tmp_path / "f.pgm").write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ConfigError, match="maxval"):
            synth.read_raster(tmp_path / "f.pgm")

    def test_frames_round_trip(self, tmp_path):
        frames = [synth.sample_scene(s, PARAMS) for s in range(4)]
        synth.save_frames(tmp_path, frames, seq_ids=list(range(4)))
        loaded, seqs = synth.load_frames(tmp_path)
        assert seqs == [0, 1, 2, 3]
        for orig, back in zip(frames, loaded):
            np.testing.assert_array_equal(back.hand_points, orig.hand_points)
            np.testing.assert_array_equal(back.object_pose.rotation, orig.object_pose.rotation)
            np.testing.assert_allclose(back.object_points, orig.object_points, atol=1e-12)
            assert back.action_id == orig.action_id
            assert np.abs(back.raster - orig.raster).max() <= 0.5 / 255.0 + 1e-12

    def test_non_numeric_record_field_is_config_error(self, tmp_path):
        frames = [synth.sample_scene(s, PARAMS) for s in range(2)]
        synth.save_frames(tmp_path, frames, seq_ids=[0, 1])
        path = tmp_path / "frames.txt"
        lines = path.read_text().splitlines()
        parts = lines[1].split()
        parts[5] = "x"
        path.write_text("\n".join([lines[0], " ".join(parts)]) + "\n")
        with pytest.raises(ConfigError, match="frames.txt:2: non-numeric"):
            synth.load_frames(tmp_path)

    def test_sequences_regroup(self, tmp_path):
        seqs = [synth.sample_sequence(s, s % 4, s % 3, PARAMS) for s in range(3)]
        frames, ids = [], []
        for k, seq in enumerate(seqs):
            frames.extend(seq.frames)
            ids.extend([k] * len(seq.frames))
        synth.save_frames(tmp_path, frames, ids)
        loaded, loaded_ids = synth.load_frames(tmp_path)
        grouped = synth.group_sequences(loaded, loaded_ids, LABELS)
        assert len(grouped) == 3
        for orig, back in zip(seqs, grouped):
            assert back.interaction_id == orig.interaction_id
            assert len(back.frames) == len(orig.frames)

    def test_save_load_is_deterministic(self, tmp_path):
        frames = [synth.sample_scene(s, PARAMS) for s in range(2)]
        synth.save_frames(tmp_path / "a", frames, [0, 1])
        synth.save_frames(tmp_path / "b", frames, [0, 1])
        assert (tmp_path / "a/frames.txt").read_bytes() == (tmp_path / "b/frames.txt").read_bytes()
        assert (tmp_path / "a/rasters/frame_000000.ppm").read_bytes() == \
               (tmp_path / "b/rasters/frame_000000.ppm").read_bytes()
