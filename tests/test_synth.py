"""Scene/sequence generators, renderer and dataset file round trips."""

import numpy as np
import pytest
from scipy import stats

from gridpose import codec
from gridpose import geometry as geo
from gridpose import synth
from gridpose.codec import LabelSpec
from gridpose.errors import ConfigError, ConfigOutOfRange, OutOfVolume


GRID = geo.GridSpec(h=7, w=7, d=3, cell_u_px=8.0, cell_v_px=8.0, cell_z_m=0.15,
                    z_min=0.3, cutoff_px=12.0, cutoff_m=0.075)
CAM = geo.CameraIntrinsics(fx=80.0, fy=80.0, cx=28.0, cy=28.0)
LABELS = LabelSpec(n_objects=3, n_actions=4, n_interactions=12)
PARAMS = synth.SceneParams(grid=GRID, cam=CAM, labels=LABELS)


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
        from gridpose.rigidpose import rotation_geodesic
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
