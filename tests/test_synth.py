"""Scene/sequence generators, renderer and dataset file round trips."""

import hashlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from gridpose import codec, config
from gridpose import geometry as geo
from gridpose import synth
from gridpose.codec import LabelSpec
from gridpose.errors import ConfigError, ConfigOutOfRange, LengthMismatch, ShapeMismatch

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

# sha256 of hand_points, object_points, pose rotation and translation bytes of
# toy_preset().scene geometry, recorded from the per-finger, per-frame scalar
# geometry (ref_axis_angle, ref_hand_skeleton): sample_scene((2024, 0x6e0, i)),
# i = 0..11, and, over all frames, sample_sequence((2024, 0x6e1, s), a,
# (a + s) % 3) for every verb a and s = 0, 1.
PINNED_SCENE_SHA256 = (
    "972d68a53d80298198e7000a9bc50262d74405ca7859888f3e2414bccbb75e9c",
    "86f45b54e838649c390f6f1666caafc975efdb9a6252af9b5d874ec4952ded47",
    "fccfac9eaa42a9e1aae8075faedc77820ec1a1b3595c6c3bf4dfd5ad9205dcc7",
    "3049f1333ef05c1eafcb818e93001f772a8ab72591a6940a90286dfb5197609a",
    "360768cf2b9696b030328a47eed9468ae586f2d702e5f3e2947836bbf63c4051",
    "4ef8b5b47ea23a46345020e9816c3c762105169de1e24e64b7d656f951444929",
    "e046c987ce74414a0ad21546c3350cddeae9b84feccb65a8e4fdd356e420e448",
    "c73dc8087c280859b8cf19803bed48179d066ebf0a39916536ccbdbbd853b792",
    "624f29bdda82019e3926eb040cbbc87e9b3448993ee5cee59ba187700877d7a3",
    "4adfba4db841e8ff330b2c3f05d9afa6d9d2867d6f329ca63a301cc1ed2c5721",
    "d2144441061ccb6aa2a873a56044ef858ef8fe3d682ecc0e0b3561083965185d",
    "a84f4b17e48cf31cde9f10717854c8845fe6679f4145c9705c3ea27ba380fc88",
)
PINNED_SEQUENCE_SHA256 = (
    "f2f2f146084a085fdce360d497bbf452b8453f137eae2df0a6b227d45feb62e1",
    "6304ddd60c3725d09a2917c87a5bffca48dfb23fb38bdea7f80edffe193fba00",
    "6052bad1290b5953cff63f60b87eee27f1ea53388768041546c24bd56132ca6e",
    "08fe2c46a1bd103fe5f212ebe019a1b0ac59b818d06e57f1d1baa346069c1913",
    "3b812b581e94cda0d1d8bca457b1b194418ce98e2df850376f1d51550d6176cd",
    "0073ad3f4af190640a8e6fb94c5e4edc8ab35a2f1fe03e53b78dee21ba630e38",
    "145cdb21454c91b2b0894949679dd097ba4222d8b4831f2bb78f3bec9e92ba16",
    "4143880c54dc4b927ef0aa2f5e7fcfb052dc943cc89c44296f3c23a7db0b35d0",
)


# -- reference geometry: one Rodrigues matrix per call, one finger per loop pass --

def ref_axis_angle(axis, angle):
    """Rotation by angle about one axis; the oracle for synth.rodrigues."""
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def ref_hand_skeleton(rng, params):
    """Per-finger, per-joint hand skeleton; the oracle for synth.hand_skeleton."""
    scale = rng.uniform(*params.hand_scale_range)
    pts = np.zeros((21, 3))
    z = np.array([0.0, 0.0, 1.0])
    for f in range(5):
        splay = synth._SPLAY[f] / np.linalg.norm(synth._SPLAY[f])
        abduct = rng.uniform(-params.abduct_max, params.abduct_max)
        direction = ref_axis_angle(z, abduct) @ splay
        lateral = np.cross(direction, z)
        curls = rng.uniform(0.0, params.curl_max / 3.0, size=3)
        p = synth._KNUCKLES[f] * scale
        pts[1 + 4 * f] = p
        cum = 0.0
        for k in range(3):
            cum += curls[k]
            seg_dir = ref_axis_angle(lateral, cum) @ direction
            p = p + scale * synth._BONE_LENGTHS[f, k] * seg_dir
            pts[2 + 4 * f + k] = p
    return pts


def geometry_digest(frames):
    return hashlib.sha256(b"".join(
        f.hand_points.tobytes() + f.object_points.tobytes()
        + f.object_pose.rotation.tobytes() + f.object_pose.translation.tobytes()
        for f in frames)).hexdigest()


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
            for a, b in geo.CUBOID_EDGES:
                ref_stroke(planes[1], pts[a], pts[b], cam, grid, spec, spec.bone_gain)
        for k, p in enumerate(pts[:8]):
            if p[2] <= 0:
                continue
            u, v = geo.project(p, cam)
            amp = synth._depth_code(p[2], grid, spec.depth_floor)
            ref_splat(planes[1], u, v, blob_sigma(p[2]), float(amp))
            ref_splat(planes[2], u, v, blob_sigma(p[2]), 0.25 + 0.75 * (k + 1) / 8.0)

    return planes


def assert_matches_reference(hand=None, obj=None):
    """The batched renderer against the loop: 1e-12 in float, equal as uint8."""
    new = synth.render_entities(CAM, GRID, PARAMS.render, hand_points=hand, object_points=obj)
    ref = ref_render_entities(CAM, GRID, PARAMS.render, hand_points=hand, object_points=obj)
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


class TestGeometryMatchesReference:
    """The array geometry against the scalar oracles, equal to the bit."""

    def test_rodrigues(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = 1 + seed % 20
            axes = rng.normal(size=(n, 3)) * rng.uniform(0.1, 10.0, size=(n, 1))
            angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=n)
            want = np.stack([ref_axis_angle(a, t) for a, t in zip(axes, angles)])
            assert np.array_equal(synth.rodrigues(axes, angles), want), seed

    def test_rodrigues_about_a_coordinate_axis(self):
        axes = np.repeat(np.eye(3), 3, axis=0)
        angles = np.tile([0.0, 0.3, -np.pi], 3)
        want = np.stack([ref_axis_angle(a, t) for a, t in zip(axes, angles)])
        got = synth.rodrigues(axes, angles)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("params", [
        PARAMS,
        synth.SceneParams(grid=GRID, cam=CAM, labels=LABELS, hand_scale_range=(1.0, 1.0),
                          curl_max=0.0, abduct_max=0.0),
        synth.SceneParams(grid=GRID, cam=CAM, labels=LABELS, curl_max=3.0, abduct_max=0.6),
    ], ids=["default", "frozen", "wide"])
    def test_hand_skeleton(self, params):
        for seed in range(200):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = synth.hand_skeleton(got_rng, params)
            want = ref_hand_skeleton(want_rng, params)
            assert np.array_equal(got, want), seed
            assert np.array_equal(np.signbit(got), np.signbit(want)), seed
            # both drew the same numbers, so the next draw agrees too
            assert got_rng.uniform() == want_rng.uniform()

    def test_pinned_scene_geometry(self):
        scene = config.toy_preset().scene
        for i, digest in enumerate(PINNED_SCENE_SHA256):
            frame = synth.sample_scene((2024, 0x6e0, i), scene, with_raster=False)
            assert geometry_digest([frame]) == digest, f"scene {i}"

    def test_pinned_sequence_geometry(self):
        scene = config.toy_preset().scene
        n_objects = scene.labels.n_objects
        pairs = [(a, s) for a in range(len(synth.ACTION_NAMES)) for s in range(2)]
        assert len(pairs) == len(PINNED_SEQUENCE_SHA256)
        for (action, s), digest in zip(pairs, PINNED_SEQUENCE_SHA256):
            seq = synth.sample_sequence((2024, 0x6e1, s), action, (action + s) % n_objects,
                                        scene, with_raster=False)
            assert geometry_digest(seq.frames) == digest, f"{synth.ACTION_NAMES[action]} {s}"


def shift_points(points, du, dv):
    """Points moved by (du*z/fx, dv*z/fy, 0): each projection moves by exactly
    (du, dv) pixels at unchanged depth."""
    out = np.array(points, dtype=float)
    out[:, 0] += du * out[:, 2] / CAM.fx
    out[:, 1] += dv * out[:, 2] / CAM.fy
    return out


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
        re_rendered = synth.render_entities(CAM, GRID, PARAMS.render,
                                            shift_points(frame.hand_points, du, 0),
                                            shift_points(frame.object_points, du, 0))
        # cross-correlation argmax between the two hand planes
        a = frame.raster[0]
        b = re_rendered[0]
        corr = np.fft.irfft2(np.fft.rfft2(b) * np.conj(np.fft.rfft2(a)))
        dv_hat, du_hat = np.unravel_index(np.argmax(corr), corr.shape)
        assert (du_hat, dv_hat) == (du, 0)

    @pytest.mark.parametrize("spec", [
        pytest.param(dict(min_sigma_px=0.0, blob_radius_m=0.0), id="zero-width"),
        pytest.param(dict(min_sigma_px=0.0), id="zero-min-sigma"),
        pytest.param(dict(min_sigma_px=-0.8), id="negative-min-sigma"),
        pytest.param(dict(blob_radius_m=-0.01), id="negative-radius"),
    ])
    def test_blob_width_out_of_range_rejected(self, spec):
        # a zero sigma divides by 2 sigma^2 = 0 and fills the raster with NaN
        with pytest.raises(ConfigError, match="min_sigma_px must be > 0"):
            synth.RenderSpec(**spec)


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
        u, v, sigma, two_var, _, plane = synth._windows(pts[None], 1, edges, 3, CAM, GRID,
                                                         PARAMS.render)
        stroke = sigma == 0.6   # blobs have sigma >= min_sigma_px = 0.8
        assert np.all(two_var[stroke] == 2 * 0.6 ** 2)
        px = geo.project(pts, CAM)
        expect = [(1 - t) * px[a] + t * px[b] for a, b in edges
                  for t in np.linspace(0.0, 1.0, int(np.ceil(np.linalg.norm(px[b] - px[a]))))]
        np.testing.assert_array_equal(np.stack([u[stroke], v[stroke]], axis=1), expect)
        assert np.all(plane[stroke] == 1)

    @pytest.mark.parametrize("du,dv", [(-30, 0), (30, 0), (0, -30), (0, 30)])
    def test_clipped_at_each_border(self, du, dv):
        frame = synth.sample_scene(5, PARAMS, with_raster=False)
        hand, obj = (shift_points(p, du, dv) for p in (frame.hand_points, frame.object_points))
        uv = geo.project(np.concatenate([hand, obj]), CAM)
        axis, size = (0, GRID.image_w) if du else (1, GRID.image_h)
        outside = (uv[:, axis] < 0) | (uv[:, axis] >= size)
        assert outside.any() and not outside.all()
        raster = assert_matches_reference(hand, obj)
        assert raster.max() > 0

    @pytest.mark.parametrize("du,dv", [(-200, 0), (200, 0), (0, -200), (0, 200)])
    def test_wholly_outside_image(self, du, dv):
        frame = synth.sample_scene(5, PARAMS, with_raster=False)
        raster = assert_matches_reference(shift_points(frame.hand_points, du, dv),
                                          shift_points(frame.object_points, du, dv))
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

    def test_no_entities(self):
        assert_matches_reference()
        assert_matches_reference(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_pinned_raster_bytes(self):
        scene = config.toy_preset().scene
        for i, digest in enumerate(PINNED_RASTER_SHA256):
            raster = synth.sample_scene((2024, i), scene).raster
            quantised = np.clip(np.round(raster * 255.0), 0, 255).astype(np.uint8)
            assert hashlib.sha256(quantised.tobytes()).hexdigest() == digest, f"frame {i}"


def ref_render_frames(hands, objects):
    """render_frames by the per-window oracle, one frame at a time."""
    h, w = GRID.image_h, GRID.image_w
    return np.array([ref_render_entities(CAM, GRID, PARAMS.render, hand, obj)
                     for hand, obj in zip(hands, objects)]).reshape(-1, 3, h, w)


def scene_points(n, seed=0x7f):
    frames = [synth.sample_scene((seed, i), PARAMS, with_raster=False) for i in range(n)]
    return (np.array([f.hand_points for f in frames]).reshape(n, 21, 3),
            np.array([f.object_points for f in frames]).reshape(n, 21, 3))


class TestRenderFrames:
    """The batched renderer against the per-window oracle, equal to the bit."""

    @pytest.mark.parametrize("n", [0, 1, 17])
    def test_matches_reference(self, n):
        hands, objects = scene_points(n)
        got = synth.render_frames(CAM, GRID, PARAMS.render, hands, objects)
        assert got.shape == (n, 3, GRID.image_h, GRID.image_w)
        assert np.array_equal(got, ref_render_frames(hands, objects))

    def test_points_behind_camera(self):
        hands, objects = scene_points(17, seed=0x81)
        hands[0, 2, 2] = -0.05      # bone endpoint and blob
        hands[5, 20, 2] = 0.0       # fingertip
        hands[16, :, 2] = -0.1      # a whole hand behind the camera
        objects[3, 3, 2] = -0.2     # box corner: three edges and a blob
        objects[16, :8, 2] = -0.3   # a whole box behind the camera
        got = synth.render_frames(CAM, GRID, PARAMS.render, hands, objects)
        assert np.array_equal(got, ref_render_frames(hands, objects))
        assert got[16].max() == 0.0

    def test_one_entity(self):
        hands, objects = scene_points(17, seed=0x82)
        none = np.zeros((17, 0, 3))
        hand_only = synth.render_frames(CAM, GRID, PARAMS.render, hands, none)
        object_only = synth.render_frames(CAM, GRID, PARAMS.render, none, objects)
        assert np.array_equal(hand_only, ref_render_frames(hands, [None] * 17))
        assert np.array_equal(object_only, ref_render_frames([None] * 17, objects))
        assert hand_only[:, 1].max() == 0.0 and object_only[:, 0].max() == 0.0

    def test_frame_counts_must_agree(self):
        hands, objects = scene_points(3)
        with pytest.raises(ShapeMismatch):
            synth.render_frames(CAM, GRID, PARAMS.render, hands, objects[:2])

    def test_peak_memory_is_output_plus_one_chunk(self):
        # numpy reports its buffers to tracemalloc, so the peak repeats
        # exactly. Compositing 16 frames at a time needs 4.7 MiB over the
        # output at these sizes; 32 frames at a time would need 8.9 MiB.
        scene = config.toy_preset().scene
        frames = [synth.sample_scene((2024, 0x3e3, i), scene, with_raster=False)
                  for i in range(64)]
        hands = np.stack([f.hand_points for f in frames])
        objects = np.stack([f.object_points for f in frames])
        synth.render_frames(scene.cam, scene.grid, scene.render, hands, objects)
        tracemalloc.start()
        try:
            out = synth.render_frames(scene.cam, scene.grid, scene.render, hands, objects)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 7 * 2 ** 20


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

    @pytest.mark.parametrize("margins", [dict(margin_uv_cells=3.5), dict(margin_z_cells=1.5),
                                         dict(margin_uv_cells=4.0, margin_z_cells=2.0)])
    def test_bad_margins_rejected(self, margins):
        params = replace(PARAMS, **margins)
        with pytest.raises(ConfigOutOfRange, match="margins leave no room"):
            synth.sample_scene(0, params)
        for action in range(len(synth.ACTION_NAMES)):
            with pytest.raises(ConfigOutOfRange, match="margins leave no room"):
                synth.sample_sequence(0, action, 0, params)


class TestFramePointsOwnMemory:
    """Frames carry writable points of their own, never the cached cuboid points."""

    @staticmethod
    def assert_own_memory(frames):
        for i, f in enumerate(frames):
            cached = geo.cuboid_control_points(f.cuboid).points
            assert f.object_points.flags.writeable and f.hand_points.flags.writeable
            assert not np.shares_memory(f.object_points, cached)
            for g in frames[:i]:
                assert not np.shares_memory(f.object_points, g.object_points)
                assert not np.shares_memory(f.hand_points, g.hand_points)

    def test_sampled_frames(self):
        self.assert_own_memory([synth.sample_scene(s, PARAMS, with_raster=False)
                                for s in range(4)])
        for action in range(len(synth.ACTION_NAMES)):
            self.assert_own_memory(synth.sample_sequence(3, action, 1, PARAMS,
                                                         with_raster=False).frames)

    def test_loaded_frames(self, tmp_path):
        frames = [synth.sample_scene(s, PARAMS) for s in range(3)]
        synth.save_frames(tmp_path, frames, [0, 0, 1])
        loaded, _ = synth.load_frames(tmp_path)
        self.assert_own_memory(loaded)


def two_frame_split(directory):
    frames = [synth.sample_scene(s, PARAMS) for s in range(2)]
    synth.save_frames(directory, frames, seq_ids=[0, 1])
    return frames


class TestDatasetFiles:
    def test_frames_round_trip(self, tmp_path):
        frames = [synth.sample_scene(s, PARAMS) for s in range(4)]
        synth.save_frames(tmp_path, frames, seq_ids=list(range(4)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames.npy", "rasters.npy"]
        loaded, seqs = synth.load_frames(tmp_path)
        assert seqs == [0, 1, 2, 3]
        for orig, back in zip(frames, loaded):
            np.testing.assert_array_equal(back.hand_points, orig.hand_points)
            np.testing.assert_array_equal(back.object_pose.rotation, orig.object_pose.rotation)
            np.testing.assert_array_equal(back.object_pose.translation,
                                          orig.object_pose.translation)
            assert back.cuboid == orig.cuboid
            np.testing.assert_allclose(back.object_points, orig.object_points, atol=1e-12)
            assert (back.action_id, back.object_id) == (orig.action_id, orig.object_id)
            # 8-bit quantization: clip(round(255 x)) / 255
            assert back.raster.dtype == np.float64
            np.testing.assert_array_equal(back.raster, np.round(orig.raster * 255.0) / 255.0)
            assert np.abs(back.raster - orig.raster).max() <= 0.5 / 255.0 + 1e-12

    def test_unequal_lengths_rejected(self, tmp_path):
        frames = [synth.sample_scene(s, PARAMS) for s in range(2)]
        for ids in ([0], [0, 1, 2]):
            with pytest.raises(LengthMismatch, match=f"2 frames but {len(ids)} sequence ids"):
                synth.save_frames(tmp_path, frames, ids)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("index,bad,message", [
        (1, lambda f: replace(f, raster=None), "frame 1 has no raster"),
        (0, lambda f: replace(f, raster=None), "frame 0 has no raster"),
        (2, lambda f: replace(f, raster=f.raster[:, :20]), "frame 2 has a raster of shape (3, 20, "),
    ], ids=["after-a-good-frame", "first-frame", "another-shape"])
    def test_frame_without_a_raster_of_the_first_shape_is_named(self, tmp_path, index, bad,
                                                                message):
        frames = [synth.sample_scene(s, PARAMS) for s in range(3)]
        frames[index] = bad(frames[index])
        with pytest.raises(ShapeMismatch, match=re.escape(message)):
            synth.save_frames(tmp_path / "split", frames, [0, 1, 2])
        assert list(tmp_path.iterdir()) == []

    def test_missing_record_file_is_config_error(self, tmp_path):
        record_file = re.escape(f"{tmp_path / 'frames.npy'}: no dataset file")
        with pytest.raises(ConfigError, match=record_file):
            synth.load_frames(tmp_path)
        with pytest.raises(ConfigError, match="no dataset file"):
            synth.load_frames(tmp_path / "missing")

    def test_missing_raster_file_is_config_error(self, tmp_path):
        two_frame_split(tmp_path)
        (tmp_path / "rasters.npy").unlink()
        with pytest.raises(ConfigError, match=re.escape(f"{tmp_path / 'rasters.npy'}: no dataset file")):
            synth.load_frames(tmp_path)

    @pytest.mark.parametrize("name", ["frames.npy", "rasters.npy"])
    @pytest.mark.parametrize("cut", [lambda data: data[:-31], lambda data: data[:20],
                                     lambda data: b""], ids=["body", "header", "empty"])
    def test_truncated_file_is_config_error(self, tmp_path, name, cut):
        two_frame_split(tmp_path)
        path = tmp_path / name
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: unreadable dataset file")):
            synth.load_frames(tmp_path)

    @pytest.mark.parametrize("name", ["frames.npy", "rasters.npy"])
    def test_pickled_file_is_config_error(self, tmp_path, name):
        two_frame_split(tmp_path)
        np.save(tmp_path / name, np.array([{"seq_id": 0}], dtype=object), allow_pickle=True)
        with pytest.raises(ConfigError, match=f"{name}: unreadable dataset file"):
            synth.load_frames(tmp_path)

    def test_text_and_archive_files_are_config_errors(self, tmp_path):
        two_frame_split(tmp_path)
        (tmp_path / "frames.npy").write_text("0 0 1 2 0.5\n")
        with pytest.raises(ConfigError, match="frames.npy: unreadable dataset file"):
            synth.load_frames(tmp_path)
        with open(tmp_path / "frames.npy", "wb") as f:
            np.savez(f, records=np.zeros(2, synth.FRAME_RECORD))
        with pytest.raises(ConfigError, match="frames.npy: not a .npy array file"):
            synth.load_frames(tmp_path)

    @pytest.mark.parametrize("records", [
        lambda r: r[["seq_id", "action_id", "object_id", "hand_points"]],
        lambda r: r.astype([(n, "<f4" if n == "rotation" else t, *shape)
                           for n, t, *shape in r.dtype.descr]),
        lambda r: r.astype([(n, ">i8" if n == "seq_id" else t, *shape)
                           for n, t, *shape in r.dtype.descr]),
        lambda r: r["hand_points"],
        lambda r: r.reshape(2, 1),
    ], ids=["missing-field", "float32-field", "big-endian-id", "plain-array", "2-d"])
    def test_records_of_another_layout_are_config_errors(self, tmp_path, records):
        two_frame_split(tmp_path)
        path = tmp_path / "frames.npy"
        np.save(path, records(np.load(path)))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: records of dtype")):
            synth.load_frames(tmp_path)

    @pytest.mark.parametrize("rasters", [
        lambda r: r.astype(np.float64) / 255.0,
        lambda r: r.astype(np.uint16),
        lambda r: r[0],
        lambda r: r[:1],
        lambda r: np.concatenate([r, r]),
        lambda r: r[:, :1],
    ], ids=["float", "uint16", "3-d", "fewer", "more", "one-channel"])
    def test_rasters_that_do_not_fit_the_records_are_config_errors(self, tmp_path, rasters):
        two_frame_split(tmp_path)
        path = tmp_path / "rasters.npy"
        np.save(path, rasters(np.load(path)))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: rasters of dtype")):
            synth.load_frames(tmp_path)

    # field: the 1-based position of one scalar in record 1's flat layout of 3 ids and 78 floats
    @pytest.mark.parametrize("field,value", [(5, "nan"), (40, "inf"), (70, "-inf"), (76, "inf"),
                                             (81, "NaN")])
    def test_non_finite_record_field_is_config_error(self, tmp_path, field, value):
        two_frame_split(tmp_path)
        path = tmp_path / "frames.npy"
        records = np.load(path)
        records.view("<f8").reshape(len(records), -1)[1, field - 1] = float(value)
        np.save(path, records)
        layout = synth.FRAME_RECORD
        name = [n for n in layout.names if layout.fields[n][1] <= 8 * (field - 1)][-1]
        with pytest.raises(ConfigError, match=f"frames.npy: record 1 has a non-finite {name}$"):
            synth.load_frames(tmp_path)

    def test_sequences_regroup(self, tmp_path):
        seqs = [synth.sample_sequence(s, s % 4, s % 3, PARAMS) for s in range(3)]
        frames, ids = [], []
        for k, seq in enumerate(seqs):
            frames.extend(seq.frames)
            ids.extend([k] * len(seq.frames))
        synth.save_frames(tmp_path, frames, ids)
        loaded, loaded_ids = synth.load_frames(tmp_path)
        assert loaded_ids == ids
        for k, seq in enumerate(seqs):
            back = [f for f, sid in zip(loaded, loaded_ids) if sid == k]
            assert len(back) == len(seq.frames)
            assert {LABELS.interaction_index(f.action_id, f.object_id)
                    for f in back} == {seq.interaction_id}

    def test_save_load_is_deterministic(self, tmp_path):
        frames = [synth.sample_scene(s, PARAMS) for s in range(2)]
        synth.save_frames(tmp_path / "a", frames, [0, 1])
        synth.save_frames(tmp_path / "b", frames, [0, 1])
        for name in ("frames.npy", "rasters.npy"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
