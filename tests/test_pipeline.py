import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ergofusion.adaptation import CLASSES, SHOULDER_RATIO
from ergofusion.bus import Message
from ergofusion.cameras import StereoRig
from ergofusion.fusion import compute_anchors, compute_delta, fuse
from ergofusion.pipeline import (SCHEDULERS, CameraNode, FusionNode, PipelineError,
                                 observation_topic, run_scenario)
from ergofusion.recording import STREAM_NAMES, SegmentRecording, read_manifest
from ergofusion.scenario import ScenarioConfig, parse_scenario
from ergofusion.skeleton import (N_ALL, N_FUSED, CameraObservations, animate,
                                 build_skeleton, observe)
from ergofusion.triangulate import Observation2D, build_dlt_matrix, solve_pairs

from helpers import assert_solves_rows, committed_scenario
from test_cli import SCENARIO_DIGESTS


class TestRunScenario:
    def test_frame_counts_per_segment(self):
        recording = run_scenario(committed_scenario(), seed=0)
        assert set(recording.segments) == {"pre", "post"}
        for segment in recording.segments.values():
            assert segment.manifest["frames"] == 100
            frames = {row[0] for row in segment.streams["fused_landmarks"]}
            assert frames == set(range(100))

    def test_zero_noise_matches_ground_truth(self):
        recording = run_scenario(committed_scenario(noise_sigma=0.0), seed=0)
        for segment in recording.segments.values():
            truth = segment.ground_truth_positions()
            fused = segment.fused_positions()
            assert np.nanmax(np.abs(truth[:, :12] - fused[:, :12])) < 1e-6
            # Auxiliary head markers are averaged across rigs, not fused.
            assert np.nanmax(np.abs(truth[:, 12:] - fused[:, 12:])) < 1e-6

    def test_fused_landmarks_are_the_rig_means(self):
        # delta = L @ anchors, so the anchors minimize the fusion's least
        # squares: each fused landmark is its mean over the rigs, up to rounding.
        recording = run_scenario(committed_scenario())
        for segment in recording.segments.values():
            rigs = np.array(list(segment.rig_positions().values()))
            fused = segment.fused_positions()[:, :N_FUSED]
            assert np.abs(fused - rigs[:, :, :N_FUSED].mean(axis=0)).max() < 1e-12

    def test_streams_are_complete(self):
        recording = run_scenario(committed_scenario(), seed=1)
        pre = recording.segments["pre"]
        for name in STREAM_NAMES:
            assert len(pre.streams[name]), f"stream {name} is empty"
        assert pre.manifest["dropped_frames"] == 0
        assert pre.manifest["adaptation"]["class"] == "c2"
        assert pre.manifest["stats"]["prefactor_count"] == 1
        residual = pre.manifest["stats"]["dlt_residual"]
        assert set(residual) == {"S1", "S2", "S3"}
        for rig_stats in residual.values():
            assert set(rig_stats) == {"p50", "p95", "max"}
            assert all(np.isfinite(v) and v >= 0 for v in rig_stats.values())
            assert rig_stats["p50"] <= rig_stats["p95"] <= rig_stats["max"]

    def test_adaptation_changes_post_delivery(self):
        recording = run_scenario(committed_scenario(stature=1.55), seed=2)
        pre = recording.segments["pre"].manifest
        post = recording.segments["post"].manifest
        assert pre["adaptation"]["class"] == "c1"
        assert post["delivery_point"][2] == pytest.approx(1.3088, abs=1e-9)
        assert pre["delivery_point"][2] == pytest.approx(1.4315, abs=1e-9)

    def test_adapt_disabled_yields_single_segment(self):
        config = committed_scenario(adapt=False)
        recording = run_scenario(config, seed=0)
        assert set(recording.segments) == {"pre"}
        assert recording.segments["pre"].manifest["adaptation"] is None

    def test_grid_scenario_requires_expansion(self):
        from dataclasses import replace

        from ergofusion.scenario import ScenarioError
        grid = replace(committed_scenario(), statures=(1.5, 1.6))
        with pytest.raises(ScenarioError):
            run_scenario(grid, seed=0)
        singles = grid.expand_statures()
        assert [c.stature for c in singles] == [1.5, 1.6]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(committed_scenario(), seed=-1)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(committed_scenario(), seed=0, scheduler="fibers")


# The manifest stats that time the host, not the run.
TIMING_STATS = ("mean_frame_processing_ms", "status_latency_ms", "frame_wall_ms",
                "scheduler")


@pytest.fixture(scope="module")
def handover_runs(tmp_path_factory):
    """The committed handover run saved under each scheduler's name."""
    root = tmp_path_factory.mktemp("handover")
    for scheduler in SCHEDULERS:
        run_scenario(committed_scenario(), scheduler=scheduler).save(root / scheduler)
    return root


class TestDeterminism:
    def test_schedulers_write_equal_manifests_but_for_timing(self, handover_runs):
        manifests = {}
        for scheduler in SCHEDULERS:
            manifests[scheduler] = {
                path.parent.name: read_manifest(path)
                for path in sorted((handover_runs / scheduler).glob("*/manifest.json"))}
            for manifest in manifests[scheduler].values():
                for key in TIMING_STATS:
                    del manifest["stats"][key]
        assert list(manifests["serial"]) == ["post", "pre"]
        assert manifests["serial"] == manifests["threads"]

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_status_counts_are_the_recorded_status_column(self, handover_runs, scheduler):
        for segment in ("pre", "post"):
            recording = SegmentRecording.load(handover_runs / scheduler / segment, ("rula",))
            statuses = recording.streams["rula"]["status"].tolist()
            assert len(statuses) == recording.manifest["frames"]
            assert recording.manifest["status_counts"] == dict(Counter(statuses))

    def test_same_seed_same_digest(self):
        config = committed_scenario(stature=1.85, noise_sigma=0.002)
        a = run_scenario(config, seed=5)
        b = run_scenario(config, seed=5)
        for name in a.segments:
            assert a.segments[name].digest() == b.segments[name].digest()

    def test_different_seeds_differ(self):
        config = committed_scenario(noise_sigma=0.002)
        a = run_scenario(config, seed=5)
        b = run_scenario(config, seed=6)
        assert a.segments["pre"].digest() != b.segments["pre"].digest()

    def test_schedulers_agree(self):
        config = committed_scenario(stature=1.7, noise_sigma=0.001)
        serial = run_scenario(config, seed=3, scheduler="serial")
        threaded = run_scenario(config, seed=3, scheduler="threads")
        for name in serial.segments:
            assert serial.segments[name].digest() == threaded.segments[name].digest()

    def test_pre_and_post_share_noise_realization(self):
        # Identical geometry (the delivery is already the c2 class's, so a
        # c2 operator keeps it) plus paired seeding means identical
        # recordings across segments.
        delivery_z = SHOULDER_RATIO * CLASSES[1].representative_stature
        config = committed_scenario(stature=1.75, noise_sigma=0.002,
                                    delivery=[0.90, 0.0, delivery_z])
        recording = run_scenario(config, seed=9)
        pre, post = (recording.segments[name].manifest for name in ("pre", "post"))
        assert post["delivery_point"] == pre["delivery_point"]
        assert (recording.segments["pre"].digest()
                == recording.segments["post"].digest())


class TestPipelineFailureModes:
    def test_rig_that_cannot_see_operator_fails_clearly(self):
        config = parse_scenario({
            "stature": 1.75,
            "delivery": [0.9, 0.0, 1.4315],
            "adapt": False,
            "motion": [{"name": "rest", "duration": 0.5, "target": "rest"}],
            "rigs": [
                {"id": "S1", "position": [2.2, 0.0, 1.6],
                 "look_at": [0.45, 0.0, 1.0], "baseline": 0.5},
                # Aimed away from the workcell: the operator is behind it.
                {"id": "S2", "position": [-3.0, 0.0, 1.6],
                 "look_at": [-6.0, 0.0, 1.0], "baseline": 0.5},
            ],
        })
        with pytest.raises(PipelineError, match="visibility"):
            run_scenario(config, seed=0)

    def test_rig_that_cannot_triangulate_names_rig_landmark_and_cause(
            self, monkeypatch):
        build_rigs = ScenarioConfig.build_rigs

        def with_coincident_s2(config):
            # S2's right camera sits on its left camera: noiseless rays coincide.
            rigs = build_rigs(config)
            s2 = rigs[1]
            rigs[1] = StereoRig.from_left_pose(s2.id, s2.left.rotation, s2.left.position,
                                               np.eye(3), np.zeros(3))
            return rigs

        monkeypatch.setattr(ScenarioConfig, "build_rigs", with_coincident_s2)
        with pytest.raises(PipelineError,
                           match=r"frame 0: rig S2 failed to triangulate left_shoulder: "
                                 r"degenerate geometry"):
            run_scenario(committed_scenario(noise_sigma=0.0), seed=0)


class TestRecordingRoundTrip:
    def test_save_load_preserves_streams_and_digest(self, tmp_path):
        recording = run_scenario(committed_scenario(noise_sigma=0.001), seed=4)
        recording.save(tmp_path / "run")
        saved = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert saved == sorted(recording.segments)
        for name, segment in recording.segments.items():
            reloaded = SegmentRecording.load(tmp_path / "run" / name)
            assert reloaded.manifest["digest"] == segment.digest()
            assert reloaded.digest() == segment.digest()
            truth_a = segment.ground_truth_positions()
            truth_b = reloaded.ground_truth_positions()
            assert np.nanmax(np.abs(truth_a - truth_b)) < 1e-8


def scenario_frames(config, n):
    return animate(build_skeleton(config.stature), config.script(), config.delivery,
                   config.resolve_stance(config.stature))[0][:n]


def feed(node: FusionNode, bundle: dict, frame_index: int) -> list:
    """Deliver one frame's camera messages; return what the node published."""
    published = []
    for camera_id, obs in bundle.items():
        node.handle(Message(observation_topic(camera_id), frame_index, obs),
                    published.append)
    return published


def per_rig_reference(node: FusionNode, bundle: dict):
    """The fusion step as first written: one ``solve_pairs`` call per rig,
    each point checked against the least-squares point of its DLT rows.

    Returns per rig (xyz, visible, residual), and the fused (N_ALL, 3)
    landmarks.
    """
    rigs = node.rigs
    est_xyz = np.full((len(rigs), N_ALL, 3), np.nan)
    vis = np.zeros((len(rigs), N_ALL), dtype=bool)
    per_rig = []
    for r, rig in enumerate(rigs):
        left, right = bundle[rig.left.id], bundle[rig.right.id]
        both = left.visible & right.visible
        idx = np.flatnonzero(both)
        result = solve_pairs(np.stack((left.uv[idx], right.uv[idx]), axis=1),
                             np.array([rig.left.projection, rig.right.projection]))
        assert not (result.degenerate | result.at_infinity).any()
        for i, xyz, residual in zip(idx, result.xyz, result.residual):
            assert_solves_rows(build_dlt_matrix((
                Observation2D("L", left.uv[i], rig.left.projection),
                Observation2D("R", right.uv[i], rig.right.projection))), xyz, residual)
        est_xyz[r, idx] = result.xyz
        residual = np.full(N_ALL, np.nan)
        residual[idx] = result.residual
        vis[r] = both
        per_rig.append((est_xyz[r], both, residual))
    anchors = compute_anchors(est_xyz[:, :N_FUSED], vis[:, :N_FUSED], node.rig_positions)
    delta = compute_delta(node.topology, anchors.configuration)
    solution = fuse(node.solver, delta, anchors)
    xyz = np.full((N_ALL, 3), np.nan)
    xyz[:N_FUSED] = solution[:N_FUSED]
    aux_vis = vis[:, N_FUSED:]
    counts = aux_vis.sum(axis=0)
    summed = np.where(aux_vis[:, :, None], est_xyz[:, N_FUSED:], 0.0).sum(axis=0)
    seen = counts > 0
    xyz[N_FUSED:][seen] = summed[seen] / counts[seen, None]
    return per_rig, xyz


def check_against_reference(node: FusionNode, bundle: dict, frame_index: int) -> None:
    """Feed one frame and assert bitwise equality with ``per_rig_reference``."""
    per_rig, fused = (m.payload for m in feed(node, bundle, frame_index))
    want_rigs, want_xyz = per_rig_reference(node, bundle)
    assert per_rig.xyz.shape == (len(node.rigs), N_ALL, 3)
    for r, (xyz, visible, residual) in enumerate(want_rigs):
        assert per_rig.xyz[r].tobytes() == xyz.tobytes()
        assert per_rig.visible[r].tobytes() == visible.tobytes()
        assert per_rig.residual[r].tobytes() == residual.tobytes()
    assert fused.shape == (N_ALL, 3)
    assert fused.tobytes() == want_xyz.tobytes()


def hide_aux(obs: CameraObservations, hidden, finite_uv: bool) -> CameraObservations:
    """``obs`` with the auxiliary landmarks in ``hidden`` not visible; they
    keep their finite uv if ``finite_uv``, else every unseen uv is NaN."""
    visible = obs.visible.copy()
    visible[N_FUSED:] &= ~np.asarray(hidden, dtype=bool)
    uv = obs.uv.copy()
    if not finite_uv:
        uv[~visible] = np.nan
    return CameraObservations(obs.camera_id, uv, visible)


@functools.cache
def handover_frames():
    config = committed_scenario(noise_sigma=0.002)
    return config, config.build_rigs(), scenario_frames(config, 100)


class TestFusionNode:
    """The node's one solve per frame against the per-rig reference loop."""

    @pytest.mark.parametrize("seed, hide", [(0, 0.0), (1, 0.2), (2, 0.5), (3, 0.8),
                                            (4, 1.0), (5, 0.5)])
    def test_random_aux_visibility_equals_the_per_rig_reference(self, seed, hide):
        rng = np.random.default_rng(600 + seed)
        config = committed_scenario(noise_sigma=0.002)
        node = FusionNode(config.build_rigs())
        cameras = [cam for rig in node.rigs for cam in rig.cameras]
        for index, frame in enumerate(scenario_frames(config, 30)):
            # Each camera loses a random share of the auxiliary landmarks;
            # half of them keep a finite uv where they are hidden.
            bundle = {cam.id: hide_aux(observe(cam, frame, 0.002, rng),
                                       rng.random(N_ALL - N_FUSED) < hide,
                                       rng.random() >= 0.5)
                      for cam in cameras}
            check_against_reference(node, bundle, index)

    @given(hidden=st.lists(st.lists(st.booleans(), min_size=N_ALL - N_FUSED,
                                    max_size=N_ALL - N_FUSED), min_size=6, max_size=6),
           finite_uv=st.lists(st.booleans(), min_size=6, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1), index=st.integers(0, 99))
    def test_generated_aux_visibility_equals_the_per_rig_reference(
            self, hidden, finite_uv, seed, index):
        config, rigs, frames = handover_frames()
        node = FusionNode(rigs)
        rng = np.random.default_rng(seed)
        cameras = [cam for rig in rigs for cam in rig.cameras]
        bundle = {cam.id: hide_aux(observe(cam, frames[index], 0.002, rng), hide, finite)
                  for cam, hide, finite in zip(cameras, hidden, finite_uv)}
        check_against_reference(node, bundle, index)

    def test_first_failure_in_rig_order_is_reported(self):
        config = committed_scenario(noise_sigma=0.0)
        node = FusionNode(config.build_rigs())
        frame = scenario_frames(config, 1)[0]
        bundle = {cam.id: observe(cam, frame, 0.0)
                  for rig in node.rigs for cam in rig.cameras}
        # Equal uv in a pure-translation pair: parallel rays, a point at
        # infinity. S2's nose comes before S3's left shoulder in rig order.
        for rig_id, landmark in (("S3", 0), ("S2", 13)):
            left, right = bundle[f"{rig_id}.L"], bundle[f"{rig_id}.R"]
            right.uv[landmark] = left.uv[landmark]
        with pytest.raises(PipelineError, match=r"^frame 0: rig S2 failed to "
                                                r"triangulate nose: point at infinity$"):
            feed(node, bundle, 0)

    def test_hidden_point_at_infinity_is_masked_not_raised(self):
        config = committed_scenario(noise_sigma=0.0)
        node = FusionNode(config.build_rigs())
        frame = scenario_frames(config, 1)[0]
        bundle = {cam.id: observe(cam, frame, 0.0)
                  for rig in node.rigs for cam in rig.cameras}
        # S2's right camera loses the nose but keeps a finite uv that, equal
        # to the left one in a pure-translation pair, is a point at infinity.
        left, right = bundle["S2.L"], bundle["S2.R"]
        right.uv[13] = left.uv[13]
        right.visible[13] = False
        check_against_reference(node, bundle, 0)


class TestCameraNode:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 31, 2 ** 32 - 1, 2 ** 32,
                                      2 ** 64 + 5, 12345678901234567890123])
    def test_noise_is_the_int_tuple_stream(self, seed):
        camera = committed_scenario().build_rigs()[1].right
        frames = scenario_frames(committed_scenario(), 100)
        for camera_index in (0, 3):
            node = CameraNode(camera, 0.002, seed, camera_index, frames)
            # The bus frame index keys the noise; every frame of the segment
            # is the int-tuple stream's, drawn on its own.
            published = []
            for index in range(len(frames)):
                node.handle(Message("world", index, None), published.append)
            assert [m.frame_index for m in published] == list(range(len(frames)))
            for index, message in enumerate(published):
                want = observe(camera, frames[index], 0.002,
                               np.random.default_rng((seed, camera_index, index)))
                assert message.payload.camera_id == camera.id
                assert message.payload.uv.tobytes() == want.uv.tobytes()
                assert message.payload.visible.tobytes() == want.visible.tobytes()


class TestDroppedFramesByCamera:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_manifest_counts_each_cameras_drops_outside_the_digest(self, scheduler):
        recording = run_scenario(committed_scenario(), scheduler=scheduler)
        for name, segment in recording.segments.items():
            assert segment.manifest["stats"]["dropped_frames_by_camera"] == {
                f"{rig}.{side}": 0 for rig in ("S1", "S2", "S3") for side in "LR"}
            assert segment.digest() == SCENARIO_DIGESTS["desk_handover"][name]

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_frames_a_camera_missed_are_counted_against_it(self, monkeypatch, scheduler):
        lost = {("S2.L", 5), ("S2.L", 6), ("S3.R", 6), ("S1.L", 99)}
        handle = CameraNode.handle

        def lossy(node, message, publish):
            if (node.camera.id, message.frame_index) not in lost:
                handle(node, message, publish)

        monkeypatch.setattr(CameraNode, "handle", lossy)
        segment = run_scenario(committed_scenario(adapt=False),
                               scheduler=scheduler).segments["pre"]
        assert segment.manifest["dropped_frames"] == 3
        assert segment.manifest["stats"]["dropped_frames_by_camera"] == {
            "S1.L": 1, "S1.R": 0, "S2.L": 2, "S2.R": 0, "S3.L": 0, "S3.R": 1}
        frames = set(segment.streams["fused_landmarks"]["frame"].tolist())
        assert frames == set(range(100)) - {5, 6, 99}


class TestFrameWallTime:
    @pytest.mark.parametrize("scheduler", ["serial", "threads"])
    def test_manifest_reports_frame_wall_quantiles(self, scheduler):
        recording = run_scenario(committed_scenario(), seed=3, scheduler=scheduler)
        for segment in recording.segments.values():
            wall = segment.manifest["stats"]["frame_wall_ms"]
            assert list(wall) == ["p50", "p95", "max"]
            assert all(isinstance(v, float) and np.isfinite(v) for v in wall.values())
            assert 0.0 < wall["p50"] <= wall["p95"] <= wall["max"]


class TestStatusLatency:
    @pytest.mark.parametrize("scheduler", ["serial", "threads"])
    def test_manifest_reports_status_latency_outside_the_digest(self, scheduler):
        recording = run_scenario(committed_scenario(), scheduler=scheduler)
        assert list(recording.segments) == list(SCENARIO_DIGESTS["desk_handover"])
        for name, segment in recording.segments.items():
            stats = segment.manifest["stats"]
            assert list(stats)[:2] == ["mean_frame_processing_ms", "status_latency_ms"]
            latency = stats["status_latency_ms"]
            assert list(latency) == ["p50", "p95", "max"]
            assert all(isinstance(v, float) and np.isfinite(v) for v in latency.values())
            assert 0.0 < latency["p50"] <= latency["p95"] <= latency["max"]
            assert segment.digest() == SCENARIO_DIGESTS["desk_handover"][name]
