import numpy as np
import pytest

from ergofusion.cameras import StereoRig
from ergofusion.pipeline import PipelineError, run_scenario
from ergofusion.recording import STREAM_NAMES, SegmentRecording
from ergofusion.scenario import (ScenarioConfig, default_handover_scenario,
                                 parse_scenario)


def small_scenario(**kwargs):
    return default_handover_scenario(**kwargs)


class TestRunScenario:
    def test_frame_counts_per_segment(self):
        recording = run_scenario(small_scenario(), seed=0)
        assert set(recording.segments) == {"pre", "post"}
        for segment in recording.segments.values():
            assert segment.manifest["frames"] == 100
            frames = {row[0] for row in segment.streams["fused_landmarks"]}
            assert frames == set(range(100))

    def test_zero_noise_matches_ground_truth(self):
        recording = run_scenario(small_scenario(noise_sigma=0.0), seed=0)
        for segment in recording.segments.values():
            truth = segment.ground_truth_positions()
            fused = segment.fused_positions()
            assert np.nanmax(np.abs(truth[:, :12] - fused[:, :12])) < 1e-6
            # Auxiliary head markers are averaged across rigs, not fused.
            assert np.nanmax(np.abs(truth[:, 12:] - fused[:, 12:])) < 1e-6

    def test_streams_are_complete(self):
        recording = run_scenario(small_scenario(), seed=1)
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
        recording = run_scenario(small_scenario(stature=1.55), seed=2)
        pre = recording.segments["pre"].manifest
        post = recording.segments["post"].manifest
        assert pre["adaptation"]["class"] == "c1"
        assert post["delivery_point"][2] == pytest.approx(1.3088, abs=1e-9)
        assert pre["delivery_point"][2] == pytest.approx(1.4315, abs=1e-9)

    def test_adapt_disabled_yields_single_segment(self):
        config = small_scenario(adapt=False)
        recording = run_scenario(config, seed=0)
        assert set(recording.segments) == {"pre"}
        assert recording.segments["pre"].manifest["adaptation"] is None

    def test_grid_scenario_requires_expansion(self):
        from dataclasses import replace

        from ergofusion.scenario import ScenarioError
        grid = replace(small_scenario(), statures=(1.5, 1.6))
        with pytest.raises(ScenarioError):
            run_scenario(grid, seed=0)
        singles = grid.expand_statures()
        assert [c.stature for c in singles] == [1.5, 1.6]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(small_scenario(), seed=-1)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(small_scenario(), seed=0, scheduler="fibers")


class TestDeterminism:
    def test_same_seed_same_digest(self):
        config = small_scenario(stature=1.85, noise_sigma=0.002)
        a = run_scenario(config, seed=5)
        b = run_scenario(config, seed=5)
        for name in a.segments:
            assert a.segments[name].digest() == b.segments[name].digest()

    def test_different_seeds_differ(self):
        config = small_scenario(noise_sigma=0.002)
        a = run_scenario(config, seed=5)
        b = run_scenario(config, seed=6)
        assert a.segments["pre"].digest() != b.segments["pre"].digest()

    def test_schedulers_agree(self):
        config = small_scenario(stature=1.7, noise_sigma=0.001)
        serial = run_scenario(config, seed=3, scheduler="serial")
        threaded = run_scenario(config, seed=3, scheduler="threads")
        for name in serial.segments:
            assert serial.segments[name].digest() == threaded.segments[name].digest()

    def test_pre_and_post_share_noise_realization(self):
        # Identical geometry (c2 operator keeps its delivery) plus paired
        # seeding means identical recordings across segments.
        config = small_scenario(stature=1.75, noise_sigma=0.002)
        recording = run_scenario(config, seed=9)
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
            run_scenario(small_scenario(noise_sigma=0.0), seed=0)


class TestRecordingRoundTrip:
    def test_save_load_preserves_streams_and_digest(self, tmp_path):
        recording = run_scenario(small_scenario(noise_sigma=0.001), seed=4)
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
