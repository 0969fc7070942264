import json
import math

import numpy as np
import pytest

from ergofusion.evaluate import (PairingError, export, pair_recordings,
                                 rmse_report, rula_compare, write_comparison)
from ergofusion.pipeline import run_scenario
from ergofusion.recording import STREAM_NAMES, SegmentRecording
from ergofusion.scenario import default_handover_scenario, parse_scenario
from ergofusion.skeleton import ALL_LANDMARKS, FUSED_LANDMARKS


@pytest.fixture(scope="module")
def noisy_recording():
    return run_scenario(default_handover_scenario(noise_sigma=0.002), seed=8)


def build_fixture_recording():
    """Two frames, hand-computable errors on the first landmark.

    Rig S1 is offset from truth by 0.3 m then 0.4 m along x on
    landmark p1 only, so its p1 RMSE is sqrt((0.09 + 0.16) / 2).
    The fused stream echoes ground truth exactly.
    """
    seg = SegmentRecording(manifest={"frames": 2, "stature": 1.75, "seed": 0,
                                     "segment": "pre"})
    rng = np.random.default_rng(0)
    base = rng.normal(size=(len(ALL_LANDMARKS), 3))
    offsets = [0.3, 0.4]
    for frame in range(2):
        for i, lm in enumerate(ALL_LANDMARKS):
            x, y, z = base[i]
            seg.append("ground_truth", (frame, lm.value, x, y, z, 1))
            seg.append("fused_landmarks",
                       (frame, lm.value, x, y, z,
                        "fused" if i < 12 else "aux"))
            dx = offsets[frame] if i == 0 else 0.0
            seg.append("per_rig_landmarks",
                       (frame, "S1", lm.value, x + dx, y, z, 0.0, 2))
    return seg


class TestRmseReport:
    def test_hand_computed_fixture(self):
        report = rmse_report(build_fixture_recording())
        assert report.sources == ("S1", "fusion")
        expected = math.sqrt((0.3 ** 2 + 0.4 ** 2) / 2.0)
        assert report.rmse[0, 0] == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(report.rmse[0, 1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(report.fusion, 0.0, atol=1e-12)

    def test_zero_noise_recording_is_exact(self):
        recording = run_scenario(default_handover_scenario(noise_sigma=0.0,
                                                           adapt=False), seed=0)
        report = rmse_report(recording.segments["pre"])
        assert report.rmse.max() < 1e-6

    def test_single_rig_fusion_degenerates_to_that_rig(self):
        config = parse_scenario({
            "stature": 1.75,
            "delivery": [0.9, 0.0, 1.4315],
            "adapt": False,
            "motion": [{"name": "rest", "duration": 1.0, "target": "rest"},
                       {"name": "reach", "duration": 2.0, "target": "delivery"}],
            "rigs": [{"id": "S1", "position": [2.4, 0.0, 1.6],
                      "look_at": [0.45, 0.0, 1.0], "baseline": 0.5,
                      "noise_sigma": 0.003}],
        })
        report = rmse_report(run_scenario(config, seed=1).segments["pre"])
        np.testing.assert_allclose(report.fusion, report.rmse[0], atol=1e-9)

    def test_report_serializes(self, noisy_recording):
        report = rmse_report(noisy_recording.segments["pre"])
        text = report.to_text()
        assert "fusion" in text and "S3" in text
        data = report.to_dict()
        assert set(data["rmse"]) == {"S1", "S2", "S3", "fusion"}
        assert len(data["landmarks"]) == len(FUSED_LANDMARKS)


class TestRulaCompare:
    def test_self_comparison_has_zero_deltas(self, noisy_recording):
        pre = noisy_recording.segments["pre"]
        comparison = rula_compare(pre, pre)
        for area, (before, after) in comparison.area_means.items():
            assert before == after
        for stature, (a, b) in comparison.mean_grand_by_stature().items():
            assert a == b

    def test_pre_post_comparison_reports_rows(self, noisy_recording):
        comparison = rula_compare(noisy_recording.segments["pre"],
                                  noisy_recording.segments["post"])
        assert len(comparison.pairs) == 1
        row = comparison.pairs[0]
        assert row["stature"] == 1.75
        assert set(comparison.area_means) == {"neck", "trunk", "legs",
                                              "upper_arm", "lower_arm", "wrist"}
        assert comparison.angle_rows  # flat per-frame angle records

    def test_mismatched_pairing_rejected(self, noisy_recording, tmp_path):
        pre = noisy_recording.segments["pre"]
        other = run_scenario(default_handover_scenario(stature=1.6), seed=99)
        with pytest.raises(PairingError):
            rula_compare(pre, other.segments["post"])

    def test_pair_recordings_by_stature_and_seed(self, tmp_path):
        for seed in (0, 1):
            rec = run_scenario(default_handover_scenario(stature=1.6), seed=seed)
            rec.save(tmp_path / f"seed{seed}")
        pairs = pair_recordings(tmp_path, tmp_path)
        # Every pre pairs with a post... pre roots also contain post
        # segments here, so pairing happens per (stature, seed).
        assert len(pairs) >= 2

    def test_shared_root_loads_each_segment_once(self, noisy_recording, tmp_path,
                                                 monkeypatch):
        noisy_recording.save(tmp_path / "run")
        load = SegmentRecording.load.__func__
        loaded = []

        def counting_load(cls, directory, streams=STREAM_NAMES):
            loaded.append((directory, tuple(streams)))
            return load(cls, directory, streams)

        monkeypatch.setattr(SegmentRecording, "load", classmethod(counting_load))
        pairs = pair_recordings(tmp_path, tmp_path)
        assert [(pre.manifest["segment"], post.manifest["segment"])
                for pre, post in pairs] == [("pre", "post")]
        assert sorted(loaded) == [(tmp_path / "run" / "post", ("rula",)),
                                  (tmp_path / "run" / "pre", ("rula",))]
        for segment in pairs[0]:
            assert list(segment.streams) == ["rula"]

    def test_write_comparison_files(self, noisy_recording, tmp_path):
        comparison = rula_compare(noisy_recording.segments["pre"],
                                  noisy_recording.segments["post"])
        paths = write_comparison(comparison, tmp_path / "report")
        for key in ("grand", "areas", "angles"):
            assert paths[key].exists()
        header = paths["areas"].read_text().splitlines()[0]
        assert header == "area,pre_mean,post_mean,improvement"


class TestExport:
    def test_landmarks_csv_contract(self, noisy_recording, tmp_path):
        out = export(noisy_recording.segments["pre"], "landmarks", "csv",
                     tmp_path / "landmarks.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "frame,landmark,x,y,z,source"
        # one row per landmark per frame
        assert len(lines) - 1 == 100 * len(ALL_LANDMARKS)

    def test_csv_round_trip_precision(self, noisy_recording, tmp_path):
        segment = noisy_recording.segments["pre"]
        out = export(segment, "landmarks", "csv", tmp_path / "lm.csv")
        lines = out.read_text().splitlines()[1:]
        parsed = {}
        for line in lines:
            frame, lm, x, y, z, source = line.split(",")
            parsed[(int(frame), lm)] = np.array([float(x), float(y), float(z)])
        original = segment.fused_positions()
        for (frame, lm_name), value in parsed.items():
            idx = [lm.value for lm in ALL_LANDMARKS].index(lm_name)
            expect = original[frame, idx]
            assert np.all(np.abs(value - expect)
                          <= 1e-8 * np.maximum(1.0, np.abs(expect)))

    def test_stream_csv_exports_are_the_stream_files(self, noisy_recording, tmp_path):
        segment = noisy_recording.segments["pre"]
        segment.save(tmp_path / "pre")
        for what, stream in (("landmarks", "fused_landmarks"), ("rula", "rula")):
            out = export(segment, what, "csv", tmp_path / f"{what}.csv")
            assert out.read_bytes() == (tmp_path / "pre" / f"{stream}.csv").read_bytes()

    def test_rula_json_export(self, noisy_recording, tmp_path):
        out = export(noisy_recording.segments["pre"], "rula", "json",
                     tmp_path / "rula.json")
        records = json.loads(out.read_text())
        assert len(records) == 100
        assert {"frame", "grand", "status", "neck"} <= set(records[0])

    def test_heatmap_of_neutral_recording_is_zero(self, tmp_path):
        recording = run_scenario(parse_scenario({
            "stature": 1.75,
            "delivery": [0.9, 0.0, 1.4315],
            "adapt": False,
            "motion": [{"name": "rest", "duration": 2.0, "target": "rest"}],
            "rigs": [{"id": "S1", "position": [2.4, 0.0, 1.6],
                      "look_at": [0.45, 0.0, 1.0], "baseline": 0.5}],
        }), seed=0)
        out = export(recording.segments["pre"], "heatmap", "csv",
                     tmp_path / "heat.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "frame,joint,stress"
        stresses = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(abs(s) for s in stresses) < 1e-9

    def test_unknown_kind_and_format_rejected(self, noisy_recording, tmp_path):
        with pytest.raises(ValueError):
            export(noisy_recording.segments["pre"], "video", "csv", tmp_path / "x")
        with pytest.raises(ValueError):
            export(noisy_recording.segments["pre"], "rula", "xml", tmp_path / "x")

    def test_evaluations_do_not_mutate_recordings(self, tmp_path):
        recording = run_scenario(default_handover_scenario(noise_sigma=0.001),
                                 seed=3)
        recording.save(tmp_path / "run")
        before = SegmentRecording.load(tmp_path / "run" / "pre").digest()
        segment = SegmentRecording.load(tmp_path / "run" / "pre")
        rmse_report(segment)
        rula_compare(segment, SegmentRecording.load(tmp_path / "run" / "post")
                     if (tmp_path / "run" / "post").exists() else segment)
        export(segment, "rula", "csv", tmp_path / "out.csv")
        after = SegmentRecording.load(tmp_path / "run" / "pre").digest()
        assert before == after
