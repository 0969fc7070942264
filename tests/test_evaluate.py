import json
import math
import struct

import numpy as np
import pytest

from ergofusion import evaluate
from ergofusion.evaluate import (PairingError, collect_segments, export,
                                 pair_recordings, rmse_report, rula_compare_many,
                                 write_comparison)
from ergofusion.pipeline import run_scenario
from ergofusion.recording import (STREAM_COLUMNS, STREAM_FIELDS, STREAM_NAMES,
                                  RecordingError, SegmentRecording)
from ergofusion.rula import AREA_FIELDS, STRESS_JOINTS
from ergofusion.scenario import parse_scenario
from ergofusion.skeleton import ALL_LANDMARKS, FUSED_LANDMARKS

from helpers import committed_scenario, rows_recording


@pytest.fixture(scope="module")
def noisy_recording():
    return run_scenario(committed_scenario(noise_sigma=0.002), seed=8)


def build_fixture_recording():
    """Two frames, hand-computable errors on the first landmark.

    Rig S1 is offset from truth by 0.3 m then 0.4 m along x on
    landmark p1 only, so its p1 RMSE is sqrt((0.09 + 0.16) / 2).
    The fused stream echoes ground truth exactly.
    """
    rows = {"ground_truth": [], "fused_landmarks": [], "per_rig_landmarks": []}
    rng = np.random.default_rng(0)
    base = rng.normal(size=(len(ALL_LANDMARKS), 3))
    offsets = [0.3, 0.4]
    for frame in range(2):
        for i, lm in enumerate(ALL_LANDMARKS):
            x, y, z = base[i]
            rows["ground_truth"].append((frame, lm.value, x, y, z, 1))
            rows["fused_landmarks"].append(
                (frame, lm.value, x, y, z, "fused" if i < 12 else "aux"))
            dx = offsets[frame] if i == 0 else 0.0
            rows["per_rig_landmarks"].append(
                (frame, "S1", lm.value, x + dx, y, z, 0.0, 2))
    return rows_recording(
        {"frames": 2, "stature": 1.75, "seed": 0, "segment": "pre"}, rows)


def _rula_compare_by_row(pairs):
    """Reference: ``rula_compare_many`` one row dict at a time."""
    rows, angle_rows = [], []
    area_acc = {area: ([], []) for area in AREA_FIELDS}
    for pre, post in pairs:
        stature, seed = pre.manifest["stature"], pre.manifest["seed"]
        pre_rows, post_rows = ([dict(zip(STREAM_COLUMNS["rula"], row))
                                for row in segment.streams["rula"].tolist()]
                               for segment in (pre, post))
        rows.append({"stature": stature, "seed": seed,
                     "pre_mean_grand": float(np.mean([r["grand"] for r in pre_rows])),
                     "post_mean_grand": float(np.mean([r["grand"] for r in post_rows]))})
        for phase, segment_rows in (("pre", pre_rows), ("post", post_rows)):
            for row in segment_rows:
                for area, col in AREA_FIELDS.items():
                    area_acc[area][0 if phase == "pre" else 1].append(row[col])
                for joint in STRESS_JOINTS:
                    angle_rows.append((phase, stature, seed, row["frame"], joint, row[joint]))
    area_means = {area: (float(np.mean(pre_vals)), float(np.mean(post_vals)))
                  for area, (pre_vals, post_vals) in area_acc.items()}
    return rows, area_means, angle_rows


def _bits(rows):
    """Rows with each float as its bits (and its type kept)."""
    return [tuple((type(v), struct.pack("<d", v) if type(v) is float else v) for v in row)
            for row in rows]


class TestRmseReport:
    def test_hand_computed_fixture(self):
        report = rmse_report(build_fixture_recording())
        assert report.sources == ("S1", "fusion")
        expected = math.sqrt((0.3 ** 2 + 0.4 ** 2) / 2.0)
        assert report.rmse[0, 0] == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(report.rmse[0, 1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(report.fusion, 0.0, atol=1e-12)

    def test_zero_noise_recording_is_exact(self):
        recording = run_scenario(committed_scenario(noise_sigma=0.0, adapt=False),
                                 seed=0)
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
        comparison = rula_compare_many([(pre, pre)])
        for area, (before, after) in comparison.area_means.items():
            assert before == after
        for stature, (a, b) in comparison.mean_grand_by_stature().items():
            assert a == b

    def test_pre_post_comparison_reports_rows(self, noisy_recording):
        comparison = rula_compare_many([(noisy_recording.segments["pre"],
                                         noisy_recording.segments["post"])])
        assert len(comparison.pairs) == 1
        row = comparison.pairs[0]
        assert row["stature"] == 1.75
        assert set(comparison.area_means) == {"neck", "trunk", "legs",
                                              "upper_arm", "lower_arm", "wrist"}
        assert len(comparison.angle_rows)  # flat per-frame angle records

    def test_columns_equal_the_per_row_reference(self, noisy_recording):
        pre, post = noisy_recording.segments["pre"], noisy_recording.segments["post"]
        swapped = [SegmentRecording({**segment.manifest, "stature": 1.6, "seed": 5},
                                    segment.streams) for segment in (post, pre)]
        pairs = [(pre, post), tuple(swapped)]
        comparison = rula_compare_many(pairs)
        want_pairs, want_areas, want_angles = _rula_compare_by_row(pairs)
        assert comparison.pairs == want_pairs
        assert comparison.area_means == want_areas
        assert _bits(comparison.angle_rows.tolist()) == _bits(want_angles)

    def test_mismatched_pairing_rejected(self, noisy_recording, tmp_path):
        pre = noisy_recording.segments["pre"]
        other = run_scenario(committed_scenario(stature=1.6), seed=99)
        with pytest.raises(PairingError):
            rula_compare_many([(pre, other.segments["post"])])

    @pytest.mark.parametrize("missing", ["stature", "seed"])
    def test_manifest_without_stature_or_seed_rejected(self, noisy_recording, missing):
        pre, post = (SegmentRecording({k: v for k, v in segment.manifest.items()
                                       if k != missing}, segment.streams)
                     for segment in (noisy_recording.segments["pre"],
                                     noisy_recording.segments["post"]))
        with pytest.raises(RecordingError, match=f"^recording manifest has no {missing}$"):
            rula_compare_many([(pre, post)])

    def test_pair_recordings_by_stature_and_seed(self, tmp_path):
        for seed in (0, 1):
            rec = run_scenario(committed_scenario(stature=1.6), seed=seed)
            rec.save(tmp_path / f"seed{seed}")
        pairs = pair_recordings(tmp_path, tmp_path)
        # Every pre pairs with a post... pre roots also contain post
        # segments here, so pairing happens per (stature, seed).
        assert len(pairs) >= 2

    def test_shared_root_loads_each_segment_once(self, noisy_recording, tmp_path,
                                                 monkeypatch):
        # An 11-stature grid of pre/post runs under one root.
        statures = [round(1.5 + 0.05 * i, 2) for i in range(11)]
        for stature in statures:
            for name, segment in noisy_recording.segments.items():
                SegmentRecording({**segment.manifest, "stature": stature},
                                 segment.streams).save(
                    tmp_path / f"stature_{stature:.2f}" / name)
        load = SegmentRecording.load.__func__
        loaded = []
        collected = []
        parsed = []

        def counting_load(cls, directory, streams=STREAM_NAMES, manifest=None):
            loaded.append((directory, tuple(streams)))
            return load(cls, directory, streams, manifest)

        def counting_collect(root):
            collected.append(root)
            return collect_segments(root)

        def counting_loads(text, loads=json.loads):
            parsed.append(text)
            return loads(text)

        monkeypatch.setattr(SegmentRecording, "load", classmethod(counting_load))
        monkeypatch.setattr(evaluate, "collect_segments", counting_collect)
        monkeypatch.setattr(json, "loads", counting_loads)
        pairs = pair_recordings(tmp_path, str(tmp_path))
        assert collected == [tmp_path]
        assert [(pre.manifest["stature"], pre.manifest["segment"], post.manifest["segment"])
                for pre, post in pairs] == [(s, "pre", "post") for s in statures]
        assert sorted(loaded) == sorted((tmp_path / f"stature_{s:.2f}" / name, ("rula",))
                                        for s in statures for name in ("pre", "post"))
        # Each manifest is parsed once, when the root is collected.
        assert len(parsed) == 22
        for pair in pairs:
            for segment in pair:
                assert list(segment.streams) == ["rula"]

    def test_write_comparison_files(self, noisy_recording, tmp_path):
        comparison = rula_compare_many([(noisy_recording.segments["pre"],
                                         noisy_recording.segments["post"])])
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

    @pytest.mark.parametrize("what", ["landmarks", "rula", "heatmap"])
    def test_json_exports_keep_int_fields_as_ints(self, noisy_recording, tmp_path, what):
        segment = noisy_recording.segments["pre"]
        text = export(segment, what, "json", tmp_path / f"{what}.json").read_text()
        assert text.startswith('[\n {\n  "frame": 0,\n')
        records = json.loads(text)
        stream = evaluate.EXPORT_STREAMS[what]
        ints = ["frame"] if what == "heatmap" else [
            name for name, conv in STREAM_FIELDS[stream] if conv is int]
        assert len(ints) > (what == "rula") * 10
        for record in records:
            assert all(type(record[name]) is int for name in ints)
        if what != "heatmap":  # the stream's rows as json.dumps writes them
            want = [dict(zip(STREAM_COLUMNS[stream], row))
                    for row in segment.streams[stream].tolist()]
            assert text == json.dumps(want, indent=1) + "\n"

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
        recording = run_scenario(committed_scenario(noise_sigma=0.001), seed=3)
        recording.save(tmp_path / "run")
        before = SegmentRecording.load(tmp_path / "run" / "pre").digest()
        segment = SegmentRecording.load(tmp_path / "run" / "pre")
        rmse_report(segment)
        rula_compare_many([(segment, SegmentRecording.load(tmp_path / "run" / "post")
                            if (tmp_path / "run" / "post").exists() else segment)])
        export(segment, "rula", "csv", tmp_path / "out.csv")
        after = SegmentRecording.load(tmp_path / "run" / "pre").digest()
        assert before == after
