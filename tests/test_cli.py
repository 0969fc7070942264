import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from ergofusion.cli import main

from helpers import SCENARIO_DIR, committed_data

# The committed handover task, named for these tests, with a shorter hold
# and return and a noisier S3.
SCENARIO = committed_data(name="cli_case", noise_sigma=[0.001, 0.001, 0.002],
                          durations={"hold": 2.0, "return": 1.0})


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(SCENARIO))
    return path


@pytest.fixture()
def run_dir(tmp_path, scenario_file):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario_file),
                 "--out", str(out)]) == 0
    return out


def rewrite_field(path, line: int, column: int, value) -> None:
    """Replace one field on 1-based ``line`` of a stream file."""
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[column] = str(value)
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def command(name: str, run_dir, out) -> list[str]:
    """The argv of one evaluation command over ``run_dir``."""
    if name == "eval-rmse":
        return ["eval-rmse", "--recording", str(run_dir / "pre")]
    if name == "eval-rula":
        return ["eval-rula", "--recording-pre", str(run_dir / "pre"),
                "--recording-post", str(run_dir / "post")]
    what = name.removeprefix("export-")
    return ["export", "--recording", str(run_dir / "pre"), "--what", what,
            "--format", "csv", "--out", str(out)]


COMMANDS = ("eval-rmse", "eval-rula", "export-landmarks", "export-rula",
            "export-heatmap")
# A scenario field set to a value loading must reject, and the name the
# error gives it. Rig S2 stands at (2.4, 0.0, 1.6).
BAD_FIELDS = [
    ("look_at=position", ("rigs", 1, "look_at"), [2.4, 0.0, 1.6], "rig S2 look_at"),
    ("look_at=above", ("rigs", 1, "look_at"), [2.4, 0.0, 2.6], "rig S2 look_at"),
    ("look_at=below", ("rigs", 1, "look_at"), [2.4, 0.0, 0.6], "rig S2 look_at"),
    ("stature=abc", ("stature",), "abc", "stature"),
    ("seed=abc", ("seed",), "abc", "seed"),
    ("frame_rate=abc", ("frame_rate",), "abc", "frame_rate"),
    ("warmup=abc", ("warmup",), "abc", "warmup"),
    ("baseline=abc", ("rigs", 0, "baseline"), "abc", "rig S1 baseline"),
    ("noise_sigma=abc", ("rigs", 0, "noise_sigma"), "abc", "rig S1 noise_sigma"),
    ("duration=abc", ("motion", 1, "duration"), "abc", "phase reach duration"),
    ("frame_rate=nan", ("frame_rate",), float("nan"), "frame_rate"),
    ("duration=inf", ("motion", 1, "duration"), float("inf"), "phase reach duration"),
    ("seed=inf", ("seed",), float("inf"), "seed"),
    ("rigs=5", ("rigs",), 5, "rigs"),
    ("seed=-1", ("seed",), -1, "seed"),
    ("adjustments=5", ("adjustments",), 5, "adjustments"),
    ("seed=2.5", ("seed",), 2.5, "seed"),
    ("seed=2**70", ("seed",), 2 ** 70, "seed"),
    ("seed=true", ("seed",), True, "seed"),
    ("adapt='false'", ("adapt",), "false", "adapt"),
    ("adapt='no'", ("adapt",), "no", "adapt"),
    ("adapt=[0]", ("adapt",), [0], "adapt"),
    ("adapt=1", ("adapt",), 1, "adapt"),
    ("adjustments muscle_use_b=1.5", ("adjustments", "muscle_use_b"), 1.5,
     "adjustments muscle_use_b"),
    ("id='S,2'", ("rigs", 1, "id"), "S,2", "rigs[1]"),
    ("id='S\\n2'", ("rigs", 1, "id"), "S\n2", "rigs[1]"),
    ("id='S\\x1c2'", ("rigs", 1, "id"), "S\x1c2", "rigs[1]"),
    ("id=5", ("rigs", 1, "id"), 5, "rigs[1]"),
    # A quoted number is a str, and a bool is not a number.
    ("stature='1.75'", ("stature",), "1.75", "stature"),
    ("stature start='1.5'", ("stature",), {"start": "1.5", "stop": 1.9, "step": 0.1},
     "stature start"),
    # A grid's count is checked before any of its values is built.
    ("stature step=1e-05", ("stature",), {"start": 1.5, "stop": 2.0, "step": 1e-05},
     "stature grid"),
    ("stature step=1e-09", ("stature",), {"start": 1.5, "stop": 2.0, "step": 1e-09},
     "stature grid"),
    ("warmup='2.0'", ("warmup",), "2.0", "warmup"),
    ("frame_rate='10'", ("frame_rate",), "10", "frame_rate"),
    ("delivery=quoted", ("delivery",), ["0.9", "0", "1.4315"], "delivery"),
    ("delivery=[true, 0, 1.4]", ("delivery",), [True, 0, 1.4], "delivery"),
    ("stance=quoted", ("stance",), ["0.4", "0.2", "0.0"], "stance"),
    ("position=quoted", ("rigs", 1, "position"), ["2.4", "0.0", "1.6"], "rig S2 position"),
    ("baseline='0.5'", ("rigs", 0, "baseline"), "0.5", "rig S1 baseline"),
    ("noise_sigma='0.001'", ("rigs", 0, "noise_sigma"), "0.001", "rig S1 noise_sigma"),
    ("duration='2.0'", ("motion", 1, "duration"), "2.0", "phase reach duration"),
    ("target=[0.9, false, 1.4]", ("motion", 1, "target"), [0.9, False, 1.4],
     "phase reach target"),
]
# A command and one stream it parses (eval-rmse is covered in TestEvalRmse).
READ_STREAMS = [("eval-rula", "rula"), ("export-landmarks", "fused_landmarks"),
                ("export-heatmap", "rula")]


# Serial-scheduler digests of each committed scenario at its file seed,
# by segment directory under ``--out``.
SCENARIO_DIGESTS = {
    "desk_handover": {
        "pre": "8b6f5468708d03007fb266aee087df5b9d263a5767baec8f76d548a51a9177a6",
        "post": "8b6f5468708d03007fb266aee087df5b9d263a5767baec8f76d548a51a9177a6",
    },
    "desk_rmse": {
        "pre": "b3d65d4cda0e4641cc72e79fdf3e1a1f10e057e4a9fe69d7f85db087c8a5f9d4",
    },
    "stature_grid": {
        "stature_1.50/pre": "d56afe58152a337662bfca46763bb8995cfba52b85074868c9f6ccd62eae39ca",
        "stature_1.50/post": "777b34b8f3c75658338f39c7ac9f8bfec434147d82ab294c7b109ecbf03a4606",
        "stature_1.55/pre": "25dabdf3caf3aa9c22d91de0183d3adc228dc85144ead44738916a8bfb110d12",
        "stature_1.55/post": "847abdc141c4ececf1c9a37d37a42870386ac830ad87c9d1f14a925ec70b101d",
        "stature_1.60/pre": "e281516b52a2bb7365db767543fcbf5da4c383f5fe89b333b0f2f87e5847ac2c",
        "stature_1.60/post": "44247d5f7a83a6e5f50cd7aa1efa1ec4f12a7c5a114f3212d1aac2278957c795",
        "stature_1.65/pre": "e292d836d044021884ac853088b8b49b6057ca6745891b212974b0fe0656bd36",
        "stature_1.65/post": "5108f060f54e0dcec531bdca49ebd16a4883dc7fcc100b85dc0950aa6b2ca9f7",
        "stature_1.70/pre": "70a9ac7464161623f8e7b182763be312c1761ac6b95ee7b52b88ad8fafd03b3f",
        "stature_1.70/post": "70a9ac7464161623f8e7b182763be312c1761ac6b95ee7b52b88ad8fafd03b3f",
        "stature_1.75/pre": "8b6f5468708d03007fb266aee087df5b9d263a5767baec8f76d548a51a9177a6",
        "stature_1.75/post": "8b6f5468708d03007fb266aee087df5b9d263a5767baec8f76d548a51a9177a6",
        "stature_1.80/pre": "8eae0ad064ef5a698883099ef8b805eeab7ec9f3034c88434d7e6f37df5c34fd",
        "stature_1.80/post": "c1042c7f4145d805ee9b7e14c9427d1fc54e7ec37c513e90835e90614001387d",
        "stature_1.85/pre": "aa1d108fd74e571fec281d1bfc9bfabdbf85af65d69680efcb0a0cca56b23265",
        "stature_1.85/post": "24655e7f885c3d652d171b3c6ff626afc67f23c0fe00ae2335f84f3262d5a5bb",
        "stature_1.90/pre": "a3a00eb75dda6d97bb5d64956eab1c97138247dbf2230a53ab7d5018544905ca",
        "stature_1.90/post": "8cab3cfb22fddc230283a3775c99603ba0c58817d8d441763a3f5f76d3d9c509",
        "stature_1.95/pre": "294f84f8afc5f6310d0eb9b99e4174afb5a1a8d5c881083fa9ec3bfbf4092bd8",
        "stature_1.95/post": "a0f6749aec78323e7c968668dae5c601a7459d4ea40c4cb4294254ff0be7b43a",
        "stature_2.00/pre": "59851e5044c02a2572dbedbde0158400dc24b88166ed1c8170dc1c8ca3fdef30",
        "stature_2.00/post": "fa0fdd15269578bf35d57bddd1cc64655d85cfb30883bfd1f35a26c305bb7dde",
    },
}


def segment_digests(out) -> dict[str, str]:
    """Each segment's digest, by its directory under ``out``."""
    return {manifest.parent.relative_to(out).as_posix():
            json.loads(manifest.read_text())["digest"]
            for manifest in out.rglob("manifest.json")}


def assert_manifests_re_simulate(out, tmp_path) -> None:
    """Each run under ``out``, simulated again from the scenario and seed
    its ``pre`` manifest holds, has the same segment digests."""
    for pre in sorted(out.rglob("pre/manifest.json")):
        run = pre.parent.parent
        manifest = json.loads(pre.read_text())
        scenario = tmp_path / "manifest-scenario.json"
        scenario.write_text(json.dumps(manifest["scenario"]))
        rerun = tmp_path / "again" / run.relative_to(out)
        assert main(["simulate", "--scenario", str(scenario),
                     "--seed", str(manifest["seed"]), "--out", str(rerun)]) == 0
        assert segment_digests(rerun) == segment_digests(run)


class TestSimulate:
    def test_every_committed_scenario_is_pinned(self):
        committed = {path.stem for path in SCENARIO_DIR.glob("*.yaml")}
        assert set(SCENARIO_DIGESTS) == committed

    @pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
    def test_committed_scenario_digests_are_pinned(self, tmp_path, capsys, name):
        out = tmp_path / name
        assert main(["simulate", "--scenario", str(SCENARIO_DIR / f"{name}.yaml"),
                     "--out", str(out)]) == 0
        assert segment_digests(out) == SCENARIO_DIGESTS[name]
        printed = capsys.readouterr().out.splitlines()
        assert [line.rsplit("digest=", 1)[1] for line in printed] == [
            digest[:12] for digest in SCENARIO_DIGESTS[name].values()]

    @pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
    def test_manifest_scenario_re_simulates_its_recording(self, tmp_path, name):
        out = tmp_path / name
        assert main(["simulate", "--scenario", str(SCENARIO_DIR / f"{name}.yaml"),
                     "--out", str(out)]) == 0
        assert_manifests_re_simulate(out, tmp_path)

    def test_exponent_float_in_a_manifest_re_simulates(self, tmp_path):
        # json.dumps writes 1e-05, which YAML 1.1 would read as a str.
        data = yaml.safe_load(yaml.safe_dump(SCENARIO))
        data["rigs"][2]["noise_sigma"] = 1e-05
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        assert '"noise_sigma": 1e-05' in scenario.read_text()
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        manifest = json.loads((out / "pre" / "manifest.json").read_text())
        assert manifest["scenario"]["rigs"][2]["noise_sigma"] == 1e-05
        assert_manifests_re_simulate(out, tmp_path)

    def test_rig_given_by_rotation_and_relative_pose(self, tmp_path):
        # desk_handover with S2 in about its look_at pose, given as an
        # axis-angle rotation, and its right camera turned about the left
        # camera's y axis and set 2 cm forward: the committed scenarios give
        # every rig the identity relative rotation.
        data = committed_data()
        data["rigs"][1] = {"id": "S2", "position": [2.4, 0.0, 1.6],
                           "rotation": [1.4256, 1.4256, -1.0529],
                           "relative_rotation": [0.0, 0.1, 0.0],
                           "relative_translation": [-0.5, 0.0, 0.02],
                           "noise_sigma": 0.001}
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(yaml.safe_dump(data))
        digests = {}
        for scheduler in ("serial", "threads"):
            out = tmp_path / scheduler
            assert main(["simulate", "--scenario", str(scenario), "--scheduler", scheduler,
                         "--out", str(out)]) == 0
            digests[scheduler] = segment_digests(out)
        assert digests["serial"] == digests["threads"]
        assert digests["serial"].keys() == SCENARIO_DIGESTS["desk_handover"].keys()
        assert digests["serial"] != SCENARIO_DIGESTS["desk_handover"]
        manifest = json.loads((tmp_path / "serial" / "pre" / "manifest.json").read_text())
        assert manifest["scenario"]["rigs"][1] == data["rigs"][1]
        assert_manifests_re_simulate(tmp_path / "serial", tmp_path)

    def test_creates_recording_with_six_streams(self, run_dir):
        for segment in ("pre", "post"):
            files = sorted(p.name for p in (run_dir / segment).iterdir())
            assert files == ["fused_landmarks.csv", "ground_truth.csv",
                             "manifest.json", "observations.csv",
                             "per_rig_landmarks.csv", "rula.csv"]

    def test_same_seed_reproduces_digests(self, tmp_path, scenario_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--scenario", str(scenario_file),
                         "--seed", "5", "--out", str(out)]) == 0
            outs.append(out)
        for segment in ("pre", "post"):
            digests = [json.loads((out / segment / "manifest.json").read_text())["digest"]
                       for out in outs]
            assert digests[0] == digests[1]

    def test_missing_rig_field_exits_2(self, tmp_path, capsys):
        broken = yaml.safe_load(yaml.safe_dump(SCENARIO))
        del broken["rigs"][0]["position"]
        path = tmp_path / "broken.yaml"
        path.write_text(yaml.safe_dump(broken))
        code = main(["simulate", "--scenario", str(path), "--out",
                     str(tmp_path / "x")])
        assert code == 2
        assert "position" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, field", [case[1:] for case in BAD_FIELDS],
                             ids=[case[0] for case in BAD_FIELDS])
    def test_bad_field_exits_2_naming_it(self, tmp_path, capsys, path, value, field):
        broken = yaml.safe_load(yaml.safe_dump(SCENARIO))
        *parents, key = path
        owner = broken
        for parent in parents:
            owner = owner[parent]
        owner[key] = value
        scenario = tmp_path / "broken.yaml"
        scenario.write_text(yaml.safe_dump(broken))
        code = main(["simulate", "--scenario", str(scenario), "--out",
                     str(tmp_path / "x")])
        assert code == 2
        assert field in capsys.readouterr().err

    def test_negative_seed_option_exits_2_naming_it(self, tmp_path, capsys, scenario_file):
        code = main(["simulate", "--scenario", str(scenario_file), "--seed", "-1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: seed: must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_seed_option_beyond_int64_exits_2_naming_it(self, tmp_path, capsys,
                                                        scenario_file):
        code = main(["simulate", "--scenario", str(scenario_file),
                     "--seed", str(2 ** 70), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: seed: must be a non-negative integer up to 2**63-1, got " \
            f"{2 ** 70}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_scenario_file_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(tmp_path / "none.yaml"),
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_env_var_out_root(self, tmp_path, scenario_file, monkeypatch):
        monkeypatch.setenv("ERGOFUSION_OUT", str(tmp_path / "envroot"))
        assert main(["simulate", "--scenario", str(scenario_file)]) == 0
        assert (tmp_path / "envroot" / "cli_case" / "pre" / "manifest.json").exists()

    def test_stature_grid_writes_per_stature_dirs(self, tmp_path):
        grid = yaml.safe_load(yaml.safe_dump(SCENARIO))
        grid["stature"] = [1.6, 1.9]
        grid["motion"] = [{"name": "rest", "duration": 2.0, "target": "rest"},
                          {"name": "reach", "duration": 1.0, "target": "delivery"}]
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump(grid))
        out = tmp_path / "gridout"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
        assert (out / "stature_1.60" / "pre" / "manifest.json").exists()
        assert (out / "stature_1.90" / "post" / "manifest.json").exists()

    @pytest.mark.parametrize("statures, directory", [([1.701, 1.704], "stature_1.70"),
                                                     ([1.75, 1.75], "stature_1.75")])
    def test_grid_statures_sharing_a_directory_exit_2(self, tmp_path, capsys,
                                                      statures, directory):
        grid = yaml.safe_load(yaml.safe_dump(SCENARIO))
        grid["stature"] = statures
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump(grid))
        out = tmp_path / "gridout"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (f"error: stature values {statures[0]} and {statures[1]} share the "
                f"run directory {out / directory}") in captured.err
        assert captured.out == "" and not out.exists()


class TestEvalRmse:
    def test_prints_table(self, run_dir, capsys):
        assert main(["eval-rmse", "--recording", str(run_dir / "pre")]) == 0
        out = capsys.readouterr().out
        assert "RMSE per landmark" in out
        assert "fusion" in out

    def test_accepts_run_directory(self, run_dir, capsys):
        assert main(["eval-rmse", "--recording", str(run_dir)]) == 0

    def test_writes_json_report(self, run_dir, tmp_path):
        report = tmp_path / "rmse.json"
        assert main(["eval-rmse", "--recording", str(run_dir / "pre"),
                     "--out", str(report)]) == 0
        data = json.loads(report.read_text())
        assert set(data["rmse"]) == {"S1", "S2", "S3", "fusion"}

    def test_unusual_rig_id_round_trips(self, tmp_path):
        data = yaml.safe_load(yaml.safe_dump(SCENARIO))
        data["rigs"][1]["id"] = "S 1-\u00fc"
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(yaml.safe_dump(data))
        out, report = tmp_path / "run", tmp_path / "rmse.json"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert main(["eval-rmse", "--recording", str(out / "pre"),
                     "--out", str(report)]) == 0
        assert set(json.loads(report.read_text())["rmse"]) == {"S1", "S 1-\u00fc", "S3",
                                                               "fusion"}

    def test_manifest_frames_beyond_the_rows_allocate_nothing(self, run_dir, tmp_path,
                                                             capsys):
        segment, report = run_dir / "pre", tmp_path / "rmse.json"
        results = []
        for frames in (None, 10 ** 12):
            if frames is not None:
                path = segment / "manifest.json"
                path.write_text(json.dumps({**json.loads(path.read_text()),
                                            "frames": frames}))
            assert main(["eval-rmse", "--recording", str(segment),
                         "--out", str(report)]) == 0
            results.append((capsys.readouterr().out, report.read_text()))
        assert results[0] == results[1]

    def test_missing_stream_exits_2(self, run_dir, capsys):
        (run_dir / "pre" / "per_rig_landmarks.csv").unlink()
        assert main(["eval-rmse", "--recording", str(run_dir / "pre")]) == 2
        assert "per_rig_landmarks" in capsys.readouterr().err

    def test_nonexistent_recording_exits_2(self, tmp_path):
        assert main(["eval-rmse", "--recording", str(tmp_path / "ghost")]) == 2

    @pytest.mark.parametrize("stream, frame", [("ground_truth", "frames"),
                                               ("fused_landmarks", -1)])
    def test_out_of_range_frame_exits_2(self, run_dir, capsys, stream, frame):
        segment = run_dir / "pre"
        if frame == "frames":
            frame = json.loads((segment / "manifest.json").read_text())["frames"]
        path = segment / f"{stream}.csv"
        lines = path.read_text().splitlines()
        lines[1] = f"{frame}," + lines[1].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        assert main(["eval-rmse", "--recording", str(segment)]) == 2
        assert f"frame {frame}" in capsys.readouterr().err

    def test_malformed_number_exits_2(self, run_dir, capsys):
        segment = run_dir / "pre"
        path = segment / "ground_truth.csv"
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[2] = "abc"
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert main(["eval-rmse", "--recording", str(segment)]) == 2
        err = capsys.readouterr().err
        assert "'ground_truth' line 4" in err and "abc" in err

# Manifest stature/seed values that pairing rejects: not a number, a
# non-integral seed or one beyond int64, and bools, which Python would
# read as 1.
BAD_PAIR_KEYS = [("stature", [1.75]), ("stature", "1.75"), ("seed", 3.5),
                 ("seed", 2 ** 70), ("stature", True), ("seed", True)]


class TestEvalRula:
    def test_paired_report(self, run_dir, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["eval-rula", "--recording-pre", str(run_dir / "pre"),
                     "--recording-post", str(run_dir / "post"),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "mean grand RULA" in printed
        assert (out / "grand_by_stature.csv").exists()
        assert (out / "area_means.csv").exists()
        assert (out / "angle_distributions.csv").exists()

    def test_self_comparison_zero_deltas(self, run_dir, tmp_path, scenario_file):
        # The same run recorded twice: one segment against its copy.
        again = tmp_path / "again"
        assert main(["simulate", "--scenario", str(scenario_file),
                     "--out", str(again)]) == 0
        out = tmp_path / "self"
        assert main(["eval-rula", "--recording-pre", str(run_dir / "pre"),
                     "--recording-post", str(again / "pre"),
                     "--out", str(out)]) == 0
        rows = (out / "area_means.csv").read_text().splitlines()[1:]
        for row in rows:
            _, pre, post, improvement = row.split(",")
            assert pre == post
            assert float(improvement) == 0.0

    def test_one_segment_as_pre_and_post_exits_2(self, run_dir, tmp_path, capsys):
        segment = run_dir / "pre"
        report = tmp_path / "report"
        assert main(["eval-rula", "--recording-pre", str(segment),
                     "--recording-post", str(segment), "--out", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: pre and post are the same segment recording {segment}\n"
        assert captured.out == ""
        assert not report.exists()

    def test_run_without_post_as_both_roots_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "no_adapt.yaml"
        scenario.write_text(yaml.safe_dump({**SCENARIO, "adapt": False}))
        run = tmp_path / "run"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(run)]) == 0
        assert sorted(p.name for p in run.iterdir()) == ["pre"]
        capsys.readouterr()
        assert main(["eval-rula", "--recording-pre", str(run),
                     "--recording-post", str(run)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: pre and post are the same segment recording {run / 'pre'}\n"
        assert captured.out == ""

    def test_mismatched_seed_exits_2(self, run_dir, tmp_path, scenario_file, capsys):
        other = tmp_path / "other"
        assert main(["simulate", "--scenario", str(scenario_file),
                     "--seed", "42", "--out", str(other)]) == 0
        assert main(["eval-rula", "--recording-pre", str(run_dir / "pre"),
                     "--recording-post", str(other / "post")]) == 2

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("field, value", BAD_PAIR_KEYS,
                             ids=[f"{f}={json.dumps(v)}" for f, v in BAD_PAIR_KEYS])
    def test_bad_manifest_stature_or_seed_exits_2(self, run_dir, tmp_path, capsys,
                                                  field, value, out):
        for segment in ("pre", "post"):
            path = run_dir / segment / "manifest.json"
            manifest = json.loads(path.read_text())
            manifest[field] = value
            path.write_text(json.dumps(manifest))
        argv = command("eval-rula", run_dir, None)
        report = tmp_path / "report"
        assert main(argv + ["--out", str(report)] if out else argv) == 2
        captured = capsys.readouterr()
        assert f"error: recording manifest {field} must be " in captured.err
        assert captured.out == ""
        assert not report.exists()


# Manifests every reader rejects, each with the text its error gives:
# frames that is not an int >= 0 (a bool would read as 1), a JSON value
# that is not an object, and invalid JSON.
BAD_MANIFESTS = {
    "frames=null": (lambda m: json.dumps({**m, "frames": None}), "got None"),
    "frames=499.5": (lambda m: json.dumps({**m, "frames": 499.5}), "got 499.5"),
    'frames="500"': (lambda m: json.dumps({**m, "frames": "500"}), "got '500'"),
    "frames=true": (lambda m: json.dumps({**m, "frames": True}), "got True"),
    "frames=-1": (lambda m: json.dumps({**m, "frames": -1}), "got -1"),
    "list": (lambda m: json.dumps([m]), "must hold a JSON object, not list"),
    "invalid JSON": (lambda m: json.dumps(m)[:-1], "is not valid JSON"),
}


class TestBadManifest:
    @pytest.mark.parametrize("name", COMMANDS)
    @pytest.mark.parametrize("case", BAD_MANIFESTS)
    def test_malformed_manifest_exits_2(self, run_dir, tmp_path, capsys, case, name):
        edit, message = BAD_MANIFESTS[case]
        for segment in ("pre", "post"):
            path = run_dir / segment / "manifest.json"
            path.write_text(edit(json.loads(path.read_text())))
        out = tmp_path / "out.csv"
        argv = command(name, run_dir, out)
        if name.startswith("eval-"):
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "manifest.json" in captured.err and message in captured.err
        if case.startswith("frames"):
            assert "frames must be an int >= 0" in captured.err
        assert captured.out == ""
        assert not out.exists()

class TestExport:
    def test_landmarks_csv(self, run_dir, tmp_path):
        out = tmp_path / "lm.csv"
        assert main(["export", "--recording", str(run_dir / "pre"),
                     "--what", "landmarks", "--format", "csv",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "frame,landmark,x,y,z,source"

    def test_heatmap_json(self, run_dir, tmp_path):
        out = tmp_path / "heat.json"
        assert main(["export", "--recording", str(run_dir / "pre"),
                     "--what", "heatmap", "--format", "json",
                     "--out", str(out)]) == 0
        records = json.loads(out.read_text())
        assert {"frame", "joint", "stress"} == set(records[0])

    def test_unknown_stream_is_usage_error(self, run_dir):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--recording", str(run_dir / "pre"),
                  "--what", "video", "--format", "csv"])
        assert exc.value.code == 2

    def test_unknown_format_is_usage_error(self, run_dir):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--recording", str(run_dir / "pre"),
                  "--what", "rula", "--format", "xml"])
        assert exc.value.code == 2


class TestStreamsEachCommandParses:
    @pytest.mark.parametrize("name, stream", READ_STREAMS)
    def test_malformed_number_in_a_read_stream_exits_2(self, run_dir, tmp_path,
                                                       capsys, name, stream):
        rewrite_field(run_dir / "pre" / f"{stream}.csv", 4, 2, "abc")
        assert main(command(name, run_dir, tmp_path / "out.csv")) == 2
        err = capsys.readouterr().err
        assert f"'{stream}' line 4" in err and "abc" in err

    @pytest.mark.parametrize("name, stream", READ_STREAMS)
    def test_out_of_range_frame_in_a_read_stream_exits_2(self, run_dir, tmp_path,
                                                         capsys, name, stream):
        frames = json.loads((run_dir / "pre" / "manifest.json").read_text())["frames"]
        rewrite_field(run_dir / "pre" / f"{stream}.csv", 3, 0, frames)
        assert main(command(name, run_dir, tmp_path / "out.csv")) == 2
        err = capsys.readouterr().err
        assert f"'{stream}' line 3: frame {frames} is outside" in err

    @pytest.mark.parametrize("name", COMMANDS)
    def test_missing_stream_file_exits_2(self, run_dir, tmp_path, capsys, name):
        (run_dir / "pre" / "observations.csv").unlink()
        assert main(command(name, run_dir, tmp_path / "out.csv")) == 2
        assert "missing stream 'observations'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", COMMANDS)
    def test_malformed_row_in_an_unread_stream_is_not_parsed(self, run_dir, tmp_path,
                                                             name):
        rewrite_field(run_dir / "pre" / "observations.csv", 4, 3, "abc")
        rewrite_field(run_dir / "post" / "observations.csv", 4, 3, "abc")
        assert main(command(name, run_dir, tmp_path / "out.csv")) == 0


def source_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(Path(__file__).resolve().parent.parent / "src"),
                      os.environ.get("PYTHONPATH")))))


class TestClosedStdout:
    """A reader that closes stdout at once, as ``| head -1`` soon does,
    stops no command: the rest of its output is discarded."""

    @staticmethod
    def run(argv, unbuffered: bool) -> tuple[int, str]:
        env = source_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "ergofusion", *map(str, argv)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        return proc.wait(), err

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_commands_run_to_the_end(self, tmp_path, unbuffered):
        grid = yaml.safe_load(yaml.safe_dump(SCENARIO))
        grid["stature"] = [1.6, 1.75, 1.9]
        path = tmp_path / "grid.yaml"
        path.write_text(yaml.safe_dump(grid))
        out = tmp_path / "gridout"
        assert self.run(["simulate", "--scenario", path, "--out", out], unbuffered) == (0, "")
        assert len(list(out.rglob("manifest.json"))) == 6
        assert self.run(["eval-rmse", "--recording", out / "stature_1.60",
                         "--out", tmp_path / "rmse.json"], unbuffered) == (0, "")
        assert (tmp_path / "rmse.json").exists()
        report = tmp_path / "rula"
        assert self.run(["eval-rula", "--recording-pre", out, "--recording-post", out,
                         "--out", report], unbuffered) == (0, "")
        assert len(list(report.iterdir())) == 3


def test_loading_a_scenario_leaves_numpy_random_unimported():
    # numpy.random takes about 8 ms to import, and only a simulation's
    # camera nodes use it. numpy < 2 imports it with numpy itself.
    code = ("import sys, numpy\n"
            "eager = 'numpy.random' in sys.modules\n"
            "import ergofusion.cli\n"
            "from ergofusion.scenario import load_scenario\n"
            f"load_scenario({str(SCENARIO_DIR / 'stature_grid.yaml')!r}).expand_statures()\n"
            "print(eager, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=source_env(), check=True,
                         capture_output=True, text=True).stdout
    eager, loaded = out.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.random when numpy is imported")
    assert loaded == "False"
