import json

import pytest
import yaml

from ergofusion.cli import main

from helpers import SCENARIO_DIR

SCENARIO = {
    "name": "cli_case",
    "stature": 1.75,
    "seed": 0,
    "warmup": 2.0,
    "adapt": True,
    "delivery": [0.9, 0.0, 1.4315],
    "adjustments": {"muscle_use_b": 1, "force_b": 1},
    "motion": [
        {"name": "rest", "duration": 2.0, "target": "rest"},
        {"name": "reach", "duration": 2.0, "target": "delivery"},
        {"name": "hold", "duration": 2.0, "target": "delivery"},
        {"name": "return", "duration": 1.0, "target": "rest"},
    ],
    "rigs": [
        {"id": "S1", "position": [2.1, -1.2, 1.6], "look_at": [0.45, 0.0, 1.0],
         "baseline": 0.5, "noise_sigma": 0.001},
        {"id": "S2", "position": [2.4, 0.0, 1.6], "look_at": [0.45, 0.0, 1.0],
         "baseline": 0.5, "noise_sigma": 0.001},
        {"id": "S3", "position": [2.1, 1.2, 1.6], "look_at": [0.45, 0.0, 1.0],
         "baseline": 0.5, "noise_sigma": 0.002},
    ],
}


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
    ("adjustments muscle_use_b=1.5", ("adjustments", "muscle_use_b"), 1.5,
     "adjustments muscle_use_b"),
]
# A command and one stream it parses (eval-rmse is covered in TestEvalRmse).
READ_STREAMS = [("eval-rula", "rula"), ("export-landmarks", "fused_landmarks"),
                ("export-heatmap", "rula")]


# Serial-scheduler digests of each committed scenario at its file seed,
# by segment directory under ``--out``.
SCENARIO_DIGESTS = {
    "desk_handover": {
        "pre": "bab8e27d611bc958e5bcf22ee2b9311cd18bb6151d80d47a273760d93b61781c",
        "post": "f7d0c26f8e83cc43c4783cd1b700c0201a4ceefecf3fa4b33363c3383de0344a",
    },
    "desk_rmse": {
        "pre": "02d66ab47875b5b633b6fb5cea8a56ecd738dbafddb174905c69963d033ae3ed",
    },
    "stature_grid": {
        "stature_1.50/pre": "0e6d7df0530af2fb4ee65d47233bcdb719be0edba7d38660d394b132f24e614c",
        "stature_1.50/post": "2be17f0135c700f81b961baeb80247fc5c7f2ad5262ba57afa662c7807e610c0",
        "stature_1.55/pre": "62e3d6122430ef5fbda630b1cf87fedf5d1b6689bcb28788f3330b1f618646ac",
        "stature_1.55/post": "6f4c96907dd497b4b13cc3f012cc57303549f41590e9dd091cfd833c28058c08",
        "stature_1.60/pre": "626daf7d30190ac3425033ef5d32ccd03d2ba7d04ed5bdb5bedef911809f7496",
        "stature_1.60/post": "0310fe8b14803346755538877a9e14e992ea46204b765447aa509743b8a822bb",
        "stature_1.65/pre": "3bd0175f047351f8ea0b537fee5ed4fb9d115ef8cb292bff904a25117d0ee1b0",
        "stature_1.65/post": "378446d358259f10817bad9ba1efb849ae8d9cfdd72d0b75a2333ca5ec56a61d",
        "stature_1.70/pre": "56bba2129aa08c94c6c3e2884f23400ccbdbf00f400933133d9937602efdad4d",
        "stature_1.70/post": "274cfde856060e063357f00cf6a3f98ff165974de8d43ecd59be57a3e3832917",
        "stature_1.75/pre": "bab8e27d611bc958e5bcf22ee2b9311cd18bb6151d80d47a273760d93b61781c",
        "stature_1.75/post": "f7d0c26f8e83cc43c4783cd1b700c0201a4ceefecf3fa4b33363c3383de0344a",
        "stature_1.80/pre": "439f77344829f6975ea4ae6f377f2db841d480f8b953b4b0040a72256a3b822b",
        "stature_1.80/post": "705d3c171aa1fea32ee197b3ed5b1ee2e3537d9ad5ecedde20eb7c86edf3f5a8",
        "stature_1.85/pre": "cd87439211e897acf84a29cc38ec73b580e21c54a33510951a52f2178529d784",
        "stature_1.85/post": "f44dccdb6e02af1ba8e91b6499b459277680f1109fb06e304ba55446ced8a15a",
        "stature_1.90/pre": "36f019abeabd9b1f642f5a6993f27df1033fad5211bec14dbbf306307aaae4a4",
        "stature_1.90/post": "ead0b213c302e6fa3709b7f8ab37adbfce77d31574980972760bb1949ed32c68",
        "stature_1.95/pre": "ec92913b61aa2b975ba7782c8030dde9ed8995759054b5a6998d29f1547f7ded",
        "stature_1.95/post": "3f917a0f175ba54bd861067c52d985977d2e6bcb10cfbdc5c1e87c11a4be95af",
        "stature_2.00/pre": "0af626362fa9816e573509b58612c1e165a4e53c9b0f1f00221c06e3c0ff99d7",
        "stature_2.00/post": "55a5ce65c2157c488af1deb3787aa9850ef58b83b178c234add7735c7a836d15",
    },
}


class TestSimulate:
    def test_every_committed_scenario_is_pinned(self):
        committed = {path.stem for path in SCENARIO_DIR.glob("*.yaml")}
        assert set(SCENARIO_DIGESTS) == committed

    @pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
    def test_committed_scenario_digests_are_pinned(self, tmp_path, capsys, name):
        out = tmp_path / name
        assert main(["simulate", "--scenario", str(SCENARIO_DIR / f"{name}.yaml"),
                     "--out", str(out)]) == 0
        digests = {manifest.parent.relative_to(out).as_posix():
                   json.loads(manifest.read_text())["digest"]
                   for manifest in out.rglob("manifest.json")}
        assert digests == SCENARIO_DIGESTS[name]
        printed = capsys.readouterr().out.splitlines()
        assert [line.rsplit("digest=", 1)[1] for line in printed] == [
            digest[:12] for digest in SCENARIO_DIGESTS[name].values()]

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

    def test_self_comparison_zero_deltas(self, run_dir, tmp_path):
        out = tmp_path / "self"
        assert main(["eval-rula", "--recording-pre", str(run_dir / "pre"),
                     "--recording-post", str(run_dir / "pre"),
                     "--out", str(out)]) == 0
        rows = (out / "area_means.csv").read_text().splitlines()[1:]
        for row in rows:
            _, pre, post, improvement = row.split(",")
            assert pre == post
            assert float(improvement) == 0.0

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
