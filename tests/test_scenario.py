import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

from ergofusion.cameras import StereoRig
from ergofusion.scenario import MAX_STATURES, ScenarioError, load_scenario, parse_scenario
from ergofusion.skeleton import SEGMENT_RATIOS, STATURE_RANGE, build_skeleton

from helpers import committed_data

# The committed handover task, named for these tests, with another seed,
# a noisier S3 and no RULA adjustments.
VALID = committed_data(name="unit", seed=3, noise_sigma=[0.001, 0.001, 0.002],
                       adjustments={})


STATURE_MM = tuple(round(1000 * limit) for limit in STATURE_RANGE)


def make(**overrides):
    data = yaml.safe_load(yaml.safe_dump(VALID))
    data.update(overrides)
    return data


class TestParseScenario:
    def test_valid_config(self):
        config = parse_scenario(make())
        assert config.stature == 1.75
        assert config.seed == 3
        assert len(config.rigs) == 3
        assert config.script().n_frames == 100
        assert [r.noise_sigma for r in config.rigs] == [0.001, 0.001, 0.002]

    def test_stature_grid_expansion(self):
        config = parse_scenario(make(stature={"start": 1.50, "stop": 2.00,
                                              "step": 0.05}))
        assert len(config.statures) == 11
        assert config.statures[0] == 1.50
        assert config.statures[-1] == 2.00
        singles = config.expand_statures()
        assert [c.stature for c in singles] == list(config.statures)

    @pytest.mark.parametrize("grid, statures", [
        ({"start": 1.5, "stop": 2.0, "step": 0.3}, (1.5, 1.8)),
        # Both ends in range: a grid running past stop would reach 2.3.
        ({"start": 1.9, "stop": 2.2, "step": 0.2}, (1.9, 2.1)),
    ])
    def test_stature_grid_ends_at_or_below_stop(self, grid, statures):
        assert parse_scenario(make(stature=grid)).statures == statures

    # Grids in whole millimeters within the supported stature range.
    @given(start=st.integers(*STATURE_MM), span=st.integers(0, 1000),
           step=st.integers(1, 1000))
    def test_generated_grids_step_from_start_to_at_most_stop(self, start, span, step):
        stop = min(start + span, STATURE_MM[1])
        start_m, stop_m, step_m = start / 1000, stop / 1000, step / 1000
        statures = parse_scenario(make(stature={"start": start_m, "stop": stop_m,
                                                "step": step_m})).statures
        assert statures[0] == start_m
        assert all(start_m <= s <= stop_m for s in statures)
        np.testing.assert_allclose(np.diff(statures), step_m, rtol=0, atol=1e-12)
        # The last value is the largest start + i * step not above stop.
        assert len(statures) == (stop - start) // step + 1

    def test_stature_list(self):
        config = parse_scenario(make(stature=[1.6, 1.8]))
        assert config.statures == (1.6, 1.8)

    def test_a_grid_may_step_every_millimetre_of_the_range(self):
        lo, hi = STATURE_RANGE
        statures = parse_scenario(make(stature={"start": lo, "stop": hi,
                                                "step": 0.001})).statures
        assert len(statures) == MAX_STATURES == 1001

    @pytest.mark.parametrize("step", [0.0009, 1e-05, 1e-09, 5e-324])
    def test_a_finer_grid_is_refused_before_any_value_is_built(self, step):
        data = make(stature={"start": 1.2, "stop": 2.2, "step": step})
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError) as refused:
                parse_scenario(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The message is matched once tracing stops: compiling the pattern can
        # grow the re module's cache, which is no part of parsing.
        refused.match(r"^stature grid: 1.2 to 2.2 in steps of .* has more than 1001 values$")
        # Parsing the 1 001 values of the millimetre grid peaks at about 50 KiB.
        assert peak < 8 * 1024, peak

    def test_missing_required_fields_named(self):
        for field in ("stature", "delivery", "rigs", "motion"):
            data = make()
            del data[field]
            with pytest.raises(ScenarioError, match=field):
                parse_scenario(data)

    def test_missing_rig_position_named(self):
        data = make()
        del data["rigs"][1]["position"]
        with pytest.raises(ScenarioError, match="position"):
            parse_scenario(data)

    def test_duplicate_rig_ids_rejected(self):
        data = make()
        data["rigs"][1]["id"] = "S1"
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(data)

    # A ',' splits a stream row, a newline or another separator that
    # str.splitlines splits on splits a line; a non-string is no id.
    @pytest.mark.parametrize("rig_id", ["S,2", "S\n2", "S\x1c2", 5],
                             ids=["comma", "newline", "file-separator", "int"])
    def test_rig_id_the_streams_cannot_hold_rejected(self, rig_id):
        data = make()
        data["rigs"][1]["id"] = rig_id
        with pytest.raises(ScenarioError, match=r"rigs\[1\]: id must be a string"):
            parse_scenario(data)

    def test_unusual_printable_rig_id_accepted(self):
        data = make()
        data["rigs"][1]["id"] = "S 1-\u00fc"
        assert [r.id for r in parse_scenario(data).rigs] == ["S1", "S 1-\u00fc", "S3"]

    def test_rig_count_bounds(self):
        data = make(rigs=[])
        with pytest.raises(ScenarioError):
            parse_scenario(data)
        many = make()
        many["rigs"] = [dict(VALID["rigs"][0], id=f"S{i}") for i in range(9)]
        with pytest.raises(ScenarioError, match="between 1 and 8"):
            parse_scenario(many)

    def test_single_rig_allowed(self):
        data = make()
        data["rigs"] = [VALID["rigs"][0]]
        assert len(parse_scenario(data).rigs) == 1

    def test_stature_out_of_range(self):
        with pytest.raises(ScenarioError, match="stature"):
            parse_scenario(make(stature=2.6))

    def test_negative_noise_rejected(self):
        data = make()
        data["rigs"][0]["noise_sigma"] = -0.1
        with pytest.raises(ScenarioError, match="noise_sigma"):
            parse_scenario(data)

    def test_warmup_too_short_for_adaptation(self):
        with pytest.raises(ScenarioError, match="warmup"):
            parse_scenario(make(warmup=0.5))

    def test_unknown_adjustment_rejected(self):
        with pytest.raises(ScenarioError, match="adjustments"):
            parse_scenario(make(adjustments={"grip": 1}))

    def test_bad_motion_target_rejected(self):
        data = make()
        data["motion"][0]["target"] = "conveyor"
        with pytest.raises(ScenarioError, match="target"):
            parse_scenario(data)

    def test_rig_that_cannot_be_built_is_rejected_naming_it(self):
        data = make()
        # Finite, but the camera translation -R c overflows.
        data["rigs"][0] = {"id": "S1", "position": [1.7e308, 1.7e308, 0.0],
                           "rotation": [0.0, 0.0, 0.5], "baseline": 0.5}
        with np.errstate(over="ignore"), pytest.raises(
                ScenarioError, match="^rig S1: camera S1.L translation contains non-finite"):
            parse_scenario(data)

    def test_rotation_and_look_at_are_exclusive(self):
        data = make()
        data["rigs"][0]["rotation"] = [0.0, 0.0, 0.0]
        with pytest.raises(ScenarioError, match="not both"):
            parse_scenario(data)


class TestStanceResolution:
    def test_auto_stance_aligns_working_shoulder(self):
        config = parse_scenario(make())
        for stature in (1.5, 1.75, 2.0):
            stance = config.resolve_stance(stature)
            profile = build_skeleton(stature)
            shoulder_y = stance[1] - SEGMENT_RATIOS["shoulder_width"] / 2.0 * stature
            assert abs(shoulder_y - config.delivery[1]) < 1e-12
            forward = config.delivery[0] - stance[0]
            assert abs(forward - 0.275 * stature) < 1e-12
            assert profile.arm_reach > forward * 0.6  # comfortably reachable

    def test_explicit_stance_passthrough(self):
        config = parse_scenario(make(stance=[0.1, 0.2, 0.0]))
        np.testing.assert_array_equal(config.resolve_stance(1.75), [0.1, 0.2, 0.0])


class TestSerialization:
    def test_to_dict_round_trips(self):
        data = make()
        # S2 given by an axis-angle rotation and a full relative pose.
        data["rigs"][1] = {"id": "S2", "position": [2.4, 0.0, 1.6],
                           "rotation": [1.2, 1.3, -1.1],
                           "relative_rotation": [0.0, 0.1, 0.0],
                           "relative_translation": [-0.5, 0.0, 0.01]}
        config = parse_scenario(data)
        written = config.to_dict()["rigs"]
        assert written[0] == {"id": "S1", "position": [2.1, -1.2, 1.6],
                              "look_at": [0.45, 0.0, 1.0],
                              "relative_rotation": [0.0, 0.0, 0.0],
                              "baseline": 0.5, "noise_sigma": 0.001}
        assert written[1] == {**data["rigs"][1], "noise_sigma": 0.0}
        again = parse_scenario(config.to_dict())
        assert again.statures == config.statures
        assert again.seed == config.seed
        assert len(again.rigs) == len(config.rigs)
        for a, b in zip(again.rigs, config.rigs):
            assert (a.id, a.pose, a.noise_sigma) == (b.id, b.pose, b.noise_sigma)
            for cam_a, cam_b in zip(a.rig.cameras, b.rig.cameras):
                assert cam_a.projection.tobytes() == cam_b.projection.tobytes()

    def test_rigs_are_built_once_per_load(self, monkeypatch):
        built = []
        from_left_pose = StereoRig.from_left_pose.__func__

        def counted(cls, rig_id, *pose):
            built.append(rig_id)
            return from_left_pose(cls, rig_id, *pose)

        monkeypatch.setattr(StereoRig, "from_left_pose", classmethod(counted))
        config = parse_scenario(committed_data("stature_grid"))
        assert built == ["S1", "S2", "S3"]
        rigs = config.build_rigs()
        for single in config.expand_statures():
            assert all(a is b for a, b in zip(single.build_rigs(), rigs))
        assert built == ["S1", "S2", "S3"]

    def test_load_scenario_from_file(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(make()))
        config = load_scenario(path)
        assert config.name == "unit"

    @pytest.mark.parametrize("text, value", [("1e-3", 1e-3), ("1e-05", 1e-05),
                                             ("1e+20", 1e+20), ("2.5E4", 2.5e4)])
    def test_exponent_floats_load_as_numbers(self, tmp_path, text, value):
        # YAML 1.1 reads these as str; json.dumps writes the first three forms.
        written = yaml.safe_dump(make())
        assert written.count("noise_sigma: 0.002\n") == 1
        path = tmp_path / "scenario.yaml"
        path.write_text(written.replace("noise_sigma: 0.002\n", f"noise_sigma: {text}\n"))
        assert load_scenario(path).rigs[2].noise_sigma == value
        path.write_text(written.replace("noise_sigma: 0.002\n", f"noise_sigma: '{text}'\n"))
        with pytest.raises(ScenarioError, match="^rig S3 noise_sigma: expected a number"):
            load_scenario(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.yaml")
