import numpy as np
import pytest
import yaml

from ergofusion.scenario import ScenarioError, load_scenario, parse_scenario
from ergofusion.skeleton import SEGMENT_RATIOS, build_skeleton

VALID = {
    "name": "unit",
    "stature": 1.75,
    "seed": 3,
    "warmup": 2.0,
    "adapt": True,
    "delivery": [0.9, 0.0, 1.4315],
    "motion": [
        {"name": "rest", "duration": 2.0, "target": "rest"},
        {"name": "reach", "duration": 2.0, "target": "delivery"},
        {"name": "hold", "duration": 4.0, "target": "delivery"},
        {"name": "return", "duration": 2.0, "target": "rest"},
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

    def test_stature_list(self):
        config = parse_scenario(make(stature=[1.6, 1.8]))
        assert config.statures == (1.6, 1.8)

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
        config = parse_scenario(make())
        again = parse_scenario(config.to_dict())
        assert again.statures == config.statures
        assert again.seed == config.seed
        assert len(again.rigs) == len(config.rigs)
        for a, b in zip(again.rigs, config.rigs):
            np.testing.assert_allclose(a.rotation, b.rotation, atol=1e-12)
            np.testing.assert_allclose(a.position, b.position, atol=1e-12)

    def test_load_scenario_from_file(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(make()))
        config = load_scenario(path)
        assert config.name == "unit"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.yaml")
