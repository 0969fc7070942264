import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

from ergofusion.scenario import ScenarioError, load_scenario, parse_scenario
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
