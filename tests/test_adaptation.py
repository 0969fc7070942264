import numpy as np
import pytest

from ergofusion.adaptation import (AdaptationError, InsufficientDataError,
                                   RobotDeliveryParams, SHOULDER_RATIO,
                                   SingleAdaptationViolation, adapt_robot,
                                   classify_height, estimate_height)
from ergofusion.pipeline import run_scenario
from ergofusion.skeleton import (MotionPhase, MotionScript, animate,
                                 build_skeleton)

from helpers import committed_scenario


def upright_frames(stature=1.75, seconds=3.0):
    script = MotionScript(phases=(MotionPhase("rest", seconds, None),))
    return animate(build_skeleton(stature), script, np.zeros(3))[0]


class TestClassifyHeight:
    @pytest.mark.parametrize("height,expected", [
        (1.60, "c1"), (1.679, "c1"),
        (1.68, "c2"), (1.75, "c2"), (1.82, "c2"),
        (1.8201, "c3"), (1.83, "c3"), (1.95, "c3")])
    def test_band_membership(self, height, expected):
        assert classify_height(height).class_id == expected

    def test_every_positive_height_has_exactly_one_class(self):
        rng = np.random.default_rng(0)
        for h in rng.uniform(0.5, 2.5, size=500):
            cls = classify_height(float(h))
            assert (h < 1.68) == (cls.class_id == "c1")
            assert (1.68 <= h <= 1.82) == (cls.class_id == "c2")
            assert (h > 1.82) == (cls.class_id == "c3")

    def test_nonpositive_height_rejected(self):
        with pytest.raises(AdaptationError):
            classify_height(0.0)
        with pytest.raises(AdaptationError):
            classify_height(-1.7)


class TestEstimateHeight:
    def test_noiseless_upright_frames_recover_stature(self):
        estimate = estimate_height(upright_frames(1.75))
        assert abs(estimate - 1.75) < 1e-6

    def test_estimate_from_noisy_pipeline_run(self):
        config = committed_scenario(stature=1.75, noise_sigma=0.002)
        recording = run_scenario(config, seed=11)
        estimated = recording.segments["pre"].manifest["adaptation"]["estimated_height"]
        assert abs(estimated - 1.75) < 0.02

    def test_too_few_upright_frames_rejected(self):
        with pytest.raises(InsufficientDataError):
            estimate_height(upright_frames()[:9])

    def test_bent_over_frames_rejected(self):
        profile = build_skeleton(1.75)
        # A fast reach keeps the trunk past 10 degrees from the second
        # frame on; no upright window exists.
        script = MotionScript(phases=(
            MotionPhase("reach", 0.2, (0.35, 0.0, 0.2)),
            MotionPhase("hold", 2.8, (0.35, 0.0, 0.2))))
        xyz, _ = animate(profile, script, np.zeros(3))
        with pytest.raises(InsufficientDataError):
            estimate_height(xyz)


class TestAdaptRobot:
    def default(self):
        return RobotDeliveryParams(np.array([0.9, 0.1, 1.30]))

    def test_c2_delivery_height(self):
        params = adapt_robot(classify_height(1.75), self.default())
        assert abs(params.delivery_point[2] - SHOULDER_RATIO * 1.75) < 1e-12
        assert abs(params.delivery_point[2] - 1.4315) < 1e-9

    def test_c1_delivery_height(self):
        params = adapt_robot(classify_height(1.60), self.default())
        assert abs(params.delivery_point[2] - 1.3088) < 1e-9

    def test_c3_delivery_height(self):
        params = adapt_robot(classify_height(1.90), self.default())
        assert abs(params.delivery_point[2] - SHOULDER_RATIO * 1.90) < 1e-12

    def test_horizontal_placement_unchanged(self):
        default = self.default()
        params = adapt_robot(classify_height(1.9), default)
        np.testing.assert_array_equal(params.delivery_point[:2],
                                      default.delivery_point[:2])
        assert params.adapted

    def test_second_adaptation_rejected(self):
        adapted = adapt_robot(classify_height(1.75), self.default())
        with pytest.raises(SingleAdaptationViolation):
            adapt_robot(classify_height(1.75), adapted)

    def test_unadapted_params_keep_scenario_default(self):
        default = self.default()
        assert not default.adapted
        np.testing.assert_array_equal(default.delivery_point, [0.9, 0.1, 1.30])
