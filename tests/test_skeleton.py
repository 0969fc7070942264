import math

import numpy as np
import pytest

from ergofusion.cameras import StereoRig, look_at_rotation
from ergofusion.rula import compute_joint_angles
from ergofusion.skeleton import (ALL_LANDMARKS, AUX_LANDMARKS, FUSED_LANDMARKS,
                                 LANDMARK_INDEX, N_ALL, LandmarkId, MotionPhase,
                                 MotionScript, SEGMENT_RATIOS,
                                 SkeletonError, animate, build_skeleton,
                                 neck_flexion_for_target, observe,
                                 trunk_flexion_for_target)

STATURE = 1.75


def make_rig(position=(2.2, 0.0, 1.6), target=(0.0, 0.0, 1.0)):
    rot = look_at_rotation(position, target)
    return StereoRig.from_left_pose("S1", rot, position, np.eye(3),
                                    np.array([-0.5, 0.0, 0.0]))


def reach_script(duration=2.0):
    return MotionScript(phases=(
        MotionPhase("rest", 1.0, None),
        MotionPhase("reach", duration, "delivery"),
    ))


class TestLandmarkSet:
    def test_twelve_fused_plus_three_auxiliary(self):
        assert len(FUSED_LANDMARKS) == 12
        assert len(AUX_LANDMARKS) == 3
        assert len(ALL_LANDMARKS) == 15
        assert LandmarkId.HEAD_TOP in AUX_LANDMARKS


class TestBuildSkeleton:
    def test_vertical_chain_sums_to_stature(self):
        chain = ("ankle_to_knee", "knee_to_hip", "hip_to_shoulder",
                 "shoulder_to_head_top")
        assert abs(sum(SEGMENT_RATIOS[s] for s in chain) - 1.0) < 1e-12
        for stature in (1.2, 1.5, 1.75, 2.05, 2.2):
            profile = build_skeleton(stature)
            total = sum(profile.segment_lengths[s] for s in chain)
            assert abs(total - stature) < 1e-6

    def test_shoulder_height_for_reference_stature(self):
        profile = build_skeleton(STATURE)
        assert abs(profile.shoulder_height - 1.4315) < 1e-9
        assert abs(profile.hip_height - 0.530 * STATURE) < 1e-9
        assert abs(profile.segment_lengths["upper_arm"] - 0.186 * STATURE) < 1e-12
        assert abs(profile.segment_lengths["forearm"] - 0.146 * STATURE) < 1e-12

    @pytest.mark.parametrize("stature", [0.0, 1.19, 2.21, -1.0])
    def test_out_of_range_stature_rejected(self, stature):
        with pytest.raises(SkeletonError):
            build_skeleton(stature)


class TestMotionScript:
    def test_zero_duration_script_is_empty(self):
        script = MotionScript(phases=())
        assert script.n_frames == 0
        xyz, reach_ok = animate(build_skeleton(STATURE), script, np.zeros(3))
        assert xyz.shape == (0, N_ALL, 3) and reach_ok.shape == (0,)

    def test_frame_count_rounds_down(self):
        script = MotionScript(phases=(MotionPhase("rest", 1.26, None),))
        assert script.n_frames == 12

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(SkeletonError):
            MotionPhase("bad", 0.0, None)


class TestAnimate:
    def test_reachable_target_hit_at_phase_end(self):
        profile = build_skeleton(STATURE)
        shoulder_z = profile.shoulder_height
        target = np.array([0.30, -profile.segment_lengths["shoulder_width"] / 2.0,
                           shoulder_z])
        xyz, reach_ok = animate(profile, reach_script(), target)
        wrist = xyz[-1, LANDMARK_INDEX[LandmarkId.RIGHT_WRIST]]
        assert np.linalg.norm(wrist - target) < 1e-6
        assert reach_ok[-1]

    def test_shoulder_height_reach_is_comfortable(self):
        profile = build_skeleton(STATURE)
        sh_y = -profile.segment_lengths["shoulder_width"] / 2.0
        target = np.array([0.25, sh_y, profile.shoulder_height])
        xyz, _ = animate(profile, reach_script(), target)
        angles = compute_joint_angles(xyz[-1])
        assert angles.upper_arm_right < 45.0
        assert abs(angles.trunk) < 5.0

    def test_knee_height_target_bends_trunk(self):
        profile = build_skeleton(STATURE)
        target = np.array([0.35, 0.0, profile.knee_height])
        xyz, _ = animate(profile, reach_script(), target)
        angles = compute_joint_angles(xyz[-1])
        assert 20.0 < angles.trunk <= 60.0

    def test_unreachable_target_saturates_and_flags(self):
        profile = build_skeleton(STATURE)
        target = np.array([2.0, 0.0, profile.shoulder_height])
        xyz, reach_ok = animate(profile, reach_script(), target)
        assert not reach_ok[-1]
        extension = np.linalg.norm(xyz[-1, LANDMARK_INDEX[LandmarkId.RIGHT_WRIST]]
                                   - xyz[-1, LANDMARK_INDEX[LandmarkId.RIGHT_SHOULDER]])
        assert abs(extension - profile.arm_reach) < 1e-9

    def test_bone_lengths_constant_across_frames(self):
        profile = build_skeleton(1.62)
        target = np.array([0.35, -0.2, profile.knee_height])  # engages trunk+neck
        xyz, _ = animate(profile, reach_script(3.0), target)
        pairs = [
            (LandmarkId.LEFT_SHOULDER, LandmarkId.LEFT_ELBOW),
            (LandmarkId.LEFT_ELBOW, LandmarkId.LEFT_WRIST),
            (LandmarkId.RIGHT_SHOULDER, LandmarkId.RIGHT_ELBOW),
            (LandmarkId.RIGHT_ELBOW, LandmarkId.RIGHT_WRIST),
            (LandmarkId.LEFT_HIP, LandmarkId.LEFT_KNEE),
            (LandmarkId.LEFT_KNEE, LandmarkId.LEFT_ANKLE),
            (LandmarkId.RIGHT_HIP, LandmarkId.RIGHT_KNEE),
            (LandmarkId.RIGHT_KNEE, LandmarkId.RIGHT_ANKLE),
            (LandmarkId.LEFT_SHOULDER, LandmarkId.RIGHT_SHOULDER),
            (LandmarkId.LEFT_HIP, LandmarkId.RIGHT_HIP),
            (LandmarkId.NOSE, LandmarkId.MID_EAR),
        ]
        lengths = np.array([
            [np.linalg.norm(f[LANDMARK_INDEX[a]] - f[LANDMARK_INDEX[b]]) for a, b in pairs]
            for f in xyz])
        assert np.max(np.abs(lengths - lengths[0])) < 1e-9

    def test_read_only_arrays_with_the_lower_body_fixed(self):
        profile = build_skeleton(1.62)
        target = np.array([0.35, -0.2, profile.knee_height])  # engages trunk+neck
        script = reach_script(3.0)
        xyz, reach_ok = animate(profile, script, target)
        assert xyz.shape == (script.n_frames, N_ALL, 3)
        assert reach_ok.shape == (script.n_frames,) and reach_ok.dtype == bool
        assert not xyz.flags.writeable and not reach_ok.flags.writeable
        # The feet stay put, so hips, knees and ankles are the same bits
        # in every frame, while the torso moves.
        lower = [LANDMARK_INDEX[lm] for lm in (
            LandmarkId.LEFT_HIP, LandmarkId.RIGHT_HIP, LandmarkId.LEFT_KNEE,
            LandmarkId.RIGHT_KNEE, LandmarkId.LEFT_ANKLE, LandmarkId.RIGHT_ANKLE)]
        assert xyz[:, lower].tobytes() == np.tile(xyz[0, lower], (len(xyz), 1, 1)).tobytes()
        assert np.ptp(xyz[:, LANDMARK_INDEX[LandmarkId.LEFT_SHOULDER], 0]) > 0.1
        assert xyz[0, LANDMARK_INDEX[LandmarkId.LEFT_ANKLE]].tolist() == \
            [0.0, profile.segment_lengths["hip_width"] / 2.0, 0.0]

    def test_deterministic_generation(self):
        profile = build_skeleton(1.9)
        target = np.array([0.4, -0.25, 1.2])
        a, b = (animate(profile, reach_script(), target)[0] for _ in range(2))
        np.testing.assert_array_equal(a, b)

    def test_unknown_symbolic_target_rejected(self):
        script = MotionScript(phases=(MotionPhase("x", 1.0, "warehouse"),))
        with pytest.raises(SkeletonError):
            animate(build_skeleton(STATURE), script, np.zeros(3))


class TestComfortRules:
    def test_trunk_engages_only_below_hip(self):
        profile = build_skeleton(STATURE)
        hip = profile.hip_height
        assert trunk_flexion_for_target(profile, hip + 0.1) == 0.0
        assert trunk_flexion_for_target(profile, hip) == 0.0
        assert trunk_flexion_for_target(profile, hip - 0.2) > 0.0
        assert trunk_flexion_for_target(profile, 0.0) == 60.0

    def test_neck_steps_with_distance_from_shoulder(self):
        profile = build_skeleton(STATURE)
        sh = profile.shoulder_height
        assert neck_flexion_for_target(profile, sh) == 0.0
        assert neck_flexion_for_target(profile, sh - 0.04) == 15.0
        assert neck_flexion_for_target(profile, sh + 0.04) == 15.0
        assert neck_flexion_for_target(profile, sh - 0.3) == 25.0


class TestCapture:
    """Camera capture of one frame through ``observe``."""

    def _frame(self):
        profile = build_skeleton(STATURE)
        return animate(profile, MotionScript(phases=(MotionPhase("rest", 0.5, None),)),
                       np.zeros(3))[0][0]

    def test_zero_noise_equals_projection(self):
        frame = self._frame()
        for cam in make_rig().cameras:
            obs = observe(cam, frame, 0.0)
            uv, depth = cam.project_many(frame)
            assert obs.visible.all()
            np.testing.assert_array_equal(obs.uv, uv)

    def test_noise_statistics(self):
        frame = self._frame()
        rig = make_rig()
        cam = rig.left
        clean, _ = cam.project_many(frame)
        rng = np.random.default_rng(123)
        sigma = 0.002
        idx = LANDMARK_INDEX[LandmarkId.RIGHT_WRIST]
        samples = np.array([observe(cam, frame, sigma, rng).uv[idx]
                            for _ in range(10_000)])
        residuals = samples - clean[idx]
        std = residuals.std(axis=0)
        assert np.all(np.abs(std - sigma) < 0.05 * sigma)
        assert np.all(np.abs(residuals.mean(axis=0)) < 5.0 * sigma / math.sqrt(10_000))

    def test_landmark_behind_camera_not_visible(self):
        frame = self._frame()
        behind = frame.copy()
        behind[LANDMARK_INDEX[LandmarkId.LEFT_WRIST]] = [10.0, 0.0, 1.0]  # behind the rig
        for cam in make_rig().cameras:
            cam_obs = observe(cam, behind, 0.0)
            assert not cam_obs.visible[LANDMARK_INDEX[LandmarkId.LEFT_WRIST]]
            assert np.isnan(cam_obs.uv[LANDMARK_INDEX[LandmarkId.LEFT_WRIST]]).all()
            assert cam_obs.visible[LANDMARK_INDEX[LandmarkId.RIGHT_WRIST]]

    def test_seeded_capture_is_reproducible(self):
        frame = self._frame()
        for cam in make_rig().cameras:
            a = observe(cam, frame, 0.003, np.random.default_rng(9))
            b = observe(cam, frame, 0.003, np.random.default_rng(9))
            np.testing.assert_array_equal(a.uv, b.uv)

    def test_negative_sigma_rejected(self):
        with pytest.raises(SkeletonError):
            observe(make_rig().left, self._frame(), -0.1)

    def test_noise_without_a_seeded_rng_rejected(self):
        with pytest.raises(SkeletonError, match="seeded rng"):
            observe(make_rig().left, self._frame(), 0.001)
