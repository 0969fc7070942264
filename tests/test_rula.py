import dataclasses
import math

import numpy as np
import pytest

from ergofusion.rula import (IncompleteFrameError, JointAngles,
                             PostureState, RulaAdjustments, RulaError,
                             STRESS_BANDS, STRESS_JOINTS, TABLE_A, TABLE_B, TABLE_C,
                             classify_posture, compute_joint_angles,
                             joint_stress_heatmap, lower_arm_band, neck_band,
                             rula_score, trunk_band, upper_arm_band, wrist_band)
from ergofusion.skeleton import (LANDMARK_INDEX, N_FUSED, LandmarkId, MotionPhase,
                                 MotionScript, animate, build_skeleton)


def angles(**overrides) -> JointAngles:
    base = dict(upper_arm_left=10.0, upper_arm_right=10.0,
                lower_arm_left=80.0, lower_arm_right=80.0,
                wrist_left=0.0, wrist_right=0.0,
                neck=5.0, trunk=0.0, legs_supported=True)
    base.update(overrides)
    return JointAngles(**base)


def rest_frame(stature=1.75):
    script = MotionScript(phases=(MotionPhase("rest", 0.5, None),))
    return animate(build_skeleton(stature), script, np.zeros(3))[0][0]


class TestWorksheetTables:
    def test_table_shapes(self):
        assert TABLE_A.shape == (6, 3, 4, 2)
        assert TABLE_B.shape == (6, 6, 2)
        assert TABLE_C.shape == (8, 7)

    def test_tables_monotone_along_each_axis(self):
        for axis in range(TABLE_A.ndim):
            assert np.all(np.diff(TABLE_A, axis=axis) >= 0)
        for axis in range(TABLE_B.ndim):
            assert np.all(np.diff(TABLE_B, axis=axis) >= 0)
        for axis in range(TABLE_C.ndim):
            assert np.all(np.diff(TABLE_C, axis=axis) >= 0)

    def test_grand_range(self):
        assert TABLE_C.min() == 1 and TABLE_C.max() == 7


class TestHandEvaluatedCases:
    def test_all_minimal_bands_score_one(self):
        result = rula_score(angles())
        assert (result.score_upper_arm, result.score_lower_arm,
                result.score_wrist, result.score_wrist_twist) == (1, 1, 1, 1)
        assert (result.score_neck, result.score_trunk, result.score_legs) == (1, 1, 1)
        assert result.table_a == 1 and result.table_b == 1
        assert result.grand == 1
        assert result.action_level == 1

    def test_mid_severity_worksheet_case(self):
        # Upper arm 50 (3), lower arm 80 (1), wrist neutral (1), twist 1,
        # neck 15 (2), trunk 25 (3), legs supported (1):
        # A = 3, B = 4, grand = 4.
        result = rula_score(angles(upper_arm_left=50.0, upper_arm_right=50.0,
                                   neck=15.0, trunk=25.0))
        assert result.table_a == 3
        assert result.table_b == 4
        assert result.grand == 4
        assert result.action_level == 2

    def test_worst_bands_reach_seven(self):
        # Upper arm 120 (4), lower arm 30 (2), wrist 20 (3), twist 2,
        # neck in extension (4), trunk 70 (4), legs unsupported (2):
        # A = 5, B = 7, grand = 7.
        result = rula_score(
            angles(upper_arm_left=120.0, upper_arm_right=120.0,
                   lower_arm_left=30.0, lower_arm_right=30.0,
                   wrist_left=20.0, wrist_right=20.0,
                   neck=-10.0, trunk=70.0, legs_supported=False),
            RulaAdjustments(wrist_twist=2))
        assert result.table_a == 5
        assert result.table_b == 7
        assert result.grand == 7
        assert result.action_level == 4

    def test_muscle_and_force_adjustments_add_in(self):
        adj = RulaAdjustments(muscle_use_a=1, force_a=2, muscle_use_b=1, force_b=1)
        result = rula_score(angles(), adj)
        assert result.wrist_arm_score == result.table_a + 3
        assert result.neck_trunk_leg_score == result.table_b + 2
        assert result.grand == int(TABLE_C[min(result.wrist_arm_score, 8) - 1,
                                           min(result.neck_trunk_leg_score, 7) - 1])


class TestSideHandling:
    def test_sides_scored_independently_and_max_reported(self):
        asym = angles(upper_arm_left=100.0, upper_arm_right=10.0)
        left_only = angles(upper_arm_left=100.0, upper_arm_right=100.0)
        right_only = angles()
        assert rula_score(asym).grand == max(rula_score(left_only).grand,
                                             rula_score(right_only).grand)
        assert rula_score(asym).side == "left"

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            ua_l, ua_r = rng.uniform(0, 140, size=2)
            la_l, la_r = rng.uniform(0, 160, size=2)
            wr_l, wr_r = rng.uniform(0, 40, size=2)
            a = angles(upper_arm_left=ua_l, upper_arm_right=ua_r,
                       lower_arm_left=la_l, lower_arm_right=la_r,
                       wrist_left=wr_l, wrist_right=wr_r,
                       neck=rng.uniform(0, 40), trunk=rng.uniform(0, 80),
                       legs_supported=bool(rng.integers(2)))
            mirrored = angles(upper_arm_left=a.upper_arm_right,
                              upper_arm_right=a.upper_arm_left,
                              lower_arm_left=a.lower_arm_right,
                              lower_arm_right=a.lower_arm_left,
                              wrist_left=a.wrist_right, wrist_right=a.wrist_left,
                              neck=a.neck, trunk=a.trunk,
                              legs_supported=a.legs_supported)
            assert rula_score(a).grand == rula_score(mirrored).grand


class TestMonotonicity:
    FIELDS = ("upper_arm_left", "upper_arm_right", "lower_arm_left",
              "lower_arm_right", "wrist_left", "wrist_right", "neck", "trunk")
    RANGES = {"upper_arm_left": 140.0, "upper_arm_right": 140.0,
              "lower_arm_left": 160.0, "lower_arm_right": 160.0,
              "wrist_left": 40.0, "wrist_right": 40.0,
              "neck": 40.0, "trunk": 80.0}

    def test_increasing_any_flexion_never_lowers_grand(self, n_samples=10_000):
        # Over the flexion domain (angles >= 0); extension is a separate
        # categorical band and deliberately out of scope here.
        rng = np.random.default_rng(1)
        for _ in range(n_samples):
            base = {f: rng.uniform(0.0, self.RANGES[f]) for f in self.FIELDS}
            base["legs_supported"] = bool(rng.integers(2))
            a = angles(**base)
            field = self.FIELDS[rng.integers(len(self.FIELDS))]
            bumped = dict(base)
            bumped[field] = min(175.0, base[field] + rng.uniform(0.0, 60.0))
            b = angles(**bumped)
            assert rula_score(b).grand >= rula_score(a).grand

    def test_lower_arm_band_is_unimodal_not_monotone(self):
        # The elbow band prefers mid flexion; both extremes score 2.
        assert lower_arm_band(0.0) == 2
        assert lower_arm_band(80.0) == 1
        assert lower_arm_band(130.0) == 2


class TestBands:
    @pytest.mark.parametrize("angle,score", [
        (0.0, 1), (20.0, 1), (-15.0, 1), (-25.0, 2), (30.0, 2), (45.0, 2),
        (60.0, 3), (90.0, 3), (91.0, 4)])
    def test_upper_arm_band(self, angle, score):
        assert upper_arm_band(angle) == score

    @pytest.mark.parametrize("angle,score", [
        (0.0, 1), (0.5, 1), (10.0, 2), (15.0, 2), (16.0, 3)])
    def test_wrist_band(self, angle, score):
        assert wrist_band(angle) == score

    @pytest.mark.parametrize("angle,score", [
        (0.0, 1), (-2.0, 1), (10.0, 1), (15.0, 2), (25.0, 3), (-10.0, 4)])
    def test_neck_band(self, angle, score):
        assert neck_band(angle) == score

    @pytest.mark.parametrize("angle,score", [
        (0.0, 1), (1.0, 1), (10.0, 2), (-10.0, 2), (30.0, 3), (61.0, 4)])
    def test_trunk_band(self, angle, score):
        assert trunk_band(angle) == score


class TestClassifyPosture:
    @pytest.mark.parametrize("grand_angles,state,message", [
        (dict(), PostureState.SAFE, "posture acceptable"),
        (dict(upper_arm_left=50.0, upper_arm_right=50.0, neck=15.0, trunk=25.0),
         PostureState.WARN, "posture may need investigation"),
        (dict(upper_arm_left=120.0, upper_arm_right=120.0, lower_arm_left=30.0,
              lower_arm_right=30.0, wrist_left=20.0, wrist_right=20.0,
              neck=-10.0, trunk=70.0, legs_supported=False),
         PostureState.UNSAFE, "change posture now")])
    def test_bands_and_messages(self, grand_angles, state, message):
        status = classify_posture(rula_score(angles(**grand_angles)))
        assert status.status == state
        assert status.message == message

    def test_status_constant_within_each_band(self):
        seen = {}
        rng = np.random.default_rng(2)
        for _ in range(2000):
            a = angles(upper_arm_left=rng.uniform(0, 140),
                       upper_arm_right=rng.uniform(0, 140),
                       neck=rng.uniform(0, 40), trunk=rng.uniform(0, 80),
                       legs_supported=bool(rng.integers(2)))
            b = rula_score(a)
            state = classify_posture(b).status
            seen.setdefault(b.grand, state)
            assert seen[b.grand] == state


def stress_row(**overrides) -> list[float]:
    """One heatmap input row: ``angles(**overrides)`` in ``STRESS_JOINTS`` order."""
    joint_angles = angles(**overrides)
    return [getattr(joint_angles, joint) for joint in STRESS_JOINTS]


class TestJointStressHeatmap:
    def test_neutral_pose_is_zero(self):
        joints, stress = joint_stress_heatmap([stress_row(upper_arm_left=0.0,
                                                          upper_arm_right=0.0,
                                                          lower_arm_left=0.0,
                                                          lower_arm_right=0.0,
                                                          neck=0.0, trunk=0.0)])
        assert joints == STRESS_JOINTS
        np.testing.assert_array_equal(stress, 0.0)

    def test_band_edges(self):
        _, stress = joint_stress_heatmap([stress_row(upper_arm_right=90.0)])
        assert stress[0, STRESS_JOINTS.index("upper_arm_right")] == 1.0
        _, stress = joint_stress_heatmap([stress_row(upper_arm_right=45.0)])
        assert stress[0, STRESS_JOINTS.index("upper_arm_right")] == 0.5
        _, stress = joint_stress_heatmap([stress_row(upper_arm_right=200.0 - 80.0)])
        assert stress[0, STRESS_JOINTS.index("upper_arm_right")] == 1.0

    def test_empty_sequence_rejected(self):
        with pytest.raises(RulaError):
            joint_stress_heatmap([])

    def test_equals_the_scalar_clip_bitwise(self):
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.uniform(-180.0, 180.0, 400),
                                 [-180.0, -0.0, 0.0, 7.5, 15.0, 20.0, 60.0, 180.0]])
        angle_array = rng.choice(values, size=(60, len(STRESS_JOINTS)))
        _, stress = joint_stress_heatmap(angle_array)
        expected = [[min(1.0, max(0.0, (v - STRESS_BANDS[j][0])
                                  / (STRESS_BANDS[j][1] - STRESS_BANDS[j][0])))
                     for j, v in zip(STRESS_JOINTS, row)] for row in angle_array.tolist()]
        assert stress.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 180.5, -200.0])
    def test_out_of_range_angle_rejected_as_joint_angles_rejects_it(self, value):
        with pytest.raises(RulaError) as expected:
            angles(neck=value)
        rows = [stress_row(), stress_row()]
        rows[1][STRESS_JOINTS.index("neck")] = value
        with pytest.raises(RulaError) as got:
            joint_stress_heatmap(rows)
        assert str(got.value) == str(expected.value)


def reference_joint_angles(xyz) -> JointAngles:
    """``compute_joint_angles`` as first written, with np.linalg.norm and np.cross."""
    def at(lm: LandmarkId) -> np.ndarray:
        return xyz[LANDMARK_INDEX[lm]]

    def angle_between(a, b) -> float:
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na < 1e-12 or nb < 1e-12:
            return 0.0
        c = float(a @ b) / (na * nb)
        return math.degrees(math.acos(min(1.0, max(-1.0, c))))

    hip_mid = (at(LandmarkId.LEFT_HIP) + at(LandmarkId.RIGHT_HIP)) / 2.0
    sho_mid = (at(LandmarkId.LEFT_SHOULDER) + at(LandmarkId.RIGHT_SHOULDER)) / 2.0
    trunk_vec = sho_mid - hip_mid
    up = np.array([0.0, 0.0, 1.0])
    across = at(LandmarkId.LEFT_HIP) - at(LandmarkId.RIGHT_HIP)
    forward = np.cross(across, up)
    fn = np.linalg.norm(forward)
    forward = forward / fn if fn > 1e-12 else np.array([1.0, 0.0, 0.0])
    trunk = angle_between(trunk_vec, up)
    if trunk_vec @ forward < 0:
        trunk = -trunk
    aux_present = bool(np.all(np.isfinite(at(LandmarkId.MID_EAR))))
    if aux_present:
        neck_vec = at(LandmarkId.MID_EAR) - sho_mid
        neck = angle_between(neck_vec, trunk_vec)
        tn = trunk_vec / max(np.linalg.norm(trunk_vec), 1e-12)
        if (neck_vec - (neck_vec @ tn) * tn) @ forward < 0:
            neck = -neck
    else:
        neck = 0.0
    trunk_down = -trunk_vec

    def upper_arm(sho, elb) -> float:
        vec = at(elb) - at(sho)
        ang = angle_between(vec, trunk_down)
        return ang if vec @ forward >= 0 else -ang

    def lower_arm(sho, elb, wri) -> float:
        return 180.0 - angle_between(at(sho) - at(elb), at(wri) - at(elb))

    legs = bool(at(LandmarkId.LEFT_ANKLE)[2] <= 0.05
                and at(LandmarkId.RIGHT_ANKLE)[2] <= 0.05)
    return JointAngles(
        upper_arm_left=upper_arm(LandmarkId.LEFT_SHOULDER, LandmarkId.LEFT_ELBOW),
        upper_arm_right=upper_arm(LandmarkId.RIGHT_SHOULDER, LandmarkId.RIGHT_ELBOW),
        lower_arm_left=lower_arm(LandmarkId.LEFT_SHOULDER, LandmarkId.LEFT_ELBOW,
                                 LandmarkId.LEFT_WRIST),
        lower_arm_right=lower_arm(LandmarkId.RIGHT_SHOULDER, LandmarkId.RIGHT_ELBOW,
                                  LandmarkId.RIGHT_WRIST),
        wrist_left=0.0, wrist_right=0.0,
        neck=neck, trunk=trunk, legs_supported=legs, aux_present=aux_present)


class TestComputeJointAngles:
    def test_upright_rest_pose_has_zero_flexion(self):
        a = compute_joint_angles(rest_frame())
        for value in (a.upper_arm_left, a.upper_arm_right, a.lower_arm_left,
                      a.lower_arm_right, a.neck, a.trunk):
            assert abs(value) < 1e-6
        assert a.legs_supported and a.aux_present

    def test_horizontal_arm_is_ninety_degrees(self):
        xyz = rest_frame().copy()
        sho = xyz[LANDMARK_INDEX[LandmarkId.RIGHT_SHOULDER]]
        xyz[LANDMARK_INDEX[LandmarkId.RIGHT_ELBOW]] = sho + [0.3, 0.0, 0.0]
        xyz[LANDMARK_INDEX[LandmarkId.RIGHT_WRIST]] = sho + [0.55, 0.0, 0.0]
        a = compute_joint_angles(xyz)
        assert abs(a.upper_arm_right - 90.0) < 1e-6
        assert abs(a.lower_arm_right) < 1e-6

    def test_matches_direct_dot_product_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            profile = build_skeleton(float(rng.uniform(1.5, 2.0)))
            target = np.array([rng.uniform(0.2, 0.5), rng.uniform(-0.4, 0.1),
                               rng.uniform(0.3, 1.6)])
            script = MotionScript(phases=(MotionPhase("reach", 1.0, tuple(target)),))
            xyz = animate(profile, script, np.zeros(3))[0][-1]
            a = compute_joint_angles(xyz)

            def at(lm):
                return xyz[LANDMARK_INDEX[lm]]

            def ang(u, v):
                c = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
                return math.degrees(math.acos(max(-1.0, min(1.0, c))))

            hip_mid = (at(LandmarkId.LEFT_HIP) + at(LandmarkId.RIGHT_HIP)) / 2
            sho_mid = (at(LandmarkId.LEFT_SHOULDER) + at(LandmarkId.RIGHT_SHOULDER)) / 2
            trunk_vec = sho_mid - hip_mid
            assert abs(abs(a.trunk) - ang(trunk_vec, np.array([0.0, 0.0, 1.0]))) < 1e-9
            neck_vec = at(LandmarkId.MID_EAR) - sho_mid
            assert abs(abs(a.neck) - ang(neck_vec, trunk_vec)) < 1e-9
            ua = at(LandmarkId.RIGHT_ELBOW) - at(LandmarkId.RIGHT_SHOULDER)
            assert abs(abs(a.upper_arm_right) - ang(ua, -trunk_vec)) < 1e-9
            interior = ang(at(LandmarkId.RIGHT_SHOULDER) - at(LandmarkId.RIGHT_ELBOW),
                           at(LandmarkId.RIGHT_WRIST) - at(LandmarkId.RIGHT_ELBOW))
            assert abs(a.lower_arm_right - (180.0 - interior)) < 1e-9

    def test_missing_fused_landmark_reported_by_name(self):
        xyz = rest_frame().copy()
        xyz[LANDMARK_INDEX[LandmarkId.LEFT_KNEE]] = np.nan
        with pytest.raises(IncompleteFrameError, match="left_knee"):
            compute_joint_angles(xyz)

    def test_missing_auxiliary_flags_neck(self):
        xyz = rest_frame().copy()
        xyz[12:] = np.nan
        a = compute_joint_angles(xyz)
        assert a.neck == 0.0
        assert not a.aux_present

    def test_equals_the_norm_and_cross_reference_bit_for_bit(self):
        rng = np.random.default_rng(21)
        rest = rest_frame()
        hips = [LANDMARK_INDEX[LandmarkId.LEFT_HIP], LANDMARK_INDEX[LandmarkId.RIGHT_HIP]]
        shoulders = [LANDMARK_INDEX[LandmarkId.LEFT_SHOULDER],
                     LANDMARK_INDEX[LandmarkId.RIGHT_SHOULDER]]
        elbow, wrist, ear = (LANDMARK_INDEX[lm] for lm in (
            LandmarkId.RIGHT_ELBOW, LandmarkId.LEFT_WRIST, LandmarkId.MID_EAR))
        for i in range(12_000):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            spread = rng.choice([0.01, 0.3])
            xyz = scale * (rest + rng.normal(0.0, spread, size=rest.shape))
            case = i % 10
            if case == 1:
                xyz[N_FUSED:] = np.nan                  # no auxiliary rows
            elif case == 2:
                xyz[ear, rng.integers(3)] = np.nan      # a partly missing ear
            elif case == 3:
                xyz[elbow] = xyz[shoulders[1]]          # zero-length upper arm
            elif case == 4:
                xyz[wrist] = xyz[LANDMARK_INDEX[LandmarkId.LEFT_ELBOW]]
            elif case == 5:
                xyz[hips[0]] = xyz[hips[1]]             # no hip axis: fallback forward
            elif case == 6:
                xyz[hips[0], :2] = xyz[hips[1], :2]     # hip axis along up
            elif case == 7:
                xyz[shoulders] = xyz[hips]              # zero-length trunk
            elif case == 8:
                xyz[ear] = (xyz[shoulders[0]] + xyz[shoulders[1]]) / 2.0
            elif case == 9:
                xyz[elbow] = xyz[shoulders[1]] + 1e-13  # below the null threshold
            got = dataclasses.astuple(compute_joint_angles(xyz))
            want = dataclasses.astuple(reference_joint_angles(xyz))
            assert np.array(got, float).tobytes() == np.array(want, float).tobytes(), i

    def test_angle_bounds_enforced(self):
        with pytest.raises(RulaError):
            JointAngles(upper_arm_left=200.0, upper_arm_right=0.0,
                        lower_arm_left=0.0, lower_arm_right=0.0,
                        wrist_left=0.0, wrist_right=0.0, neck=0.0, trunk=0.0,
                        legs_supported=True)
