"""Joint-angle extraction and RULA scoring of fused 3D landmarks.

Scores follow the standard RULA worksheet: posture band scores for the
arm/wrist group combine through Table A, neck/trunk/legs through
Table B, and the two totals (plus muscle-use and force adjustments)
yield the grand score 1..7 through Table C. Left and right arms are
scored independently and the reported breakdown is the worse side.

The twelve-landmark set carries no hand landmarks, so wrist flexion
defaults to 0 (score 1) and wrist twist to 1; both can be overridden
through :class:`RulaAdjustments`.

Band edges applied to angles estimated from noisy fused landmarks need
small dead zones: an upright trunk and a level head measure as a few
tenths of a degree rather than exactly zero, so "upright" tolerates
``TRUNK_UPRIGHT_DEG`` and neck/trunk extension starts beyond
``EXTENSION_DEADBAND_DEG`` of backward lean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .skeleton import LandmarkId, LANDMARK_INDEX, LANDMARK_NAMES, N_ALL, N_FUSED

# Posture scores combine through the standard worksheet tables.
# TABLE_A[upper_arm-1][lower_arm-1][wrist-1][wrist_twist-1]
TABLE_A = np.array([
    [[[1, 2], [2, 2], [2, 3], [3, 3]],
     [[2, 2], [2, 2], [3, 3], [3, 3]],
     [[2, 3], [3, 3], [3, 3], [4, 4]]],
    [[[2, 3], [3, 3], [3, 4], [4, 4]],
     [[3, 3], [3, 3], [3, 4], [4, 4]],
     [[3, 4], [4, 4], [4, 4], [5, 5]]],
    [[[3, 3], [4, 4], [4, 4], [5, 5]],
     [[3, 4], [4, 4], [4, 4], [5, 5]],
     [[4, 4], [4, 4], [4, 5], [5, 5]]],
    [[[4, 4], [4, 4], [4, 5], [5, 5]],
     [[4, 4], [4, 4], [4, 5], [5, 5]],
     [[4, 4], [4, 5], [5, 5], [6, 6]]],
    [[[5, 5], [5, 5], [5, 6], [6, 7]],
     [[5, 6], [6, 6], [6, 7], [7, 7]],
     [[6, 6], [6, 7], [7, 7], [7, 8]]],
    [[[7, 7], [7, 7], [7, 8], [8, 9]],
     [[8, 8], [8, 8], [8, 9], [9, 9]],
     [[9, 9], [9, 9], [9, 9], [9, 9]]],
], dtype=int)

# TABLE_B[neck-1][trunk-1][legs-1]
TABLE_B = np.array([
    [[1, 3], [2, 3], [3, 4], [5, 5], [6, 6], [7, 7]],
    [[2, 3], [2, 3], [4, 5], [5, 5], [6, 7], [7, 7]],
    [[3, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 7]],
    [[5, 5], [5, 6], [6, 7], [7, 7], [7, 7], [8, 8]],
    [[7, 7], [7, 7], [7, 8], [8, 8], [8, 8], [8, 8]],
    [[8, 8], [8, 8], [8, 8], [8, 9], [9, 9], [9, 9]],
], dtype=int)

# TABLE_C[wrist_arm-1][neck_trunk_leg-1]; inputs clamp to 8 and 7.
TABLE_C = np.array([
    [1, 2, 3, 3, 4, 5, 5],
    [2, 2, 3, 4, 4, 5, 5],
    [3, 3, 3, 4, 4, 5, 6],
    [3, 3, 3, 4, 5, 6, 6],
    [4, 4, 4, 5, 6, 7, 7],
    [4, 4, 5, 6, 6, 7, 7],
    [5, 5, 6, 6, 7, 7, 7],
    [5, 5, 6, 7, 7, 7, 7],
], dtype=int)

TRUNK_UPRIGHT_DEG = 2.0
EXTENSION_DEADBAND_DEG = 5.0
WRIST_NEUTRAL_DEG = 1.0
GROUND_CONTACT_M = 0.05

# Normalized joint-stress bands: (band_min, band_max) with band_max the
# onset of the worst worksheet band for that joint.
STRESS_BANDS: dict[str, tuple[float, float]] = {
    "upper_arm_left": (0.0, 90.0),
    "upper_arm_right": (0.0, 90.0),
    "lower_arm_left": (0.0, 100.0),
    "lower_arm_right": (0.0, 100.0),
    "wrist_left": (0.0, 15.0),
    "wrist_right": (0.0, 15.0),
    "neck": (0.0, 20.0),
    "trunk": (0.0, 60.0),
}
STRESS_JOINTS = tuple(STRESS_BANDS)


class RulaError(ValueError):
    """Invalid ergonomics input."""


class IncompleteFrameError(RulaError):
    """A fused landmark required for angle extraction is missing."""


@dataclass(frozen=True)
class JointAngles:
    """Joint flexion angles in degrees (positive = forward flexion)."""

    upper_arm_left: float
    upper_arm_right: float
    lower_arm_left: float
    lower_arm_right: float
    wrist_left: float
    wrist_right: float
    neck: float
    trunk: float
    legs_supported: bool
    aux_present: bool = True

    def __post_init__(self):
        for name in STRESS_JOINTS:
            v = getattr(self, name)
            if not (math.isfinite(v) and -180.0 <= v <= 180.0):
                raise RulaError(f"{name}={v!r} outside [-180, 180]")


@dataclass(frozen=True)
class RulaAdjustments:
    """Worksheet adjustments not derivable from body landmarks."""

    muscle_use_a: int = 0
    force_a: int = 0
    muscle_use_b: int = 0
    force_b: int = 0
    wrist_twist: int = 1

    def __post_init__(self):
        if self.wrist_twist not in (1, 2):
            raise RulaError("wrist_twist must be 1 or 2")
        for field in fields(self):
            if field.name != "wrist_twist" and getattr(self, field.name) < 0:
                raise RulaError(f"{field.name} must be >= 0")


@dataclass(frozen=True)
class RulaBreakdown:
    """Step scores, table intermediates, and the grand score for one frame."""

    score_upper_arm: int
    score_lower_arm: int
    score_wrist: int
    score_wrist_twist: int
    table_a: int
    score_neck: int
    score_trunk: int
    score_legs: int
    table_b: int
    wrist_arm_score: int
    neck_trunk_leg_score: int
    grand: int
    action_level: int
    side: str


class PostureState(str, Enum):
    SAFE = "SAFE"
    WARN = "WARN"
    UNSAFE = "UNSAFE"


@dataclass(frozen=True)
class PostureStatus:
    status: PostureState
    message: str


STATUS_MESSAGES = {
    PostureState.SAFE: "posture acceptable",
    PostureState.WARN: "posture may need investigation",
    PostureState.UNSAFE: "change posture now",
}


# Hoisted out of the per-frame angle extraction.
_UP = np.array([0.0, 0.0, 1.0])
_FORWARD_FALLBACK = np.array([1.0, 0.0, 0.0])
_L_SHOULDER, _R_SHOULDER, _L_ELBOW, _R_ELBOW, _L_WRIST, _R_WRIST, _L_HIP, _R_HIP, \
    _L_ANKLE, _R_ANKLE, _MID_EAR = (LANDMARK_INDEX[lm] for lm in (
        LandmarkId.LEFT_SHOULDER, LandmarkId.RIGHT_SHOULDER, LandmarkId.LEFT_ELBOW,
        LandmarkId.RIGHT_ELBOW, LandmarkId.LEFT_WRIST, LandmarkId.RIGHT_WRIST,
        LandmarkId.LEFT_HIP, LandmarkId.RIGHT_HIP, LandmarkId.LEFT_ANKLE,
        LandmarkId.RIGHT_ANKLE, LandmarkId.MID_EAR))


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D float vector, which is exactly this."""
    return math.sqrt(v.dot(v))


def _angle(a: np.ndarray, na: float, b: np.ndarray, nb: float) -> float:
    """Degrees between ``a`` and ``b`` of norms ``na`` and ``nb``; 0 for a null vector."""
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    c = float(a @ b) / (na * nb)
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def compute_joint_angles(xyz: np.ndarray) -> JointAngles:
    """Extract RULA joint angles from one frame of 3D landmarks.

    ``xyz`` is a (15, 3) float array in canonical landmark order; the
    three auxiliary head rows may be NaN, in which case neck flexion is
    reported as 0 with ``aux_present=False``.

    Raises
    ------
    IncompleteFrameError
        If any of the twelve fused landmarks is missing (NaN).
    """
    if xyz.shape != (N_ALL, 3):
        raise RulaError(f"expected ({N_ALL}, 3) landmark array, got {xyz.shape}")
    if not np.isfinite(xyz[:N_FUSED]).all():
        fused_ok = np.isfinite(xyz[:N_FUSED]).all(axis=1)
        missing = [LANDMARK_NAMES[i] for i in np.flatnonzero(~fused_ok)]
        raise IncompleteFrameError(f"missing fused landmarks: {missing}")

    hip_mid = (xyz[_L_HIP] + xyz[_R_HIP]) / 2.0
    sho_mid = (xyz[_L_SHOULDER] + xyz[_R_SHOULDER]) / 2.0
    trunk_vec = sho_mid - hip_mid
    # Also the norm of -trunk_vec, bit for bit.
    n_trunk = _norm(trunk_vec)
    # np.cross(left hip - right hip, up) in numpy's operation order, up = (0, 0, 1).
    a0, a1, a2 = (xyz[_L_HIP] - xyz[_R_HIP]).tolist()
    forward = np.array([a1 * 1.0 - a2 * 0.0, a2 * 0.0 - a0 * 1.0, a0 * 0.0 - a1 * 0.0])
    fn = _norm(forward)
    forward = forward / fn if fn > 1e-12 else _FORWARD_FALLBACK

    trunk = _angle(trunk_vec, n_trunk, _UP, 1.0)
    if trunk_vec @ forward < 0:
        trunk = -trunk

    ear = xyz[_MID_EAR]
    aux_present = all(map(math.isfinite, ear.tolist()))
    if aux_present:
        neck_vec = ear - sho_mid
        neck = _angle(neck_vec, _norm(neck_vec), trunk_vec, n_trunk)
        # Sign by the forward component orthogonal to the trunk axis.
        tn = trunk_vec / max(n_trunk, 1e-12)
        if (neck_vec - (neck_vec @ tn) * tn) @ forward < 0:
            neck = -neck
    else:
        neck = 0.0

    trunk_down = -trunk_vec

    def upper_arm(sho: int, elb: int) -> float:
        vec = xyz[elb] - xyz[sho]
        ang = _angle(vec, _norm(vec), trunk_down, n_trunk)
        return ang if vec @ forward >= 0 else -ang

    def lower_arm(sho: int, elb: int, wri: int) -> float:
        upper, fore = xyz[sho] - xyz[elb], xyz[wri] - xyz[elb]
        interior = _angle(upper, _norm(upper), fore, _norm(fore))
        return 180.0 - interior

    legs = bool(xyz[_L_ANKLE, 2] <= GROUND_CONTACT_M
                and xyz[_R_ANKLE, 2] <= GROUND_CONTACT_M)

    return JointAngles(
        upper_arm_left=upper_arm(_L_SHOULDER, _L_ELBOW),
        upper_arm_right=upper_arm(_R_SHOULDER, _R_ELBOW),
        lower_arm_left=lower_arm(_L_SHOULDER, _L_ELBOW, _L_WRIST),
        lower_arm_right=lower_arm(_R_SHOULDER, _R_ELBOW, _R_WRIST),
        wrist_left=0.0, wrist_right=0.0,
        neck=neck, trunk=trunk, legs_supported=legs, aux_present=aux_present)


def upper_arm_band(angle: float) -> int:
    if angle < -20.0 - 1e-12:
        return 2
    a = abs(angle)
    if a <= 20.0:
        return 1
    if angle <= 45.0:
        return 2
    if angle <= 90.0:
        return 3
    return 4


def lower_arm_band(angle: float) -> int:
    return 1 if 60.0 <= angle <= 100.0 else 2


def wrist_band(angle: float) -> int:
    a = abs(angle)
    if a <= WRIST_NEUTRAL_DEG:
        return 1
    if a <= 15.0:
        return 2
    return 3


def neck_band(angle: float) -> int:
    if angle < -EXTENSION_DEADBAND_DEG:
        return 4
    if angle <= 10.0:
        return 1
    if angle <= 20.0:
        return 2
    return 3


def trunk_band(angle: float) -> int:
    if angle < -EXTENSION_DEADBAND_DEG:
        return 2
    a = abs(angle)
    if a <= TRUNK_UPRIGHT_DEG:
        return 1
    if angle <= 20.0:
        return 2
    if angle <= 60.0:
        return 3
    return 4


def rula_score(angles: JointAngles,
               adjustments: RulaAdjustments | None = None) -> RulaBreakdown:
    """Score one frame of joint angles through the worksheet tables.

    Both arms are banded and combined through Table A independently; the
    breakdown reports the worse side (ties resolve to the right arm, the
    working arm). The grand score is Table C at the adjusted group
    totals, rows/columns clamped to the table extent, hence 1..7.
    """
    adj = adjustments or RulaAdjustments()

    sides = {}
    for side, ua, la, wr in (
            ("left", angles.upper_arm_left, angles.lower_arm_left, angles.wrist_left),
            ("right", angles.upper_arm_right, angles.lower_arm_right, angles.wrist_right)):
        s_ua = upper_arm_band(ua)
        s_la = lower_arm_band(la)
        s_wr = wrist_band(wr)
        s_tw = adj.wrist_twist
        ta = int(TABLE_A[s_ua - 1, s_la - 1, s_wr - 1, s_tw - 1])
        sides[side] = (ta, s_ua, s_la, s_wr, s_tw)

    # Worse side lexicographically by (table A, steps); tie -> right.
    side = "right" if sides["right"] >= sides["left"] else "left"
    ta, s_ua, s_la, s_wr, s_tw = sides[side]

    s_neck = neck_band(angles.neck)
    s_trunk = trunk_band(angles.trunk)
    s_legs = 1 if angles.legs_supported else 2
    tb = int(TABLE_B[s_neck - 1, s_trunk - 1, s_legs - 1])

    wrist_arm = ta + adj.muscle_use_a + adj.force_a
    neck_trunk_leg = tb + adj.muscle_use_b + adj.force_b
    grand = int(TABLE_C[min(wrist_arm, 8) - 1, min(neck_trunk_leg, 7) - 1])
    action = 1 if grand <= 2 else 2 if grand <= 4 else 3 if grand <= 6 else 4

    return RulaBreakdown(
        score_upper_arm=s_ua, score_lower_arm=s_la, score_wrist=s_wr,
        score_wrist_twist=s_tw, table_a=ta,
        score_neck=s_neck, score_trunk=s_trunk, score_legs=s_legs, table_b=tb,
        wrist_arm_score=wrist_arm, neck_trunk_leg_score=neck_trunk_leg,
        grand=grand, action_level=action, side=side)


def classify_posture(breakdown: RulaBreakdown) -> PostureStatus:
    """Map the grand score to the operator-facing status message."""
    if breakdown.grand <= 2:
        state = PostureState.SAFE
    elif breakdown.grand <= 4:
        state = PostureState.WARN
    else:
        state = PostureState.UNSAFE
    return PostureStatus(status=state, message=STATUS_MESSAGES[state])


AREA_FIELDS = {
    "neck": "score_neck",
    "trunk": "score_trunk",
    "legs": "score_legs",
    "upper_arm": "score_upper_arm",
    "lower_arm": "score_lower_arm",
    "wrist": "score_wrist",
}


def joint_stress_heatmap(angles) -> tuple[tuple[str, ...], np.ndarray]:
    """Per-frame normalized joint stress in [0, 1].

    ``angles`` is an (n_frames, n_joints) array of joint angles in
    degrees, columns in ``STRESS_JOINTS`` order. Stress is
    (angle - band_min) / (band_max - band_min) clipped to [0, 1], with
    band_max the onset of the worst worksheet band per joint (see
    ``STRESS_BANDS``). Returns the joint-name tuple and an
    (n_frames, n_joints) array, suitable for offline heat mapping.
    Angles must be finite and within [-180, 180], as in
    :class:`JointAngles`.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != len(STRESS_JOINTS) or not len(angles):
        raise RulaError("joint_stress_heatmap needs a non-empty "
                        f"(n_frames, {len(STRESS_JOINTS)}) angle array")
    bad = np.argwhere(~(np.abs(angles) <= 180.0))
    if bad.size:
        frame, j = bad[0]
        raise RulaError(
            f"{STRESS_JOINTS[j]}={float(angles[frame, j])!r} outside [-180, 180]")
    lo, hi = np.array(list(STRESS_BANDS.values())).T
    stress = (angles - lo) / (hi - lo)
    # Clip like Python's max(0.0, s) and min(1.0, s): -0.0 becomes 0.0.
    stress = np.where(stress > 0.0, stress, 0.0)
    return STRESS_JOINTS, np.where(stress < 1.0, stress, 1.0)
