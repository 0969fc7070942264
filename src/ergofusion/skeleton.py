"""Stature-parameterized skeleton, reach-task animation, synthetic capture.

The digital twin stands on the ground plane (z = 0) facing +x, feet
fixed, and executes a scripted sequence of right-arm reaches. Twelve
bilateral joints (shoulders, elbows, wrists, hips, knees, ankles) are
the tracked landmark set; three auxiliary head markers (head top, nose,
mid-ear) support height estimation and neck angles but are never fused.

Segment lengths derive from stature through the classic body-segment
proportion table (Drillis/Contini): standing joint heights are
ankle 0, knee 0.285 H, hip 0.530 H, shoulder 0.818 H, head top 1.000 H,
so the vertical chain sums exactly to stature.

Motion model (kept deliberately analytic, not physical):

- the right arm tracks a cosine-eased straight-line wrist path to each
  phase target with two-segment (upper arm / forearm) elbow-down inverse
  kinematics; unreachable targets saturate at full extension and flag
  the frame;
- the trunk flexes forward only for targets below hip height,
  proportionally up to ``TRUNK_MAX_FLEXION_DEG`` at ground level;
- the neck flexes toward the tool in coarse comfort steps of
  ``NECK_COMFORT_STEPS_DEG`` keyed on how far the target sits from
  shoulder height (a simplified gaze model: the head tilts toward the
  handover point whether it is above or below the shoulder).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

FRAME_RATE_HZ = 10.0


class SkeletonError(ValueError):
    """Invalid skeleton, script, or capture input."""


class LandmarkId(str, Enum):
    """The tracked landmarks; the first twelve are the fused set."""

    LEFT_SHOULDER = "left_shoulder"
    RIGHT_SHOULDER = "right_shoulder"
    LEFT_ELBOW = "left_elbow"
    RIGHT_ELBOW = "right_elbow"
    LEFT_WRIST = "left_wrist"
    RIGHT_WRIST = "right_wrist"
    LEFT_HIP = "left_hip"
    RIGHT_HIP = "right_hip"
    LEFT_KNEE = "left_knee"
    RIGHT_KNEE = "right_knee"
    LEFT_ANKLE = "left_ankle"
    RIGHT_ANKLE = "right_ankle"
    HEAD_TOP = "head_top"
    NOSE = "nose"
    MID_EAR = "mid_ear"


FUSED_LANDMARKS: tuple[LandmarkId, ...] = tuple(LandmarkId)[:12]
AUX_LANDMARKS: tuple[LandmarkId, ...] = tuple(LandmarkId)[12:]
ALL_LANDMARKS: tuple[LandmarkId, ...] = tuple(LandmarkId)
N_FUSED = len(FUSED_LANDMARKS)
N_ALL = len(ALL_LANDMARKS)
LANDMARK_NAMES: tuple[str, ...] = tuple(lm.value for lm in ALL_LANDMARKS)
LANDMARK_INDEX = {lm: i for i, lm in enumerate(ALL_LANDMARKS)}

# Body-segment lengths as fractions of stature (Drillis/Contini
# proportions; ankles are pinned to the ground so the vertical chain
# ankle->knee->hip->shoulder->head_top sums exactly to 1.0).
SEGMENT_RATIOS: dict[str, float] = {
    "ankle_to_knee": 0.285,
    "knee_to_hip": 0.245,
    "hip_to_shoulder": 0.288,
    "shoulder_to_head_top": 0.182,
    "upper_arm": 0.186,
    "forearm": 0.146,
    "shoulder_width": 0.259,
    "hip_width": 0.191,
    "shoulder_to_ear": 0.112,
    "nose_forward": 0.055,
}

STATURE_RANGE = (1.2, 2.2)

# Trunk flexes only for targets below hip height, linearly up to this
# angle for a target at ground level.
TRUNK_MAX_FLEXION_DEG = 60.0
# Neck comfort steps: (|target z - shoulder z| upper bound in meters,
# flexion in degrees). Targets within 2 cm of shoulder height need no
# head tilt; beyond 6 cm the head drops to its 25 degree maximum.
NECK_COMFORT_STEPS_DEG: tuple[tuple[float, float], ...] = (
    (0.02, 0.0),
    (0.06, 15.0),
    (math.inf, 25.0),
)


@dataclass(frozen=True)
class AnthropometricProfile:
    """Stature plus the derived segment-length table (meters)."""

    stature: float
    segment_lengths: dict[str, float]

    @property
    def shoulder_height(self) -> float:
        return self.stature - self.segment_lengths["shoulder_to_head_top"]

    @property
    def hip_height(self) -> float:
        return self.shoulder_height - self.segment_lengths["hip_to_shoulder"]

    @property
    def knee_height(self) -> float:
        return self.segment_lengths["ankle_to_knee"]

    @property
    def arm_reach(self) -> float:
        return self.segment_lengths["upper_arm"] + self.segment_lengths["forearm"]


def build_skeleton(stature: float) -> AnthropometricProfile:
    """Derive segment lengths for an operator of the given stature.

    Raises
    ------
    SkeletonError
        If stature falls outside ``STATURE_RANGE``.
    """
    lo, hi = STATURE_RANGE
    if not (lo <= stature <= hi):
        raise SkeletonError(
            f"stature {stature!r} outside supported range [{lo}, {hi}] m")
    return AnthropometricProfile(
        stature=float(stature),
        segment_lengths={name: ratio * stature
                         for name, ratio in SEGMENT_RATIOS.items()})


@dataclass(frozen=True)
class MotionPhase:
    """One scripted phase: a rest (target None) or a reach to a point.

    ``target`` may be the literal string ``"delivery"`` to reference the
    scenario's delivery point, resolved at animation time.
    """

    name: str
    duration: float
    target: object = None

    def __post_init__(self):
        if self.duration <= 0:
            raise SkeletonError(f"phase {self.name!r}: duration must be > 0")


@dataclass(frozen=True)
class MotionScript:
    phases: tuple[MotionPhase, ...]
    frame_rate: float = FRAME_RATE_HZ

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(self.phases))
        if self.frame_rate <= 0:
            raise SkeletonError("frame_rate must be > 0")

    @property
    def total_duration(self) -> float:
        return sum(p.duration for p in self.phases)

    @property
    def n_frames(self) -> int:
        return int(self.frame_rate * self.total_duration + 1e-9)


def trunk_flexion_for_target(profile: AnthropometricProfile, target_z: float) -> float:
    """Forward trunk flexion (degrees) adopted to work at ``target_z``."""
    hip = profile.hip_height
    if target_z >= hip:
        return 0.0
    frac = min(1.0, (hip - target_z) / hip)
    return TRUNK_MAX_FLEXION_DEG * frac


def neck_flexion_for_target(profile: AnthropometricProfile, target_z: float) -> float:
    """Head tilt (degrees) toward a tool at ``target_z`` (comfort steps)."""
    gap = abs(target_z - profile.shoulder_height)
    for bound, angle in NECK_COMFORT_STEPS_DEG:
        if gap < bound:
            return angle
    return NECK_COMFORT_STEPS_DEG[-1][1]


def _pitch(theta_deg: float) -> np.ndarray:
    """Forward-pitch rotation (about +y); positive tilts +z toward +x."""
    a = math.radians(theta_deg)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _arm_ik(shoulder: np.ndarray, target: np.ndarray, upper: float,
            forearm: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Two-segment elbow-down IK; returns (elbow, wrist, reachable)."""
    d = target - shoulder
    dist = float(np.linalg.norm(d))
    reach = upper + forearm
    inner = abs(upper - forearm)
    reachable = inner - 1e-12 <= dist <= reach + 1e-12
    dist_eff = max(min(max(dist, inner), reach), 1e-9)
    if dist < 1e-12:
        u = np.array([0.0, 0.0, -1.0])
    else:
        u = d / dist
    # Elbow drops into the vertical plane through shoulder and target;
    # for a straight-down target the forward axis breaks the ambiguity.
    down = np.array([0.0, 0.0, -1.0])
    w = down - (u @ down) * u
    if np.linalg.norm(w) < 1e-9:
        fwd = np.array([1.0, 0.0, 0.0])
        w = fwd - (u @ fwd) * u
    w = w / np.linalg.norm(w)
    cos_a = (upper ** 2 + dist_eff ** 2 - forearm ** 2) / (2.0 * upper * dist_eff)
    cos_a = min(1.0, max(-1.0, cos_a))
    sin_a = math.sqrt(max(0.0, 1.0 - cos_a ** 2))
    elbow = shoulder + upper * (cos_a * u + sin_a * w)
    wrist = shoulder + dist_eff * u
    return elbow, wrist, reachable


# The lower body's rows: hips, knees, ankles, each left then right.
_LOWER = slice(LANDMARK_INDEX[LandmarkId.LEFT_HIP], LANDMARK_INDEX[LandmarkId.RIGHT_ANKLE] + 1)


def _pose(profile: AnthropometricProfile, stance: np.ndarray,
          trunk_deg: float, neck_deg: float,
          wrist_goal: np.ndarray | None, xyz: np.ndarray) -> bool:
    """Write one frame's pitched torso, head and arms into ``xyz``
    (N_ALL, 3), leaving the lower body; return whether the wrist goal
    was reachable."""
    seg = profile.segment_lengths
    half_sho = seg["shoulder_width"] / 2.0

    def put(lm: LandmarkId, p):
        xyz[LANDMARK_INDEX[lm]] = p

    hip_mid = stance + np.array([0.0, 0.0, profile.hip_height])
    r_trunk = _pitch(trunk_deg)
    sho_l = hip_mid + r_trunk @ np.array([0.0, half_sho, seg["hip_to_shoulder"]])
    sho_r = hip_mid + r_trunk @ np.array([0.0, -half_sho, seg["hip_to_shoulder"]])
    put(LandmarkId.LEFT_SHOULDER, sho_l)
    put(LandmarkId.RIGHT_SHOULDER, sho_r)

    sho_mid = (sho_l + sho_r) / 2.0
    r_head = _pitch(trunk_deg + neck_deg)
    put(LandmarkId.HEAD_TOP, sho_mid + r_head @ np.array([0.0, 0.0, seg["shoulder_to_head_top"]]))
    put(LandmarkId.MID_EAR, sho_mid + r_head @ np.array([0.0, 0.0, seg["shoulder_to_ear"]]))
    put(LandmarkId.NOSE, sho_mid + r_head @ np.array([seg["nose_forward"], 0.0, seg["shoulder_to_ear"]]))

    # Left arm hangs along the (pitched) trunk-down direction.
    trunk_down = r_trunk @ np.array([0.0, 0.0, -1.0])
    put(LandmarkId.LEFT_ELBOW, sho_l + seg["upper_arm"] * trunk_down)
    put(LandmarkId.LEFT_WRIST, sho_l + profile.arm_reach * trunk_down)

    if wrist_goal is None:
        put(LandmarkId.RIGHT_ELBOW, sho_r + seg["upper_arm"] * trunk_down)
        put(LandmarkId.RIGHT_WRIST, sho_r + profile.arm_reach * trunk_down)
        return True
    elbow, wrist, reach_ok = _arm_ik(sho_r, np.asarray(wrist_goal, dtype=float),
                                     seg["upper_arm"], seg["forearm"])
    put(LandmarkId.RIGHT_ELBOW, elbow)
    put(LandmarkId.RIGHT_WRIST, wrist)
    return reach_ok


def _ease(s: float) -> float:
    """Cosine ease-in-out on [0, 1]."""
    return 0.5 * (1.0 - math.cos(math.pi * min(1.0, max(0.0, s))))


def animate(profile: AnthropometricProfile, script: MotionScript,
            delivery_point, stance=(0.0, 0.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
    """Run the motion script; return the ground truth of every frame.

    Returns two read-only arrays in frame order: the (F, N_ALL, 3) world
    positions and the (F,) reach flag. The feet never move, so the hips,
    knees and ankles are written once for all frames.

    Phase targets equal to the string ``"delivery"`` resolve to
    ``delivery_point``. Within each phase the wrist goal moves along a
    cosine-eased straight line from the previous phase's final wrist
    position, and the trunk/neck comfort angles ease between the phase
    endpoint values; progress reaches exactly 1 at each phase's last
    frame, so reachable targets are hit to machine precision there.
    Unreachable goals saturate at full extension and clear the reach flag.
    """
    delivery = np.asarray(delivery_point, dtype=float).reshape(3)
    stance = np.asarray(stance, dtype=float).reshape(3)

    rest = np.empty((N_ALL, 3))
    _pose(profile, stance, 0.0, 0.0, None, rest)
    rest_wrist = rest[LANDMARK_INDEX[LandmarkId.RIGHT_WRIST]]

    # Each phase's end state (wrist goal, trunk and neck angles); phase i
    # starts from ends[i], the rest pose for the first.
    ends = [(rest_wrist, 0.0, 0.0)]
    for phase in script.phases:
        target = phase.target
        if target is None:
            ends.append((rest_wrist, 0.0, 0.0))
            continue
        if isinstance(target, str):
            if target != "delivery":
                raise SkeletonError(
                    f"phase {phase.name!r}: unknown symbolic target {target!r}")
            target = delivery
        target = np.asarray(target, dtype=float).reshape(3)
        z = float(target[2])
        ends.append((target, trunk_flexion_for_target(profile, z),
                     neck_flexion_for_target(profile, z)))

    boundaries = np.cumsum([p.duration for p in script.phases])
    dt = 1.0 / script.frame_rate
    xyz = np.empty((script.n_frames, N_ALL, 3))
    reach_ok = np.empty(script.n_frames, bool)
    half_hip = profile.segment_lengths["hip_width"] / 2.0
    xyz[:, _LOWER] = [stance + np.array([0.0, sy, z])
                      for z in (profile.hip_height, profile.knee_height, 0.0)
                      for sy in (half_hip, -half_hip)]
    for k in range(script.n_frames):
        t_end = (k + 1) * dt  # progress measured at frame end
        i = int(np.searchsorted(boundaries, t_end - 1e-9))
        i = min(i, len(script.phases) - 1)
        t0 = boundaries[i] - script.phases[i].duration
        s = _ease((t_end - t0) / script.phases[i].duration)
        (w0, tr0, nk0), (w1, tr1, nk1) = ends[i], ends[i + 1]
        trunk = tr0 + (tr1 - tr0) * s
        neck = nk0 + (nk1 - nk0) * s
        goal = w0 + (w1 - w0) * s
        reach_ok[k] = _pose(profile, stance, trunk, neck, goal, xyz[k])
    xyz.setflags(write=False)
    reach_ok.setflags(write=False)
    return xyz, reach_ok


@dataclass(frozen=True)
class CameraObservations:
    """One camera's noisy 2D view of one frame's landmarks, or of a
    segment's, with a leading frame axis."""

    camera_id: str
    uv: np.ndarray           # (N_ALL, 2) or (F, N_ALL, 2); NaN where not visible
    visible: np.ndarray      # (N_ALL,) or (F, N_ALL) bool


def observe(camera, xyz: np.ndarray, noise_sigma: float,
            rng: np.random.Generator | Iterable[np.random.Generator] | None = None,
            ) -> CameraObservations:
    """Project one frame's (N_ALL, 3) positions, or a segment's
    (F, N_ALL, 3), into one camera, adding per-coordinate noise.

    Landmarks at non-positive depth are marked not visible (uv NaN).
    A positive ``noise_sigma`` needs ``rng``, so that the noise is
    reproducible: a seeded generator for one frame, or for a segment an
    iterable of F seeded generators, frame k's (N_ALL, 2) noise drawn
    from the k-th. All frames are projected in one ``project_many`` call.
    """
    if noise_sigma < 0:
        raise SkeletonError("noise_sigma must be >= 0")
    if noise_sigma > 0 and rng is None:
        raise SkeletonError("noise_sigma > 0 needs a seeded rng")
    xyz = np.asarray(xyz)
    # project_many returns a fresh uv array, so it is updated in place.
    uv, depth = camera.project_many(xyz.reshape(-1, 3))
    uv = uv.reshape(*xyz.shape[:-1], 2)
    visible = depth.reshape(xyz.shape[:-1]) > 0
    if noise_sigma > 0:
        frames = uv.reshape(-1, *uv.shape[-2:])
        for frame, frame_rng in zip(frames, (rng,) if xyz.ndim == 2 else rng, strict=True):
            frame += frame_rng.normal(0.0, noise_sigma, size=frame.shape)
    if not visible.all():
        uv[~visible] = np.nan
    return CameraObservations(camera_id=camera.id, uv=uv, visible=visible)
