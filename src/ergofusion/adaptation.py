"""Operator height estimation, stature classes, one-shot robot adaptation.

The robot's single adapted parameter is the tool delivery height: once
the operator's stature class is known, the handover point moves to the
shoulder height of the class-representative stature (the horizontal
placement never changes). Adaptation happens once, at the start of a
run; re-adapting mid-run is an error by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rula
from .skeleton import LandmarkId, LANDMARK_INDEX, SEGMENT_RATIOS

# Stature class bounds (meters); boundary values belong to c2.
C1_UPPER = 1.68
C2_UPPER = 1.82

# Shoulder height as a fraction of stature, from the skeleton's ratio table.
SHOULDER_RATIO = 1.0 - SEGMENT_RATIOS["shoulder_to_head_top"]

MIN_UPRIGHT_FRAMES = 10
UPRIGHT_TRUNK_DEG = 10.0


class AdaptationError(ValueError):
    """Invalid adaptation input."""


class InsufficientDataError(AdaptationError):
    """Too few upright frames to estimate the operator's height."""


class SingleAdaptationViolation(AdaptationError):
    """A second adaptation was attempted within one run."""


@dataclass(frozen=True)
class AnthropometricClass:
    """One of the three stature bands driving robot adaptation (bounded by
    ``C1_UPPER`` and ``C2_UPPER`` in :func:`classify_height`), with the
    stature whose shoulder height the adapted delivery point takes."""

    class_id: str
    representative_stature: float


CLASSES = (
    AnthropometricClass("c1", 1.60),
    AnthropometricClass("c2", 1.75),
    AnthropometricClass("c3", 1.90),
)


def classify_height(height: float) -> AnthropometricClass:
    """Assign a stature class: c1 below 1.68 m, c2 through 1.82 m, c3 above.

    Both boundary values (1.68 and 1.82) belong to c2.
    """
    if not height > 0:
        raise AdaptationError(f"height must be positive, got {height!r}")
    if height < C1_UPPER:
        return CLASSES[0]
    if height <= C2_UPPER:
        return CLASSES[1]
    return CLASSES[2]


def _chain_height(xyz: np.ndarray) -> float:
    def mid(a: LandmarkId, b: LandmarkId) -> np.ndarray:
        return (xyz[LANDMARK_INDEX[a]] + xyz[LANDMARK_INDEX[b]]) / 2.0

    ankle = mid(LandmarkId.LEFT_ANKLE, LandmarkId.RIGHT_ANKLE)
    hip = mid(LandmarkId.LEFT_HIP, LandmarkId.RIGHT_HIP)
    shoulder = mid(LandmarkId.LEFT_SHOULDER, LandmarkId.RIGHT_SHOULDER)
    head = xyz[LANDMARK_INDEX[LandmarkId.HEAD_TOP]]
    return (float(np.linalg.norm(hip - ankle))
            + float(np.linalg.norm(shoulder - hip))
            + float(np.linalg.norm(head - shoulder)))


def estimate_height(frames: Sequence[np.ndarray]) -> float:
    """Estimate operator stature from fused landmark frames.

    ``frames`` are (15, 3) float arrays in canonical landmark order, as
    the fusion node publishes them on ``fused_landmarks``. Only upright
    frames (trunk flexion below ``UPRIGHT_TRUNK_DEG``, head marker
    present) contribute; each contributes the summed segment chain
    ankles -> hips -> shoulders -> head top, and the median over frames
    rejects per-frame fusion noise.

    Raises
    ------
    InsufficientDataError
        With fewer than ``MIN_UPRIGHT_FRAMES`` upright frames.
    """
    samples = []
    for xyz in frames:
        if not np.all(np.isfinite(xyz[LANDMARK_INDEX[LandmarkId.HEAD_TOP]])):
            continue
        angles = rula.compute_joint_angles(xyz)
        if abs(angles.trunk) < UPRIGHT_TRUNK_DEG:
            samples.append(_chain_height(xyz))
    if len(samples) < MIN_UPRIGHT_FRAMES:
        raise InsufficientDataError(
            f"height estimation needs >= {MIN_UPRIGHT_FRAMES} upright frames, "
            f"got {len(samples)}")
    return float(np.median(samples))


@dataclass(frozen=True)
class RobotDeliveryParams:
    """The robot's tool handover point, and whether it was adapted."""

    delivery_point: np.ndarray
    adapted: bool = False

    def __post_init__(self):
        p = np.asarray(self.delivery_point, dtype=float).reshape(3)
        object.__setattr__(self, "delivery_point", p)
        p.setflags(write=False)


def adapt_robot(stature_class: AnthropometricClass,
                default_params: RobotDeliveryParams) -> RobotDeliveryParams:
    """Adapt the delivery height to the operator's stature class.

    The delivery point keeps its horizontal placement and moves to the
    shoulder height of the class-representative stature. A params object
    that is already adapted cannot be adapted again (one-shot rule).
    """
    if default_params.adapted:
        raise SingleAdaptationViolation(
            "robot delivery parameters were already adapted for this run")
    point = default_params.delivery_point.copy()
    point[2] = SHOULDER_RATIO * stature_class.representative_stature
    return RobotDeliveryParams(delivery_point=point, adapted=True)
