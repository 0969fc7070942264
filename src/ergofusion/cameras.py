"""Projective camera models and stereo-rig extrinsics.

Conventions used throughout the package:

- World frame: right-handed, z up, ground plane at z = 0, meters.
- Camera frame: x right, y down, z forward along the optical axis.
- Image coordinates are normalized (intrinsic-free): a camera's 3x4
  projection matrix is the plain extrinsic stack [R | T], and a world
  point p projects to the dehomogenized [R | T] @ [p; 1].

A camera's extrinsics map world to camera coordinates, x_cam = R x + T,
so the camera center in world coordinates is c = -R^T T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Tolerance for validating caller-supplied rotations.
ORTHONORMAL_ATOL = 1e-8
# Homogeneous depths below this magnitude are treated as degenerate.
DEGENERATE_DEPTH = 1e-12


class GeometryError(ValueError):
    """Invalid camera geometry input (non-orthonormal rotation, bad shape)."""


class DegenerateProjectionError(GeometryError):
    """Projection of a point with (near-)zero homogeneous depth."""


def require_rotation(r: np.ndarray, name: str = "rotation",
                     atol: float = ORTHONORMAL_ATOL) -> np.ndarray:
    """Validate and return ``r`` as a proper 3x3 rotation matrix.

    Raises
    ------
    GeometryError
        If ``r`` is not 3x3, not orthonormal within ``atol``, or has
        determinant != +1 within ``atol``.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise GeometryError(f"{name} must be 3x3, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise GeometryError(f"{name} contains non-finite values")
    if not np.allclose(r.T @ r, np.eye(3), atol=atol):
        raise GeometryError(f"{name} is not orthonormal within {atol:g}")
    if not math.isclose(float(np.linalg.det(r)), 1.0, abs_tol=max(atol, 1e-8)):
        raise GeometryError(f"{name} must have determinant +1")
    return r


def _as_vec3(t, name: str) -> np.ndarray:
    t = np.asarray(t, dtype=float).reshape(-1)
    if t.shape != (3,):
        raise GeometryError(f"{name} must be a 3-vector, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise GeometryError(f"{name} contains non-finite values")
    return t


@dataclass(frozen=True)
class CameraModel:
    """One projective camera: world->camera extrinsics plus derived fields.

    ``projection`` is the 3x4 stack [rotation | translation], ``position``
    the camera center in world coordinates and ``rotation_t`` the transposed
    rotation, all derived at construction and kept consistent by immutability.
    """

    id: str
    rotation: np.ndarray
    translation: np.ndarray
    projection: np.ndarray = field(init=False, repr=False)
    position: np.ndarray = field(init=False, repr=False)
    rotation_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        r = require_rotation(self.rotation, f"camera {self.id} rotation")
        t = _as_vec3(self.translation, f"camera {self.id} translation")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "projection", np.hstack([r, t[:, None]]))
        object.__setattr__(self, "position", -r.T @ t)
        object.__setattr__(self, "rotation_t", r.T)
        for array in (r, t, self.projection, self.position, self.rotation_t):
            array.setflags(write=False)

    @classmethod
    def from_pose(cls, cam_id: str, rotation: np.ndarray,
                  position: np.ndarray) -> "CameraModel":
        """Build a camera from its world->camera rotation and world center."""
        r = require_rotation(rotation, f"camera {cam_id} rotation")
        c = _as_vec3(position, f"camera {cam_id} position")
        return cls(cam_id, r, -r @ c)

    def depth(self, point) -> float:
        """Homogeneous depth of a world point (signed; >0 means in front)."""
        p = _as_vec3(point, "point")
        return float(self.rotation[2] @ p + self.translation[2])

    def project(self, point) -> np.ndarray:
        """Project a world point to normalized image-plane coordinates.

        Returns the dehomogenized [R | T] @ [p; 1] as a 2-vector (u, v).

        Raises
        ------
        DegenerateProjectionError
            If the point lies on the camera's principal plane
            (homogeneous depth below ``DEGENERATE_DEPTH``).
        """
        p = _as_vec3(point, "point")
        x = self.rotation @ p + self.translation
        if abs(x[2]) < DEGENERATE_DEPTH:
            raise DegenerateProjectionError(
                f"camera {self.id}: point {p} has zero homogeneous depth")
        return x[:2] / x[2]

    def project_many(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project an (N, 3) array; returns ((N, 2) uv, (N,) depth)."""
        pts = np.asarray(points, dtype=float)
        x = pts @ self.rotation_t + self.translation
        depth = x[:, 2]
        safe = (depth if depth.min(initial=np.inf) >= DEGENERATE_DEPTH  # all in front
                else np.where(np.abs(depth) < DEGENERATE_DEPTH, np.nan, depth))
        return x[:, :2] / safe[:, None], depth


def compose_world_extrinsics(r1, t1, r, t) -> tuple[np.ndarray, np.ndarray]:
    """Chain world->A extrinsics (r1, t1) with A->B extrinsics (r, t).

    Returns the world->B pair (r @ r1, r @ t1 + t). Both rotations are
    validated to be orthonormal within ``ORTHONORMAL_ATOL``.
    """
    r1 = require_rotation(r1, "r1")
    r = require_rotation(r, "r")
    t1 = _as_vec3(t1, "t1")
    t = _as_vec3(t, "t")
    return r @ r1, r @ t1 + t


@dataclass(frozen=True)
class StereoRig:
    """A calibrated camera pair sharing left->right relative extrinsics.

    Invariant: ``right`` equals the composition of ``left`` with
    (relative_rotation, relative_translation) within 1e-10.
    """

    id: str
    left: CameraModel
    right: CameraModel
    relative_rotation: np.ndarray
    relative_translation: np.ndarray

    def __post_init__(self):
        rr = require_rotation(self.relative_rotation, f"rig {self.id} relative rotation")
        rt = _as_vec3(self.relative_translation, f"rig {self.id} relative translation")
        object.__setattr__(self, "relative_rotation", rr)
        object.__setattr__(self, "relative_translation", rt)
        want_r = rr @ self.left.rotation
        want_t = rr @ self.left.translation + rt
        if not (np.allclose(self.right.rotation, want_r, atol=1e-10)
                and np.allclose(self.right.translation, want_t, atol=1e-10)):
            raise GeometryError(
                f"rig {self.id}: right camera extrinsics do not match the "
                f"composition of the left camera with the relative pose")

    @classmethod
    def from_left_pose(cls, rig_id: str, left_rotation, left_position,
                       relative_rotation, relative_translation) -> "StereoRig":
        """Build a rig from the left camera's world pose and the relative pair."""
        left = CameraModel.from_pose(f"{rig_id}.L", left_rotation, left_position)
        rr, rt = compose_world_extrinsics(
            left.rotation, left.translation, relative_rotation, relative_translation)
        right = CameraModel(f"{rig_id}.R", rr, rt)
        return cls(rig_id, left, right,
                   np.asarray(relative_rotation, dtype=float),
                   np.asarray(relative_translation, dtype=float))

    @property
    def cameras(self) -> tuple[CameraModel, CameraModel]:
        return (self.left, self.right)


def rotation_from_axis_angle(axis_angle) -> np.ndarray:
    """Rodrigues' formula: axis-angle 3-vector (radians) to rotation matrix."""
    v = _as_vec3(axis_angle, "axis_angle")
    theta = float(np.linalg.norm(v))
    if theta < 1e-12:
        return np.eye(3)
    k = v / theta
    kx = np.array([[0.0, -k[2], k[1]],
                   [k[2], 0.0, -k[0]],
                   [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(theta) * kx + (1.0 - math.cos(theta)) * (kx @ kx)


def axis_angle_from_rotation(r: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rotation_from_axis_angle`."""
    r = require_rotation(r)
    cos_theta = (np.trace(r) - 1.0) / 2.0
    theta = math.acos(min(1.0, max(-1.0, cos_theta)))
    if theta < 1e-12:
        return np.zeros(3)
    if math.pi - theta < 1e-6:
        # Near pi the antisymmetric part vanishes; (R + I)/2 approaches
        # the outer product of the axis with itself, so its largest
        # diagonal picks a numerically safe row to read the axis from.
        m = (r + np.eye(3)) / 2.0
        i = int(np.argmax(np.diagonal(m)))
        axis = m[i] / math.sqrt(max(m[i, i], 1e-30))
        axis = axis / np.linalg.norm(axis)
        return axis * theta
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return w / (2.0 * math.sin(theta)) * theta


def look_at_rotation(position, target, up=(0.0, 0.0, 1.0)) -> np.ndarray:
    """World->camera rotation for a camera at ``position`` aimed at ``target``.

    The optical axis (camera z) points from position to target; camera x
    is chosen horizontal (perpendicular to ``up``), which leaves camera y
    pointing downward-ish as the image convention expects.
    """
    c = _as_vec3(position, "position")
    t = _as_vec3(target, "target")
    up = _as_vec3(up, "up")
    z = t - c
    nz = np.linalg.norm(z)
    if nz < 1e-12:
        raise GeometryError("look_at target coincides with camera position")
    z = z / nz
    x = np.cross(z, up)
    nx = np.linalg.norm(x)
    if nx < 1e-9:
        raise GeometryError("look_at direction is parallel to the up vector")
    x = x / nx
    y = np.cross(z, x)
    return np.vstack([x, y, z])
