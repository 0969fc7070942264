"""Direct linear transform (DLT) triangulation.

Recovers one 3D point from two or more normalized image observations by
stacking, per observation, the two independent cross-product rows

    u * k3 - k1       and       v * k3 - k2

of the observing camera's 3x4 projection matrix (rows k1, k2, k3),
applied to the homogeneous unknown [x, y, z, w]. The stacked system
A h = 0 is solved in the least-squares sense by taking the right
singular vector of the smallest singular value and dehomogenizing.

Rows are scaled to unit norm before the solve so that cameras at very
different distances condition the system equally; the recovered point is
invariant to per-observation row scaling.

``triangulate_dlt`` solves one point from any number of views and raises
on failure. ``solve_pairs(uv, projections)`` is the stereo solve: many
two-view points in a single batched SVD, failures reported as masks. Its
points share one camera pair, or each point brings its own pair, so the
points of every rig of a frame are solved in one call. It takes arrays
whose shapes its callers fix once per run and checks no argument. On
every point it gives bitwise the same result as ``triangulate_dlt`` on
that point's pair, which stays the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Solutions with |w| below this are points at infinity.
INFINITY_W = 1e-12
# rank(A) < 3 when the third singular value falls below this, relative
# to the largest; the point is then not determined by the observations
# (e.g. all rays emanate from one camera center).
RANK_RTOL = 1e-9


class TriangulationError(ValueError):
    """Base class for triangulation failures."""


class InsufficientViewsError(TriangulationError):
    """Fewer than two observations were supplied."""


class DegenerateGeometryError(TriangulationError):
    """The observations do not determine a point (rank-deficient system)."""


class PointAtInfinityError(TriangulationError):
    """The least-squares solution has (near-)zero homogeneous scale."""


@dataclass(frozen=True)
class Observation2D:
    """One camera's view of the point: normalized (u, v) plus its 3x4 matrix."""

    camera_id: str
    uv: np.ndarray
    projection: np.ndarray

    def __post_init__(self):
        uv = np.asarray(self.uv, dtype=float).reshape(-1)
        proj = np.asarray(self.projection, dtype=float)
        if uv.shape != (2,) or not np.all(np.isfinite(uv)):
            raise TriangulationError(
                f"observation from {self.camera_id}: uv must be a finite 2-vector")
        if proj.shape != (3, 4):
            raise TriangulationError(
                f"observation from {self.camera_id}: projection must be 3x4, "
                f"got {proj.shape}")
        object.__setattr__(self, "uv", uv)
        object.__setattr__(self, "projection", proj)


@dataclass(frozen=True)
class TriangulatedPoint:
    """Triangulation result.

    ``residual_norm`` is the smallest singular value of the row-normalized
    DLT matrix, i.e. the minimized ||A h|| over unit-norm h.
    """

    xyz: np.ndarray
    residual_norm: float
    n_views: int


@dataclass(frozen=True)
class StereoTriangulation:
    """Batched two-view result for k points; NaN in xyz/residual where flagged.

    ``degenerate`` marks the points on which ``triangulate_dlt`` raises
    ``DegenerateGeometryError`` (a zero DLT row or rank < 3), plus those
    with a non-finite uv; ``at_infinity`` marks those on which it raises
    ``PointAtInfinityError``. The two masks are disjoint.
    """

    xyz: np.ndarray          # (k, 3)
    residual: np.ndarray     # (k,) smallest singular value, as residual_norm
    degenerate: np.ndarray   # (k,) bool
    at_infinity: np.ndarray  # (k,) bool


def build_dlt_matrix(observations: Sequence[Observation2D]) -> np.ndarray:
    """Stack the two independent DLT rows per observation into a (2m, 4) matrix.

    Each row is scaled to unit Euclidean norm. Requires m >= 2; coincident
    camera centers are only detectable at solve time (rank check).
    """
    if len(observations) < 2:
        raise InsufficientViewsError(
            f"triangulation needs at least 2 observations, got {len(observations)}")
    rows = []
    for obs in observations:
        u, v = obs.uv
        k1, k2, k3 = obs.projection
        rows.append(u * k3 - k1)
        rows.append(v * k3 - k2)
    a = np.array(rows)
    norms = np.linalg.norm(a, axis=1)
    if np.any(norms < 1e-300):
        raise DegenerateGeometryError("zero DLT row (degenerate observation)")
    return a / norms[:, None]


def triangulate_dlt(observations: Sequence[Observation2D]) -> TriangulatedPoint:
    """Solve the stacked DLT system for one 3D point.

    Raises
    ------
    InsufficientViewsError
        For fewer than two observations.
    DegenerateGeometryError
        If rank(A) < 3 (the rays do not pin down a point).
    PointAtInfinityError
        If the solution's homogeneous scale is below ``INFINITY_W``.
    """
    a = build_dlt_matrix(observations)
    _, s, vt = np.linalg.svd(a)
    if s[2] <= RANK_RTOL * s[0]:
        raise DegenerateGeometryError(
            "DLT matrix has rank < 3; observations share a camera center "
            "or are otherwise degenerate")
    h = vt[-1]
    if abs(h[3]) < INFINITY_W:
        raise PointAtInfinityError(
            "triangulated point is at infinity (homogeneous scale ~ 0)")
    return TriangulatedPoint(xyz=h[:3] / h[3], residual_norm=float(s[-1]),
                             n_views=len(observations))


def solve_pairs(uv, projections) -> StereoTriangulation:
    """Triangulate k points, each seen once by both cameras of a pair.

    ``uv`` is the (k, 2, 2) stack of each point's normalized left and
    right observations. ``projections`` is the (2, 3, 4) left and right
    camera matrices of one pair that sees every point, or a (k, 2, 3, 4)
    stack of each point's own pair. Builds the (k, 4, 4) stack of
    row-normalized DLT matrices (rows ordered as in ``build_dlt_matrix``:
    left u, left v, right u, right v) and solves it with one batched SVD.
    Failures do not raise; they are flagged in the returned masks.
    """
    # (k, camera, row, 4): u * k3 - k1 and v * k3 - k2 per camera.
    a = uv[..., None] * projections[..., 2:, :] - projections[..., :2, :]
    a = a.reshape(-1, 4, 4)
    # np.linalg.norm(a, axis=2), without its argument handling.
    norms = np.sqrt(np.add.reduce(a * a, axis=2))
    degenerate = (norms < 1e-300).any(axis=1) | ~np.isfinite(uv).all(axis=(1, 2))
    if degenerate.any():
        # Keep the batched SVD finite; these points' results are discarded.
        a[degenerate] = np.eye(4)
        norms[degenerate] = 1.0
    a /= norms[..., None]
    _, s, vt = np.linalg.svd(a)
    degenerate |= s[:, 2] <= RANK_RTOL * s[:, 0]
    h = vt[:, -1]
    at_infinity = ~degenerate & (np.abs(h[:, 3]) < INFINITY_W)
    flagged = degenerate | at_infinity
    residual = s[:, -1].copy()
    if flagged.any():
        h[flagged] = np.nan
        residual[flagged] = np.nan
    return StereoTriangulation(xyz=h[:, :3] / h[:, 3:], residual=residual,
                               degenerate=degenerate, at_infinity=at_infinity)
