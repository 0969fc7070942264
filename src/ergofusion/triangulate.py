"""Direct linear transform (DLT) triangulation.

Recovers one 3D point from two or more normalized image observations by
stacking, per observation, the two independent cross-product rows

    u * k3 - k1       and       v * k3 - k2

of the observing camera's 3x4 projection matrix (rows k1, k2, k3),
applied to the homogeneous unknown h = [x, y, z, w]. Each row is scaled
so that its first three entries, the row's normal direction in space,
have unit norm, so that cameras at very different distances condition
the system equally. On exact observations every row vanishes at the
true point, so the scaling leaves it unchanged; with noise it weights
the least-squares residuals. Moving the scene and the cameras together
by t changes only each row's last entry c, to c - r·t, where r is the
row's first three entries; so those weights, and the recovered point
relative to the scene, do not depend on where the world origin is
(``tests/test_metamorphic.py``).

Two solvers share those rows:

- ``triangulate_dlt`` solves one point from any number of views and
  raises on failure. It minimizes ||A h|| over unit-norm h: the right
  singular vector of the smallest singular value, dehomogenized. It is
  the reference that acceptance criterion 4 checks.
- ``solve_pairs(uv, projections)`` is the stereo solve that the fusion
  node runs: many two-view points at once, failures reported as masks.
  It fixes w = 1 and minimizes ||A [x; 1]|| = ||B x + c|| over x, where
  [B | c] = A, in closed form: the 3x3 normal equations BᵀB x = -Bᵀc
  solved with the cofactor inverse (Hartley & Zisserman, *Multiple View
  Geometry*, 2nd ed., section 12.2, the inhomogeneous method). It uses
  only elementwise ufuncs, summed in a fixed order, and no BLAS or
  LAPACK, so it rounds the same way whichever kernel the host picks.
  Its points share one camera pair, or each point brings its own pair,
  so the points of every rig of a frame are solved in one call. It takes
  arrays whose shapes its callers fix once per run and checks no
  argument.

Both minimize the same algebraic error, under different normalizations
of h (||h|| = 1 against w = 1). So both give the true point on exact
observations, and on noisy ones they differ by far less than the noise.
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
# ``solve_pairs`` flags rank(A) < 3 when the 3x3 principal minors of AᵀA
# sum to at most this times trace(AᵀA)³, and a point at infinity when
# det(BᵀB) is at most this times trace(BᵀB)³.
GRAM_RTOL = 1e-12
# Row and column indices of the four 3x3 principal submatrices of a 4x4
# matrix, one per column (the last leaves out w), each followed by its
# first two again: in a 5x5 block S' so extended, the cofactor (r, c) of
# the 3x3 submatrix S, sign included, is
# S'[r+1, c+1] S'[r+2, c+2] - S'[r+1, c+2] S'[r+2, c+1].
_PRINCIPAL = np.array([[1, 2, 3, 1, 2], [0, 2, 3, 0, 2], [0, 1, 3, 0, 1],
                       [0, 1, 2, 0, 1]]).T


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

    ``residual`` is ||A h|| at the unit-norm lift h = [x; 1] / ||[x; 1]||
    of the returned point: the DLT objective there. It is never below
    the smallest singular value of A, which ``triangulate_dlt`` reports.

    ``degenerate`` marks the points whose observations do not determine
    a point: a zero or non-finite DLT row (as from a non-finite uv), or
    rank(A) < 3. ``at_infinity`` marks the others whose rays are
    (nearly) parallel, so that BᵀB is singular, or whose solution has
    |w| < ``INFINITY_W`` on the unit lift. The two masks are disjoint.
    """

    xyz: np.ndarray          # (k, 3)
    residual: np.ndarray     # (k,) DLT objective at xyz
    degenerate: np.ndarray   # (k,) bool
    at_infinity: np.ndarray  # (k,) bool


def build_dlt_matrix(observations: Sequence[Observation2D]) -> np.ndarray:
    """Stack the two independent DLT rows per observation into a (2m, 4) matrix.

    Each row is scaled so that its first three entries have unit
    Euclidean norm, which does not depend on the world origin. Requires
    m >= 2; coincident camera centers are only detectable at solve time
    (rank check).
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
    norms = np.linalg.norm(a[:, :3], axis=1)
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
    stack of each point's own pair. Builds each point's four
    row-normalized DLT rows (ordered as in ``build_dlt_matrix``: left u,
    left v, right u, right v), fixes w = 1 and solves min ||B x + c||
    over [B | c] = A through the normal equations BᵀB x = -Bᵀc with the
    cofactor inverse of BᵀB. Failures do not raise; they are flagged in
    the returned masks.
    """
    # (k, camera, row, 4): u * k3 - k1 and v * k3 - k2 per camera.
    a = uv[..., None] * projections[..., 2:, :] - projections[..., :2, :]
    # (row, column, point), so that each entry is a contiguous (k,) array.
    a = np.ascontiguousarray(a.reshape(-1, 16).T).reshape(4, 4, -1)
    sq = a[:, :3] * a[:, :3]
    norms = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])
    # A NaN norm (from a non-finite uv) fails the comparison.
    degenerate = ~((norms >= 1e-300) & (norms < np.inf)).all(axis=0)
    if degenerate.any():
        # Keep the arithmetic finite; these points' results are discarded.
        a[:, :, degenerate] = np.eye(4)[..., None]
        norms[:, degenerate] = 1.0
    a /= norms[:, None]
    # Gram matrix AᵀA, (4, 4, k): the rows' outer products in row order.
    p = a[:, :, None] * a[:, None, :]
    gram = p[0] + p[1] + p[2] + p[3]
    # Its four 3x3 principal submatrices, extended to (5, 5, 4, k); the
    # last is BᵀB. Their cofactors, (3, 3, 4, k), and determinants.
    sub = gram[_PRINCIPAL[:, None], _PRINCIPAL[None, :]]
    cof = sub[1:4, 1:4] * sub[2:, 2:] - sub[1:4, 2:] * sub[2:, 1:4]
    p = sub[0, :3] * cof[0]
    minors = p[0] + p[1] + p[2]
    # rank(A) < 3 iff AᵀA's 3x3 principal minors sum to zero.
    scale = gram[0, 0] + gram[1, 1] + gram[2, 2] + gram[3, 3]
    degenerate |= (minors[0] + minors[1] + minors[2] + minors[3]
                   <= GRAM_RTOL * (scale * scale * scale))
    det = minors[3]
    trace = gram[0, 0] + gram[1, 1] + gram[2, 2]
    # A singular BᵀB: rays that are parallel or nearly so.
    at_infinity = det <= GRAM_RTOL * (trace * trace * trace)
    flagged = degenerate | at_infinity
    if flagged.any():
        det[flagged] = 1.0
    # x = -adj(BᵀB) Bᵀc / det(BᵀB); the adjugate is the (symmetric) cofactor matrix.
    p = cof[:, :, 3] * gram[:3, 3]
    x = (p[:, 0] + p[:, 1] + p[:, 2]) / -det
    xx = x * x
    lift = 1.0 + xx[0] + xx[1] + xx[2]
    # |w| < INFINITY_W on the unit lift [x, 1] / ||[x, 1]||.
    at_infinity |= lift * (INFINITY_W * INFINITY_W) > 1.0
    at_infinity &= ~degenerate
    r = a[:, :3] * x
    r = r[:, 0] + r[:, 1] + r[:, 2] + a[:, 3]
    r *= r
    residual = np.sqrt((r[0] + r[1] + r[2] + r[3]) / lift)
    xyz = x.T.copy()
    flagged = degenerate | at_infinity
    if flagged.any():
        xyz[flagged] = np.nan
        residual[flagged] = np.nan
    return StereoTriangulation(xyz=xyz, residual=residual, degenerate=degenerate,
                               at_infinity=at_infinity)
