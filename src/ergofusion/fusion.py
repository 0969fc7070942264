"""Graph-Laplacian fusion of per-camera landmark estimates.

Landmarks and cameras form one bipartite undirected graph (no
landmark-landmark or camera-camera edges), landmarks first. On its
row-normalized Laplacian L (diagonal 1, -1/deg on neighbor columns) the
per-frame fusion solves the anchor-regularized least squares

    minimize || [L; I] x - [delta; anchors] ||^2

where delta are the differential coordinates of the measured anchor
configuration (each node minus the mean of its graph neighbors) and the
anchors stack the per-landmark cross-camera means over the known camera
positions. The topology is fixed for a run, so the solve is prefactored
once into the pseudo-inverse of the stacked system and applied per frame
as a single matrix product.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class FusionError(ValueError):
    """Base class for fusion input errors."""


class UncoveredLandmarkError(FusionError):
    """A landmark is observed by no camera."""


class InconsistentEstimatesError(FusionError):
    """Estimates missing (or non-finite) where visibility claims coverage."""


class StaleSolverError(FusionError):
    """A prefactored solver was applied to data from a different topology."""


@lru_cache(maxsize=256)
def _visibility_summary(shape: tuple[int, ...],
                        data: bytes) -> tuple[np.ndarray, bool, str]:
    """A bool matrix's column counts, whether it is all true, and its hash.

    Memoized: a run applies one visibility matrix to every frame.
    """
    visibility = np.frombuffer(data, dtype=bool).reshape(shape)
    counts = visibility.sum(axis=0)
    counts.setflags(write=False)
    digest = hashlib.sha256()
    digest.update(str(shape).encode())
    digest.update(data)
    return counts, bool(visibility.all()), digest.hexdigest()


def _visibility_hash(visibility: np.ndarray) -> str:
    v = np.ascontiguousarray(visibility, dtype=bool)
    return _visibility_summary(v.shape, v.tobytes())[2]


@dataclass(frozen=True)
class FusionTopology:
    """Bipartite visibility graph and its row-normalized Laplacian.

    Node order: the N landmarks, then the M cameras. ``adjacency`` is the
    M x N camera-observes-landmark matrix; ``laplacian`` is
    (N+M) x (N+M) with each row summing to zero.
    """

    n_landmarks: int
    n_cameras: int
    adjacency: np.ndarray
    laplacian: np.ndarray
    topology_hash: str

    @property
    def n_nodes(self) -> int:
        return self.n_landmarks + self.n_cameras


def build_topology(visibility: np.ndarray) -> FusionTopology:
    """Build the fusion graph from an M x N camera/landmark visibility matrix.

    Raises
    ------
    UncoveredLandmarkError
        If some landmark column has no observing camera (the landmark
        would be disconnected and its differential coordinate undefined).
    FusionError
        If some camera row observes no landmark at all.
    """
    vis = np.asarray(visibility, dtype=bool)
    if vis.ndim != 2:
        raise FusionError(f"visibility must be 2-D (cameras x landmarks), got {vis.shape}")
    m, n = vis.shape
    uncovered = np.flatnonzero(~vis.any(axis=0))
    if uncovered.size:
        raise UncoveredLandmarkError(
            f"landmark(s) {uncovered.tolist()} observed by no camera")
    idle = np.flatnonzero(~vis.any(axis=1))
    if idle.size:
        raise FusionError(f"camera(s) {idle.tolist()} observe no landmark")

    # Bipartite adjacency over N+M nodes, landmarks first.
    adj = np.zeros((n + m, n + m), dtype=float)
    adj[:n, n:] = vis.T
    adj[n:, :n] = vis
    deg = adj.sum(axis=1)
    lap = np.eye(n + m) - adj / deg[:, None]
    return FusionTopology(n_landmarks=n, n_cameras=m, adjacency=vis,
                          laplacian=lap, topology_hash=_visibility_hash(vis))


@dataclass(frozen=True)
class AnchorSet:
    """Per-landmark cross-camera mean positions plus known camera positions."""

    landmark_anchors: np.ndarray
    camera_anchors: np.ndarray
    topology_hash: str

    @cached_property
    def configuration(self) -> np.ndarray:
        """The stacked (N+M) x 3 anchor configuration, landmarks first.

        Stacked once per anchor set: the per-frame delta and solve share it.
        """
        return np.concatenate((self.landmark_anchors, self.camera_anchors))


def compute_anchors(estimates: np.ndarray, visibility: np.ndarray,
                    camera_positions: np.ndarray) -> AnchorSet:
    """Average per-camera landmark estimates into anchor positions.

    Parameters
    ----------
    estimates : (M, N, 3) array
        Per-camera 3D estimates; entries where ``visibility`` is False
        are ignored (may be NaN).
    visibility : (M, N) bool array
        Which camera contributed an estimate for which landmark.
    camera_positions : (M, 3) array
        Known camera positions, copied through as camera anchors.
    """
    est = np.asarray(estimates, dtype=float)
    vis = np.asarray(visibility, dtype=bool)
    cams = np.asarray(camera_positions, dtype=float)
    if est.ndim != 3 or est.shape[2] != 3 or est.shape[:2] != vis.shape:
        raise FusionError(
            f"estimates shape {est.shape} does not match visibility {vis.shape}")
    if cams.shape != (vis.shape[0], 3):
        raise FusionError(
            f"camera_positions must be ({vis.shape[0]}, 3), got {cams.shape}")
    counts, full, topology_hash = _visibility_summary(vis.shape, vis.tobytes())
    if not counts.all():
        raise UncoveredLandmarkError(
            f"landmark(s) {np.flatnonzero(counts == 0).tolist()} have no estimate")
    summed = (est if full else np.where(vis[:, :, None], est, 0.0)).sum(axis=0)
    landmark_anchors = summed / counts[:, None]
    # A non-finite estimate that visibility counts makes its anchor non-finite,
    # so the per-estimate check runs only for a non-finite anchor.
    if not np.isfinite(landmark_anchors).all():
        bad = vis & ~np.isfinite(est).all(axis=2)
        if bad.any():
            cam_idx, lm_idx = np.nonzero(bad)
            raise InconsistentEstimatesError(
                f"missing estimate where visibility claims coverage: "
                f"camera/landmark pairs {list(zip(cam_idx.tolist(), lm_idx.tolist()))}")
    return AnchorSet(landmark_anchors=landmark_anchors,
                     camera_anchors=cams.copy(),
                     topology_hash=topology_hash)


def compute_delta(topology: FusionTopology, configuration: np.ndarray) -> np.ndarray:
    """Differential coordinates L @ configuration of an (N+M) x 3 configuration.

    In the per-frame pipeline the configuration is the anchor
    configuration [landmark means; camera positions], the one measured
    full configuration available.
    """
    conf = np.asarray(configuration, dtype=float)
    if conf.shape != (topology.n_nodes, 3):
        raise FusionError(
            f"configuration must be ({topology.n_nodes}, 3), got {conf.shape}")
    return topology.laplacian @ conf


@dataclass(frozen=True)
class FusionSolver:
    """One-time prefactorization of the stacked least-squares system.

    ``stacked`` is [L; I] of shape 2(N+M) x (N+M); ``prefactor`` its
    left pseudo-inverse (stacked^T stacked)^-1 stacked^T, computed once
    per topology and reused for every frame.
    """

    stacked: np.ndarray
    prefactor: np.ndarray
    topology_hash: str
    n_landmarks: int
    n_cameras: int


def prefactor(topology: FusionTopology) -> FusionSolver:
    """Assemble and invert the stacked system for ``topology``.

    The identity block guarantees full column rank, and the normal matrix
    L^T L + I is symmetric positive definite with eigenvalues >= 1, so a
    dense solve is well conditioned at these sizes.
    """
    lap = topology.laplacian
    k = topology.n_nodes
    stacked = np.vstack([lap, np.eye(k)])
    gram = stacked.T @ stacked
    pre = np.linalg.solve(gram, stacked.T)
    return FusionSolver(stacked=stacked, prefactor=pre,
                        topology_hash=topology.topology_hash,
                        n_landmarks=topology.n_landmarks,
                        n_cameras=topology.n_cameras)


def fuse(solver: FusionSolver, delta: np.ndarray, anchors: AnchorSet) -> np.ndarray:
    """Apply a prefactored solver to one frame's delta and anchors.

    Returns the (N+M) x 3 optimized configuration: fused landmarks in the
    first N rows, re-estimated camera positions (diagnostic only) in the
    last M.

    Raises
    ------
    StaleSolverError
        If the anchors were computed under a different visibility
        topology than the solver was prefactored for.
    """
    if anchors.topology_hash != solver.topology_hash:
        raise StaleSolverError(
            "anchor set topology does not match the prefactored solver; "
            "rebuild the solver after any visibility change")
    k = solver.n_landmarks + solver.n_cameras
    d = np.asarray(delta, dtype=float)
    if d.shape != (k, 3):
        raise FusionError(f"delta must be ({k}, 3), got {d.shape}")
    return solver.prefactor @ np.concatenate((d, anchors.configuration))
