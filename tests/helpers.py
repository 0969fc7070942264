"""Shared test utilities: committed scenarios, random geometry and
independent solvers.

The solvers here deliberately avoid the code paths used by the package
(no SVD for the triangulation oracle, no normal-equations prefactor for
the fusion oracle) so that agreement between package and oracle checks
the math, not the implementation.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

from ergofusion.cameras import CameraModel, look_at_rotation
from ergofusion.recording import STREAM_FIELDS, SegmentRecording, columns_table
from ergofusion.scenario import ScenarioConfig, parse_scenario
from ergofusion.triangulate import Observation2D

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def committed_scenario(stem: str = "desk_handover", /, noise_sigma=None,
                       duration_scale: float = 1.0, **fields) -> ScenarioConfig:
    """``scenarios/<stem>.yaml`` with some fields replaced, validated as a file.

    ``noise_sigma`` is one value for every rig or one per rig,
    ``duration_scale`` multiplies every phase duration, and each other
    keyword replaces that top-level key.
    """
    data = yaml.safe_load((SCENARIO_DIR / f"{stem}.yaml").read_text())
    if noise_sigma is not None:
        sigmas = np.broadcast_to(noise_sigma, len(data["rigs"]))
        for rig, sigma in zip(data["rigs"], sigmas):
            rig["noise_sigma"] = float(sigma)
    for phase in data["motion"]:
        phase["duration"] *= duration_scale
    data.update(fields)
    return parse_scenario(data, name=stem)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation from the QR of a Gaussian matrix."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_camera_ring(rng: np.random.Generator, n_cameras: int,
                       target=(0.0, 0.0, 0.0), radius_range=(1.5, 3.0),
                       height_range=(0.5, 2.0)) -> list[CameraModel]:
    """Cameras scattered on a ring, all aimed at ``target``."""
    cams = []
    target = np.asarray(target, dtype=float)
    for i in range(n_cameras):
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        radius = rng.uniform(*radius_range)
        position = target + np.array([radius * np.cos(azimuth),
                                      radius * np.sin(azimuth),
                                      rng.uniform(*height_range)])
        rotation = look_at_rotation(position, target)
        cams.append(CameraModel.from_pose(f"cam{i}", rotation, position))
    return cams


def noisy_observations(cams, point, sigma, rng) -> list[Observation2D]:
    obs = []
    for cam in cams:
        uv = cam.project(point) + rng.normal(0.0, sigma, size=2)
        obs.append(Observation2D(cam.id, uv, cam.projection))
    return obs


def _unit_h(p: np.ndarray) -> np.ndarray:
    h = np.append(p, 1.0)
    return h / np.linalg.norm(h)


def dlt_objective(a: np.ndarray, p: np.ndarray) -> float:
    """||A h|| at the unit-norm homogeneous lift of p."""
    return float(np.linalg.norm(a @ _unit_h(p)))


def triangulation_oracle(a: np.ndarray, p_start: np.ndarray,
                         span: float = 0.05, grid: int = 5,
                         iterations: int = 80) -> np.ndarray:
    """Minimize ||A h|| over unit-norm h via grid search plus Gauss-Newton.

    Parametrizes h by the dehomogenized point p, searches a coarse cube
    around ``p_start``, then runs damped Gauss-Newton with a numeric
    Jacobian on the residual r(p) = A h(p).
    """
    offsets = np.linspace(-span, span, grid)
    best_p, best_f = None, np.inf
    for dx in offsets:
        for dy in offsets:
            for dz in offsets:
                p = p_start + np.array([dx, dy, dz])
                f = dlt_objective(a, p)
                if f < best_f:
                    best_p, best_f = p, f
    p = np.array(best_p, dtype=float)

    def residual(q: np.ndarray) -> np.ndarray:
        return a @ _unit_h(q)

    lam = 1e-12
    for _ in range(iterations):
        r0 = residual(p)
        jac = np.empty((len(r0), 3))
        eps = 1e-7
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = eps
            jac[:, j] = (residual(p + dp) - residual(p - dp)) / (2.0 * eps)
        g = jac.T @ r0
        hessian = jac.T @ jac + lam * np.eye(3)
        step = np.linalg.solve(hessian, -g)
        if not np.all(np.isfinite(step)):
            break
        new_p = p + step
        if dlt_objective(a, new_p) <= dlt_objective(a, p):
            p = new_p
            lam = max(lam / 4.0, 1e-14)
        else:
            lam = lam * 10.0
        if np.linalg.norm(step) < 1e-14:
            break
    return p


def qr_least_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solve via explicit QR (independent of lstsq/SVD)."""
    q, r = np.linalg.qr(a)
    return np.linalg.solve(r, q.T @ b)


def random_visibility(rng: np.random.Generator, n_cameras: int,
                      n_landmarks: int, density: float = 0.6) -> np.ndarray:
    """Random camera/landmark visibility with full row/column coverage."""
    vis = rng.random((n_cameras, n_landmarks)) < density
    for j in range(n_landmarks):
        if not vis[:, j].any():
            vis[rng.integers(n_cameras), j] = True
    for i in range(n_cameras):
        if not vis[i].any():
            vis[i, rng.integers(n_landmarks)] = True
    return vis


def rows_table(fields, rows) -> np.ndarray:
    """The table of tuple ``rows`` under typed ``fields``, in the rows' order."""
    return columns_table(fields, len(rows), zip(*rows))


def rows_recording(manifest: dict, rows: dict[str, list]) -> SegmentRecording:
    """A recording of tuple rows by stream name, each stream sorted as recorded."""
    return SegmentRecording(manifest, {
        name: SegmentRecording.sort(rows_table(fields, rows.get(name, [])))
        for name, fields in STREAM_FIELDS.items()})
