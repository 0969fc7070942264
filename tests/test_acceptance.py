"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
the captured output) and asserts the criterion. Expensive experiments
are shared through module-scoped fixtures; their wall time is budgeted
inside the owning criterion.
"""

import time

import numpy as np
import pytest

from ergofusion.evaluate import rmse_report, rula_compare_many
from ergofusion.fusion import AnchorSet, build_topology, fuse, prefactor
from ergofusion.pipeline import run_scenario
from ergofusion.rula import RulaAdjustments, rula_score
from ergofusion.triangulate import build_dlt_matrix, triangulate_dlt

from helpers import (committed_scenario, noisy_observations, random_camera_ring,
                     random_visibility, triangulation_oracle)
from test_rula import TestMonotonicity as _Monotonicity
from test_rula import TestSideHandling as _SideHandling
from test_rula import angles

STATURE_GRID = tuple(round(1.50 + 0.05 * i, 2) for i in range(11))
GRID_SEEDS = (0, 1, 2, 3, 4)
RMSE_SEEDS = tuple(range(20))


def report(index: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {index}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def grid_experiment():
    """Paired pre/post runs over ``stature_grid.yaml``, five seeds each."""
    t0 = time.perf_counter()
    configs = committed_scenario("stature_grid").expand_statures()
    assert tuple(config.stature for config in configs) == STATURE_GRID
    pairs = []
    for config in configs:
        for seed in GRID_SEEDS:
            recording = run_scenario(config, seed=seed)
            pairs.append((recording.segments["pre"], recording.segments["post"]))
    comparison = rula_compare_many(pairs)
    return comparison, time.perf_counter() - t0


@pytest.fixture(scope="module")
def rmse_experiment():
    """``desk_rmse.yaml``, the unequal-noise accuracy experiment: 500 frames
    x 20 seeds."""
    t0 = time.perf_counter()
    config = committed_scenario("desk_rmse")
    tables = []
    for seed in RMSE_SEEDS:
        recording = run_scenario(config, seed=seed)
        tables.append(rmse_report(recording.segments["pre"]).rmse)
    return np.array(tables), time.perf_counter() - t0


def test_criterion_1_exact_reconstruction():
    t0 = time.perf_counter()
    config = committed_scenario(noise_sigma=0.0, adapt=False)
    recording = run_scenario(config, seed=0)
    segment = recording.segments["pre"]
    assert segment.manifest["frames"] == 100
    table = rmse_report(segment)
    worst = float(table.rmse.max())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    report(1, "exact reconstruction with zero noise", ok,
           f"max per-landmark RMSE {worst:.3e} m, {elapsed:.2f} s")
    assert worst < 1e-6
    assert elapsed < 5.0


def test_criterion_2_fusion_tracks_best_rig(rmse_experiment):
    tables, elapsed = rmse_experiment
    median = np.median(tables, axis=0)          # (sources, landmarks)
    rig_med, fusion_med = median[:-1], median[-1]
    best = rig_med.min(axis=0)
    worst = rig_med.max(axis=0)

    never_worse = bool(np.all(fusion_med <= worst))
    near_best = int(np.sum(fusion_med <= 1.10 * best))
    strictly_better = int(np.sum(fusion_med < best))
    ok = (never_worse and near_best >= 10 and strictly_better >= 1
          and elapsed < 120.0)
    report(2, "fusion close to the best rig under unequal noise", ok,
           f"<=worst: {never_worse}, within 10% of best: {near_best}/12, "
           f"strictly better: {strictly_better}/12, {elapsed:.1f} s")
    assert never_worse
    assert near_best >= 10
    assert strictly_better >= 1
    assert elapsed < 120.0


def test_criterion_3_fusion_matches_dense_least_squares():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 21))
        vis = random_visibility(rng, m, n)
        topo = build_topology(vis)
        solver = prefactor(topo)
        k = n + m
        b = rng.normal(size=(2 * k, 3))
        anchors = AnchorSet(landmark_anchors=b[k:k + n], camera_anchors=b[k + n:],
                            topology_hash=topo.topology_hash)
        got = fuse(solver, b[:k], anchors)
        want, *_ = np.linalg.lstsq(solver.stacked, b, rcond=None)
        rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-30)
        worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-9 and elapsed < 10.0
    report(3, "graph fusion equals generic least squares", ok,
           f"max relative error {worst_rel:.3e}, {elapsed:.2f} s")
    assert worst_rel <= 1e-9
    assert elapsed < 10.0


def test_criterion_4_dlt_matches_nonlinear_minimizer():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        n_cams = int(rng.integers(2, 7))
        cams = random_camera_ring(rng, n_cams)
        point = rng.normal(scale=0.3, size=3)
        sigma = float(rng.uniform(0.0, 0.005))
        obs = noisy_observations(cams, point, sigma, rng)
        got = triangulate_dlt(obs).xyz
        oracle = triangulation_oracle(build_dlt_matrix(obs), point, span=0.08)
        worst = max(worst, float(np.linalg.norm(got - oracle)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report(4, "DLT equals constrained nonlinear minimizer", ok,
           f"max |difference| {worst:.3e} m over 200 configs, {elapsed:.1f} s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_5_adaptation_improves_every_stature(grid_experiment):
    comparison, elapsed = grid_experiment
    by_stature = comparison.mean_grand_by_stature()
    assert set(by_stature) == set(STATURE_GRID)
    regressions = {s: (pre, post) for s, (pre, post) in by_stature.items()
                   if post > pre + 1e-12}
    pre_means = {s: pre for s, (pre, _) in by_stature.items()}
    argmin = min(pre_means, key=pre_means.get)
    others = [v for s, v in pre_means.items() if s != 1.75]
    strictly_lowest = pre_means[1.75] < min(others)
    ok = (not regressions and argmin == 1.75 and strictly_lowest
          and elapsed < 120.0)
    report(5, "robot adaptation improves all statures", ok,
           f"regressions: {sorted(regressions)}, pre-minimum at {argmin}, "
           f"{elapsed:.1f} s")
    assert not regressions, f"post > pre at {regressions}"
    assert argmin == 1.75 and strictly_lowest
    assert elapsed < 120.0


def test_criterion_6_neck_and_lower_arms_improve_most(grid_experiment):
    comparison, _ = grid_experiment
    improvements = comparison.area_improvements()
    ranked = sorted(improvements, key=improvements.get, reverse=True)
    top_two = set(ranked[:2])
    ok = (top_two <= {"neck", "lower_arm", "upper_arm"}
          and improvements["neck"] > 0.0 and improvements["lower_arm"] > 0.0)
    detail = ", ".join(f"{a}={improvements[a]:+.4f}" for a in ranked)
    report(6, "largest area improvements in neck/lower arms", ok, detail)
    assert top_two <= {"neck", "lower_arm", "upper_arm"}, ranked
    assert improvements["neck"] > 0.0
    assert improvements["lower_arm"] > 0.0


def test_criterion_7_worksheet_fixtures_and_properties():
    t0 = time.perf_counter()
    assert rula_score(angles()).grand == 1
    assert rula_score(angles(upper_arm_left=50.0, upper_arm_right=50.0,
                             neck=15.0, trunk=25.0)).grand == 4
    assert rula_score(
        angles(upper_arm_left=120.0, upper_arm_right=120.0,
               lower_arm_left=30.0, lower_arm_right=30.0,
               wrist_left=20.0, wrist_right=20.0,
               neck=-10.0, trunk=70.0, legs_supported=False),
        RulaAdjustments(wrist_twist=2)).grand == 7
    _Monotonicity().test_increasing_any_flexion_never_lowers_grand(10_000)
    _SideHandling().test_mirror_symmetry()
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report(7, "worksheet fixtures plus 10k-sample property suites", ok,
           f"grand in {{1, 4, 7}} verified, {elapsed:.1f} s")
    assert elapsed < 10.0


def test_criterion_8_real_time_budget():
    config = committed_scenario("desk_rmse", duration_scale=2.0)   # 1000 frames
    recording = run_scenario(config, seed=0)
    stats = recording.segments["pre"].manifest["stats"]
    mean_ms = stats["mean_frame_processing_ms"]
    prefactors = stats["prefactor_count"]
    frames = recording.segments["pre"].manifest["frames"]
    ok = frames == 1000 and mean_ms < 10.0 and prefactors == 1
    report(8, "10 Hz real-time budget with one-time prefactorization", ok,
           f"mean {mean_ms:.2f} ms/frame over {frames} frames, "
           f"prefactorizations: {prefactors}")
    assert frames == 1000
    assert mean_ms < 10.0, f"{mean_ms:.2f} ms exceeds the 10 ms budget"
    assert prefactors == 1


def test_criterion_9_deterministic_recordings():
    config = committed_scenario(stature=1.85, noise_sigma=0.002)
    digests = {}
    for scheduler in ("serial", "threads"):
        runs = [run_scenario(config, seed=123, scheduler=scheduler)
                for _ in range(2)]
        for name in ("pre", "post"):
            first = runs[0].segments[name].digest()
            second = runs[1].segments[name].digest()
            assert first == second, f"{scheduler}/{name} not reproducible"
            digests[(scheduler, name)] = first
    cross = all(digests[("serial", n)] == digests[("threads", n)]
                for n in ("pre", "post"))
    report(9, "bitwise identical recordings per seed and scheduler", cross,
           f"serial == threads: {cross}")
    assert cross
