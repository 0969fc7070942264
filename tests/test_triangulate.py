import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ergofusion.cameras import CameraModel
from ergofusion.triangulate import (DegenerateGeometryError,
                                    InsufficientViewsError, Observation2D,
                                    PointAtInfinityError, StereoTriangulation,
                                    build_dlt_matrix, solve_pairs, triangulate_dlt)

from helpers import (assert_solves_rows, dlt_objective, noisy_observations,
                     random_camera_ring, random_rotation, triangulation_oracle)


def stereo_pair(baseline=0.5):
    left = CameraModel("L", np.eye(3), np.zeros(3))
    right = CameraModel("R", np.eye(3), np.array([-baseline, 0.0, 0.0]))
    return left, right


def exact_observations(cams, point):
    return [Observation2D(c.id, c.project(point), c.projection) for c in cams]


class TestBuildDltMatrix:
    def test_two_views_give_four_rows(self):
        point = np.array([0.1, 0.2, 3.0])
        a = build_dlt_matrix(exact_observations(stereo_pair(), point))
        assert a.shape == (4, 4)

    def test_m_views_give_2m_rows(self):
        rng = np.random.default_rng(1)
        point = np.array([0.1, -0.3, 0.4])
        for m in (2, 3, 5, 6):
            cams = random_camera_ring(rng, m)
            a = build_dlt_matrix(exact_observations(cams, point))
            assert a.shape == (2 * m, 4)

    def test_rows_are_unit_norm(self):
        rng = np.random.default_rng(2)
        cams = random_camera_ring(rng, 3)
        a = build_dlt_matrix(exact_observations(cams, np.zeros(3)))
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)

    def test_consistent_observation_annihilates_point(self):
        rng = np.random.default_rng(3)
        point = np.array([0.25, -0.1, 0.3])
        cams = random_camera_ring(rng, 4)
        a = build_dlt_matrix(exact_observations(cams, point))
        np.testing.assert_allclose(a @ np.append(point, 1.0), 0.0, atol=1e-12)

    def test_fewer_than_two_views_rejected(self):
        cam = CameraModel("c", np.eye(3), np.zeros(3))
        obs = Observation2D("c", np.zeros(2), cam.projection)
        with pytest.raises(InsufficientViewsError):
            build_dlt_matrix([obs])
        with pytest.raises(InsufficientViewsError):
            build_dlt_matrix([])


class TestTriangulateDlt:
    def test_noiseless_stereo_recovery(self):
        point = np.array([0.3, -0.2, 2.5])
        result = triangulate_dlt(exact_observations(stereo_pair(), point))
        np.testing.assert_allclose(result.xyz, point, atol=1e-9)
        assert result.n_views == 2

    def test_six_camera_noiseless_recovery(self):
        rng = np.random.default_rng(4)
        point = np.array([0.05, 0.1, 0.2])
        cams = random_camera_ring(rng, 6)
        result = triangulate_dlt(exact_observations(cams, point))
        assert result.residual_norm < 1e-10
        np.testing.assert_allclose(result.xyz, point, atol=1e-9)
        assert result.n_views == 6

    def test_noisy_stereo_matches_nonlinear_oracle(self):
        rng = np.random.default_rng(5)
        point = np.array([0.3, -0.2, 2.5])
        obs = noisy_observations(stereo_pair(), point, 0.002, rng)
        result = triangulate_dlt(obs)
        oracle = triangulation_oracle(build_dlt_matrix(obs), result.xyz + 0.01)
        np.testing.assert_allclose(result.xyz, oracle, atol=1e-6)

    def test_coincident_camera_centers_degenerate(self):
        # Two cameras sharing a center constrain only a ray.
        point = np.array([0.1, 0.0, 2.0])
        with pytest.raises(DegenerateGeometryError):
            triangulate_dlt(exact_observations(coincident_pair(point), point))

    def test_parallel_rays_hit_infinity(self):
        left, right = stereo_pair()
        obs = [Observation2D("L", np.zeros(2), left.projection),
               Observation2D("R", np.zeros(2), right.projection)]
        with pytest.raises(PointAtInfinityError):
            triangulate_dlt(obs)


def coincident_pair(point):
    """Two cameras sharing one center, both in front of ``point``."""
    rng = np.random.default_rng(6)
    center = np.array([0.0, 0.0, -1.0])
    cam1 = CameraModel.from_pose("a", np.eye(3), center)
    cam2 = CameraModel.from_pose("b", random_rotation(rng) @ _small_rot(), center)
    if cam2.project_many(point[None])[1][0] <= 0:
        cam2 = CameraModel.from_pose("b", _small_rot(), center)
    return cam1, cam2


def _small_rot():
    a = 0.05
    return np.array([[np.cos(a), -np.sin(a), 0.0],
                     [np.sin(a), np.cos(a), 0.0],
                     [0.0, 0.0, 1.0]])


class TestInvariants:
    def test_scale_invariance_of_observation_rows(self):
        # Scaling a camera's projection matrix rescales its two rows;
        # row normalization makes the recovered point invariant.
        rng = np.random.default_rng(7)
        point = np.array([0.2, 0.1, 0.05])
        cams = random_camera_ring(rng, 3)
        obs = noisy_observations(cams, point, 0.001, rng)
        base = triangulate_dlt(obs).xyz
        for scale in (1e-3, 7.0, 1e4):
            scaled = [Observation2D(o.camera_id, o.uv, scale * o.projection)
                      if i == 1 else o for i, o in enumerate(obs)]
            np.testing.assert_allclose(triangulate_dlt(scaled).xyz, base, atol=1e-9)

    def test_consistent_views_never_hurt(self):
        rng = np.random.default_rng(8)
        point = np.array([-0.1, 0.25, 0.4])
        cams = random_camera_ring(rng, 6)
        obs = exact_observations(cams, point)
        for m in range(2, 7):
            xyz = triangulate_dlt(obs[:m]).xyz
            assert np.linalg.norm(xyz - point) < 1e-9

    def test_residual_equals_objective_at_solution(self):
        rng = np.random.default_rng(9)
        point = np.array([0.3, -0.2, 2.5])
        obs = noisy_observations(stereo_pair(), point, 0.003, rng)
        result = triangulate_dlt(obs)
        a = build_dlt_matrix(obs)
        assert abs(dlt_objective(a, result.xyz) - result.residual_norm) < 1e-10


class TestTriangulateStereo:
    """The batched two-view ``solve_pairs`` point by point: flagged where
    ``triangulate_dlt`` raises, otherwise the least-squares point and the
    DLT objective there."""

    @staticmethod
    def assert_solves_each_point(projections, uv):
        """Masks exactly where the reference raises; elsewhere xyz and the
        residual as ``assert_solves_rows`` on the same DLT rows.

        ``uv`` is (k, 2, 2) and finite; ``projections`` is one (2, 3, 4)
        pair or a (k, 2, 3, 4) stack, one pair per point.
        """
        result = solve_pairs(uv, projections)
        k = len(uv)
        if np.ndim(projections) == 3:
            projections = [projections] * k
        degenerate = np.zeros(k, dtype=bool)
        at_infinity = np.zeros(k, dtype=bool)
        solved = {}
        for i in range(k):
            obs = (Observation2D("L", uv[i, 0], projections[i][0]),
                   Observation2D("R", uv[i, 1], projections[i][1]))
            try:
                triangulate_dlt(obs)
            except DegenerateGeometryError:
                degenerate[i] = True
            except PointAtInfinityError:
                at_infinity[i] = True
            else:
                solved[i] = build_dlt_matrix(obs)
        np.testing.assert_array_equal(result.degenerate, degenerate)
        np.testing.assert_array_equal(result.at_infinity, at_infinity)
        flagged = degenerate | at_infinity
        assert np.isnan(result.xyz[flagged]).all() and np.isnan(result.residual[flagged]).all()
        for i, a in solved.items():
            assert_solves_rows(a, result.xyz[i], result.residual[i])
        return result

    @pytest.mark.parametrize("seed", range(25))
    def test_random_pairs_equal_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        if seed % 2:
            cams = random_camera_ring(rng, 2)
            points = rng.uniform(-0.5, 0.5, size=(rng.integers(1, 40), 3))
        else:
            cams = stereo_pair(baseline=rng.uniform(0.1, 1.0))
            points = rng.uniform((-1.0, -1.0, 1.0), (1.0, 1.0, 4.0),
                                 size=(rng.integers(1, 40), 3))
        sigma = rng.choice([0.0, 0.001, 0.01])
        obs = [noisy_observations(cams, p, sigma, rng) for p in points]
        result = self.assert_solves_each_point(
            np.array([c.projection for c in cams]),
            np.array([[o.uv for o in views] for views in obs]))
        assert not result.degenerate.any() and not result.at_infinity.any()
        if sigma == 0.0:
            # Seeds 3, 6, 9, 14, 20 and 22: exact observations, 109 points.
            np.testing.assert_allclose(result.xyz, points, rtol=0.0, atol=1e-9)
            assert (result.residual < 1e-12).all()

    def test_coincident_centers_flag_exact_rays_as_degenerate(self):
        result = self.assert_solves_each_point(*fixture_pairs()[0])
        np.testing.assert_array_equal(result.degenerate, np.arange(12) % 2 == 1)

    def test_zero_uv_flags_points_at_infinity(self):
        result = self.assert_solves_each_point(*fixture_pairs()[1])
        np.testing.assert_array_equal(np.flatnonzero(result.at_infinity), [1, 4, 9])

    def test_zero_dlt_row_is_degenerate(self):
        result = self.assert_solves_each_point(*fixture_pairs()[2])
        assert result.degenerate.all()

    def test_non_finite_uv_is_degenerate(self):
        projections, uv = fixture_pairs()[3]
        result = solve_pairs(uv, projections)
        np.testing.assert_array_equal(result.degenerate, [False, True, True])
        assert np.isnan(result.xyz[1:]).all()


def stacked_pairs(pairs):
    """One ``solve_pairs`` call's (projections, uv) for several pairs' points.

    ``pairs`` holds (projections, uv) per pair; the points are stacked
    pair after pair, each with its pair's (2, 3, 4) matrices.
    """
    counts = [len(uv) for _, uv in pairs]
    return (np.repeat([projections for projections, _ in pairs], counts, axis=0),
            np.concatenate([uv for _, uv in pairs]))


def fixture_pairs():
    """Failure fixtures as (projections, uv): a (2, 3, 4) pair, k points each.

    Coincident camera centers (odd points degenerate), zero uv in a
    translated pair (points 1, 4 and 9 at infinity), a zero projection (a
    zero DLT row) and non-finite uv (points 1 and 2).
    """
    rng = np.random.default_rng(11)
    point = np.array([0.1, 0.0, 2.0])
    cams = coincident_pair(point)
    points = point + rng.uniform(-0.2, 0.2, size=(12, 3))
    uv = np.array([[c.project(p) for c in cams] for p in points])
    # Noise splits the shared ray, so half the points meet at the center.
    uv[::2] += rng.normal(0.0, 0.01, size=uv[::2].shape)
    pairs = [(np.array([c.projection for c in cams]), uv)]
    stereo = np.array([c.projection for c in stereo_pair()])
    uv = np.random.default_rng(12).normal(0.0, 0.2, size=(10, 2, 2))
    uv[[1, 4, 9]] = 0.0
    pairs.append((stereo, uv))
    pairs.append((np.array([stereo[0], np.zeros((3, 4))]), np.full((3, 2, 2), 0.1)))
    uv = np.full((3, 2, 2), 0.1)
    uv[:, 1] -= 0.2
    uv[1, :, 0] = uv[2, :, 1] = np.nan
    pairs.append((stereo, uv))
    return pairs


RESULT_FIELDS = ("xyz", "residual", "degenerate", "at_infinity")


def per_pair_calls(pairs) -> StereoTriangulation:
    """One ``solve_pairs`` call per pair, results concatenated."""
    results = [solve_pairs(uv, projections) for projections, uv in pairs]
    return StereoTriangulation(*(
        np.concatenate([getattr(r, name) for r in results]) for name in RESULT_FIELDS))


def assert_same_bits(got, want):
    for name in RESULT_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestStackedProjections:
    """One call over several pairs' points, each with its own (2, 3, 4) pair."""

    @pytest.mark.parametrize("seed", range(12))
    def test_one_call_equals_per_pair_calls_and_reference(self, seed):
        rng = np.random.default_rng(400 + seed)
        pairs = []
        for _ in range(rng.integers(1, 5)):
            cams = random_camera_ring(rng, 2)
            points = rng.uniform(-0.5, 0.5, size=(15, 3))
            sigma = rng.choice([0.0, 0.001, 0.01])
            obs = [noisy_observations(cams, p, sigma, rng) for p in points]
            # A random subset of the points, as a rig's visible landmarks.
            seen = rng.random(len(points)) < rng.uniform(0.0, 1.0)
            pairs.append((np.array([c.projection for c in cams]),
                          np.array([[o.uv for o in views] for views in obs])[seen]))
        result = TestTriangulateStereo.assert_solves_each_point(*stacked_pairs(pairs))
        assert_same_bits(result, per_pair_calls(pairs))

    def test_degenerate_and_infinite_fixtures_in_one_call(self):
        pairs = fixture_pairs()
        projections, uv = stacked_pairs(pairs)
        result = solve_pairs(uv, projections)
        assert_same_bits(result, per_pair_calls(pairs))
        assert result.degenerate.sum() == 6 + 3 + 2
        np.testing.assert_array_equal(np.flatnonzero(result.at_infinity), [13, 16, 21])
        # The reference takes finite uv only: all but the last fixture's points.
        TestTriangulateStereo.assert_solves_each_point(projections[:25], uv[:25])


class TestPortableBits:
    """``solve_pairs`` uses elementwise ufuncs only, so its bits do not
    depend on the BLAS or LAPACK kernel; CI reruns this file under other
    OpenBLAS kernels (``OPENBLAS_CORETYPE``)."""

    # SHA-256 of xyz, residual, degenerate and at_infinity bytes, in that order.
    PINNED = "cfd97dfa59690351f071c745ec008b993346d4efa7a28f205d0fd4d67d34dbe2"

    def test_solve_pairs_bits_are_pinned(self):
        # Inputs from the generator alone, with no camera model (and so no
        # BLAS product) in between: 64 random pairs and their uv.
        rng = np.random.default_rng(2024)
        projections = rng.uniform(-1.0, 1.0, size=(64, 2, 3, 4))
        result = solve_pairs(rng.uniform(-0.5, 0.5, size=(64, 2, 2)), projections)
        digest = hashlib.sha256()
        for name in RESULT_FIELDS:
            digest.update(getattr(result, name).tobytes())
        assert digest.hexdigest() == self.PINNED


@st.composite
def well_conditioned_pairs(draw):
    """A verged stereo pair (baseline 0.1-1 m) and points at 1-4 m depth
    between them, with their uv noise sigma in [0, 0.01]."""
    baseline = draw(st.floats(0.1, 1.0))
    verge = draw(st.floats(0.0, 0.3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    sigma = draw(st.floats(0.0, 0.01))
    rng = np.random.default_rng(seed)
    c, s = np.cos(verge), np.sin(verge)
    # The right camera turns about its y axis toward the left one: its
    # optical axis (the rotation's last row) leans to -x.
    toward = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    cams = (CameraModel.from_pose("L", np.eye(3), np.zeros(3)),
            CameraModel.from_pose("R", toward, np.array([baseline, 0.0, 0.0])))
    depth = rng.uniform(1.0, 4.0, size=(int(rng.integers(1, 20)), 1))
    points = np.hstack((rng.uniform(-0.3, 0.3, size=(len(depth), 2)) * depth
                        + (baseline / 2.0, 0.0), depth))
    uv = np.array([[cam.project(p) for cam in cams] for p in points])
    uv += rng.normal(0.0, sigma, size=uv.shape)
    return np.array([cam.projection for cam in cams]), uv


class TestSolvePairsProperties:
    @given(pair=well_conditioned_pairs(), scale=st.floats(1e-3, 1e4))
    def test_well_conditioned_pairs(self, pair, scale):
        projections, uv = pair
        result = solve_pairs(uv, projections)
        assert not result.degenerate.any() and not result.at_infinity.any()
        for i in range(len(uv)):
            a = build_dlt_matrix([Observation2D(c, uv[i, j], projections[j])
                                  for j, c in enumerate("LR")])
            assert_solves_rows(a, result.xyz[i], result.residual[i])
        # Row normalization: one camera's matrix scale does not move a point.
        scaled = solve_pairs(uv, projections * np.array([[[1.0]], [[scale]]]))
        np.testing.assert_allclose(scaled.xyz, result.xyz, rtol=0.0, atol=1e-9)
