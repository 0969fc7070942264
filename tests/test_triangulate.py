import numpy as np
import pytest

from ergofusion.cameras import CameraModel
from ergofusion.triangulate import (DegenerateGeometryError,
                                    InsufficientViewsError, Observation2D,
                                    PointAtInfinityError, build_dlt_matrix,
                                    triangulate_dlt, triangulate_stereo)

from helpers import (dlt_objective, noisy_observations, random_camera_ring,
                     random_rotation, triangulation_oracle)


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
    if cam2.depth(point) <= 0:
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
    """The batched two-view solve against ``triangulate_dlt``, point by point."""

    @staticmethod
    def assert_matches_reference(proj_left, proj_right, uv_left, uv_right):
        """Bitwise-equal xyz and residual; masks exactly where the reference raises."""
        result = triangulate_stereo(uv_left, uv_right, proj_left, proj_right)
        k = len(uv_left)
        xyz = np.full((k, 3), np.nan)
        residual = np.full(k, np.nan)
        degenerate = np.zeros(k, dtype=bool)
        at_infinity = np.zeros(k, dtype=bool)
        for i in range(k):
            try:
                point = triangulate_dlt((Observation2D("L", uv_left[i], proj_left),
                                         Observation2D("R", uv_right[i], proj_right)))
            except DegenerateGeometryError:
                degenerate[i] = True
            except PointAtInfinityError:
                at_infinity[i] = True
            else:
                xyz[i] = point.xyz
                residual[i] = point.residual_norm
        np.testing.assert_array_equal(result.xyz, xyz)
        np.testing.assert_array_equal(result.residual, residual)
        np.testing.assert_array_equal(result.degenerate, degenerate)
        np.testing.assert_array_equal(result.at_infinity, at_infinity)
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
        result = self.assert_matches_reference(
            cams[0].projection, cams[1].projection,
            np.array([o[0].uv for o in obs]), np.array([o[1].uv for o in obs]))
        assert not result.degenerate.any() and not result.at_infinity.any()

    def test_coincident_centers_flag_exact_rays_as_degenerate(self):
        rng = np.random.default_rng(11)
        point = np.array([0.1, 0.0, 2.0])
        cams = coincident_pair(point)
        points = point + rng.uniform(-0.2, 0.2, size=(12, 3))
        uv = np.array([[c.project(p) for c in cams] for p in points])
        # Noise splits the shared ray, so half the points meet at the center.
        uv[::2] += rng.normal(0.0, 0.01, size=uv[::2].shape)
        result = self.assert_matches_reference(cams[0].projection, cams[1].projection,
                                               uv[:, 0], uv[:, 1])
        np.testing.assert_array_equal(result.degenerate, np.arange(12) % 2 == 1)

    def test_zero_uv_flags_points_at_infinity(self):
        rng = np.random.default_rng(12)
        left, right = stereo_pair()
        uv = rng.normal(0.0, 0.2, size=(10, 2, 2))
        uv[[1, 4, 9]] = 0.0
        result = self.assert_matches_reference(left.projection, right.projection,
                                               uv[:, 0], uv[:, 1])
        np.testing.assert_array_equal(np.flatnonzero(result.at_infinity), [1, 4, 9])

    def test_zero_dlt_row_is_degenerate(self):
        left, _ = stereo_pair()
        uv = np.full((3, 2), 0.1)
        result = self.assert_matches_reference(left.projection, np.zeros((3, 4)), uv, uv)
        assert result.degenerate.all()

    def test_non_finite_uv_is_degenerate(self):
        left, right = stereo_pair()
        uv = np.full((3, 2), 0.1)
        uv[1, 0] = uv[2, 1] = np.nan
        result = triangulate_stereo(uv, uv - 0.2, left.projection, right.projection)
        np.testing.assert_array_equal(result.degenerate, [False, True, True])
        assert np.isnan(result.xyz[1:]).all()
