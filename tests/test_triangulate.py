import numpy as np
import pytest

from ergofusion.cameras import CameraModel
from ergofusion.triangulate import (DegenerateGeometryError,
                                    InsufficientViewsError, Observation2D,
                                    PointAtInfinityError, StereoTriangulation,
                                    TriangulationError, build_dlt_matrix,
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
        """Bitwise-equal xyz and residual; masks exactly where the reference raises.

        The projections are one 3x4 pair or (k, 3, 4) stacks, one pair per point.
        """
        result = triangulate_stereo(uv_left, uv_right, proj_left, proj_right)
        k = len(uv_left)
        if np.ndim(proj_left) == 2:
            proj_left, proj_right = [proj_left] * k, [proj_right] * k
        xyz = np.full((k, 3), np.nan)
        residual = np.full(k, np.nan)
        degenerate = np.zeros(k, dtype=bool)
        at_infinity = np.zeros(k, dtype=bool)
        for i in range(k):
            try:
                point = triangulate_dlt((Observation2D("L", uv_left[i], proj_left[i]),
                                         Observation2D("R", uv_right[i], proj_right[i])))
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
        result = self.assert_matches_reference(*fixture_pairs()[0])
        np.testing.assert_array_equal(result.degenerate, np.arange(12) % 2 == 1)

    def test_zero_uv_flags_points_at_infinity(self):
        result = self.assert_matches_reference(*fixture_pairs()[1])
        np.testing.assert_array_equal(np.flatnonzero(result.at_infinity), [1, 4, 9])

    def test_zero_dlt_row_is_degenerate(self):
        result = self.assert_matches_reference(*fixture_pairs()[2])
        assert result.degenerate.all()

    def test_non_finite_uv_is_degenerate(self):
        proj_left, proj_right, uv_left, uv_right = fixture_pairs()[3]
        result = triangulate_stereo(uv_left, uv_right, proj_left, proj_right)
        np.testing.assert_array_equal(result.degenerate, [False, True, True])
        assert np.isnan(result.xyz[1:]).all()


def stacked_pairs(pairs):
    """One ``triangulate_stereo`` call's arguments for several pairs' points.

    ``pairs`` holds (proj_left, proj_right, uv_left, uv_right) per pair;
    the points are stacked pair after pair, each with its pair's matrices.
    """
    counts = [len(uv_left) for _, _, uv_left, _ in pairs]
    return (np.concatenate([p[2] for p in pairs]).reshape(-1, 2),
            np.concatenate([p[3] for p in pairs]).reshape(-1, 2),
            np.repeat([p[0] for p in pairs], counts, axis=0).reshape(-1, 3, 4),
            np.repeat([p[1] for p in pairs], counts, axis=0).reshape(-1, 3, 4))


def fixture_pairs():
    """Failure fixtures as (proj_left, proj_right, uv_left, uv_right), k points each.

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
    pairs = [(cams[0].projection, cams[1].projection, uv[:, 0], uv[:, 1])]
    left, right = stereo_pair()
    uv = np.random.default_rng(12).normal(0.0, 0.2, size=(10, 2, 2))
    uv[[1, 4, 9]] = 0.0
    pairs.append((left.projection, right.projection, uv[:, 0], uv[:, 1]))
    uv = np.full((3, 2), 0.1)
    pairs.append((left.projection, np.zeros((3, 4)), uv, uv))
    uv = np.full((3, 2), 0.1)
    uv[1, 0] = uv[2, 1] = np.nan
    pairs.append((left.projection, right.projection, uv, uv - 0.2))
    return pairs


RESULT_FIELDS = ("xyz", "residual", "degenerate", "at_infinity")


def per_pair_calls(pairs) -> StereoTriangulation:
    """One ``triangulate_stereo`` call per pair, results concatenated."""
    results = [triangulate_stereo(uv_l, uv_r, p_l, p_r) for p_l, p_r, uv_l, uv_r in pairs]
    return StereoTriangulation(*(
        np.concatenate([getattr(r, name) for r in results]) for name in RESULT_FIELDS))


def assert_same_bits(got, want):
    for name in RESULT_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestStackedProjections:
    """One call over several pairs' points, each with its own (3, 4) pair."""

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
            pairs.append((cams[0].projection, cams[1].projection,
                          np.array([o[0].uv for o in obs])[seen],
                          np.array([o[1].uv for o in obs])[seen]))
        uv_left, uv_right, proj_left, proj_right = stacked_pairs(pairs)
        result = TestTriangulateStereo.assert_matches_reference(
            proj_left, proj_right, uv_left, uv_right)
        assert_same_bits(result, per_pair_calls(pairs))

    def test_degenerate_and_infinite_fixtures_in_one_call(self):
        pairs = fixture_pairs()
        uv_left, uv_right, proj_left, proj_right = stacked_pairs(pairs)
        result = triangulate_stereo(uv_left, uv_right, proj_left, proj_right)
        assert_same_bits(result, per_pair_calls(pairs))
        assert result.degenerate.sum() == 6 + 3 + 2
        np.testing.assert_array_equal(np.flatnonzero(result.at_infinity), [13, 16, 21])
        # The reference takes finite uv only: all but the last fixture's points.
        TestTriangulateStereo.assert_matches_reference(
            proj_left[:25], proj_right[:25], uv_left[:25], uv_right[:25])

    @pytest.mark.parametrize("shapes", [
        ((4, 3, 4), (4, 3, 4)),    # one pair per point, but 4 pairs for 5 points
        ((5, 3, 4), (3, 4)),       # a stack and a single matrix
        ((3, 4), (5, 3, 4)),
        ((5, 3, 4), (5, 3, 3)),
        ((5, 4, 4), (5, 4, 4)),
        ((1, 3, 4), (1, 3, 4)),    # no broadcasting of a one-pair stack
    ])
    def test_projection_shapes_must_be_pairs_or_one_pair_per_point(self, shapes):
        uv = np.zeros((5, 2))
        with pytest.raises(TriangulationError, match=r"projections must both be 3x4 "
                                                     r"or \(5, 3, 4\)"):
            triangulate_stereo(uv, uv, np.ones(shapes[0]), np.ones(shapes[1]))
