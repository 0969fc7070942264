import math

import numpy as np
import pytest

from ergofusion.cameras import (DEGENERATE_DEPTH, CameraModel,
                                DegenerateProjectionError, GeometryError, StereoRig,
                                axis_angle_from_rotation,
                                compose_world_extrinsics, look_at_rotation,
                                rotation_from_axis_angle)
from ergofusion.triangulate import Observation2D, triangulate_dlt

from helpers import random_rotation


def rot_z(deg):
    a = math.radians(deg)
    return np.array([[math.cos(a), -math.sin(a), 0.0],
                     [math.sin(a), math.cos(a), 0.0],
                     [0.0, 0.0, 1.0]])


class TestComposeWorldExtrinsics:
    def test_identity_case(self):
        r2, t2 = compose_world_extrinsics(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
        np.testing.assert_allclose(r2, np.eye(3))
        np.testing.assert_allclose(t2, np.zeros(3))

    def test_world_origin_convention(self):
        # First camera at the origin: the relative pair becomes the second
        # camera's world extrinsics unchanged.
        rng = np.random.default_rng(3)
        r = random_rotation(rng)
        t = rng.normal(size=3)
        r2, t2 = compose_world_extrinsics(np.eye(3), np.zeros(3), r, t)
        np.testing.assert_allclose(r2, r, atol=1e-15)
        np.testing.assert_allclose(t2, t, atol=1e-15)

    def test_matches_sequential_point_transform(self):
        r1, t1 = rot_z(90.0), np.array([1.0, 0.0, 0.0])
        r, t = rot_z(90.0), np.array([0.0, 1.0, 0.0])
        r2, t2 = compose_world_extrinsics(r1, t1, r, t)
        rng = np.random.default_rng(7)
        for point in rng.normal(size=(10, 3)):
            sequential = r @ (r1 @ point + t1) + t
            np.testing.assert_allclose(r2 @ point + t2, sequential, atol=1e-12)

    def test_rejects_non_orthonormal_rotation(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-4
        with pytest.raises(GeometryError):
            compose_world_extrinsics(bad, np.zeros(3), np.eye(3), np.zeros(3))
        with pytest.raises(GeometryError):
            compose_world_extrinsics(np.eye(3), np.zeros(3), bad, np.zeros(3))


class TestCameraModel:
    def test_projection_is_extrinsic_stack(self):
        rng = np.random.default_rng(11)
        r = random_rotation(rng)
        t = rng.normal(size=3)
        cam = CameraModel("c", r, t)
        np.testing.assert_array_equal(cam.projection, np.hstack([r, t[:, None]]))

    def test_center_consistency(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            r = random_rotation(rng)
            t = rng.normal(size=3)
            cam = CameraModel("c", r, t)
            np.testing.assert_allclose(cam.position, -r.T @ t, atol=1e-10)
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-10)
            assert abs(np.linalg.det(r) - 1.0) < 1e-10

    def test_project_on_axis(self):
        cam = CameraModel("c", np.eye(3), np.zeros(3))
        np.testing.assert_allclose(cam.project([0.0, 0.0, 5.0]), [0.0, 0.0])

    def test_project_dehomogenizes(self):
        cam = CameraModel("c", np.eye(3), np.zeros(3))
        np.testing.assert_allclose(cam.project([1.0, 2.0, 2.0]), [0.5, 1.0])

    def test_project_matches_matrix_arithmetic(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            cam = CameraModel("c", random_rotation(rng), rng.normal(size=3))
            point = rng.normal(size=3)
            h = cam.projection @ np.append(point, 1.0)
            if abs(h[2]) < 1e-6:
                continue
            np.testing.assert_allclose(cam.project(point), h[:2] / h[2], atol=1e-12)

    def test_zero_depth_is_degenerate(self):
        cam = CameraModel("c", np.eye(3), np.zeros(3))
        with pytest.raises(DegenerateProjectionError):
            cam.project([1.0, 1.0, 0.0])

    def test_optical_axis_projects_to_origin(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            r = random_rotation(rng)
            cam = CameraModel.from_pose("c", r, rng.normal(size=3))
            for depth in (0.1, 1.0, 25.0):
                point = cam.position + r.T @ np.array([0.0, 0.0, depth])
                np.testing.assert_allclose(cam.project(point), [0.0, 0.0], atol=1e-9)

    def test_project_many_matches_scalar(self):
        rng = np.random.default_rng(15)
        cam = CameraModel("c", random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(8, 3)) + np.array([0.0, 0.0, 4.0])
        uv, depth = cam.project_many(pts)
        for i, p in enumerate(pts):
            if depth[i] > 0:
                np.testing.assert_allclose(uv[i], cam.project(p), atol=1e-12)

    def test_project_many_is_the_rotated_translated_points_bit_for_bit(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            cam = CameraModel("c", random_rotation(rng), rng.normal(size=3))
            pts = rng.normal(size=(15, 3)) * rng.uniform(0.1, 10.0)
            x = pts @ cam.rotation.T + cam.translation
            uv, depth = cam.project_many(pts)
            assert depth.tobytes() == x[:, 2].tobytes()
            assert uv.tobytes() == (x[:, :2] / x[:, 2:]).tobytes()

    def test_project_many_degenerate_depths_give_nan_without_warning(self):
        cam = CameraModel("c", np.eye(3), [0.1, -0.2, 0.5])
        # Depths 0 exactly, below DEGENERATE_DEPTH, and 1.
        pts = np.array([[0.3, 0.4, -0.5], [0.3, 0.4, -0.5 + 1e-13], [0.3, 0.4, 0.5]])
        x = pts @ cam.rotation.T + cam.translation
        uv, depth = cam.project_many(pts)
        assert depth.tobytes() == x[:, 2].tobytes()
        assert depth[0] == 0.0 and 0.0 < abs(depth[1]) < DEGENERATE_DEPTH
        assert np.isnan(uv[:2]).all()
        assert uv[2].tobytes() == (x[2, :2] / x[2, 2]).tobytes()

    def test_derived_fields_are_read_only(self):
        cam = CameraModel("c", rot_z(30.0), [0.1, -0.2, 0.5])
        assert cam.rotation_t.tobytes() == cam.rotation.T.tobytes()
        for name in ("rotation", "translation", "projection", "position", "rotation_t"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(cam, name)[0] = 0.0


class TestFrameChangeConsistency:
    def test_projection_through_composed_pose(self):
        rng = np.random.default_rng(21)
        r1, t1 = random_rotation(rng), rng.normal(size=3)
        r, t = random_rotation(rng), rng.normal(size=3)
        r2, t2 = compose_world_extrinsics(r1, t1, r, t)
        cam_ab = CameraModel("ab", r2, t2)
        cam_b = CameraModel("b", r, t)
        for _ in range(10):
            point = rng.normal(size=3) * 2.0
            moved = r1 @ point + t1
            if abs(cam_b.depth(moved)) < 1e-6:
                continue
            np.testing.assert_allclose(cam_ab.project(point), cam_b.project(moved),
                                       atol=1e-10)


class TestStereoRig:
    def _rig(self, rng):
        return StereoRig.from_left_pose(
            "S1", random_rotation(rng), rng.normal(size=3),
            rot_z(2.0), np.array([-0.5, 0.0, 0.0]))

    def test_right_camera_consistent(self):
        rng = np.random.default_rng(31)
        rig = self._rig(rng)
        want_r = rig.relative_rotation @ rig.left.rotation
        want_t = rig.relative_rotation @ rig.left.translation + rig.relative_translation
        np.testing.assert_allclose(rig.right.rotation, want_r, atol=1e-10)
        np.testing.assert_allclose(rig.right.translation, want_t, atol=1e-10)

    def test_inconsistent_pair_rejected(self):
        left = CameraModel("L", np.eye(3), np.zeros(3))
        right = CameraModel("R", np.eye(3), np.array([-0.4, 0.0, 0.0]))
        with pytest.raises(GeometryError):
            StereoRig("S", left, right, np.eye(3), np.array([-0.5, 0.0, 0.0]))

    def test_triangulation_lands_in_left_camera_frame(self):
        # Observe a point with a rig in an arbitrary world pose, then
        # triangulate those image points with the same relative pair placed
        # at the origin: the result is the point manually transformed into
        # the original left camera's frame.
        rng = np.random.default_rng(34)
        rig = self._rig(rng)
        point = rig.left.position + rig.left.rotation.T @ np.array([0.2, -0.1, 2.0])
        uv_left = rig.left.project(point)
        uv_right = rig.right.project(point)
        local = StereoRig.from_left_pose(rig.id, np.eye(3), np.zeros(3),
                                         rig.relative_rotation, rig.relative_translation)
        got = triangulate_dlt((
            Observation2D("L", uv_left, local.left.projection),
            Observation2D("R", uv_right, local.right.projection)))
        manual = rig.left.rotation @ point + rig.left.translation
        np.testing.assert_allclose(got.xyz, manual, atol=1e-9)


class TestRotationHelpers:
    def test_axis_angle_round_trip(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            rot = random_rotation(rng)
            np.testing.assert_allclose(
                rotation_from_axis_angle(axis_angle_from_rotation(rot)), rot,
                atol=1e-9)

    def test_axis_angle_round_trip_near_half_turn(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            for theta in (np.pi - 1e-8, np.pi - 1e-12, np.pi):
                rot = rotation_from_axis_angle(axis * theta)
                again = rotation_from_axis_angle(axis_angle_from_rotation(rot))
                np.testing.assert_allclose(again, rot, atol=1e-7)

    def test_look_at_centers_target(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            position = rng.normal(size=3)
            target = position + rng.normal(size=3)
            if np.linalg.norm(target - position) < 0.1:
                continue
            direction = (target - position)
            if abs(direction[2]) / np.linalg.norm(direction) > 0.99:
                continue
            rot = look_at_rotation(position, target)
            cam = CameraModel.from_pose("c", rot, position)
            np.testing.assert_allclose(cam.project(target), [0.0, 0.0], atol=1e-10)
            # Image y axis points downward in the world.
            assert rot[1] @ np.array([0.0, 0.0, 1.0]) <= 1e-12
