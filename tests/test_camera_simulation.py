"""Camera simulation over a whole segment against the per-frame reference.

A camera node projects its segment in one call and draws the segment's
noise in one call from the camera's own stream. That must give the bits
of the per-frame path: one ``project_many`` call per frame, and as frame
k's noise row k of ``default_rng((seed, camera_index)).normal(0, σ,
(F, N_ALL, 2))``.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergofusion.bus import Message
from ergofusion.cameras import CameraModel, look_at_rotation
from ergofusion.pipeline import CameraNode, run_scenario
from ergofusion.scenario import load_scenario
from ergofusion.skeleton import N_ALL, animate, build_skeleton

from helpers import SCENARIO_DIR, committed_scenario


def reference_observations(camera, noise_sigma, seed, camera_index, positions):
    """Frame by frame: one projection each, and row k of the camera's
    noise as frame k's."""
    noise = np.random.default_rng((seed, camera_index)).normal(
        0.0, noise_sigma, (len(positions), N_ALL, 2))
    uv, visible = [], []
    for k, xyz in enumerate(positions):
        frame_uv, depth = camera.project_many(xyz)
        seen = depth > 0
        if noise_sigma > 0:
            frame_uv += noise[k]
        frame_uv[~seen] = np.nan
        uv.append(frame_uv)
        visible.append(seen)
    return np.array(uv), np.array(visible)


def assert_is_the_reference(segment, args):
    """``segment``, a camera node's, holds the reference bits for its ``args``."""
    uv, visible = reference_observations(*args)
    assert segment.camera_id == args[0].id
    assert segment.uv.tobytes() == uv.tobytes()
    assert segment.visible.tobytes() == visible.tobytes()


@pytest.mark.parametrize("stem", ["desk_handover", "desk_rmse", "stature_grid"])
def test_committed_segments_are_the_per_frame_observations(monkeypatch, stem):
    built = []
    init = CameraNode.__init__

    def simulate(node, *args):
        init(node, *args)
        built.append((node.segment, args))

    monkeypatch.setattr(CameraNode, "__init__", simulate)
    segments = 0
    for config in load_scenario(SCENARIO_DIR / f"{stem}.yaml").expand_statures():
        segments += len(run_scenario(config).segments)
    assert len(built) == 6 * segments
    for segment, args in built:
        assert_is_the_reference(segment, args)


@functools.cache
def handover_positions() -> np.ndarray:
    """The committed handover's (F, N_ALL, 3) pre-segment ground truth."""
    config = committed_scenario()
    return animate(build_skeleton(config.stature), config.script(),
                   config.delivery, config.resolve_stance(config.stature))[0]


@pytest.mark.parametrize("noise_sigma", [0.0, 0.002])
def test_landmarks_behind_the_camera_are_the_per_frame_observations(noise_sigma):
    # A camera between the operator and the delivery point, facing away
    # from the operator: the reaching arm crosses its image plane.
    positions = handover_positions()
    position = np.array([0.5, -0.2, 1.2])
    camera = CameraModel.from_pose(
        "inside", look_at_rotation(position, position + [1.0, 0.0, 0.0]), position)
    args = (camera, noise_sigma, 11, 4, positions)
    node = CameraNode(*args)
    visible = node.segment.visible
    assert 0 < np.count_nonzero(visible) < visible.size
    # Some landmark changes side during the segment.
    assert (visible.any(axis=0) & ~visible.all(axis=0)).any()
    assert np.isnan(node.segment.uv[~visible]).all()
    assert_is_the_reference(node.segment, args)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 80), camera_index=st.integers(0, 5),
       n_frames=st.integers(1, 100))
def test_a_segments_first_frames_are_its_first_rows(seed, camera_index, n_frames):
    # Frame k's noise is row k of the camera's stream, whatever the
    # segment's length.
    positions = handover_positions()
    camera = committed_scenario().build_rigs()[camera_index // 2].cameras[camera_index % 2]
    whole = CameraNode(camera, 0.002, seed, camera_index, positions)
    first = CameraNode(camera, 0.002, seed, camera_index, positions[:n_frames])
    published = []
    for k in range(n_frames):
        first.handle(Message("world", k, None), published.append)
    uv = np.array([message.payload.uv for message in published])
    assert uv.tobytes() == whole.segment.uv[:n_frames].tobytes()
