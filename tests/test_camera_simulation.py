"""Camera simulation over a whole segment against the per-frame reference.

A camera node projects its segment in one call and seeds every frame's
noise generator from one hash over the segment. Both must give the bits
of the per-frame path: one ``project_many`` call per frame and
``default_rng((seed, camera_index, frame))`` built from the int tuple.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergofusion.cameras import CameraModel, look_at_rotation
from ergofusion.noise import frame_generators, seed_words, uint32_words
from ergofusion.pipeline import CameraNode, run_scenario
from ergofusion.scenario import load_scenario
from ergofusion.skeleton import N_ALL, animate, build_skeleton

from helpers import SCENARIO_DIR, committed_scenario


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 80), camera_index=st.integers(0, 2 ** 20),
       n_frames=st.integers(1, 40))
def test_seed_words_are_the_seed_sequence_state(seed, camera_index, n_frames):
    # Up to 5 words of entropy: more than SeedSequence's 4-word pool.
    prefix = uint32_words(seed) + uint32_words(camera_index)
    entropy = [prefix + [k] for k in range(n_frames)]
    got = seed_words(np.array(entropy, np.uint32))
    assert got.dtype == np.uint64 and got.shape == (n_frames, 4)
    generators = frame_generators(seed, camera_index, n_frames)
    for k, (words, generator) in enumerate(zip(got, generators, strict=True)):
        for key in (np.array(entropy[k], np.uint32), (seed, camera_index, k)):
            want = np.random.SeedSequence(key).generate_state(4, np.uint64)
            assert words.tobytes() == want.tobytes()
        want = np.random.default_rng((seed, camera_index, k))
        assert generator.normal(0.0, 0.01, (N_ALL, 2)).tobytes() == \
            want.normal(0.0, 0.01, (N_ALL, 2)).tobytes()


def reference_observations(camera, noise_sigma, seed, camera_index, positions):
    """Frame by frame: one projection and a fresh ``default_rng`` each."""
    uv, visible = [], []
    for k, xyz in enumerate(positions):
        frame_uv, depth = camera.project_many(xyz)
        seen = depth > 0
        if noise_sigma > 0:
            frame_uv += np.random.default_rng((seed, camera_index, k)).normal(
                0.0, noise_sigma, size=frame_uv.shape)
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


@pytest.mark.parametrize("noise_sigma", [0.0, 0.002])
def test_landmarks_behind_the_camera_are_the_per_frame_observations(noise_sigma):
    # A camera between the operator and the delivery point, facing away
    # from the operator: the reaching arm crosses its image plane.
    config = committed_scenario()
    positions, _ = animate(build_skeleton(config.stature), config.script(),
                           config.delivery, config.resolve_stance(config.stature))
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
