"""Metamorphic properties of a whole run: moving the scene or reordering
the rigs must not change what the pipeline reports."""

import copy
import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from ergofusion.pipeline import run_scenario
from ergofusion.recording import STREAM_FIELDS
from ergofusion.scenario import parse_scenario

from helpers import committed_data


def short_handover(noise_sigma=None) -> dict:
    """The committed handover task with a shorter hold and return and a
    reach to an explicit point, so that every kind of target is moved."""
    data = committed_data(noise_sigma=noise_sigma, durations={"hold": 1.0, "return": 1.0})
    data["motion"].insert(2, {"name": "place", "duration": 1.0, "target": [0.80, 0.10, 1.10]})
    return data


RULA_FLOATS = [name for name, conv in STREAM_FIELDS["rula"] if conv is float]
RULA_INTS = [name for name, conv in STREAM_FIELDS["rula"] if conv is int]
# Degrees. A shift leaves the arithmetic the same up to rounding, which
# moves an angle by about 1e-9 degrees at a 10 m shift.
ANGLE_TOL_DEG = 1e-6
SHIFTS = st.floats(-10.0, 10.0, allow_nan=False)


def shifted(data: dict, dx: float, dy: float) -> dict:
    """``data`` with every position moved by (dx, dy, 0): rigs, their
    ``look_at`` targets, the delivery point and explicit phase targets
    (the stance is ``auto``, so it follows the delivery point)."""
    data = copy.deepcopy(data)

    def move(v):
        return [v[0] + dx, v[1] + dy, v[2]]

    for rig in data["rigs"]:
        rig["position"], rig["look_at"] = move(rig["position"]), move(rig["look_at"])
    data["delivery"] = move(data["delivery"])
    for phase in data["motion"]:
        if isinstance(phase["target"], list):
            phase["target"] = move(phase["target"])
    return data


def rula_tables(data: dict) -> dict:
    run = run_scenario(parse_scenario(data))
    return {name: segment.streams["rula"] for name, segment in run.segments.items()}


@functools.cache
def unshifted_rula_tables(noise_sigma) -> dict:
    return rula_tables(short_handover(noise_sigma))


def assert_rula_unmoved(noise_sigma, dx: float, dy: float) -> None:
    want = unshifted_rula_tables(noise_sigma)
    got = rula_tables(shifted(short_handover(noise_sigma), dx, dy))
    assert list(got) == list(want) == ["pre", "post"]
    for name, table in want.items():
        for column in RULA_INTS + ["status", "side"]:
            assert got[name][column].tolist() == table[column].tolist(), (name, column)
        for column in RULA_FLOATS:
            np.testing.assert_allclose(got[name][column], table[column],
                                       rtol=0.0, atol=ANGLE_TOL_DEG, err_msg=column)


@settings(max_examples=15)
@given(dx=SHIFTS, dy=SHIFTS)
def test_moving_the_noiseless_scene_moves_no_rula_score(dx, dy):
    assert_rula_unmoved(0.0, dx, dy)


# At the committed noise (0.001): each DLT row is scaled by the norm of
# its first three entries, which a shift of the world origin leaves as
# it is, so the noisy least-squares point moves with the scene.
@settings(max_examples=15)
@given(dx=SHIFTS, dy=SHIFTS)
def test_moving_the_noisy_scene_moves_no_rula_score(dx, dy):
    assert_rula_unmoved(None, dx, dy)


@functools.cache
def fused_at_sigma_0(order: tuple[int, ...]) -> dict:
    data = short_handover(noise_sigma=0.0)
    data["rigs"] = [data["rigs"][i] for i in order]
    run = run_scenario(parse_scenario(data))
    return {name: segment.fused_positions() for name, segment in run.segments.items()}


@given(order=st.permutations(range(3)))
def test_permuting_the_rigs_moves_no_fused_landmark(order):
    want, got = fused_at_sigma_0((0, 1, 2)), fused_at_sigma_0(tuple(order))
    assert list(got) == list(want) == ["pre", "post"]
    for name, xyz in want.items():
        np.testing.assert_allclose(got[name], xyz, rtol=0.0, atol=1e-9, err_msg=name)
