"""Recording write and read paths: digests, canonical order, the recorder's
tables, landmark names, the row formatters and the chunked writer."""

import dataclasses
import gc
import hashlib
import itertools
import json
import pickle
import random
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from ergofusion import evaluate
from ergofusion.evaluate import rula_compare_many
from ergofusion.bus import Message
from ergofusion import pipeline
from ergofusion.pipeline import PerRigLandmarks, RecorderNode, _quantiles, run_scenario
from ergofusion.rula import (STATUS_MESSAGES, JointAngles, PostureState, PostureStatus,
                             RulaBreakdown)
from ergofusion import recording
from ergofusion.recording import (CHUNK_ROWS, STREAM_COLUMNS, STREAM_FIELDS, STREAM_NAMES,
                                  RecordingError, SegmentRecording, columns_table,
                                  csv_chunks, json_chunks)
from ergofusion.scenario import parse_scenario
from ergofusion.skeleton import (LANDMARK_NAMES, N_ALL, N_FUSED, CameraObservations,
                                 animate, build_skeleton)

from helpers import committed_data, committed_scenario, rows_recording, rows_table

# Serial-scheduler digests of the acceptance criterion-9 configuration.
PINNED_DIGESTS = {
    "pre": "42e8c46c9c94527e658b50941eaa56456595013dad427a11b4f82fc268044cfc",
    "post": "a214dc65c9f607ea70cf7f587d35288011f17df85473668eae9ee7790f5f7244",
}


CRITERION_9_CONFIG = committed_scenario(stature=1.85, noise_sigma=0.002)


@pytest.fixture(scope="module")
def criterion_9_run():
    return run_scenario(CRITERION_9_CONFIG, seed=123, scheduler="serial")


def _copy(segment: SegmentRecording) -> SegmentRecording:
    return SegmentRecording(manifest=dict(segment.manifest),
                            streams={n: t.copy() for n, t in segment.streams.items()})


def _row_bits(rows) -> list[tuple]:
    """Rows with each float as its bits, so NaN rows compare equal."""
    return [tuple(struct.pack("<d", v) if type(v) is float else v for v in row)
            for row in rows]


def _bits(table) -> list[tuple]:
    """A table's rows with each float as its bits."""
    return _row_bits(table.tolist())


def test_criterion_9_digests_are_pinned(criterion_9_run):
    digests = {name: seg.digest() for name, seg in criterion_9_run.segments.items()}
    assert digests == PINNED_DIGESTS


def test_sort_restores_digest_after_shuffle(criterion_9_run):
    rng = np.random.default_rng(7)
    for name, original in criterion_9_run.segments.items():
        shuffled = {stream: table[rng.permutation(len(table))]
                    for stream, table in original.streams.items()}
        assert SegmentRecording(original.manifest, shuffled).digest() != PINNED_DIGESTS[name]
        restored = SegmentRecording(original.manifest, {
            stream: SegmentRecording.sort(table) for stream, table in shuffled.items()})
        assert restored.digest() == PINNED_DIGESTS[name]
        for stream in STREAM_NAMES:
            assert _bits(restored.streams[stream]) == _bits(original.streams[stream])


# Identity strings whose order is code-point order, not locale or numeric order.
SORT_STRINGS = ("", "a", "A", "b", "B", "aB", "Ab", "a1", "1a", "10", "9", "_", "-",
                "a_b", "a-b", "S1", "S10", "S2", "nose", "neck", "\u00e9", "\u00c9",
                "\u00df", "\u00f8", "\u4e2d", "z\u00e9", "Z")


def _identity_value(rng, conv: type):
    if conv is int:
        return int(rng.choice([-2 ** 62, -1, 0, 1, 2, 3, 2 ** 62]))
    return "".join(rng.choice(SORT_STRINGS, size=rng.integers(0, 3)))


@pytest.mark.parametrize("seed", range(20))
def test_sort_orders_random_tables_as_their_tuples(seed):
    rng = np.random.default_rng(seed)
    for stream, fields in STREAM_FIELDS.items():
        n_keys = next(i for i, (_, conv) in enumerate(fields) if conv is float)
        # Identity values unique per row, as in every recorded stream.
        keys = list(dict.fromkeys(
            tuple(_identity_value(rng, conv) for _, conv in fields[:n_keys])
            for _ in range(rng.integers(0, 40))))
        rows = [key + tuple(_random_value(rng, name, conv, 1) for name, conv in fields[n_keys:])
                for key in keys]
        rng.shuffle(rows)
        table = rows_table(fields, rows)
        got = SegmentRecording.sort(table)
        assert got.dtype == table.dtype
        assert _bits(got) == _row_bits(sorted(table.tolist()))
        empty = np.empty(0, recording._DTYPES[stream])
        assert SegmentRecording.sort(empty).dtype == empty.dtype
        assert len(SegmentRecording.sort(empty)) == 0


# -- the recorder's tables ---------------------------------------------------------

def test_recorded_streams_have_their_stream_dtypes(criterion_9_run):
    for segment in criterion_9_run.segments.values():
        for name in STREAM_NAMES:
            assert segment.streams[name].dtype == recording._DTYPES[name]


def test_recorded_ground_truth_is_the_animation_bit_for_bit(criterion_9_run):
    config = CRITERION_9_CONFIG
    for segment in criterion_9_run.segments.values():
        want, _ = animate(build_skeleton(config.stature), config.script(),
                          np.array(segment.manifest["delivery_point"]),
                          config.resolve_stance(config.stature))
        got = segment.ground_truth_positions()
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _recorded_rows(ground_truth, observations, messages,
                   rig_ids) -> dict[str, list[tuple]]:
    """Reference: the rows of ``ground_truth``, ``observations`` and
    ``messages`` built one tuple at a time, sorted.

    Every frame of the (positions, reach flags) ``ground_truth`` has its
    rows; each camera's segment ``observations`` has a row per frame and
    landmark it saw; a per-rig message's rigs are ``rig_ids`` in order; a
    ``rula`` row takes its status from its frame's ``posture_status``
    message."""
    rows = {name: [] for name in STREAM_NAMES}
    xyz, reach_ok = ground_truth
    rows["ground_truth"] = [
        (k, name, x, y, z, int(reach_ok[k]))
        for k, frame in enumerate(xyz.tolist())
        for name, (x, y, z) in zip(LANDMARK_NAMES, frame)]
    rows["observations"] = [
        (k, obs.camera_id, name, u, v)
        for obs in observations
        for k, (uv, visible) in enumerate(zip(obs.uv.tolist(), obs.visible.tolist()))
        for name, (u, v), seen in zip(LANDMARK_NAMES, uv, visible) if seen]
    status = {m.frame_index: m.payload.status.value
              for m in messages if m.topic == "posture_status"}
    for message in messages:
        topic, k, payload = message.topic, message.frame_index, message.payload
        if topic == "per_rig_landmarks":
            rows["per_rig_landmarks"] += [
                (k, rig_id, name, x, y, z, residual, 2)
                for rig_id, xyz, residuals, visible in zip(
                    rig_ids, payload.xyz.tolist(), payload.residual.tolist(),
                    payload.visible.tolist())
                for name, (x, y, z), residual, seen in zip(
                    LANDMARK_NAMES, xyz, residuals, visible) if seen]
        elif topic == "fused_landmarks":
            rows["fused_landmarks"] += [
                (k, name, x, y, z, "fused" if i < N_FUSED else "aux")
                for i, (name, (x, y, z)) in enumerate(zip(LANDMARK_NAMES, payload.tolist()))]
        elif topic == "rula":
            a, b = payload
            rows["rula"].append((
                k, a.upper_arm_left, a.upper_arm_right, a.lower_arm_left,
                a.lower_arm_right, a.wrist_left, a.wrist_right, a.neck, a.trunk,
                int(a.legs_supported), int(a.aux_present),
                b.score_upper_arm, b.score_lower_arm, b.score_wrist,
                b.score_wrist_twist, b.table_a,
                b.score_neck, b.score_trunk, b.score_legs, b.table_b,
                b.wrist_arm_score, b.neck_trunk_leg_score,
                b.grand, b.action_level, status[k], b.side))
    return {name: sorted(stream_rows) for name, stream_rows in rows.items()}


def _random_messages(rng) -> tuple[tuple, list[Message]]:
    """Recorder input for a few frames, with landmarks each camera or rig
    missed and frames the synchronizer dropped: the recorder's arguments
    (each camera's segment observations, rig ids, ground truth) and the
    messages."""
    cameras = ["C" + str(i) for i in rng.permutation(int(rng.integers(1, 5)))]
    rigs = ["S" + str(i) for i in rng.permutation(int(rng.integers(1, 4)))]
    states = list(PostureState)

    def points():
        return rng.normal(size=(N_ALL, 3))

    def seen():
        return rng.random(N_ALL) < 0.7

    messages = []
    n_frames = int(rng.integers(0, 5))
    ground_truth = (rng.normal(size=(n_frames, N_ALL, 3)), rng.random(n_frames) < 0.5)
    observations = []
    for camera in cameras:
        visible = rng.random((n_frames, N_ALL)) < 0.7
        uv = np.where(visible[..., None], rng.normal(size=(n_frames, N_ALL, 2)), np.nan)
        observations.append(CameraObservations(camera, uv, visible))
    for k in rng.permutation(n_frames).tolist():
        if rng.random() < 0.3:
            continue  # dropped: no landmarks and no score for this frame
        xyz, visible, residual = zip(*((points(), seen(), rng.random(N_ALL)) for _ in rigs))
        messages.append(Message("per_rig_landmarks", k, PerRigLandmarks(
            np.stack(xyz), np.stack(visible), np.stack(residual))))
        messages.append(Message("fused_landmarks", k, points()))
        angles = JointAngles(*rng.uniform(-180.0, 180.0, 8).tolist(),
                             legs_supported=bool(rng.random() < 0.5),
                             aux_present=bool(rng.random() < 0.5))
        breakdown = RulaBreakdown(
            **{f.name: int(rng.integers(1, 8)) for f in dataclasses.fields(RulaBreakdown)
               if f.name != "side"}, side=str(rng.choice(["left", "right"])))
        state = states[rng.integers(len(states))]
        messages.append(Message("rula", k, (angles, breakdown)))
        messages.append(Message("posture_status", k,
                                PostureStatus(state, STATUS_MESSAGES[state])))
    rng.shuffle(messages)  # as the threaded scheduler may deliver them
    return (observations, rigs, ground_truth), messages


def test_rula_columns_are_the_angle_then_score_fields():
    # The recorder copies a record's values into the stream in this order.
    angles = [f.name for f in dataclasses.fields(JointAngles)]
    scores = [f.name for f in dataclasses.fields(RulaBreakdown) if f.name != "side"]
    assert STREAM_COLUMNS["rula"] == ("frame", *angles, *scores, "status", "side")


@pytest.mark.parametrize("seed", range(10))
def test_recorder_tables_equal_the_per_row_reference(seed):
    segment, messages = _random_messages(np.random.default_rng(seed))
    recorder = RecorderNode(*segment)
    for message in messages:
        recorder.handle(message, None)
    recorder.finish(None)
    want = _recorded_rows(segment[2], segment[0], messages, segment[1])
    for name in STREAM_NAMES:
        table = recorder.recording.streams[name]
        assert table.dtype == recording._DTYPES[name]
        assert _bits(table) == _row_bits(want[name])
    assert recorder.dlt_residual == {
        rig: _quantiles([row[6] for row in want["per_rig_landmarks"] if row[1] == rig])
        for rig in segment[1]}


def test_dlt_residual_stats_are_the_quantiles_of_the_recorded_residuals(criterion_9_run):
    for segment in criterion_9_run.segments.values():
        table = segment.streams["per_rig_landmarks"]
        stats = segment.manifest["stats"]["dlt_residual"]
        assert sorted(stats) == sorted(set(table["rig"]))
        for rig_id, rig_stats in stats.items():
            assert rig_stats == _quantiles(table["residual"][table["rig"] == rig_id])


def test_serial_and_threaded_tables_are_equal_bit_for_bit(criterion_9_run):
    threaded = run_scenario(CRITERION_9_CONFIG, seed=123, scheduler="threads")
    assert list(threaded.segments) == list(criterion_9_run.segments)
    for name, segment in criterion_9_run.segments.items():
        for stream in STREAM_NAMES:
            assert _bits(threaded.segments[name].streams[stream]) == \
                _bits(segment.streams[stream])


def test_rigs_listed_out_of_code_point_order_record_canonical_streams():
    data = committed_data(noise_sigma=0.002)
    # Rigs and their cameras ("S2.L", ..., "A.R") listed out of name order.
    for rig, rig_id in zip(data["rigs"], ("S2", "S10", "A")):
        rig["id"] = rig_id
    config = parse_scenario(data)
    runs = {scheduler: run_scenario(config, seed=5, scheduler=scheduler)
            for scheduler in ("serial", "threads")}
    serial, threaded = runs["serial"].segments, runs["threads"].segments
    assert list(serial) == list(threaded) == ["pre", "post"]
    for name, segment in serial.items():
        assert list(dict.fromkeys(segment.streams["per_rig_landmarks"]["rig"])) == \
            ["A", "S10", "S2"]
        for stream in STREAM_NAMES:
            table = segment.streams[stream]
            assert _bits(table) == _bits(SegmentRecording.sort(table))
            assert _bits(threaded[name].streams[stream]) == _bits(table)


def test_save_records_the_digest_of_the_written_bytes(criterion_9_run, tmp_path):
    segment = _copy(criterion_9_run.segments["pre"])
    segment.save(tmp_path)
    on_disk = json.loads((tmp_path / "manifest.json").read_text())["digest"]
    h = hashlib.sha256()
    for name in STREAM_NAMES:
        h.update(name.encode())
        h.update((tmp_path / f"{name}.csv").read_bytes())
    assert segment.manifest["digest"] == on_disk == segment.digest() == h.hexdigest()
    assert on_disk == PINNED_DIGESTS["pre"]


def test_unknown_landmark_name_rejected():
    segment = rows_recording({"frames": 1}, {
        "fused_landmarks": [(0, "tail", 0.0, 0.0, 0.0, "fused")],
        "ground_truth": [(0, "nose", 0.0, 0.0, 0.0, 1), (0, "tail", 0.0, 0.0, 0.0, 1)],
        "per_rig_landmarks": [(0, "S1", "nose", 0.0, 0.0, 0.0, 0.0, 2),
                              (0, "S2", "fin", 0.0, 0.0, 0.0, 0.0, 2)]})
    with pytest.raises(RecordingError, match="tail"):
        segment.fused_positions()
    with pytest.raises(RecordingError, match=r"^unknown landmark name 'tail'$"):
        segment.ground_truth_positions()
    with pytest.raises(RecordingError, match=r"^unknown landmark name 'fin'$"):
        segment.rig_positions()


def test_position_arrays_share_the_frames_the_rows_reach():
    segment = rows_recording({"frames": 10 ** 12}, {
        "ground_truth": [(0, "nose", 0.0, 0.0, 0.0, 1)],
        "fused_landmarks": [(2, "nose", 1.0, 2.0, 3.0, "fused")],
        "per_rig_landmarks": [(1, "S1", "nose", 0.0, 0.0, 0.0, 0.0, 2)]})
    truth, fused = segment.ground_truth_positions(), segment.fused_positions()
    assert truth.shape == fused.shape == segment.rig_positions()["S1"].shape == (3, N_ALL, 3)
    assert fused[2, LANDMARK_NAMES.index("nose")].tolist() == [1.0, 2.0, 3.0]
    assert np.isnan(truth[1:]).all()
    # Never more frames than the manifest gives.
    assert SegmentRecording({"frames": 2}, segment.streams)._frame_count() == 2


def _positions_by_row(rows, key, n_frames):
    """Reference: one (F, 15, 3) write per row, the last row winning."""
    index = {name: i for i, name in enumerate(LANDMARK_NAMES)}
    out = np.full((n_frames, N_ALL, 3), np.nan)
    for row in rows:
        out[row[0], index[row[key]]] = row[key + 1:key + 4]
    return out


def test_positions_equal_the_per_row_reference(criterion_9_run):
    rng = random.Random(11)
    for order, original in itertools.product(("sorted", "reversed", "shuffled"),
                                             criterion_9_run.segments.values()):
        rows = {}
        for stream, table in original.streams.items():
            rows[stream] = table.tolist()
            if order == "reversed":
                rows[stream].reverse()
            elif order == "shuffled":
                rng.shuffle(rows[stream])
        # Tables built as the rows stand, unsorted.
        segment = SegmentRecording(original.manifest, {
            stream: rows_table(STREAM_FIELDS[stream], stream_rows)
            for stream, stream_rows in rows.items()})
        n_frames = segment.manifest["frames"]
        for got, stream in ((segment.ground_truth_positions(), "ground_truth"),
                            (segment.fused_positions(), "fused_landmarks")):
            want = _positions_by_row(rows[stream], 1, n_frames)
            assert got.tobytes() == want.tobytes()
        rig_rows = rows["per_rig_landmarks"]
        rigs = segment.rig_positions()
        # Rigs come in order of first appearance: reversed rows meet S3 first.
        assert list(rigs) == list(dict.fromkeys(r[1] for r in rig_rows))
        if order == "reversed":
            assert list(rigs) == ["S3", "S2", "S1"]
        for rig, got in rigs.items():
            want = _positions_by_row([r for r in rig_rows if r[1] == rig], 2, n_frames)
            assert got.tobytes() == want.tobytes()
    # Arrays hold the frames the rows reach, not the manifest's count.
    empty = SegmentRecording(manifest={"frames": 2})
    assert np.isnan(empty.ground_truth_positions()).all()
    assert empty.ground_truth_positions().shape == (0, N_ALL, 3)
    assert empty.rig_positions() == {}


# -- the row formatter --------------------------------------------------------

# Strings that existing recordings hold for these values; digests depend on them.
LEGACY_STRINGS = [
    (float, float("nan"), "nan"),
    (float, float("inf"), "inf"),
    (float, float("-inf"), "-inf"),
    (float, -0.0, "-0"),
    (float, 1e-300, "1e-300"),
    (float, np.float32(0.1), "0.100000001"),
    (float, 7, "7"),
    (int, np.int64(3), "3"),
    (int, 10**10, "10000000000"),
    (str, "fused", "fused"),
]


def test_formatter_keeps_the_legacy_strings():
    fields = tuple((f"c{i}", conv) for i, (conv, _, _) in enumerate(LEGACY_STRINGS))
    row = tuple(value for _, value, _ in LEGACY_STRINGS)
    header = ",".join(name for name, _ in fields)
    line = ",".join(text for _, _, text in LEGACY_STRINGS)
    text = "".join(csv_chunks(fields, rows_table(fields, [row, row])))
    assert text == f"{header}\n{line}\n{line}\n"


EXTREME_FLOATS = (float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
                  5e-324, -2.2250738585072014e-308, 1e-300, 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.1, 1 / 3)


def _random_value(rng, name: str, conv: type, n_frames: int):
    if name == "frame":
        return int(rng.integers(n_frames))
    if name == "landmark":
        return LANDMARK_NAMES[rng.integers(len(LANDMARK_NAMES))]
    if conv is int:
        return int(rng.integers(-10, 10))
    if conv is str:
        return "".join(rng.choice(list("abcXYZ_09-"), size=rng.integers(1, 6)))
    if rng.random() < 0.3:
        return EXTREME_FLOATS[rng.integers(len(EXTREME_FLOATS))]
    return float(rng.normal() * 10.0 ** rng.integers(-320, 300))


def _assert_round_trip(segment: SegmentRecording, first, second):
    segment.save(first)
    loaded = SegmentRecording.load(first)
    loaded.save(second)
    for name in STREAM_NAMES + ("manifest.json",):
        filename = name if name.endswith(".json") else f"{name}.csv"
        assert (first / filename).read_bytes() == (second / filename).read_bytes()
    assert loaded.digest() == loaded.manifest["digest"] == segment.manifest["digest"]


@pytest.mark.parametrize("seed", range(20))
def test_random_rows_round_trip_byte_identical(seed, tmp_path):
    rng = np.random.default_rng(seed)
    n_frames = int(rng.integers(1, 5))
    segment = rows_recording({"frames": n_frames}, {
        stream: [tuple(_random_value(rng, name, conv, n_frames) for name, conv in fields)
                 for _ in range(rng.integers(0, 12))]
        for stream, fields in STREAM_FIELDS.items()})
    _assert_round_trip(segment, tmp_path / "first", tmp_path / "second")


def test_criterion_9_recording_round_trips_byte_identical(criterion_9_run, tmp_path):
    for name, segment in criterion_9_run.segments.items():
        _assert_round_trip(_copy(segment), tmp_path / name / "first",
                           tmp_path / name / "second")
        assert segment.digest() == PINNED_DIGESTS[name]


# -- JSON records ---------------------------------------------------------------

JSON_FLOATS = (float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 1e-300, 5e-324,
               1.7976931348623157e308, 0.1, 1 / 3, 2.0 ** 60)
JSON_STRINGS = ("", "fused", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f",
                "caf\u00e9", "\u2028\ud83d\ude00", "100%", "%s", "\U0001f600")


def _random_json_value(rng, conv: type):
    if conv is int:
        return int(rng.integers(-2 ** 63, 2 ** 63 - 1, endpoint=True))
    if conv is str:
        return "".join(rng.choice(JSON_STRINGS, size=rng.integers(0, 3)))
    if rng.random() < 0.5:
        return JSON_FLOATS[rng.integers(len(JSON_FLOATS))]
    return float(rng.normal() * 10.0 ** rng.integers(-300, 300))


@pytest.mark.parametrize("seed", range(20))
def test_format_json_equals_json_dumps(seed):
    rng = np.random.default_rng(seed)
    names = ["frame", 'q"uote', "caf\u00e9", "50%", "%(x)s", "tab\t"]
    fields = tuple((names[i] if i < len(names) else f"f{i}", (int, float, str)[rng.integers(3)])
                   for i in range(rng.integers(1, 9)))
    rows = [tuple(_random_json_value(rng, conv) for _, conv in fields)
            for _ in range(rng.integers(1, 30))]
    records = [dict(zip((name for name, _ in fields), row)) for row in rows]
    assert "".join(json_chunks(fields, rows_table(fields, rows))) == json.dumps(records, indent=1)


def test_format_json_of_no_records():
    fields = (("frame", int), ("x", float))
    assert "".join(json_chunks(fields, rows_table(fields, []))) == json.dumps([], indent=1) == "[]"


# -- partial loads ---------------------------------------------------------------

@pytest.fixture()
def saved_pre(criterion_9_run, tmp_path):
    return _copy(criterion_9_run.segments["pre"]).save(tmp_path / "pre")


def test_bare_load_parses_every_stream(criterion_9_run, saved_pre):
    loaded = SegmentRecording.load(saved_pre)
    assert list(loaded.streams) == list(STREAM_NAMES)
    again = SegmentRecording.load(saved_pre, STREAM_NAMES)
    for name in STREAM_NAMES:
        assert loaded.streams[name].dtype == recording._DTYPES[name]
        assert _bits(loaded.streams[name]) == _bits(again.streams[name])
    assert loaded.digest() == PINNED_DIGESTS["pre"]


def test_partial_load_parses_only_the_named_streams(saved_pre):
    full = SegmentRecording.load(saved_pre)
    partial = SegmentRecording.load(saved_pre, ("rula", "fused_landmarks"))
    assert sorted(partial.streams) == ["fused_landmarks", "rula"]
    for name in partial.streams:
        assert _bits(partial.streams[name]) == _bits(full.streams[name])
    assert partial.manifest == full.manifest
    np.testing.assert_array_equal(partial.fused_positions(), full.fused_positions())


@pytest.mark.parametrize("unread", [n for n in STREAM_NAMES if n != "rula"])
def test_unread_stream_raises_instead_of_reading_empty(saved_pre, unread):
    partial = SegmentRecording.load(saved_pre, ("rula",))
    assert unread not in partial.streams
    with pytest.raises(RecordingError, match=f"stream '{unread}' was not loaded"):
        partial.streams[unread]


def test_typed_accessors_of_unread_streams_raise(saved_pre):
    partial = SegmentRecording.load(saved_pre, ("rula",))
    for accessor, stream in ((partial.ground_truth_positions, "ground_truth"),
                             (partial.fused_positions, "fused_landmarks"),
                             (partial.rig_positions, "per_rig_landmarks")):
        with pytest.raises(RecordingError, match=f"'{stream}' was not loaded"):
            accessor()
    unread_rula = SegmentRecording.load(saved_pre, ("fused_landmarks",))
    with pytest.raises(RecordingError, match="'rula' was not loaded"):
        rula_compare_many([(unread_rula, unread_rula)])


def test_digest_and_save_need_a_full_load(saved_pre, tmp_path):
    partial = SegmentRecording.load(saved_pre, ("rula",))
    with pytest.raises(RecordingError, match="'ground_truth' was not loaded"):
        partial.digest()
    with pytest.raises(RecordingError, match="'ground_truth' was not loaded"):
        partial.save(tmp_path / "copy")
    assert not (tmp_path / "copy").exists()
    every_but_one = SegmentRecording.load(saved_pre, STREAM_NAMES[:-1])
    with pytest.raises(RecordingError, match="'rula' was not loaded"):
        every_but_one.save(tmp_path / "copy")
    assert not (tmp_path / "copy").exists()


def test_partial_load_skips_unread_rows_but_needs_every_file(saved_pre):
    observations = saved_pre / "observations.csv"
    lines = observations.read_text().splitlines()
    lines[1] = "x" + lines[1]
    observations.write_text("\n".join(lines) + "\n")
    SegmentRecording.load(saved_pre, ("rula",))
    with pytest.raises(RecordingError, match="'observations' line 2"):
        SegmentRecording.load(saved_pre)
    observations.unlink()
    with pytest.raises(RecordingError, match="missing stream 'observations'"):
        SegmentRecording.load(saved_pre, ("rula",))


def test_load_rejects_an_unknown_stream_name(saved_pre):
    with pytest.raises(ValueError, match="unknown stream 'fused_landmark'"):
        SegmentRecording.load(saved_pre, ("rula", "fused_landmark"))


def test_load_rejects_a_bare_stream_name(saved_pre):
    with pytest.raises(TypeError, match="not the str 'rula'"):
        SegmentRecording.load(saved_pre, "rula")


# -- the C reader and the per-line parser ------------------------------------------

def _outcome(parse, name, path, n_frames):
    """Parsed rows, each float as its bits, or the ``RecordingError`` text."""
    try:
        table = parse(name, path, n_frames)
    except RecordingError as exc:
        return str(exc)
    assert table.dtype == recording._DTYPES[name]
    return [tuple((type(v), struct.pack("<d", v) if type(v) is float else v)
                  for v in row) for row in table.tolist()]


@pytest.fixture()
def per_line_calls(monkeypatch):
    """Counts the files ``_parse_stream`` hands to the per-line parser."""
    calls = []

    def counting(*args):
        calls.append(args)
        return parse_lines(*args)

    parse_lines = recording._parse_lines
    monkeypatch.setattr(recording, "_parse_lines", counting)
    return calls


@pytest.mark.parametrize("seed", range(20))
def test_c_reader_reads_random_rows_as_the_per_line_parser(seed, tmp_path, per_line_calls):
    rng = np.random.default_rng(seed)
    n_frames = int(rng.integers(1, 5))
    segment = rows_recording({"frames": n_frames}, {
        stream: [tuple(_random_value(rng, name, conv, n_frames) for name, conv in fields)
                 for _ in range(rng.integers(1, 12))]
        for stream, fields in STREAM_FIELDS.items()})
    segment.save(tmp_path)
    for name in STREAM_NAMES:
        path = tmp_path / f"{name}.csv"
        want = _outcome(recording._parse_lines, name, path, n_frames)
        per_line_calls.clear()
        assert _outcome(recording._parse_stream, name, path, n_frames) == want
        assert not per_line_calls, "the C reader fell back on a written stream"
        assert len(want) == len(segment.streams[name])


PER_RIG_HEADER = ",".join(STREAM_COLUMNS["per_rig_landmarks"])
GOOD = "1,S1,nose,0.25,-1.5,3e-05,0.001,2"


def _line(**values):
    """``GOOD`` with some fields replaced."""
    fields = dict(zip(STREAM_COLUMNS["per_rig_landmarks"], GOOD.split(",")))
    fields.update(values)
    return ",".join(fields.values())


_BODIES = {
    "good": GOOD + "\n",
    "blank line": f"{GOOD}\n\n{GOOD}\n",
    "only a blank line": "\n",
    "missing trailing newline": f"{GOOD}\n{GOOD}",
    "crlf": f"{GOOD}\r\n{GOOD}\r\n",
    "cr in string": _line(rig="S\r1") + "\n",
    "form feed in string": _line(rig="S\x0c1") + "\n",
    "file separator in string": _line(rig="S\x1c1") + "\n",
    "unit separator in float": _line(x="\x1f0.25") + "\n",
    "line separator in string": _line(rig="S\u20281") + "\n",
    "non-ascii string": _line(rig="S\u00e91") + "\n",
    "non-ascii letter in int": _line(n_views="\u01fe") + "\n",
    "arabic digit in int": _line(n_views="\u0663") + "\n",
    "leading space": " " + GOOD + "\n",
    "trailing space": GOOD + " \n",
    "spaces around string": _line(rig=" S1 ") + "\n",
    "spaces around float": _line(x=" 0.25 ") + "\n",
    "spaces around int": _line(n_views=" 2 ") + "\n",
    "whitespace-only line": f"{GOOD}\n   \n",
    "underscore float": _line(x="1_0") + "\n",
    "plus nan": _line(x="+nan") + "\n",
    "minus nan": _line(x="-nan") + "\n",
    "plus int": _line(n_views="+3") + "\n",
    "float in int": _line(n_views="1.0") + "\n",
    "int beyond int64": _line(n_views=str(2 ** 63)) + "\n",
    "frame beyond int64": _line(frame=str(2 ** 63)) + "\n",
    "nan inf -Infinity": _line(x="nan", y="inf", z="-Infinity") + "\n",
    "empty float": _line(x="") + "\n",
    "empty string": _line(rig="") + "\n",
    "quoted string": _line(rig='"S1"') + "\n",
    "comment mark": _line(rig="S#1") + "\n",
    "extra field": GOOD + ",7\n",
    "missing field": GOOD.rsplit(",", 1)[0] + "\n",
    "negative frame": f"{GOOD}\n" + _line(frame="-1") + "\n",
    "frame at the end of the range": f"{GOOD}\n" + _line(frame="2") + "\n",
    "many rows": f"{GOOD}\n" * 5,
    "many rows without trailing newline": f"{GOOD}\n" * 4 + GOOD,
    "blank line after header": f"\n{GOOD}\n",
    "blank last line": f"{GOOD}\n\n",
    "non-ascii string in a later row": f"{GOOD}\n" + _line(rig="S\u00e91") + "\n",
    "control byte at the end": f"{GOOD}\n\x1f",
}
CRAFTED_FILES = {name: f"{PER_RIG_HEADER}\n{body}" for name, body in _BODIES.items()}
CRAFTED_FILES.update({
    "header only": PER_RIG_HEADER + "\n",
    "header without newline": PER_RIG_HEADER,
    "empty file": "",
    "wrong header": f"{PER_RIG_HEADER},extra\n{GOOD}\n",
    "crlf header": f"{PER_RIG_HEADER}\r\n{GOOD}\n",
})


# Crafted files whose outcome is pinned as well.
CRAFTED_OUTCOMES = {
    # Python reads it as an int; the table's int64 field cannot hold it.
    "int beyond int64": "stream 'per_rig_landmarks' line 2: "
                        "n_views 9223372036854775808 is outside int64",
    "frame beyond int64": "stream 'per_rig_landmarks' line 2: "
                          "frame 9223372036854775808 is outside [0, 2)",
}


# Crafted files numpy's reader takes as they stand, and ones it must not
# see: a blank line, or a byte outside ``_PLAIN_BYTES``.
PLAIN_CASES = ("good", "missing trailing newline", "many rows",
               "many rows without trailing newline", "header only")
UNPLAIN_CASES = ("blank line", "only a blank line", "blank line after header",
                 "blank last line", "non-ascii string in a later row",
                 "control byte at the end")


@pytest.mark.parametrize("case", CRAFTED_FILES)
def test_c_reader_reads_crafted_lines_as_the_per_line_parser(case, tmp_path, monkeypatch):
    path = tmp_path / "per_rig_landmarks.csv"
    path.write_bytes(CRAFTED_FILES[case].encode())
    parse = [_outcome(fn, "per_rig_landmarks", path, 2)
             for fn in (recording._parse_stream, recording._parse_lines)]
    assert parse[0] == parse[1]
    if case in CRAFTED_OUTCOMES:
        assert parse[0] == CRAFTED_OUTCOMES[case]
    # Read chunk sizes up to the body's length put a chunk boundary at every
    # byte: inside a row, on a line end, inside a multi-byte character.
    for size in range(1, len(path.read_bytes()) - len(PER_RIG_HEADER) + 1):
        monkeypatch.setattr(recording, "READ_CHUNK_BYTES", size)
        assert _outcome(recording._parse_stream, "per_rig_landmarks", path, 2) == parse[1]
        rows = recording._plain_rows("per_rig_landmarks", path)
        if case in PLAIN_CASES:
            assert rows == len(parse[1]), size
        if case in UNPLAIN_CASES:
            assert rows is None, size


def test_loaded_str_columns_share_one_object_per_name(saved_pre, per_line_calls):
    for name, fields in STREAM_FIELDS.items():
        path = saved_pre / f"{name}.csv"
        per_line_calls.clear()
        tables = {"C reader": recording._parse_stream(name, path, float("inf"))}
        assert not per_line_calls, name
        tables["per-line parser"] = recording._parse_lines(name, path, float("inf"))
        for parser, table in tables.items():
            assert len(table), name
            for field, conv in fields:
                if conv is str:
                    column = table[field]
                    assert len({id(v) for v in column}) == len(set(column)), \
                        (parser, name, field)


def test_header_only_streams_load_empty_without_warning(tmp_path, per_line_calls):
    SegmentRecording(manifest={"frames": 0}).save(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = SegmentRecording.load(tmp_path)
    for name in STREAM_NAMES:
        assert loaded.streams[name].shape == (0,)
        assert loaded.streams[name].dtype == recording._DTYPES[name]
    assert not per_line_calls


# -- the chunked writer ------------------------------------------------------------

def _whole_csv(fields, table) -> str:
    """A table's CSV text formatted in one piece: the reference for the chunks."""
    template = ",".join("%.9g" if conv is float else "%s" for _, conv in fields)
    lines = [",".join(name for name, _ in fields)]
    lines += map(template.__mod__, zip(*(table[name].tolist() for name, _ in fields)))
    return "\n".join(lines) + "\n"


def _whole_json(fields, table) -> str:
    names = [name for name, _ in fields]
    return json.dumps([dict(zip(names, row)) for row in table.tolist()], indent=1)


# Non-finite, subnormal, smallest normal and largest finite floats.
WRITER_FLOATS = np.array(EXTREME_FLOATS + (-5e-324, 2.5e-310))
WRITER_STRINGS = np.array(["S1", "head_top", "S 1-\u00fc", 'q"uote', "back\\slash", "50%",
                           "%s", "\U0001f600", ""], dtype=object)


def _writer_table(fields, n: int, rng) -> np.ndarray:
    """``n`` random rows of ``fields``, a third of the floats extreme."""
    columns = []
    for _, conv in fields:
        if conv is int:
            columns.append(rng.integers(-2 ** 63, 2 ** 63 - 1, size=n, endpoint=True))
        elif conv is str:
            columns.append(rng.choice(WRITER_STRINGS, n))
        else:
            columns.append(np.where(rng.random(n) < 0.3, rng.choice(WRITER_FLOATS, n),
                                    rng.normal(size=n) * 10.0 ** rng.integers(-320, 300, n)))
    return columns_table(fields, n, columns)


@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                               3 * CHUNK_ROWS + 7])
def test_chunked_files_and_digest_equal_the_whole_text(n, tmp_path):
    rng = np.random.default_rng(n)
    segment = SegmentRecording({"frames": 1}, {
        name: _writer_table(fields, n, rng) for name, fields in STREAM_FIELDS.items()})
    segment.save(tmp_path / "segment")
    h = hashlib.sha256()
    for name, fields in STREAM_FIELDS.items():
        table = segment.streams[name]
        csv_text, json_text = _whole_csv(fields, table), _whole_json(fields, table)
        assert "".join(csv_chunks(fields, table)) == csv_text
        assert "".join(json_chunks(fields, table)) == json_text
        assert (tmp_path / "segment" / f"{name}.csv").read_bytes() == csv_text.encode()
        for fmt, text in (("csv", csv_text), ("json", json_text + "\n")):
            out = evaluate._write_records(fields, table, fmt, tmp_path / f"{name}.{fmt}")
            assert out.read_bytes() == text.encode()
        h.update(name.encode())
        h.update(csv_text.encode())
    assert segment.digest() == segment.manifest["digest"] == h.hexdigest()


def _long_observations(n: int = 200_000) -> SegmentRecording:
    """A segment of ``n`` observation rows: six cameras, 90 rows a frame."""
    cameras = np.array([f"S{i // 2 + 1}.{'LR'[i % 2]}" for i in range(6)], dtype=object)
    landmarks = np.array(LANDMARK_NAMES, dtype=object)
    rng = np.random.default_rng(0)
    index = np.arange(n)
    table = columns_table(STREAM_FIELDS["observations"], n, (
        index // 90, cameras[index // 15 % 6], landmarks[index % 15],
        rng.random(n), rng.random(n)))
    return SegmentRecording({"frames": n // 90 + 1}, {"observations": table})


def test_save_and_digest_hold_one_chunk_of_text(tmp_path):
    segment = _long_observations()
    peaks = {}
    for name, run in (("digest", segment.digest), ("save", lambda: segment.save(tmp_path))):
        tracemalloc.start()
        try:
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (tmp_path / "observations.csv").stat().st_size > 7_000_000
    assert segment.digest() == segment.manifest["digest"]
    assert max(peaks.values()) < 4 * 2 ** 20, peaks


def test_load_holds_its_table_and_one_read_chunk(tmp_path):
    _long_observations().save(tmp_path)
    tracemalloc.start()
    try:
        loaded = SegmentRecording.load(tmp_path, ("observations",))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = loaded.streams["observations"]
    assert len(table) == 200_000
    # The reader allocates the table once, at its size: grown block by
    # block it would pass the bound.
    assert retained <= 1.2 * table.nbytes, (retained, table.nbytes)
    assert peak <= table.nbytes + recording.READ_CHUNK_BYTES, (peak, table.nbytes)


def _flat_bytes(message: Message) -> int:
    """A recorded message's values as flat typed buffers hold them: 8
    bytes for the frame key and for each other scalar or id, and each
    array's bytes."""
    payload = message.payload
    if isinstance(payload, np.ndarray):
        return 8 + payload.nbytes
    if isinstance(payload, tuple):  # a ``rula`` (angles, breakdown) pair
        return 8 * len(STREAM_FIELDS["rula"])
    values = [getattr(payload, f.name) for f in dataclasses.fields(payload)]
    return 8 + sum(v.nbytes if isinstance(v, np.ndarray) else
                   8 * len(v) if isinstance(v, tuple) else 8 for v in values)


def test_recorder_keeps_flat_buffers_not_messages(monkeypatch):
    messages, observations = [], []
    init, handle = RecorderNode.__init__, RecorderNode.handle

    def built(node, cameras, *args):
        observations.extend(cameras)
        init(node, cameras, *args)

    monkeypatch.setattr(RecorderNode, "__init__", built)
    monkeypatch.setattr(RecorderNode, "handle", lambda node, message, publish: (
        messages.append(message), handle(node, message, publish)))
    run_scenario(committed_scenario("desk_rmse"))
    monkeypatch.undo()
    payload = sum(_flat_bytes(m) for m in messages if m.topic != "posture_status")
    # The recorder gets payloads made while memory is traced and only it
    # holds them, as on the bus: what stays traced is what it keeps.
    pickled = pickle.dumps(messages[::-1])
    del messages
    config = committed_scenario("desk_rmse")
    rigs = config.build_rigs()
    # The driver's and the camera nodes', which the recorder is built with
    # and does not copy before it builds the tables.
    ground_truth = animate(build_skeleton(config.stature), config.script(),
                           config.delivery, config.resolve_stance(config.stature))
    tracemalloc.start()
    try:
        # Built while traced, so its preallocated slots count as retained.
        recorder = RecorderNode(observations, [rig.id for rig in rigs], ground_truth)
        pending = pickle.loads(pickled)
        while pending:
            recorder.handle(pending.pop(), None)
        del pending
        # A full collection also empties the interpreter's free lists,
        # which keep the tuples that unpickling made and freed.
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        recorder.finish(None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    streams = recorder.recording.streams
    tables = sum(table.nbytes for table in streams.values())
    assert len(streams["rula"]) == 500 and len(streams["observations"]) == 45_000
    # Kept as message objects, the segment retained 2.2 times its payload
    # and finish peaked at that plus 1.6 times the tables.
    assert retained <= 1.25 * payload, (retained, payload)
    # The slots, the tables and at most a quarter of the tables' size in
    # transient copies.
    assert peak <= retained + 1.25 * tables, (peak, retained, tables)


@pytest.mark.parametrize("scheduler", ["serial", "threads"])
def test_recorded_ground_truth_is_the_array_animate_returned(monkeypatch, scheduler):
    returned, held, topics = [], [], []
    animate = pipeline.animate
    handle, finish = RecorderNode.handle, RecorderNode.finish

    def tracked(*args):
        returned.append(animate(*args))
        return returned[-1]

    def handled(node, message, publish):
        topics.append(message.topic)
        handle(node, message, publish)

    def finished(node, publish):
        held.append(node.ground_truth)
        finish(node, publish)

    monkeypatch.setattr(pipeline, "animate", tracked)
    monkeypatch.setattr(RecorderNode, "handle", handled)
    monkeypatch.setattr(RecorderNode, "finish", finished)
    run = run_scenario(committed_scenario("desk_handover"), scheduler=scheduler)
    # One animation per segment, which its recorder holds as returned.
    assert len(returned) == len(held) == len(run.segments) == 2
    for (xyz, reach_ok), truth, segment in zip(returned, held, run.segments.values()):
        assert truth[0] is xyz and truth[1] is reach_ok
        table = segment.streams["ground_truth"]
        assert segment.ground_truth_positions().tobytes() == xyz.tobytes()
        assert table["reach_ok"].tolist() == np.repeat(reach_ok, N_ALL).tolist()
    # The recorder hears every other topic, but never the driver's.
    assert "world" not in topics and "fused_landmarks" in topics


def test_interrupted_save_leaves_no_loadable_recording(criterion_9_run, tmp_path,
                                                       monkeypatch):
    segment = _copy(criterion_9_run.segments["pre"])
    segment.save(tmp_path)
    SegmentRecording.load(tmp_path)
    csv_chunks = recording.csv_chunks

    def failing(fields, table):
        chunks = csv_chunks(fields, table)
        yield next(chunks)
        if fields is STREAM_FIELDS["per_rig_landmarks"]:
            raise OSError("no space left on device")
        yield from chunks

    monkeypatch.setattr(recording, "csv_chunks", failing)
    with pytest.raises(OSError, match="no space"):
        segment.save(tmp_path)
    assert not (tmp_path / "manifest.json").exists()
    with pytest.raises(RecordingError, match="no manifest.json"):
        SegmentRecording.load(tmp_path)
