"""Recording write and read paths: digests, canonical order, landmark names,
the row formatter and the row contract."""

import hashlib
import json
import random
import struct
import warnings

import numpy as np
import pytest

from ergofusion.pipeline import run_scenario
from ergofusion import recording
from ergofusion.recording import (STREAM_COLUMNS, STREAM_FIELDS, STREAM_NAMES,
                                  RecordingError, SegmentRecording, format_csv)
from ergofusion.scenario import default_handover_scenario
from ergofusion.skeleton import LANDMARK_NAMES, N_ALL

# Serial-scheduler digests of the acceptance criterion-9 configuration.
PINNED_DIGESTS = {
    "pre": "ac3976e7e93c097343957317fd2ba24665d31740bb707605d00d0e2f70a641f6",
    "post": "40240be5a80ccd41407aa4e9a8f0ffdc2ef0b7c55c28514399d0ee16b7bbe44e",
}


@pytest.fixture(scope="module")
def criterion_9_run():
    config = default_handover_scenario(stature=1.85, noise_sigma=0.002)
    return run_scenario(config, seed=123, scheduler="serial")


def _copy(segment: SegmentRecording) -> SegmentRecording:
    return SegmentRecording(manifest=dict(segment.manifest),
                            streams={n: list(rows) for n, rows in segment.streams.items()})


def test_criterion_9_digests_are_pinned(criterion_9_run):
    digests = {name: seg.digest() for name, seg in criterion_9_run.segments.items()}
    assert digests == PINNED_DIGESTS


def test_sort_restores_digest_after_shuffle(criterion_9_run):
    for name, original in criterion_9_run.segments.items():
        segment = _copy(original)
        rng = random.Random(7)
        for rows in segment.streams.values():
            rng.shuffle(rows)
        assert segment.digest() != PINNED_DIGESTS[name]
        segment.sort()
        assert segment.digest() == PINNED_DIGESTS[name]


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
    segment = SegmentRecording(manifest={"frames": 1})
    segment.append("fused_landmarks", (0, "tail", 0.0, 0.0, 0.0, "fused"))
    with pytest.raises(RecordingError, match="tail"):
        segment.fused_positions()
    segment.append("ground_truth", (0, "nose", 0.0, 0.0, 0.0, 1))
    segment.append("ground_truth", (0, "tail", 0.0, 0.0, 0.0, 1))
    segment.append("per_rig_landmarks", (0, "S1", "nose", 0.0, 0.0, 0.0, 0.0, 2))
    segment.append("per_rig_landmarks", (0, "S2", "fin", 0.0, 0.0, 0.0, 0.0, 2))
    with pytest.raises(RecordingError, match=r"^unknown landmark name 'tail'$"):
        segment.ground_truth_positions()
    with pytest.raises(RecordingError, match=r"^unknown landmark name 'fin'$"):
        segment.rig_positions()


def _positions_by_row(rows, key, n_frames):
    """Reference: one (F, 15, 3) write per row, the last row winning."""
    index = {name: i for i, name in enumerate(LANDMARK_NAMES)}
    out = np.full((n_frames, N_ALL, 3), np.nan)
    for row in rows:
        out[row[0], index[row[key]]] = row[key + 1:key + 4]
    return out


def test_positions_equal_the_per_row_reference(criterion_9_run):
    for original in criterion_9_run.segments.values():
        segment = _copy(original)
        # Reversed rows meet the rigs as S3, S2, S1.
        segment.streams["per_rig_landmarks"].reverse()
        n_frames = segment.manifest["frames"]
        for got, stream in ((segment.ground_truth_positions(), "ground_truth"),
                            (segment.fused_positions(), "fused_landmarks")):
            want = _positions_by_row(segment.streams[stream], 1, n_frames)
            assert got.tobytes() == want.tobytes()
        rig_rows = segment.streams["per_rig_landmarks"]
        rigs = segment.rig_positions()
        assert list(rigs) == ["S3", "S2", "S1"]
        for rig, got in rigs.items():
            want = _positions_by_row([r for r in rig_rows if r[1] == rig], 2, n_frames)
            assert got.tobytes() == want.tobytes()
    empty = SegmentRecording(manifest={"frames": 2})
    assert np.isnan(empty.ground_truth_positions()).all()
    assert empty.ground_truth_positions().shape == (2, N_ALL, 3)
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
    assert format_csv(fields, [row, row]) == f"{header}\n{line}\n{line}\n"


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
    segment = SegmentRecording(manifest={"frames": n_frames})
    for stream, fields in STREAM_FIELDS.items():
        segment.extend(stream, [
            tuple(_random_value(rng, name, conv, n_frames) for name, conv in fields)
            for _ in range(rng.integers(0, 12))])
    _assert_round_trip(segment, tmp_path / "first", tmp_path / "second")


def test_criterion_9_recording_round_trips_byte_identical(criterion_9_run, tmp_path):
    for name, segment in criterion_9_run.segments.items():
        _assert_round_trip(_copy(segment), tmp_path / name / "first",
                           tmp_path / name / "second")
        assert segment.digest() == PINNED_DIGESTS[name]


# -- the row contract ----------------------------------------------------------

def test_wrong_length_row_rejected_by_append_and_extend():
    segment = SegmentRecording(manifest={"frames": 1})
    good = (0, "nose", 0.0, 0.0, 0.0, "aux")
    with pytest.raises(RecordingError, match="expects 6 fields, got 5"):
        segment.append("fused_landmarks", good[:5])
    with pytest.raises(RecordingError, match="expects 6 fields, got 7"):
        segment.extend("fused_landmarks", [good, good + ("extra",)])
    # A rejected batch adds none of its rows.
    assert segment.streams["fused_landmarks"] == []
    segment.extend("fused_landmarks", [good])
    assert segment.streams["fused_landmarks"] == [good]


def test_non_integral_value_in_int_column_is_written_and_rejected_on_load(tmp_path):
    segment = SegmentRecording(manifest={"frames": 1})
    segment.append("ground_truth", (0, "nose", 0.0, 0.0, 0.0, 0.5))
    segment.save(tmp_path)
    lines = (tmp_path / "ground_truth.csv").read_text().splitlines()
    assert lines[1] == "0,nose,0,0,0,0.5"
    with pytest.raises(RecordingError, match="ground_truth.*line 2"):
        SegmentRecording.load(tmp_path)


# -- partial loads ---------------------------------------------------------------

@pytest.fixture()
def saved_pre(criterion_9_run, tmp_path):
    return _copy(criterion_9_run.segments["pre"]).save(tmp_path / "pre")


def test_bare_load_parses_every_stream(criterion_9_run, saved_pre):
    loaded = SegmentRecording.load(saved_pre)
    assert list(loaded.streams) == list(STREAM_NAMES)
    assert loaded.streams == SegmentRecording.load(saved_pre, STREAM_NAMES).streams
    assert loaded.digest() == PINNED_DIGESTS["pre"]


def test_partial_load_parses_only_the_named_streams(saved_pre):
    full = SegmentRecording.load(saved_pre)
    partial = SegmentRecording.load(saved_pre, ("rula", "fused_landmarks"))
    assert sorted(partial.streams) == ["fused_landmarks", "rula"]
    for name in partial.streams:
        assert partial.streams[name] == full.streams[name]
    assert partial.manifest == full.manifest
    assert partial.rula_rows() == full.rula_rows()
    np.testing.assert_array_equal(partial.fused_positions(), full.fused_positions())


@pytest.mark.parametrize("unread", [n for n in STREAM_NAMES if n != "rula"])
def test_unread_stream_raises_instead_of_reading_empty(saved_pre, unread):
    partial = SegmentRecording.load(saved_pre, ("rula",))
    assert unread not in partial.streams
    with pytest.raises(RecordingError, match=f"stream '{unread}' was not loaded"):
        partial.streams[unread]
    with pytest.raises(RecordingError, match=unread):
        partial.append(unread, tuple(range(len(STREAM_FIELDS[unread]))))


def test_typed_accessors_of_unread_streams_raise(saved_pre):
    partial = SegmentRecording.load(saved_pre, ("rula",))
    for accessor, stream in ((partial.ground_truth_positions, "ground_truth"),
                             (partial.fused_positions, "fused_landmarks"),
                             (partial.rig_positions, "per_rig_landmarks")):
        with pytest.raises(RecordingError, match=f"'{stream}' was not loaded"):
            accessor()
    with pytest.raises(RecordingError, match="'rula' was not loaded"):
        SegmentRecording.load(saved_pre, ("fused_landmarks",)).rula_rows()


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


# -- the C reader and the per-line parser ------------------------------------------

def _outcome(parse, name, path, n_frames):
    """Parsed rows, each float as its bits, or the ``RecordingError`` text."""
    try:
        rows = parse(name, path, n_frames)
    except RecordingError as exc:
        return str(exc)
    return [tuple((type(v), struct.pack("<d", v) if type(v) is float else v)
                  for v in row) for row in rows]


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
    segment = SegmentRecording(manifest={"frames": n_frames})
    for stream, fields in STREAM_FIELDS.items():
        segment.extend(stream, [
            tuple(_random_value(rng, name, conv, n_frames) for name, conv in fields)
            for _ in range(rng.integers(1, 12))])
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
}
CRAFTED_FILES = {name: f"{PER_RIG_HEADER}\n{body}" for name, body in _BODIES.items()}
CRAFTED_FILES.update({
    "header only": PER_RIG_HEADER + "\n",
    "header without newline": PER_RIG_HEADER,
    "empty file": "",
    "wrong header": f"{PER_RIG_HEADER},extra\n{GOOD}\n",
    "crlf header": f"{PER_RIG_HEADER}\r\n{GOOD}\n",
})


@pytest.mark.parametrize("text", CRAFTED_FILES.values(), ids=CRAFTED_FILES)
def test_c_reader_reads_crafted_lines_as_the_per_line_parser(text, tmp_path):
    path = tmp_path / "per_rig_landmarks.csv"
    path.write_bytes(text.encode())
    parse = [_outcome(fn, "per_rig_landmarks", path, 2)
             for fn in (recording._parse_stream, recording._parse_lines)]
    assert parse[0] == parse[1]


def test_header_only_streams_load_empty_without_warning(tmp_path, per_line_calls):
    SegmentRecording(manifest={"frames": 0}).save(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = SegmentRecording.load(tmp_path)
    assert dict(loaded.streams) == {name: [] for name in STREAM_NAMES}
    assert not per_line_calls
