"""On-disk run recordings: flat, diffable record streams plus a manifest.

A segment recording is one directory holding five newline-delimited
record streams (``ground_truth``, ``observations``, ``per_rig_landmarks``,
``fused_landmarks``, ``rula``) and a ``manifest.json``. Records carry a
fixed field order, and each row is written through one %-template per
stream derived from ``STREAM_FIELDS``: ``%.9g`` (9 significant digits)
for float columns and ``%s`` for int and str columns. The manifest
stores a SHA-256 digest over each stream's name followed by its
exact file text, so determinism checks reduce to digest comparison (run
statistics live in the manifest and deliberately stay outside the
digest). ``save()`` formats each stream once and feeds the same bytes
to the file and to the digest.

``SegmentRecording.load`` can parse a selection of the streams: it
checks that the manifest and all five stream files exist, but parses
and validates (header, field count, typed values, frame range) only the
named ones. The evaluation commands parse only what they read:
``eval-rmse`` the ``ground_truth``, ``per_rig_landmarks`` and
``fused_landmarks`` streams, ``eval-rula`` the ``rula`` stream, and
``export`` the one stream it writes (``rula`` for the heatmap). A
stream that was not loaded raises ``RecordingError`` when it is read;
``digest()`` and ``save()`` need a full load.

Each stream goes through numpy's C reader (``np.loadtxt`` with a
structured dtype from ``STREAM_FIELDS``: int64, float64, and ``object``
for str fields, so no string is cut to a fixed width) and is kept as a
list of tuples. The per-line parser re-runs only to name a bad line, or
for a file outside the reader's plain-ASCII subset, so the accepted
input, the values and every error message stay those of the per-line
parser.

A full run recording is a directory of segment subdirectories, normally
``pre`` and ``post`` around the robot adaptation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .skeleton import LANDMARK_NAMES, N_ALL

FLOAT_FMT = "%.9g"

# Stream schemas: (field name, converter) in canonical column order.
STREAM_FIELDS: dict[str, tuple[tuple[str, type], ...]] = {
    "ground_truth": (
        ("frame", int), ("landmark", str),
        ("x", float), ("y", float), ("z", float), ("reach_ok", int)),
    "observations": (
        ("frame", int), ("camera", str), ("landmark", str),
        ("u", float), ("v", float)),
    "per_rig_landmarks": (
        ("frame", int), ("rig", str), ("landmark", str),
        ("x", float), ("y", float), ("z", float),
        ("residual", float), ("n_views", int)),
    "fused_landmarks": (
        ("frame", int), ("landmark", str),
        ("x", float), ("y", float), ("z", float), ("source", str)),
    "rula": (
        ("frame", int),
        ("upper_arm_left", float), ("upper_arm_right", float),
        ("lower_arm_left", float), ("lower_arm_right", float),
        ("wrist_left", float), ("wrist_right", float),
        ("neck", float), ("trunk", float),
        ("legs_supported", int), ("aux_present", int),
        ("score_upper_arm", int), ("score_lower_arm", int),
        ("score_wrist", int), ("score_wrist_twist", int), ("table_a", int),
        ("score_neck", int), ("score_trunk", int), ("score_legs", int),
        ("table_b", int),
        ("wrist_arm_score", int), ("neck_trunk_leg_score", int),
        ("grand", int), ("action_level", int),
        ("status", str), ("side", str)),
}
STREAM_NAMES = tuple(STREAM_FIELDS)
STREAM_COLUMNS = {name: tuple(f for f, _ in fields)
                  for name, fields in STREAM_FIELDS.items()}
_LANDMARK_BY_NAME = {name: i for i, name in enumerate(LANDMARK_NAMES)}


class RecordingError(ValueError):
    """Malformed or incomplete recording on disk."""


class _LoadedStreams(dict):
    """The streams parsed by ``load``; reading one it skipped raises."""

    def __missing__(self, name):
        if name in STREAM_FIELDS:
            raise RecordingError(f"stream {name!r} was not loaded from the recording")
        raise KeyError(name)


def format_csv(fields: tuple[tuple[str, type], ...], rows) -> str:
    """Comma-separated text of tuple ``rows`` under typed ``fields``.

    Every row goes through one %-template: ``FLOAT_FMT`` for float
    fields, ``%s`` for int and str ones, so a non-integral value in an
    int field is written as it is (and rejected on load), never truncated.
    """
    template = ",".join(FLOAT_FMT if conv is float else "%s" for _, conv in fields)
    lines = [",".join(name for name, _ in fields)]
    lines += map(template.__mod__, rows)
    return "\n".join(lines) + "\n"


def _positions(rows, key: int, n_frames: int,
               group: int | None = None) -> dict[str | None, np.ndarray]:
    """(F, 15, 3) positions from rows holding a landmark name at ``key``
    followed by x, y, z; NaN where a landmark has no row.

    Returns one array per value of the ``group`` column, in order of
    first appearance, or without ``group`` one array under ``None``. The
    rows are transposed into columns once and written with one
    fancy-indexed assignment.
    """
    columns = tuple(zip(*rows)) or ((),) * (key + 4)  # no rows: empty columns
    names = (None,) if group is None else tuple(dict.fromkeys(columns[group]))
    out = np.full((len(names), n_frames, N_ALL, 3), np.nan)
    if rows:
        try:
            landmark = list(map(_LANDMARK_BY_NAME.__getitem__, columns[key]))
        except KeyError as exc:
            raise RecordingError(f"unknown landmark name {exc.args[0]!r}") from None
        source = 0
        if group is not None:
            code = {name: i for i, name in enumerate(names)}
            source = list(map(code.__getitem__, columns[group]))
        out[source, columns[0], landmark] = np.transpose(columns[key + 1:key + 4])
    return dict(zip(names, out))


# numpy field type per schema type; ``object`` keeps each string whole
# (a fixed ``U<n>`` width could truncate it and costs n * 4 bytes a row).
_NUMPY_TYPES = {int: np.int64, float: np.float64, str: object}
_DTYPES = {name: np.dtype([(f, _NUMPY_TYPES[conv]) for f, conv in fields])
           for name, fields in STREAM_FIELDS.items()}
# Printable ASCII and "\n", the bytes of every stream this package writes
# from ASCII names. Within them numpy's reader and the per-line parser
# split the same lines and accept the same values; other control or
# non-ASCII characters can split lines (``str.splitlines``) or read as
# digits (numpy's int parser) differently.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\n"


def _parse_lines(name: str, path: Path, n_frames: float) -> list[tuple]:
    """Typed rows of one stream file, checked line by line against its schema."""
    fields = STREAM_FIELDS[name]
    lines = path.read_text().splitlines()
    if not lines or lines[0] != ",".join(STREAM_COLUMNS[name]):
        raise RecordingError(f"stream {name!r} has unexpected header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(fields):
            raise RecordingError(f"stream {name!r} line {lineno}: malformed row {line!r}")
        try:
            row = tuple(conv(p) for p, (_, conv) in zip(parts, fields))
        except ValueError as exc:
            raise RecordingError(f"stream {name!r} line {lineno}: {exc}") from exc
        if not 0 <= row[0] < n_frames:
            raise RecordingError(f"stream {name!r} line {lineno}: "
                                 f"frame {row[0]} is outside [0, {n_frames})")
        rows.append(row)
    return rows


def _parse_stream(name: str, path: Path, n_frames: float) -> list[tuple]:
    """Typed rows of one stream file, checked against its schema.

    numpy's C reader parses a file of plain bytes (``_PLAIN_BYTES``)
    with the expected header and no blank line. Any other file, one the
    reader rejects, or one with a frame outside ``[0, n_frames)`` goes
    through ``_parse_lines``, which names the bad line, or reads the few
    spellings Python accepts and numpy does not (``1_0``, an int beyond
    int64) as it always did.
    """
    data = path.read_bytes()
    header_end = data.find(b"\n")
    plain = (data[:header_end] == ",".join(STREAM_COLUMNS[name]).encode()
             and not data.translate(None, _PLAIN_BYTES) and b"\n\n" not in data)
    header_only = header_end + 1 == len(data)
    del data  # numpy reads the file itself
    if not plain:
        return _parse_lines(name, path, n_frames)
    if header_only:
        return []
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, comments=None,
                           ndmin=1, dtype=_DTYPES[name])
    except ValueError:
        return _parse_lines(name, path, n_frames)
    frames = table["frame"]
    if frames.min() < 0 or frames.max() >= n_frames:
        return _parse_lines(name, path, n_frames)
    return table.tolist()


@dataclass
class SegmentRecording:
    """One segment's record streams plus its manifest."""

    manifest: dict
    streams: dict[str, list[tuple]] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.streams, _LoadedStreams):
            for name in STREAM_NAMES:
                self.streams.setdefault(name, [])

    def append(self, stream: str, row: tuple) -> None:
        self.extend(stream, (row,))

    def extend(self, stream: str, rows) -> None:
        """Add a sequence of rows, each holding one value per field."""
        n_fields = len(STREAM_FIELDS[stream])
        for n in map(len, rows):
            if n != n_fields:
                raise RecordingError(
                    f"stream {stream!r} expects {n_fields} fields, got {n}")
        self.streams[stream].extend(rows)

    def sort(self) -> None:
        """Canonicalize row order (streams may fill from concurrent nodes)."""
        # Rows are unique on their leading identity fields (frame, then
        # rig, camera or landmark names), so plain tuple order never
        # reaches the float columns.
        for name in STREAM_NAMES:
            self.streams[name].sort()

    # -- persistence -----------------------------------------------------

    def _hash_streams(self, directory: Path | None = None) -> str:
        """Digest the streams, writing each one's bytes to ``directory`` too."""
        # A stream that was not loaded raises here, before anything is written.
        streams = [self.streams[name] for name in STREAM_NAMES]
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)
        h = hashlib.sha256()
        for name, rows in zip(STREAM_NAMES, streams):
            data = format_csv(STREAM_FIELDS[name], rows).encode()
            h.update(name.encode())
            h.update(data)
            if directory is not None:
                (directory / f"{name}.csv").write_bytes(data)
        return h.hexdigest()

    def digest(self) -> str:
        """SHA-256 over each stream's name followed by its exact file text."""
        return self._hash_streams()

    def save(self, directory) -> Path:
        """Write the streams and the manifest; ``manifest["digest"]`` is set."""
        path = Path(directory)
        self.manifest["digest"] = self._hash_streams(path)
        (path / "manifest.json").write_text(
            json.dumps(self.manifest, indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, directory, streams: tuple[str, ...] = STREAM_NAMES) -> "SegmentRecording":
        """Read a segment, parsing only the named ``streams``.

        Every stream file must exist; the ones not named are not read,
        and reading them from the result raises ``RecordingError``.
        """
        path = Path(directory)
        manifest_path = path / "manifest.json"
        if not manifest_path.exists():
            raise RecordingError(f"{path} is not a segment recording (no manifest.json)")
        manifest = json.loads(manifest_path.read_text())
        n_frames = manifest.get("frames", float("inf"))
        for name in STREAM_NAMES:
            if not (path / f"{name}.csv").exists():
                raise RecordingError(f"recording {path} is missing stream {name!r}")
        loaded = _LoadedStreams()
        for name in STREAM_NAMES:
            if name in streams:
                loaded[name] = _parse_stream(name, path / f"{name}.csv", n_frames)
        return cls(manifest=manifest, streams=loaded)

    # -- typed accessors ---------------------------------------------------

    def _frame_count(self, stream: str) -> int:
        n_frames = self.manifest.get("frames")
        if n_frames is None:
            n_frames = 1 + max((r[0] for r in self.streams[stream]), default=-1)
        return n_frames

    def ground_truth_positions(self) -> np.ndarray:
        """(F, 15, 3) array of ground-truth landmark positions."""
        return _positions(self.streams["ground_truth"], 1,
                          self._frame_count("ground_truth"))[None]

    def fused_positions(self) -> np.ndarray:
        """(F, 15, 3) array of fused (and auxiliary mean) positions."""
        return _positions(self.streams["fused_landmarks"], 1,
                          self._frame_count("fused_landmarks"))[None]

    def rig_positions(self) -> dict[str, np.ndarray]:
        """Per-rig (F, 15, 3) triangulated positions, NaN where unseen."""
        return _positions(self.streams["per_rig_landmarks"], 2,
                          self._frame_count("per_rig_landmarks"), group=1)

    def rula_rows(self) -> list[dict]:
        fields = STREAM_COLUMNS["rula"]
        return [dict(zip(fields, row)) for row in self.streams["rula"]]


@dataclass
class RunRecording:
    """A whole scenario run: one segment per adaptation state."""

    segments: dict[str, SegmentRecording]

    def save(self, directory) -> Path:
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        for name, segment in self.segments.items():
            segment.save(path / name)
        return path
