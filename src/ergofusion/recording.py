"""On-disk run recordings: flat, diffable record streams plus a manifest.

A segment recording is one directory holding five newline-delimited
record streams (``ground_truth``, ``observations``, ``per_rig_landmarks``,
``fused_landmarks``, ``rula``) and a ``manifest.json``. Records carry a
fixed field order (``STREAM_FIELDS``). In memory each stream is one numpy
structured table of dtype ``_DTYPES[name]``: int64 and float64 fields,
and ``object`` for str fields, so no string is cut to a fixed width.

Every table is built by ``columns_table`` from typed columns: the
recorder (``pipeline.RecorderNode``) writes each message into its
frame's slot and passes the seen slots, which are already in canonical
order. ``SegmentRecording.sort`` is the reference definition of that
order (the rows' tuple order, names in code-point order). Outside input
is checked where it enters: stream files by ``_parse_stream`` on load,
manifests by ``read_manifest``, and manifest stature and seed when
``evaluate`` pairs recordings.

Each stream file is written through one %-template per stream
(``csv_chunks``): ``%.9g`` (9 significant digits) for float columns and
``%s`` for int and str columns. ``json_chunks`` writes JSON records
through one typed template per record, byte-identical to
``json.dumps(records, indent=1)``. Both format a table ``CHUNK_ROWS``
rows at a time, and ``write_chunks`` encodes each chunk once and feeds
its bytes to the open file and to a digest before the next chunk is
formatted, so writing or hashing a table holds one chunk's text, not
the whole file's. The manifest stores a SHA-256 digest over each
stream's name followed by its exact file text, so determinism checks
reduce to digest comparison (run statistics live in the manifest and
deliberately stay outside the digest). ``save()`` formats each stream
once and feeds the same bytes to the file and to the digest; it removes
an earlier ``manifest.json`` before the first stream is written and
writes the new one last, so an interrupted save leaves no loadable
recording.

``SegmentRecording.load`` can parse a selection of the streams: it
checks that the manifest and all five stream files exist, but parses
and validates (header, field count, typed values, frame range) only the
named ones. The evaluation commands parse only what they read:
``eval-rmse`` the ``ground_truth``, ``per_rig_landmarks`` and
``fused_landmarks`` streams, ``eval-rula`` the ``rula`` stream, and
``export`` the one stream it writes (``rula`` for the heatmap). A
stream that was not loaded raises ``RecordingError`` when it is read;
``digest()`` and ``save()`` need a full load.

Each stream file is read by numpy's C reader (``np.loadtxt`` straight
into the stream's table). A first pass reads the file
``READ_CHUNK_BYTES`` at a time to check its header and bytes and count
its rows, so the reader allocates the table once, at its size. Every str
field goes through ``sys.intern``: a loaded table's str fields share one
object per distinct value, as the recorder's do, so a load holds its
table plus one read chunk. The per-line parser re-runs only to name a
bad line, or for a file outside the reader's plain-ASCII subset, so the
accepted input, the values and every error message stay those of the
per-line parser; it interns its str fields too. ``read_manifest`` reads
and checks every ``manifest.json``.

A full run recording is a directory of segment subdirectories, normally
``pre`` and ``post`` around the robot adaptation.
"""

from __future__ import annotations

import hashlib
import json
import sys
import warnings
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .skeleton import LANDMARK_NAMES, N_ALL

FLOAT_FMT = "%.9g"
# Rows formatted, encoded and written (or hashed) at a time: the text of
# a table never sits in memory whole.
CHUNK_ROWS = 4096

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


# numpy field type per schema type; ``object`` keeps each string whole
# (a fixed ``U<n>`` width could truncate it and costs n * 4 bytes a row).
_NUMPY_TYPES = {int: np.int64, float: np.float64, str: object}
_INT64 = np.iinfo(np.int64)


def _table_dtype(fields: tuple[tuple[str, type], ...]) -> np.dtype:
    """The structured dtype of typed ``fields``."""
    return np.dtype([(name, _NUMPY_TYPES[conv]) for name, conv in fields])


_DTYPES = {name: _table_dtype(fields) for name, fields in STREAM_FIELDS.items()}


def columns_table(fields: tuple[tuple[str, type], ...], n: int, columns) -> np.ndarray:
    """``n`` rows of typed ``fields`` from columns (or scalars) in field order.

    The one table constructor. Each column is assigned as numpy converts
    it, so callers pass values their field holds: typed arrays, or
    Python values already checked.
    """
    # Every field is overwritten; np.empty would first set each object to None.
    table = np.zeros(n, _table_dtype(fields))
    for (name, _), column in zip(fields, columns):
        table[name] = column
    return table


def _row_chunks(table: np.ndarray):
    """``table`` in consecutive slices of at most ``CHUNK_ROWS`` rows."""
    return (table[start:start + CHUNK_ROWS] for start in range(0, len(table), CHUNK_ROWS))


def csv_chunks(fields: tuple[tuple[str, type], ...], table: np.ndarray) -> Iterator[str]:
    """Comma-separated text of a table's rows under typed ``fields``, in chunks.

    The header line comes first, then the rows ``CHUNK_ROWS`` at a time,
    each chunk ending at a line end. Every row goes through one
    %-template: ``FLOAT_FMT`` for float fields, ``%s`` for int and str
    ones. A chunk's rows are zipped from its columns' Python values.
    """
    yield ",".join(name for name, _ in fields) + "\n"
    template = ",".join(FLOAT_FMT if conv is float else "%s" for _, conv in fields) + "\n"
    for chunk in _row_chunks(table):
        yield "".join(map(template.__mod__,
                          zip(*(chunk[name].tolist() for name, _ in fields))))


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_values(conv: type, column: np.ndarray) -> list:
    """A column's values as ``json.dumps`` spells them (for ``%s``)."""
    if conv is str:
        return list(map(encode_basestring_ascii, column))
    values = column.tolist()  # Python ints and floats: %s is their repr
    if conv is float:
        for i in np.flatnonzero(~np.isfinite(column)).tolist():
            values[i] = _JSON_NON_FINITE[repr(values[i])]
    return values


def json_chunks(fields: tuple[tuple[str, type], ...], table: np.ndarray) -> Iterator[str]:
    """``json.dumps(records, indent=1)`` of a table's rows as records, in chunks.

    Each record maps the field names to the row's values, and every
    record goes through one template: ints as ``repr``, strs through
    ``json.encoder.encode_basestring_ascii``, floats as ``repr`` or
    ``NaN``, ``Infinity``, ``-Infinity``. Records are formatted
    ``CHUNK_ROWS`` at a time.
    """
    if not len(table):
        yield "[]"
        return
    template = " {\n" + ",\n".join(
        f"  {encode_basestring_ascii(name).replace('%', '%%')}: %s"
        for name, _ in fields) + "\n }"
    separator = "[\n"
    for chunk in _row_chunks(table):
        columns = [_json_values(conv, chunk[name]) for name, conv in fields]
        yield separator + ",\n".join(map(template.__mod__, zip(*columns)))
        separator = ",\n"
    yield "\n]"


def write_chunks(chunks: Iterable[str], path: Path | None = None, sha=None) -> None:
    """Encode each text chunk once and feed its bytes to ``sha`` and to ``path``.

    The one way a table's text leaves memory: a chunk is dropped once
    written, so no caller holds a whole file's text or bytes.
    """
    with open(path, "wb") if path is not None else nullcontext() as out:
        for chunk in chunks:
            data = chunk.encode()
            if sha is not None:
                sha.update(data)
            if out is not None:
                out.write(data)


def _positions(table: np.ndarray, n_frames: int,
               group: str | None = None) -> dict[str | None, np.ndarray]:
    """(F, 15, 3) positions from a table with ``frame``, ``landmark`` and
    ``x``, ``y``, ``z`` fields; NaN where a landmark has no row.

    Returns one array per value of the ``group`` field, in order of
    first appearance, or without ``group`` one array under ``None``. The
    columns are written with one fancy-indexed assignment.
    """
    names = (None,) if group is None else tuple(dict.fromkeys(table[group]))
    out = np.full((len(names), n_frames, N_ALL, 3), np.nan)
    if len(table):
        try:
            landmark = list(map(_LANDMARK_BY_NAME.__getitem__, table["landmark"]))
        except KeyError as exc:
            raise RecordingError(f"unknown landmark name {exc.args[0]!r}") from None
        source = 0
        if group is not None:
            code = {name: i for i, name in enumerate(names)}
            source = list(map(code.__getitem__, table[group]))
        out[source, table["frame"], landmark] = np.stack(
            (table["x"], table["y"], table["z"]), axis=-1)
    return dict(zip(names, out))


# Printable ASCII and "\n", the bytes of every stream this package writes
# from ASCII names. Within them numpy's reader and the per-line parser
# split the same lines and accept the same values; other control or
# non-ASCII characters can split lines (``str.splitlines``) or read as
# digits (numpy's int parser) differently.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\n"
# Bytes of a stream file checked at a time before numpy reads it.
READ_CHUNK_BYTES = 1 << 20
# Per stream, the C reader's converter of each str column: one shared
# object per distinct name instead of one per row.
_INTERN = {name: {i: sys.intern for i, (_, conv) in enumerate(fields) if conv is str}
           for name, fields in STREAM_FIELDS.items()}


def _parse_lines(name: str, path: Path, n_frames: float) -> np.ndarray:
    """Table of one stream file, checked line by line against its schema."""
    fields = STREAM_FIELDS[name]
    ints = [i for i, (_, conv) in enumerate(fields) if conv is int]
    convs = [sys.intern if conv is str else conv for _, conv in fields]
    lines = path.read_text().splitlines()
    if not lines or lines[0] != ",".join(STREAM_COLUMNS[name]):
        raise RecordingError(f"stream {name!r} has unexpected header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(fields):
            raise RecordingError(f"stream {name!r} line {lineno}: malformed row {line!r}")
        try:
            row = tuple(conv(p) for p, conv in zip(parts, convs))
        except ValueError as exc:
            raise RecordingError(f"stream {name!r} line {lineno}: {exc}") from exc
        if not 0 <= row[0] < n_frames:
            raise RecordingError(f"stream {name!r} line {lineno}: "
                                 f"frame {row[0]} is outside [0, {n_frames})")
        for i in ints:
            if not _INT64.min <= row[i] <= _INT64.max:
                raise RecordingError(f"stream {name!r} line {lineno}: "
                                     f"{fields[i][0]} {row[i]} is outside int64")
        rows.append(row)
    return np.array(rows, _DTYPES[name])


def _plain_rows(name: str, path: Path) -> int | None:
    """The number of rows of a plain stream file, or ``None`` for another file.

    A plain file starts with the stream's header line, holds only
    ``_PLAIN_BYTES`` and has no blank line. It is read ``READ_CHUNK_BYTES``
    at a time; a blank line across two chunks is found by the line end
    that closed the chunk before.
    """
    header = (",".join(STREAM_COLUMNS[name]) + "\n").encode()
    line_ends = 0
    with open(path, "rb") as f:
        if f.read(len(header)) != header:
            return None
        last = b"\n"
        while chunk := f.read(READ_CHUNK_BYTES):
            if (chunk.translate(None, _PLAIN_BYTES) or b"\n\n" in chunk
                    or last == b"\n" == chunk[:1]):
                return None
            line_ends += chunk.count(b"\n")
            last = chunk[-1:]
    # The last row may lack its line end.
    return line_ends + (last != b"\n")


def _parse_stream(name: str, path: Path, n_frames: float) -> np.ndarray:
    """Table of one stream file, checked against its schema.

    numpy's C reader parses a plain file (``_plain_rows``) into a table of
    exactly its row count, each str field through ``sys.intern``. Any
    other file, one the reader rejects or warns about (older numpy only
    warns on a float in an int field), or one with a frame outside
    ``[0, n_frames)`` goes through ``_parse_lines``, which names the bad
    line, or reads the few spellings Python accepts and numpy does not
    (``1_0``) as it always did.
    """
    rows = _plain_rows(name, path)
    if rows is None:
        return _parse_lines(name, path, n_frames)
    if not rows:
        return np.empty(0, _DTYPES[name])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # The file is plain ASCII. An explicit text encoding hands the
            # converters str, also where numpy < 2.0 would hand them bytes.
            table = np.loadtxt(path, delimiter=",", skiprows=1, comments=None,
                               ndmin=1, dtype=_DTYPES[name], max_rows=rows,
                               encoding="ascii", converters=_INTERN[name])
    except (ValueError, Warning):
        return _parse_lines(name, path, n_frames)
    frames = table["frame"]
    if frames.min() < 0 or frames.max() >= n_frames:
        return _parse_lines(name, path, n_frames)
    return table


def read_manifest(path: Path) -> dict:
    """The parsed ``manifest.json`` at ``path``, checked.

    It must be a JSON object, and its ``frames``, when present, an int
    ``>= 0`` (not a bool). Anything else raises ``RecordingError`` naming
    the file and, for ``frames``, the field.
    """
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:  # invalid JSON or UTF-8
        raise RecordingError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise RecordingError(f"{path} must hold a JSON object, "
                             f"not {type(manifest).__name__}")
    frames = manifest.get("frames", 0)
    if isinstance(frames, bool) or not isinstance(frames, int) or frames < 0:
        raise RecordingError(f"{path}: frames must be an int >= 0, got {frames!r}")
    return manifest


@dataclass
class SegmentRecording:
    """One segment's record streams, one structured table each, plus its manifest."""

    manifest: dict
    streams: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.streams, _LoadedStreams):
            for name in STREAM_NAMES:
                self.streams.setdefault(name, np.empty(0, _DTYPES[name]))

    @staticmethod
    def sort(table: np.ndarray) -> np.ndarray:
        """``table`` in canonical order, the reference definition of it.

        Rows are ordered by their leading int and str fields (frame, then
        rig, camera or landmark names, str in code-point order), which
        are unique per row, so this is the rows' tuple order. The
        recorder builds its tables in this order and never calls it.
        """
        keys = []
        for name in table.dtype.names:
            column = table[name]
            if column.dtype.kind == "f":
                break
            if column.dtype.kind == "O":
                # A str value's rank among the distinct values orders as it does.
                rank = {value: i for i, value in enumerate(sorted(set(column)))}
                column = np.fromiter(map(rank.__getitem__, column), np.int64, len(column))
            keys.append(column)
        return table[np.lexsort(keys[::-1])]

    # -- persistence -----------------------------------------------------

    def _hash_streams(self, directory: Path | None = None) -> str:
        """Digest the streams, writing each one's bytes to ``directory`` too."""
        # A stream that was not loaded raises here, before anything is written.
        streams = [self.streams[name] for name in STREAM_NAMES]
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)
            # An interrupted save must not leave an earlier manifest over
            # newer streams.
            (directory / "manifest.json").unlink(missing_ok=True)
        h = hashlib.sha256()
        for name, table in zip(STREAM_NAMES, streams):
            h.update(name.encode())
            write_chunks(csv_chunks(STREAM_FIELDS[name], table),
                         None if directory is None else directory / f"{name}.csv", h)
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
    def load(cls, directory, streams: tuple[str, ...] = STREAM_NAMES,
             manifest: dict | None = None) -> "SegmentRecording":
        """Read a segment, parsing only the named ``streams``.

        Every stream file must exist; the ones not named are not read,
        and reading them from the result raises ``RecordingError``. A name
        outside ``STREAM_NAMES`` raises ``ValueError``, and a bare str
        ``TypeError``. ``manifest`` is the segment's ``read_manifest``
        result when the caller has read it already.
        """
        if isinstance(streams, str):
            raise TypeError(f"streams must be a collection of stream names, "
                            f"not the str {streams!r}")
        unknown = [name for name in streams if name not in STREAM_FIELDS]
        if unknown:
            raise ValueError(f"unknown stream {unknown[0]!r}; choose from {STREAM_NAMES}")
        path = Path(directory)
        if manifest is None:
            manifest_path = path / "manifest.json"
            if not manifest_path.exists():
                raise RecordingError(
                    f"{path} is not a segment recording (no manifest.json)")
            manifest = read_manifest(manifest_path)
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

    def _frame_count(self) -> int:
        """F of every position array: one past the largest frame index any
        loaded stream holds, never more than the manifest's ``frames``, so
        the arrays are sized by the rows and not by the manifest alone."""
        held = max((int(table["frame"].max()) + 1
                    for table in self.streams.values() if len(table)), default=0)
        return min(held, self.manifest.get("frames", held))

    def ground_truth_positions(self) -> np.ndarray:
        """(F, 15, 3) array of ground-truth landmark positions."""
        return _positions(self.streams["ground_truth"], self._frame_count())[None]

    def fused_positions(self) -> np.ndarray:
        """(F, 15, 3) array of fused (and auxiliary mean) positions."""
        return _positions(self.streams["fused_landmarks"], self._frame_count())[None]

    def rig_positions(self) -> dict[str, np.ndarray]:
        """Per-rig (F, 15, 3) triangulated positions, NaN where unseen."""
        return _positions(self.streams["per_rig_landmarks"], self._frame_count(),
                          group="rig")


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
