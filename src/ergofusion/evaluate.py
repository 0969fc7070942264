"""Evaluation reports over run recordings.

All evaluations are pure functions of recordings on disk: they never
mutate their inputs. Reports print a human-readable table and can be
written as flat CSV/JSON records for external plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .recording import (_INT64, RecordingError, SegmentRecording, STREAM_FIELDS,
                        columns_table, csv_chunks, json_chunks, read_manifest,
                        write_chunks)
from .rula import AREA_FIELDS, STRESS_JOINTS, joint_stress_heatmap
from .skeleton import LANDMARK_NAMES, N_FUSED

FUSION_SOURCE = "fusion"
BEST_RIG_MARGIN = 1.10


class PairingError(ValueError):
    """Pre/post recordings do not belong to the same experiment."""


# ---------------------------------------------------------------------------
# RMSE report
# ---------------------------------------------------------------------------

@dataclass
class RmseReport:
    """Per-landmark RMSE (meters) for each rig and for the fused output."""

    landmarks: tuple[str, ...]
    sources: tuple[str, ...]          # rig ids then "fusion"
    rmse: np.ndarray                  # (n_sources, n_landmarks)

    @property
    def fusion(self) -> np.ndarray:
        return self.rmse[-1]

    @property
    def rig_rmse(self) -> np.ndarray:
        return self.rmse[:-1]

    def best_rig(self) -> np.ndarray:
        return self.rig_rmse.min(axis=0)

    def worst_rig(self) -> np.ndarray:
        return self.rig_rmse.max(axis=0)

    def fusion_flags(self) -> list[str]:
        """Per landmark: how the fused column compares against the rigs."""
        flags = []
        for j in range(len(self.landmarks)):
            fused = self.fusion[j]
            best, worst = self.best_rig()[j], self.worst_rig()[j]
            if fused < best:
                flags.append("beats_best")
            elif fused <= BEST_RIG_MARGIN * best:
                flags.append("near_best")
            elif fused <= worst:
                flags.append("below_worst")
            else:
                flags.append("above_worst")
        return flags

    def to_text(self) -> str:
        width = max(len(s) for s in self.sources + ("source",)) + 2
        cols = [f"p{j + 1}" for j in range(len(self.landmarks))]
        lines = ["RMSE per landmark (m)",
                 "source".ljust(width) + " ".join(f"{c:>9}" for c in cols)]
        for i, source in enumerate(self.sources):
            cells = " ".join(f"{self.rmse[i, j]:9.4g}" for j in range(len(self.landmarks)))
            lines.append(source.ljust(width) + cells)
        lines.append("fusion flags: " + " ".join(
            f"p{j + 1}={flag}" for j, flag in enumerate(self.fusion_flags())))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "landmarks": list(self.landmarks),
            "sources": list(self.sources),
            "rmse": {source: [float(v) for v in self.rmse[i]]
                     for i, source in enumerate(self.sources)},
            "fusion_flags": self.fusion_flags(),
        }


# The streams ``rmse_report`` reads.
RMSE_STREAMS = ("ground_truth", "per_rig_landmarks", "fused_landmarks")


def rmse_report(segment: SegmentRecording) -> RmseReport:
    """Compute per-landmark RMSE of each rig and the fusion vs ground truth."""
    truth = segment.ground_truth_positions()[:, :N_FUSED]
    if truth.shape[0] == 0:
        raise RecordingError("recording has no ground-truth frames")
    fused = segment.fused_positions()[:, :N_FUSED]
    rigs = segment.rig_positions()
    if not rigs:
        raise RecordingError("recording has no per-rig landmark stream")

    def rmse_of(est: np.ndarray) -> np.ndarray:
        sq = np.sum((est - truth) ** 2, axis=2)  # (F, N)
        return np.sqrt(np.nanmean(sq, axis=0))

    sources = tuple(sorted(rigs)) + (FUSION_SOURCE,)
    table = np.vstack([rmse_of(rigs[r][:, :N_FUSED])
                       for r in sorted(rigs)] + [rmse_of(fused)])
    return RmseReport(landmarks=LANDMARK_NAMES[:N_FUSED],
                      sources=sources, rmse=table)


# ---------------------------------------------------------------------------
# RULA before/after comparison
# ---------------------------------------------------------------------------

@dataclass
class RulaComparison:
    """Paired pre/post RULA statistics, optionally over a stature grid."""

    pairs: list[dict]                 # one row per (stature, seed) pair
    area_means: dict[str, tuple[float, float]]
    angle_rows: np.ndarray            # ANGLE_FIELDS table, one row per frame and joint

    def mean_grand_by_stature(self) -> dict[float, tuple[float, float]]:
        acc: dict[float, list[tuple[float, float]]] = {}
        for row in self.pairs:
            acc.setdefault(row["stature"], []).append(
                (row["pre_mean_grand"], row["post_mean_grand"]))
        return {s: (float(np.mean([p for p, _ in v])), float(np.mean([q for _, q in v])))
                for s, v in sorted(acc.items())}

    def area_improvements(self) -> dict[str, float]:
        return {area: pre - post for area, (pre, post) in self.area_means.items()}

    def to_text(self) -> str:
        lines = ["mean grand RULA (pre -> post)"]
        for stature, (pre, post) in self.mean_grand_by_stature().items():
            lines.append(f"  stature {stature:4.2f}: {pre:5.3f} -> {post:5.3f}")
        lines.append("per-area mean step scores (pre -> post)")
        for area, (pre, post) in self.area_means.items():
            lines.append(f"  {area:<10} {pre:5.3f} -> {post:5.3f}")
        return "\n".join(lines)


# The streams ``rula_compare_many`` reads.
RULA_STREAMS = ("rula",)
ANGLE_FIELDS = (("phase", str), ("stature", float), ("seed", int), ("frame", int),
                ("joint", str), ("angle", float))


def _stress_joint_columns(rula: np.ndarray):
    """The frame and joint columns of one row per frame of ``rula`` and joint
    of ``STRESS_JOINTS`` (frame-major), and the (F, 8) joint angles."""
    joints = np.array(STRESS_JOINTS, dtype=object)
    angles = np.stack([rula[joint] for joint in STRESS_JOINTS], axis=1)
    return (np.repeat(rula["frame"], len(joints)), np.tile(joints, len(rula)),
            angles)


def _pair_key(manifest: dict) -> tuple:
    """A manifest's (stature, seed), checked: a real number and an int64.

    Raises ``RecordingError`` naming the field for a missing value, a
    bool, or a value of another type.
    """
    stature, seed = manifest.get("stature"), manifest.get("seed")
    for name, value in (("stature", stature), ("seed", seed)):
        if value is None:
            raise RecordingError(f"recording manifest has no {name}")
    if isinstance(stature, bool) or not isinstance(stature, Real):
        raise RecordingError(f"recording manifest stature must be a number, got {stature!r}")
    if (isinstance(seed, bool) or not isinstance(seed, Integral)
            or not _INT64.min <= seed <= _INT64.max):
        raise RecordingError(f"recording manifest seed must be an int64, got {seed!r}")
    return stature, seed


def rula_compare_many(pairs: list[tuple[SegmentRecording, SegmentRecording]]) -> RulaComparison:
    """Compare paired recordings; every pair must share stature and seed."""
    if not pairs:
        raise PairingError("no pre/post recording pairs to compare")
    rows = []
    phase_tables: tuple[list, list] = ([], [])  # pre, post
    angle_parts = []
    for pre, post in pairs:
        key, post_key = _pair_key(pre.manifest), _pair_key(post.manifest)
        if key != post_key:
            raise PairingError(
                f"pre recording (stature, seed) {key} does not match post {post_key}")
        stature, seed = key
        tables = pre.streams["rula"], post.streams["rula"]
        if not all(map(len, tables)):
            raise RecordingError("recording has no rula stream")
        rows.append({
            "stature": stature,
            "seed": seed,
            "pre_mean_grand": float(np.mean(tables[0]["grand"])),
            "post_mean_grand": float(np.mean(tables[1]["grand"])),
        })
        for phase, table, acc in zip(("pre", "post"), tables, phase_tables):
            acc.append(table)
            frame, joint, angles = _stress_joint_columns(table)
            angle_parts.append(columns_table(
                ANGLE_FIELDS, angles.size,
                (phase, stature, seed, frame, joint, angles.ravel())))
    pre_all, post_all = (np.concatenate(acc) for acc in phase_tables)
    area_means = {area: (float(np.mean(pre_all[col])), float(np.mean(post_all[col])))
                  for area, col in AREA_FIELDS.items()}
    return RulaComparison(pairs=rows, area_means=area_means,
                          angle_rows=np.concatenate(angle_parts))


def collect_segments(root) -> list[tuple[Path, dict]]:
    """Find segment recordings under ``root`` (itself, or nested run dirs).

    Returns each segment directory with its manifest (``read_manifest``);
    no stream is read.
    """
    root = Path(root)
    if (root / "manifest.json").exists():
        manifests = [root / "manifest.json"]
    else:
        manifests = sorted(root.rglob("manifest.json"))
    if not manifests:
        raise RecordingError(f"no segment recordings under {root}")
    return [(m.parent, read_manifest(m)) for m in manifests]


def _preferring(segments: list[tuple[Path, dict]], want: str) -> list[tuple[Path, dict]]:
    named = [(path, m) for path, m in segments if m.get("segment") == want]
    return named or segments


def pair_recordings(pre_root, post_root) -> list[tuple[SegmentRecording, SegmentRecording]]:
    """Pair recordings under two roots by (stature, seed).

    When a root holds both segments of adaptation runs, the pre root
    contributes its ``pre`` segments and the post root its ``post``.
    A segment directory paired with itself is refused: it would read as
    "no change". Pairing reads only manifests, once per distinct root;
    each paired segment is loaded once, from its collected manifest,
    parsing only ``RULA_STREAMS``.
    """
    pre_root, post_root = Path(pre_root), Path(post_root)
    segments = {root: collect_segments(root)
                for root in dict.fromkeys((pre_root, post_root))}
    pre_segments = _preferring(segments[pre_root], "pre")
    post_by_key = {}
    for path, manifest in _preferring(segments[post_root], "post"):
        key = _pair_key(manifest)
        if key in post_by_key:
            raise PairingError(f"duplicate post recording for (stature, seed)={key}")
        post_by_key[key] = path
    pairs = []
    for path, manifest in pre_segments:
        key = _pair_key(manifest)
        if key not in post_by_key:
            raise PairingError(f"no post recording pairs (stature, seed)={key}")
        post = post_by_key.pop(key)
        if path.samefile(post):
            raise PairingError(f"pre and post are the same segment recording {path}")
        pairs.append((path, post))
    if post_by_key:
        raise PairingError(
            f"unpaired post recordings for (stature, seed) in {sorted(post_by_key)}")
    manifests = {path: manifest for found in segments.values() for path, manifest in found}
    loaded = {path: SegmentRecording.load(path, RULA_STREAMS, manifests[path])
              for pair in pairs for path in pair}
    return [(loaded[pre], loaded[post]) for pre, post in pairs]


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

# The stream each export reads; all but ``heatmap`` write it as it stands.
EXPORT_STREAMS = {"landmarks": "fused_landmarks", "rula": "rula", "heatmap": "rula"}
EXPORT_KINDS = tuple(EXPORT_STREAMS)
EXPORT_FORMATS = ("csv", "json")


def _write_records(fields: tuple[tuple[str, type], ...], table: np.ndarray,
                   fmt: str, out_path: Path) -> Path:
    if fmt == "csv":
        write_chunks(csv_chunks(fields, table), out_path)
    else:
        write_chunks(chain(json_chunks(fields, table), ("\n",)), out_path)
    return out_path


def export(segment: SegmentRecording, what: str, fmt: str, out_path) -> Path:
    """Write one stream of a recording as flat CSV or JSON records.

    ``landmarks`` exports the fused landmark stream, ``rula`` the
    per-frame scoring stream, and ``heatmap`` the normalized per-joint
    stress values derived from the recorded joint angles.
    """
    if what not in EXPORT_KINDS:
        raise ValueError(f"unknown export {what!r}; choose from {EXPORT_KINDS}")
    if fmt not in EXPORT_FORMATS:
        raise ValueError(f"unknown format {fmt!r}; choose from {EXPORT_FORMATS}")
    out_path = Path(out_path)

    stream = EXPORT_STREAMS[what]
    if what != "heatmap":
        return _write_records(STREAM_FIELDS[stream], segment.streams[stream],
                              fmt, out_path)

    rula = segment.streams[stream]
    if not len(rula):
        raise RecordingError("recording has no rula stream to derive a heatmap from")
    frame, joint, angles = _stress_joint_columns(rula)
    _, stress = joint_stress_heatmap(angles)
    fields = (("frame", int), ("joint", str), ("stress", float))
    table = columns_table(fields, stress.size, (frame, joint, stress.ravel()))
    return _write_records(fields, table, fmt, out_path)


def write_comparison(comparison: RulaComparison, out_dir) -> dict[str, Path]:
    """Write the paired comparison as three plot-ready flat files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}

    grand_fields = (("stature", float), ("seed", int), ("pre_mean_grand", float),
                    ("post_mean_grand", float))
    pairs = comparison.pairs
    paths["grand"] = _write_records(
        grand_fields, columns_table(grand_fields, len(pairs), (
            [row[name] for row in pairs] for name, _ in grand_fields)),
        "csv", out_dir / "grand_by_stature.csv")

    area_fields = (("area", str), ("pre_mean", float), ("post_mean", float),
                   ("improvement", float))
    areas = comparison.area_means
    pre, post = np.array(list(areas.values())).reshape(-1, 2).T
    paths["areas"] = _write_records(
        area_fields, columns_table(area_fields, len(areas), (list(areas), pre, post, pre - post)),
        "csv", out_dir / "area_means.csv")

    paths["angles"] = _write_records(ANGLE_FIELDS, comparison.angle_rows, "csv",
                                     out_dir / "angle_distributions.csv")
    return paths
