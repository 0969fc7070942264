"""Evaluation reports over run recordings.

All evaluations are pure functions of recordings on disk: they never
mutate their inputs. Reports print a human-readable table and can be
written as flat CSV/JSON records for external plotting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .recording import (RecordingError, SegmentRecording, STREAM_COLUMNS,
                        STREAM_FIELDS, format_csv)
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
    angle_rows: list[tuple]           # (phase, stature, seed, frame, joint, angle)

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


def _rula_rows(segment: SegmentRecording) -> list[dict]:
    rows = segment.rula_rows()
    if not rows:
        raise RecordingError("recording has no rula stream")
    return rows


def _mean_grand(rows: list[dict]) -> float:
    return float(np.mean([row["grand"] for row in rows]))


def _pair_key(manifest: dict) -> tuple:
    return (manifest.get("stature"), manifest.get("seed"))


def rula_compare(pre: SegmentRecording, post: SegmentRecording) -> RulaComparison:
    """Compare one paired pre/post recording."""
    return rula_compare_many([(pre, post)])


def rula_compare_many(pairs: list[tuple[SegmentRecording, SegmentRecording]]) -> RulaComparison:
    """Compare paired recordings; every pair must share stature and seed."""
    if not pairs:
        raise PairingError("no pre/post recording pairs to compare")
    rows = []
    area_acc = {area: ([], []) for area in AREA_FIELDS}
    angle_rows: list[tuple] = []
    for pre, post in pairs:
        key, post_key = _pair_key(pre.manifest), _pair_key(post.manifest)
        if key != post_key:
            raise PairingError(
                f"pre recording (stature, seed) {key} does not match post {post_key}")
        stature, seed = key
        pre_rows, post_rows = _rula_rows(pre), _rula_rows(post)
        rows.append({
            "stature": stature,
            "seed": seed,
            "pre_mean_grand": _mean_grand(pre_rows),
            "post_mean_grand": _mean_grand(post_rows),
        })
        for phase, segment_rows in (("pre", pre_rows), ("post", post_rows)):
            for row in segment_rows:
                for area, col in AREA_FIELDS.items():
                    area_acc[area][0 if phase == "pre" else 1].append(row[col])
                for joint in STRESS_JOINTS:
                    angle_rows.append((phase, stature, seed, row["frame"],
                                       joint, row[joint]))
    area_means = {area: (float(np.mean(pre_vals)), float(np.mean(post_vals)))
                  for area, (pre_vals, post_vals) in area_acc.items()}
    return RulaComparison(pairs=rows, area_means=area_means, angle_rows=angle_rows)


def collect_segments(root) -> list[tuple[Path, dict]]:
    """Find segment recordings under ``root`` (itself, or nested run dirs).

    Returns each segment directory with its manifest; no stream is read.
    """
    root = Path(root)
    if (root / "manifest.json").exists():
        manifests = [root / "manifest.json"]
    else:
        manifests = sorted(root.rglob("manifest.json"))
    if not manifests:
        raise RecordingError(f"no segment recordings under {root}")
    return [(m.parent, json.loads(m.read_text())) for m in manifests]


def _collect_preferring(root, want: str) -> list[tuple[Path, dict]]:
    segments = collect_segments(root)
    named = [(path, m) for path, m in segments if m.get("segment") == want]
    return named or segments


def pair_recordings(pre_root, post_root) -> list[tuple[SegmentRecording, SegmentRecording]]:
    """Pair recordings under two roots by (stature, seed).

    When a root holds both segments of adaptation runs, the pre root
    contributes its ``pre`` segments and the post root its ``post``.
    Pairing reads only manifests; each paired segment is loaded once,
    parsing only ``RULA_STREAMS``.
    """
    pre_segments = _collect_preferring(pre_root, "pre")
    post_by_key = {}
    for path, manifest in _collect_preferring(post_root, "post"):
        key = _pair_key(manifest)
        if key in post_by_key:
            raise PairingError(f"duplicate post recording for (stature, seed)={key}")
        post_by_key[key] = path
    pairs = []
    for path, manifest in pre_segments:
        key = _pair_key(manifest)
        if key not in post_by_key:
            raise PairingError(f"no post recording pairs (stature, seed)={key}")
        pairs.append((path, post_by_key.pop(key)))
    if post_by_key:
        raise PairingError(
            f"unpaired post recordings for (stature, seed) in {sorted(post_by_key)}")
    loaded = {path: SegmentRecording.load(path, RULA_STREAMS)
              for pair in pairs for path in pair}
    return [(loaded[pre], loaded[post]) for pre, post in pairs]


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

# The stream each export reads; all but ``heatmap`` write it as it stands.
EXPORT_STREAMS = {"landmarks": "fused_landmarks", "rula": "rula", "heatmap": "rula"}
EXPORT_KINDS = tuple(EXPORT_STREAMS)
EXPORT_FORMATS = ("csv", "json")


def _write_records(fields: tuple[tuple[str, type], ...], rows: list[tuple],
                   fmt: str, out_path: Path) -> Path:
    if fmt == "csv":
        out_path.write_text(format_csv(fields, rows))
    else:
        names = [name for name, _ in fields]
        records = [dict(zip(names, row)) for row in rows]
        out_path.write_text(json.dumps(records, indent=1, default=float) + "\n")
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

    rula_rows = segment.streams[stream]
    if not rula_rows:
        raise RecordingError("recording has no rula stream to derive a heatmap from")
    columns = STREAM_COLUMNS["rula"]
    angles = itemgetter(*(columns.index(joint) for joint in STRESS_JOINTS))
    joints, stress = joint_stress_heatmap(np.array(list(map(angles, rula_rows))))
    rows_out = [(row[0], joint, value)
                for row, frame_stress in zip(rula_rows, stress.tolist())
                for joint, value in zip(joints, frame_stress)]
    return _write_records((("frame", int), ("joint", str), ("stress", float)),
                          rows_out, fmt, out_path)


def write_comparison(comparison: RulaComparison, out_dir) -> dict[str, Path]:
    """Write the paired comparison as three plot-ready flat files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}

    grand_rows = [(row["stature"], row["seed"], row["pre_mean_grand"],
                   row["post_mean_grand"]) for row in comparison.pairs]
    paths["grand"] = _write_records(
        (("stature", float), ("seed", int), ("pre_mean_grand", float),
         ("post_mean_grand", float)),
        grand_rows, "csv", out_dir / "grand_by_stature.csv")

    area_rows = [(area, pre, post, pre - post)
                 for area, (pre, post) in comparison.area_means.items()]
    paths["areas"] = _write_records(
        (("area", str), ("pre_mean", float), ("post_mean", float),
         ("improvement", float)),
        area_rows, "csv", out_dir / "area_means.csv")

    paths["angles"] = _write_records(
        (("phase", str), ("stature", float), ("seed", int), ("frame", int),
         ("joint", str), ("angle", float)),
        comparison.angle_rows, "csv", out_dir / "angle_distributions.csv")
    return paths
