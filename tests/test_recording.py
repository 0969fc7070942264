"""Recording write and read paths: digests, canonical order, landmark names."""

import hashlib
import json
import random

import pytest

from ergofusion.pipeline import run_scenario
from ergofusion.recording import STREAM_NAMES, RecordingError, SegmentRecording
from ergofusion.scenario import default_handover_scenario

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
