"""The capture/fusion/scoring node graph and scenario runner.

Topology (one topic per edge label, single publisher each)::

    driver --world--> camera nodes (one per physical camera)
    camera --observations/<cam>--> fusion node
    fusion --per_rig_landmarks, fused_landmarks--> ergonomics, adaptation
    ergonomics --rula, posture_status--> recorder
    adaptation --adaptation--> recorder
    (recorder also subscribes world, observations, per_rig, fused)

The fusion node synchronizes per-camera messages by frame index and
solves every rig's landmarks in one fixed-shape DLT pass per frame (one
``solve_pairs(uv, projections)`` call on a projection stack built once
per run: each point's closed-form least-squares solution of its
row-normalized DLT rows, elementwise numpy only), masking afterwards the
points a rig did not see in both cameras. It applies the
graph-Laplacian solve, prefactored exactly once per run
(``prefactor_count`` is asserted in tests); only value checks stay per frame.
Per-rig DLT residual quantiles and the host time per source frame
(``stats.frame_wall_ms``) go to the manifest stats, outside the digest.
The recorder builds each stream's table in canonical order. A scenario
run produces a ``pre`` segment with the default delivery point and, when
adaptation is enabled, a paired ``post`` segment re-run with the same
seed and the adapted delivery so pre/post comparisons share their noise
realization.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, fields
from operator import attrgetter, itemgetter
from typing import Iterator

import numpy as np

from . import __version__
from .adaptation import (AnthropometricClass, RobotDeliveryParams, adapt_robot,
                         classify_height, estimate_height)
from .bus import FrameSynchronizer, Message, Node, NodeGraph, run_serial, run_threaded
from .cameras import CameraModel
from .fusion import build_topology, landmark_means, prefactor, solve
# Not called here (they check arguments the node checks once per run), but
# perfbench/tracing.py wraps them by name in this module's namespace.
from .fusion import compute_anchors, compute_delta, fuse  # noqa: F401
from .recording import (_INT64, STREAM_COLUMNS, STREAM_FIELDS, STREAM_NAMES,
                        RunRecording, SegmentRecording, columns_table)
from .rula import (RulaAdjustments, RulaBreakdown, JointAngles, PostureStatus,
                   classify_posture, compute_joint_angles, rula_score)
from .scenario import ScenarioConfig, ScenarioError
from .skeleton import (LANDMARK_NAMES, CameraObservations, LandmarkFrame,
                       N_ALL, N_FUSED, animate, build_skeleton, observe)
# triangulate_dlt is the single-point reference for solve_pairs and is not
# called here; perfbench/tracing.py wraps pipeline.triangulate_dlt.
from .triangulate import solve_pairs, triangulate_dlt  # noqa: F401

TOPIC_WORLD = "world"
TOPIC_PER_RIG = "per_rig_landmarks"
TOPIC_FUSED = "fused_landmarks"
TOPIC_RULA = "rula"
TOPIC_STATUS = "posture_status"
TOPIC_ADAPTATION = "adaptation"

SCHEDULERS = ("serial", "threads")


class PipelineError(RuntimeError):
    """A scenario run failed after validation (mid-stream inconsistency)."""


def observation_topic(camera_id: str) -> str:
    return f"observations/{camera_id}"


@dataclass(frozen=True)
class PerRigLandmarks:
    """Every rig's triangulated landmarks for one frame (NaN where unseen)."""

    rig_ids: tuple[str, ...]
    xyz: np.ndarray          # (n_rigs, N_ALL, 3)
    visible: np.ndarray      # (n_rigs, N_ALL) both cameras saw it
    residual: np.ndarray     # (n_rigs, N_ALL) DLT objective at xyz


@dataclass(frozen=True)
class FusedLandmarks:
    """Optimized landmark set: 12 fused rows plus auxiliary head means."""

    xyz: np.ndarray          # (N_ALL, 3)


@dataclass(frozen=True)
class RulaRecord:
    angles: JointAngles
    breakdown: RulaBreakdown
    status: PostureStatus


@dataclass(frozen=True)
class AdaptationEvent:
    frame_index: int
    estimated_height: float
    stature_class: AnthropometricClass
    params: RobotDeliveryParams


def _uint32_words(n: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: 32-bit words, low first."""
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


class CameraNode(Node):
    """Projects ground-truth frames into one camera with seeded noise."""

    def __init__(self, camera: CameraModel, noise_sigma: float, seed: int,
                 camera_index: int):
        self.name = f"camera:{camera.id}"
        self.camera = camera
        self.noise_sigma = noise_sigma
        self.subscribes = (TOPIC_WORLD,)
        self.publishes = (observation_topic(camera.id),)
        # Noise keyed by (seed, camera, frame) only: identical across
        # scheduler modes and across paired pre/post segments. These are
        # the words default_rng((seed, camera_index, frame)) converts the
        # ints to, so the stream is the same without converting each frame.
        self._entropy = _uint32_words(seed) + _uint32_words(camera_index)

    def handle(self, message, publish):
        frame: LandmarkFrame = message.payload
        rng = None
        if self.noise_sigma > 0:
            rng = np.random.default_rng(
                np.array(self._entropy + _uint32_words(frame.index), np.uint32))
        obs = observe(self.camera, frame, self.noise_sigma, rng)
        publish(Message(self.publishes[0], message.frame_index,
                        message.timestamp, obs))


class FusionNode(Node):
    """Synchronizes cameras, triangulates all rigs at once, applies the fused solve."""

    name = "fusion"

    def __init__(self, rigs, frame_rate: float):
        self.rigs = list(rigs)
        self.frame_rate = frame_rate
        self.camera_ids = [cam.id for rig in self.rigs for cam in rig.cameras]
        self.subscribes = tuple(observation_topic(c) for c in self.camera_ids)
        self.publishes = (TOPIC_PER_RIG, TOPIC_FUSED)
        self.synchronizer = FrameSynchronizer(self.camera_ids)
        self.rig_ids = tuple(rig.id for rig in self.rigs)
        # Each point's left and right projections, rig-major over all
        # landmarks, so that one DLT solve per frame covers every rig.
        self.projections = np.repeat([[cam.projection for cam in rig.cameras]
                                      for rig in self.rigs], N_ALL, axis=0)
        self.rig_positions = np.array([rig.left.position for rig in self.rigs])
        # Static run-long topology: every rig covers every fused landmark.
        self.topology = build_topology(
            np.ones((len(self.rigs), N_FUSED), dtype=bool))
        self.solver = prefactor(self.topology)
        self.prefactor_count = 1
        self.processing_seconds = 0.0
        # Every frame's (rigs, N_ALL) DLT residuals, NaN where a rig saw no point.
        self.residuals = array("d")

    def handle(self, message, publish):
        obs: CameraObservations = message.payload
        for frame_index, bundle in self.synchronizer.add(
                obs.camera_id, message.frame_index, obs):
            self._process(frame_index, bundle, publish)

    def finish(self, publish):
        for frame_index, bundle in self.synchronizer.finish():
            self._process(frame_index, bundle, publish)

    def residual_stats(self) -> dict[str, dict[str, float] | None]:
        """Per rig: p50, p95 and max of every DLT residual so far (None if none)."""
        frames = np.array(self.residuals).reshape(-1, len(self.rigs), N_ALL)
        return {rig_id: _quantiles(values[~np.isnan(values)])
                for rig_id, values in zip(self.rig_ids, frames.transpose(1, 0, 2))}

    def _process(self, frame_index: int, bundle: dict, publish):
        t0 = time.perf_counter()
        n_rigs = len(self.rigs)
        views = [bundle[c] for c in self.camera_ids]
        uv = np.array([obs.uv for obs in views]).reshape(n_rigs, 2, N_ALL, 2)
        seen = np.array([obs.visible for obs in views]).reshape(n_rigs, 2, N_ALL)
        visible = seen[:, 0] & seen[:, 1]
        # Every rig-major point is solved; those a rig did not see in both
        # cameras are masked afterwards and never fail the frame.
        result = solve_pairs(uv.transpose(0, 2, 1, 3).reshape(-1, 2, 2), self.projections)
        failed = np.flatnonzero((result.degenerate | result.at_infinity) & visible.ravel())
        if failed.size:
            rig, landmark = divmod(int(failed[0]), N_ALL)
            cause = ("degenerate geometry (rank-deficient DLT system)"
                     if result.degenerate[failed[0]] else "point at infinity")
            raise PipelineError(
                f"frame {frame_index}: rig {self.rig_ids[rig]} failed to "
                f"triangulate {LANDMARK_NAMES[landmark]}: {cause}")
        est_xyz = result.xyz.reshape(n_rigs, N_ALL, 3)
        residual = result.residual.reshape(n_rigs, N_ALL)
        hidden = ~visible
        est_xyz[hidden] = np.nan
        residual[hidden] = np.nan
        self.residuals.frombytes(residual.tobytes())

        if not visible[:, :N_FUSED].all():
            missing = np.argwhere(hidden[:, :N_FUSED])
            raise PipelineError(
                f"frame {frame_index}: visibility changed mid-run (topology is "
                f"fixed); missing rig/landmark pairs {missing.tolist()}")
        # Every landmark's mean over the rigs that saw it: the fused anchors,
        # and the auxiliary head markers as published (NaN where none did).
        counts = visible.sum(axis=0)
        means = landmark_means(est_xyz, visible, np.where(counts > 0, counts, np.nan))
        configuration = np.concatenate((means[:N_FUSED], self.rig_positions))
        solution = solve(self.solver.prefactor, self.topology.laplacian @ configuration,
                         configuration)
        xyz = np.concatenate((solution[:N_FUSED], means[N_FUSED:]))

        self.processing_seconds += time.perf_counter() - t0
        ts = frame_index / self.frame_rate
        publish(Message(TOPIC_PER_RIG, frame_index, ts, PerRigLandmarks(
            self.rig_ids, est_xyz, visible, residual)))
        publish(Message(TOPIC_FUSED, frame_index, ts,
                        FusedLandmarks(xyz=xyz)))


def _quantiles(values) -> dict[str, float] | None:
    """p50, p95 and max of ``values`` (None if empty)."""
    values = np.sort(np.asarray(values))
    if not values.size:
        return None
    # np.percentile's default (linear) quantiles; np.percentile itself
    # would import numpy.ma, 1.4 MB of peak RSS.
    p50, p95 = np.interp((0.5, 0.95), np.linspace(0.0, 1.0, values.size), values)
    return {"p50": float(p50), "p95": float(p95), "max": float(values[-1])}


class ErgonomicsNode(Node):
    """Scores fused frames and emits operator-facing posture status."""

    name = "ergonomics"
    subscribes = (TOPIC_FUSED,)
    publishes = (TOPIC_RULA, TOPIC_STATUS)

    def __init__(self, adjustments: RulaAdjustments):
        self.adjustments = adjustments
        self.processing_seconds = 0.0

    def handle(self, message, publish):
        fused: FusedLandmarks = message.payload
        t0 = time.perf_counter()
        angles = compute_joint_angles(fused.xyz)
        breakdown = rula_score(angles, self.adjustments)
        status = classify_posture(breakdown)
        self.processing_seconds += time.perf_counter() - t0
        record = RulaRecord(angles=angles, breakdown=breakdown, status=status)
        publish(Message(TOPIC_RULA, message.frame_index, message.timestamp, record))
        publish(Message(TOPIC_STATUS, message.frame_index, message.timestamp, status))


class AdaptationNode(Node):
    """Estimates operator height over the warm-up window, adapts once."""

    name = "adaptation"
    subscribes = (TOPIC_FUSED,)
    publishes = (TOPIC_ADAPTATION,)

    def __init__(self, default_params: RobotDeliveryParams, warmup_frames: int,
                 enabled: bool):
        self.default_params = default_params
        self.warmup_frames = warmup_frames
        self.enabled = enabled
        self.event: AdaptationEvent | None = None
        self._frames: list[np.ndarray] = []

    def handle(self, message, publish):
        if not self.enabled or self.event is not None:
            return
        fused: FusedLandmarks = message.payload
        self._frames.append(fused.xyz)
        if len(self._frames) >= self.warmup_frames:
            height = estimate_height(self._frames)
            stature_class = classify_height(height)
            params = adapt_robot(stature_class, self.default_params)
            self.event = AdaptationEvent(
                frame_index=message.frame_index, estimated_height=height,
                stature_class=stature_class, params=params)
            self._frames.clear()
            publish(Message(TOPIC_ADAPTATION, message.frame_index,
                            message.timestamp, self.event))


# Landmark indices in code-point order of their names.
_LANDMARK_ORDER = np.array(sorted(range(N_ALL), key=LANDMARK_NAMES.__getitem__))
_LANDMARKS = np.array(LANDMARK_NAMES, dtype=object)
_SOURCES = np.array(["fused"] * N_FUSED + ["aux"] * (N_ALL - N_FUSED), dtype=object)
_STREAM_OF_TOPIC = {TOPIC_WORLD: "ground_truth", TOPIC_PER_RIG: "per_rig_landmarks",
                    TOPIC_FUSED: "fused_landmarks", TOPIC_RULA: "rula"}


def _landmark_table(stream: str, columns, visible=True, blocks=None) -> np.ndarray:
    """A landmark stream's table from blocks of N_ALL landmark rows.

    ``columns`` are in field order and broadcast to (B, N_ALL): (B, 1)
    per block (a message, or one rig's estimates), (N_ALL,) per
    landmark, (B, N_ALL) per row. Rows are kept where ``visible``
    (B, N_ALL) is true. They come out with the blocks in ``blocks``
    order (by default as given) and each block's landmarks by name.
    """
    *columns, visible = np.broadcast_arrays(*columns, visible)
    block = np.arange(len(visible)) if blocks is None else np.array(blocks, dtype=np.intp)
    row, landmark = np.nonzero(visible[block[:, None], _LANDMARK_ORDER])
    block, landmark = block[row], _LANDMARK_ORDER[landmark]
    return columns_table(STREAM_FIELDS[stream], len(block),
                         (c[block, landmark] for c in columns))


def rula_table(frames: np.ndarray, records: list[RulaRecord]) -> np.ndarray:
    """The ``rula`` stream of ``records``, one row each at ``frames``.

    Each column after ``frame`` is the records' joint-angle or breakdown
    field of its name; ``status`` is the posture status value.
    """
    angle_names = {field.name for field in fields(JointAngles)}
    angles = [record.angles for record in records]
    breakdowns = [record.breakdown for record in records]
    columns = ([record.status.status.value for record in records] if name == "status"
               else list(map(attrgetter(name), angles if name in angle_names else breakdowns))
               for name in STREAM_COLUMNS["rula"][1:])
    return columns_table(STREAM_FIELDS["rula"], len(records), (frames, *columns))


class RecorderNode(Node):
    """Keeps every recorded message and builds the stream tables at the end,
    in ``SegmentRecording.sort``'s order: messages by frame, then camera id;
    within a message, rigs by id and landmarks by name (code-point order)."""

    name = "recorder"
    publishes = ()

    def __init__(self, camera_ids):
        # Per stream, the (frame index, payload) of each message.
        self.received: dict[str, list[tuple[int, object]]] = {
            name: [] for name in STREAM_NAMES}
        self.recording: SegmentRecording | None = None
        self.subscribes = (TOPIC_WORLD, TOPIC_PER_RIG, TOPIC_FUSED, TOPIC_RULA,
                           TOPIC_STATUS, TOPIC_ADAPTATION) + tuple(
            observation_topic(c) for c in camera_ids)
        self.status_counts: dict[str, int] = {}
        self.adaptation_event: AdaptationEvent | None = None

    def handle(self, message, publish):
        topic, k, payload = message.topic, message.frame_index, message.payload
        if topic in _STREAM_OF_TOPIC:
            self.received[_STREAM_OF_TOPIC[topic]].append((k, payload))
        elif topic.startswith("observations/"):
            self.received["observations"].append((k, payload))
        elif topic == TOPIC_STATUS:
            status: PostureStatus = payload
            key = status.status.value
            self.status_counts[key] = self.status_counts.get(key, 0) + 1
        elif topic == TOPIC_ADAPTATION:
            self.adaptation_event = payload

    def _messages(self, stream: str, key=None) -> tuple[np.ndarray, list]:
        """A stream's messages sorted by frame, then by ``key`` of their payload:
        the frame indices as an (M, 1) column, and the payloads."""
        received = self.received[stream]
        received.sort(key=itemgetter(0) if key is None else
                      lambda item: (item[0], key(item[1])))
        return (np.array([k for k, _ in received], dtype=np.int64).reshape(-1, 1),
                [payload for _, payload in received])

    def finish(self, publish):
        def stacked(arrays, *shape, dtype=float) -> np.ndarray:
            return np.array(arrays, dtype).reshape(-1, N_ALL, *shape)

        frame, truth = self._messages("ground_truth")
        xyz = stacked([f.xyz for f in truth], 3)
        reach_ok = np.array([f.reach_ok for f in truth], dtype=np.int64).reshape(-1, 1)
        ground_truth = _landmark_table(
            "ground_truth", (frame, _LANDMARKS, *np.moveaxis(xyz, -1, 0), reach_ok))

        frame, views = self._messages("observations", attrgetter("camera_id"))
        uv = stacked([obs.uv for obs in views], 2)
        camera = np.array([obs.camera_id for obs in views], dtype=object).reshape(-1, 1)
        observations = _landmark_table(
            "observations", (frame, camera, _LANDMARKS, *np.moveaxis(uv, -1, 0)),
            stacked([obs.visible for obs in views], dtype=bool))

        frame, estimates = self._messages("per_rig_landmarks")
        # One block per message and rig; a frame's blocks go in rig id order.
        frame = np.repeat(frame, [len(est.rig_ids) for est in estimates], axis=0)
        rig = [rig_id for est in estimates for rig_id in est.rig_ids]
        keys = list(zip(frame.ravel().tolist(), rig))
        xyz = stacked([est.xyz for est in estimates], 3)
        per_rig = _landmark_table(
            "per_rig_landmarks",
            (frame, np.array(rig, dtype=object).reshape(-1, 1), _LANDMARKS,
             *np.moveaxis(xyz, -1, 0), stacked([est.residual for est in estimates]), 2),
            stacked([est.visible for est in estimates], dtype=bool),
            blocks=sorted(range(len(keys)), key=keys.__getitem__))

        frame, fused = self._messages("fused_landmarks")
        xyz = stacked([f.xyz for f in fused], 3)
        fused_landmarks = _landmark_table(
            "fused_landmarks", (frame, _LANDMARKS, *np.moveaxis(xyz, -1, 0), _SOURCES))

        frame, records = self._messages("rula")
        rula = rula_table(frame.ravel(), records)

        self.recording = SegmentRecording({}, {
            "ground_truth": ground_truth, "observations": observations,
            "per_rig_landmarks": per_rig, "fused_landmarks": fused_landmarks,
            "rula": rula})


def _drive(frames, frame_rate: float, wall_ms: array) -> Iterator[Message]:
    """Feed the world frames, appending each one's host time to ``wall_ms``.

    A frame's time runs from its yield until the scheduler asks for the
    next one: under ``serial`` the whole graph's work on it, under
    ``threads`` the hand-off to the camera nodes' inboxes.
    """
    for frame in frames:
        t0 = time.perf_counter()
        yield Message(TOPIC_WORLD, frame.index, frame.index / frame_rate, frame)
        wall_ms.append(1000.0 * (time.perf_counter() - t0))


def _run_segment(config: ScenarioConfig, segment: str, delivery: np.ndarray,
                 seed: int, scheduler: str,
                 adapt_enabled: bool) -> tuple[SegmentRecording, AdaptationEvent | None]:
    stature = config.stature
    profile = build_skeleton(stature)
    stance = config.resolve_stance(stature)
    truth = animate(profile, config.script(), delivery, stance)

    rigs = config.build_rigs()
    camera_ids = [cam.id for rig in rigs for cam in rig.cameras]

    camera_nodes = []
    index = 0
    for spec, rig in zip(config.rigs, rigs):
        for cam in rig.cameras:
            camera_nodes.append(CameraNode(cam, spec.noise_sigma, seed, index))
            index += 1
    fusion_node = FusionNode(rigs, config.frame_rate)
    ergo_node = ErgonomicsNode(config.adjustments)
    warmup_frames = int(config.warmup * config.frame_rate + 1e-9)
    adapt_node = AdaptationNode(RobotDeliveryParams(config.delivery),
                                warmup_frames, adapt_enabled)
    recorder = RecorderNode(camera_ids)

    graph = NodeGraph(
        camera_nodes + [fusion_node, ergo_node, adapt_node, recorder],
        source_topics=(TOPIC_WORLD,))
    runner = run_serial if scheduler == "serial" else run_threaded
    frame_wall_ms = array("d")
    runner(graph, _drive(truth.frames, config.frame_rate, frame_wall_ms))

    n_frames = len(truth.frames)
    processing = fusion_node.processing_seconds + ergo_node.processing_seconds
    event = adapt_node.event or recorder.adaptation_event
    manifest = {
        "version": __version__,
        "scenario": {**config.to_dict(), "stature": stature},
        "segment": segment,
        "seed": seed,
        "stature": stature,
        "delivery_point": [float(v) for v in np.asarray(delivery)],
        "frames": n_frames,
        "dropped_frames": fusion_node.synchronizer.dropped,
        "status_counts": recorder.status_counts,
        "adaptation": None if event is None else {
            "frame_index": event.frame_index,
            "estimated_height": event.estimated_height,
            "class": event.stature_class.class_id,
            "delivery_point": [float(v) for v in event.params.delivery_point],
        },
        "stats": {
            "mean_frame_processing_ms":
                1000.0 * processing / n_frames if n_frames else 0.0,
            "frame_wall_ms": _quantiles(frame_wall_ms),
            "prefactor_count": fusion_node.prefactor_count,
            "dlt_residual": fusion_node.residual_stats(),
            "scheduler": scheduler,
        },
    }
    recording = recorder.recording
    recording.manifest = manifest
    return recording, event


def run_scenario(config: ScenarioConfig, seed: int | None = None,
                 scheduler: str = "serial") -> RunRecording:
    """Execute one scenario end to end.

    Runs the scripted task once with the scenario's default delivery
    point (segment ``pre``); if adaptation is enabled, estimates the
    operator's height over the warm-up window, adapts the delivery
    height once, and re-runs the identical task and seed with the
    adapted delivery (segment ``post``).
    """
    if scheduler not in SCHEDULERS:
        raise ValueError(f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}")
    if seed is None:
        seed = config.seed
    if not 0 <= seed <= _INT64.max:
        raise ScenarioError(
            f"seed: must be a non-negative integer up to 2**63-1, got {seed}")

    pre, event = _run_segment(config, "pre", config.delivery, seed, scheduler,
                              adapt_enabled=config.adapt)
    segments = {"pre": pre}
    if config.adapt:
        if event is None:
            raise PipelineError(
                "adaptation was enabled but no adaptation event was produced "
                "(warm-up window too short?)")
        post, _ = _run_segment(config, "post", event.params.delivery_point,
                               seed, scheduler, adapt_enabled=False)
        segments["post"] = post
    return RunRecording(segments=segments)
