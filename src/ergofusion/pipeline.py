"""The capture/fusion/scoring node graph and scenario runner.

Topology (one topic per edge label, single publisher each)::

    driver --world--> camera nodes (one per physical camera)
    camera --observations/<cam>--> fusion node
    fusion --per_rig_landmarks, fused_landmarks--> ergonomics, adaptation
    ergonomics --rula, posture_status--> recorder
    adaptation --adaptation--> recorder
    (recorder also subscribes world, observations, per_rig, fused)

A ``fused_landmarks`` payload is the (N_ALL, 3) array of the fused rows
followed by the auxiliary head means.

The fusion node synchronizes per-camera messages by frame index and
solves every rig's landmarks in one fixed-shape DLT pass per frame (one
``solve_pairs(uv, projections)`` call on a projection stack built once
per run: each point's closed-form least-squares solution of its
row-normalized DLT rows, elementwise numpy only), masking afterwards the
points a rig did not see in both cameras. It applies the
graph-Laplacian solve, prefactored exactly once per run
(``prefactor_count`` is asserted in tests); only value checks stay per frame.
Per-rig DLT residual quantiles, the host time per source frame
(``stats.frame_wall_ms``) and the status latency (``stats.status_latency_ms``:
from the synchronizer releasing a frame to the fusion node until the
ergonomics node has published its posture status) go to the manifest
stats, outside the digest. Camera noise is keyed by the bus frame index,
as every node reads it.

The recorder keeps no message: it appends each one's frame key, its
camera id or rig ids, and its arrays' float64 or bool bytes (a ``rula``
record's values to typed ``array`` columns) to flat per-stream buffers,
about 4.5 KB per ``desk_rmse`` frame. At the end of a segment it builds
each stream's table from them in canonical order, with a stable sort on
the (frame, camera or rig id) keys so that delivery order cannot change
a row, and frees a stream's buffers once its table exists. A scenario
run produces a ``pre`` segment with the default delivery point and, when
adaptation is enabled, a paired ``post`` segment re-run with the same
seed and the adapted delivery so pre/post comparisons share their noise
realization.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, fields
from operator import attrgetter
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
from .recording import (_INT64, STREAM_COLUMNS, STREAM_FIELDS, RunRecording,
                        SegmentRecording, columns_table)
from .rula import (RulaAdjustments, RulaBreakdown, JointAngles, PostureStatus,
                   classify_posture, compute_joint_angles, rula_score)
from .scenario import ScenarioConfig, ScenarioError
from .skeleton import (LANDMARK_NAMES, CameraObservations,
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
        # Noise keyed by (seed, camera, frame) only, the frame being the
        # bus frame index as in every other node: identical across
        # scheduler modes and across paired pre/post segments. These are
        # the words default_rng((seed, camera_index, frame)) converts the
        # ints to, so the stream is the same without converting each frame.
        self._entropy = _uint32_words(seed) + _uint32_words(camera_index)

    def handle(self, message, publish):
        rng = None
        if self.noise_sigma > 0:
            rng = np.random.default_rng(
                np.array(self._entropy + _uint32_words(message.frame_index), np.uint32))
        obs = observe(self.camera, message.payload, self.noise_sigma, rng)
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
        # Host time at which each frame left the synchronizer, in frame order.
        self.released = array("d")
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
        self.released.append(t0)
        n_rigs = len(self.rigs)
        views = [bundle[c] for c in self.camera_ids]
        uv = np.array([obs.uv for obs in views]).reshape(n_rigs, 2, N_ALL, 2)
        seen = np.array([obs.visible for obs in views]).reshape(n_rigs, 2, N_ALL)
        visible = seen[:, 0] & seen[:, 1]
        # Every rig-major point is solved; those a rig did not see in both
        # cameras are masked afterwards and never fail the frame.
        result = solve_pairs(uv.transpose(0, 2, 1, 3).reshape(-1, 2, 2), self.projections)
        # The failure scan, masks and visibility check run only on the
        # frames that need them (np.count_nonzero is the cheapest test).
        flagged = (result.degenerate | result.at_infinity) & visible.ravel()
        if np.count_nonzero(flagged):
            first = int(np.flatnonzero(flagged)[0])
            rig, landmark = divmod(first, N_ALL)
            cause = ("degenerate geometry (rank-deficient DLT system)"
                     if result.degenerate[first] else "point at infinity")
            raise PipelineError(
                f"frame {frame_index}: rig {self.rig_ids[rig]} failed to "
                f"triangulate {LANDMARK_NAMES[landmark]}: {cause}")
        est_xyz = result.xyz.reshape(n_rigs, N_ALL, 3)
        residual = result.residual.reshape(n_rigs, N_ALL)
        some_hidden = np.count_nonzero(visible) < visible.size
        if some_hidden:
            hidden = ~visible
            est_xyz[hidden] = np.nan
            residual[hidden] = np.nan
        self.residuals.frombytes(residual.tobytes())

        if some_hidden and not visible[:, :N_FUSED].all():
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
        publish(Message(TOPIC_FUSED, frame_index, ts, xyz))


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
        # Host time at which each frame's posture status was published.
        self.published = array("d")

    def handle(self, message, publish):
        t0 = time.perf_counter()
        angles = compute_joint_angles(message.payload)
        breakdown = rula_score(angles, self.adjustments)
        status = classify_posture(breakdown)
        self.processing_seconds += time.perf_counter() - t0
        record = RulaRecord(angles=angles, breakdown=breakdown, status=status)
        publish(Message(TOPIC_RULA, message.frame_index, message.timestamp, record))
        publish(Message(TOPIC_STATUS, message.frame_index, message.timestamp, status))
        self.published.append(time.perf_counter())


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
        self._frames.append(message.payload)
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


def _column(values, dtype=np.int64) -> np.ndarray:
    """One value per message as an (M, 1) column."""
    return np.array(values, dtype).reshape(-1, 1)


def _joined(chunks: list[bytes], dtype, *shape) -> np.ndarray:
    """The messages' arrays from their bytes, stacked (M, *shape); empties ``chunks``."""
    values = np.frombuffer(b"".join(chunks), dtype).reshape(-1, *shape)
    chunks.clear()
    return values


def _order(keys) -> list[int]:
    """Indices of ``keys`` in stable sorted order."""
    keys = list(keys)
    return sorted(range(len(keys)), key=keys.__getitem__)


def _ground_truth_table(frame, xyz, reach_ok) -> np.ndarray:
    xyz = _joined(xyz, float, N_ALL, 3)
    return _landmark_table(
        "ground_truth",
        (_column(frame), _LANDMARKS, *np.moveaxis(xyz, -1, 0), _column(reach_ok)),
        blocks=_order(frame))


# An observations message as the recorder keeps it: its uv bytes, then its
# visible bytes (one bytes object per message, not two).
_VIEW = np.dtype([("uv", np.float64, (N_ALL, 2)), ("visible", np.bool_, (N_ALL,))])


def _observations_table(frame, camera, views) -> np.ndarray:
    views = _joined(views, _VIEW)
    return _landmark_table(
        "observations",
        (_column(frame), _column(camera, object), _LANDMARKS,
         *np.moveaxis(views["uv"], -1, 0)),
        views["visible"], blocks=_order(zip(frame, camera)))


def _per_rig_table(frame, rig_ids, xyz, residual, visible) -> np.ndarray:
    # One block per message and rig; a frame's blocks go in rig id order.
    frame = np.repeat(_column(frame), [len(ids) for ids in rig_ids], axis=0)
    rig = [rig_id for ids in rig_ids for rig_id in ids]
    xyz = _joined(xyz, float, N_ALL, 3)
    return _landmark_table(
        "per_rig_landmarks",
        (frame, _column(rig, object), _LANDMARKS, *np.moveaxis(xyz, -1, 0),
         _joined(residual, float, N_ALL), 2),
        _joined(visible, bool, N_ALL), blocks=_order(zip(frame.ravel().tolist(), rig)))


def _fused_table(frame, xyz) -> np.ndarray:
    xyz = _joined(xyz, float, N_ALL, 3)
    return _landmark_table(
        "fused_landmarks", (_column(frame), _LANDMARKS, *np.moveaxis(xyz, -1, 0), _SOURCES),
        blocks=_order(frame))


# The ``rula`` columns after ``frame`` by type, each in the order ``handle``
# reads a record's values: the float angles; the int angle flags, then scores.
_ANGLE_NAMES = {field.name for field in fields(JointAngles)}
_RULA_FLOATS = tuple(name for name, conv in STREAM_FIELDS["rula"] if conv is float)
_RULA_ANGLE_INTS = tuple(name for name, conv in STREAM_FIELDS["rula"][1:]
                         if conv is int and name in _ANGLE_NAMES)
_RULA_SCORE_INTS = tuple(name for name, conv in STREAM_FIELDS["rula"][1:]
                         if conv is int and name not in _ANGLE_NAMES)
_RULA_INTS = _RULA_ANGLE_INTS + _RULA_SCORE_INTS
_angle_floats = attrgetter(*_RULA_FLOATS)
_angle_ints = attrgetter(*_RULA_ANGLE_INTS)
_score_ints = attrgetter(*_RULA_SCORE_INTS)


def rula_table(frame, floats, ints, states, side) -> np.ndarray:
    """The ``rula`` stream from the recorder's buffers, in frame order.

    Per record: its frame key, its ``_RULA_FLOATS`` values in ``floats``,
    its ``_RULA_INTS`` values in ``ints``, its ``PostureState`` and its
    scored side. Each column goes to the field of its name.
    """
    columns = {"frame": np.array(frame, np.int64),
               **dict(zip(_RULA_FLOATS, np.array(floats).reshape(-1, len(_RULA_FLOATS)).T)),
               **dict(zip(_RULA_INTS, np.array(ints).reshape(-1, len(_RULA_INTS)).T)),
               "status": np.array([state.value for state in states], object),
               "side": np.array(side, object)}
    order = np.array(_order(frame), dtype=np.intp)
    return columns_table(STREAM_FIELDS["rula"], len(order),
                         (columns[name][order] for name in STREAM_COLUMNS["rula"]))


# Each stream's table from its buffers (in ``RecorderNode.buffers`` order).
_TABLES = {"ground_truth": _ground_truth_table, "observations": _observations_table,
           "per_rig_landmarks": _per_rig_table, "fused_landmarks": _fused_table,
           "rula": rula_table}


class RecorderNode(Node):
    """Keeps each recorded message as flat typed buffers and builds the
    stream tables from them at the end, in ``SegmentRecording.sort``'s
    order: messages by frame, then camera id; within a message, rigs by id
    and landmarks by name (code-point order).

    ``handle`` appends a message's frame key, its camera id or rig ids and
    each of its arrays' bytes (``tobytes``: float64, or bool for
    ``visible``) to its stream's buffers, and a ``rula`` record's values to
    typed columns; the payload itself is not kept. Each buffer grows by one
    entry per message and is joined once, by ``finish``, which releases a
    stream's buffers as soon as its table exists.
    """

    name = "recorder"
    publishes = ()

    def __init__(self, camera_ids):
        # Per stream, one buffer per message field: the frame keys first.
        self.buffers: dict[str, tuple] = {
            # frame, xyz bytes, reach_ok
            "ground_truth": (array("q"), [], []),
            # frame, camera id, uv and visible bytes (_VIEW)
            "observations": (array("q"), [], []),
            # frame, rig ids, xyz bytes, residual bytes, visible bytes
            "per_rig_landmarks": (array("q"), [], [], [], []),
            # frame, xyz bytes
            "fused_landmarks": (array("q"), []),
            # frame, float angles, int flags and scores, PostureState, side
            "rula": (array("q"), array("d"), array("q"), [], []),
        }
        self.recording: SegmentRecording | None = None
        self.subscribes = (TOPIC_WORLD, TOPIC_PER_RIG, TOPIC_FUSED, TOPIC_RULA,
                           TOPIC_STATUS, TOPIC_ADAPTATION) + tuple(
            observation_topic(c) for c in camera_ids)
        self.status_counts: dict[str, int] = {}
        self.adaptation_event: AdaptationEvent | None = None

    def handle(self, message, publish):
        topic, k, payload = message.topic, message.frame_index, message.payload
        if topic.startswith("observations/"):
            frame, camera, views = self.buffers["observations"]
            frame.append(k)
            camera.append(payload.camera_id)
            views.append(payload.uv.tobytes() + payload.visible.tobytes())
        elif topic == TOPIC_PER_RIG:
            frame, rig_ids, xyz, residual, visible = self.buffers["per_rig_landmarks"]
            frame.append(k)
            rig_ids.append(payload.rig_ids)
            xyz.append(payload.xyz.tobytes())
            residual.append(payload.residual.tobytes())
            visible.append(payload.visible.tobytes())
        elif topic == TOPIC_WORLD:
            frame, xyz, reach_ok = self.buffers["ground_truth"]
            frame.append(k)
            xyz.append(payload.xyz.tobytes())
            reach_ok.append(payload.reach_ok)
        elif topic == TOPIC_FUSED:
            frame, xyz = self.buffers["fused_landmarks"]
            frame.append(k)
            xyz.append(payload.tobytes())
        elif topic == TOPIC_RULA:
            frame, floats, ints, states, side = self.buffers["rula"]
            frame.append(k)
            angles, breakdown = payload.angles, payload.breakdown
            # fromlist takes a list at C speed; extend converts item by item.
            floats.fromlist([*_angle_floats(angles)])
            ints.fromlist([*_angle_ints(angles), *_score_ints(breakdown)])
            states.append(payload.status.status)
            side.append(breakdown.side)
        elif topic == TOPIC_STATUS:
            status: PostureStatus = payload
            key = status.status.value
            self.status_counts[key] = self.status_counts.get(key, 0) + 1
        elif topic == TOPIC_ADAPTATION:
            self.adaptation_event = payload

    def finish(self, publish):
        # Popped one stream at a time, so each stream's buffers go as its table comes.
        self.recording = SegmentRecording({}, {
            name: build(*self.buffers.pop(name)) for name, build in _TABLES.items()})


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
    frames = animate(profile, config.script(), delivery, stance)

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
    runner(graph, _drive(frames, config.frame_rate, frame_wall_ms))

    n_frames = len(frames)
    processing = fusion_node.processing_seconds + ergo_node.processing_seconds
    # Both nodes see the released frames in the same order (FIFO topics).
    status_latency = np.subtract(ergo_node.published, fusion_node.released)
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
            "status_latency_ms": _quantiles(1000.0 * status_latency),
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
