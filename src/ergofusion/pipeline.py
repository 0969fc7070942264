"""The capture/fusion/scoring node graph and scenario runner.

Topology (one topic per edge label, single publisher each)::

    driver --world--> camera nodes (one per physical camera)
    camera --observations/<cam>--> fusion node
    fusion --fused_landmarks--> ergonomics, adaptation
    ergonomics --rula, posture_status--> recorder
    adaptation --adaptation--> recorder
    (recorder also subscribes per_rig_landmarks, fused)

A message carries its frame's index, which the driver numbers from 0 and
every node reads, and a payload holding only what its subscribers read:

- ``world``: no payload; it ticks the frame;
- ``observations/<cam>``: that camera's ``CameraObservations`` of the
  frame, row k of its segment's;
- ``per_rig_landmarks``: ``PerRigLandmarks``, every rig's xyz, visibility
  and DLT residual, rigs in the run's rig order;
- ``fused_landmarks``: the (N_ALL, 3) array of the fused rows followed by
  the auxiliary head means;
- ``rula``: the ``(JointAngles, RulaBreakdown)`` pair scored from it;
- ``posture_status``: the frame's ``PostureStatus``, its status's only
  carrier;
- ``adaptation``: the run's one ``AdaptationEvent``.

The fusion node synchronizes per-camera messages by frame index and
solves every rig's landmarks in one fixed-shape DLT pass per frame (one
``solve_pairs(uv, projections)`` call on a projection stack built once
per run: each point's closed-form least-squares solution of its
scaled DLT rows, elementwise numpy only), masking afterwards the
points a rig did not see in both cameras. It applies the
graph-Laplacian solve, prefactored exactly once per run
(``prefactor_count`` is asserted in tests); only value checks stay per frame.
The manifest's run facts come from the recorder, that is from what was
recorded: ``status_counts`` counts the ``rula`` stream's ``status``
column, and ``adaptation`` is the recorded event. Per-rig DLT residual
quantiles (``stats.dlt_residual``, from the recorder's per-rig
residuals), the host time per source frame
(``stats.frame_wall_ms``) and the status latency (``stats.status_latency_ms``:
from the synchronizer releasing a frame to the fusion node until the
ergonomics node has published its posture status) and the frames the
synchronizer dropped per missing camera (``stats.dropped_frames_by_camera``)
go to the manifest stats, outside the digest.

A camera node simulates its whole segment when it is built, from the
segment's ground truth: one ``project_many`` call over every frame, then
one draw of the segment's noise from the camera's own stream,
``default_rng((seed, camera)).normal(0, σ, (F, N_ALL, 2))``. Its
``handle`` publishes row k on the frame's tick. The noise is thus keyed
by (seed, camera) only, and frame k's noise is row k of that camera's
stream: the same under both schedulers, in paired pre/post segments and
on any segment's first n frames.

The recorder keeps no message. It is built with the segment's ground
truth, the arrays ``animate`` returned to the driver, and with the
camera nodes' observation arrays, not fed them on the bus. A segment's
rigs and frame count are fixed before it starts, so the recorder
allocates every other stream's arrays once
(frame, rig where the stream has one, landmark, values, plus a "seen"
mask) and copies
each message's arrays into its frame's slot.
At the end of a segment it builds each stream's table from the slots,
already in canonical order, so delivery order cannot change a row and
nothing is sorted; it frees a stream's arrays once its table exists.

A scenario run produces a ``pre`` segment with the default delivery
point and, when adaptation is enabled, a paired ``post`` segment re-run
with the same seed and the adapted delivery so pre/post comparisons
share their noise realization.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
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
from .recording import (_INT64, STREAM_FIELDS, RunRecording, SegmentRecording,
                        columns_table)
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
    """Every rig's triangulated landmarks for one frame (NaN where unseen),
    rigs in the run's rig order."""

    xyz: np.ndarray          # (n_rigs, N_ALL, 3)
    visible: np.ndarray      # (n_rigs, N_ALL) both cameras saw it
    residual: np.ndarray     # (n_rigs, N_ALL) DLT objective at xyz


@dataclass(frozen=True)
class AdaptationEvent:
    frame_index: int
    estimated_height: float
    stature_class: AnthropometricClass
    params: RobotDeliveryParams


class CameraNode(Node):
    """One camera's view of a segment, simulated when the node is built.

    ``positions`` is the segment's (F, N_ALL, 3) ground truth. The node
    projects all of it in one ``observe`` call and adds the noise of
    ``default_rng((seed, camera_index))``, drawn as one (F, N_ALL, 2)
    array whose row k is frame k's, the frame being the bus frame index
    as in every other node, so the noise is identical across schedulers
    and across paired pre/post segments. ``segment`` holds the read-only
    (F, N_ALL, 2) uv and (F, N_ALL) visibility; ``handle`` publishes row
    k on frame k's tick.
    """

    def __init__(self, camera: CameraModel, noise_sigma: float, seed: int,
                 camera_index: int, positions: np.ndarray):
        self.name = f"camera:{camera.id}"
        self.camera = camera
        self.subscribes = (TOPIC_WORLD,)
        self.publishes = (observation_topic(camera.id),)
        # Imported here, so that importing the package does not load
        # numpy.random, about 8 ms: only a simulation needs it.
        from numpy.random import default_rng
        rng = default_rng((seed, camera_index)) if noise_sigma > 0 else None
        self.segment = observe(camera, positions, noise_sigma, rng)
        self.segment.uv.setflags(write=False)
        self.segment.visible.setflags(write=False)

    def handle(self, message, publish):
        k, segment = message.frame_index, self.segment
        publish(Message(self.publishes[0], k, CameraObservations(
            segment.camera_id, segment.uv[k], segment.visible[k])))

    def finish(self, publish):
        # Every frame is published: the recorder holds the segment now.
        self.segment = None


class FusionNode(Node):
    """Synchronizes cameras, triangulates all rigs at once, applies the fused solve."""

    name = "fusion"

    def __init__(self, rigs):
        self.rigs = list(rigs)
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

    def handle(self, message, publish):
        obs: CameraObservations = message.payload
        for frame_index, bundle in self.synchronizer.add(
                obs.camera_id, message.frame_index, obs):
            self._process(frame_index, bundle, publish)

    def finish(self, publish):
        for frame_index, bundle in self.synchronizer.finish():
            self._process(frame_index, bundle, publish)

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
        publish(Message(TOPIC_PER_RIG, frame_index,
                        PerRigLandmarks(est_xyz, visible, residual)))
        publish(Message(TOPIC_FUSED, frame_index, xyz))


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
        publish(Message(TOPIC_RULA, message.frame_index, (angles, breakdown)))
        publish(Message(TOPIC_STATUS, message.frame_index, status))
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
            publish(Message(TOPIC_ADAPTATION, message.frame_index, self.event))


# Landmark indices in code-point order of their names.
_LANDMARK_ORDER = np.array(sorted(range(N_ALL), key=LANDMARK_NAMES.__getitem__))
_LANDMARKS = np.array(LANDMARK_NAMES, dtype=object)
_SOURCES = np.array(["fused"] * N_FUSED + ["aux"] * (N_ALL - N_FUSED), dtype=object)


def _landmark_table(stream: str, columns, seen) -> np.ndarray:
    """A landmark stream's table from its (F, B, N_ALL) slots.

    ``columns`` are in field order and broadcast with ``seen`` to
    (F, B, N_ALL): frame, block (a camera or rig), landmark. Rows are
    kept where ``seen`` is true, in frame, block and landmark-name order.
    """
    *columns, seen = np.broadcast_arrays(*columns, seen)
    frame, block, landmark = np.nonzero(seen[..., _LANDMARK_ORDER])
    landmark = _LANDMARK_ORDER[landmark]
    return columns_table(STREAM_FIELDS[stream], len(frame),
                         (c[frame, block, landmark] for c in columns))


# The ``rula`` fields from ``frame`` to ``status`` are the JointAngles
# fields, then the RulaBreakdown fields but ``side``, in that order; the
# first ``_N_FLOATS`` of those values are floats, the other ``_N_INTS`` ints.
_angle_values = attrgetter(*(f.name for f in fields(JointAngles)))
_score_values = attrgetter(*(f.name for f in fields(RulaBreakdown) if f.name != "side"))
_N_FLOATS = sum(conv is float for _, conv in STREAM_FIELDS["rula"])
_N_INTS = sum(conv is int for _, conv in STREAM_FIELDS["rula"][1:])


def rula_table(seen, floats, ints, status, side) -> np.ndarray:
    """The ``rula`` stream from the recorder's per-frame slots, in frame order.

    Per frame: whether it has a record, its float and its int values in
    field order, its status value and its scored side.
    """
    frame = np.flatnonzero(seen)
    return columns_table(STREAM_FIELDS["rula"], len(frame), (
        frame, *floats[frame].T, *ints[frame].T, status[frame], side[frame]))


class RecorderNode(Node):
    """Writes each recorded message into its frame's slot and builds the
    stream tables from the slots at the end, in ``SegmentRecording.sort``'s
    order: by frame, then camera or rig id, then landmark name (ids and
    names in code-point order), with nothing to sort.

    The ``ground_truth`` table is built from ``ground_truth``, the arrays
    ``animate`` returned, and the ``observations`` table from
    ``observations``, each camera's segment ``CameraObservations`` as its
    node simulated it; the recorder is built with both and copies neither
    before ``finish``. A segment's rigs and frame count are fixed before
    its first message, as the fusion node's topology is, so every other
    stream's arrays are allocated at construction: axes frame, rig or
    none, landmark, then values, and a "seen" mask. Rigs are stored in
    ``rig_ids`` order, the run's rig order that the per-rig arrays follow,
    until ``finish`` puts them in id order. ``handle`` copies a message's
    arrays into its slot and keeps no payload.
    ``finish`` frees each stream's arrays once its table exists, keeps
    each rig's DLT residual quantiles in ``dlt_residual`` and counts the
    ``rula`` stream's statuses, in frame order, in ``status_counts``.
    """

    name = "recorder"
    publishes = ()

    def __init__(self, observations, rig_ids, ground_truth: tuple[np.ndarray, np.ndarray]):
        self.rig_ids = tuple(rig_ids)
        self.ground_truth = ground_truth
        F, R = len(ground_truth[0]), len(self.rig_ids)
        self.slots: dict[str, tuple] = {
            # each camera's segment, cameras in id order
            "observations": tuple(sorted(observations, key=attrgetter("camera_id"))),
            # xyz, residual, seen (= visible)
            "per_rig_landmarks": (np.empty((F, R, N_ALL, 3)), np.empty((F, R, N_ALL)),
                                  np.zeros((F, R, N_ALL), bool)),
            # xyz, seen (per frame)
            "fused_landmarks": (np.empty((F, N_ALL, 3)), np.zeros(F, bool)),
            # seen, float angles, int flags and scores, status value, side
            "rula": (np.zeros(F, bool), np.empty((F, _N_FLOATS)),
                     np.empty((F, _N_INTS), np.int64),
                     np.empty(F, object), np.empty(F, object)),
        }
        self.recording: SegmentRecording | None = None
        self.dlt_residual: dict[str, dict[str, float] | None] = {}
        self.subscribes = (TOPIC_PER_RIG, TOPIC_FUSED, TOPIC_RULA,
                           TOPIC_STATUS, TOPIC_ADAPTATION)
        self.status_counts: dict[str, int] = {}
        self.adaptation_event: AdaptationEvent | None = None

    def handle(self, message, publish):
        topic, k, payload = message.topic, message.frame_index, message.payload
        if topic == TOPIC_PER_RIG:
            xyz, residual, seen = self.slots["per_rig_landmarks"]
            xyz[k] = payload.xyz
            residual[k] = payload.residual
            seen[k] = payload.visible
        elif topic == TOPIC_FUSED:
            xyz, seen = self.slots["fused_landmarks"]
            xyz[k] = payload
            seen[k] = True
        elif topic == TOPIC_RULA:
            seen, floats, ints, _, side = self.slots["rula"]
            angles, breakdown = payload
            values = _angle_values(angles) + _score_values(breakdown)
            seen[k] = True
            floats[k] = values[:_N_FLOATS]
            ints[k] = values[_N_FLOATS:]
            side[k] = breakdown.side
        elif topic == TOPIC_STATUS:
            status: PostureStatus = payload
            self.slots["rula"][3][k] = status.status.value
        elif topic == TOPIC_ADAPTATION:
            self.adaptation_event = payload

    def finish(self, publish):
        # Popped one stream at a time, so each stream's arrays go as its table
        # comes. The ground truth's arrays are the driver's and outlive
        # finish, so its table comes last, after the other slots are freed.
        slots, streams = self.slots, {}
        frame = np.arange(len(self.ground_truth[0]))[:, None, None]
        cameras = slots.pop("observations")
        camera_ids = np.array([obs.camera_id for obs in cameras], object)
        uv = np.stack([obs.uv for obs in cameras], axis=1)
        seen = np.stack([obs.visible for obs in cameras], axis=1)
        del cameras
        streams["observations"] = _landmark_table("observations", (
            frame, camera_ids[:, None], _LANDMARKS, *np.moveaxis(uv, -1, 0)), seen)
        del uv
        xyz, residual, seen = slots.pop("per_rig_landmarks")
        self.dlt_residual = {rig_id: _quantiles(residual[:, r][seen[:, r]])
                             for r, rig_id in enumerate(self.rig_ids)}
        order = sorted(range(len(self.rig_ids)), key=self.rig_ids.__getitem__)
        streams["per_rig_landmarks"] = _landmark_table("per_rig_landmarks", (
            frame, np.array(self.rig_ids, object)[order, None], _LANDMARKS,
            *np.moveaxis(xyz[:, order], -1, 0), residual[:, order], 2), seen[:, order])
        del xyz, residual
        xyz, seen = slots.pop("fused_landmarks")
        streams["fused_landmarks"] = _landmark_table("fused_landmarks", (
            frame, _LANDMARKS, *np.moveaxis(xyz[:, None], -1, 0), _SOURCES),
            seen[:, None, None])
        del xyz
        streams["rula"] = rula_table(*slots.pop("rula"))
        self.status_counts = dict(Counter(streams["rula"]["status"]))
        xyz, reach_ok = self.ground_truth
        streams["ground_truth"] = _landmark_table("ground_truth", (
            frame, _LANDMARKS, *np.moveaxis(xyz[:, None], -1, 0), reach_ok[:, None, None]),
            True)
        self.recording = SegmentRecording({}, streams)


def _drive(n_frames: int, wall_ms: array) -> Iterator[Message]:
    """Tick frames 0 to ``n_frames`` - 1 (the run's one frame index),
    appending each frame's host time to ``wall_ms``.

    A frame's time runs from its yield until the scheduler asks for the
    next one: under ``serial`` the whole graph's work on it, under
    ``threads`` the hand-off to the camera nodes' inboxes.
    """
    for k in range(n_frames):
        t0 = time.perf_counter()
        yield Message(TOPIC_WORLD, k, None)
        wall_ms.append(1000.0 * (time.perf_counter() - t0))


def _run_segment(config: ScenarioConfig, segment: str, delivery: np.ndarray,
                 seed: int, scheduler: str,
                 adapt_enabled: bool) -> tuple[SegmentRecording, AdaptationEvent | None]:
    stature = config.stature
    profile = build_skeleton(stature)
    stance = config.resolve_stance(stature)
    script = config.script()
    n_frames = script.n_frames

    rigs = config.build_rigs()
    ground_truth = animate(profile, script, delivery, stance)

    cameras = [(cam, spec.noise_sigma) for spec, rig in zip(config.rigs, rigs)
               for cam in rig.cameras]
    camera_nodes = [CameraNode(cam, sigma, seed, index, ground_truth[0])
                    for index, (cam, sigma) in enumerate(cameras)]
    fusion_node = FusionNode(rigs)
    ergo_node = ErgonomicsNode(config.adjustments)
    warmup_frames = int(config.warmup * config.frame_rate + 1e-9)
    adapt_node = AdaptationNode(RobotDeliveryParams(config.delivery),
                                warmup_frames, adapt_enabled)
    recorder = RecorderNode([node.segment for node in camera_nodes],
                            fusion_node.rig_ids, ground_truth)

    graph = NodeGraph(
        camera_nodes + [fusion_node, ergo_node, adapt_node, recorder],
        source_topics=(TOPIC_WORLD,))
    runner = run_serial if scheduler == "serial" else run_threaded
    frame_wall_ms = array("d")
    runner(graph, _drive(n_frames, frame_wall_ms))

    processing = fusion_node.processing_seconds + ergo_node.processing_seconds
    # Both nodes see the released frames in the same order (FIFO topics).
    status_latency = np.subtract(ergo_node.published, fusion_node.released)
    event = recorder.adaptation_event
    manifest = {
        "version": __version__,
        "scenario": config.to_dict(),
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
            "dropped_frames_by_camera": fusion_node.synchronizer.dropped_by_camera,
            "dlt_residual": recorder.dlt_residual,
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
