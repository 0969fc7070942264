"""Spans around the calls into each ergofusion layer, installed from outside.

The benchmark never edits the package: it replaces module attributes and
class methods with wrappers that time each call. A span records wall
time, the part of it covered by directly nested spans (so self time is
wall minus children), and optionally CPU time. Spans nest on one stack,
because every workload runs the serial scheduler on one thread. Totals
are aggregated per span name in memory; no span is written out.

``StatusProbe`` is the only instrumentation of untraced runs: one
timestamp at the exit of every ``ErgonomicsNode.handle`` call, which is
when the frame's ``posture_status`` message has been published.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ergofusion import cli, pipeline
from ergofusion.cameras import CameraModel
from ergofusion.recording import SegmentRecording
from ergofusion.scenario import ScenarioConfig


@dataclass
class SpanTotals:
    calls: int = 0
    wall: float = 0.0
    self_wall: float = 0.0
    cpu: float = 0.0


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class StatusProbe:
    """Timestamps each posture-status emission while ``current`` is a list."""

    def __init__(self):
        self.current: list[tuple[int, float]] | None = None
        self._patches = _Patches()
        handle = pipeline.ErgonomicsNode.handle

        def probed(node, message, publish):
            handle(node, message, publish)
            stamps = self.current
            if stamps is not None:
                stamps.append((message.frame_index, time.perf_counter()))

        self._patches.set(pipeline.ErgonomicsNode, "handle", probed)

    def close(self) -> None:
        self._patches.restore()


def status_intervals_ms(stamps: list[tuple[int, float]]) -> list[float]:
    """Host time between consecutive emissions of one segment.

    Frame indices rise within a segment and restart at the next one, so
    an interval is taken only between stamps whose frame index rises.
    """
    return [1000.0 * (t1 - t0)
            for (k0, t0), (k1, t1) in zip(stamps, stamps[1:]) if k1 > k0]


# The scheduler's CPU time less these spans' CPU time is the bus's own.
HANDLER_SPANS = ("node.camera", "node.fusion", "node.ergonomics",
                 "node.adaptation", "node.recorder", "node.recorder.finish")


class Tracer:
    """Installs layer spans; records only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.totals: dict[str, SpanTotals] = {}
        self._stack: list[float] = []  # per open span: wall time of its children
        self._patches = _Patches()

    # -- span bookkeeping ------------------------------------------------

    def _call(self, name, cpu, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        c0 = time.thread_time() if cpu else 0.0
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            children = stack.pop()
            if stack:
                stack[-1] += wall
            totals = self.totals.setdefault(name, SpanTotals())
            totals.calls += 1
            totals.wall += wall
            totals.self_wall += wall - children
            if cpu:
                totals.cpu += time.thread_time() - c0

    def _wrap(self, name, fn, cpu=False):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._call(name, cpu, fn, args, kwargs)
        return traced

    def _wrap_handler(self, name, fn):
        """A node callback whose last argument is the bus's publish function."""
        def traced(*args):
            if not self.active:
                return fn(*args)
            *head, publish = args
            publish_span = self._wrap("bus.publish", publish, cpu=True)
            return self._call(name, True, fn, (*head, publish_span), {})
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        p = self._patches
        for attr, name in (
                ("triangulate_dlt", "triangulate.dlt"),
                ("compute_anchors", "fusion.anchors"),
                ("compute_delta", "fusion.delta"),
                ("fuse", "fusion.fuse"),
                ("prefactor", "fusion.prefactor"),
                ("compute_joint_angles", "rula.angles"),
                ("rula_score", "rula.score"),
                ("classify_posture", "rula.classify"),
                ("observe", "skeleton.observe"),
                ("animate", "skeleton.animate"),
                ("estimate_height", "adaptation.estimate_height")):
            p.set(pipeline, attr, self._wrap(name, getattr(pipeline, attr)))
        p.set(pipeline, "run_serial",
              self._wrap("bus.run", pipeline.run_serial, cpu=True))

        for cls, attr, name in (
                (pipeline.CameraNode, "handle", "node.camera"),
                (pipeline.FusionNode, "handle", "node.fusion"),
                (pipeline.FusionNode, "finish", "node.fusion"),
                (pipeline.ErgonomicsNode, "handle", "node.ergonomics"),
                (pipeline.AdaptationNode, "handle", "node.adaptation"),
                (pipeline.RecorderNode, "handle", "node.recorder"),
                (pipeline.RecorderNode, "finish", "node.recorder.finish")):
            p.set(cls, attr, self._wrap_handler(name, cls.__dict__[attr]))

        for cls, attr, name in (
                (CameraModel, "project_many", "cameras.project"),
                (ScenarioConfig, "build_rigs", "scenario.build_rigs"),
                (SegmentRecording, "sort", "recording.sort"),
                (SegmentRecording, "digest", "recording.digest"),
                (SegmentRecording, "save", "recording.save")):
            p.set(cls, attr, self._wrap(name, cls.__dict__[attr]))
        load = SegmentRecording.__dict__["load"].__func__
        p.set(SegmentRecording, "load",
              classmethod(self._wrap("recording.load", load)))

        for attr, name in (
                ("load_scenario", "scenario.load"),
                ("run_scenario", "pipeline.run_scenario"),
                ("rmse_report", "evaluate.rmse_report"),
                ("rula_compare_many", "evaluate.rula_compare"),
                ("pair_recordings", "evaluate.pair"),
                ("export", "evaluate.export"),
                ("write_comparison", "evaluate.write_comparison"),
                ("main", "cli.main")):
            p.set(cli, attr, self._wrap(name, getattr(cli, attr)))

    def close(self) -> None:
        self._patches.restore()

    # -- per-layer metrics -----------------------------------------------

    def get(self, name: str) -> SpanTotals:
        return self.totals.get(name, SpanTotals())

    def per_call(self, name: str, scale: float, self_time: bool = False) -> float:
        t = self.get(name)
        if not t.calls:
            return 0.0
        return scale * (t.self_wall if self_time else t.wall) / t.calls

    def layer_metrics(self, frames: int) -> dict[str, tuple[float, str]]:
        """Per-layer values over ``frames`` simulated frames."""
        g, per_call = self.get, self.per_call

        def per_frame_ms(*names: str, self_time: bool = False) -> float:
            total = sum(g(n).self_wall if self_time else g(n).wall for n in names)
            return 1000.0 * total / frames if frames else 0.0

        # Handler CPU excludes publishing, which is bus work.
        handler_cpu = sum(g(n).cpu for n in HANDLER_SPANS) - g("bus.publish").cpu
        run = g("bus.run")
        return {
            "triangulate.calls": (g("triangulate.dlt").calls, "count"),
            "triangulate.ms_per_frame": (per_frame_ms("triangulate.dlt"), "ms"),
            "pipeline.fusion_node_self_ms_per_frame":
                (per_frame_ms("node.fusion", self_time=True), "ms"),
            "fusion.ms_per_frame":
                (per_frame_ms("fusion.anchors", "fusion.delta", "fusion.fuse"), "ms"),
            "fusion.prefactor_calls": (g("fusion.prefactor").calls, "count"),
            "rula.ms_per_frame":
                (per_frame_ms("rula.angles", "rula.score", "rula.classify"), "ms"),
            "pipeline.ergonomics_node_self_us":
                (per_call("node.ergonomics", 1e6, self_time=True), "us"),
            "skeleton.observe_us": (per_call("skeleton.observe", 1e6), "us"),
            "cameras.project_us": (per_call("cameras.project", 1e6), "us"),
            "pipeline.camera_node_us": (per_call("node.camera", 1e6), "us"),
            "skeleton.animate_ms": (per_call("skeleton.animate", 1e3), "ms"),
            "scenario.build_rigs_ms": (per_call("scenario.build_rigs", 1e3), "ms"),
            "scenario.load_ms": (per_call("scenario.load", 1e3), "ms"),
            "adaptation.estimate_height_ms":
                (per_call("adaptation.estimate_height", 1e3), "ms"),
            "bus.self_ms_per_frame":
                (1000.0 * (run.cpu - handler_cpu) / frames if frames else 0.0, "ms"),
            "bus.handler_busy_share":
                (handler_cpu / run.wall if run.wall else 0.0, "share"),
            "bus.publish_us": (per_call("bus.publish", 1e6), "us"),
            # Every node publish plus the one world message per frame fed to the graph.
            "bus.messages": (g("bus.publish").calls + frames, "count"),
            "pipeline.recorder_append_ms_per_frame": (per_frame_ms("node.recorder"), "ms"),
            "recording.sort_ms": (per_call("recording.sort", 1e3), "ms"),
            "recording.digest_ms": (per_call("recording.digest", 1e3), "ms"),
            "recording.digest_calls": (g("recording.digest").calls, "count"),
            "recording.save_self_ms":
                (per_call("recording.save", 1e3, self_time=True), "ms"),
            "recording.load_ms": (per_call("recording.load", 1e3), "ms"),
            "recording.load_calls": (g("recording.load").calls, "count"),
            "evaluate.rmse_report_ms": (per_call("evaluate.rmse_report", 1e3), "ms"),
            "evaluate.rula_compare_ms": (per_call("evaluate.rula_compare", 1e3), "ms"),
            "evaluate.pair_self_ms":
                (per_call("evaluate.pair", 1e3, self_time=True), "ms"),
            "evaluate.export_ms": (per_call("evaluate.export", 1e3), "ms"),
            "evaluate.write_comparison_ms":
                (per_call("evaluate.write_comparison", 1e3), "ms"),
            "cli.self_ms": (per_call("cli.main", 1e3, self_time=True), "ms"),
        }
