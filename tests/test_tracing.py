"""The benchmark's tracer, installed over the package and removed again.

``perfbench/tracing.py`` replaces package functions and methods by name,
some of them names that ``pipeline`` imports only for it. Installing it
here catches a name going missing without a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from ergofusion import cli, fusion, pipeline, triangulate
from ergofusion.cameras import CameraModel
from ergofusion.recording import SegmentRecording
from ergofusion.scenario import ScenarioConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# Solver names the tracer wraps in pipeline's namespace, and their modules.
# All but prefactor are imported there only for the tracer.
KEPT_FOR_TRACER = {"triangulate_dlt": triangulate, "compute_anchors": fusion,
                   "compute_delta": fusion, "fuse": fusion, "prefactor": fusion}
PATCHED = (pipeline, cli, pipeline.CameraNode, pipeline.FusionNode,
           pipeline.ErgonomicsNode, pipeline.AdaptationNode, pipeline.RecorderNode,
           CameraModel, ScenarioConfig, SegmentRecording)


def load_tracing(monkeypatch):
    """Import ``perfbench/tracing.py`` without writing a bytecode cache beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's string annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_then_restores_every_name(monkeypatch):
    tracing = load_tracing(monkeypatch)
    before = [dict(vars(owner)) for owner in PATCHED]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for name, module in KEPT_FOR_TRACER.items():
            assert getattr(pipeline, name) is not getattr(module, name), name
    finally:
        tracer.close()
    for name, module in KEPT_FOR_TRACER.items():
        assert getattr(pipeline, name) is getattr(module, name), name
    for owner, attrs in zip(PATCHED, before):
        assert all(vars(owner)[attr] is value for attr, value in attrs.items()), owner
