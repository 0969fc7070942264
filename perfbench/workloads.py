"""The benchmark's workloads, driven in-process through ``ergofusion.cli.main``.

Every workload is a closed loop: one thread issues a user command, waits
for it to finish, checks what it wrote, and issues the next. The program
sees only the committed scenario files and a ``--seed`` derived from the
benchmark's own seed. Timed sections cover only CLI commands; checks
and the fused-RMSE figure happen outside them.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import shutil
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ergofusion import cli
from ergofusion.evaluate import rmse_report
from ergofusion.recording import STREAM_NAMES, SegmentRecording

from tracing import StatusProbe, Tracer


@dataclass
class Bench:
    """Measurements, checks and digests of one benchmark run."""

    root: Path
    work: Path
    probe: StatusProbe
    tracer: Tracer | None = None
    tamper: bool = False
    sim_seconds: float = 0.0
    frames: int = 0
    segments: int = 0
    node_ms: float = 0.0
    dropped: int = 0
    rows: int = 0
    bytes_written: int = 0
    eval_seconds: list[float] = field(default_factory=list)
    stamps: list[list[tuple[int, float]]] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: list[dict] = field(default_factory=list)
    rmse_mm: list[float] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def _command(self, argv: list) -> int:
        """One CLI command, traced when a tracer is set; returns its exit code."""
        argv = [str(a) for a in argv]
        with redirect_stdout(io.StringIO()):
            try:
                if self.tracer:
                    self.tracer.active = True
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
            finally:
                if self.tracer:
                    self.tracer.active = False
        return code

    def simulate(self, scenario: str, seed: int, out: Path) -> None:
        """The timed ``simulate`` command; the status probe records during it."""
        argv = ["simulate", "--scenario", self.root / scenario, "--seed", seed,
                "--out", out, "--scheduler", "serial"]
        stamps: list[tuple[int, float]] = []
        gc.collect()
        self.probe.current = stamps
        t0 = time.perf_counter()
        code = self._command(argv)
        self.sim_seconds += time.perf_counter() - t0
        self.probe.current = None
        self.stamps.append(stamps)
        self.check(code == 0, f"exit {code}: simulate {scenario} --seed {seed}")
        for manifest in out.rglob("manifest.json"):
            m = json.loads(manifest.read_text())
            self.frames += m["frames"]
            self.segments += 1
            self.node_ms += m["stats"]["mean_frame_processing_ms"] * m["frames"]
            self.dropped += m["dropped_frames"]
            for name in STREAM_NAMES:
                stream = manifest.parent / f"{name}.csv"
                with stream.open("rb") as f:
                    self.rows += sum(1 for _ in f) - 1
            self.bytes_written += sum(p.stat().st_size
                                      for p in manifest.parent.iterdir())
        if self.tamper:
            self.tamper = False
            victim = next(out.rglob("fused_landmarks.csv"))
            victim.write_text(victim.read_text().replace("fused", "fuse", 1))

    def evaluate(self, *commands: list) -> None:
        """One timed round of evaluation commands."""
        gc.collect()
        t0 = time.perf_counter()
        codes = [self._command(argv) for argv in commands]
        self.eval_seconds.append(time.perf_counter() - t0)
        for argv, code in zip(commands, codes):
            self.check(code == 0, f"exit {code}: {' '.join(map(str, argv))}")

    def check_segments(self, out: Path, label: str, seed: int, expect_segments: int,
                       expect_frames: int, score: bool) -> None:
        """Reload every saved segment and check it against its manifest."""
        manifests = sorted(out.rglob("manifest.json"))
        self.check(len(manifests) == expect_segments,
                   f"{label}: {len(manifests)} segments saved, want {expect_segments}")
        for manifest in manifests:
            where = manifest.parent.relative_to(out).as_posix()
            segment = SegmentRecording.load(manifest.parent)
            m = segment.manifest
            digest = m.get("digest", "")
            self.check(segment.digest() == digest,
                       f"{label}/{where}: reloaded streams do not match digest")
            problems = [f"{key}={value!r}" for key, value, want in (
                ("frames", m.get("frames"), expect_frames),
                ("prefactor_count", m.get("stats", {}).get("prefactor_count"), 1),
                ("dropped_frames", m.get("dropped_frames"), 0)) if value != want]
            self.check(not problems, f"{label}/{where}: manifest {', '.join(problems)}")
            self.digests.append({"run": label, "segment": where, "seed": seed,
                                 "digest": digest})
            if score:
                fused = rmse_report(segment).fusion
                self.rmse_mm.append(1000.0 * float(np.mean(fused)))


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    # Cycles every untraced run makes: enough status intervals for a p99
    # (at least 1000) and a fixed set of segments for fused_rmse_mm.
    min_cycles: int
    eval_rounds = 1  # timed evaluation rounds per cycle

    def cycle(self, bench: Bench, index: int, seed: int, score: bool) -> None:
        raise NotImplementedError


class RmseLong(Workload):
    """The landmark-accuracy experiment: one 500-frame segment per seed."""

    eval_rounds = 2

    def cycle(self, bench, index, seed, score):
        out = bench.work / f"rmse_{index}"
        bench.simulate(self.scenario, seed, out)
        report = out / "rmse.json"
        landmarks = out / "landmarks.csv"
        heatmap = out / "heatmap.json"
        for _ in range(self.eval_rounds):
            bench.evaluate(
                ["eval-rmse", "--recording", out, "--out", report],
                ["export", "--recording", out, "--what", "landmarks",
                 "--format", "csv", "--out", landmarks],
                ["export", "--recording", out, "--what", "heatmap",
                 "--format", "json", "--out", heatmap])
        label = f"{self.name}/{index}"
        bench.check_segments(out, label, seed, 1, 500, score)
        flags = json.loads(report.read_text())["fusion_flags"]
        bench.check(len(flags) == 12 and "above_worst" not in flags,
                    f"{label}: fusion flags {flags}")
        with landmarks.open() as f:
            bench.check(sum(1 for _ in f) == 1 + 500 * 15,
                        f"{label}: landmark export row count")
        records = json.loads(heatmap.read_text())
        bench.check(bool(records) and len(records) % 500 == 0,
                    f"{label}: heatmap export has {len(records)} records")


class StatureGrid(Workload):
    """The RULA-improvement experiment: 11 statures x pre/post, 100 frames each."""


    def cycle(self, bench, index, seed, score):
        out = bench.work / f"grid_{index}"
        bench.simulate(self.scenario, seed, out)
        label = f"{self.name}/{index}"
        report = out / "report"
        for _ in range(self.eval_rounds):
            shutil.rmtree(report, ignore_errors=True)
            bench.evaluate(["eval-rula", "--recording-pre", out,
                            "--recording-post", out, "--out", report])
            with (report / "grand_by_stature.csv").open() as f:
                rows = [(r["stature"], r["pre_mean_grand"], r["post_mean_grand"])
                        for r in csv.DictReader(f)]
            bench.check(len(rows) == 11, f"{label}: {len(rows)} statures compared")
            for stature, pre, post in rows:
                bench.check(float(post) <= float(pre),
                            f"{label}: stature {stature} mean grand rose {pre} -> {post}")
        bench.check_segments(out, label, seed, 22, 100, score)


WORKLOADS = {w.name: w for w in (
    RmseLong("rmse_long", "scenarios/desk_rmse.yaml", min_cycles=3),
    StatureGrid("stature_grid", "scenarios/stature_grid.yaml", min_cycles=2),
)}
