"""ergofusion benchmark: one workload, end-to-end or traced per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload rmse_long --seed 1 --seconds 30 --trace 0

The workload drives the real user commands in-process through
``ergofusion.cli.main`` on the committed scenario files, for at least
``--seconds`` seconds and at least the workload's minimum number of
cycles. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs one cycle untraced, then the same cycle again with spans
around every layer, and reports the per-layer metrics and the tracing
overhead. A human-readable report goes to stdout, the last stdout line
is one JSON object, and a result file with every segment digest is
written under ``.perfbench_out/results``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# A traced run makes one cycle untraced and the same cycle traced, which
# keeps the longest (stature_grid) well inside the 180 s a run may take.
TRACE_CYCLES = 1
# One warm-up (it may compile bytecode), then the median of the rest.
SETUP_RUNS = 7
SETUP_CODE = """\
import sys
import ergofusion.cli
from ergofusion.scenario import load_scenario
load_scenario(sys.argv[1])
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cycle_seeds(seed: int):
    """Program seeds for successive cycles; the same seed gives the same list."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1 << 31)


def measure_setup(scenario: Path, runs: int) -> list[float]:
    """Wall time of fresh processes that import ergofusion and parse the scenario."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(scenario)],
                       env=env, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times[1:] if len(times) > 1 else times


def run_cycles(workload, bench, seeds, cycles: int, seconds: float = 0.0) -> int:
    """Run ``cycles`` cycles, then more until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index < cycles or time.perf_counter() < deadline:
        try:
            workload.cycle(bench, index, next(seeds), score=index < cycles)
        except Exception as exc:
            bench.check(False, f"{workload.name}/{index}: {type(exc).__name__}: {exc}")
        index += 1
    return index


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(bench, setup: list[float]) -> tuple[dict, dict, dict]:
    from tracing import status_intervals_ms
    intervals = [iv for stamps in bench.stamps for iv in status_intervals_ms(stamps)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "frames_per_s": (bench.frames / bench.sim_seconds if bench.sim_seconds else 0.0,
                         "1/s"),
        "status_interval_ms_p50": (percentile(intervals, 50), "ms"),
        "status_interval_ms_p95": (percentile(intervals, 95), "ms"),
        "eval_s": (statistics.median(bench.eval_seconds) if bench.eval_seconds else 0.0,
                   "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fused_rmse_mm": (statistics.fmean(bench.rmse_mm) if bench.rmse_mm else 0.0, "mm"),
    }
    samples = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "frames_per_s": f"{bench.frames} frames in {bench.sim_seconds:.3f} s of simulate",
        "status_interval_ms_p50": f"{len(intervals)} intervals",
        "status_interval_ms_p95": f"{len(intervals)} intervals",
        "eval_s": f"median of {len(bench.eval_seconds)} evaluation rounds",
        "peak_rss_mb": "high-water mark of the benchmark process",
        "fused_rmse_mm": f"mean over {len(bench.rmse_mm)} segments",
    }
    # Reported, not bounded: on shared cores its run-to-run spread is
    # wider than any bound the benchmark may set (see README.md).
    extra = {"status_interval_ms_p99": (percentile(intervals, 99), "ms",
                                        f"{len(intervals)} intervals, not bounded")}
    return metrics, samples, extra


def per_layer(untraced, traced, tracer) -> tuple[dict, dict, dict]:
    frames = traced.frames
    metrics = tracer.layer_metrics(frames)
    untraced_total = untraced.sim_seconds + sum(untraced.eval_seconds)
    traced_total = traced.sim_seconds + sum(traced.eval_seconds)
    metrics.update({
        "pipeline.frames": (frames, "count"),
        "pipeline.segments": (traced.segments, "count"),
        # Manifest figure (fusion + ergonomics nodes, criterion 8) next to
        # the full per-frame wall time of the same untraced commands.
        "pipeline.node_ms_per_frame": (untraced.node_ms / untraced.frames, "ms"),
        "pipeline.wall_ms_per_frame":
            (1000.0 * untraced.sim_seconds / untraced.frames, "ms"),
        "bus.dropped_frames": (traced.dropped, "count"),
        "recording.rows": (traced.rows, "count"),
        "recording.bytes_written": (traced.bytes_written, "bytes"),
        "trace.overhead_share": (traced_total / untraced_total - 1.0, "share"),
    })
    samples = {
        "trace.overhead_share":
            f"timed commands {traced_total:.3f} s traced vs {untraced_total:.3f} s untraced",
        "recording.digest_calls":
            f"{metrics['recording.digest_calls'][0] / max(traced.segments, 1):.2f} "
            f"per simulated segment",
        "recording.load_calls":
            f"{metrics['recording.load_calls'][0] / max(traced.segments, 1):.2f} "
            f"per simulated segment, over {len(traced.eval_seconds)} evaluation rounds",
    }
    return metrics, samples, {}


def main(argv=None, tamper: bool = False) -> int:
    """Run one workload; ``tamper`` corrupts the first saved segment."""
    args = parse_args(argv)
    if not (SRC / "ergofusion" / "__init__.py").is_file():
        print(f"error: no ergofusion sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ergofusion
    from tracing import StatusProbe, Tracer
    from workloads import WORKLOADS, Bench

    if Path(ergofusion.__file__).resolve().parent != SRC / "ergofusion":
        print(f"error: imported ergofusion from {ergofusion.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scenario = ROOT / workload.scenario
    if not scenario.is_file():
        print(f"error: missing scenario file {scenario}", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    probe = StatusProbe()
    try:
        if args.trace:
            untraced = Bench(ROOT, work / "untraced", probe, tamper=tamper)
            run_cycles(workload, untraced, cycle_seeds(args.seed), TRACE_CYCLES)
            tracer = Tracer()
            tracer.install()
            traced = Bench(ROOT, work / "traced", probe, tracer=tracer)
            try:
                cycles = run_cycles(workload, traced, cycle_seeds(args.seed), TRACE_CYCLES)
            finally:
                tracer.close()
            same = [a["digest"] == b["digest"]
                    for a, b in zip(untraced.digests, traced.digests)]
            traced.check(len(same) == len(untraced.digests) and all(same),
                         "traced commands wrote other digests than untraced ones")
            metrics, samples, extra = per_layer(untraced, traced, tracer)
            benches = (untraced, traced)
        else:
            setup = measure_setup(scenario, SETUP_RUNS)
            bench = Bench(ROOT, work, probe, tamper=tamper)
            cycles = run_cycles(workload, bench, cycle_seeds(args.seed),
                                workload.min_cycles, args.seconds)
            metrics, samples, extra = end_to_end(bench, setup)
            benches = (bench,)
    finally:
        probe.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(b.attempted for b in benches)
    failures = [f for b in benches for f in b.failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    extra["error_rate"] = (len(failures) / attempted if attempted else 1.0, "share",
                           f"{len(failures)} failed of {attempted} commands and checks")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": cycles, "result": result, "samples": samples,
        "unbounded": {name: {"value": value, "unit": unit, "samples": note}
                      for name, (value, unit, note) in extra.items()},
        "failures": failures, "digests": benches[-1].digests,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_file = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  cycles {cycles}  "
          f"trace {args.trace}")
    rows = [(name, value, unit, samples.get(name, ""))
            for name, (value, unit) in metrics.items()]
    for name, value, unit, note in rows + [(n, *v) for n, v in extra.items()]:
        print(f"  {name:<42} {value:>14.6g} {unit:<6} {note}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(f"  {len(report['digests'])} segment digests in "
          f"{result_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
