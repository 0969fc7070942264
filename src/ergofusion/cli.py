"""``ergofusion`` command line: simulate scenarios and evaluate recordings.

Exit codes: 0 success, 1 runtime failure, 2 validation/configuration
failure. The ``ERGOFUSION_OUT`` environment variable supplies the
default output root for ``simulate``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .evaluate import (PairingError, export, pair_recordings, rmse_report,
                       rula_compare_many, write_comparison, EXPORT_FORMATS,
                       EXPORT_KINDS, EXPORT_STREAMS, RMSE_STREAMS)
from .pipeline import SCHEDULERS, PipelineError, run_scenario
from .recording import RecordingError, SegmentRecording
from .scenario import ScenarioError, load_scenario

OUT_ENV = "ERGOFUSION_OUT"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergofusion",
        description="Multi-stereo-camera ergonomics pipeline: simulate a "
                    "scenario, then evaluate landmark accuracy and RULA "
                    "improvement from its recordings.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and record it")
    sim.add_argument("--scenario", required=True, help="scenario YAML file")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed "
                          "(a non-negative integer up to 2**63-1)")
    sim.add_argument("--out", default=None,
                     help=f"output directory (default ${OUT_ENV}/<scenario name>)")
    sim.add_argument("--scheduler", choices=SCHEDULERS, default="serial",
                     help="node scheduler (default: serial)")

    rmse = sub.add_parser("eval-rmse", help="per-landmark RMSE vs ground truth")
    rmse.add_argument("--recording", required=True,
                      help="segment recording directory (or a run directory; "
                           "its 'pre' segment is used)")
    rmse.add_argument("--out", default=None, help="also write the report as JSON")

    rula = sub.add_parser("eval-rula",
                          help="paired pre/post RULA comparison")
    rula.add_argument("--recording-pre", required=True)
    rula.add_argument("--recording-post", required=True)
    rula.add_argument("--out", default=None,
                      help="directory for the flat report files")

    exp = sub.add_parser("export", help="export a recording stream")
    exp.add_argument("--recording", required=True)
    exp.add_argument("--what", required=True, choices=EXPORT_KINDS)
    exp.add_argument("--format", required=True, choices=EXPORT_FORMATS)
    exp.add_argument("--out", default=None, help="output file path")
    return parser


def _resolve_segment(path_str: str, streams: tuple[str, ...]) -> SegmentRecording:
    """Load ``streams`` of a segment directory, or of a run's ``pre`` segment."""
    path = Path(path_str)
    if (path / "manifest.json").exists():
        return SegmentRecording.load(path, streams)
    if (path / "pre" / "manifest.json").exists():
        return SegmentRecording.load(path / "pre", streams)
    raise RecordingError(f"{path} is not a recording directory")


def _cmd_simulate(args) -> int:
    config = load_scenario(args.scenario)
    out_root = args.out
    if out_root is None:
        base = os.environ.get(OUT_ENV, "runs")
        out_root = Path(base) / config.name
    out_root = Path(out_root)

    configs = config.expand_statures()
    # Each grid stature's run directory, checked before any segment runs.
    targets = {}
    for cfg in configs:
        target = out_root if len(configs) == 1 else \
            out_root / f"stature_{cfg.stature:.2f}"
        if target in targets:
            raise ScenarioError(
                f"stature values {targets[target].stature} and {cfg.stature} share "
                f"the run directory {target}")
        targets[target] = cfg
    for target, cfg in targets.items():
        recording = run_scenario(cfg, seed=args.seed,
                                 scheduler=args.scheduler)
        recording.save(target)
        for name, segment in recording.segments.items():
            print(f"{target / name}  frames={segment.manifest['frames']}  "
                  f"digest={segment.manifest['digest'][:12]}")
    return EXIT_OK


def _cmd_eval_rmse(args) -> int:
    segment = _resolve_segment(args.recording, RMSE_STREAMS)
    report = rmse_report(segment)
    print(report.to_text())
    if args.out:
        import json
        Path(args.out).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_eval_rula(args) -> int:
    pairs = pair_recordings(args.recording_pre, args.recording_post)
    comparison = rula_compare_many(pairs)
    print(comparison.to_text())
    if args.out:
        paths = write_comparison(comparison, args.out)
        for name, path in paths.items():
            print(f"{name}: {path}")
    return EXIT_OK


def _cmd_export(args) -> int:
    segment = _resolve_segment(args.recording, (EXPORT_STREAMS[args.what],))
    out = args.out or f"{args.what}.{args.format}"
    path = export(segment, args.what, args.format, out)
    print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "eval-rmse": _cmd_eval_rmse,
        "eval-rula": _cmd_eval_rula,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except (ScenarioError, RecordingError, PairingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PipelineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
