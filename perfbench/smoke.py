"""Smoke check of the benchmark harness at its smallest setting.

Runs every workload once untraced and once traced with a single cycle,
and checks that each run prints every metric named in ``BENCHMARK.json``
with its unit, passes all of its correctness checks, and reports the
counts the README states. Then it corrupts one saved segment and checks
that the failed check shows up in ``failed`` and ``error_rate``.

    python3 perfbench/smoke.py          # about three minutes on two cores
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout

import run

# Counts of the seed program (see README.md, "Known counts"): DLT solves
# per frame (3 rigs x 15 landmarks), digests per simulated segment, and
# loads per segment and evaluation round.
TRIANGULATIONS_PER_FRAME = 45
DIGEST_CALLS_PER_SEGMENT = 2
LOAD_CALLS_PER_SEGMENT_ROUND = {"rmse_long": 3, "stature_grid": 2}


def invoke(argv: list[str], tamper: bool = False) -> tuple[dict, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(argv, tamper=tamper)
    text = out.getvalue()
    if code != 0:
        raise SystemExit(f"benchmark exited {code} for {argv}:\n{text}")
    return json.loads(text.strip().splitlines()[-1]), text


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    sys.path.insert(0, str(run.SRC))
    import workloads
    for name, workload in list(workloads.WORKLOADS.items()):
        workloads.WORKLOADS[name] = dataclasses.replace(workload, min_cycles=1)

    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = ["--workload", name, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace)]
            result, text = invoke(argv)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace {trace}: metrics {sorted(got)} "
                                f"differ from BENCHMARK.json {sorted(expected[trace])}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: failed checks\n{text}")
            unbounded = ["error_rate"] if trace else ["error_rate", "status_interval_ms_p99"]
            for line in unbounded:
                if line not in text:
                    problems.append(f"{name} trace {trace}: no {line} line")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                segments = m["pipeline.segments"]
                if m["triangulate.calls"] != TRIANGULATIONS_PER_FRAME * m["pipeline.frames"] \
                        or m["fusion.prefactor_calls"] != segments:
                    problems.append(f"{name}: {m['triangulate.calls']} triangulations, "
                                    f"{m['fusion.prefactor_calls']} prefactorizations")
                if m["recording.digest_calls"] != DIGEST_CALLS_PER_SEGMENT * segments:
                    problems.append(f"{name}: {m['recording.digest_calls']} digest "
                                    f"calls for {segments} segments")
                loads = LOAD_CALLS_PER_SEGMENT_ROUND[name] * segments * \
                    workloads.WORKLOADS[name].eval_rounds
                if m["recording.load_calls"] != loads:
                    problems.append(f"{name}: {m['recording.load_calls']} load "
                                    f"calls for {segments} segments")
            print(f"{name} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} checks", file=sys.stderr)

    result, text = invoke(["--workload", "rmse_long", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], tamper=True)
    if result["correct"] or result["failed"] < 1 or \
            "reloaded streams do not match digest" not in text:
        problems.append(f"a corrupted segment was not reported:\n{text}")
    report = json.loads((run.OUT / "results" / "rmse_long-seed1-trace0.json").read_text())
    error_rate = report["unbounded"]["error_rate"]["value"]
    if not error_rate > 0:
        problems.append(f"error_rate {error_rate} after a failed check")

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("smoke check " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
