"""Benchmark of the cti command-line tool.

    python3 bench/run.py --workload country_cti --seed 7 --seconds 20 --trace 0

Set-up builds the workload's inputs from the seed in a child process, three
times, and reports the median. The measured phase then runs whole passes of
the workload in this process, single-threaded, until ``--seconds`` have
elapsed (at least two passes), and the correctness gate checks every
operation afterwards. With ``--trace 1`` half the time runs untraced and half
with spans around the calls into each module, and the per-layer metrics are
reported instead of the end-to-end ones.

Timings are scaled to a reference speed; see ``measure.REFERENCE_SECONDS``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import program
import inputs
import tracing
import workloads
from measure import (
    MIN_P95_SAMPLES,
    REFERENCE_SECONDS,
    find_failures,
    latency_metrics,
    reference_scale,
)

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
WORK_DIR = program.ROOT / ".bench_work"
END_TO_END = ("setup_s", "wall_s", "op_p50_ms", "peak_rss_mb")

Metrics = dict[str, tuple[float, str]]


def set_up(workload: str, seed: int, work: Path) -> tuple[float, float]:
    """Median scaled and unscaled set-up time of SETUP_REPEATS child builds;
    the last one also writes the naive-oracle expectations."""
    scaled = []
    measured = []
    for repeat in range(SETUP_REPEATS):
        command = [
            sys.executable,
            str(program.BENCH_DIR / "inputs.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--out",
            str(work / "in"),
        ]
        if repeat == SETUP_REPEATS - 1:
            command += ["--expect", str(work / "expected.json")]
        child = subprocess.run(
            command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False
        )
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise SystemExit(f"benchmark: set-up of {workload} failed")
        report = json.loads(child.stdout.strip().splitlines()[-1])
        scaled.append(report["setup_s"] * reference_scale(report["references"]))
        measured.append(report["setup_s"])
    return statistics.median(scaled), statistics.median(measured)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timing_metrics(phase: workloads.Phase, scale: float) -> Metrics:
    latencies = latency_metrics([r.seconds * scale for r in phase.results])
    return {
        "wall_s": (phase.wall_s(scale), "s"),
        **{name: (value, "ms") for name, value in latencies.items()},
    }


def print_metrics(metrics: Metrics) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6f} {unit}")


def print_operation_medians(phase: workloads.Phase, scale: float) -> None:
    print("  median latency per operation:")
    by_key: dict[str, list[float]] = {}
    for result in phase.results:
        by_key.setdefault(result.key, []).append(result.seconds * scale * 1000)
    for key, values in by_key.items():
        print(f"    {key:<50} {statistics.median(values):>14.3f} ms")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s, measured_setup_s = set_up(args.workload, args.seed, work)
        expected_path = work / "expected.json"
        expected = json.loads(expected_path.read_text()) if expected_path.exists() else None
        ops = workloads.workload_ops(args.workload, args.seed, work / "in", work / "out")
        if args.trace:
            phase = workloads.run_passes(ops, args.seconds / 2, 1)
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            try:
                traced = workloads.run_passes(ops, args.seconds / 2, 1, tracer.wrap)
            finally:
                uninstall()
            tracer.write(WORK_DIR / f"spans_{args.workload}_{args.seed}.jsonl")
        else:
            phase = workloads.run_passes(ops, args.seconds, 2)
            rss_mb = peak_rss_mb()
            traced = workloads.Phase()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = phase.results + traced.results
    pinned = None
    if args.seed == inputs.DEFAULT_SEED and args.workload in workloads.COMMANDS:
        pinned = inputs.load_pins()["reports"][args.workload]
    failures = find_failures(results, pinned, workloads.oracle_gate(expected))
    for index, reason in sorted(failures.items()):
        sys.stderr.write(f"FAILED {results[index].key}: {reason}\n")

    scale = reference_scale(phase.references)
    summary = {"setup_s": (setup_s, "s"), **timing_metrics(phase, scale)}
    print(
        f"{args.workload} seed {args.seed}: {len(phase.passes)} untraced passes, "
        f"{len(phase.results)} operations; reference computation "
        f"{REFERENCE_SECONDS / scale * 1000:.4f} ms against a nominal "
        f"{REFERENCE_SECONDS * 1000:.4f} ms"
    )
    measured = {"setup_s": (measured_setup_s, "s"), **timing_metrics(phase, 1.0)}
    print("  as measured, before scaling:")
    print_metrics(measured)
    print("  scaled to the reference speed:")
    if args.trace:
        traced_scale = reference_scale(traced.references)
        overhead_s = traced.wall_s(traced_scale) - summary["wall_s"][0]
        metrics = tracing.layer_metrics(
            tracer.finished(), tracer.counts, len(traced.passes), overhead_s, traced_scale
        )
    else:
        summary["peak_rss_mb"] = (rss_mb, "MB")
        metrics = {name: summary[name] for name in END_TO_END}
    summary["error_rate"] = (len(failures) / len(results), "ratio")
    print_metrics(summary)
    if "op_p95_ms" not in summary:
        print(f"  op_p95_ms omitted: fewer than {MIN_P95_SAMPLES} operations")
    if args.workload in workloads.COMMANDS:
        print_operation_medians(phase, scale)
    if args.trace:
        print("  per layer, per traced pass:")
        print_metrics(metrics)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(results),
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
