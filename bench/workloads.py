"""The workloads' operations and the correctness gate that checks them.

An operation is one call into the program's public surface: one
``cli.main([...], standalone_mode=False)`` command, or one
``cli.check_one_seed(seed)``. A pass runs every operation of a workload once.
"""
from __future__ import annotations

import contextlib
import gc
import io
import statistics
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import program  # noqa: F401  (puts the checkout's src/ on sys.path)
from cti import cli
from cti.model import MetricReport
from cti.transit_dominance import DEFAULT_DOMINANCE_THRESHOLD
from inputs import INSTANCES, ORACLE_BATCH, sha256
from measure import OpResult, reference_seconds

# Per CLI workload: operation label -> command and its options. Every command
# runs once per destination country in every pass.
COMMANDS: dict[str, dict[str, tuple[str, ...]]] = {
    "country_cti": {"cti": ("cti",), "org": ("org",)},
    "metric_sweep": {
        "cti-exact": ("cti", "--no-outlier", "--format", "json"),
        "ctin": ("ctin",),
        "footprint": ("footprint",),
        "clh": ("clh",),
        "candidates": ("candidates",),
        "transit-fraction": ("transit-fraction",),
    },
}

Wrap = Callable[[str, Callable[[], object]], Callable[[], object]]


def untraced(_span: str, call: Callable[[], object]) -> Callable[[], object]:
    return call


@dataclass(frozen=True)
class Op:
    key: str  # "<label> <country>" or "seed <n>"
    span: str  # root span name in a traced run: cli.<command> or cli.check_one_seed
    call: Callable[[], object]  # the timed call into the program
    finish: Callable[[str, float, object, str], OpResult]  # (key, seconds, value, stdout)


def _run_cli(args: list[str]) -> object:
    return cli.main(args, standalone_mode=False)


def _check_seed(seed: int) -> object:
    return cli.check_one_seed(seed)


def _report_result(key: str, seconds: float, _value: object, stdout: str) -> OpResult:
    lines = stdout.strip().splitlines()
    if not lines:
        return OpResult(key, seconds, error="command printed no report path")
    try:
        body = Path(lines[-1]).read_bytes()
    except OSError as exc:
        return OpResult(key, seconds, error=f"report not readable: {exc}")
    return OpResult(key, seconds, digest=sha256(body), body=body)


def _seed_result(key: str, seconds: float, value: object, _stdout: str) -> OpResult:
    error = None if value is None else f"pipeline disagrees with the oracle: {value}"
    return OpResult(key, seconds, error=error)


def workload_ops(workload: str, seed: int, inputs: Path, outputs: Path) -> list[Op]:
    if workload == "oracle_check":
        return [
            Op(f"seed {s}", "cli.check_one_seed", partial(_check_seed, s), _seed_result)
            for s in range(seed, seed + ORACLE_BATCH)
        ]
    ops = []
    for label, command in COMMANDS[workload].items():
        for country in INSTANCES[workload].countries:
            args = [*command, "--input", str(inputs), "--country", country]
            args += ["--output", str(outputs)]
            call = partial(_run_cli, args)
            ops.append(Op(f"{label} {country}", f"cli.{command[0]}", call, _report_result))
    return ops


def execute(op: Op, wrap: Wrap = untraced) -> OpResult:
    """Run one operation; only the call into the program is timed."""
    call = wrap(op.span, op.call)
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            value = call()
    except SystemExit as exc:
        seconds = time.perf_counter() - start
        message = captured.getvalue().strip()
        return OpResult(op.key, seconds, error=f"exit status {exc.code}: {message}")
    except Exception:  # an operation boundary: record it and keep measuring
        seconds = time.perf_counter() - start
        return OpResult(op.key, seconds, error=traceback.format_exc(limit=3))
    seconds = time.perf_counter() - start
    return op.finish(op.key, seconds, value, captured.getvalue())


# The reference is timed before a pass and after every operation, or after
# every CALIBRATION_INTERVAL_S of operations when they are shorter.
CALIBRATION_INTERVAL_S = 0.1


@dataclass
class Phase:
    """The passes of one measured phase and the reference durations timed
    between their operations."""

    passes: list[list[OpResult]] = field(default_factory=list)
    references: list[float] = field(default_factory=list)

    @property
    def results(self) -> list[OpResult]:
        return [result for one_pass in self.passes for result in one_pass]

    def wall_s(self, scale: float) -> float:
        """Median over passes of the summed operation times, scaled."""
        return statistics.median(sum(r.seconds for r in p) for p in self.passes) * scale

    def run_pass(self, ops: list[Op], wrap: Wrap = untraced) -> None:
        gc.collect()
        results: list[OpResult] = []
        self.references.append(reference_seconds())
        since = 0.0
        for op in ops:
            result = execute(op, wrap)
            results.append(result)
            since += result.seconds
            if since >= CALIBRATION_INTERVAL_S:
                self.references.append(reference_seconds())
                since = 0.0
        if since:
            self.references.append(reference_seconds())
        self.passes.append(results)


def run_passes(ops: list[Op], seconds: float, min_passes: int, wrap: Wrap = untraced) -> Phase:
    """Whole passes until ``seconds`` have elapsed and at least ``min_passes`` ran."""
    phase = Phase()
    start = time.perf_counter()
    while len(phase.passes) < min_passes or time.perf_counter() - start < seconds:
        phase.run_pass(ops, wrap)
    return phase


# ---------------------------------------------------------------------------
# Naive-oracle comparisons for the reports that have an oracle.


def _rows(body: bytes) -> list[str]:
    return [line for line in body.decode("utf-8").splitlines() if not line.startswith("#")]


def _check_cti(body: bytes, country: str, expected: dict) -> str | None:
    report = MetricReport.from_json(body.decode("utf-8"))
    actual = [
        [c, subject, f"{value.numerator}/{value.denominator}"]
        for (c, subject), value in report.sorted_items()
    ]
    wanted = [[country, subject, value] for subject, value in expected["cti"][country]]
    return None if actual == wanted else "exact cti report differs from naive_cti"


def _check_ctin(body: bytes, country: str, expected: dict) -> str | None:
    value = expected["ctin"][country]
    wanted = [] if value is None else [f"{country},{country},{float(Fraction(value)):.12f}"]
    return None if _rows(body) == wanted else "ctin report differs from naive_ctin"


def _check_transit_fraction(body: bytes, country: str, expected: dict) -> str | None:
    value = Fraction(expected["transit_fraction"][country])
    dominant = int(value >= DEFAULT_DOMINANCE_THRESHOLD)
    wanted = [f"{country},{float(value):.12f},{dominant}"]
    return None if _rows(body) == wanted else "transit fraction differs from naive_transit_fraction"


ORACLE_CHECKS = {
    "cti-exact": _check_cti,
    "ctin": _check_ctin,
    "transit-fraction": _check_transit_fraction,
}


def oracle_gate(expected: dict | None) -> Callable[[OpResult], str | None]:
    """Compare a report with the naive oracle's values, where it has one."""

    def check(result: OpResult) -> str | None:
        label, _sep, country = result.key.rpartition(" ")
        compare = ORACLE_CHECKS.get(label)
        if expected is None or compare is None or result.body is None:
            return None
        return compare(result.body, country, expected)

    return check
