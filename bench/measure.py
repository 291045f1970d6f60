"""Pure measurement helpers: the reference clock, percentiles, self time and
failure counting.

Nothing here imports the program, so the harness self-tests exercise these
functions on hand-made inputs.
"""
from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

# op_p95_ms needs at least ten samples beyond the 95th percentile.
MIN_P95_SAMPLES = 200

# The machine the benchmark runs on is shared: other tenants slow a whole
# run by 70% at times, far beyond any useful regression bound. A run
# therefore also times a fixed reference computation between its operations
# and reports its timings scaled to the reference's nominal duration,
# measured on a quiet 2-core, 2.0 GHz x86-64 box with CPython 3.11.
REFERENCE_SECONDS = 0.0023
REFERENCE_REPEATS = 3


def reference_work() -> int:
    """Fixed pure-Python work resembling the program's own: parsing delimited
    rows into tuples, dictionary updates and exact rational arithmetic.

    Its memory stays small and is reused from call to call. A reference that
    allocated fresh memory ran up to twice as slow right after an operation
    had freed a large heap, which says nothing about the machine's speed.
    """
    table: dict[int, tuple[int, ...]] = {}
    for i in range(700):
        row = f"m{i % 37}|10.{i % 256}.{i // 256}.0/24|{i} {i + 7} {i * 3}"
        _monitor, _prefix, hops = row.split("|")
        table[i % 64] = tuple(int(hop) for hop in hops.split())
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    return len(table) + total.denominator % 97


def reference_seconds(repeats: int = REFERENCE_REPEATS) -> float:
    """Mean duration of ``reference_work`` right now."""
    start = time.perf_counter()
    for _ in range(repeats):
        reference_work()
    return (time.perf_counter() - start) / repeats


def reference_scale(references: Sequence[float]) -> float:
    """Factor that scales durations measured alongside ``references`` to the
    speed at which the reference takes its nominal REFERENCE_SECONDS.

    The mean, not the median, of the samples estimates the time-averaged
    slowdown that the measured durations also accumulate.
    """
    return REFERENCE_SECONDS / statistics.fmean(references)


@dataclass(frozen=True)
class OpResult:
    """One executed operation: a CLI command or one oracle seed."""

    key: str  # same key in every pass, e.g. "cti AA" or "seed 7"
    seconds: float  # wall-clock time of the call
    error: str | None = None  # non-zero exit, exception or oracle mismatch
    digest: str | None = None  # sha256 of the report the operation wrote
    body: bytes | None = None  # the report itself


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for an operation's root span
    op: int  # operation id shared by every span of one operation


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``percentile`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = math.ceil(percentile / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def latency_metrics(seconds: Sequence[float]) -> dict[str, float]:
    """op_p50_ms, the median, always; op_p95_ms, the nearest-rank 95th
    percentile, only with at least MIN_P95_SAMPLES samples.

    With an even count the median averages the middle two samples. On
    ``country_cti`` those are one command for each country, so the median
    does not flip between countries from seed to seed.
    """
    ms = [s * 1000 for s in seconds]
    metrics = {"op_p50_ms": statistics.median(ms)}
    if len(ms) >= MIN_P95_SAMPLES:
        metrics["op_p95_ms"] = nearest_rank(ms, 95)
    return metrics


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        result.append(span.end - span.start - covered)
    return result


def find_failures(
    results: Sequence[OpResult],
    pinned: dict[str, str] | None,
    oracle: Callable[[OpResult], str | None],
) -> dict[int, str]:
    """Index of every failed result with its reasons; a result that fails
    several checks counts once.

    A result fails when it carries an error, when its report differs from the
    first successful report under the same key, when ``pinned`` is given and
    its digest differs from the pinned one, or when ``oracle`` objects.
    """
    failed: dict[int, str] = {}
    first_digest: dict[str, str | None] = {}
    for index, result in enumerate(results):
        if result.error is not None:
            failed[index] = result.error
            continue
        reasons = []
        reference = first_digest.setdefault(result.key, result.digest)
        if result.digest != reference:
            reasons.append("report differs from the first pass")
        if pinned is not None and pinned.get(result.key) != result.digest:
            reasons.append("report digest differs from the pinned one")
        mismatch = oracle(result)
        if mismatch is not None:
            reasons.append(mismatch)
        if reasons:
            failed[index] = "; ".join(reasons)
    return failed
