"""Address-weighted country-level hegemony and report comparison.

The hegemony table gives, per (origin AS, transit AS), the fraction of that
origin's paths crossing the transit AS. The country-level value weighs each
origin by its share of the country's addresses. Two metric reports over the
same country are compared entrywise on the union of their subjects, treating
a missing subject as zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm
from typing import Mapping

from .geo import GeoTable
from .model import ComputationError, MetricReport


def compute_clh(
    hegemony: Mapping[tuple[int, int], Fraction],
    geo: GeoTable,
    country: str,
) -> MetricReport:
    """clh(t, C) = sum_o hegemony(o, t) * a*(o, C) / A(C), over origins with
    addresses in C. Missing (origin, transit) table entries contribute zero."""
    total_addresses = geo.country_total(country)
    # per transit AS: score denominator -> sum of score numerator * addresses
    sums: dict[int, dict[int, int]] = {}
    for (origin, transit), score in hegemony.items():
        originated = geo.originated.get((origin, country), 0)
        if originated == 0:
            continue
        by_denominator = sums.setdefault(transit, {})
        term = score.numerator * originated
        by_denominator[score.denominator] = by_denominator.get(score.denominator, 0) + term

    report = MetricReport(metric_name="clh")
    for transit, by_denominator in sums.items():
        common = lcm(*by_denominator)
        numerator = sum(n * (common // d) for d, n in by_denominator.items())
        report.set(country, transit, Fraction(numerator, common * total_addresses))
    return report


@dataclass(frozen=True)
class DiffStats:
    n: int
    mean: Fraction
    p25: Fraction
    median: Fraction
    p75: Fraction


def _nearest_rank(sorted_values: list[Fraction], percentile: Fraction) -> Fraction:
    index = ceil(percentile * len(sorted_values))  # 1-based nearest rank
    return sorted_values[max(index, 1) - 1]


def compare_reports(a: MetricReport, b: MetricReport) -> DiffStats:
    """Absolute entrywise differences over the union of keys, zero-filled."""
    keys = set(a.entries) | set(b.entries)
    if not keys:
        raise ComputationError("cannot compare two empty reports")
    diffs = sorted(abs(a.entries.get(k, Fraction(0)) - b.entries.get(k, Fraction(0))) for k in keys)
    n = len(diffs)
    return DiffStats(
        n=n,
        mean=sum(diffs, Fraction(0)) / n,
        p25=_nearest_rank(diffs, Fraction(1, 4)),
        median=_nearest_rank(diffs, Fraction(1, 2)),
        p75=_nearest_rank(diffs, Fraction(3, 4)),
    )
