"""Per-host-AS outlier filter.

Each transit AS is also scored from every monitor-hosting AS's monitors
alone. When ten or more hosts produce such a score, the hosts in the bottom
and top decile are excluded and the score is recomputed over the surviving
monitors. All three scores are reductions over the country's kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cti_core import HostTable, compute_cti
from .model import MetricReport

DEFAULT_MIN_HOSTS = 10
DEFAULT_TRIM = Fraction(1, 10)


def per_host_cti(table: HostTable, transit: int) -> dict[int, Fraction]:
    """The transit AS's score from each host AS in isolation, for every host
    with at least one monitor observing it."""
    return {
        host: table.score(numerator, table.host_monitors[host])
        for host, numerator in table.cells[transit].items()
    }


@dataclass
class FilteredScore:
    value: Fraction
    excluded: list[tuple[int, Fraction]]  # (host ASN, per-host score)


def apply_outlier_filter(
    table: HostTable,
    transit: int,
    min_hosts: int = DEFAULT_MIN_HOSTS,
    trim: Fraction = DEFAULT_TRIM,
) -> FilteredScore:
    """Trim the per-tail decile of hosts and recompute over the survivors.

    With fewer than ``min_hosts`` hosts nothing is excluded and the value is
    the unfiltered score. The per-tail count is floor(trim * H); ties are
    broken by ascending host ASN so the exclusion set is deterministic. With
    0 <= trim < 1/2 at least one host, and so one monitor, survives.
    """
    row = table.cells[transit]
    per_tail = int(trim * len(row)) if len(row) >= min_hosts else 0
    excluded: list[tuple[int, Fraction]] = []
    if per_tail > 0:
        # S/(L*A*|M_h|) ranks as S * (lcm_M / |M_h|), lcm_M the lcm of every
        # |M_h|: the common L*A*lcm_M cancels, so the order and ties hold
        monitors = table.host_monitors
        lcm_m = math.lcm(*monitors.values())
        ranked = sorted(row, key=lambda host: (row[host] * (lcm_m // monitors[host]), host))
        excluded = [
            (host, table.score(row[host], monitors[host]))
            for host in ranked[:per_tail] + ranked[-per_tail:]
        ]
    hosts = {host for host, _value in excluded}
    value = table.score(
        sum(numerator for host, numerator in row.items() if host not in hosts),
        table.n_monitors - sum(table.host_monitors[host] for host in hosts),
    )
    return FilteredScore(value=value, excluded=excluded)


def filtered_cti(
    table: HostTable,
    min_hosts: int = DEFAULT_MIN_HOSTS,
    trim: Fraction = DEFAULT_TRIM,
) -> MetricReport:
    """The cti report with every subject's score passed through the filter."""
    report = compute_cti(table)
    for transit in table.cells:
        result = apply_outlier_filter(table, transit, min_hosts, trim)
        if result.excluded:
            report.set(table.country, transit, result.value)
    return report
