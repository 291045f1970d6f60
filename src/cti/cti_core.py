"""The per-country contribution kernel and the transit-influence score.

Every score is a sum of one term per retained path and transit AS on it,

    w/|M| * mass(p, C)/A(C) * 1/d,

with w = 1/n (n: the host AS's monitors observing prefix p), d the transit
AS's hop distance from the origin, A(C) the country's address total and M
the active monitor set, blind monitors included. With L the lcm of every n*d
in the country, the kernel holds S[t][h] = sum of mass * L/(n*d) over host
AS h's paths crossing t, and each metric divides a sum of numerators by
L*A*|monitors|:

- cti(t) = sum_h S[t][h] / (L*A*|M|)
- per-host score = S[t][h] / (L*A*|M_h|), M_h being host h's monitors in M
- trimmed score = the surviving hosts' sum of S[t][h] / (L*A*|M_surv|),
  M_surv being M without the excluded hosts' monitors
- ctin of an AS set = one term per path not originated by a member, at the
  first member's distance d, over L*A*|M|

An empty monitor set gives 0. Arithmetic is exact and order-independent.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .geo import GeoTable
from .model import MetricReport, MonitorId, Prefix
from .pathprep import RetainedPath


@dataclass
class HostTable:
    """The kernel of one country: S[transit][host] over a common denominator."""

    country: str
    lcm: int  # L
    denominator: int  # L * A
    n_monitors: int  # |M|
    host_monitors: Counter[int]  # |M_h| per host AS in M
    paths: list[tuple[RetainedPath, int, int]]  # (path, mass, n) per counted path
    cells: dict[int, dict[int, int]] = field(default_factory=dict)  # S[transit][host]

    def __len__(self) -> int:
        return len(self.paths)

    def numerator(self, mass: int, n: int, distance: int) -> int:
        """One term, mass/(n*d), as a numerator over L."""
        return mass * (self.lcm // (n * distance))

    def score(self, numerator: int, monitors: int) -> Fraction:
        """A sum of numerators normalized by ``monitors`` monitors."""
        if monitors == 0:
            return Fraction(0)
        return Fraction(numerator, self.denominator * monitors)


def compute_weights(retained: Iterable[RetainedPath]) -> Counter[tuple[int, Prefix]]:
    """n per (host AS, prefix): how many of that AS's monitors observe the prefix.

    A monitor's weight is 1/n. Monitors of an AS that do not observe the
    prefix do not count toward n, so the weights of the observing monitors
    always sum to 1. Paths are unique per (monitor, prefix).
    """
    return Counter((path.monitor.host_asn, path.prefix) for path in retained)


def extract_observations(
    retained: Iterable[RetainedPath],
    geo: GeoTable,
    monitors: Sequence[MonitorId],
    country: str,
) -> HostTable:
    """Build the kernel from the retained paths toward one country.

    Only paths of active monitors toward prefixes with mass in the country
    count; ``len()`` of the result is the number of those paths.
    """
    total = geo.country_total(country)
    active_ids = {m.id for m in monitors}
    masses = geo.mass
    counted = [
        p for p in retained if p.monitor.id in active_ids and masses.get((p.prefix, country), 0)
    ]
    observers = compute_weights(counted)
    rows = [
        (p, masses[(p.prefix, country)], observers[(p.monitor.host_asn, p.prefix)]) for p in counted
    ]
    lcm = math.lcm(*{n * d for p, _mass, n in rows for d in range(1, len(p.segment))})

    table = HostTable(
        country=country,
        lcm=lcm,
        denominator=lcm * total,
        n_monitors=len(monitors),
        host_monitors=Counter(m.host_asn for m in monitors),
        paths=rows,
    )
    for path, mass, n in rows:
        host = path.monitor.host_asn
        for distance, transit in enumerate(path.segment[1:], start=1):
            row = table.cells.setdefault(transit, {})
            row[host] = row.get(host, 0) + table.numerator(mass, n, distance)
    return table


def compute_cti(table: HostTable) -> MetricReport:
    """The score of every transit AS observed toward the table's country."""
    report = MetricReport(metric_name="cti")
    for transit, row in table.cells.items():
        report.set(table.country, transit, table.score(sum(row.values()), table.n_monitors))
    return report
