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

Paths of one host AS along one segment share every d, so the kernel sums
W = sum of mass * L/n once per such group and adds W/d to S[t][h] for the
transit t at each distance d. That division is exact: L is a multiple of
every n*d, so each term mass * L/(n*d) is an integer. An empty monitor set
gives 0. Arithmetic is exact and order-independent.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .geo import GeoTable
from .model import MetricReport, MonitorId, Prefix, Route
from .pathprep import RetainedRow


@dataclass
class HostTable:
    """The kernel of one country: S[transit][host] over a common denominator."""

    country: str
    lcm: int  # L
    denominator: int  # L * A
    n_monitors: int  # |M|
    host_monitors: Counter[int]  # |M_h| per host AS in M
    n_paths: int  # counted paths
    groups: dict[tuple[int, Route], int]  # W per (host AS, segment)
    cells: dict[int, dict[int, int]] = field(default_factory=dict)  # S[transit][host]

    def __len__(self) -> int:
        return self.n_paths

    def numerator(self, weight: int, distance: int) -> int:
        """A group's term at hop distance d, W/d, as a numerator over L."""
        return weight // distance

    def score(self, numerator: int, monitors: int) -> Fraction:
        """A sum of numerators normalized by ``monitors`` monitors."""
        if monitors == 0:
            return Fraction(0)
        return Fraction(numerator, self.denominator * monitors)


def compute_weights(retained: Iterable[RetainedRow]) -> Counter[tuple[int, Prefix]]:
    """n per (host AS, prefix): how many of that AS's monitors observe the prefix.

    A monitor's weight is 1/n. Monitors of an AS that do not observe the
    prefix do not count toward n, so the weights of the observing monitors
    always sum to 1. Paths are unique per (monitor, prefix).
    """
    return Counter((host, prefix) for host, _segment, prefix in retained)


def extract_observations(
    retained: Iterable[RetainedRow],
    geo: GeoTable,
    monitors: Sequence[MonitorId],
    country: str,
) -> HostTable:
    """Build the kernel from the retained paths toward one country.

    Only paths of host ASes with a monitor in ``monitors``, toward prefixes
    with mass in the country, count; ``len()`` of the result is the number
    of those paths.
    """
    total = geo.country_total(country)
    host_monitors = Counter(m.host_asn for m in monitors)
    mass_of = {prefix: mass for (prefix, c), mass in geo.mass.items() if c == country and mass}
    counted = [row for row in retained if row[0] in host_monitors and row[2] in mass_of]
    observers = compute_weights(counted)
    # summed mass per (host AS, segment, n): the paths of a group that share n
    mass_by_n: dict[tuple[int, Route, int], int] = {}
    for host, segment, prefix in counted:
        key = (host, segment, observers[(host, prefix)])
        mass_by_n[key] = mass_by_n.get(key, 0) + mass_of[prefix]
    lcm = math.lcm(*{n * d for _host, segment, n in mass_by_n for d in range(1, len(segment))})
    groups: dict[tuple[int, Route], int] = {}
    for (host, segment, n), mass in mass_by_n.items():
        groups[(host, segment)] = groups.get((host, segment), 0) + mass * (lcm // n)
    table = HostTable(
        country=country,
        lcm=lcm,
        denominator=lcm * total,
        n_monitors=len(monitors),
        host_monitors=host_monitors,
        n_paths=len(counted),
        groups=groups,
    )
    for (host, segment), weight in table.groups.items():
        for distance, transit in enumerate(segment[1:], start=1):
            row = table.cells.setdefault(transit, {})
            row[host] = row.get(host, 0) + table.numerator(weight, distance)
    return table


def compute_cti(table: HostTable) -> MetricReport:
    """The score of every transit AS observed toward the table's country."""
    report = MetricReport(metric_name="cti")
    for transit, row in table.cells.items():
        report.set(table.country, transit, table.score(sum(row.values()), table.n_monitors))
    return report
