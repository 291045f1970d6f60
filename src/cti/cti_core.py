"""The per-country contribution kernel and the transit-influence score.

Every score is a sum of one term per retained path and transit AS on it,

    w/|M| * mass(p, C)/A(C) * 1/d,

with w = 1/n (n: the host AS's monitors observing prefix p), d the transit
AS's hop distance from the origin, A(C) the country's address total and M
the monitors outside the country, blind ones included, as retention counts
them (``Retained.outside_monitors``). Retention keeps only the inbound paths,
so the kernel counts every path it is given. With L a common multiple of
every n*d in the country, S[t][h] = sum of mass * L/(n*d) over host AS h's
paths crossing t, and each metric divides a sum of numerators by
L*A*|monitors|:

- cti(t) = sum_h S[t][h] / (L*A*|M|)
- per-host score = S[t][h] / (L*A*|M_h|), M_h being host h's monitors in M
- trimmed score = the surviving hosts' sum of S[t][h] / (L*A*|M_surv|),
  M_surv being M without the excluded hosts' monitors
- ctin of an AS set = one term per path not originated by a member, at the
  first member's distance d, over L*A*|M|

L is the lcm of every n times lcm(1..D), D the longest retained segment's
hop count, so it is fixed before the paths are read. Paths of one host AS
along one segment share every d, so the kernel holds W = sum of
mass * L/n once per such group (``HostTable.groups``), added path by path
in one pass, and W/d is that group's part of S[t][h] for the transit t at
each distance d. That division is exact: L is a multiple of every n*d, so
each term mass * L/(n*d) is an integer. Every score is a reduced
``Fraction``, so which common multiple L is does not change a report. cti
and ctin are reductions over the groups; the cells S[t][h] are built only
when the per-host scores of the outlier filter ask for them. An empty
monitor set gives 0. Arithmetic is exact and order-independent.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geo import GeoTable
from .model import MetricReport, Route
from .pathprep import Retained


@dataclass
class HostTable:
    """The kernel of one country: W per (host AS, segment) over a common
    denominator, and S[transit][host] (``cells``) on first request."""

    country: str
    lcm: int  # L, a common multiple of every n*d
    denominator: int  # L * A
    n_monitors: int  # |M|: retention's monitors outside the country, blind ones included
    host_monitors: Counter[int]  # |M_h| per host AS with a monitor in M
    n_paths: int  # the retained paths, every one counted
    segments: Sequence[Route]  # the retained segments, by index
    groups: dict[int, dict[int, int]]  # W per (host AS, segment): segment index -> host AS -> W

    @functools.cached_property
    def cells(self) -> dict[int, dict[int, int]]:
        """S[transit][host], built from ``groups`` on first request: only the
        outlier filter reads a transit AS's score per host."""
        cells: dict[int, dict[int, int]] = {}
        for segment_ix, weights in self.groups.items():
            for distance, transit in enumerate(self.segments[segment_ix][1:], start=1):
                row = cells.setdefault(transit, {})
                for host, weight in weights.items():
                    row[host] = row.get(host, 0) + self.numerator(weight, distance)
        return cells

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


def compute_weights(retained: Retained) -> Counter[int]:
    """n per (host AS, prefix): how many of that AS's monitors observe the
    prefix, keyed prefix index * len(hosts) + host index, for the host ASes
    with two or more monitors outside the country. A key that is missing
    has n = 1: paths are unique per (monitor, prefix), so a host AS with one
    such monitor sees each prefix at most once.

    A monitor's weight is 1/n. Monitors of an AS that do not observe the
    prefix do not count toward n, so the weights of the observing monitors
    always sum to 1.
    """
    n_hosts = len(retained.hosts)
    multi = [count > 1 for count in retained.outside_monitors]
    pairs = zip(retained.group, retained.prefix_ix)
    return Counter(
        prefix_ix * n_hosts + host_ix
        for group, prefix_ix in pairs
        if multi[host_ix := group % n_hosts]
    )


def extract_observations(retained: Retained, geo: GeoTable, country: str) -> HostTable:
    """Build the kernel from the retained paths toward one country. Every
    retained path counts, and |M| and |M_h| are retention's counts of the
    monitors outside the country."""
    total = geo.country_total(country)
    hosts, segments = retained.hosts, retained.segments
    n_hosts = len(hosts)
    mass = [geo.mass.get((prefix, country), 0) for prefix in retained.prefixes]
    # L is fixed before the rows are read: the lcm of every n times lcm(1..D)
    observers = compute_weights(retained)
    top = max(map(len, segments), default=1) - 1
    lcm = math.lcm(*observers.values()) * math.lcm(*range(1, top + 1))
    for key, n in observers.items():  # L/n in n's place: L where a key is missing
        observers[key] = lcm // n
    # W per (host AS, segment), in the order of the segment's and host's first rows
    groups: dict[int, dict[int, int]] = {}
    for group, prefix_ix in zip(retained.group, retained.prefix_ix):
        weights = groups.get(segment_ix := group // n_hosts)
        if weights is None:
            weights = groups[segment_ix] = {}
        host_ix = group % n_hosts
        host = hosts[host_ix]
        term = mass[prefix_ix] * observers.get(prefix_ix * n_hosts + host_ix, lcm)
        weights[host] = weights.get(host, 0) + term
    outside = zip(hosts, retained.outside_monitors)
    host_monitors = Counter({host: count for host, count in outside if count})
    return HostTable(
        country=country,
        lcm=lcm,
        denominator=lcm * total,
        n_monitors=sum(retained.outside_monitors),
        host_monitors=host_monitors,
        n_paths=len(retained),
        segments=segments,
        groups=groups,
    )


def compute_cti(table: HostTable) -> MetricReport:
    """The score of every transit AS observed toward the table's country: the
    sum of S[t][h] over the hosts, taken per segment as its hosts' summed W
    over d (exact, since every W is a multiple of d)."""
    numerators: dict[int, int] = {}
    for segment_ix, weights in table.groups.items():
        weight = sum(weights.values())
        for distance, transit in enumerate(table.segments[segment_ix][1:], start=1):
            numerators[transit] = numerators.get(transit, 0) + table.numerator(weight, distance)
    report = MetricReport(metric_name="cti")
    for transit, numerator in numerators.items():
        report.set(table.country, transit, table.score(numerator, table.n_monitors))
    return report
