"""Path hygiene and the provider-customer topological-peak filter.

Raw paths are sanitized (prepending collapsed, loops / unallocated ASes /
poisoned paths rejected), filtered to inbound-eligible monitors, and
truncated at the topological peak: the farthest provider-to-customer link
when scanning from the origin outward. Everything above the peak, including
peers of the peak provider, is discarded.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple

from .geo import GeoTable
from .model import MonitorId, PathRecord, Prefix, Record, RelationshipTable

Route = tuple[int, ...]


class RejectCategory(Enum):
    LOOP = "Loop"
    UNALLOCATED = "Unallocated"
    POISONED = "Poisoned"
    NO_PEAK = "NoPeak"


@dataclass(frozen=True)
class PathRejection:
    category: RejectCategory
    monitor_id: str
    prefix: Prefix
    reason: str

    def as_log_line(self) -> str:
        return f"{self.category.value},{self.monitor_id},{self.prefix},{self.reason}"


class RetainedPath(Record):
    """Origin-first segment up to and including the topological-peak provider."""

    __slots__ = ()
    _fields = ("monitor", "prefix", "segment")

    def __new__(cls, monitor: MonitorId, prefix: Prefix, segment: Route) -> "RetainedPath":
        if len(segment) < 2:
            raise ValueError("retained segment needs the origin plus one transit AS")
        return tuple.__new__(cls, (monitor, prefix, segment))

    monitor = property(itemgetter(0))
    prefix = property(itemgetter(1))
    segment = property(itemgetter(2))

    @property
    def origin(self) -> int:
        return self.segment[0]


class RouteRejection(NamedTuple):
    """Why a route is rejected, whichever monitor and prefix it was seen for."""

    category: RejectCategory
    reason: str


def sanitize_route(
    host_asn: int,
    hops: Route,
    clique: frozenset[int],
    reserved: frozenset[int],
) -> Route | RouteRejection:
    """Collapse prepending, then reject reserved ASes, loops and poisoned paths;
    a return to the monitor's host AS after the first hop is a loop too.

    Returns the collapsed hops: ``hops`` itself when nothing collapsed, so a
    route kept its hops exactly when its length did not change.
    """
    if not reserved.isdisjoint(hops):
        asn = next(asn for asn in hops if asn in reserved)
        return RouteRejection(RejectCategory.UNALLOCATED, f"reserved ASN {asn}")
    collapsed = hops
    if len(set(hops)) != len(hops):
        collapsed = tuple(asn for i, asn in enumerate(hops) if i == 0 or hops[i - 1] != asn)
        if len(set(collapsed)) != len(collapsed):
            return RouteRejection(RejectCategory.LOOP, "ASN repeats non-consecutively")
    if not clique.isdisjoint(collapsed):
        clique_positions = [i for i, asn in enumerate(collapsed) if asn in clique]
        for i in range(clique_positions[0] + 1, clique_positions[-1]):
            if collapsed[i] not in clique:
                return RouteRejection(
                    RejectCategory.POISONED, f"non-clique ASN {collapsed[i]} between clique ASes"
                )
    if host_asn in collapsed[1:]:
        return RouteRejection(
            RejectCategory.LOOP, f"monitor host ASN {host_asn} after the first hop"
        )
    return collapsed


def peak_segment(host_asn: int, hops: Route, rels: RelationshipTable) -> Route | RouteRejection:
    """The origin-first segment capped by the topological peak.

    The monitor host AS is removed when it is the monitor-nearest hop. The
    peak is the largest index k (origin = index 0) such that segment[k] is an
    inferred provider of segment[k-1]; routes with no such link are rejected.
    """
    if hops[0] == host_asn:
        hops = hops[1:]
    if len(hops) < 2:
        return RouteRejection(RejectCategory.NO_PEAK, "no transit AS on path")
    origin_first = hops[::-1]
    peak = None
    for k in range(1, len(origin_first)):
        if rels.is_p2c(origin_first[k], origin_first[k - 1]):
            peak = k
    if peak is None:
        return RouteRejection(RejectCategory.NO_PEAK, "no provider-customer link")
    return origin_first[: peak + 1]


def _rejection(path: PathRecord, verdict: RouteRejection) -> PathRejection:
    return PathRejection(verdict.category, path.monitor.id, path.prefix, verdict.reason)


def sanitize(
    path: PathRecord,
    clique: frozenset[int],
    reserved: frozenset[int],
) -> PathRecord | PathRejection:
    """``sanitize_route`` applied to one path; the path itself when its hops
    are kept as they are."""
    route = sanitize_route(path.monitor.host_asn, path.hops, clique, reserved)
    if isinstance(route, RouteRejection):
        return _rejection(path, route)
    if len(route) == len(path.hops):
        return path
    return PathRecord(path.monitor, path.prefix, route)


def truncate_to_peak(
    path: PathRecord,
    rels: RelationshipTable,
) -> RetainedPath | PathRejection:
    """``peak_segment`` applied to one path."""
    segment = peak_segment(path.monitor.host_asn, path.hops, rels)
    if isinstance(segment, RouteRejection):
        return _rejection(path, segment)
    return RetainedPath(path.monitor, path.prefix, segment)


# A monitor reaches every prefix of an origin over the same route, so a corpus
# repeats each (host AS, hops) pair many times: prepare_paths and
# retain_for_country judge each distinct pair once per call, through a cache
# made inside the call, and then build the per-path record or rejection as
# sanitize and truncate_to_peak do.


def prepare_paths(
    paths: Iterable[PathRecord],
    clique: frozenset[int],
    reserved: frozenset[int],
) -> tuple[list[PathRecord], list[PathRejection]]:
    """Sanitize a corpus, preserving a stable (monitor, prefix) order."""
    by_monitor: dict[str, list[PathRecord]] = {}
    rejections: list[PathRejection] = []
    route_of = functools.cache(functools.partial(sanitize_route, clique=clique, reserved=reserved))
    for path in paths:
        route = route_of(path.monitor.host_asn, path.hops)
        if isinstance(route, RouteRejection):
            rejections.append(_rejection(path, route))
            continue
        if len(route) != len(path.hops):
            path = PathRecord(path.monitor, path.prefix, route)
        by_monitor.setdefault(path.monitor.id, []).append(path)
    # one sort per monitor: a corpus listed prefix by prefix is then sorted already
    accepted: list[PathRecord] = []
    for monitor_id in sorted(by_monitor):
        accepted += sorted(by_monitor[monitor_id], key=attrgetter("prefix"))
    return accepted, rejections


def retain_for_country(
    sanitized: Iterable[PathRecord],
    dest_country: str,
    geo: GeoTable,
    rels: RelationshipTable,
) -> tuple[list[RetainedPath], list[PathRejection]]:
    """Peak truncation of the inbound paths toward one country: those seen
    from outside it, toward prefixes with address mass in it."""
    retained: list[RetainedPath] = []
    rejections: list[PathRejection] = []
    segment_of = functools.cache(functools.partial(peak_segment, rels=rels))
    masses = geo.mass
    for path in sanitized:
        monitor = path.monitor
        if monitor.country == dest_country or not masses.get((path.prefix, dest_country)):
            continue
        segment = segment_of(monitor.host_asn, path.hops)
        if isinstance(segment, RouteRejection):
            rejections.append(_rejection(path, segment))
        else:
            retained.append(RetainedPath(monitor, path.prefix, segment))
    return retained, rejections
