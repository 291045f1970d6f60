"""Path hygiene and the provider-customer topological-peak filter.

Raw paths are sanitized (prepending collapsed, loops / unallocated ASes /
poisoned paths rejected), filtered to inbound-eligible monitors, and
truncated at the topological peak: the farthest provider-to-customer link
when scanning from the origin outward. Everything above the peak, including
peers of the peak provider, is discarded.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Sequence

from .geo import GeoTable
from .model import Corpus, MonitorId, Prefix, RelationshipTable, Route, intern


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
    # from here on no AS repeats, so one clique AS cannot wedge anything and
    # the host AS after the first hop is the host AS anywhere but first
    if len(clique.intersection(collapsed)) > 1:
        clique_positions = [i for i, asn in enumerate(collapsed) if asn in clique]
        for i in range(clique_positions[0] + 1, clique_positions[-1]):
            if collapsed[i] not in clique:
                return RouteRejection(
                    RejectCategory.POISONED, f"non-clique ASN {collapsed[i]} between clique ASes"
                )
    if host_asn in collapsed and collapsed[0] != host_asn:
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
    start = 1 if hops[0] == host_asn else 0
    if len(hops) - start < 2:
        return RouteRejection(RejectCategory.NO_PEAK, "no transit AS on path")
    p2c = rels.p2c_links()
    # the link farthest from the origin is the first one from the monitor
    for i in range(start, len(hops) - 1):
        if (hops[i], hops[i + 1]) in p2c:
            return hops[i:][::-1]
    return RouteRejection(RejectCategory.NO_PEAK, "no provider-customer link")


# A monitor reaches every prefix of an origin over the same route, so a corpus
# repeats each (host AS, route) pair many times: prepare_paths and
# retain_for_country judge each distinct pair once per call, to a route or
# segment index, or to ~k for the k-th distinct rejection, and map each row's
# key through that table. Keys pack an index with the index of a host AS,
# index * (number of host ASes) + host index: small ints hash and divide
# fastest.


def _host_index(monitors: Sequence[MonitorId]) -> tuple[list[int], list[int]]:
    """The distinct host ASes of ``monitors``, and each monitor's index
    among them."""
    index: dict[int, int] = {}
    hosts: list[int] = []
    return hosts, [intern(monitor.host_asn, index, hosts) for monitor in monitors]


@dataclass
class Retained:
    """The retained paths toward one country as int columns. Row i is the
    path of host AS ``hosts[h]`` toward ``prefixes[prefix_ix[i]]``, cut at its
    topological peak to the origin-first segment ``segments[s]``, where
    ``group[i] = s * len(hosts) + h``. ``len()`` counts the rows, and
    iterating gives them as (host AS, segment, prefix) tuples."""

    prefixes: Sequence[Prefix]
    hosts: Sequence[int]
    segments: Sequence[Route]
    group: list[int]
    prefix_ix: list[int]

    def __len__(self) -> int:
        return len(self.group)

    def __iter__(self) -> Iterator[tuple[int, Route, Prefix]]:
        n_hosts = len(self.hosts)
        for group, prefix_ix in zip(self.group, self.prefix_ix):
            segment_ix, host_ix = divmod(group, n_hosts)
            yield self.hosts[host_ix], self.segments[segment_ix], self.prefixes[prefix_ix]


def prepare_paths(
    corpus: Corpus,
    clique: frozenset[int],
    reserved: frozenset[int],
) -> tuple[Corpus, list[PathRejection]]:
    """Sanitize a corpus: the kept rows with their collapsed routes, in
    (monitor id, prefix) order, and one rejection per other row, in input
    order. The result shares the monitor and prefix tables."""
    monitors, prefixes, routes = corpus.monitors, corpus.prefixes, corpus.routes
    monitor_col, prefix_col = corpus.monitor_ix, corpus.prefix_ix
    # the kept routes: the raw ones, then each collapsed one not among them
    sanitized = Corpus(monitors=monitors, prefixes=prefixes, routes=list(routes))
    route_index: dict[Route, int] | None = None  # built at the first collapse
    rejected: list[RouteRejection] = []
    hosts, host_of = _host_index(monitors)
    n_hosts = len(hosts)
    keys = [route_ix * n_hosts + host_of[m] for m, route_ix in zip(monitor_col, corpus.route_ix)]
    route_of: dict[int, int] = dict.fromkeys(keys)
    for key in route_of:
        route_ix, host_ix = divmod(key, n_hosts)
        verdict = sanitize_route(hosts[host_ix], routes[route_ix], clique, reserved)
        if isinstance(verdict, RouteRejection):
            rejected.append(verdict)
            route_ix = ~(len(rejected) - 1)
        elif verdict is not routes[route_ix]:
            if route_index is None:
                route_index = {route: ix for ix, route in enumerate(sanitized.routes)}
            route_ix = intern(verdict, route_index, sanitized.routes)
        route_of[key] = route_ix
    route_col = list(map(route_of.__getitem__, keys))
    rows: Sequence[int] = range(len(route_col))
    rejections: list[PathRejection] = []
    if rejected:  # drop the rows of the rejected keys
        rejections = [
            _rejection(corpus, monitor_col[row], prefix_col[row], rejected[~route_ix])
            for row, route_ix in enumerate(route_col)
            if route_ix < 0
        ]
        rows = [row for row, route_ix in enumerate(route_col) if route_ix >= 0]
    monitor_rank = _ranks([monitor.id for monitor in monitors])
    prefix_rank = _ranks(prefixes)
    n_prefixes = len(prefixes)
    order = [monitor_rank[m] * n_prefixes + prefix_rank[p] for m, p in zip(monitor_col, prefix_col)]
    kept = sorted(rows, key=order.__getitem__)
    sanitized.monitor_ix = list(map(monitor_col.__getitem__, kept))
    sanitized.prefix_ix = list(map(prefix_col.__getitem__, kept))
    sanitized.route_ix = list(map(route_col.__getitem__, kept))
    return sanitized, rejections


def _ranks(values: list) -> list[int]:
    """Each value's position among the sorted values."""
    ranks = [0] * len(values)
    for rank, ix in enumerate(sorted(range(len(values)), key=values.__getitem__)):
        ranks[ix] = rank
    return ranks


def _rejection(
    corpus: Corpus, monitor_ix: int, prefix_ix: int, verdict: RouteRejection
) -> PathRejection:
    monitor_id = corpus.monitors[monitor_ix].id
    return PathRejection(verdict.category, monitor_id, corpus.prefixes[prefix_ix], verdict.reason)


def retain_for_country(
    sanitized: Corpus,
    dest_country: str,
    geo: GeoTable,
    rels: RelationshipTable,
) -> tuple[Retained, list[PathRejection]]:
    """Peak truncation of the inbound paths toward one country: those seen
    from outside it, toward prefixes with address mass in it."""
    routes, monitor_col, prefix_col = sanitized.routes, sanitized.monitor_ix, sanitized.prefix_ix
    outside = [monitor.country != dest_country for monitor in sanitized.monitors]
    has_mass = [bool(geo.mass.get((prefix, dest_country))) for prefix in sanitized.prefixes]
    rows = [
        row
        for row, (monitor_ix, prefix_ix) in enumerate(zip(monitor_col, prefix_col))
        if outside[monitor_ix] and has_mass[prefix_ix]
    ]
    hosts, host_of = _host_index(sanitized.monitors)
    n_hosts = len(hosts)
    route_col = sanitized.route_ix
    keys = [route_col[row] * n_hosts + host_of[monitor_col[row]] for row in rows]
    segments: list[Route] = []
    segment_index: dict[Route, int] = {}
    rejected: list[RouteRejection] = []
    group_of: dict[int, int] = dict.fromkeys(keys)
    for key in group_of:
        route_ix, host_ix = divmod(key, n_hosts)
        segment = peak_segment(hosts[host_ix], routes[route_ix], rels)
        if isinstance(segment, RouteRejection):
            rejected.append(segment)
            group_of[key] = ~(len(rejected) - 1)
        else:
            group_of[key] = intern(segment, segment_index, segments) * n_hosts + host_ix
    groups = list(map(group_of.__getitem__, keys))
    rejections: list[PathRejection] = []
    if rejected:  # drop the rows of the rejected keys
        rejections = [
            _rejection(sanitized, monitor_col[row], prefix_col[row], rejected[~group])
            for row, group in zip(rows, groups)
            if group < 0
        ]
        rows = [row for row, group in zip(rows, groups) if group >= 0]
        groups = [group for group in groups if group >= 0]
    prefix_ixs = list(map(prefix_col.__getitem__, rows))
    return Retained(sanitized.prefixes, hosts, segments, groups, prefix_ixs), rejections
