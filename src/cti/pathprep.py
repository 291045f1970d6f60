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
from typing import Iterable, NamedTuple

from .geo import GeoTable
from .model import Corpus, Prefix, RelationshipTable, Route, intern

# A retained path: (monitor host AS, origin-first segment up to and including
# the topological-peak provider, prefix).
RetainedRow = tuple[int, Route, Prefix]


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
    if hops[0] == host_asn:
        hops = hops[1:]
    if len(hops) < 2:
        return RouteRejection(RejectCategory.NO_PEAK, "no transit AS on path")
    origin_first = hops[::-1]
    for peak in range(len(origin_first) - 1, 0, -1):  # the farthest link first
        if rels.is_p2c(origin_first[peak], origin_first[peak - 1]):
            return origin_first[: peak + 1]
    return RouteRejection(RejectCategory.NO_PEAK, "no provider-customer link")


# A monitor reaches every prefix of an origin over the same route, so a corpus
# repeats each (host AS, route) pair many times: prepare_paths and
# retain_for_country judge each distinct pair once per call, keyed by
# route index << 32 | host AS (an ASN fits in 32 bits).
_HOST_BITS = 32
_HOST_MASK = (1 << _HOST_BITS) - 1


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
    keys = _route_keys(corpus, range(len(corpus)))
    verdict_of: dict[int, int | RouteRejection] = dict.fromkeys(keys)
    for key in verdict_of:
        route_ix = key >> _HOST_BITS
        verdict = sanitize_route(key & _HOST_MASK, routes[route_ix], clique, reserved)
        if verdict is routes[route_ix]:
            verdict = route_ix
        elif not isinstance(verdict, RouteRejection):
            if route_index is None:
                route_index = {route: ix for ix, route in enumerate(sanitized.routes)}
            verdict = intern(verdict, route_index, sanitized.routes)
        verdict_of[key] = verdict
    verdicts = list(map(verdict_of.__getitem__, keys))
    rejections = [
        _rejection(corpus, monitor_col[row], prefix_col[row], verdict)
        for row, verdict in enumerate(verdicts)
        if isinstance(verdict, RouteRejection)
    ]
    monitor_rank = _ranks([monitor.id for monitor in monitors])
    prefix_rank = _ranks(prefixes)
    n_prefixes = len(prefixes)
    order = [monitor_rank[m] * n_prefixes + prefix_rank[p] for m, p in zip(monitor_col, prefix_col)]
    kept = [row for row, verdict in enumerate(verdicts) if isinstance(verdict, int)]
    kept.sort(key=order.__getitem__)
    sanitized.monitor_ix = list(map(monitor_col.__getitem__, kept))
    sanitized.prefix_ix = list(map(prefix_col.__getitem__, kept))
    sanitized.route_ix = list(map(verdicts.__getitem__, kept))
    return sanitized, rejections


def _route_keys(corpus: Corpus, rows: Iterable[int]) -> list[int]:
    """The (route, host AS) key of each row."""
    host_of = [monitor.host_asn for monitor in corpus.monitors]
    monitor_col, route_col = corpus.monitor_ix, corpus.route_ix
    return [route_col[row] << _HOST_BITS | host_of[monitor_col[row]] for row in rows]


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
) -> tuple[list[RetainedRow], list[PathRejection]]:
    """Peak truncation of the inbound paths toward one country: those seen
    from outside it, toward prefixes with address mass in it."""
    prefixes, routes = sanitized.prefixes, sanitized.routes
    monitor_col, prefix_col = sanitized.monitor_ix, sanitized.prefix_ix
    outside = [monitor.country != dest_country for monitor in sanitized.monitors]
    has_mass = [bool(geo.mass.get((prefix, dest_country))) for prefix in prefixes]
    rows = [
        row
        for row, (monitor_ix, prefix_ix) in enumerate(zip(monitor_col, prefix_col))
        if outside[monitor_ix] and has_mass[prefix_ix]
    ]
    keys = _route_keys(sanitized, rows)
    segment_of: dict[int, Route | RouteRejection] = dict.fromkeys(keys)
    for key in segment_of:
        segment_of[key] = peak_segment(key & _HOST_MASK, routes[key >> _HOST_BITS], rels)
    retained: list[RetainedRow] = []
    rejections: list[PathRejection] = []
    for row, key in zip(rows, keys):
        segment = segment_of[key]
        if isinstance(segment, RouteRejection):
            rejections.append(_rejection(sanitized, monitor_col[row], prefix_col[row], segment))
        else:
            retained.append((key & _HOST_MASK, segment, prefixes[prefix_col[row]]))
    return retained, rejections
