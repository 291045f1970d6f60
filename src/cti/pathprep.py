"""Path hygiene and the provider-customer topological-peak filter.

Raw paths are sanitized (prepending collapsed, loops / unallocated ASes /
poisoned paths rejected), filtered to inbound-eligible monitors, and
truncated at the topological peak: the farthest provider-to-customer link
when scanning from the origin outward. Everything above the peak, including
peers of the peak provider, is discarded.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

from .geo import GeoTable
from .ingest import FILE_NAMES
from .model import Corpus, Prefix, Rejection, RelationshipTable, Route, collapse_prepending, intern

# The categories of a path's Rejection
LOOP, UNALLOCATED, POISONED, NO_PEAK = "Loop", "Unallocated", "Poisoned", "NoPeak"


class RouteRejection(NamedTuple):
    """Why a route is rejected, whichever monitor and prefix it was seen for:
    the ``category`` and ``detail`` of the ``Rejection`` of each of its rows."""

    category: str
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
        return RouteRejection(UNALLOCATED, f"reserved ASN {asn}")
    collapsed = collapse_prepending(hops)
    if collapsed is not hops and len(set(collapsed)) != len(collapsed):
        return RouteRejection(LOOP, "ASN repeats non-consecutively")
    # from here on no AS repeats, so one clique AS cannot wedge anything and
    # the host AS after the first hop is the host AS anywhere but first
    if len(clique.intersection(collapsed)) > 1:
        clique_positions = [i for i, asn in enumerate(collapsed) if asn in clique]
        for i in range(clique_positions[0] + 1, clique_positions[-1]):
            if collapsed[i] not in clique:
                reason = f"non-clique ASN {collapsed[i]} between clique ASes"
                return RouteRejection(POISONED, reason)
    if host_asn in collapsed and collapsed[0] != host_asn:
        return RouteRejection(LOOP, f"monitor host ASN {host_asn} after the first hop")
    return collapsed


def peak_segment(host_asn: int, hops: Route, rels: RelationshipTable) -> Route | RouteRejection:
    """The origin-first segment capped by the topological peak.

    The monitor host AS is removed when it is the monitor-nearest hop. The
    peak is the largest index k (origin = index 0) such that segment[k] is an
    inferred provider of segment[k-1]; routes with no such link are rejected.
    """
    start = 1 if hops[0] == host_asn else 0
    if len(hops) - start < 2:
        return RouteRejection(NO_PEAK, "no transit AS on path")
    p2c = rels.p2c_links()
    # the link farthest from the origin is the first one from the monitor
    for i in range(start, len(hops) - 1):
        if (hops[i], hops[i + 1]) in p2c:
            return hops[i:][::-1]
    return RouteRejection(NO_PEAK, "no provider-customer link")


# A monitor reaches every prefix of an origin over the same route, so a corpus
# repeats each (route, host AS) key many times. prepare_paths and
# retain_for_country both judge each distinct key once in _judge_keys, the
# place for a memo of verdicts kept across calls. Keys pack route index *
# (number of host ASes) + host index: small ints hash and divide fastest.


def _judge_keys(
    corpus: Corpus, rows: Sequence[int], judge: Callable[[int, int], int | RouteRejection]
) -> tuple[list[int], list[int], Sequence[int], list[Rejection]]:
    """Judge the rows ``rows`` of ``corpus`` by their (route, host AS) keys:
    ``judge(host AS, route index)`` gives an index or a ``RouteRejection``
    once per distinct key.

    Returns the distinct host ASes; for each kept row its index packed like
    its key, index * len(hosts) + host index; the kept rows (``rows`` itself
    when none is rejected); and a ``Rejection`` on each rejected row's line.
    Rows keep their order.
    """
    host_index: dict[int, int] = {}
    hosts: list[int] = []
    host_of = [intern(monitor.host_asn, host_index, hosts) for monitor in corpus.monitors]
    n_hosts = len(hosts)
    monitor_col, route_col = corpus.monitor_ix, corpus.route_ix
    keys = [route_col[row] * n_hosts + host_of[monitor_col[row]] for row in rows]
    rejected: list[RouteRejection] = []  # the k-th distinct one is coded ~k
    verdict_of: dict[int, int] = dict.fromkeys(keys)
    for key in verdict_of:
        route_ix, host_ix = divmod(key, n_hosts)
        verdict = judge(hosts[host_ix], route_ix)
        if isinstance(verdict, RouteRejection):
            rejected.append(verdict)
            verdict_of[key] = ~(len(rejected) - 1)
        else:
            verdict_of[key] = verdict * n_hosts + host_ix
    verdicts = list(map(verdict_of.__getitem__, keys))
    rejections: list[Rejection] = []
    if rejected:  # split off the rows of the rejected keys
        file, line_col = FILE_NAMES["paths"], corpus.line_no
        for row, verdict in zip(rows, verdicts):
            if verdict < 0:
                rejections.append(Rejection(file, line_col[row], *rejected[~verdict]))
        rows = [row for row, verdict in zip(rows, verdicts) if verdict >= 0]
        verdicts = [verdict for verdict in verdicts if verdict >= 0]
    return hosts, verdicts, rows, rejections


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
) -> tuple[Corpus, list[Rejection]]:
    """Sanitize a corpus: the kept rows with their collapsed routes, and one
    rejection per other row, both in input order. The result shares the
    monitor and prefix tables, the route table when no route collapsed, and
    each column that no collapse or rejection changed."""
    routes = corpus.routes
    sanitized = Corpus(monitors=corpus.monitors, prefixes=corpus.prefixes, routes=routes)
    # From the first collapse on, sanitized.routes is a copy of the raw routes
    # followed by each collapsed route not among them, indexed by route_index.
    route_index: dict[Route, int] | None = None

    def sanitized_route(host_asn: int, route_ix: int) -> int | RouteRejection:
        nonlocal route_index
        verdict = sanitize_route(host_asn, routes[route_ix], clique, reserved)
        if isinstance(verdict, RouteRejection):
            return verdict
        if verdict is routes[route_ix]:
            return route_ix
        if route_index is None:
            sanitized.routes = list(routes)
            route_index = {route: ix for ix, route in enumerate(routes)}
        return intern(verdict, route_index, sanitized.routes)

    hosts, verdicts, kept, rejections = _judge_keys(corpus, range(len(corpus)), sanitized_route)
    columns = (corpus.monitor_ix, corpus.prefix_ix, corpus.route_ix, corpus.line_no)
    if rejections:
        columns = tuple(list(map(column.__getitem__, kept)) for column in columns)
    sanitized.monitor_ix, sanitized.prefix_ix, sanitized.route_ix, sanitized.line_no = columns
    if route_index is not None:
        n_hosts = len(hosts)
        sanitized.route_ix = [verdict // n_hosts for verdict in verdicts]
    return sanitized, rejections


def retain_for_country(
    sanitized: Corpus,
    dest_country: str,
    geo: GeoTable,
    rels: RelationshipTable,
) -> tuple[Retained, list[Rejection]]:
    """Peak truncation of the inbound paths toward one country: those seen
    from outside it, toward prefixes with address mass in it. Rows and
    rejections keep the order of ``sanitized``."""
    routes, prefix_col = sanitized.routes, sanitized.prefix_ix
    outside = [monitor.country != dest_country for monitor in sanitized.monitors]
    has_mass = [bool(geo.mass.get((prefix, dest_country))) for prefix in sanitized.prefixes]
    rows = [
        row
        for row, (monitor_ix, prefix_ix) in enumerate(zip(sanitized.monitor_ix, prefix_col))
        if outside[monitor_ix] and has_mass[prefix_ix]
    ]
    segments: list[Route] = []
    segment_index: dict[Route, int] = {}

    def segment(host_asn: int, route_ix: int) -> int | RouteRejection:
        verdict = peak_segment(host_asn, routes[route_ix], rels)
        is_segment = not isinstance(verdict, RouteRejection)
        return intern(verdict, segment_index, segments) if is_segment else verdict

    hosts, groups, kept, rejections = _judge_keys(sanitized, rows, segment)
    prefix_ixs = list(map(prefix_col.__getitem__, kept))
    return Retained(sanitized.prefixes, hosts, segments, groups, prefix_ixs), rejections
