"""Path hygiene and the provider-customer topological-peak filter.

Raw paths are sanitized (prepending collapsed, loops / unallocated ASes /
poisoned paths rejected), filtered to inbound-eligible monitors, and
truncated at the topological peak: the farthest provider-to-customer link
when scanning from the origin outward. Everything above the peak, including
peers of the peak provider, is discarded.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, filterfalse
from operator import contains, or_
from typing import Iterator, NamedTuple, Sequence

from .geo import GeoTable
from .ingest import FILE_NAMES
from .model import Corpus, Prefix, Rejection, RelationshipTable, Route, RouteTails
from .model import collapse_prepending, intern

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
    start = 1 if hops and hops[0] == host_asn else 0
    if len(hops) - start < 2:
        return RouteRejection(NO_PEAK, "no transit AS on path")
    p2c = rels.p2c_links()
    # the link farthest from the origin is the first one from the monitor
    for i in range(start, len(hops) - 1):
        if (hops[i], hops[i + 1]) in p2c:
            return hops[i:][::-1]
    return RouteRejection(NO_PEAK, "no provider-customer link")


# A monitor reaches every prefix of an origin over one route: its host AS
# followed by the route its neighbour chose. So a corpus repeats each route
# across prefixes, and each tail (the hops after the first) across monitors.
# A row's host AS changes its route's verdicts only as a Loop when it follows
# the first hop of a route that is not rejected anyway, and as the hop that
# peak truncation strips when it leads. Routes and tails are therefore judged
# for NO_HOST, which no route holds, and each row's host AS is tested apart.
NO_HOST = -1


@dataclass
class Retained:
    """The retained paths toward one country as int columns. Row i is the
    path of host AS ``hosts[h]`` toward ``prefixes[prefix_ix[i]]``, cut at its
    topological peak to the origin-first segment ``segments[s]``, where
    ``group[i] = s * len(hosts) + h``. ``outside_monitors[h]`` counts host
    AS ``hosts[h]``'s monitors outside the country, an upper bound on the
    rows it has toward one prefix. ``len()`` counts the rows, and iterating
    gives them as (host AS, segment, prefix) tuples."""

    prefixes: Sequence[Prefix]
    hosts: Sequence[int]
    segments: Sequence[Route]
    group: array  # array("Q"): a product of two indexes
    prefix_ix: array  # array("I")
    outside_monitors: Sequence[int]

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
    rejection per other row, both in input order. A collapsed route takes its
    raw route's place, and the tails are always carried. The result shares
    the monitor and prefix tables, the route and tail tables when no route
    collapsed, and each column that no rejection changed."""
    routes, route_col, monitor_col = corpus.routes, corpus.route_ix, corpus.monitor_ix
    table, tail_of = corpus.tails
    # A route is judged as its tail is, with the lead AS in front, unless the
    # lead is reserved, reappears in the tail, or is a clique AS that wedges
    # the tail's first hop, a non-clique AS, between itself and a later clique
    # AS. Those routes, the misses, are judged whole. Only a miss or a route
    # whose tail did not stay as it is can change.
    tail_verdicts = [sanitize_route(NO_HOST, tail, clique, reserved) for tail in table]
    # From the first collapse on, sanitized.routes is a copy of the raw routes
    # with each collapsed route in its raw route's place, and sanitized.tails
    # a copy of the raw tails with each kept tail's verdict in its place (a
    # rejected tail's routes lose their rows). A miss that collapses appends
    # its own tail, which its lead AS can change: 3 3 5 6 over the tail 3 5 6.
    sanitized = Corpus(corpus.monitors, corpus.prefixes, routes, tails=corpus.tails)
    rejected: dict[int, RouteRejection] = {}  # route index -> why its rows go
    for route_ix, (route, tail_ix) in enumerate(zip(routes, tail_of)):
        lead, tail, verdict = route[0], table[tail_ix], tail_verdicts[tail_ix]
        if verdict is tail and lead not in clique and lead not in reserved and lead not in tail:
            continue  # kept as it is, as its tail is
        miss = lead in reserved or lead in tail or (
            lead in clique and not clique.isdisjoint(tail) and tail[0] not in clique
        )
        if miss:
            verdict = sanitize_route(NO_HOST, route, clique, reserved)
        elif verdict is tail:
            continue
        elif not isinstance(verdict, RouteRejection):
            verdict = (lead, *verdict)
        if isinstance(verdict, RouteRejection):
            rejected[route_ix] = verdict
        elif verdict is not route:
            if sanitized.routes is routes:  # the first collapse
                verdicts = zip(tail_verdicts, table)
                kept_tails = [raw if isinstance(v, RouteRejection) else v for v, raw in verdicts]
                sanitized.routes = list(routes)
                sanitized.tails = RouteTails(kept_tails, list(tail_of))
            sanitized.routes[route_ix] = verdict
            if miss:
                sanitized.tails.ix[route_ix] = len(sanitized.tails.table)
                sanitized.tails.table.append(verdict[1:])
    # a row is rejected with its route, or for its host AS after the first hop
    host_asns = [monitor.host_asn for monitor in corpus.monitors]
    route_tails = list(map(sanitized.tails.table.__getitem__, sanitized.tails.ix))
    row_tails = map(route_tails.__getitem__, route_col)
    flags = map(contains, row_tails, map(host_asns.__getitem__, monitor_col))
    if rejected:
        flags = map(or_, flags, map(rejected.__contains__, route_col))
    rejected_rows = list(compress(range(len(corpus)), flags))
    rejections: list[Rejection] = []
    columns = (monitor_col, corpus.prefix_ix, route_col)
    line_col = corpus.line_no
    if rejected_rows:
        file = FILE_NAMES["paths"]
        for row in rejected_rows:
            host_asn = host_asns[monitor_col[row]]
            reason = f"monitor host ASN {host_asn} after the first hop"
            verdict = rejected.get(route_col[row]) or RouteRejection(LOOP, reason)
            rejections.append(Rejection(file, line_col[row], *verdict))
        kept_rows = list(filterfalse(set(rejected_rows).__contains__, range(len(corpus))))
        columns = tuple(list(map(column.__getitem__, kept_rows)) for column in columns)
        # a 4-byte line number per kept row, as the parser keeps them
        line_col = array("I", map(line_col.__getitem__, kept_rows))
    sanitized.monitor_ix, sanitized.prefix_ix, sanitized.route_ix = columns
    sanitized.line_no = line_col
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
    routes, (table, tail_of) = sanitized.routes, sanitized.tails
    outside = [monitor.country != dest_country for monitor in sanitized.monitors]
    has_mass = [bool(geo.mass.get((prefix, dest_country))) for prefix in sanitized.prefixes]
    host_index: dict[int, int] = {}
    hosts: list[int] = []
    host_of = [intern(monitor.host_asn, host_index, hosts) for monitor in sanitized.monitors]
    n_hosts = len(hosts)
    outside_monitors = [0] * n_hosts
    for host_ix, is_outside in zip(host_of, outside):
        outside_monitors[host_ix] += is_outside
    # A verdict is coded segment index * n_hosts, or ~k for the k-th distinct
    # rejection, once per judge key (a tail index k, or a route index r as
    # ~r) and, on a key's first sight, once per distinct hops value: after a
    # collapse the tails table can hold one value at several indexes.
    segments: list[Route] = []
    segment_index: dict[Route, int] = {}
    rejected: list[RouteRejection] = []
    code_of_key: dict[int, int] = {}
    code_of_hops: dict[Route, int] = {}
    # array columns, so that no row keeps an int object of its own
    groups = array("Q")
    prefix_ixs = array("I")
    rejections: list[Rejection] = []
    file = FILE_NAMES["paths"]
    rows = zip(sanitized.monitor_ix, sanitized.prefix_ix, sanitized.route_ix, sanitized.line_no)
    for monitor_ix, prefix_ix, route_ix, line in rows:
        if not (outside[monitor_ix] and has_mass[prefix_ix]):
            continue
        host_ix = host_of[monitor_ix]
        # a row led by its own host AS takes its tail's segment, any other row its route's
        key = tail_of[route_ix] if routes[route_ix][0] == hosts[host_ix] else ~route_ix
        code = code_of_key.get(key)
        if code is None:
            hops = table[key] if key >= 0 else routes[route_ix]
            code = code_of_hops.get(hops)
            if code is None:
                verdict = peak_segment(NO_HOST, hops, rels)
                if isinstance(verdict, RouteRejection):
                    code = ~len(rejected)
                    rejected.append(verdict)
                else:
                    code = intern(verdict, segment_index, segments) * n_hosts
                code_of_hops[hops] = code
            code_of_key[key] = code
        if code < 0:
            rejections.append(Rejection(file, line, *rejected[~code]))
        else:
            groups.append(code + host_ix)
            prefix_ixs.append(prefix_ix)
    retained = Retained(sanitized.prefixes, hosts, segments, groups, prefix_ixs, outside_monitors)
    return retained, rejections
