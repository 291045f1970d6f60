"""Path hygiene and the provider-customer topological-peak filter.

Raw paths are sanitized (prepending collapsed, loops / unallocated ASes /
poisoned paths rejected), filtered to inbound-eligible monitors, and
truncated at the topological peak: the farthest provider-to-customer link
when scanning from the origin outward. Everything above the peak, including
peers of the peak provider, is discarded. ``retain_for_country`` is the one
place that applies the inbound rules (a monitor outside the country, a
prefix with mass in it), and it and ``prepare_paths`` the only places that
read a row's host AS.

Both stages read a ``Corpus`` by its columns, with no record per row and no
table of routes: sanitizing judges each distinct tail once, picks out in C
the rows whose lead AS or host AS that verdict cannot speak for, and judges
each of their routes once; retention judges each tail, or each route that
its host AS does not lead, once per distinct hops value.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, filterfalse
from operator import contains, or_
from typing import Iterator, NamedTuple, Sequence

from .geo import GeoTable
from .ingest import FILE_NAMES
from .model import Corpus, Prefix, Rejection, RelationshipTable, Route
from .model import collapse_prepending, intern

# The categories of a path's Rejection
LOOP, UNALLOCATED, POISONED, NO_PEAK = "Loop", "Unallocated", "Poisoned", "NoPeak"


class RouteRejection(NamedTuple):
    """Why a route is rejected, whichever monitor and prefix it was seen for:
    the ``category`` and ``detail`` of the ``Rejection`` of each of its rows."""

    category: str
    reason: str


def sanitize_route(
    hops: Route,
    clique: frozenset[int],
    reserved: frozenset[int],
) -> Route | RouteRejection:
    """Collapse prepending, then reject reserved ASes, loops and poisoned paths.

    Returns the collapsed hops: ``hops`` itself when nothing collapsed, so a
    route kept its hops exactly when its length did not change.
    """
    if not reserved.isdisjoint(hops):
        asn = next(asn for asn in hops if asn in reserved)
        return RouteRejection(UNALLOCATED, f"reserved ASN {asn}")
    collapsed = collapse_prepending(hops)
    if collapsed is not hops and len(set(collapsed)) != len(collapsed):
        return RouteRejection(LOOP, "ASN repeats non-consecutively")
    # from here on no AS repeats, so one clique AS cannot wedge anything
    if len(clique.intersection(collapsed)) > 1:
        clique_positions = [i for i, asn in enumerate(collapsed) if asn in clique]
        for i in range(clique_positions[0] + 1, clique_positions[-1]):
            if collapsed[i] not in clique:
                reason = f"non-clique ASN {collapsed[i]} between clique ASes"
                return RouteRejection(POISONED, reason)
    return collapsed


def peak_segment(hops: Route, rels: RelationshipTable) -> Route | RouteRejection:
    """The origin-first segment capped by the topological peak.

    The peak is the largest index k (origin = index 0) such that segment[k]
    is an inferred provider of segment[k-1]; routes with no such link are
    rejected.
    """
    if len(hops) < 2:
        return RouteRejection(NO_PEAK, "no transit AS on path")
    p2c = rels.p2c_links
    # the link farthest from the origin is the first one from the monitor
    for i in range(len(hops) - 1):
        if (hops[i], hops[i + 1]) in p2c:
            return hops[i:][::-1]
    return RouteRejection(NO_PEAK, "no provider-customer link")


# A monitor reaches every prefix of an origin over one route: its host AS
# followed by the route its neighbour chose. So a corpus repeats each route
# across prefixes, and each tail (the hops after the first) across monitors.
# A row's host AS changes its route's verdicts only as a Loop when it follows
# the first hop of a route that is not rejected anyway, and as the hop that
# peak truncation strips when it leads. The route judges above therefore take
# no host AS: ``prepare_paths`` tests each row's host AS apart for the Loop,
# and ``retain_for_country`` judges a row its host AS leads by its tail.


@dataclass
class Retained:
    """The retained paths toward one country as int columns. Row i is the
    path of host AS ``hosts[h]`` toward ``prefixes[prefix_ix[i]]``, cut at its
    topological peak to the origin-first segment ``segments[s]``, where
    ``group[i] = s * len(hosts) + h``. ``hosts`` holds the host AS of every
    monitor in the corpus, and ``outside_monitors[h]`` counts host AS
    ``hosts[h]``'s monitors outside the country, blind ones included: the
    kernel's |M_h|, summing to its |M|, and an upper bound on the rows the
    host AS has toward one prefix. ``len()`` counts the rows, and iterating
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
    rejection per other row, both in input order. A collapsed tail takes its
    raw tail's place. The result shares the monitor and prefix tables, the
    tail table when no route collapsed, and each column that no rejection
    changed."""
    tails, lead_col, tail_col = corpus.tails, corpus.lead, corpus.tail_ix
    monitor_col = corpus.monitor_ix
    host_asns = [monitor.host_asn for monitor in corpus.monitors]
    # A route is judged as its tail is, with the lead AS in front, unless the
    # lead is reserved, reappears in the tail, or is a clique AS that wedges
    # the tail's first hop, a non-clique AS, between itself and a later clique
    # AS. Those routes, the misses, are judged whole, once per (lead, tail).
    tail_verdicts = [sanitize_route(tail, clique, reserved) for tail in tails]
    # From the first collapse on, kept_tails is a copy of the raw tails with
    # each kept tail's verdict in its place (a rejected tail's routes lose
    # their rows). A miss that collapses appends its own tail, which its lead
    # AS can change: 3 3 5 6 over the tail 3 5 6.
    verdicts = list(zip(tail_verdicts, tails))
    kept_tails = tails
    if any(v is not tail and not isinstance(v, RouteRejection) for v, tail in verdicts):
        kept_tails = [tail if isinstance(v, RouteRejection) else v for v, tail in verdicts]
    # The lead ASes under which a tail's verdict does not hold: a route
    # whose lead is one of them, a miss, is judged whole. They are the
    # tail's ASes (a row its host AS leads is a Loop, or collapses, exactly
    # when its lead reappears), the reserved ASes, and the clique when the
    # tail's first hop could be wedged. Most tails need only themselves.
    reserved_asns, clique_asns = tuple(reserved), tuple(clique)

    def miss_leads_of(tail: Route) -> Route:
        if tail and tail[0] not in clique and not clique.isdisjoint(tail):
            return tail + reserved_asns + clique_asns
        return tail + reserved_asns if reserved_asns else tail

    miss_leads = list(map(miss_leads_of, tails))
    # The rows that may change, picked out in C: the misses, the rows of a
    # rejected tail, and a row whose host AS follows the first hop. That
    # host AS is in a row's tail when its host leads the row only if the
    # row is a miss, so it is tested apart only for rows led by another AS.
    hosts = array("I", map(host_asns.__getitem__, monitor_col))
    flags = map(contains, map(miss_leads.__getitem__, tail_col), lead_col)
    if hosts != lead_col:
        flags = map(or_, flags, map(contains, map(tails.__getitem__, tail_col), hosts))
    rejected_tails = [isinstance(verdict, RouteRejection) for verdict in tail_verdicts]
    if any(rejected_tails):
        flags = map(or_, flags, map(rejected_tails.__getitem__, tail_col))
    misses: dict[tuple[int, int], RouteRejection | int] = {}  # (lead, tail) -> verdict
    changed: dict[int, RouteRejection | int] = {}  # row -> why it goes, or its moved tail
    for row in compress(range(len(corpus)), flags):
        host, lead, tail_ix = hosts[row], lead_col[row], tail_col[row]
        verdict, kept_ix = tail_verdicts[tail_ix], tail_ix
        if lead in miss_leads[tail_ix]:
            miss = misses.get((lead, tail_ix))
            if miss is None:
                route = (lead, *tails[tail_ix])
                miss = sanitize_route(route, clique, reserved)
                if not isinstance(miss, RouteRejection):
                    if miss is route:
                        miss = tail_ix
                    else:
                        if kept_tails is tails:
                            kept_tails = list(tails)
                        kept_tails.append(miss[1:])
                        miss = len(kept_tails) - 1
                misses[(lead, tail_ix)] = miss
            verdict = kept_ix = miss
        if isinstance(verdict, RouteRejection):
            changed[row] = verdict
        elif host in kept_tails[kept_ix]:  # the host AS after the first hop
            reason = f"monitor host ASN {host} after the first hop"
            changed[row] = RouteRejection(LOOP, reason)
        elif kept_ix != tail_ix:
            changed[row] = kept_ix
    sanitized = Corpus(
        corpus.monitors,
        corpus.prefixes,
        kept_tails,
        monitor_col,
        corpus.prefix_ix,
        lead_col,
        tail_col,
        corpus.line_no,
    )
    rejections: list[Rejection] = []
    moved = [(row, ix) for row, ix in changed.items() if not isinstance(ix, RouteRejection)]
    if moved:
        sanitized.tail_ix = tail_col = array("I", tail_col)
        for row, ix in moved:
            tail_col[row] = ix
    rejected_rows = [row for row, why in changed.items() if isinstance(why, RouteRejection)]
    if rejected_rows:
        file, line_col = FILE_NAMES["paths"], corpus.line_no
        rejections = [Rejection(file, line_col[row], *changed[row]) for row in rejected_rows]
        kept_rows = array("I", filterfalse(set(rejected_rows).__contains__, range(len(corpus))))
        # 4-byte columns, as the parser keeps them
        columns = (monitor_col, corpus.prefix_ix, lead_col, tail_col, line_col)
        kept = [array("I", map(column.__getitem__, kept_rows)) for column in columns]
        sanitized.monitor_ix, sanitized.prefix_ix, sanitized.lead, sanitized.tail_ix = kept[:4]
        sanitized.line_no = kept[4]
    return sanitized, rejections


def retain_for_country(
    sanitized: Corpus,
    dest_country: str,
    geo: GeoTable,
    rels: RelationshipTable,
) -> tuple[Retained, list[Rejection]]:
    """Peak truncation of the inbound paths toward one country: those seen
    from outside it, toward prefixes with address mass in it. No other row
    is kept or rejected, so the kernel counts every row it is given. Rows
    and rejections keep the order of ``sanitized``."""
    tails = sanitized.tails
    outside = [monitor.country != dest_country for monitor in sanitized.monitors]
    has_mass = [bool(geo.mass.get((prefix, dest_country))) for prefix in sanitized.prefixes]
    host_index: dict[int, int] = {}
    hosts: list[int] = []
    host_of = [intern(monitor.host_asn, host_index, hosts) for monitor in sanitized.monitors]
    host_asn_of = [monitor.host_asn for monitor in sanitized.monitors]
    n_hosts = len(hosts)
    outside_monitors = [0] * n_hosts
    for host_ix, is_outside in zip(host_of, outside):
        outside_monitors[host_ix] += is_outside
    # A verdict is coded segment index * n_hosts, or ~k for the k-th distinct
    # rejection, once per judge key (a tail index t, or a route (lead l, tail
    # t) as ~(t << 32 | l)) and, on a key's first sight, once per distinct
    # hops value: after a collapse the tails table can hold one value at
    # several indexes.
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
    columns = (sanitized.monitor_ix, sanitized.prefix_ix, sanitized.lead, sanitized.tail_ix)
    for monitor_ix, prefix_ix, lead, tail_ix, line in zip(*columns, sanitized.line_no):
        if not (outside[monitor_ix] and has_mass[prefix_ix]):
            continue
        # a row led by its own host AS takes its tail's segment, any other row its route's
        key = tail_ix if lead == host_asn_of[monitor_ix] else ~(tail_ix << 32 | lead)
        code = code_of_key.get(key)
        if code is None:
            hops = tails[tail_ix] if key >= 0 else (lead, *tails[tail_ix])
            code = code_of_hops.get(hops)
            if code is None:
                verdict = peak_segment(hops, rels)
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
            groups.append(code + host_of[monitor_ix])
            prefix_ixs.append(prefix_ix)
    retained = Retained(sanitized.prefixes, hosts, segments, groups, prefix_ixs, outside_monitors)
    return retained, rejections
