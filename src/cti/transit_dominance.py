"""Candidate peering tests, border-crossing inference, and the country-level
transit fraction.

Traceroute-derived AS-level paths arrive pre-resolved (interface-to-AS
mapping is upstream), and are kept as the number of traces per collapsed
route: the transit fraction reads nothing else of a trace. The national
border on a route is the link between the last foreign AS and its
successor; the transit fraction weighs, per origin AS, the share of its
traceroutes whose border crossing is a foreign-provider p2c link by the
origin's share of the country's address space.
"""
from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .geo import GeoTable, Nationality
from .ingest import (
    EMPTY_PATH,
    FILE_NAMES,
    MALFORMED_ASN,
    REJECT_REASONS,
    RowReader,
    parse_asn_token,
)
from .model import Prefix, Rejection, RelationshipTable, Route, collapse_prepending

DEFAULT_DOMINANCE_THRESHOLD = Fraction(12, 25)  # 0.48
DEFAULT_ORIGINATION_FLOOR = Fraction(1, 2000)  # 0.05% of the country's addresses


def parse_traceroutes(
    reader: Iterable[str],
) -> tuple[Counter[Route], list[Rejection]]:
    """Count the ``probe_id|prefix|asn asn ...`` rows (probe-first hop order)
    of each route, with consecutive duplicate ASNs collapsed.

    A row with an unparsable prefix or a malformed ASN token is rejected
    with a log entry.
    """
    rejections: list[Rejection] = []
    # each distinct prefix text is checked once, and each distinct hop text
    # parsed and collapsed once, to an index into routes or a negative code
    prefix_ok: dict[str, bool] = {}
    route_code: dict[str, int] = {}
    routes: list[Route] = []  # the collapsed route of each distinct hop text
    n_traces: list[int] = []  # rows per distinct hop text
    parse_asn = functools.cache(parse_asn_token)

    def is_prefix(text: str) -> bool:
        try:
            Prefix.parse(text)  # checked only: a bad prefix still rejects the row
        except ValueError:
            return False
        return True

    def judge_hops(text: str) -> int:
        try:
            hops = tuple(map(parse_asn, text.split()))
        except ValueError:
            return MALFORMED_ASN
        if not hops:
            return EMPTY_PATH
        routes.append(collapse_prepending(hops))
        n_traces.append(0)
        return len(routes) - 1

    file = FILE_NAMES["traceroutes"]
    with RowReader("traceroutes", reader, "probe_id|prefix|hops") as rows:
        for line_no, line, (_probe_id, prefix_text, hops_text) in rows:
            ok = prefix_ok.get(prefix_text)
            if ok is None:
                ok = prefix_ok[prefix_text] = is_prefix(prefix_text)
            if not ok:
                rejections.append(Rejection(file, line_no, "unparsable prefix", line))
                continue
            route_ix = route_code.get(hops_text)
            if route_ix is None:
                route_ix = route_code[hops_text] = judge_hops(hops_text)
            if route_ix < 0:
                rejections.append(Rejection(file, line_no, REJECT_REASONS[~route_ix], line))
                continue
            n_traces[route_ix] += 1
    counts: Counter[Route] = Counter()
    for hops, n in zip(routes, n_traces):
        counts[hops] = counts.get(hops, 0) + n
    return counts, rejections


@dataclass(frozen=True)
class CandidateResult:
    asn: int
    candidate: bool
    failed_tests: tuple[str, ...]


TEST_FOREIGN_PEER = "foreign-peer"
TEST_FOREIGN_FACILITY = "foreign-facility"
TEST_FOREIGN_FACILITY_MEMBER = "foreign-facility-member"
TEST_NO_NATIONALITY = "no-domestic-nationality"


def classify_candidate(
    origin: int,
    rels: RelationshipTable,
    memberships: Sequence[tuple[str, str, int]],
    nationality: Nationality,
) -> CandidateResult:
    """An origin AS is a candidate when it has no foreign BGP peers, belongs
    to no foreign-based IXP/colo, and belongs to no facility with any
    foreign member."""
    home = nationality.domestic_country(origin)
    if home is None:
        return CandidateResult(origin, False, (TEST_NO_NATIONALITY,))

    failed: list[str] = []
    for peer in rels.peers_of(origin):
        if nationality.domestic_country(peer) != home:
            failed.append(TEST_FOREIGN_PEER)
            break

    own_facilities = {fac for fac, _country, asn in memberships if asn == origin}
    for facility, country, _asn in memberships:
        if facility in own_facilities and country != home:
            failed.append(TEST_FOREIGN_FACILITY)
            break
    for facility, _country, member in memberships:
        if facility in own_facilities and member != origin:
            if nationality.domestic_country(member) != home:
                failed.append(TEST_FOREIGN_FACILITY_MEMBER)
                break

    return CandidateResult(origin, not failed, tuple(failed))


def find_border(hops: Route, nationality: Nationality, country: str) -> tuple[int, int] | None:
    """The link ``(provider, customer)`` between the last foreign AS
    (scanning from the probe) and its successor; None when every hop is
    domestic or the last hop is foreign. The scan runs from the origin end
    and stops at the first foreign hop."""
    for index in reversed(range(len(hops))):
        if not nationality.is_domestic(hops[index], country):
            return None if index == len(hops) - 1 else (hops[index], hops[index + 1])
    return None


def compute_transit_fraction(
    counts: Mapping[Route, int],
    rels: RelationshipTable,
    nationality: Nationality,
    geo: GeoTable,
    country: str,
) -> Fraction:
    """Address-weighted share of inbound traceroutes whose border crossing is
    a p2c link from a foreign provider to a domestic customer; ``counts``
    gives the number of traces per route."""
    total_addresses = geo.country_total(country)

    reached: dict[int, int] = {}
    crossed: dict[int, int] = {}
    for hops, n in counts.items():
        origin = hops[-1]
        if not nationality.is_domestic(origin, country):
            continue
        reached[origin] = reached.get(origin, 0) + n
        border = find_border(hops, nationality, country)
        if border is not None and rels.is_p2c(*border):
            crossed[origin] = crossed.get(origin, 0) + n

    fraction = Fraction(0)
    for origin, total in reached.items():
        transited = crossed.get(origin, 0)
        if transited == 0:
            continue
        originated = geo.originated.get((origin, country), 0)
        fraction += Fraction(transited, total) * Fraction(originated, total_addresses)
    return fraction


def classify_transit_dominant(
    value: Fraction,
    threshold: Fraction = DEFAULT_DOMINANCE_THRESHOLD,
) -> bool:
    """Dominant at or above the threshold (inclusive lower bound)."""
    return value >= threshold
