"""Candidate peering tests, border-crossing inference, and the country-level
transit fraction.

Traceroute-derived AS-level paths arrive pre-resolved (interface-to-AS
mapping is upstream), and are kept as ``Traces``: each trace is its lead AS
over a collapsed tail, stored once per distinct value. The transit fraction
reads nothing else of a trace. The national border on a route is the link
between the last foreign AS and its successor; the transit fraction weighs,
per origin AS, the share of its traceroutes whose border crossing is a
foreign-provider p2c link by the origin's share of the country's address
space.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable

from .geo import GeoTable, Nationality
# parse_traceroutes is not called here; the benchmark traces it under this module's name.
from .ingest import parse_traceroutes  # noqa: F401
from .model import RelationshipTable, Route, Traces

DEFAULT_DOMINANCE_THRESHOLD = Fraction(12, 25)  # 0.48
DEFAULT_ORIGINATION_FLOOR = Fraction(1, 2000)  # 0.05% of the country's addresses


@dataclass(frozen=True)
class CandidateResult:
    asn: int
    candidate: bool
    failed_tests: tuple[str, ...]


TEST_FOREIGN_PEER = "foreign-peer"
TEST_FOREIGN_FACILITY = "foreign-facility"
TEST_FOREIGN_FACILITY_MEMBER = "foreign-facility-member"
TEST_NO_NATIONALITY = "no-domestic-nationality"


class FacilityIndex:
    """The facility membership rows, indexed once for every candidate test:
    each AS's facilities, and per facility the countries its rows give and
    the ``nationality`` labels of its members."""

    def __init__(
        self, memberships: Iterable[tuple[str, str, int]], nationality: Nationality
    ) -> None:
        self.facilities_of: dict[int, set[str]] = {}
        self.countries_at: dict[str, set[str]] = {}
        self.labels_at: dict[str, set[str | None]] = {}
        for facility, country, asn in memberships:
            self.facilities_of.setdefault(asn, set()).add(facility)
            self.countries_at.setdefault(facility, set()).add(country)
            self.labels_at.setdefault(facility, set()).add(nationality.domestic_country(asn))


def classify_candidate(
    origin: int,
    peers: Collection[int],
    facilities: FacilityIndex,
    nationality: Nationality,
) -> CandidateResult:
    """An origin AS is a candidate when none of its BGP ``peers`` is
    foreign, it belongs to no foreign-based IXP/colo, and it belongs to no
    facility with any foreign member; ``facilities`` is indexed with
    ``nationality``."""
    home = nationality.domestic_country(origin)
    if home is None:
        return CandidateResult(origin, False, (TEST_NO_NATIONALITY,))

    failed: list[str] = []
    for peer in peers:
        if nationality.domestic_country(peer) != home:
            failed.append(TEST_FOREIGN_PEER)
            break

    own_facilities = facilities.facilities_of.get(origin, ())
    if any(c != home for f in own_facilities for c in facilities.countries_at[f]):
        failed.append(TEST_FOREIGN_FACILITY)
    # the origin is labelled home, so a label other than home is another member's
    if any(label != home for f in own_facilities for label in facilities.labels_at[f]):
        failed.append(TEST_FOREIGN_FACILITY_MEMBER)

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
    traces: Traces,
    rels: RelationshipTable,
    nationality: Nationality,
    geo: GeoTable,
    country: str,
) -> Fraction:
    """Address-weighted share of inbound traceroutes whose border crossing is
    a p2c link from a foreign provider to a domestic customer.

    The origin and the border of a trace are its tail's, judged once per
    tail, unless every hop of the tail is domestic: then the border is the
    link into the tail from a foreign lead AS, and the origin of an empty
    tail is the lead itself."""
    total_addresses = geo.country_total(country)
    label = nationality.label
    tails = traces.tails

    reached: dict[int, int] = {}
    crossed: dict[int, int] = {}
    domestic_tails: dict[int, Route] = {}  # tail index -> a tail of domestic hops only
    for tail_ix, n in Counter(traces.tail_ix).items():
        tail = tails[tail_ix]
        if not tail:  # a one-hop route, whose lead is its origin
            domestic_tails[tail_ix] = tail
            continue
        origin = tail[-1]
        if label.get(origin) != country:
            continue
        reached[origin] = reached.get(origin, 0) + n
        border = find_border(tail, nationality, country)
        if border is None:  # every hop of the tail is domestic: each lead decides
            domestic_tails[tail_ix] = tail
        elif rels.is_p2c(*border):
            crossed[origin] = crossed.get(origin, 0) + n
    if domestic_tails:
        for lead, tail_ix in zip(traces.lead, traces.tail_ix):
            tail = domestic_tails.get(tail_ix)
            if tail is None:
                continue
            if label.get(lead) == country:
                if not tail:  # the one hop is a domestic origin
                    reached[lead] = reached.get(lead, 0) + 1
            elif tail and rels.is_p2c(lead, tail[0]):
                crossed[tail[-1]] = crossed.get(tail[-1], 0) + 1

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
