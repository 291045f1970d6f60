"""Candidate peering tests, border-crossing inference, and the country-level
transit fraction.

Traceroute-derived AS-level paths arrive pre-resolved (interface-to-AS
mapping is upstream). The national border on a path is the link between the
last foreign AS and its successor; the transit fraction weighs, per origin
AS, the share of its traceroutes whose border crossing is a foreign-provider
p2c link by the origin's share of the country's address space.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .geo import GeoTable, Nationality
from .ingest import RowRejection, _data_lines, _parse_asn_token
from .model import ParseError, Prefix, RelKind, RelationshipTable

DEFAULT_DOMINANCE_THRESHOLD = Fraction(12, 25)  # 0.48
DEFAULT_ORIGINATION_FLOOR = Fraction(1, 2000)  # 0.05% of the country's addresses


@dataclass(frozen=True)
class TraceroutePath:
    probe_id: str
    prefix: Prefix
    hops: tuple[int, ...]  # probe-first; last element is the last observed AS

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError("traceroute path must have at least one hop")

    @property
    def last_as(self) -> int:
        return self.hops[-1]


@dataclass(frozen=True)
class BorderCrossing:
    provider: int  # last foreign AS
    customer: int  # its (domestic) successor
    kind: RelKind | None  # None when the link has no inferred relationship


def parse_traceroutes(
    reader: Iterable[str],
) -> tuple[list[TraceroutePath], list[RowRejection]]:
    """Parse ``probe_id|prefix|asn asn ...`` rows (probe-first hop order).

    Consecutive duplicate ASNs are collapsed; malformed ASN tokens reject the
    row with a log entry.
    """
    paths: list[TraceroutePath] = []
    rejections: list[RowRejection] = []
    parse_prefix = functools.cache(Prefix.parse)
    parse_asn = functools.cache(_parse_asn_token)
    for line_no, line in _data_lines(reader):
        parts = line.split("|")
        if len(parts) != 3:
            raise ParseError(f"traceroute line {line_no}: expected probe_id|prefix|hops")
        try:
            prefix = parse_prefix(parts[1])
        except ValueError:
            rejections.append(RowRejection(line_no, line, "unparsable prefix"))
            continue
        try:
            raw_hops = list(map(parse_asn, parts[2].split()))
        except ValueError:
            rejections.append(RowRejection(line_no, line, "malformed ASN"))
            continue
        if not raw_hops:
            rejections.append(RowRejection(line_no, line, "empty path"))
            continue
        hops: list[int] = []
        for asn in raw_hops:
            if not hops or hops[-1] != asn:
                hops.append(asn)
        paths.append(TraceroutePath(probe_id=parts[0], prefix=prefix, hops=tuple(hops)))
    return paths, rejections


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
    for peer in sorted(rels.peers_of(origin)):
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


def find_border(
    path: TraceroutePath,
    nationality: Nationality,
    country: str,
    rels: RelationshipTable | None = None,
) -> BorderCrossing | None:
    """The link between the last foreign AS (scanning from the probe) and its
    successor; None when every hop is domestic."""
    last_foreign = None
    for index, asn in enumerate(path.hops):
        if not nationality.is_domestic(asn, country):
            last_foreign = index
    if last_foreign is None or last_foreign == len(path.hops) - 1:
        return None
    provider = path.hops[last_foreign]
    customer = path.hops[last_foreign + 1]
    kind: RelKind | None = None
    if rels is not None:
        rel = rels.lookup(provider, customer)
        if rel is not None:
            if rel.kind is RelKind.P2P:
                kind = RelKind.P2P
            elif rel.a == provider:
                kind = RelKind.P2C
    return BorderCrossing(provider=provider, customer=customer, kind=kind)


def compute_transit_fraction(
    paths: Sequence[TraceroutePath],
    rels: RelationshipTable,
    nationality: Nationality,
    geo: GeoTable,
    country: str,
) -> Fraction:
    """Address-weighted share of inbound traceroutes whose border crossing is
    a p2c link from a foreign provider to a domestic customer."""
    total_addresses = geo.country_total(country)

    reached: dict[int, int] = {}
    crossed: dict[int, int] = {}
    for path in paths:
        origin = path.last_as
        if not nationality.is_domestic(origin, country):
            continue
        reached[origin] = reached.get(origin, 0) + 1
        border = find_border(path, nationality, country, rels)
        if border is not None and border.kind is RelKind.P2C:
            crossed[origin] = crossed.get(origin, 0) + 1

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
