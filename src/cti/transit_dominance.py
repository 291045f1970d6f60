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
from operator import itemgetter
from typing import Iterable, Sequence

from .geo import GeoTable, Nationality
from .ingest import RowRejection, _data_lines, _hops_parser
from .model import ParseError, Prefix, Record, RelKind, RelationshipTable

DEFAULT_DOMINANCE_THRESHOLD = Fraction(12, 25)  # 0.48
DEFAULT_ORIGINATION_FLOOR = Fraction(1, 2000)  # 0.05% of the country's addresses


class TraceroutePath(Record):
    __slots__ = ()
    _fields = ("probe_id", "prefix", "hops")

    def __new__(cls, probe_id: str, prefix: Prefix, hops: tuple[int, ...]) -> "TraceroutePath":
        if not hops:
            raise ValueError("traceroute path must have at least one hop")
        return tuple.__new__(cls, (probe_id, prefix, hops))

    probe_id = property(itemgetter(0))
    prefix = property(itemgetter(1))
    hops = property(itemgetter(2))  # probe-first; last element is the last observed AS

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
    # each distinct prefix and hop text is parsed (and collapsed) once per call
    parse_prefix = functools.cache(Prefix.parse)
    parse_hops = _hops_parser()
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
            hops = parse_hops(parts[2])
        except ValueError:
            rejections.append(RowRejection(line_no, line, "malformed ASN"))
            continue
        if not hops:
            rejections.append(RowRejection(line_no, line, "empty path"))
            continue
        paths.append(TraceroutePath(parts[0], prefix, hops))
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
    # traceroutes repeat routes: classify each distinct one's border once
    crosses_p2c: dict[tuple[int, ...], bool] = {}
    for path in paths:
        hops = path.hops
        origin = hops[-1]
        if not nationality.is_domestic(origin, country):
            continue
        reached[origin] = reached.get(origin, 0) + 1
        crosses = crosses_p2c.get(hops)
        if crosses is None:
            border = find_border(path, nationality, country, rels)
            crosses = crosses_p2c[hops] = border is not None and border.kind is RelKind.P2C
        if crosses:
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
