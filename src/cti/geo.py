"""Per-prefix, per-country address masses and AS nationality labels.

Raw geolocation counts are rounded up to a /24 (256 addresses) per
(prefix, country) row. Prefixes with no positive geolocation mass fall back
to the RIR delegation record, provided a single country's block covers the
entire prefix. Nationality is a two-thirds majority of originated addresses;
given the relationships, a transit AS is also credited with the addresses
originated by its direct customers.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .ingest import FILE_NAMES, DelegationRow, GeoRow
from .model import ComputationError, Prefix, Rejection, RelationshipTable

ROUND_UP = 256


@dataclass
class GeoTable:
    mass: dict[tuple[Prefix, str], int]
    total: dict[str, int]
    originated: dict[tuple[int, str], int]

    def country_total(self, country: str) -> int:
        total = self.total.get(country, 0)
        if total <= 0:
            raise ComputationError(f"country {country} has no address mass")
        return total


def build_geo_table(
    geo_rows: Iterable[GeoRow],
    delegations: Iterable[DelegationRow],
    origin_of: Mapping[Prefix, int],
) -> tuple[GeoTable, list[Rejection]]:
    """Apply the round-up and delegation-fallback rules and fold totals. A
    prefix covered by two countries' blocks is rejected as delegations.txt line 0."""
    mass: dict[tuple[Prefix, str], int] = {}
    rejections: list[Rejection] = []

    for prefix, country, count in geo_rows:
        if count == 0:
            continue
        mass[(prefix, country)] = max(count, ROUND_UP)

    # Delegation fallback for observed prefixes without any geolocated mass.
    geolocated = {prefix for (prefix, _country) in mass}
    covers = DelegationIndex(delegations)
    for prefix in origin_of:
        if prefix in geolocated:
            continue
        covering = covers.countries_covering(prefix.base, prefix.base + prefix.size)
        if len(covering) > 1:
            reason = "prefix covered by delegations from multiple countries"
            rejections.append(Rejection(FILE_NAMES["delegations"], 0, reason, str(prefix)))
            continue
        if covering:
            mass[(prefix, covering.pop())] = prefix.size

    total: dict[str, int] = {}
    originated: dict[tuple[int, str], int] = {}
    for (prefix, country), value in mass.items():
        total[country] = total.get(country, 0) + value
        origin = origin_of.get(prefix)
        if origin is not None:
            key = (origin, country)
            originated[key] = originated.get(key, 0) + value

    table = GeoTable(mass=mass, total=total, originated=originated)
    return table, rejections


class DelegationIndex:
    """The delegation blocks sorted by base address, to find the blocks that
    cover an address range by bisection, not by a scan of every block."""

    def __init__(self, delegations: Iterable[DelegationRow]) -> None:
        rows = sorted((base, base + count, country) for country, base, count in delegations)
        self._bases = [base for base, _end, _country in rows]
        self._ends = [end for _base, end, _country in rows]
        self._countries = [country for _base, _end, country in rows]
        # _wider[i]: the last block before block i that ends after it, or -1;
        # every block between the two ends no later than block i
        self._wider = [-1] * len(rows)
        stack: list[int] = []  # blocks so far whose ends decrease
        for row, end in enumerate(self._ends):
            while stack and self._ends[stack[-1]] <= end:
                stack.pop()
            if stack:
                self._wider[row] = stack[-1]
            stack.append(row)

    def countries_covering(self, start: int, end: int) -> set[str]:
        """The countries of the blocks that cover the addresses [start, end)
        whole; the walk stops at the second country. It steps back from the
        last block based at or below ``start``, and from a block that ends
        before ``end`` jumps to the last earlier block that ends after it."""
        countries: set[str] = set()
        row = bisect.bisect_right(self._bases, start) - 1
        while row >= 0 and len(countries) < 2:
            if self._ends[row] >= end:
                countries.add(self._countries[row])
                row -= 1
            else:
                row = self._wider[row]
        return countries


@dataclass
class Nationality:
    """Asn -> Domestic(country) | Foreign. Foreign is represented as None."""

    label: dict[int, str | None] = field(default_factory=dict)

    def domestic_country(self, asn: int) -> str | None:
        return self.label.get(asn)

    def is_domestic(self, asn: int, country: str) -> bool:
        return self.label.get(asn) == country


def classify_nationality(geo: GeoTable, rels: RelationshipTable | None = None) -> Nationality:
    """Label each AS Domestic(C) iff it has >= 2/3 of its addresses in C.

    Given ``rels``, the addresses originated by an AS's direct p2c customers
    are credited to it as well (used when classifying transit providers).
    ASes with zero addresses are Foreign.
    """
    masses: dict[int, dict[str, int]] = {}
    for (asn, country), value in geo.originated.items():
        masses.setdefault(asn, {})[country] = value

    if rels is not None:
        credited = {asn: dict(vector) for asn, vector in masses.items()}
        for asn, vector in masses.items():
            for provider in rels.providers_of(asn):
                provider_vector = credited.setdefault(provider, {})
                for country, value in vector.items():
                    provider_vector[country] = provider_vector.get(country, 0) + value
        masses = credited

    nationality = Nationality()
    for asn, vector in masses.items():
        total = sum(vector.values())
        if total == 0:
            nationality.label[asn] = None
            continue
        # inclusive two-thirds boundary, exact integer arithmetic
        domestic = [c for c, v in vector.items() if 3 * v >= 2 * total]
        nationality.label[asn] = domestic[0] if domestic else None
    return nationality
