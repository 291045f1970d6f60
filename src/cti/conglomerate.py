"""Scores for AS sets: state-owned conglomerates and organizations.

A conglomerate's transit score counts each (monitor, prefix) pair once,
using the minimum member distance, and skips prefixes originated by any
member. The state footprint adds the fraction of the country's addresses
the members originate directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .cti_core import HostTable
from .geo import GeoTable, Nationality
from .model import MetricReport

DEFAULT_MARGINAL_THRESHOLD = Fraction(1, 20)  # 0.05


@dataclass(frozen=True)
class Conglomerate:
    label: str
    members: frozenset[int]
    country: str

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("conglomerate needs at least one member AS")


def state_conglomerates(
    state_owned: Sequence[tuple[int, str]],
    nationality: Nationality,
) -> dict[str, Conglomerate]:
    """One conglomerate per country, from state-owned ASes operating
    domestically (state owner country = nationality country)."""
    members: dict[str, set[int]] = {}
    for asn, country in state_owned:
        if nationality.is_domestic(asn, country):
            members.setdefault(country, set()).add(asn)
    return {
        country: Conglomerate(label=country, members=frozenset(asns), country=country)
        for country, asns in members.items()
    }


def compute_ctin(conglomerate: Conglomerate, table: HostTable) -> Fraction:
    """Set-level transit score over the country's kernel: one term per path
    at the first (minimum-distance) member, zero for paths toward prefixes
    originated by any member. The paths along one segment share that
    distance, so each segment adds its hosts' summed term once (exact, since
    every W is a multiple of d)."""
    members = conglomerate.members
    numerator = 0
    for segment_ix, weights in table.groups.items():
        segment = table.segments[segment_ix]
        if segment[0] in members:
            continue
        for distance, transit in enumerate(segment[1:], start=1):
            if transit in members:
                numerator += table.numerator(sum(weights.values()), distance)
                break
    return table.score(numerator, table.n_monitors)


def compute_footprint(conglomerate: Conglomerate, geo: GeoTable, ctin: Fraction) -> Fraction:
    """Pure-transit score plus the members' directly originated fraction."""
    return ctin + originated_fraction(conglomerate, geo)


def originated_fraction(conglomerate: Conglomerate, geo: GeoTable) -> Fraction:
    total_addresses = geo.country_total(conglomerate.country)
    originated = sum(
        geo.originated.get((asn, conglomerate.country), 0) for asn in conglomerate.members
    )
    return Fraction(originated, total_addresses)


@dataclass(frozen=True)
class OrgAggregate:
    org_id: str
    country: str
    cti_sum: Fraction
    top_asn: int
    top_share: Fraction  # top member's contribution to the sum
    marginal: bool


def aggregate_org(
    org_of: Mapping[int, str],
    cti_report: MetricReport,
    marginal_threshold: Fraction = DEFAULT_MARGINAL_THRESHOLD,
) -> list[OrgAggregate]:
    """Upper-bound organization scores: sum member scores per country and
    report the top member's share; sums under the threshold are marginal."""
    grouped: dict[tuple[str, str], dict[int, Fraction]] = {}
    for (country, subject), value in cti_report.entries.items():
        if not isinstance(subject, int):
            continue
        org = org_of.get(subject)
        if org is None or value == 0:
            continue
        grouped.setdefault((org, country), {})[subject] = value

    aggregates: list[OrgAggregate] = []
    for (org, country), members in sorted(grouped.items()):
        total = sum(members.values(), Fraction(0))
        top_asn, top_value = max(members.items(), key=lambda kv: (kv[1], -kv[0]))
        aggregates.append(
            OrgAggregate(
                org_id=org,
                country=country,
                cti_sum=total,
                top_asn=top_asn,
                top_share=top_value / total,
                marginal=total < marginal_threshold,
            )
        )
    return aggregates
