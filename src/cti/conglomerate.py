"""Scores for AS sets: a country's state-owned ASes, and organizations.

A state conglomerate is a set of ASNs, chosen by ``state_members``. Its
transit score counts each (monitor, prefix) pair once, using the minimum
member distance, and skips prefixes originated by any member. The state
footprint adds the fraction of the country's addresses the members
originate directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .cti_core import HostTable
from .geo import GeoTable, Nationality
from .model import MetricReport

DEFAULT_MARGINAL_THRESHOLD = Fraction(1, 20)  # 0.05


def state_members(
    state_owned: Sequence[tuple[int, str]], nationality: Nationality, country: str
) -> frozenset[int]:
    """The country's state conglomerate: the ASes that ``state_owned`` lists
    for ``country`` and that ``nationality`` labels domestic there."""
    return frozenset(
        asn
        for asn, owner in state_owned
        if owner == country and nationality.is_domestic(asn, country)
    )


def compute_ctin(members: frozenset[int], table: HostTable) -> Fraction:
    """Set-level transit score over the country's kernel: one term per path
    at the first (minimum-distance) member, zero for paths toward prefixes
    originated by any member. The paths along one segment share that
    distance, so each segment adds its hosts' summed term once (exact, since
    every W is a multiple of d)."""
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


def originated_fraction(members: frozenset[int], geo: GeoTable, country: str) -> Fraction:
    """The share of the country's addresses that the members originate."""
    originated = sum(geo.originated.get((asn, country), 0) for asn in members)
    return Fraction(originated, geo.country_total(country))


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
        org = org_of.get(subject)  # a label subject is no ASN, so no org maps it
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
