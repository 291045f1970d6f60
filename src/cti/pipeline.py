"""End-to-end orchestration from a parsed dataset bundle to metric reports.

The substrate (sanitized paths, origin map, geo table) is built once per
bundle; per-country steps (inbound retention, the contribution kernel, and
the scores reduced from it) reuse it. The origin of a prefix is taken from the
sanitized path corpus itself, so the geo table and the scores always agree
on who announces what.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import clh_compare, conglomerate, cti_core, outlier, pathprep, transit_dominance
from .geo import GeoTable, Nationality, build_geo_table, classify_nationality
from .ingest import DatasetBundle
from .model import ComputationError, Corpus, MetricReport, Prefix, Rejection, RelationshipTable


def derive_origins(sanitized: Corpus) -> dict[Prefix, int]:
    """Origin map from the sanitized corpus; multi-origin prefixes must have
    been excluded upstream, so disagreement here is a hard error."""
    # a row's origin is its tail's last hop, or its lead AS when the tail is empty
    tail_origin = {tail_ix: tail[-1] for tail_ix, tail in enumerate(sanitized.tails) if tail}
    origins = map(tail_origin.get, sanitized.tail_ix, sanitized.lead)
    origin_of: dict[int, int] = {}  # prefix index -> origin AS
    # each distinct (prefix, origin) pair in the order of its first row
    for prefix_ix, origin in dict.fromkeys(zip(sanitized.prefix_ix, origins)):
        existing = origin_of.setdefault(prefix_ix, origin)
        if existing != origin:
            raise ComputationError(
                f"prefix {sanitized.prefixes[prefix_ix]} announced by AS {existing} and "
                f"AS {origin}; add it to the multi-origin exclusion list"
            )
    return {sanitized.prefixes[prefix_ix]: origin for prefix_ix, origin in origin_of.items()}


@dataclass
class Substrate:
    bundle: DatasetBundle
    sanitized: Corpus
    hygiene_rejections: list[Rejection]
    origins: dict[Prefix, int]
    geo: GeoTable
    geo_rejections: list[Rejection]

    @property
    def rels(self) -> RelationshipTable | None:
        return self.bundle.relationships


def build_substrate(bundle: DatasetBundle) -> Substrate:
    sanitized, hygiene_rejections = pathprep.prepare_paths(
        bundle.paths, bundle.aux.clique, bundle.reserved
    )
    origins = derive_origins(sanitized)
    geo, geo_rejections = build_geo_table(bundle.geo_rows, bundle.delegations, origins)
    return Substrate(
        bundle=bundle,
        sanitized=sanitized,
        hygiene_rejections=hygiene_rejections,
        origins=origins,
        geo=geo,
        geo_rejections=geo_rejections,
    )


def build_country_substrate(sub: Substrate, country: str) -> cti_core.HostTable:
    """The country's kernel over the paths that retention keeps, normalized
    by the monitors it counts outside the country, blind ones included."""
    retained, _no_peak = pathprep.retain_for_country(sub.sanitized, country, sub.geo, sub.rels)
    return cti_core.extract_observations(retained, sub.geo, country)


def cti_report(
    sub: Substrate,
    country: str,
    outlier_min_hosts: int = outlier.DEFAULT_MIN_HOSTS,
    outlier_trim: Fraction = outlier.DEFAULT_TRIM,
    apply_outlier: bool = True,
) -> MetricReport:
    table = build_country_substrate(sub, country)
    if not apply_outlier:
        return cti_core.compute_cti(table)
    return outlier.filtered_cti(table, outlier_min_hosts, outlier_trim)


def state_footprint_reports(
    sub: Substrate, country: str
) -> tuple[MetricReport, MetricReport]:
    """CTIn and footprint reports for the country's state conglomerate, each
    one entry under the country code; both empty when no state-owned AS
    operates domestically there."""
    sub.geo.country_total(country)  # a country without address mass is an error
    members = conglomerate.state_members(
        sub.bundle.aux.state_owned, classify_nationality(sub.geo), country
    )
    ctin_report = MetricReport(metric_name="ctin")
    footprint_report = MetricReport(metric_name="footprint")
    if members:
        ctin = conglomerate.compute_ctin(members, build_country_substrate(sub, country))
        ctin_report.set(country, country, ctin)
        footprint = ctin + conglomerate.originated_fraction(members, sub.geo, country)
        footprint_report.set(country, country, footprint)
    return ctin_report, footprint_report


def org_aggregates(
    sub: Substrate,
    country: str,
    marginal_threshold: Fraction = conglomerate.DEFAULT_MARGINAL_THRESHOLD,
) -> list[conglomerate.OrgAggregate]:
    report = cti_report(sub, country)
    return conglomerate.aggregate_org(sub.bundle.aux.org_of, report, marginal_threshold)


def transit_nationality(sub: Substrate) -> Nationality:
    # transit providers are credited with their direct customers' addresses
    return classify_nationality(sub.geo, sub.rels)


def transit_fraction(sub: Substrate, country: str) -> Fraction:
    """The country's transit fraction over the bundle's traceroutes."""
    return transit_dominance.compute_transit_fraction(
        sub.bundle.traceroutes, sub.rels, transit_nationality(sub), sub.geo, country
    )


def candidate_results(
    sub: Substrate,
    country: str,
    origination_floor: Fraction = transit_dominance.DEFAULT_ORIGINATION_FLOOR,
) -> list[transit_dominance.CandidateResult]:
    """Candidate classification for every domestic origin AS holding at
    least the floor fraction of the country's addresses."""
    nationality = transit_nationality(sub)
    total = sub.geo.country_total(country)
    facilities = transit_dominance.FacilityIndex(sub.bundle.aux.memberships, nationality)
    tested = [
        origin
        for origin in sorted({asn for (asn, c) in sub.geo.originated if c == country})
        if nationality.is_domestic(origin, country)
        and Fraction(sub.geo.originated[(origin, country)], total) >= origination_floor
    ]
    peers = sub.rels.peers_among(tested)  # one pass over the p2p keys
    return [
        transit_dominance.classify_candidate(origin, peers.get(origin, ()), facilities, nationality)
        for origin in tested
    ]


def clh_report(sub: Substrate, country: str) -> MetricReport:
    return clh_compare.compute_clh(sub.bundle.aux.hegemony, sub.geo, country)
