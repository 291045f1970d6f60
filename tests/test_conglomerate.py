from fractions import Fraction

import pytest

from cti import conglomerate, cti_core
from cti.geo import build_geo_table, classify_nationality
from cti.model import ComputationError, MetricReport, MonitorId, Prefix
from test_pathprep import retained_of

P1 = Prefix.parse("10.0.0.0/24")
P2 = Prefix.parse("10.0.1.0/24")
M1 = MonitorId("m1", 10, "US")


def test_state_conglomerates_filter_by_nationality():
    geo, _ = build_geo_table([(P1, "CU", 256), (P2, "CU", 256)], [], {P1: 100, P2: 300})
    nationality = classify_nationality(geo)
    state_owned = [(100, "CU"), (200, "CU"), (100, "AR"), (300, "AR")]
    # 200 originates nothing, 100 is not Argentinian, and 300 is Cuban but
    # listed for AR only, so only CU/100 remains
    assert conglomerate.state_members(state_owned, nationality, "CU") == frozenset({100})
    assert conglomerate.state_members(state_owned, nationality, "AR") == frozenset()


def test_ctin_uses_minimum_member_distance():
    geo, _ = build_geo_table([(P1, "CU", 256)], [], {P1: 900})
    # second member 15 farther on the same path
    retained = retained_of([(M1.host_asn, (900, 20, 15), P1)], [M1])
    table = cti_core.extract_observations(retained, geo, "CU")
    ctin = conglomerate.compute_ctin(frozenset({20, 15}), table)
    assert ctin == Fraction(1)  # one term at distance 1, not two


def test_ctin_skips_prefixes_originated_by_members():
    geo, _ = build_geo_table([(P1, "CU", 256), (P2, "CU", 256)], [], {P1: 100, P2: 900})
    retained = [
        (M1.host_asn, (100, 20), P1),  # toward a member-originated prefix: skipped
        (M1.host_asn, (900, 20), P2),
    ]
    table = cti_core.extract_observations(retained_of(retained, [M1]), geo, "CU")
    ctin = conglomerate.compute_ctin(frozenset({100, 20}), table)
    assert ctin == Fraction(1, 2)


def test_footprint_adds_originated_fraction():
    geo, _ = build_geo_table([(P1, "CU", 256), (P2, "CU", 256)], [], {P1: 100, P2: 900})
    assert conglomerate.originated_fraction(frozenset({100}), geo, "CU") == Fraction(1, 2)
    with pytest.raises(ComputationError, match="country AR has no address mass"):
        conglomerate.originated_fraction(frozenset({100}), geo, "AR")


def test_org_aggregation():
    report = MetricReport("cti")
    report.set("CU", 100, Fraction(30, 100))
    report.set("CU", 101, Fraction(10, 100))
    report.set("CU", 102, Fraction(2, 100))
    report.set("AR", 100, Fraction(1, 100))
    org_of = {100: "org-a", 101: "org-a", 102: "org-b"}
    aggregates = conglomerate.aggregate_org(org_of, report)
    by_key = {(a.org_id, a.country): a for a in aggregates}
    a = by_key[("org-a", "CU")]
    assert a.cti_sum == Fraction(2, 5)
    assert a.top_asn == 100
    assert a.top_share == Fraction(3, 4)
    assert not a.marginal
    assert by_key[("org-b", "CU")].marginal  # 0.02 < 0.05
    assert by_key[("org-a", "AR")].marginal


def test_org_aggregation_ignores_unmapped_and_zero_entries():
    report = MetricReport("cti")
    report.set("CU", 100, Fraction(1, 10))
    report.set("CU", 999, Fraction(1, 10))  # no org mapping
    report.set("CU", 101, Fraction(0))
    report.set("CU", "CU", Fraction(1, 10))  # a label subject, which org_of never maps
    aggregates = conglomerate.aggregate_org({100: "org-a", 101: "org-a"}, report)
    assert len(aggregates) == 1
    assert aggregates[0].cti_sum == Fraction(1, 10)
