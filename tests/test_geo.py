import pytest

from cti.geo import build_geo_table, classify_nationality
from cti.model import ComputationError, Prefix, RelKind, RelationshipTable

P1 = Prefix.parse("10.0.0.0/24")
P2 = Prefix.parse("10.0.1.0/24")
P3 = Prefix.parse("10.0.2.0/23")


def test_round_up_to_slash24():
    table, _ = build_geo_table([(P1, "CU", 3), (P2, "CU", 300)], [], {})
    assert table.mass[(P1, "CU")] == 256
    assert table.mass[(P2, "CU")] == 300
    assert table.total["CU"] == 556


def test_zero_count_rows_carry_no_mass():
    table, _ = build_geo_table([(P1, "CU", 0)], [], {P1: 100})
    assert (P1, "CU") not in table.mass
    assert table.total == {}


def test_delegation_fallback_single_country():
    # no geo mass for P1; one US delegation covers it entirely
    table, rejections = build_geo_table([], [("US", P1.base, 512)], {P1: 100})
    assert table.mass[(P1, "US")] == 256
    assert table.originated[(100, "US")] == 256
    assert rejections == []


def test_delegation_fallback_requires_full_cover():
    table, _ = build_geo_table([], [("US", P3.base, 256)], {P3: 100})
    assert table.mass == {}


def test_delegation_fallback_ambiguous_is_rejected():
    table, rejections = build_geo_table(
        [], [("US", P1.base, 256), ("CA", P1.base, 256)], {P1: 100}
    )
    assert table.mass == {}
    assert [r.reason for r in rejections] == [
        "prefix covered by delegations from multiple countries"
    ]


def test_fallback_not_applied_when_geo_mass_exists():
    table, _ = build_geo_table([(P1, "CU", 10)], [("US", P1.base, 256)], {P1: 100})
    assert table.mass == {(P1, "CU"): 256}


def test_country_total_errors_when_empty():
    table, _ = build_geo_table([(P1, "CU", 256)], [], {})
    assert table.country_total("CU") == 256
    with pytest.raises(ComputationError):
        table.country_total("AR")


def test_nationality_two_thirds_inclusive_boundary():
    # AS 100: exactly 2/3 in CU -> domestic; AS 200 wholly in AR
    table, _ = build_geo_table(
        [(P3, "CU", 512), (P2, "AR", 256), (P1, "AR", 256)],
        [],
        {P3: 100, P2: 100, P1: 200},
    )
    # 100: CU 512 of 768 = exactly 2/3
    nationality = classify_nationality(table)
    assert nationality.domestic_country(100) == "CU"
    assert nationality.is_domestic(100, "CU")
    assert nationality.domestic_country(200) == "AR"
    assert nationality.domestic_country(999) is None


def test_nationality_below_boundary_is_foreign():
    table, _ = build_geo_table(
        [(P3, "CU", 512), (P2, "AR", 260)], [], {P3: 100, P2: 100}
    )
    # CU share 512/772 < 2/3
    nationality = classify_nationality(table)
    assert nationality.domestic_country(100) is None


def test_nationality_direct_customer_mode():
    rels = RelationshipTable()
    rels.add(300, 100, RelKind.P2C)
    rels.add(300, 200, RelKind.P2C)
    rels.add(100, 400, RelKind.P2P)
    table, _ = build_geo_table(
        [(P1, "CU", 256), (P2, "CU", 256), (P3, "AR", 256)],
        [],
        {P1: 100, P2: 200, P3: 200},
    )
    basic = classify_nationality(table)
    assert basic.domestic_country(300) is None  # originates nothing itself

    inclusive = classify_nationality(table, rels)
    # 300 is credited CU 512 + AR 256 -> exactly 2/3 CU
    assert inclusive.domestic_country(300) == "CU"
    # peers contribute nothing
    assert inclusive.domestic_country(400) is None

