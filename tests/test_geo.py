import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cti.geo import DelegationIndex, GeoTable, build_geo_table, classify_nationality
from cti.model import ComputationError, Prefix, Rejection, RelationshipTable

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
    assert rejections == [
        Rejection("delegations.txt", 0, "prefix covered by delegations from multiple countries", "10.0.0.0/24")
    ]


def _scanned_fallback(delegations, origin_of):
    """The delegation fallback as a literal scan of every block per prefix."""
    mass, rejections = {}, []
    for prefix in origin_of:
        covering = {
            country
            for country, base, count in delegations
            if base <= prefix.base and prefix.base + prefix.size <= base + count
        }
        if len(covering) > 1:
            reason = "prefix covered by delegations from multiple countries"
            rejections.append(Rejection("delegations.txt", 0, reason, str(prefix)))
        elif covering:
            mass[(prefix, covering.pop())] = prefix.size
    return mass, rejections


BASE = 10 << 24
# Blocks of 128-address steps over 16 /24s overlap, nest, and cover a prefix
# from one country or from two.
_delegations = st.lists(
    st.tuples(
        st.sampled_from(["AA", "BB", "CC"]),
        st.integers(0, 31).map(lambda k: BASE + 128 * k),
        st.integers(1, 24).map(lambda k: 128 * k),
    ),
    max_size=12,
)
_prefixes = st.lists(
    st.sampled_from(
        [
            Prefix(BASE + (k << (32 - length)), length)
            for length in (21, 22, 23, 24)
            for k in range(1 << (length - 20))
        ]
    ),
    unique=True,
    max_size=16,
)


@settings(max_examples=300, deadline=None)
@given(_delegations, _prefixes)
def test_delegation_fallback_equals_the_literal_scan(delegations, prefixes):
    origin_of = {prefix: 100 for prefix in prefixes}
    table, rejections = build_geo_table([], delegations, origin_of)
    assert (table.mass, rejections) == _scanned_fallback(delegations, origin_of)


def test_delegation_fallback_finds_a_cover_behind_later_blocks():
    # the wide AA block starts first; the later BB blocks end before P1 does
    delegations = [("AA", BASE, 4096), ("BB", P1.base, 128), ("BB", P1.base + 128, 64)]
    table, rejections = build_geo_table([], delegations, {P1: 100, P3: 100})
    assert table.mass == {(P1, "AA"): 256, (P3, "AA"): 512}
    assert rejections == []
    nested = [*delegations, ("CC", P1.base, 256)]
    table, rejections = build_geo_table([], nested, {P1: 100})
    assert table.mass == {}
    assert [r.category for r in rejections] == [
        "prefix covered by delegations from multiple countries"
    ]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["AA", "BB", "CC"]), st.integers(0, 40), st.integers(1, 48)),
        max_size=25,
    ),
    st.lists(st.integers(0, 90), max_size=4),
)
def test_countries_covering_equals_a_scan_of_every_block(delegations, points):
    """Blocks that nest, overlap and repeat, and ranges from and to each
    block edge and its neighbours: the index finds the countries a scan of
    all blocks finds, or two of them when there are more."""
    index = DelegationIndex(delegations)
    edges = {edge for _c, base, count in delegations for edge in (base, base + count)}
    edges |= {edge + step for edge in edges for step in (-1, 1)} | set(points)
    for start in edges:
        for end in edges:
            if start >= end:
                continue
            scanned = {c for c, base, count in delegations if base <= start and end <= base + count}
            found = index.countries_covering(start, end)
            assert found == scanned if len(scanned) < 2 else len(found) == 2 and found <= scanned


def test_countries_covering_skips_the_narrow_blocks_below_a_range():
    """One wide block below many narrow ones: each query steps over the
    narrow blocks that end before the range, not through them."""
    narrow = [("BB", BASE + 128 * k, 128) for k in range(20000)]
    index = DelegationIndex([("ZZ", 0, 1 << 32), *narrow])
    visited = []
    ends = index._ends

    class Spy(list):
        def __getitem__(self, row):
            visited.append(row)
            return list.__getitem__(self, row)

    index._ends = Spy(ends)
    last = BASE + 128 * 19998
    assert index.countries_covering(last, last + 256) == {"ZZ"}
    assert len(visited) <= 3


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


def test_an_as_with_no_address_mass_is_foreign():
    # build_geo_table rounds every kept count up to 256, so only a table built
    # by hand originates zero addresses
    rels = RelationshipTable.of(p2c=[(300, 100)])
    table = GeoTable(mass={}, total={"CU": 256}, originated={(100, "CU"): 0, (200, "CU"): 256})
    assert classify_nationality(table).label == {100: None, 200: "CU"}
    # the provider of an AS of zero mass is credited with zero addresses
    assert classify_nationality(table, rels).label == {100: None, 200: "CU", 300: None}


def test_nationality_direct_customer_mode():
    rels = RelationshipTable.of(p2c=[(300, 100), (300, 200)], p2p=[(100, 400)])
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

