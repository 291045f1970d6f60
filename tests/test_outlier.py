from fractions import Fraction

from cti import cti_core, outlier
from cti.geo import build_geo_table
from cti.model import MonitorId, Prefix
from test_pathprep import retained_of

P1 = Prefix.parse("10.0.0.0/24")


def _setup(host_count, distances=None):
    """One monitor per host AS, all observing transit 500 on prefix P1."""
    geo, _ = build_geo_table([(P1, "CU", 256)], [], {})
    monitors = [MonitorId(f"m{i}", 1000 + i, "US") for i in range(host_count)]
    retained = []
    for i, m in enumerate(monitors):
        distance = (distances or {}).get(i, 1)
        retained.append((m.host_asn, tuple(range(900, 900 + distance)) + (500,), P1))
    table = cti_core.extract_observations(retained_of(retained, monitors), geo, "CU")
    return geo, monitors, retained, table


def test_per_host_profiles():
    _geo, _monitors, _retained, table = _setup(3, distances={2: 2})
    values = outlier.per_host_cti(table, 500)
    assert values[1000] == Fraction(1)
    assert values[1002] == Fraction(1, 2)


def test_filter_is_noop_below_min_hosts():
    _geo, _monitors, _retained, table = _setup(9)
    result = outlier.apply_outlier_filter(table, 500)
    unfiltered = cti_core.compute_cti(table).get("CU", 500)
    assert result.value == unfiltered
    assert result.excluded == []


def test_filter_with_equal_hosts_preserves_value():
    _geo, _monitors, _retained, table = _setup(10)
    result = outlier.apply_outlier_filter(table, 500)
    unfiltered = cti_core.compute_cti(table).get("CU", 500)
    assert result.value == unfiltered == Fraction(1)
    assert len(result.excluded) == 2  # one per tail, ties broken by host ASN


def test_filter_excludes_extreme_hosts():
    # hosts 0..9; host 9 sees the transit at distance 4, host 0 at distance 2
    geo, monitors, retained, table = _setup(10, distances={9: 4, 0: 2})
    result = outlier.apply_outlier_filter(table, 500)
    excluded_hosts = {host for host, _ in result.excluded}
    # bottom tail: host 1009 (value 1/4); top tail: highest-ASN of the value-1 ties
    assert excluded_hosts == {1009, 1008}
    # recomputed over the 8 surviving monitors with |M'| = 8
    survivors = [m for m in monitors if m.host_asn not in excluded_hosts]
    survivor_rows = [row for row in retained if row[0] not in excluded_hosts]
    survivor_table = cti_core.extract_observations(
        retained_of(survivor_rows, survivors), geo, "CU"
    )
    expected = cti_core.compute_cti(survivor_table).get("CU", 500)
    assert result.value == expected == Fraction(15, 16)


def test_exclusion_tiebreak_is_deterministic():
    _geo, _monitors, _retained, table = _setup(10)
    first = outlier.apply_outlier_filter(table, 500)
    second = outlier.apply_outlier_filter(table, 500)
    assert first.excluded == second.excluded == [
        (1000, Fraction(1)),
        (1009, Fraction(1)),
    ]
