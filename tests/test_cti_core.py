import tracemalloc
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from cti import conglomerate, cti_core, ingest, outlier, pathprep, pipeline
from cti.geo import build_geo_table
from cti.model import MonitorId, Prefix
from test_ingest import _generated_instance
from test_pathprep import retained_of

P1 = Prefix.parse("10.0.0.0/24")
P2 = Prefix.parse("10.0.1.0/24")
M1 = MonitorId("m1", 10, "US")
M2 = MonitorId("m2", 10, "US")  # same host AS as m1
M3 = MonitorId("m3", 77, "DE")


def _cti(rows, geo, monitors, country="CU"):
    table = cti_core.extract_observations(retained_of(rows), geo, monitors, country)
    return cti_core.compute_cti(table)


def _weights(rows):
    """``compute_weights`` of the rows, keyed (host AS, prefix), for every
    (host AS, prefix) the rows observe: one that it does not count has n = 1."""
    retained = retained_of(rows)
    n_hosts = len(retained.hosts)
    counted = {
        (retained.hosts[key % n_hosts], retained.prefixes[key // n_hosts]): n
        for key, n in cti_core.compute_weights(retained).items()
    }
    observed = {(host, prefix) for host, _segment, prefix in rows}
    assert counted.keys() <= observed
    return {key: counted.get(key, 1) for key in observed}


def test_extract_observations_skips_origin():
    geo, _ = build_geo_table([(P1, "CU", 256)], [], {})
    retained = [(M1.host_asn, (30, 20, 15), P1)]
    table = cti_core.extract_observations(retained_of(retained), geo, [M1], "CU")
    assert len(table) == 1
    assert table.lcm == 2  # n = 1, d in {1, 2}
    # origin 30 gets no entry; 20 at distance 1, 15 at distance 2
    assert table.cells == {20: {10: 256 * 2}, 15: {10: 256 * 1}}


def test_the_common_denominator_holds_every_observer_count():
    # three monitors of one host AS observe one prefix over a two-transit
    # segment: n = 3 and D = 2, so L must hold a 3 that no distance brings
    geo, _ = build_geo_table([(P1, "CU", 256)], [], {})
    monitors = [MonitorId(f"m{i}", 10, "US") for i in range(3)]
    table = cti_core.extract_observations(
        retained_of([(10, (30, 20, 15), P1)] * 3), geo, monitors, "CU"
    )
    assert table.lcm % 6 == 0
    # each path: w/|M| * mass/A * 1/d = 1/3 * 1/3 * 1 * 1/d
    report = cti_core.compute_cti(table)
    assert report.get("CU", 20) == 3 * Fraction(1, 9)
    assert report.get("CU", 15) == 3 * Fraction(1, 18)


def test_weights_single_observer():
    observers = _weights([(M1.host_asn, (30, 20), P1)])
    assert observers == {(10, P1): 1}  # weight 1/1


def test_weights_split_between_same_host_observers():
    retained = [(M1.host_asn, (30, 20), P1), (M2.host_asn, (30, 25), P1)]
    assert Fraction(1, _weights(retained)[(10, P1)]) == Fraction(1, 2)


def test_weights_not_diluted_by_blind_sibling():
    # m2 shares m1's host AS but sees only the other prefix
    retained = [(M1.host_asn, (30, 20), P1), (M2.host_asn, (30, 20), P2)]
    observers = _weights(retained)
    assert observers[(10, P1)] == 1
    assert observers[(10, P2)] == 1


def test_compute_cti_single_observation():
    geo, _ = build_geo_table([(P1, "CU", 256), (P2, "CU", 256)], [], {})
    report = _cti([(M1.host_asn, (30, 20), P1)], geo, [M1])
    assert report.get("CU", 20) == Fraction(1, 2)  # 1 * (256/512) * 1


def test_compute_cti_blind_monitor_dilutes():
    # m3 is active but observes nothing; |M| = 2 halves the score
    geo, _ = build_geo_table([(P1, "CU", 256)], [], {})
    report = _cti([(M1.host_asn, (30, 20), P1)], geo, [M1, M3])
    assert report.get("CU", 20) == Fraction(1, 2)


def test_compute_cti_distance_discount():
    geo, _ = build_geo_table([(P1, "CU", 256)], [], {})
    report = _cti([(M1.host_asn, (30, 20, 15, 12, 11), P1)], geo, [M1])
    assert report.get("CU", 20) == Fraction(1)
    assert report.get("CU", 15) == Fraction(1, 2)
    assert report.get("CU", 12) == Fraction(1, 3)
    assert report.get("CU", 11) == Fraction(1, 4)


def test_compute_cti_ignores_inactive_monitors_and_foreign_mass():
    geo, _ = build_geo_table([(P1, "CU", 256), (P2, "AR", 256)], [], {})
    retained = [(M1.host_asn, (30, 20), P1), (M3.host_asn, (30, 20), P2)]
    report = _cti(retained, geo, [M1])
    # only m1's path counts; P2 has no CU mass anyway
    assert report.get("CU", 20) == Fraction(1)


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6))
def test_weights_sum_to_one_per_host_prefix(observer_counts):
    retained = []
    for idx, n in enumerate(observer_counts):
        prefix = Prefix(base=(10 << 24) | (idx << 8), length=24)
        for j in range(n):
            monitor = MonitorId(f"m{idx}-{j}", 10, "US")
            retained.append((monitor.host_asn, (30, 20), prefix))
    observers = _weights(retained)
    for idx, n in enumerate(observer_counts):
        prefix = Prefix(base=(10 << 24) | (idx << 8), length=24)
        assert Fraction(1, observers[(10, prefix)]) * n == 1


# Bytes per retained row that one country's kernel may peak above its start.
# On the 6,784-path generated instance the kernel peaked 243-276 bytes per row
# when retention kept its rows in lists and n was counted for every row, 178
# bytes with array columns and n counted only where it can exceed 1 but a
# mass dict keyed per (host AS, segment, n) across the whole country, and 111
# bytes with each segment's masses in its own dict and the cells not built.
KERNEL_BYTES_PER_ROW = 150


def test_the_kernel_keeps_no_object_per_retained_row(tmp_path):
    """build_country_substrate, retention included, peaks less than
    KERNEL_BYTES_PER_ROW bytes per retained row above its start: the rows are
    array columns, no per-row list or count is built over them, and each
    segment sums its masses in the dict it keeps."""
    _generated_instance(tmp_path)
    sub = pipeline.build_substrate(ingest.load_bundle(str(tmp_path)))
    for country in ("AA", "BB"):
        pipeline.build_country_substrate(sub, country)  # first-call caches are not the kernel's
        retained, _no_peak = pathprep.retain_for_country(sub.sanitized, country, sub.geo, sub.rels)
        rows = len(retained)
        del retained, _no_peak
        if tracing := not tracemalloc.is_tracing():
            tracemalloc.start()
        try:
            start, _peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            table = pipeline.build_country_substrate(sub, country)
            _end, peak = tracemalloc.get_traced_memory()
        finally:
            if tracing:
                tracemalloc.stop()
        assert len(table) == rows > 2000
        assert peak - start < KERNEL_BYTES_PER_ROW * rows


def test_cti_and_ctin_build_no_cells(tmp_path):
    """cti and ctin are reductions over the groups; only the outlier filter
    builds the per-host cells."""
    _generated_instance(tmp_path)
    sub = pipeline.build_substrate(ingest.load_bundle(str(tmp_path)))
    table = pipeline.build_country_substrate(sub, "AA")
    report = cti_core.compute_cti(table)
    members = frozenset(subject for _country, subject in list(report.entries)[:3])
    assert conglomerate.compute_ctin(members, table) > 0
    assert "cells" not in vars(table)
    filtered = outlier.filtered_cti(table)
    assert "cells" in vars(table)
    assert filtered.entries.keys() == report.entries.keys()
