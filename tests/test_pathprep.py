from array import array
from collections import Counter

import pytest

from cti import ingest, pathprep, pipeline
from cti.geo import build_geo_table
from cti.model import (
    ComputationError,
    Corpus,
    MonitorId,
    PathRecord,
    Prefix,
    Rejection,
    RelationshipTable,
    intern,
)
from cti.pathprep import LOOP, NO_PEAK, POISONED, UNALLOCATED, Retained, RouteRejection

M_US = MonitorId("m1", 10, "US")
M_CU = MonitorId("m2", 10, "CU")
P = Prefix.parse("10.0.0.0/24")
CLIQUE = frozenset({10, 11})


def line_of(row):
    """The line ``corpus_of`` puts row ``row`` on: as if a comment preceded
    each row, so that a line is neither a row's index nor its index + 1."""
    return 2 * row + 2


def corpus_of(paths, monitors=()):
    """The paths as a corpus, rows in the given order on lines 2, 4, 6, ...,
    with its routes' tails interned by value as the parser interns them. Its
    monitor table starts with ``monitors``, as the parser's holds every
    monitor, blind ones included, and then has each other path's monitor."""
    corpus = Corpus(monitors=[], prefixes=[], tails=[])
    monitor_index, prefix_index, tail_index = {}, {}, {}
    for monitor in monitors:
        intern(monitor, monitor_index, corpus.monitors)
    for path in paths:
        corpus.monitor_ix.append(intern(path.monitor, monitor_index, corpus.monitors))
        corpus.prefix_ix.append(intern(path.prefix, prefix_index, corpus.prefixes))
        corpus.lead.append(path.hops[0])
        corpus.tail_ix.append(intern(path.hops[1:], tail_index, corpus.tails))
    corpus.line_no = [line_of(row) for row in range(len(corpus))]
    return corpus


def retained_of(rows, monitors=None):
    """(host AS, segment, prefix) rows as a ``Retained``, in the given order.
    Given ``monitors``, the monitors outside the country, each host AS counts
    its monitors among them, blind ones included, as retention counts them.
    Otherwise each host AS gets as many monitors outside the country as it
    has rows toward one prefix, the fewest its rows need."""
    hosts, segments, prefixes = [], [], []
    host_index, segment_index, prefix_index = {}, {}, {}
    for monitor in monitors or ():
        intern(monitor.host_asn, host_index, hosts)
    cells = [
        (
            intern(host, host_index, hosts),
            intern(segment, segment_index, segments),
            intern(prefix, prefix_index, prefixes),
        )
        for host, segment, prefix in rows
    ]
    groups = array("Q", [segment_ix * len(hosts) + host_ix for host_ix, segment_ix, _p in cells])
    prefix_ixs = array("I", [prefix_ix for _h, _s, prefix_ix in cells])
    outside_monitors = [0] * len(hosts)
    if monitors is not None:
        for monitor in monitors:
            outside_monitors[host_index[monitor.host_asn]] += 1
    else:
        rows_per_cell = Counter((host_ix, prefix_ix) for host_ix, _s, prefix_ix in cells)
        for (host_ix, _p), n in rows_per_cell.items():
            outside_monitors[host_ix] = max(outside_monitors[host_ix], n)
    return Retained(prefixes, hosts, segments, groups, prefix_ixs, outside_monitors)


# The route verdicts applied to one path, for the example tests below: the
# path as a one-row corpus, passed through the stage that judges it. The
# property tests of the per-route memos compare against the oracle's per-path
# literals instead.


def sanitize(path, clique, reserved, line=1):
    """``prepare_paths`` applied to one path read from ``line``: the kept
    path, its hops collapsed, or its rejection."""
    corpus = corpus_of([path])
    corpus.line_no = [line]
    sanitized, rejections = pathprep.prepare_paths(corpus, clique, reserved)
    return rejections[0] if rejections else sanitized[0]


def truncate_to_peak(path, rels):
    """``retain_for_country`` applied to one inbound path read from line 1:
    its (host AS, segment, prefix) row, or its rejection."""
    assert path.monitor.country != "CU"
    geo, _ = build_geo_table([(path.prefix, "CU", 256)], [], {})
    corpus = corpus_of([path])
    corpus.line_no = [1]
    retained, rejections = pathprep.retain_for_country(corpus, "CU", geo, rels)
    return rejections[0] if rejections else next(iter(retained))


def _rels(*pairs):
    return RelationshipTable.of(p2c=pairs)


def test_sanitize_collapses_prepending():
    path = PathRecord(M_US, P, (10, 20, 20, 20, 30))
    result = sanitize(path, CLIQUE, frozenset())
    assert result.hops == (10, 20, 30)


def test_sanitize_rejects_loop():
    result = sanitize(PathRecord(M_US, P, (10, 20, 30, 20)), CLIQUE, frozenset())
    assert isinstance(result, Rejection)
    assert result.category == LOOP


def test_sanitize_rejects_reserved_asn():
    result = sanitize(
        PathRecord(M_US, P, (10, 23456, 30)), CLIQUE, frozenset({23456})
    )
    assert isinstance(result, Rejection)
    assert result.category == UNALLOCATED


def test_sanitize_rejects_poisoned():
    # non-clique 99 strictly between clique members 10 and 11
    result = sanitize(PathRecord(M_US, P, (10, 99, 11, 30)), CLIQUE, frozenset())
    assert isinstance(result, Rejection)
    assert result.category == POISONED


def test_sanitize_allows_adjacent_clique_members():
    path = PathRecord(M_US, P, (10, 11, 30))
    assert sanitize(path, CLIQUE, frozenset()) == path


def test_loop_precedes_poison_classification():
    # both anomalies present; the loop check runs first
    result = sanitize(PathRecord(M_US, P, (10, 99, 11, 99)), CLIQUE, frozenset())
    assert result.category == LOOP


def test_sanitize_rejects_host_asn_after_first_hop():
    # the host AS 10 may lead the path, prepended or not, but never reappear
    accepted = sanitize(PathRecord(M_US, P, (10, 10, 20, 30)), frozenset(), frozenset())
    assert accepted.hops == (10, 20, 30)
    for hops in ((20, 10, 30), (40, 20, 30, 10)):
        result = sanitize(PathRecord(M_US, P, hops), frozenset(), frozenset())
        assert isinstance(result, Rejection)
        assert result.category == LOOP
    # a poisoned path wedging the host AS stays Poisoned
    wedged = sanitize(
        PathRecord(MonitorId("m5", 99, "US"), P, (10, 99, 11, 30)), CLIQUE, frozenset()
    )
    assert wedged.category == POISONED


def test_truncate_strips_host_and_finds_peak():
    rels = _rels((10, 20), (20, 30))
    result = truncate_to_peak(PathRecord(M_US, P, (10, 20, 30)), rels)
    # host 10 stripped, origin-first, peak at the 20 -> 30 link
    host, segment, _prefix = result
    assert segment == (30, 20)
    assert segment[0] == 30  # the origin
    assert host == 10


def test_truncate_retains_up_to_farthest_p2c():
    # 5 above 10 above 20 above 30; monitor hosted elsewhere so nothing is stripped
    monitor = MonitorId("m9", 77, "US")
    rels = _rels((5, 10), (10, 20), (20, 30))
    result = truncate_to_peak(PathRecord(monitor, P, (5, 10, 20, 30)), rels)
    assert result[1] == (30, 20, 10, 5)


def test_truncate_discards_peers_above_peak():
    # origin 30, provider 20, then a peer hop 40 toward the monitor
    monitor = MonitorId("m9", 77, "US")
    rels = RelationshipTable.of(p2c=[(20, 30)], p2p=[(40, 20)])
    result = truncate_to_peak(PathRecord(monitor, P, (40, 20, 30)), rels)
    assert result[1] == (30, 20)


def test_truncate_rejects_without_p2c_link():
    rels = RelationshipTable.of(p2p=[(20, 30)])
    result = truncate_to_peak(PathRecord(MonitorId("m9", 77, "US"), P, (20, 30)), rels)
    assert isinstance(result, Rejection)
    assert result.category == NO_PEAK


def test_truncate_rejects_host_only_path():
    result = truncate_to_peak(PathRecord(M_US, P, (10,)), _rels((10, 20)))
    assert isinstance(result, Rejection)
    assert result.category == NO_PEAK


def test_inbound_filter():
    geo, _ = build_geo_table([(P, "CU", 256)], [], {})
    rels = _rels((20, 30))

    def kept(monitor, country):
        path = PathRecord(monitor, P, (20, 30))
        retained, rejections = pathprep.retain_for_country(corpus_of([path]), country, geo, rels)
        assert rejections == []
        return len(retained) == 1

    assert kept(M_US, "CU")
    # monitor inside the destination country
    assert not kept(M_CU, "CU")
    # prefix with no mass in the destination country
    assert not kept(M_US, "AR")


def test_prepare_paths_keeps_input_order_and_splits():
    paths = [
        PathRecord(M_US, Prefix.parse("10.0.1.0/24"), (10, 20, 30)),
        PathRecord(M_US, P, (10, 20, 30, 20)),
        PathRecord(M_US, P, (10, 20, 30)),
    ]
    accepted, rejections = pathprep.prepare_paths(corpus_of(paths), CLIQUE, frozenset())
    assert [p.prefix for p in accepted] == [Prefix.parse("10.0.1.0/24"), P]
    assert list(accepted.line_no) == [2, 6]
    assert rejections == [Rejection("paths.txt", 4, LOOP, "ASN repeats non-consecutively")]


def test_derive_origins_takes_the_lead_of_a_single_hop_route_as_its_origin():
    p2 = Prefix.parse("10.0.1.0/24")
    paths = [PathRecord(M_US, P, (20,)), PathRecord(M_CU, P, (10, 20))]
    paths.append(PathRecord(M_US, p2, (10, 30)))
    assert pipeline.derive_origins(corpus_of(paths)) == {P: 20, p2: 30}
    conflicting = corpus_of([PathRecord(M_US, P, (30, 20)), PathRecord(M_CU, P, (30,))])
    with pytest.raises(ComputationError, match="announced by AS 20 and AS 30;"):
        pipeline.derive_origins(conflicting)


def test_prepare_paths_keeps_4_byte_line_numbers_when_it_rejects_a_row():
    monitors = {M_US.id: M_US}
    lines = ["m1|10.0.1.0/24|10 20 30", "# a comment", "m1|10.0.0.0/24|10 20 30 20"]
    corpus, _ = ingest.parse_paths(lines, monitors)
    accepted, rejections = pathprep.prepare_paths(corpus, CLIQUE, frozenset())
    assert [r.line for r in rejections] == [3]
    assert (accepted.line_no.typecode, accepted.line_no.itemsize) == ("I", 4)
    assert list(accepted.line_no) == [1]


def test_prepare_paths_copies_the_route_table_only_to_add_a_collapsed_route():
    clean = corpus_of([PathRecord(M_US, P, (10, 20, 30))])
    sanitized, _ = pathprep.prepare_paths(clean, CLIQUE, frozenset())
    assert sanitized.lead is clean.lead and sanitized.tail_ix is clean.tail_ix
    assert sanitized.line_no is clean.line_no and sanitized.tails is clean.tails
    prepended = corpus_of([PathRecord(M_US, P, (10, 20, 20, 30)), PathRecord(M_CU, P, (10, 30))])
    sanitized, _ = pathprep.prepare_paths(prepended, CLIQUE, frozenset())
    assert [path.hops for path in prepended] == [(10, 20, 20, 30), (10, 30)]
    assert list(sanitized) == [PathRecord(M_US, P, (10, 20, 30)), PathRecord(M_CU, P, (10, 30))]
    # the collapsed tail takes its raw tail's place: no row is rejected, so
    # the lead and tail columns are shared
    assert sanitized.lead is prepended.lead and sanitized.tail_ix is prepended.tail_ix
    assert prepended.tails == [(20, 20, 30), (30,)]
    assert sanitized.tails == [(20, 30), (30,)]


def test_retain_for_country_end_to_end():
    geo, _ = build_geo_table([(P, "CU", 256)], [], {})
    rels = _rels((10, 20), (20, 30))
    paths = [
        PathRecord(M_US, P, (10, 20, 30)),
        PathRecord(M_CU, P, (10, 20, 30)),  # dropped: monitor in CU
    ]
    retained, rejections = pathprep.retain_for_country(corpus_of(paths), "CU", geo, rels)
    assert len(retained) == 1 and rejections == []
    assert list(retained) == [(10, (30, 20), P)]
