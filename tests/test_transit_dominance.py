from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cti import ingest, pipeline, synth_oracle
from cti import transit_dominance as td
from cti.geo import Nationality, build_geo_table
from cti.model import ParseError, Prefix, RelKind, RelationshipTable, Traces, collapse_prepending

P1 = Prefix.parse("10.0.0.0/24")
P2 = Prefix.parse("10.0.1.0/24")


def rels_of(*edges):
    """The table of the ``(a, b, kind)`` edges."""
    return RelationshipTable.of(
        p2c=[(a, b) for a, b, kind in edges if kind is RelKind.P2C],
        p2p=[(a, b) for a, b, kind in edges if kind is RelKind.P2P],
    )


def traces_of(routes):
    """``Traces`` of one row per route, each collapsed and stored as its
    lead AS over its tail, the tails interned by value."""
    traces, index = Traces(), {}
    for route in map(collapse_prepending, routes):
        traces.lead.append(route[0])
        traces.tail_ix.append(index.setdefault(route[1:], len(index)))
    traces.tails.extend(index)
    return traces


def test_parse_traceroutes():
    traces, rejections = td.parse_traceroutes(
        [
            "# header",
            "probe-1|10.0.0.0/24|50 50 60 900",
            "probe-2|bogus|50 60",
            "probe-3|10.0.0.1/24|50 60",  # host bits set
            "probe-4|10.0.0.0/24|50 {60,70}",
        ]
    )
    assert Counter(traces) == Counter({(50, 60, 900): 1})  # consecutive duplicates collapsed
    assert [(r.file, r.line, r.category) for r in rejections] == [
        ("traceroutes.txt", 3, "unparsable prefix"),
        ("traceroutes.txt", 4, "unparsable prefix"),
        ("traceroutes.txt", 5, "as-set"),
    ]
    with pytest.raises(ParseError):
        td.parse_traceroutes(["only|two"])


def test_parse_traceroutes_rejects_each_repeated_bad_row():
    traces, rejections = td.parse_traceroutes(
        [
            "probe-1|bogus|50 60",
            "probe-2|bogus|50 60",
            "probe-1|10.0.0.0/24|50 x",
            "probe-2|10.0.1.0/24|50 x",
            "probe-3|10.0.0.0/24|50 60",
            "probe-4|10.0.0.0/24|60",
            "probe-5|10.0.1.0/24|50 50 60",
        ]
    )
    assert [(r.line, r.category) for r in rejections] == [
        (1, "unparsable prefix"),
        (2, "unparsable prefix"),
        (3, "malformed ASN"),
        (4, "malformed ASN"),
    ]
    assert Counter(traces) == Counter({(50, 60): 2, (60,): 1})  # rows of one route, counted
    with pytest.raises(ParseError, match="^traceroutes.txt line 2: "):
        td.parse_traceroutes(["probe-1|bogus|50", "only|two"])


def test_toy_candidate_verdicts():
    topo = synth_oracle.preset_topology("toy-fig1")
    files = synth_oracle.emit_files(topo, synth_oracle.propagate_routes(topo))
    files["memberships.csv"] = "fac-1,CU,101\nfac-1,CU,102\nfac-2,US,103\nfac-3,CU,104\nfac-3,CU,10\n"
    sub = pipeline.build_substrate(ingest.load_bundle_from_texts(files))
    results = pipeline.candidate_results(sub, "CU", origination_floor=Fraction(0))
    assert [r.failed_tests for r in results] == [
        (),
        (),
        (td.TEST_FOREIGN_FACILITY,),
        (td.TEST_FOREIGN_FACILITY_MEMBER,),
    ]


def test_the_origination_floor_keeps_an_origin_at_it_and_leaves_one_below_it_out():
    # the toy's domestic origins hold 3/8 (AS 101), 1/8 (102) and 1/4 (103, 104) of CU
    topo = synth_oracle.preset_topology("toy-fig1")
    files = synth_oracle.emit_files(topo, synth_oracle.propagate_routes(topo))
    sub = pipeline.build_substrate(ingest.load_bundle_from_texts(files))
    just_above = Fraction(1, 8) + Fraction(1, 2**40)  # AS 102 holds just below it
    floors = {Fraction(1, 8): [101, 102, 103, 104], just_above: [101, 103, 104]}
    floors[Fraction(3, 8)] = [101]
    for floor, kept in floors.items():
        assert [r.asn for r in pipeline.candidate_results(sub, "CU", floor)] == kept, floor


def test_candidate_passes_when_fully_domestic():
    nationality = Nationality({900: "CU", 901: "CU"})
    rels = rels_of((901, 900, RelKind.P2P))
    facilities = td.FacilityIndex([("fac-1", "CU", 900), ("fac-1", "CU", 901)], nationality)
    result = td.classify_candidate(900, rels.peers_of(900), facilities, nationality)
    assert result.candidate
    assert result.failed_tests == ()


def test_candidate_fails_on_foreign_peer():
    nationality = Nationality({900: "CU"})
    rels = rels_of((50, 900, RelKind.P2P))
    facilities = td.FacilityIndex([], nationality)
    result = td.classify_candidate(900, rels.peers_of(900), facilities, nationality)
    assert not result.candidate
    assert td.TEST_FOREIGN_PEER in result.failed_tests


def test_candidate_fails_on_foreign_facility():
    nationality = Nationality({900: "CU"})
    facilities = td.FacilityIndex([("fac-1", "US", 900)], nationality)
    result = td.classify_candidate(900, (), facilities, nationality)
    assert result.failed_tests == (td.TEST_FOREIGN_FACILITY,)


def test_candidate_fails_on_foreign_facility_member():
    nationality = Nationality({900: "CU"})
    facilities = td.FacilityIndex([("fac-1", "CU", 900), ("fac-1", "CU", 77)], nationality)
    result = td.classify_candidate(900, (), facilities, nationality)
    assert result.failed_tests == (td.TEST_FOREIGN_FACILITY_MEMBER,)


def test_candidate_requires_domestic_nationality():
    nationality = Nationality({})
    result = td.classify_candidate(900, (), td.FacilityIndex([], nationality), nationality)
    assert result.failed_tests == (td.TEST_NO_NATIONALITY,)


def _scanned_candidate(origin, rels, memberships, nationality):
    """The candidate tests as three literal scans of every membership row."""
    home = nationality.domestic_country(origin)
    if home is None:
        return td.CandidateResult(origin, False, (td.TEST_NO_NATIONALITY,))
    failed = []
    if any(nationality.domestic_country(peer) != home for peer in rels.peers_of(origin)):
        failed.append(td.TEST_FOREIGN_PEER)
    own = {facility for facility, _country, asn in memberships if asn == origin}
    if any(facility in own and country != home for facility, country, _asn in memberships):
        failed.append(td.TEST_FOREIGN_FACILITY)
    if any(
        facility in own and member != origin and nationality.domestic_country(member) != home
        for facility, _country, member in memberships
    ):
        failed.append(td.TEST_FOREIGN_FACILITY_MEMBER)
    return td.CandidateResult(origin, not failed, tuple(failed))


_ASNS = st.integers(1, 7)
_LABELS = st.sampled_from(["AA", "BB", None])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["f1", "f2", "f3"]), st.sampled_from(["AA", "BB"]), _ASNS)),
    st.dictionaries(_ASNS, _LABELS),
    st.lists(st.tuples(_ASNS, _ASNS), max_size=6),
)
def test_candidate_index_equals_the_row_scans(memberships, labels, peerings):
    nationality = Nationality(labels)
    rels = rels_of(*((a, b, RelKind.P2P) for a, b in peerings if a != b))
    facilities = td.FacilityIndex(memberships, nationality)
    for origin in range(1, 8):
        expected = _scanned_candidate(origin, rels, memberships, nationality)
        peers = rels.peers_of(origin)
        assert td.classify_candidate(origin, peers, facilities, nationality) == expected


def test_find_border():
    nationality = Nationality({900: "CU", 800: "CU"})
    rels = rels_of((50, 800, RelKind.P2C))
    border = td.find_border((60, 50, 800, 900), nationality, "CU")
    assert border == (50, 800)
    assert rels.is_p2c(*border)

    domestic_only = (800, 900)
    assert td.find_border(domestic_only, nationality, "CU") is None

    ends_foreign = (800, 50)
    assert td.find_border(ends_foreign, nationality, "CU") is None


def test_find_border_uses_last_foreign_hop():
    # re-entry: foreign 50, domestic 800, foreign 60, domestic 900
    nationality = Nationality({800: "CU", 900: "CU"})
    border = td.find_border((50, 800, 60, 900), nationality, "CU")
    assert border == (60, 900)


def test_transit_fraction_worked_example():
    # origin 900 holds half of CU's addresses; half of its traces enter via
    # a foreign p2c crossing -> contribution 1/4
    geo, _ = build_geo_table([(P1, "CU", 256), (P2, "CU", 256)], [], {P1: 900, P2: 901})
    nationality = Nationality({900: "CU", 901: "CU"})
    rels = rels_of((50, 900, RelKind.P2C), (60, 900, RelKind.P2P))
    traces = traces_of(
        [
            (50, 900),  # p2c crossing
            (60, 900),  # peer crossing: not counted
        ]
    )
    assert td.compute_transit_fraction(traces, rels, nationality, geo, "CU") == Fraction(1, 4)


def test_transit_fraction_ignores_foreign_destinations():
    geo, _ = build_geo_table([(P1, "CU", 256)], [], {P1: 900})
    nationality = Nationality({900: "CU"})
    rels = rels_of((50, 77, RelKind.P2C))
    traces = traces_of([(50, 77)])
    assert td.compute_transit_fraction(traces, rels, nationality, geo, "CU") == 0


def test_dominance_threshold_is_inclusive():
    assert td.classify_transit_dominant(Fraction(12, 25))
    assert td.classify_transit_dominant(Fraction(1, 2))
    assert not td.classify_transit_dominant(Fraction(12, 25) - Fraction(1, 10**9))
