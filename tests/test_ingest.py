import gc
import ipaddress
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cti import ingest, pipeline, synth_oracle, transit_dominance
from cti.model import MonitorId, ParseError, PathRecord, Prefix, Rejection, RelKind

MONITORS = {
    "m1": MonitorId("m1", 10, "US"),
    "m2": MonitorId("m2", 20, "DE"),
}


def test_parse_paths_basic():
    records, rejections = ingest.parse_paths(
        ["# comment", "", "m1|10.0.0.0/24|10 20 30"], MONITORS
    )
    assert rejections == []
    assert len(records) == 1
    assert records[0].hops == (10, 20, 30)
    assert records[0].monitor is MONITORS["m1"]


@pytest.mark.parametrize(
    "line,reason",
    [
        ("mX|10.0.0.0/24|10 20", "unknown monitor"),
        ("m1|10.0.0.0/24|10 {20,30}", "as-set"),
        ("m1|10.0.0.0/25|10 20", "length>24"),
        ("m1|bogus|10 20", "unparsable prefix"),
        ("m1|length|10 20", "unparsable prefix"),
        ("m1|10.0.0.1/24|10 20", "unparsable prefix"),  # host bits set
        ("m1|10.0.0.0/255.255.255.0|10 20", "unparsable prefix"),
        ("m1|10.0.0.0/33|10 20", "unparsable prefix"),
        ("m1|10.0.0.0/24|10 x", "malformed ASN"),
        ("m1|10.0.0.0/24|\u0661\u0660 20", "malformed ASN"),  # Arabic-Indic 10
        ("m1|10.0.0.0/24|", "empty path"),
    ],
)
def test_parse_paths_rejections(line, reason):
    records, rejections = ingest.parse_paths([line], MONITORS)
    assert list(records) == []
    assert rejections == [Rejection("paths.txt", 1, reason, line)]


# Rows between a conflicting (m1, 10.0.0.0/24) pair: blank, comment and
# whitespace-padded lines, identical duplicates (one in other text) and
# rejected rows.
_CONFLICT = [
    "m1|10.0.0.0/24|10 20",
    "",
    "# comment",
    "   ",
    "  m1|10.0.0.0/24|10 20  ",
    "m1|10.0.0.0/24|10  020",
    "mX|10.0.0.0/24|10 30",
    "m1|10.0.0.0/24|10 x",
    "\tm1|10.0.0.0/24|10 30",
]
_CONFLICT_ERROR = "paths.txt line 9: conflicting paths for (m1, 10.0.0.0/24) at lines 1 and 9"
_SHORT_ROW = "m2|10.0.1.0/24"


@pytest.mark.parametrize(
    "lines,error",
    [
        (_CONFLICT, _CONFLICT_ERROR),
        (_CONFLICT + [_SHORT_ROW], _CONFLICT_ERROR),
        (
            ["", "# c", _SHORT_ROW] + _CONFLICT,
            "paths.txt line 3: expected monitor_id|prefix|hops, got 'm2|10.0.1.0/24'",
        ),
    ],
    ids=["conflict", "short-row-after", "short-row-before"],
)
def test_parse_paths_reports_the_first_error_in_file_order(lines, error):
    with pytest.raises(ParseError) as raised:
        ingest.parse_paths(lines, MONITORS)
    assert str(raised.value) == error


def test_parse_paths_counts_blank_comment_and_padded_lines():
    records, rejections = ingest.parse_paths(_CONFLICT[:-1] + ["  m2|10.0.0.0/24|20 30"], MONITORS)
    assert [(r.monitor.id, r.hops) for r in records] == [("m1", (10, 20)), ("m2", (20, 30))]
    assert rejections == [
        Rejection("paths.txt", 7, "unknown monitor", "mX|10.0.0.0/24|10 30"),
        Rejection("paths.txt", 8, "malformed ASN", "m1|10.0.0.0/24|10 x"),
    ]
    assert list(records.line_no) == [1, 9]


@pytest.mark.parametrize(
    "lines,error",
    [
        (
            ["t-m1|bogus|10 20", "", " # c", "t-m1|10.0.0.0/24|10", "t-m1|10.0.0.0/24"],
            "traceroutes.txt line 5: expected probe_id|prefix|hops, got 't-m1|10.0.0.0/24'",
        ),
        (
            ["t-m1|10.0.0.0/24"] + ["t-m1|bogus|10 20"] * 2,
            "traceroutes.txt line 1: expected probe_id|prefix|hops, got 't-m1|10.0.0.0/24'",
        ),
    ],
    ids=["after-rejections", "before-rejections"],
)
def test_parse_traceroutes_reports_the_first_error_in_file_order(lines, error):
    with pytest.raises(ParseError) as raised:
        transit_dominance.parse_traceroutes(lines)
    assert str(raised.value) == error


def test_parse_traceroutes_counts_blank_comment_and_padded_lines():
    lines = ["t-m1|10.0.0.0/24|10 20 20", "", "# c", "  t-m1|10.0.1.0/24|10 20  ", "\tt-m1|bogus|10 20"]
    traces, rejections = transit_dominance.parse_traceroutes(lines)
    assert Counter(traces) == Counter({(10, 20): 2})
    assert rejections == [
        Rejection("traceroutes.txt", 5, "unparsable prefix", "t-m1|bogus|10 20")
    ]


@pytest.mark.parametrize(
    "fields,reason",
    [
        ("bogus|5 {6}", "as-set"),
        ("10.0.0.0/24|5 {6}", "as-set"),
        ("bogus|5 x", "unparsable prefix"),
        ("bogus|", "unparsable prefix"),
        ("10.0.0.0/24|5 x", "malformed ASN"),
        ("10.0.0.0/24|", "empty path"),
    ],
)
def test_both_path_files_name_the_first_reason_in_one_order(fields, reason):
    _corpus, rejections = ingest.parse_paths([f"m1|{fields}"], MONITORS)
    assert [r.category for r in rejections] == [reason]
    _counts, rejections = transit_dominance.parse_traceroutes([f"t-m1|{fields}"])
    assert [r.category for r in rejections] == [reason]


def _collapsed_counts(hop_texts):
    """The rows of each route, each row's hops collapsed by the oracle's
    literal collapse."""
    return Counter(
        tuple(synth_oracle._oracle_collapse([int(token) for token in text.split()]))
        for text in hop_texts
    )


@pytest.mark.parametrize(
    "hop_texts",
    [
        ["5 6", "5  6", "5\t6", "5 5 6"],  # one route value written four ways
        # a lead AS that the tail repeats collapses into the tail
        ["7 7 8", "7 8", "9 7 7 8", "7 7", "7", "7 8 8"],
    ],
    ids=["one-value", "lead-into-tail"],
)
def test_parse_traceroutes_counts_each_route_value(hop_texts):
    lines = [f"t-m1|10.0.{i}.0/24|{text}" for i, text in enumerate(hop_texts)]
    traces, rejections = ingest.parse_traceroutes(lines)
    assert rejections == []
    assert Counter(traces) == _collapsed_counts(hop_texts)


def test_a_traceroute_row_with_a_bad_prefix_and_a_bad_route_keeps_its_reason():
    lines = [
        "t-m1|bogus|5 {6}",
        "t-m1|10.0.0.0/24|5 6",
        "t-m1|bogus|5 x",
        "# c",
        "t-m1|bogus|{5} 6",
        "t-m1|bogus|x 6",
        "t-m1|10.0.0.0/24|5 {6}",
        "t-m1|bogus|5 6",
        "t-m1|10.0.0.0/24|x 6",
    ]
    traces, rejections = ingest.parse_traceroutes(lines)
    assert Counter(traces) == _collapsed_counts(["5 6"])
    # AS-set braces first, then a bad prefix, then a bad route
    expected = [
        (1, "as-set"),
        (3, "unparsable prefix"),
        (5, "as-set"),
        (6, "unparsable prefix"),
        (7, "as-set"),
        (8, "unparsable prefix"),
        (9, "malformed ASN"),
    ]
    assert rejections == [
        Rejection("traceroutes.txt", line, reason, lines[line - 1]) for line, reason in expected
    ]


def test_parse_paths_multi_origin_exclusion():
    excluded = frozenset({Prefix.parse("10.0.0.0/24")})
    records, rejections = ingest.parse_paths(
        ["m1|10.0.0.0/24|10 20", "m1|10.0.1.0/24|10 20"], MONITORS, excluded
    )
    assert [r.category for r in rejections] == ["multi-origin prefix"]
    assert len(records) == 1


def _cell_rows(n_monitors, spread):
    """One row per (monitor, prefix) of three prefixes, with the monitors:
    monitor by monitor, so that each prefix's rows are spread across the
    file, or prefix by prefix."""
    monitors = {f"m{i}": MonitorId(f"m{i}", 10 + i, "US") for i in range(n_monitors)}
    if spread:
        cells = [(i, p) for i in range(n_monitors) for p in range(3)]
    else:
        cells = [(i, p) for p in range(3) for i in range(n_monitors)]
    return [f"m{i}|10.0.{p}.0/24|{10 + i} {p + 100}" for i, p in cells], monitors


def test_parse_paths_duplicates():
    records, _ = ingest.parse_paths(
        ["m1|10.0.0.0/24|10 20", "m1|10.0.0.0/24|10 20"], MONITORS
    )
    assert len(records) == 1
    with pytest.raises(ParseError, match="lines 1 and 2"):
        ingest.parse_paths(["m1|10.0.0.0/24|10 20", "m1|10.0.0.0/24|10 30"], MONITORS)
    # 70 monitors: a prefix's kept rows take more bits than one machine word
    lines, monitors = _cell_rows(70, spread=True)
    records, _ = ingest.parse_paths([*lines, lines[-1], lines[193], lines[1]], monitors)
    assert len(records) == 210
    for row in (0, 189, 192, 209):  # monitors 0, 63, 64 and 69
        conflict = lines[row].replace(" 10", " 99")
        with pytest.raises(ParseError, match=f"lines {row + 1} and 211$"):
            ingest.parse_paths([*lines, conflict], monitors)


def test_a_duplicate_finds_its_first_row_before_and_after_the_first_repeat():
    # 9 monitors with each prefix's rows together, and 70 monitors, past one
    # machine word of bits per prefix, with each prefix's rows spread out
    for lines, monitors in (_cell_rows(9, spread=False), _cell_rows(70, spread=True)):
        records, _ = ingest.parse_paths(lines + lines[::-1] + lines, monitors)
        assert list(records) == list(ingest.parse_paths(lines, monitors)[0])
        # line 2 is the first repeat; the rows of lines 3-n are kept after it
        lines = [lines[0], lines[0], *lines[1:]]
        n = len(lines)
        for line_no in (1, 3, 15, n - 3, n):
            conflict = lines[line_no - 1].replace(" 10", " 99")
            with pytest.raises(ParseError) as raised:
                ingest.parse_paths([*lines, conflict], monitors)
            assert str(raised.value).endswith(f"at lines {line_no} and {n + 1}")


def test_repeated_bad_rows_are_each_rejected():
    lines = [
        "m1|bogus|10 20",
        "m2|bogus|10 20",
        "m1|10.0.0.0/24|10 x",
        "m1|10.0.1.0/24|10 x",
        "m2|10.0.0.0/25|10 20",
        "m1|10.0.0.0/25|10 20",
    ]
    records, rejections = ingest.parse_paths(lines, MONITORS)
    assert list(records) == []
    assert [(r.line, r.category) for r in rejections] == [
        (1, "unparsable prefix"),
        (2, "unparsable prefix"),
        (3, "malformed ASN"),
        (4, "malformed ASN"),
        (5, "length>24"),
        (6, "length>24"),
    ]


def test_repeated_prefix_texts_share_one_prefix():
    records, _ = ingest.parse_paths(
        ["m1|10.0.0.0/24|10 20", "m2|10.0.0.0/24|20 30", "m2|10.0.1.0/24|20 30"], MONITORS
    )
    first, second, other = (r.prefix for r in records)
    assert first == second == Prefix.parse("10.0.0.0/24")
    assert first is second
    assert other == Prefix.parse("10.0.1.0/24")
    # a prefix has one text: another text for it rejects its row
    records, rejections = ingest.parse_paths(["m1|10.0.0.7/24|10 20", "m1|10.0.0.0/24|10 30"], MONITORS)
    assert [r.hops for r in records] == [(10, 30)]
    assert [(r.line, r.category) for r in rejections] == [(1, "unparsable prefix")]


def test_parse_paths_malformed_structure():
    with pytest.raises(ParseError):
        ingest.parse_paths(["just one field"], MONITORS)


def test_parse_relationships():
    table = ingest.parse_relationships(["1|2|-1", "2|3|0"])
    assert table.is_p2c(1, 2)
    assert table.peers_of(2) == frozenset({3}) and not table.is_p2c(2, 3)
    with pytest.raises(ParseError):
        ingest.parse_relationships(["1|1|0"])
    with pytest.raises(ParseError):
        ingest.parse_relationships(["1|2|7"])
    with pytest.raises(ParseError):
        ingest.parse_relationships(["1|2|-1", "2|1|-1"])


def test_parse_relationships_repeats():
    # a peer link listed both ways round is one link
    table = ingest.parse_relationships(["1|2|0", "2|1|0", "1|2|0"])
    assert sorted(table) == [(1, 2, RelKind.P2P)]
    assert table.peers_of(1) == frozenset({2}) and table.peers_of(2) == frozenset({1})
    assert sorted(ingest.parse_relationships(["1|2|-1", "1|2|-1"])) == [(1, 2, RelKind.P2C)]
    # a p2c row that reverses an earlier one, or turns it into peering, conflicts
    for lines in (["1|2|-1", "2|1|-1"], ["1|2|0", "2|1|-1"], ["2|1|-1", "1|2|0"]):
        with pytest.raises(ParseError, match="line 2: conflicting relationship"):
            ingest.parse_relationships(lines)


def test_parse_geo_and_delegations():
    geo_rows, delegations, rejections = ingest.parse_geo_and_delegations(
        ["10.0.0.0/24,CU,256", "10.0.1.0/24,xx,256"],
        [
            "arin|US|ipv4|10.0.0.0|512|20000101|allocated",
            "arin|US|asn|64500|1|20000101|allocated",
            "arin|zz|ipv4|10.1.0.0|256|20000101|allocated",
        ],
    )
    assert geo_rows == [(Prefix.parse("10.0.0.0/24"), "CU", 256)]
    assert delegations == [("US", 10 << 24, 512)]
    assert rejections == [
        Rejection("geo.csv", 2, "unparsable country code", "10.0.1.0/24,xx,256"),
        Rejection(
            "delegations.txt", 3, "unparsable country code", "arin|zz|ipv4|10.1.0.0|256|20000101|allocated"
        ),
    ]


def test_rejections_from_different_files_read_differently():
    _geo, _delegations, rejections = ingest.parse_geo_and_delegations(
        ["10.0.0.0/24,CU,256", "10.0.1.0/24,xx,256"],
        ["arin|US|ipv4|10.0.0.0|512|20000101|allocated", "arin|xx|ipv4|10.1.0.0|256|20000101|allocated"],
    )
    assert [(r.file, r.line, r.category) for r in rejections] == [
        ("geo.csv", 2, "unparsable country code"),
        ("delegations.txt", 2, "unparsable country code"),
    ]
    assert rejections[0] != rejections[1]


def test_geo_count_exceeding_capacity_is_hard_error():
    with pytest.raises(ParseError, match="capacity"):
        ingest.parse_geo_and_delegations(["10.0.0.0/24,CU,257"], [])


def test_a_repeated_input_key_must_repeat_its_value():
    geo_rows, _delegations, _rejections = ingest.parse_geo_and_delegations(
        ["10.0.0.0/23,CU,500", "10.0.0.0/23,DE,100", "10.0.0.0/23,CU,500"], []
    )
    assert {row[1:] for row in geo_rows} == {("CU", 500), ("DE", 100)}
    aux = ingest.parse_aux_tables(
        org_reader=["100|org-1", "100|org-1"], hegemony_reader=["100,200,1/2", "100,200,0.5"]
    )
    assert aux.org_of == {100: "org-1"} and aux.hegemony == {(100, 200): Fraction(1, 2)}
    with pytest.raises(ParseError, match=r"^geo.csv line 3: .* 10.0.0.0/23,CU at lines 1 and 3"):
        ingest.parse_geo_and_delegations(
            ["10.0.0.0/23,CU,100", "10.0.0.0/23,DE,100", "10.0.0.0/23,CU,500"], []
        )


def test_parse_monitors():
    monitors = ingest.parse_monitors(["m1,10,US", "m2,20,DE"])
    assert monitors["m2"] == MonitorId("m2", 20, "DE")
    with pytest.raises(ParseError, match="duplicate"):
        ingest.parse_monitors(["m1,10,US", "m1,11,US"])
    with pytest.raises(ParseError):
        ingest.parse_monitors(["m1,0,US"])
    with pytest.raises(ParseError):
        ingest.parse_monitors(["m1,10,usa"])
    # an id that no paths.txt row can name: a path row is split on "|" and
    # stripped, so its monitor field is never padded
    for row in (",10,US", "a|b,10,US", "m1 ,10,US", "m1\t,10,US"):
        with pytest.raises(ParseError, match="^monitors.csv line 2: monitor id"):
            ingest.parse_monitors(["m2,20,DE", row])


def test_parse_aux_tables():
    aux = ingest.parse_aux_tables(
        state_owned_reader=["100,CU"],
        org_reader=["100|org-1"],
        membership_reader=["fac-1,US,100"],
        hegemony_reader=["100,200,0.25", "100,300,1.5"],
        clique_reader=["10", "20"],
        multi_origin_reader=["10.9.0.0/24"],
    )
    assert aux.state_owned == [(100, "CU")]
    assert aux.org_of == {100: "org-1"}
    assert aux.memberships == [("fac-1", "US", 100)]
    assert aux.hegemony == {(100, 200): Fraction(1, 4)}
    assert aux.rejections == [
        Rejection("hegemony.csv", 2, "hegemony score outside [0,1]", "100,300,1.5")
    ]
    assert aux.clique == frozenset({10, 20})
    assert Prefix.parse("10.9.0.0/24") in aux.multi_origin


@pytest.mark.parametrize(
    "score, kept",
    [
        ("0", True),
        ("-0", True),
        ("0/7", True),
        ("1", True),
        ("2/2", True),
        ("1.000", True),
        ("-1/1000", False),
        ("1.001", False),
        ("1001/1000", False),
        # not a number of the grammar: the file is malformed
        ("1_0/2_0", None),
        (" 1e-1", None),
        ("1e-1", None),
        ("1/0", None),
        ("\u0661/\u0662", None),
    ],
)
def test_hegemony_scores_are_kept_exactly_when_in_the_unit_interval(score, kept):
    lines = [f"100,200,{score}", f"100,300,{score}"]
    if kept is None:
        with pytest.raises(ParseError, match=f"^hegemony.csv line 1: malformed number '{score}'$"):
            ingest.parse_aux_tables(hegemony_reader=lines)
        return
    aux = ingest.parse_aux_tables(hegemony_reader=lines)
    assert aux.hegemony == ({(100, 200): Fraction(score), (100, 300): Fraction(score)} if kept else {})
    assert [r.line for r in aux.rejections] == ([] if kept else [1, 2])


def test_delegation_base_must_be_a_dotted_quad():
    for base in ("10.0.0.0", "0.0.0.0", "255.255.255.255"):
        _geo, delegations, _rej = ingest.parse_geo_and_delegations(
            [], [f"r|US|ipv4|{base}|256|20200101|allocated"]
        )
        assert delegations == [("US", int(ipaddress.IPv4Address(base)), 256)]
    for base in ("010.0.0.0", "10.0.0", "10.0.0.256", " 10.0.0.0", "10.0.0.0/8", "\u0661.0.0.0"):
        with pytest.raises(ParseError, match="malformed base address"):
            ingest.parse_geo_and_delegations([], [f"r|US|ipv4|{base}|256|20200101|allocated"])


def test_parse_reserved_asns():
    assert ingest.parse_reserved_asns(["23456", "0"]) == frozenset({23456, 0})
    with pytest.raises(ParseError):
        ingest.parse_reserved_asns(["abc"])


def test_load_bundle_from_texts_requires_core_files():
    files = {
        "paths.txt": "m1|10.0.0.0/24|10 20\n",
        "relationships.txt": "10|20|-1\n",
        "geo.csv": "10.0.0.0/24,CU,256\n",
        "monitors.csv": "m1,10,US\n",
    }
    bundle = ingest.load_bundle_from_texts(files)
    assert len(bundle.paths) == 1
    assert list(bundle.relationships) == [(10, 20, RelKind.P2C)]
    for required in ("paths.txt", "relationships.txt", "geo.csv", "monitors.csv"):
        broken = dict(files)
        del broken[required]
        with pytest.raises(FileNotFoundError):
            ingest.load_bundle_from_texts(broken)


def test_load_bundle_from_directory(tmp_path):
    (tmp_path / "paths.txt").write_text("m1|10.0.0.0/24|10 20\n")
    (tmp_path / "relationships.txt").write_text("10|20|-1\n")
    (tmp_path / "geo.csv").write_text("10.0.0.0/24,CU,256\n")
    (tmp_path / "monitors.csv").write_text("m1,10,US\n")
    bundle = ingest.load_bundle(str(tmp_path))
    assert bundle.paths[0].hops == (10, 20)
    (tmp_path / "geo.csv").unlink()
    with pytest.raises(FileNotFoundError):
        ingest.load_bundle(str(tmp_path))


# Three files that every bundle needs besides paths.txt.
_CORE_FILES = {
    "relationships.txt": "10|20|-1\n",
    "geo.csv": "10.0.0.0/24,CU,256\n",
    "monitors.csv": "m1,10,US\n",
}


def _write_files(directory, files):
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8", newline="")


def test_the_bundle_keeps_the_traceroute_rejections():
    traceroutes = "t-m1|10.0.0.0/24|10 20\nt-m1|bogus|10 20\n# c\nt-m1|10.0.0.0/24|10 x\n"
    files = {**_CORE_FILES, "paths.txt": "", "traceroutes.txt": traceroutes}
    bundle = ingest.load_bundle_from_texts(files, ("relationships", "traceroutes"))
    assert Counter(bundle.traceroutes) == Counter({(10, 20): 1})
    assert bundle.traceroute_rejections == [
        Rejection("traceroutes.txt", 2, "unparsable prefix", "t-m1|bogus|10 20"),
        Rejection("traceroutes.txt", 4, "malformed ASN", "t-m1|10.0.0.0/24|10 x"),
    ]
    assert ingest.load_bundle_from_texts(files).traceroute_rejections == []


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_file_and_its_text_split_lines_alike(tmp_path, end):
    # str.splitlines would also end a line at the form feed and at U+2028
    comment = "# a\fcomment\u2028on one line"
    paths = end.join(["m1|10.0.0.0/24|10 20", comment, "m1|10.0.1.0/24", ""])
    traceroutes = end.join(["t-m1|10.0.0.0/24|10 20", comment, "t-m1|10.0.1.0/24", ""])
    files = {**_CORE_FILES, "paths.txt": paths, "traceroutes.txt": traceroutes}
    _write_files(tmp_path, files)
    error = "paths.txt line 3: expected monitor_id|prefix|hops, got 'm1|10.0.1.0/24'"
    for load, source in ((ingest.load_bundle, str(tmp_path)), (ingest.load_bundle_from_texts, files)):
        with pytest.raises(ParseError) as raised:
            load(source)
        assert str(raised.value) == error
    error = "traceroutes.txt line 3: expected probe_id|prefix|hops, got 't-m1|10.0.1.0/24'"
    with open(tmp_path / "traceroutes.txt", encoding="utf-8") as handle:
        for lines in (handle, ingest.split_lines(traceroutes)):
            with pytest.raises(ParseError) as raised:
                transit_dominance.parse_traceroutes(lines)
            assert str(raised.value) == error


def test_load_bundle_closes_every_file_when_a_parse_fails(tmp_path, monkeypatch):
    rows = [f"m1|10.0.{i}.0/24|10 20" for i in range(2000)]
    rows[1000] = "m1|10.0.0.0/24"
    _write_files(tmp_path, {**_CORE_FILES, "paths.txt": "\n".join(rows), "clique.txt": "10\n"})
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(ingest, "open", recording_open, raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(ParseError, match="paths.txt line 1001: expected"):
            ingest.load_bundle(str(tmp_path))
    assert len(opened) == 5 and all(handle.closed for handle in opened)


def _generated_instance(directory):
    """A 6,784-path generated instance written to ``directory``; no path
    has a prepended, looping or poisoned route."""
    params = synth_oracle.SynthParams(n_clique=4, n_mid=30, n_stub=200, n_monitors=16)
    topo = synth_oracle.generate_topology(7, params)
    _write_files(directory, synth_oracle.emit_files(topo, synth_oracle.propagate_routes(topo)))


def test_load_bundle_streams_its_files(tmp_path):
    """While it parses, load_bundle holds less than half the bundle's size
    besides the bundle: no whole file, and no per-row entry beyond the
    parsed columns but a bit per (prefix, monitor) and a line number."""
    _generated_instance(tmp_path)
    ingest.load_bundle(str(tmp_path))  # first-call caches are not the bundle's
    if tracing := not tracemalloc.is_tracing():
        tracemalloc.start()
    try:
        start, _peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        bundle = ingest.load_bundle(str(tmp_path))
        end, peak = tracemalloc.get_traced_memory()
    finally:
        if tracing:
            tracemalloc.stop()
    assert len(bundle.paths) == 6784
    assert peak - end < (end - start) / 2


# Bytes per path row that the corpus of parse_paths may keep. On the 6,784-path
# generated instance a route table with list columns kept 91 bytes per row,
# and five array("I") columns over the interned tails keep 38.
CORPUS_BYTES_PER_ROW = 45


def test_parse_paths_keeps_five_4_byte_columns_per_row(tmp_path):
    _generated_instance(tmp_path)
    monitors = ingest.parse_monitors(ingest.split_lines((tmp_path / "monitors.csv").read_text()))
    lines = ingest.split_lines((tmp_path / "paths.txt").read_text(encoding="utf-8"))
    ingest.parse_paths(lines, monitors)  # first-call caches are not the corpus's
    gc.collect()
    if tracing := not tracemalloc.is_tracing():
        tracemalloc.start()
    try:
        start, _peak = tracemalloc.get_traced_memory()
        corpus, rejections = ingest.parse_paths(lines, monitors)
        end, _peak = tracemalloc.get_traced_memory()
    finally:
        if tracing:
            tracemalloc.stop()
    assert len(corpus) == 6784 and not rejections
    assert end - start < CORPUS_BYTES_PER_ROW * len(corpus)


# Bytes per trace row that parse_traceroutes may peak above its start. On the
# 6,784-path generated instance it peaked 122 bytes per row with a memo per
# distinct hop text, and 79 bytes with a memo per distinct tail text only.
TRACE_BYTES_PER_ROW = 100


def test_parse_traceroutes_keeps_no_memo_per_hop_text(tmp_path):
    _generated_instance(tmp_path)
    lines = ingest.split_lines((tmp_path / "traceroutes.txt").read_text(encoding="utf-8"))
    ingest.parse_traceroutes(lines)  # first-call caches are not the parse's
    # the tuples freed by that call would sit in CPython's free lists
    gc.collect()
    if tracing := not tracemalloc.is_tracing():
        tracemalloc.start()
    try:
        start, _peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        traces, rejections = ingest.parse_traceroutes(lines)
        _end, peak = tracemalloc.get_traced_memory()
    finally:
        if tracing:
            tracemalloc.stop()
    rows = len(traces)
    assert rows == 6784 and not rejections
    assert peak - start < TRACE_BYTES_PER_ROW * rows


def _kept_by(parse, lines):
    """What ``parse(lines)`` returns, and the bytes it keeps: the traced
    memory it holds on return above what was held before the call."""
    parse(lines)  # first-call caches are not the parse's
    gc.collect()
    if tracing := not tracemalloc.is_tracing():
        tracemalloc.start()
    try:
        start, _peak = tracemalloc.get_traced_memory()
        parsed = parse(lines)
        end, _peak = tracemalloc.get_traced_memory()
    finally:
        if tracing:
            tracemalloc.stop()
    return parsed, end - start


# Bytes per stored pair that the table of parse_relationships may keep, and
# per trace row that the traces of parse_traceroutes may keep. On the
# 6,784-path generated instance (2,536 pairs, 427 of them p2c), a dict of
# (a, b) pairs to their kinds kept 87.8 bytes per pair, and a count per
# collapsed route 60.8 bytes per trace row; packed pair keys keep 20.6, and
# two array("I") columns over the interned tails 18.8.
RELATIONSHIP_BYTES_PER_PAIR = 24
TRACE_KEPT_BYTES_PER_ROW = 24


def test_parse_relationships_keeps_packed_pair_keys(tmp_path):
    _generated_instance(tmp_path)
    lines = ingest.split_lines((tmp_path / "relationships.txt").read_text(encoding="utf-8"))
    table, kept = _kept_by(ingest.parse_relationships, lines)
    n_pairs = len(list(table))
    assert n_pairs == len(lines) - 1  # the last line is blank
    assert kept < RELATIONSHIP_BYTES_PER_PAIR * n_pairs


def test_parse_traceroutes_keeps_two_4_byte_columns_per_row(tmp_path):
    _generated_instance(tmp_path)
    lines = ingest.split_lines((tmp_path / "traceroutes.txt").read_text(encoding="utf-8"))
    (traces, rejections), kept = _kept_by(ingest.parse_traceroutes, lines)
    assert len(traces) == 6784 and not rejections
    assert kept < TRACE_KEPT_BYTES_PER_ROW * len(traces)


def _reference_tails(hop_texts):
    """The tails (the hops after the first) of the hop texts that parse whole,
    each value once, in the order of its first text, as ``parse_paths``
    interns them: a text with a bad token interns none."""
    tails = {}
    for text in hop_texts:
        try:
            hops = tuple(map(ingest.parse_asn_token, text.split()))
        except ValueError:
            continue
        if hops:
            tails.setdefault(hops[1:])
    return list(tails)


def _hop_texts(lines):
    """The hop text of each data line with three fields."""
    splits = (line.split("|") for _line_no, line in _data_lines(lines))
    return [fields[2] for fields in splits if len(fields) == 3]


def test_the_parsed_tails_of_a_generated_instance_are_the_interned_tails(tmp_path):
    _generated_instance(tmp_path)
    corpus = ingest.load_bundle(str(tmp_path)).paths
    lines = ingest.split_lines((tmp_path / "paths.txt").read_text(encoding="utf-8"))
    assert corpus.tails == _reference_tails(_hop_texts(lines))
    assert len(corpus.tails) < len({path.hops for path in corpus})


@pytest.mark.parametrize(
    "hop_texts,tails",
    [
        # a malformed lead over a good tail: the tail of no kept route
        (["x 20", "10 30", "5 20"], ([(30,), (20,)], [0, 1])),
        (["{5} 20", "5 x", "20"], ([()], [0])),
        # three texts of one tail value
        (["5 6", "5  06", "5\t6"], ([(6,)], [0, 0, 0])),
        (["5", "07"], ([()], [0, 0])),  # single-hop routes
    ],
)
def test_the_parsed_tails_are_interned_by_value_for_the_kept_routes(hop_texts, tails):
    lines = [f"m1|10.0.{p}.0/24|{text}" for p, text in enumerate(hop_texts)]
    corpus, _rejections = ingest.parse_paths(lines, MONITORS)
    assert (corpus.tails, list(corpus.tail_ix)) == tails
    assert corpus.tails == _reference_tails(hop_texts)
    routes = [(lead, *corpus.tails[t]) for lead, t in zip(corpus.lead, corpus.tail_ix)]
    assert routes == [path.hops for path in corpus]


def test_a_clean_corpus_keeps_its_route_column(tmp_path):
    _generated_instance(tmp_path)
    bundle = ingest.load_bundle(str(tmp_path))
    sanitized = pipeline.build_substrate(bundle).sanitized
    assert sanitized.lead is bundle.paths.lead
    assert sanitized.tail_ix is bundle.paths.tail_ix
    assert sanitized.tails is bundle.paths.tails


def _data_lines(lines):
    """(line number, stripped line) of each line that is not blank or a comment."""
    stripped = ((line_no, raw.strip()) for line_no, raw in enumerate(lines, start=1))
    return [(line_no, line) for line_no, line in stripped if line and not line.startswith("#")]


def _reference_parse_paths(lines, monitors, multi_origin=frozenset()):
    """Row-by-row parse with no memo: every field validated from scratch. The
    kept rows come as (line, record) pairs."""
    records, rejections, seen = [], [], {}
    for line_no, line in _data_lines(lines):
        parts = line.split("|")
        if len(parts) != 3:
            raise ParseError(f"paths.txt line {line_no}: expected monitor_id|prefix|hops, got {line!r}")
        monitor_id, prefix_text, hops_text = parts
        monitor = monitors.get(monitor_id)
        reason = None
        if monitor is None:
            reason = "unknown monitor"
        elif "{" in hops_text or "}" in hops_text:
            reason = "as-set"
        else:
            try:
                prefix = Prefix.parse(prefix_text)
            except ValueError as exc:
                reason = "length>24" if str(exc).startswith("prefix length") else "unparsable prefix"
        if reason is None and prefix in multi_origin:
            reason = "multi-origin prefix"
        if reason is None:
            try:
                hops = tuple(ingest.parse_asn_token(tok) for tok in hops_text.split())
            except ValueError:
                reason = "malformed ASN"
        if reason is None and not hops:
            reason = "empty path"
        if reason is not None:
            rejections.append(Rejection("paths.txt", line_no, reason, line))
            continue
        if (monitor_id, prefix) in seen:
            prev_hops, prev_line = seen[(monitor_id, prefix)]
            if prev_hops != hops:
                raise ParseError(
                    f"paths.txt line {line_no}: conflicting paths for ({monitor_id}, {prefix}) "
                    f"at lines {prev_line} and {line_no}"
                )
            continue
        seen[(monitor_id, prefix)] = (hops, line_no)
        records.append((line_no, PathRecord(monitor=monitor, prefix=prefix, hops=hops)))
    return records, rejections


def _reference_parse_traceroutes(lines):
    counts, rejections = Counter(), []
    for line_no, line in _data_lines(lines):
        parts = line.split("|")
        if len(parts) != 3:
            raise ParseError(f"traceroutes.txt line {line_no}: expected probe_id|prefix|hops, got {line!r}")
        if "{" in parts[2] or "}" in parts[2]:
            rejections.append(Rejection("traceroutes.txt", line_no, "as-set", line))
            continue
        try:
            Prefix.parse(parts[1])
        except ValueError:
            rejections.append(Rejection("traceroutes.txt", line_no, "unparsable prefix", line))
            continue
        try:
            raw_hops = [ingest.parse_asn_token(tok) for tok in parts[2].split()]
        except ValueError:
            rejections.append(Rejection("traceroutes.txt", line_no, "malformed ASN", line))
            continue
        if not raw_hops:
            rejections.append(Rejection("traceroutes.txt", line_no, "empty path", line))
            continue
        hops = [asn for i, asn in enumerate(raw_hops) if i == 0 or raw_hops[i - 1] != asn]
        counts[tuple(hops)] += 1
    return counts, rejections


def _parse_trace_counts(lines):
    """``parse_traceroutes`` with the traces given as the count per collapsed
    route."""
    traces, rejections = transit_dominance.parse_traceroutes(lines)
    return Counter(traces), rejections


def _parse_path_rows(*args):
    """``parse_paths`` with the corpus given as (line, record) pairs."""
    corpus, rejections = ingest.parse_paths(*args)
    return list(zip(corpus.line_no, corpus)), rejections


def _outcome(parse, *args):
    """The parse result, or the ParseError message; any other exception escapes."""
    try:
        return parse(*args)
    except ParseError as exc:
        return f"ParseError: {exc}"


# Fields drawn mostly from small pools, so rows repeat prefixes and ASNs the
# way a corpus does, with arbitrary text mixed in.
_PREFIX_TEXT = st.one_of(
    st.sampled_from(["10.0.0.0/24", "10.0.0.7/24", " 10.0.0.0/24", "10.0.1.0/24"]),
    st.sampled_from(["10.0.0.0/25", "::/0", "bogus", ""]),
    st.text(max_size=12),
)
_ASN_TOKEN = st.one_of(
    st.sampled_from(["10", "20", "30"]),
    st.sampled_from(["0", "4294967296", "x", "{10,20}", "²", "١٠", "007"]),
    st.text(alphabet="0123456789 x", max_size=6),
)
# tokens joined mostly by one space, the split parse_paths reads at once,
# and at times by a run of spaces or a tab, or after a leading space, which
# it reads by str.split
_SEPARATOR = st.sampled_from([" ", " ", " ", "  ", "\t"])
_HOPS_TEXT = st.builds(
    lambda pad, first, rest: pad + first + "".join(sep + token for sep, token in rest),
    st.sampled_from(["", "", " "]),
    _ASN_TOKEN,
    st.lists(st.tuples(_SEPARATOR, _ASN_TOKEN), max_size=2),
) | st.just("")
_ROW = st.tuples(st.sampled_from(["m1", "m2", "mX"]), _PREFIX_TEXT, _HOPS_TEXT).map("|".join)
# whitespace that str.strip removes from the ends of a line
_PAD = st.text(alphabet=" \t\x0b\x0c\x1c\u3000", min_size=1, max_size=2)
_LINE = st.one_of(
    _ROW,
    _ROW,
    st.tuples(_PAD, _ROW, _PAD).map("".join),
    st.lists(st.text(max_size=8), min_size=1, max_size=4).map("|".join),
    st.sampled_from(["", "# comment", " \t# padded comment", "\u3000\x0b", "\x1c"]),
)
_FUZZ = settings(max_examples=300, deadline=None)


def _path_examples(test):
    """``test`` with the rows that split a hop text at its first space at the
    edges: a lead at the ``array("I")`` ceiling, a single hop, a rejected lead
    over a good tail (which must intern no tail), one route in two texts (an
    identical duplicate), two routes of one cell (a conflict), and a tab
    inside the text before the first space, over a tail text already seen."""
    cases = [
        ["m1|10.0.0.0/24|4294967295 20", "m2|10.0.0.0/24|4294967295"],
        ["m1|10.0.0.0/24|20", "m2|10.0.0.0/24|20"],
        ["m1|10.0.0.0/24|x 20", "m1|10.0.1.0/24|10 30", "m2|10.0.1.0/24|5 20"],
        ["m1|10.0.0.0/24|5 6", "m1|10.0.0.0/24|5  6"],
        ["m1|10.0.0.0/24|5 6", "m1|10.0.0.0/24|5 7"],
        ["m1|10.0.0.0/24|5 7", "m1|10.0.1.0/24|5\t6 7"],
    ]
    for lines in reversed(cases):
        test = example(lines, False)(test)
    return test


@_FUZZ
@given(st.lists(_LINE, max_size=16), st.booleans())
@_path_examples
def test_parse_paths_matches_row_by_row_reference(lines, exclude):
    multi_origin = frozenset({Prefix.parse("10.0.1.0/24")}) if exclude else frozenset()
    expected = _outcome(_reference_parse_paths, lines, MONITORS, multi_origin)
    assert _outcome(_parse_path_rows, lines, MONITORS, multi_origin) == expected


@_FUZZ
@given(st.lists(_LINE, max_size=16), st.booleans())
@_path_examples
def test_the_parsed_tails_are_the_interned_tails(lines, exclude):
    multi_origin = frozenset({Prefix.parse("10.0.1.0/24")}) if exclude else frozenset()
    parsed = _outcome(ingest.parse_paths, lines, MONITORS, multi_origin)
    if not isinstance(parsed, str):
        corpus, _rejections = parsed
        assert corpus.tails == _reference_tails(_hop_texts(lines))


@_FUZZ
@given(st.lists(_LINE, max_size=16))
# prepending across the seam between the lead AS and the tail
@example(["t|10.0.0.0/24|7 7 8"])
@example(["t|10.0.0.0/24|7 8 8"])
@example(["t|10.0.0.0/24|7 7"])
@example(["t|10.0.0.0/24| 7\t07 8"])
def test_parse_traceroutes_matches_row_by_row_reference(lines):
    expected = _outcome(_reference_parse_traceroutes, lines)
    assert _outcome(_parse_trace_counts, lines) == expected


# Every other parser, fed arbitrary lines, either returns (recording semantic
# rejects) or raises ParseError; any other exception escapes and fails.
_ASN_FIELD = st.one_of(
    st.sampled_from(["10", "20", "0", "4294967296", "²", "٣", "x", "007", ""]),
    st.text(alphabet="0123456789²٣ x-", max_size=5),
)
_COUNTRY_FIELD = st.sampled_from(["CU", "AA", "cu", "C1", "", "ZZZ"]) | st.text(max_size=3)
_COUNT_FIELD = st.sampled_from(["0", "256", "-1", "257", "1e3", "x"]) | st.text(max_size=4)
_SCORE_FIELD = st.one_of(
    st.sampled_from(["0.5", "1", "1/0", "3/2", "-0", "nan", "inf", "1e-3", "0/0"]),
    st.text(alphabet="0123456789./-e", max_size=6),
)


def _lines(*fields, sep):
    row = st.tuples(*fields).map(sep.join)
    line = st.one_of(row, row, row, st.text(max_size=12), st.sampled_from(["", "# c"]))
    return st.lists(line, max_size=12)


def _data_line_numbers(lines):
    return [line_no for line_no, _line in _data_lines(lines)]


_RELATIONSHIP_LINES = _lines(
    _ASN_FIELD, _ASN_FIELD, st.sampled_from(["-1", "0", "1"]) | st.text(max_size=2), sep="|"
)


@_FUZZ
@given(_RELATIONSHIP_LINES)
def test_parse_relationships_raises_only_parse_error(lines):
    table = _outcome(ingest.parse_relationships, lines)
    if not isinstance(table, str):
        assert len(list(table)) <= len(_data_line_numbers(lines))


def _reference_parse_relationships(lines):
    """Row-by-row parse with no memo, each row checked in the order field
    count, a, b, code, then the pair: the stored ``(a, b, kind)`` rows."""
    stored = {}  # unordered pair -> its first row's (a, b, kind)
    for line_no, line in _data_lines(lines):
        parts = line.split("|")
        if len(parts) != 3:
            raise ParseError(f"relationships.txt line {line_no}: expected a|b|code, got {line!r}")
        try:
            a, b = ingest.parse_asn_token(parts[0]), ingest.parse_asn_token(parts[1])
            if parts[2] not in ("-1", "0"):
                raise ValueError(f"unknown relationship code {parts[2]!r}")
            kind = RelKind.P2C if parts[2] == "-1" else RelKind.P2P
            if a == b:
                raise ValueError(f"self-relationship for AS {a}")
            first = stored.setdefault(frozenset((a, b)), (a, b, kind))
            # a peer link repeats either way round, a p2c link only as given
            if first[2] is not kind or (kind is RelKind.P2C and first[:2] != (a, b)):
                raise ValueError(
                    f"conflicting relationship for ASes {a} and {b}: "
                    f"{first[0]}|{first[1]} {first[2].value} vs {a}|{b} {kind.value}"
                )
        except ValueError as exc:
            raise ParseError(f"relationships.txt line {line_no}: {exc}") from None
    return list(stored.values())


@_FUZZ
@given(_RELATIONSHIP_LINES)
# a p2c row after a p2p row of its pair, whose message names the p2p row as
# first given; the same conflict before a malformed row and before a
# self-relationship, which must not win; a peer link given both ways round,
# and a p2c row given twice, each kept once
@example(["2|1|0", "1|2|-1"])
@example(["1|2|0", "1|2|-1", "x"])
@example(["1|2|0", "1|2|-1", "3|3|0"])
@example(["1|2|0", "2|1|0"])
@example(["1|2|-1", "1|2|-1"])
def test_parse_relationships_matches_row_by_row_reference(lines):
    expected = _outcome(lambda: sorted(_reference_parse_relationships(lines)))
    assert _outcome(lambda: sorted(ingest.parse_relationships(lines))) == expected


@_FUZZ
@given(
    _lines(_PREFIX_TEXT, _COUNTRY_FIELD, _COUNT_FIELD, sep=","),
    _lines(
        st.just("synth"),
        _COUNTRY_FIELD,
        st.sampled_from(["ipv4", "ipv6", "asn"]),
        st.sampled_from(["10.0.0.0", "10.0.0.256", "x", ""]) | st.text(max_size=8),
        _COUNT_FIELD,
        st.just("20200101"),
        st.just("allocated"),
        sep="|",
    ),
)
def test_parse_geo_and_delegations_rejects_or_raises_parse_error(geo_lines, delegation_lines):
    geo = _outcome(ingest.parse_geo_and_delegations, geo_lines, [])
    if not isinstance(geo, str):
        rows, _delegations, rejections = geo
        assert len(rows) + len(rejections) == len(_data_line_numbers(geo_lines))
        assert {(r.file, r.line) for r in rejections} <= {
            ("geo.csv", line) for line in _data_line_numbers(geo_lines)
        }
    delegated = _outcome(ingest.parse_geo_and_delegations, [], delegation_lines)
    if not isinstance(delegated, str):
        _rows, delegations, rejections = delegated
        ipv4 = [line for _no, line in _data_lines(delegation_lines) if line.split("|")[2] == "ipv4"]
        assert len(delegations) + len(rejections) == len(ipv4)
        assert {(r.file, r.line) for r in rejections} <= {
            ("delegations.txt", line) for line in _data_line_numbers(delegation_lines)
        }


@_FUZZ
@given(_lines(st.sampled_from(["m1", "m2", ""]) | st.text(max_size=3), _ASN_FIELD, _COUNTRY_FIELD, sep=","))
def test_parse_monitors_raises_only_parse_error(lines):
    monitors = _outcome(ingest.parse_monitors, lines)
    if not isinstance(monitors, str):
        assert len(monitors) == len(_data_line_numbers(lines))


@_FUZZ
@given(
    _lines(_ASN_FIELD, _COUNTRY_FIELD, sep=","),
    _lines(_ASN_FIELD, st.text(max_size=6), sep="|"),
    _lines(st.text(max_size=4), _COUNTRY_FIELD, _ASN_FIELD, sep=","),
    _lines(_ASN_FIELD, _ASN_FIELD, _SCORE_FIELD, sep=","),
    _lines(_ASN_FIELD, sep=""),
    _lines(_PREFIX_TEXT, sep=""),
)
def test_parse_aux_tables_rejects_or_raises_parse_error(state, org, membership, hegemony, clique, multi):
    readers = (state, org, membership, hegemony, clique, multi)
    aux = _outcome(ingest.parse_aux_tables, *readers)
    if not isinstance(aux, str):
        assert all(0 <= score <= 1 for score in aux.hegemony.values())
        assert {(r.file, r.line) for r in aux.rejections} <= {
            ("hegemony.csv", line) for line in _data_line_numbers(hegemony)
        }


@_FUZZ
@given(_lines(_ASN_FIELD, sep=""))
def test_parse_reserved_asns_raises_only_parse_error(lines):
    reserved = _outcome(ingest.parse_reserved_asns, lines)
    if not isinstance(reserved, str):
        assert all(isinstance(asn, int) for asn in reserved)
