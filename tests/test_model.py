import copy
import ipaddress
import json
import pickle
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cti import ingest
from cti.model import (
    MetricReport,
    MonitorId,
    ParseError,
    PathRecord,
    Prefix,
    RelKind,
    RelationshipTable,
    dotted_quad,
    parse_dotted_quad,
    parse_fraction,
    validate_asn,
    validate_country,
)


def test_prefix_parse_and_size():
    p = Prefix.parse("10.1.2.0/24")
    assert (p.base, p.length) == ((10 << 24) | (1 << 16) | (2 << 8), 24)
    assert p.size == 256
    assert str(p) == "10.1.2.0/24"


# A prefix has one text: a netmask or hostmask length, set host bits,
# padding, a leading zero or a missing length is an error.
@pytest.mark.parametrize(
    "text",
    [
        "10.0.0.0/25",
        "10.0.0.0/32",
        "2001:db8::/32",
        "garbage",
        "10.0.0.0/255.255.255.0",
        "10.0.0.0/0.0.0.255",
        "10.0.0.1/24",
        "10.0.0.9/24",
        " 10.0.0.0/24\u3000",
        "10.0.0.0/24 ",
        "10.0.0.0/024",
        "10.0.0.0",
    ],
)
def test_prefix_rejects_long_or_invalid(text):
    with pytest.raises(ValueError):
        Prefix.parse(text)


def test_prefix_length_error_mentions_length():
    with pytest.raises(ValueError, match="length"):
        Prefix.parse("10.0.0.0/25")


@given(st.integers(min_value=0, max_value=24), st.integers(min_value=0, max_value=2**32 - 1))
def test_prefix_roundtrip(length, raw_base):
    base = raw_base & ~((1 << (32 - length)) - 1)
    p = Prefix(base=base, length=length)
    assert Prefix.parse(str(p)) == p


def test_validate_asn_bounds():
    assert validate_asn(64512) == 64512
    for bad in (0, -1, 2**32):
        with pytest.raises(ValueError):
            validate_asn(bad)


def test_validate_country():
    assert validate_country("CU") == "CU"
    for bad in ("cu", "CUB", "1A", "", "AA\n"):
        with pytest.raises(ValueError):
            validate_country(bad)


def test_relationship_rejects_self():
    with pytest.raises(ParseError, match="line 1: self-relationship for AS 7$"):
        ingest.parse_relationships(["7|7|0"])


def test_relationship_table_lookup_is_symmetric():
    table = RelationshipTable.of(p2c=[(1, 2)], p2p=[(2, 3)])
    assert table.is_p2c(1, 2)
    assert not table.is_p2c(2, 1)
    assert not table.is_p2c(2, 3) and not table.is_p2c(3, 2)
    assert table.peers_of(3) == frozenset({2}) and table.peers_of(2) == frozenset({3})
    assert table.providers_of(2) == frozenset({1})
    assert table.customers_of(1) == frozenset({2})


_NUMBER_TEXT = st.one_of(
    st.integers(min_value=0, max_value=300).map(str),
    st.sampled_from(["", "0", "00", "01", "007", "255", "256", "999", "1000", "+1", "-1"]),
    st.sampled_from(["\u0661", "\u0663\u0662", "\u00b2", "\uff11", " 1", "1 ", "0x1", "1_0"]),
)
_WHITESPACE = st.just("") | st.sampled_from([" ", "\t", "\n", "\r\n", "\u3000", "\u00a0", "\x1c"])


@st.composite
def _address_texts(draw):
    return ".".join(draw(st.lists(_NUMBER_TEXT, min_size=3, max_size=5)))


@st.composite
def _prefix_texts(draw):
    address = draw(
        st.one_of(
            _address_texts(),
            st.integers(min_value=0, max_value=2**32 - 1).map(dotted_quad),
            st.sampled_from(["::", "2001:db8::", "10.0.0"]),
        )
    )
    length = draw(
        st.one_of(
            st.none(),
            st.integers(min_value=0, max_value=40).map(str),
            st.sampled_from(["024", "00", "32", "33", "", "\u0662\u0664", "255.255.255.0"]),
            st.sampled_from(["0.0.0.255", "24/8", " 24"]),
        )
    )
    text = address if length is None else f"{address}/{length}"
    return draw(_WHITESPACE) + text + draw(_WHITESPACE)


@st.composite
def _edited_canonical_texts(draw):
    """A canonical prefix text with one character inserted or replaced, or
    one deleted."""
    length = draw(st.integers(min_value=0, max_value=24))
    base = draw(st.integers(min_value=0, max_value=2**32 - 1)) >> (32 - length) << (32 - length)
    text = str(Prefix(base, length))
    at = draw(st.integers(min_value=0, max_value=len(text) - 1))
    char = draw(st.sampled_from(["", "0", "1", "2", "9", ".", "/", " ", "\u0661"]))
    insert = draw(st.booleans())
    return text[:at] + char + text[at + (not insert):]


@settings(max_examples=400)
@given(st.one_of(_prefix_texts(), _edited_canonical_texts(), st.text(max_size=24)))
def test_prefix_parse_accepts_only_canonical_text(text):
    # with test_prefix_roundtrip: parse accepts exactly the texts str writes
    try:
        parsed = Prefix.parse(text)
    except ValueError:
        return
    assert str(parsed) == text


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0.0.0.0/0", Prefix(0, 0)),
        ("255.255.255.255/0", "prefix base has host bits set"),
        ("10.1.2.3/8", "prefix base has host bits set"),
        ("10.0.0.0/024", "unparsable prefix '10.0.0.0/024'"),
        ("10.0.0.0/32", "prefix length 32 out of range 0..24"),
        ("10.0.0.0/33", "unparsable prefix '10.0.0.0/33'"),
        ("10.0.0.0", "unparsable prefix '10.0.0.0'"),
    ],
)
def test_prefix_parse_edges(text, expected):
    try:
        parsed = Prefix.parse(text)
    except ValueError as exc:
        parsed = str(exc)
    assert parsed == expected


@settings(max_examples=400)
@given(st.one_of(_address_texts(), st.text(max_size=16)))
def test_parse_dotted_quad_accepts_what_ipaddress_accepts(text):
    try:
        expected = int(ipaddress.IPv4Address(text))
    except ipaddress.AddressValueError:
        expected = None
    assert parse_dotted_quad(text) == expected


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_dotted_quad_writes_what_ipaddress_writes(address):
    assert dotted_quad(address) == str(ipaddress.IPv4Address(address))
    assert parse_dotted_quad(dotted_quad(address)) == address


def _ascii_digits(text):
    return text.isascii() and text.isdigit()


def _documented_number(text):
    """Whether ``text`` is ``n``, ``n/d`` with d > 0, or ``n.ddd`` in ASCII
    digits, after an optional ``-``."""
    body = text.removeprefix("-")
    for separator in "/.":
        n, found, d = body.partition(separator)
        if found:
            return _ascii_digits(n) and _ascii_digits(d) and (separator == "." or int(d) > 0)
    return _ascii_digits(body)


# The hegemony score alphabet of test_ingest, plus digit separators,
# exponents, padding and non-ASCII digits, which Fraction(str) reads.
_FRACTION_TEXT = st.one_of(
    st.sampled_from(["1_0/2_0", " 1e-1 ", "1e-1", "1/0", "0/0", "1/00", "-0", "007", "1.", ".5"]),
    st.sampled_from(["-1/1000", "+1", "--1", "1/-2", "nan", "inf", "\u0661/\u0662", "\u00b2"]),
    st.text(alphabet="0123456789./-e_ \t\u3000\u0661\u00b2", max_size=8),
)


@settings(max_examples=400)
@given(_FRACTION_TEXT)
def test_parse_fraction_reads_exactly_the_documented_forms(text):
    if _documented_number(text):
        assert parse_fraction(text) == Fraction(text)
    else:
        with pytest.raises(ValueError, match="malformed number"):
            parse_fraction(text)


def test_relationship_views_are_built_per_kind_on_first_request():
    table = RelationshipTable.of(p2c=[(1, 2), (4, 2)], p2p=[(2, 3)])
    assert table.providers_of(2) == frozenset({1, 4})
    assert "providers" in vars(table) and "customers" not in vars(table)
    assert table.peers_of(2) == frozenset({3})
    assert table.peers_of(3) == frozenset({2})
    assert table.customers_of(4) == frozenset({2})
    assert sorted(table) == [(1, 2, RelKind.P2C), (2, 3, RelKind.P2P), (4, 2, RelKind.P2C)]


@given(
    st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda l: l[0] != l[1])),
    st.frozensets(st.integers(1, 7)),
)
def test_peers_among_gives_the_peers_of_each_as_asked_for(links, ases):
    table = RelationshipTable.of(p2p=links)  # a link may repeat, either way round
    expected = {}
    for a, b in links:
        for asn, peer in ((a, b), (b, a)):
            if asn in ases:
                expected.setdefault(asn, set()).add(peer)
    assert table.peers_among(ases) == expected


def test_relationship_table_conflict():
    rows = ["1|2|-1", "1|2|-1"]  # identical duplicate is fine
    assert list(ingest.parse_relationships(rows)) == [(1, 2, RelKind.P2C)]
    for row, message in (("1|2|0", "1|2 p2c vs 1|2 p2p"), ("2|1|-1", "1|2 p2c vs 2|1 p2c")):
        with pytest.raises(ParseError) as error:
            ingest.parse_relationships([*rows, row])
        a, b = row.split("|")[:2]
        assert str(error.value) == (
            f"relationships.txt line 3: conflicting relationship for ASes {a} and {b}: {message}"
        )


@pytest.mark.parametrize(
    "rows, pair, message",
    [
        ([(1, 2, "p2p"), (1, 2, "p2c")], (1, 2), "1|2 p2p vs 1|2 p2c"),
        ([(1, 2, "p2p"), (2, 1, "p2c")], (2, 1), "1|2 p2p vs 2|1 p2c"),
        # a p2c row before the p2p row, and the same link given twice
        ([(5, 6, "p2c"), (1, 2, "p2p"), (2, 1, "p2p"), (2, 1, "p2c")], (2, 1), "1|2 p2p vs 2|1 p2c"),
        # the first p2c row named wins, with the first p2p row naming it
        ([(3, 4, "p2p"), (2, 1, "p2p"), (1, 2, "p2c"), (4, 3, "p2c")], (1, 2), "2|1 p2p vs 1|2 p2c"),
    ],
)
def test_p2c_after_p2p_finds_the_first_p2c_pair_an_earlier_p2p_pair_names(rows, pair, message):
    lines = [f"{a}|{b}|{'-1' if kind == 'p2c' else '0'}" for a, b, kind in rows]
    line_no = rows.index((*pair, "p2c")) + 1  # the error names the p2c row's line
    with pytest.raises(ParseError) as error:
        ingest.parse_relationships(lines)
    assert str(error.value) == (
        f"relationships.txt line {line_no}: "
        f"conflicting relationship for ASes {pair[0]} and {pair[1]}: {message}"
    )


def test_path_record_needs_hops():
    m = MonitorId("m1", 10, "US")
    with pytest.raises(ValueError):
        PathRecord(m, Prefix.parse("10.0.0.0/24"), ())
    path = PathRecord(m, Prefix.parse("10.0.0.0/24"), (10, 20, 30))
    assert path.origin == 30


def test_metric_report_bounds_and_sorting():
    report = MetricReport("cti")
    with pytest.raises(ValueError):
        report.set("CU", 10, Fraction(3, 2))
    report.set("CU", "state", Fraction(1, 3))
    report.set("CU", 40, Fraction(1, 2))
    report.set("AR", 7, Fraction(0))
    keys = [key for key, _ in report.sorted_items()]
    assert keys == [("AR", 7), ("CU", 40), ("CU", "state")]
    assert report.get("ZZ", 1) == 0


def test_metric_report_json_roundtrip_is_exact():
    report = MetricReport("cti")
    report.set("CU", 40, Fraction(1, 3))
    report.set("CU", "state", Fraction(2, 7))
    again = MetricReport.from_json(report.to_json())
    assert again.entries == report.entries
    assert again.metric_name == "cti"


def test_metric_report_csv_shape():
    report = MetricReport("cti")
    report.set("CU", 40, Fraction(1, 2))
    lines = report.to_csv().splitlines()
    assert lines[0] == "# country,subject,cti"
    assert lines[1] == "CU,40,0.500000000000"
    parsed = MetricReport.from_csv(lines)
    assert parsed.get("CU", 40) == Fraction(1, 2)
    assert parsed.metric_name == "cti"


@given(
    st.dictionaries(
        st.tuples(st.sampled_from(["CU", "AR", "BY"]), st.integers(min_value=1, max_value=99)),
        st.fractions(min_value=0, max_value=1),
        max_size=8,
    )
)
def test_metric_report_json_roundtrip_property(entries):
    report = MetricReport("x")
    for (country, subject), value in entries.items():
        report.set(country, subject, value)
    assert MetricReport.from_json(report.to_json()).entries == report.entries


def _report_or_error(parse, *args):
    """The parsed report, or None on ParseError; any other exception escapes."""
    try:
        return parse(*args)
    except ParseError:
        return None


_REPORT_ROW = st.tuples(
    st.sampled_from(["CU", "AA", "cu", "A1", ""]) | st.text(max_size=3),
    st.sampled_from(["40", "state", "²", "", "007"]) | st.text(max_size=4),
    st.sampled_from(["0.5", "1", "1/0", "3/2", "-1", "nan", "1e-3"]) | st.text(max_size=5),
).map(",".join)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["# country,subject,cti", "# country,subject,", "", "# a,b,c"]),
    st.lists(st.one_of(_REPORT_ROW, _REPORT_ROW, st.text(max_size=12)), max_size=10),
)
def test_report_from_csv_raises_only_parse_error(header, lines):
    report = _report_or_error(MetricReport.from_csv, [header, *lines])
    if report is not None:
        assert all(0 <= value <= 1 for value in report.entries.values())


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_ENTRY = st.fixed_dictionaries(
    {},
    optional={
        "country": st.sampled_from(["CU", "AA"]) | _JSON,
        "subject": st.sampled_from([40, "state"]) | _JSON,
        "numerator": st.integers(-2, 3) | _JSON,
        "denominator": st.integers(-1, 3) | _JSON,
    },
)
_PAYLOAD = st.fixed_dictionaries(
    {},
    optional={"metric": st.just("cti") | _JSON, "entries": st.lists(_ENTRY, max_size=3) | _JSON},
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_PAYLOAD.map(json.dumps), _JSON.map(json.dumps), st.text(max_size=20)))
def test_report_from_json_raises_only_parse_error(text):
    report = _report_or_error(MetricReport.from_json, text)
    if report is not None:
        assert all(0 <= value <= 1 for value in report.entries.values())


def test_from_json_rejects_deep_nesting():
    with pytest.raises(ParseError, match="nested too deeply"):
        MetricReport.from_json("[" * 100000)


# The per-path records are tuples of their fields (see the model docstring).
M = MonitorId("m1", 10, "US")
P24 = Prefix.parse("10.1.2.0/24")
RECORDS = [
    P24,
    PathRecord(monitor=M, prefix=P24, hops=(10, 20)),
]


def test_records_take_keyword_fields():
    assert (P24.base, P24.length) == (167838208, 24)
    path = RECORDS[1]
    assert (path.monitor, path.prefix, path.hops, path.origin) == (M, P24, (10, 20), 20)
    assert Prefix(base=P24.base, length=24) == Prefix(P24.base, 24) == P24


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Prefix(base=0, length=25), "length 25 out of range"),
        (lambda: Prefix(base=1, length=24), "host bits"),
        (lambda: Prefix(base=2**32, length=0), "out of IPv4 range"),
        (lambda: PathRecord(monitor=M, prefix=P24, hops=()), "at least one hop"),
    ],
)
def test_records_validate_on_construction(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_prefix_orders_by_base_then_length():
    a8, a16 = Prefix.parse("10.0.0.0/8"), Prefix.parse("10.0.0.0/16")
    b24 = Prefix.parse("10.0.1.0/24")
    c24 = Prefix.parse("9.255.255.0/24")
    assert sorted([b24, a16, a8, c24]) == [c24, a8, a16, b24]
    assert a8 < a16 < b24 and max(a8, b24) == b24


def test_record_str_and_repr_are_unchanged():
    assert str(P24) == "10.1.2.0/24"
    assert repr(P24) == "Prefix(base=167838208, length=24)"
    prefix = "prefix=Prefix(base=167838208, length=24)"
    monitor = "monitor=MonitorId(id='m1', host_asn=10, country='US')"
    assert [str(r) for r in RECORDS[1:]] == [repr(r) for r in RECORDS[1:]] == [
        f"PathRecord({monitor}, {prefix}, hops=(10, 20))",
    ]


_OtherRecord = namedtuple("_OtherRecord", "a b c")


def test_records_equal_tuples_of_their_fields():
    # the chosen semantics: tuple equality and hashing, whatever the type
    assert P24 == (167838208, 24) and hash(P24) == hash((167838208, 24))
    path = PathRecord(M, P24, (20, 10))
    same_fields = _OtherRecord("t-m1", P24, (20, 10))  # a record of another type
    assert path == (M, P24, (20, 10))
    assert same_fields == PathRecord("t-m1", P24, (20, 10)) == ("t-m1", P24, (20, 10))
    assert len({same_fields, PathRecord("t-m1", P24, (20, 10)), ("t-m1", P24, (20, 10))}) == 1
    assert path != PathRecord(M, P24, (10, 20))
