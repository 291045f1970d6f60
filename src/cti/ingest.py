"""Parsers for the input file families, and the bundle of the tables a
command reads.

All formats are line-oriented UTF-8 text; a line ends at ``\\n``, ``\\r\\n`` or
``\\r``, in a file and an in-memory text alike. Lines starting with ``#`` are
comments and blank lines are ignored. Parsers are strict on structure
(malformed lines abort the run) and lenient-with-logging on semantic rejects
(bad country codes, out-of-range scores, excluded prefixes).
Every file is read under the rules of one ``RowReader``, which turns a
malformed row into a ``ParseError`` naming the file and line. The three
largest files, ``paths.txt``, ``traceroutes.txt`` and ``relationships.txt``,
are read in one loop each over the reader's ``numbered()`` lines, and take
their errors from the reader; every other file is read through it.

A path or traceroute hop text is judged inline in the row loop as its lead
AS over a tail (the hops after the first). Routes share tails far more than
texts, so each distinct lead token and tail text is judged once, by
``_judge_hop_text``, the one judge of a hop text; a rejected text is judged
whole by it, so that its first reason wins. Neither parser keeps a memo of
whole hop texts. ``parse_paths`` keeps each row as its lead AS and the index
of its tail in ``Corpus.tails``, where the tails of the routes it keeps are
interned by value. ``parse_traceroutes`` does the same into ``Traces``, with
prepending collapsed once per tail text.

``parse_relationships`` packs each pair into one int: the p2c pairs are the
keys of a dict, and the p2p pairs an ``array("Q")`` in file order, so the
table keeps no Python object per peer link. It is the one place that checks
relationship rows; a ``RelationshipTable`` checks nothing.
"""
from __future__ import annotations

import contextlib
import functools
import os
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Generator, Iterable, Iterator, Mapping, Sequence, TextIO

from .model import (
    Corpus,
    MonitorId,
    ParseError,
    Prefix,
    Rejection,
    RelKind,
    RelationshipTable,
    Route,
    Traces,
    collapse_prepending,
    intern,
    parse_decimal,
    parse_dotted_quad,
    parse_fraction,
    swapped_key,
    validate_asn,
    validate_country,
)


GeoRow = tuple[Prefix, str, int]  # prefix, country, raw address count
DelegationRow = tuple[str, int, int]  # country, base address, address count


class RowReader:
    """The data rows of the input file ``FILE_NAMES[key]``, read in a
    ``with RowReader(...) as rows`` block.

    ``rows`` yields ``(line_no, line, fields)`` for each line that is not
    blank or a ``#`` comment: ``line`` stripped, and ``fields`` the line split
    on the separator of ``layout``. A layout is the row's field names joined
    by ``|`` or ``,``; one name makes the whole line the one field, and a
    trailing ``...`` allows more fields. A row with another number of fields
    is ``malformed``, and a ``ValueError`` raised in the block while a row is
    handled becomes the error ``at_line`` gives:
    ``ParseError("<file name> line <N>: <detail>")``. A parser that reads its
    rows in its own loop over ``numbered()`` takes both errors from here.
    """

    def __init__(self, key: str, lines: Iterable[str], layout: str) -> None:
        self.name = FILE_NAMES[key]
        self.layout = layout
        self._lines = lines
        self._line_no = 0
        self._rows: Generator[tuple[int, str, list[str]], None, None] | None = None

    def __enter__(self) -> Iterator[tuple[int, str, list[str]]]:
        self._rows = self._split()
        return self._rows

    def __exit__(self, _type, exc: BaseException | None, _tb) -> None:
        # While the body handles a row, the rows are suspended; an error of
        # the rows themselves (a short row, bytes that are not UTF-8) ended
        # them and already names its file.
        suspended = self._rows.gi_frame is not None
        # the suspended rows refer to this reader: closing them leaves no cycle
        self._rows.close()
        if isinstance(exc, ValueError) and suspended:
            raise self.at_line(self._line_no, exc) from None

    def numbered(self) -> Iterator[tuple[int, str]]:
        """``(line_no, line)`` for every line, stripped, blank and comment
        lines included; numbering and stripping add no Python frame per line."""
        return enumerate(map(str.strip, self._lines), start=1)

    def malformed(self, line_no: int, line: str) -> ParseError:
        """The error of the row ``line`` whose fields do not fit the layout."""
        return ParseError(f"{self.name} line {line_no}: expected {self.layout}, got {line!r}")

    def at_line(self, line_no: int, exc: ValueError) -> ParseError:
        """The error ``exc``, raised while line ``line_no`` was handled."""
        return ParseError(f"{self.name} line {line_no}: {exc}")

    def _split(self) -> Generator[tuple[int, str, list[str]], None, None]:
        layout = self.layout
        separator = "|" if "|" in layout else "," if "," in layout else None
        names = layout.split(separator)
        open_ended = names[-1] == "..."
        n_fields = len(names) - open_ended
        for line_no, line in self.numbered():
            if not line or line[0] == "#":
                continue
            fields = line.split(separator) if separator else [line]
            self._line_no = line_no
            if len(fields) != n_fields and not (open_ended and len(fields) > n_fields):
                raise self.malformed(line_no, line)
            yield line_no, line, fields


def parse_asn_token(token: str) -> int:
    return validate_asn(parse_decimal(token, "ASN token"))


def _check_repeat(first: dict, key: tuple, value: object, line_no: int, what: str) -> None:
    """Record the ``value`` and line of ``key``'s first row in ``first``; a
    later row with the same key and another value raises ``ValueError``
    naming both lines. A row that repeats the first one changes nothing."""
    first_value, first_line = first.setdefault(key, (value, line_no))
    # rows that share a value object (one judged text) need no comparison
    if first_value is not value and first_value != value:
        fields = ",".join(map(str, key))
        raise ValueError(
            f"conflicting {what} for {fields} at lines {first_line} and {line_no}: "
            f"{first_value} and {value}"
        )


# A path or traceroute field text is judged once per call, to a table index,
# or to a negative code c for which the row is rejected for REJECT_REASONS[~c].
REJECT_REASONS = (
    "unparsable prefix",
    "length>24",
    "multi-origin prefix",
    "as-set",
    "malformed ASN",
    "empty path",
)
UNPARSABLE_PREFIX, LONG_PREFIX, MULTI_ORIGIN, AS_SET, MALFORMED_ASN, EMPTY_PATH = (
    ~code for code in range(len(REJECT_REASONS))
)


def _judge_hop_text(text: str, parse_asn: Callable[[str], int]) -> Route | int:
    """The ASNs of a path or traceroute hop text, or the code of why its row
    is rejected: AS-set braces, then a malformed ASN, then no hop at all."""
    if "{" in text or "}" in text:
        return AS_SET
    try:
        hops = tuple(map(parse_asn, text.split()))
    except ValueError:
        return MALFORMED_ASN
    return hops or EMPTY_PATH


def _judge_lead(text: str, parse_asn: Callable[[str], int]) -> int:
    """The AS of the lead token ``text`` of a hop text, or its code."""
    hops = _judge_hop_text(text, parse_asn)
    return hops if isinstance(hops, int) else hops[0]


def _judge_split(
    hops_text: str,
    lead_code: dict[str, int],
    tail_code: dict[str, int],
    parse_asn: Callable[[str], int],
    judge_tail: Callable[[str], int],
) -> tuple[int, int]:
    """The lead AS and tail index of ``hops_text``, split at its first run of
    whitespace, each a code if rejected. A lead token or tail text seen for
    the first time is judged and recorded in ``lead_code`` or ``tail_code``;
    a rejected lead judges no tail, and an empty text is ``EMPTY_PATH``."""
    lead_tail = hops_text.split(None, 1)
    if not lead_tail:
        return EMPTY_PATH, EMPTY_PATH
    lead_text = lead_tail[0]
    lead = lead_code.get(lead_text)
    if lead is None:
        lead = lead_code[lead_text] = _judge_lead(lead_text, parse_asn)
    if lead < 0:
        return lead, EMPTY_PATH
    tail_text = lead_tail[1] if len(lead_tail) > 1 else ""
    tail_ix = tail_code.get(tail_text)
    if tail_ix is None:
        tail_ix = tail_code[tail_text] = judge_tail(tail_text)
    return lead, tail_ix


def parse_paths(
    reader: Iterable[str],
    monitors: Mapping[str, MonitorId],
    multi_origin: frozenset[Prefix] = frozenset(),
) -> tuple[Corpus, list[Rejection]]:
    """Parse ``monitor_id|prefix|asn asn ...`` rows (origin last).

    Rejects (with a log entry) unknown monitors, prefixes longer than /24,
    prefixes on the multi-origin exclusion list, malformed ASN tokens and
    AS-set braces. Identical duplicate (monitor, prefix) rows are silently
    deduplicated; conflicting duplicates are a hard error. The tails of the
    kept routes are interned by value (``Corpus.tails``).
    """
    corpus = Corpus(monitors=list(monitors.values()), prefixes=[], tails=[])
    monitor_of = {monitor_id: ix for ix, monitor_id in enumerate(monitors)}
    n_monitors = len(monitor_of)
    rejections: list[Rejection] = []
    # A corpus repeats each prefix about once per monitor, so each distinct
    # prefix text gets one index. A route is its monitor's host AS followed
    # by the route a neighbour chose, so far fewer tails (the hops after the
    # first) than hop texts recur, and no memo holds a whole hop text: a hop
    # text is its lead token, judged once to its AS or a rejection code, over
    # its tail text, judged once to an index into the tails of the kept
    # routes, interned by value, or to a code.
    prefix_code: dict[str, int] = {}
    lead_code: dict[str, int] = {}
    tail_code: dict[str, int] = {}
    parse_asn = functools.cache(parse_asn_token)
    tail_index: dict[Route, int] = {}
    tails = corpus.tails
    # Bit m of kept[p] is set once a row of monitor m toward prefix p is kept.
    # The kept row of a (prefix, monitor) cell is looked up only when a cell
    # repeats.
    kept: list[int] = []
    row_of: dict[int, int] | None = None  # cell -> kept row, from the first repeat on

    def judge_prefix(text: str) -> int:
        try:
            prefix = Prefix.parse(text)
        except ValueError as exc:
            return LONG_PREFIX if str(exc).startswith("prefix length") else UNPARSABLE_PREFIX
        if prefix in multi_origin:
            return MULTI_ORIGIN
        corpus.prefixes.append(prefix)
        kept.append(0)
        return len(corpus.prefixes) - 1

    def judge_tail(text: str) -> int:
        hops = _judge_hop_text(text, parse_asn) if text else ()
        return hops if isinstance(hops, int) else intern(hops, tail_index, tails)

    monitor_col, prefix_col, lead_col, tail_col = (
        corpus.monitor_ix, corpus.prefix_ix, corpus.lead, corpus.tail_ix
    )
    row_lines = corpus.line_no
    rows = RowReader("paths", reader, "monitor_id|prefix|hops")
    # one loop over the lines: no row tuple, and no generator resumed per row
    for line_no, line in rows.numbered():
        if not line or line[0] == "#":
            continue
        try:
            monitor_id, prefix_text, hops_text = line.split("|")
        except ValueError:
            raise rows.malformed(line_no, line) from None
        try:
            monitor_ix = monitor_of.get(monitor_id, -1)
            prefix_ix = prefix_code.get(prefix_text)
            if prefix_ix is None:
                prefix_ix = prefix_code[prefix_text] = judge_prefix(prefix_text)
            # Split at the first space. A lead key is a token, with no
            # whitespace, and no tail key starts with any, so a hit on both
            # means the text is one token, one space and a tail text, which
            # is what split(None, 1) reads; a tab, a run of spaces or a
            # leading space misses, and is read by _judge_split. A hit takes
            # no Python frame.
            lead_text, _space, tail_text = hops_text.partition(" ")
            lead = lead_code.get(lead_text)
            tail_ix = tail_code.get(tail_text)
            if lead is None or tail_ix is None:
                lead, tail_ix = _judge_split(hops_text, lead_code, tail_code, parse_asn, judge_tail)
            if monitor_ix < 0 or prefix_ix < 0 or lead < 0 or tail_ix < 0:
                route_code = 0  # judged whole, so that its first reason wins
                if lead < 0 or tail_ix < 0:
                    route_code = _judge_hop_text(hops_text, parse_asn)
                reason = "unknown monitor" if monitor_ix < 0 else _reason(prefix_ix, route_code)
                rejections.append(Rejection(FILE_NAMES["paths"], line_no, reason, line))
                continue
            mask, bit = kept[prefix_ix], 1 << monitor_ix
            if mask & bit:
                if row_of is None:  # each cell has at most one kept row
                    row_of = {
                        p * n_monitors + m: row
                        for row, (m, p) in enumerate(zip(monitor_col, prefix_col))
                    }
                row = row_of[prefix_ix * n_monitors + monitor_ix]
                # tails are interned by value, so equal routes have equal columns
                if lead_col[row] != lead or tail_col[row] != tail_ix:
                    raise ValueError(
                        f"conflicting paths for ({monitor_id}, {corpus.prefixes[prefix_ix]}) "
                        f"at lines {row_lines[row]} and {line_no}"
                    )
                continue  # identical duplicate
            kept[prefix_ix] = mask | bit
            if row_of is not None:
                row_of[prefix_ix * n_monitors + monitor_ix] = len(lead_col)
            monitor_col.append(monitor_ix)
            prefix_col.append(prefix_ix)
            lead_col.append(lead)
            tail_col.append(tail_ix)
            row_lines.append(line_no)
        except ValueError as exc:
            raise rows.at_line(line_no, exc) from None
    return corpus, rejections


def _reason(prefix_code: int, route_code: int) -> str:
    """Why a traceroute row, or a path row of a known monitor, is rejected:
    the first of AS-set braces, a bad prefix and a bad route."""
    if route_code == AS_SET:
        return "as-set"
    return REJECT_REASONS[~(prefix_code if prefix_code < 0 else route_code)]


def parse_traceroutes(reader: Iterable[str]) -> tuple[Traces, list[Rejection]]:
    """Parse the ``probe_id|prefix|asn asn ...`` rows (probe-first hop order)
    into ``Traces``: each kept row is its lead AS over the index of its tail,
    with consecutive duplicate ASNs collapsed.

    A row with AS-set braces, an unparsable prefix, a malformed ASN token or
    no hop is rejected with a log entry, for the first of these in that order,
    as a ``paths.txt`` row is.

    No memo holds a whole hop text: a row is its lead token over a tail text,
    each distinct one judged once, a tail text to the index of its collapsed
    tail (interned by value) or to a rejection code. The whole text is judged
    only for a row whose lead or tail is rejected.
    """
    traces = Traces()
    rejections: list[Rejection] = []
    # each distinct prefix text is checked once, to 0 or a negative code
    prefix_code: dict[str, int] = {}
    lead_code: dict[str, int] = {}
    tail_code: dict[str, int] = {}
    parse_asn = functools.cache(parse_asn_token)
    tail_index: dict[Route, int] = {}

    def judge_prefix(text: str) -> int:
        try:
            Prefix.parse(text)  # checked only: a bad prefix still rejects the row
        except ValueError:
            return UNPARSABLE_PREFIX
        return 0

    def judge_tail(text: str) -> int:
        hops = _judge_hop_text(text, parse_asn) if text else ()
        if isinstance(hops, int):
            return hops
        return intern(collapse_prepending(hops), tail_index, traces.tails)

    lead_col, tail_col = traces.lead, traces.tail_ix
    file = FILE_NAMES["traceroutes"]
    rows = RowReader("traceroutes", reader, "probe_id|prefix|hops")
    # one loop over the lines, with the hop text split as in parse_paths
    for line_no, line in rows.numbered():
        if not line or line[0] == "#":
            continue
        try:
            _probe_id, prefix_text, hops_text = line.split("|")
        except ValueError:
            raise rows.malformed(line_no, line) from None
        prefix_verdict = prefix_code.get(prefix_text)
        if prefix_verdict is None:
            prefix_verdict = prefix_code[prefix_text] = judge_prefix(prefix_text)
        lead_text, _space, tail_text = hops_text.partition(" ")
        lead = lead_code.get(lead_text)
        tail_ix = tail_code.get(tail_text)
        if lead is None or tail_ix is None:
            lead, tail_ix = _judge_split(hops_text, lead_code, tail_code, parse_asn, judge_tail)
        if prefix_verdict < 0 or lead < 0 or tail_ix < 0:
            # a bad hop text is judged whole, so that its first reason wins
            route_code = _judge_hop_text(hops_text, parse_asn) if lead < 0 or tail_ix < 0 else 0
            rejections.append(Rejection(file, line_no, _reason(prefix_verdict, route_code), line))
            continue
        lead_col.append(lead)
        tail_col.append(tail_ix)
    return traces, rejections


def parse_relationships(reader: Iterable[str]) -> RelationshipTable:
    """Parse ``a|b|-1`` (a provider of b) and ``a|b|0`` (peers) rows: the
    one check of relationship rows.

    A row that repeats a stored relationship is ignored, a peer link included
    whichever way round it is given. A self-relationship, and a pair given
    two kinds or a p2c pair given both ways round, raises ``ParseError``.
    The row loop fills the packed p2c dict and p2p array of the table itself,
    with no method call per row: a call per row made the parse about a fifth
    slower. Each row is checked as it is read, but for one conflict: a p2c
    row whose pair an earlier p2p row gave. ``_p2c_after_p2p`` finds that in
    one scan, after the last row and before the error of any other row is
    raised, so the error raised is always the first bad row's.
    """
    p2c: dict[int, None] = {}
    p2p = array("Q")
    add_peering = p2p.append
    p2c_lines = array("I")  # the line of each p2c pair, in the order of p2c
    parse_asn = functools.cache(parse_asn_token)
    rows = RowReader("relationships", reader, "a|b|code")
    try:
        # one loop over the lines, as in parse_paths, with no tuple per row
        for line_no, line in rows.numbered():
            if not line or line[0] == "#":
                continue
            try:
                a_text, b_text, code = line.split("|")
            except ValueError:
                raise rows.malformed(line_no, line) from None
            try:
                a, b = parse_asn(a_text), parse_asn(b_text)
                key, reverse = a << 32 | b, b << 32 | a  # the key layout of the table
                if code == "0" and a != b:
                    if key in p2c or reverse in p2c:
                        stored = key if key in p2c else reverse
                        raise ValueError(_conflict(stored, RelKind.P2C, a, b, RelKind.P2P))
                    add_peering(key)
                elif code == "-1" and a != b:
                    if key not in p2c:
                        if reverse in p2c:
                            raise ValueError(_conflict(reverse, RelKind.P2C, a, b, RelKind.P2C))
                        p2c[key] = None
                        p2c_lines.append(line_no)
                elif code in ("0", "-1"):
                    raise ValueError(f"self-relationship for AS {a}")
                else:
                    raise ValueError(f"unknown relationship code {code!r}")
            except ValueError as exc:
                raise rows.at_line(line_no, exc) from None
    except ParseError as error:
        raise _p2c_after_p2p(rows, p2c, p2p, p2c_lines) or error from None
    conflict = _p2c_after_p2p(rows, p2c, p2p, p2c_lines)
    if conflict is not None:
        raise conflict
    return RelationshipTable(p2c, p2p)


def _conflict(stored: int, stored_kind: RelKind, a: int, b: int, kind: RelKind) -> str:
    """The message of the row ``a|b|kind`` that conflicts with the stored pair
    of packed key ``stored`` and kind ``stored_kind``."""
    stored_a, stored_b = divmod(stored, 1 << 32)
    return (
        f"conflicting relationship for ASes {a} and {b}: "
        f"{stored_a}|{stored_b} {stored_kind.value} vs {a}|{b} {kind.value}"
    )


def _p2c_after_p2p(
    rows: RowReader, p2c: dict[int, None], p2p: Sequence[int], p2c_lines: Sequence[int]
) -> ParseError | None:
    """The error, at its line, of the first p2c row whose pair an earlier p2p
    row gave, or None; ``p2c_lines`` holds the line of each key of ``p2c``.
    The row loop raises every other conflict at its row, so a p2p key that
    names a p2c pair was given before it."""
    named = set(map(swapped_key, p2c))
    named.update(p2c)
    if named.isdisjoint(p2p):
        return None
    first_peering: dict[int, int] = {}  # p2c key -> the first p2p key naming it
    for key in p2p:
        if key in named:
            first_peering.setdefault(key if key in p2c else swapped_key(key), key)
    pair, line_no = next(item for item in zip(p2c, p2c_lines) if item[0] in first_peering)
    message = _conflict(first_peering[pair], RelKind.P2P, *divmod(pair, 1 << 32), RelKind.P2C)
    return rows.at_line(line_no, ValueError(message))


def parse_geo_and_delegations(
    geo_reader: Iterable[str],
    delegation_reader: Iterable[str],
) -> tuple[list[GeoRow], list[DelegationRow], list[Rejection]]:
    """Parse raw geolocation rows and RIR extended-delegation rows.

    Semantic rules (round-up, delegation fallback) are applied later when the
    geo table is built; this only validates and retains the raw rows.
    """
    geo_rows: list[GeoRow] = []
    rejections: list[Rejection] = []
    bad_country = "unparsable country code"
    first_counts: dict[tuple[Prefix, str], tuple[int, int]] = {}
    with RowReader("geo", geo_reader, "prefix,country,address_count") as rows:
        for line_no, line, (prefix_text, country_text, count_text) in rows:
            prefix = Prefix.parse(prefix_text)
            try:
                country = validate_country(country_text)
            except ValueError:
                rejections.append(Rejection(FILE_NAMES["geo"], line_no, bad_country, line))
                continue
            count = parse_decimal(count_text, "count")
            if not 0 <= count <= prefix.size:
                raise ValueError(f"count {count} outside the capacity 0..{prefix.size} of {prefix}")
            _check_repeat(first_counts, (prefix, country), count, line_no, "address counts")
            geo_rows.append((prefix, country, count))

    delegation_rows: list[DelegationRow] = []
    layout = "registry|cc|type|base|count|date|status|..."
    with RowReader("delegations", delegation_reader, layout) as rows:
        for line_no, line, fields in rows:
            if fields[2] != "ipv4":
                continue  # asn/ipv6/summary records are irrelevant here
            try:
                country = validate_country(fields[1])
            except ValueError:
                rejections.append(Rejection(FILE_NAMES["delegations"], line_no, bad_country, line))
                continue
            base = parse_dotted_quad(fields[3])
            if base is None:
                raise ValueError(f"malformed base address {fields[3]!r}")
            count = parse_decimal(fields[4], "count")
            if count <= 0:
                raise ValueError(f"non-positive count {count}")
            delegation_rows.append((country, base, count))
    return geo_rows, delegation_rows, rejections


def parse_monitors(reader: Iterable[str]) -> dict[str, MonitorId]:
    """Parse ``monitor_id,host_asn,country`` rows into a unique inventory of
    monitors that a ``paths.txt`` row can name."""
    monitors: dict[str, MonitorId] = {}
    with RowReader("monitors", reader, "monitor_id,host_asn,country") as rows:
        for _line_no, _line, (monitor_id, asn_text, country) in rows:
            # a paths.txt row names its monitor by its first field, stripped
            if not monitor_id or "|" in monitor_id or monitor_id != monitor_id.strip():
                raise ValueError(f"monitor id {monitor_id!r} is empty, padded or holds '|'")
            if monitor_id in monitors:
                raise ValueError(f"duplicate monitor id {monitor_id!r}")
            host_asn = parse_asn_token(asn_text)
            monitors[monitor_id] = MonitorId(monitor_id, host_asn, validate_country(country))
    return monitors


@dataclass
class AuxBundle:
    """The auxiliary tables; a metric table that was not read is None."""

    state_owned: list[tuple[int, str]] | None = None
    org_of: dict[int, str] | None = None
    memberships: list[tuple[str, str, int]] | None = None
    hegemony: dict[tuple[int, int], Fraction] | None = None
    clique: frozenset[int] = frozenset()
    multi_origin: frozenset[Prefix] = frozenset()
    rejections: list[Rejection] = field(default_factory=list)


def parse_aux_tables(
    state_owned_reader: Iterable[str] | None = (),
    org_reader: Iterable[str] | None = (),
    membership_reader: Iterable[str] | None = (),
    hegemony_reader: Iterable[str] | None = (),
    clique_reader: Iterable[str] = (),
    multi_origin_reader: Iterable[str] = (),
) -> AuxBundle:
    """Parse the auxiliary tables; out-of-range hegemony scores are rejected
    rows. A metric table whose reader is None is not read."""
    aux = AuxBundle()

    if state_owned_reader is not None:
        aux.state_owned = []
        with RowReader("state_owned", state_owned_reader, "asn,country") as rows:
            for _line_no, _line, (asn, country) in rows:
                aux.state_owned.append((parse_asn_token(asn), validate_country(country)))

    if org_reader is not None:
        aux.org_of = {}
        first_orgs: dict[tuple[int], tuple[str, int]] = {}
        with RowReader("org", org_reader, "asn|org_id") as rows:
            for line_no, _line, (asn_text, org) in rows:
                asn = parse_asn_token(asn_text)
                _check_repeat(first_orgs, (asn,), org, line_no, "org ids")
                aux.org_of[asn] = org

    if membership_reader is not None:
        aux.memberships = []
        with RowReader("memberships", membership_reader, "facility_id,country,asn") as rows:
            for _line_no, _line, (facility, country, asn) in rows:
                row = (facility, validate_country(country), parse_asn_token(asn))
                aux.memberships.append(row)

    if hegemony_reader is not None:
        aux.hegemony = {}
        # each AS, and many a score, recurs in many hegemony rows: each
        # distinct text is judged once, and a score text's rows share one value
        parse_asn = functools.cache(parse_asn_token)
        judge_score = functools.cache(_judge_score)
        first_scores: dict[tuple[int, int], tuple[Fraction, int]] = {}
        with RowReader("hegemony", hegemony_reader, "origin_asn,transit_asn,score") as rows:
            for line_no, line, (origin, transit, score_text) in rows:
                key = (parse_asn(origin), parse_asn(transit))
                score = judge_score(score_text)
                if score is None:
                    reason = "hegemony score outside [0,1]"
                    rejection = Rejection(FILE_NAMES["hegemony"], line_no, reason, line)
                    aux.rejections.append(rejection)
                    continue
                _check_repeat(first_scores, key, score, line_no, "hegemony scores")
                aux.hegemony[key] = score

    with RowReader("clique", clique_reader, "asn") as rows:
        aux.clique = frozenset(parse_asn_token(line) for _line_no, line, _fields in rows)

    with RowReader("multi_origin", multi_origin_reader, "prefix") as rows:
        aux.multi_origin = frozenset(Prefix.parse(line) for _line_no, line, _fields in rows)

    return aux


def _judge_score(text: str) -> Fraction | None:
    """A hegemony score's value, or None when it lies outside [0, 1]."""
    score = parse_fraction(text)
    return score if 0 <= score.numerator <= score.denominator else None


def parse_reserved_asns(reader: Iterable[str]) -> frozenset[int]:
    """Parse one ASN per row; any decimal number, 0 included, may be reserved."""
    reserved: set[int] = set()
    with RowReader("reserved", reader, "asn") as rows:
        for _line_no, line, _fields in rows:
            reserved.add(parse_decimal(line, "ASN"))
    return frozenset(reserved)


@dataclass
class DatasetBundle:
    """Everything the pipeline consumes, parsed into model types; a metric
    table that was not read is None."""

    paths: Corpus
    relationships: RelationshipTable | None
    geo_rows: list[GeoRow]
    delegations: list[DelegationRow]
    aux: AuxBundle
    reserved: frozenset[int] = frozenset()
    path_rejections: list[Rejection] = field(default_factory=list)
    geo_rejections: list[Rejection] = field(default_factory=list)
    traceroutes: Traces | None = None
    traceroute_rejections: list[Rejection] = field(default_factory=list)


# Canonical file names inside an input directory.
FILE_NAMES = {
    "paths": "paths.txt",
    "relationships": "relationships.txt",
    "geo": "geo.csv",
    "delegations": "delegations.txt",
    "monitors": "monitors.csv",
    "state_owned": "state_owned.csv",
    "org": "as2org.txt",
    "memberships": "memberships.csv",
    "hegemony": "hegemony.csv",
    "clique": "clique.txt",
    "multi_origin": "multi_origin.txt",
    "reserved": "reserved_asns.txt",
    "traceroutes": "traceroutes.txt",
}

# The files every bundle reads: the paths, and what sanitizing them and
# building the geo table take.
CORE_FILES = ("paths", "geo", "delegations", "monitors", "clique", "multi_origin", "reserved")
# The files that only some metrics read; a bundle reads those it is asked for.
METRIC_FILES = ("relationships", "state_owned", "org", "memberships", "hegemony", "traceroutes")
# A bundle reads every metric file but the traceroutes unless asked otherwise.
DEFAULT_METRIC_FILES = tuple(key for key in METRIC_FILES if key != "traceroutes")

# A bundle fails without these, of the files it reads.
REQUIRED_FILES = ("paths", "relationships", "geo", "monitors", "traceroutes")


def load_bundle_from_texts(
    files: Mapping[str, str | Iterable[str]],
    metric_files: tuple[str, ...] = DEFAULT_METRIC_FILES,
) -> DatasetBundle:
    """Assemble a bundle from the input files keyed by canonical name: each
    one's text, split into lines as a file is (see ``split_lines``), or an
    iterable of its lines. It parses the core files and the ``metric_files``
    (keys of ``FILE_NAMES``), each one missing from ``files`` as an empty file.

    Missing required entries raise FileNotFoundError naming the file.
    """
    reads = {*CORE_FILES, *metric_files}
    for key in REQUIRED_FILES:
        if key in reads and FILE_NAMES[key] not in files:
            raise FileNotFoundError(FILE_NAMES[key])

    def lines(key: str) -> Iterable[str] | None:
        if key not in reads:
            return None
        source = files.get(FILE_NAMES[key], "")
        return split_lines(source) if isinstance(source, str) else source

    monitors = parse_monitors(lines("monitors"))
    aux = parse_aux_tables(
        state_owned_reader=lines("state_owned"),
        org_reader=lines("org"),
        membership_reader=lines("memberships"),
        hegemony_reader=lines("hegemony"),
        clique_reader=lines("clique"),
        multi_origin_reader=lines("multi_origin"),
    )
    reserved = parse_reserved_asns(lines("reserved"))
    paths, path_rejections = parse_paths(lines("paths"), monitors, aux.multi_origin)
    # parsed before the larger tables that follow, so that they reuse the memory
    # its per-text memo frees instead of adding to the command's peak RSS
    traceroute_lines = lines("traceroutes")
    traceroutes, traceroute_rejections = None, []
    if traceroute_lines is not None:
        traceroutes, traceroute_rejections = parse_traceroutes(traceroute_lines)
    relationship_lines = lines("relationships")
    relationships = None if relationship_lines is None else parse_relationships(relationship_lines)
    geo_rows, delegations, geo_rejections = parse_geo_and_delegations(
        lines("geo"), lines("delegations")
    )
    return DatasetBundle(
        paths=paths,
        relationships=relationships,
        geo_rows=geo_rows,
        delegations=delegations,
        aux=aux,
        reserved=reserved,
        path_rejections=path_rejections,
        geo_rejections=geo_rejections,
        traceroutes=traceroutes,
        traceroute_rejections=traceroute_rejections,
    )


def load_bundle(
    directory: str, metric_files: tuple[str, ...] = DEFAULT_METRIC_FILES
) -> DatasetBundle:
    """Load a bundle of the core files and the ``metric_files`` from a
    directory using the canonical file names; no other file is opened.

    Every file is opened before any is parsed, so a file that is missing or
    cannot be opened is reported before a malformed row; then each is read a
    line at a time while it is parsed, and all are closed however the parse
    ends. Missing required files raise FileNotFoundError naming the file.
    """
    reads = {*CORE_FILES, *metric_files}
    for key in REQUIRED_FILES:
        path = os.path.join(directory, FILE_NAMES[key])
        if key in reads and not os.path.exists(path):
            raise FileNotFoundError(path)

    with contextlib.ExitStack() as stack:
        files: dict[str, Iterable[str]] = {}
        for key, name in FILE_NAMES.items():
            path = os.path.join(directory, name)
            if key in reads and os.path.exists(path):
                files[name] = read_lines(stack.enter_context(open(path, encoding="utf-8")))
        return load_bundle_from_texts(files, metric_files)


def split_lines(text: str) -> list[str]:
    """The lines of ``text`` without their ends: a line ends at ``\\n``,
    ``\\r\\n`` or ``\\r``, as in a file read in text mode. No other character
    ends one, though a form feed or U+2028 does for ``str.splitlines``. A text
    that ends in a line end gives a blank last line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def read_text(path: str) -> str:
    """The whole file as UTF-8 text; other bytes raise ``ParseError`` naming
    the file."""
    with _utf8_only(path), open(path, encoding="utf-8") as handle:
        return handle.read()


def read_lines(handle: TextIO) -> Iterator[str]:
    """The lines of the UTF-8 text file ``handle``, read as they are
    consumed; other bytes raise ``ParseError`` naming the file."""
    with _utf8_only(handle.name):
        yield from handle


@contextlib.contextmanager
def _utf8_only(path: str) -> Iterator[None]:
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
