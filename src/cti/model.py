"""Shared domain types used across the transit-influence pipeline.

The records (``Prefix``, ``PathRecord``, ``Rejection``, ``MonitorId``) are
immutable. The containers are not, and take no lock: the columns of a
``Corpus`` and of ``Traces`` are appended in place while they are built,
``MetricReport.set`` writes, and a ``RelationshipTable``, built whole and
never written, builds its views when first asked. Scores are kept as exact
rationals internally and converted to fixed-point decimals only at
serialization time.

The records ``Prefix`` and ``PathRecord`` are standard named tuples whose
``__new__`` validates the fields, so that hashing, equality and ordering run
in C: a ``Prefix`` is hashed at every address-mass lookup. Like tuples, a
record equals any tuple of the same field values, a record of another type
included; the program never mixes them in one container. The named tuple's
``_make`` and ``_replace`` skip that validation; nothing calls them. A path
corpus is a ``Corpus`` of 4-byte integer columns, not one record per row, and
so is a traceroute corpus (``Traces``). A ``RelationshipTable`` keeps its p2c
pairs in a dict and its p2p pairs in an ``array("Q")``, each pair packed in one
int.

Every CSV report is written by ``csv_text``. Each kind of field is read by
one strict parser: ``Prefix.parse``, ``parse_decimal`` and ``parse_fraction``.
"""
from __future__ import annotations

import functools
import json
import re
from array import array
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

MAX_ASN = 2**32 - 1
MAX_PREFIX_LENGTH = 24

Subject = int | str  # ASN, or a label: the country code of a state conglomerate


class ParseError(ValueError):
    """Structural error in an input file; aborts the run."""


class ComputationError(ValueError):
    """A metric cannot be evaluated on the given inputs (e.g. empty country)."""


class Rejection(NamedTuple):
    """An input row or path dropped before scoring: the input ``file``'s name,
    the ``line`` it was read from (0 when no one line holds it), the
    ``category`` (``unknown monitor``, ``Loop``, ``NoPeak``, ...) and the
    ``detail``: the row's text, a path verdict's reason, or a prefix."""

    file: str
    line: int
    category: str
    detail: str


def validate_asn(value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"ASN must be an integer, got {value!r}")
    if value <= 0 or value > MAX_ASN:
        raise ValueError(f"invalid ASN {value}")
    return value


_COUNTRY_RE = re.compile(r"[A-Z]{2}")


def validate_country(code: str) -> str:
    if not isinstance(code, str) or not _COUNTRY_RE.fullmatch(code):
        raise ValueError(f"invalid country code {code!r}")
    return code


class Prefix(namedtuple("Prefix", "base length")):
    """An IPv4 prefix in canonical form (host bits zero, length <= 24).

    Prefixes order by ``(base, length)``.
    """

    __slots__ = ()

    def __new__(cls, base: int, length: int) -> "Prefix":
        if not 0 <= length <= MAX_PREFIX_LENGTH:
            raise ValueError(f"prefix length {length} out of range 0..{MAX_PREFIX_LENGTH}")
        if base & ((1 << (32 - length)) - 1):
            raise ValueError("prefix base has host bits set")
        if not 0 <= base <= 0xFFFFFFFF:
            raise ValueError("prefix base out of IPv4 range")
        return tuple.__new__(cls, (base, length))

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """The prefix of the canonical text ``a.b.c.d/n``, which ``str`` writes:
        a dotted quad, ``/`` and a length of ASCII digits with no leading zero.
        Any other text, padding included, raises ``ValueError``, as do a
        length over 24 and a set host bit."""
        address, slash, length_text = text.partition("/")
        base = parse_dotted_quad(address)
        if base is None or not slash or not _CANONICAL_LENGTH.fullmatch(length_text):
            raise ValueError(f"unparsable prefix {text!r}")
        return cls(base, int(length_text))

    @property
    def size(self) -> int:
        return 1 << (32 - self.length)

    def __str__(self) -> str:
        return f"{dotted_quad(self.base)}/{self.length}"


_DOTTED_QUAD = re.compile(r"\.".join([r"(0|[1-9][0-9]{0,2})"] * 4))
# 0..32, so that 25..32 fail as too long (see parse_paths) and longer as unparsable
_CANONICAL_LENGTH = re.compile(r"[0-9]|[12][0-9]|3[0-2]")


def parse_dotted_quad(text: str) -> int | None:
    """The IPv4 address of dotted-quad text (four decimal octets of ASCII
    digits, no leading zeros, each at most 255), which is the text
    ``ipaddress.IPv4Address`` accepts; None for any other text."""
    match = _DOTTED_QUAD.fullmatch(text)
    if match is None:
        return None
    a, b, c, d = map(int, match.groups())
    if max(a, b, c, d) > 255:
        return None
    return a << 24 | b << 16 | c << 8 | d


def parse_decimal(text: str, what: str) -> int:
    """The value of a field of ASCII digits. Any other text, a sign or a
    non-ASCII digit included, raises ``ValueError("malformed <what> ...")``."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"malformed {what} {text!r}")
    return int(text)


_FRACTION = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*)|\.([0-9]+))?")


def parse_fraction(text: str) -> Fraction:
    """The exact value of ``n``, ``n/d`` or ``n.ddd`` in ASCII digits, with an
    optional leading ``-``. Any other text (padding, ``_``, an exponent, a
    non-ASCII digit) raises ``ValueError``, as does a zero ``d``."""
    match = _FRACTION.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed number {text!r}")
    n, d, decimals = match.groups()
    if decimals is not None:
        return Fraction(int(n + decimals), 10 ** len(decimals))
    return Fraction(int(n), int(d or 1))


def dotted_quad(address: int) -> str:
    """The dotted-quad text of an IPv4 address."""
    return f"{address >> 24}.{address >> 16 & 0xFF}.{address >> 8 & 0xFF}.{address & 0xFF}"


@dataclass(frozen=True)
class MonitorId:
    """A BGP monitor: opaque id plus the AS hosting it and its country."""

    id: str
    host_asn: int
    country: str


class PathRecord(namedtuple("PathRecord", "monitor prefix hops")):
    """One monitor's preferred AS-level route to one prefix.

    Hops are ordered monitor-nearest first; the origin AS is last.
    """

    __slots__ = ()

    def __new__(cls, monitor: MonitorId, prefix: Prefix, hops: tuple[int, ...]) -> "PathRecord":
        if not hops:
            raise ValueError("path must have at least one hop")
        return tuple.__new__(cls, (monitor, prefix, hops))

    @property
    def origin(self) -> int:
        return self.hops[-1]


Route = tuple[int, ...]


def collapse_prepending(hops: Route) -> Route:
    """``hops`` with each run of one repeated AS cut to one hop: ``hops``
    itself when no AS repeats."""
    if len(set(hops)) == len(hops):
        return hops
    return tuple(asn for i, asn in enumerate(hops) if i == 0 or hops[i - 1] != asn)


def _column() -> array:
    return array("I")


@dataclass
class Corpus:
    """A path corpus as five ``array("I")`` columns over interned tables: row
    i is monitor ``monitors[monitor_ix[i]]``'s route toward
    ``prefixes[prefix_ix[i]]``, read from ``paths.txt`` line ``line_no[i]``.
    The parser's ``monitors`` is every monitor of ``monitors.csv``, blind
    ones included: the one monitor table, from which retention counts a
    country's outside monitors. A route is its first hop, ``lead[i]``, over the tail ``tails[tail_ix[i]]``
    (the hops after the first): a monitor's route is its host AS followed by
    the route its neighbour chose, so monitors that share a neighbour share a
    tail. Each distinct prefix is stored once, and each tail once by value
    (by the parser and the generator), so a row is five 4-byte ints and no
    object. Indexing and iterating give rows as ``PathRecord``s, a new record
    and route each time. ``pathprep.prepare_paths`` writes a collapsed tail
    in its raw tail's place, so a sanitized table can hold one value at
    several indexes."""

    monitors: Sequence[MonitorId]
    prefixes: list[Prefix]
    tails: list[Route]
    monitor_ix: array = field(default_factory=_column)
    prefix_ix: array = field(default_factory=_column)
    lead: array = field(default_factory=_column)
    tail_ix: array = field(default_factory=_column)
    line_no: Sequence[int] = field(default_factory=_column)

    def __len__(self) -> int:
        return len(self.lead)

    def __getitem__(self, row: int) -> PathRecord:
        return PathRecord(
            self.monitors[self.monitor_ix[row]],
            self.prefixes[self.prefix_ix[row]],
            (self.lead[row], *self.tails[self.tail_ix[row]]),
        )

    def __iter__(self) -> Iterator[PathRecord]:
        return map(self.__getitem__, range(len(self)))


@dataclass
class Traces:
    """A traceroute corpus as two ``array("I")`` columns over interned tails:
    row i is one trace toward a prefix over the route ``lead[i]`` (its first
    hop) followed by the collapsed tail ``tails[tail_ix[i]]``, where a lead
    that the tail starts with collapses into it. Each distinct tail is stored
    once by value, so a row is two 4-byte ints and no object. Iterating gives
    each row's collapsed route, a new tuple each time."""

    tails: list[Route] = field(default_factory=list)
    lead: array = field(default_factory=_column)
    tail_ix: array = field(default_factory=_column)

    def __len__(self) -> int:
        return len(self.lead)

    def __iter__(self) -> Iterator[Route]:
        tails = self.tails
        for lead, tail_ix in zip(self.lead, self.tail_ix):
            tail = tails[tail_ix]
            yield tail if tail and tail[0] == lead else (lead, *tail)


T = TypeVar("T")


def intern(value: T, index: dict[T, int], table: list[T]) -> int:
    """The index of ``value`` in ``table``, appending it on first sight;
    ``index`` maps each value in the table to its index."""
    ix = index.setdefault(value, len(table))
    if ix == len(table):
        table.append(value)
    return ix


class RelKind(Enum):
    P2C = "p2c"  # a is provider of b
    P2P = "p2p"


_P2C, _P2P = RelKind.P2C, RelKind.P2P  # an enum member is slow to look up by name
_LOW = (1 << 32) - 1  # the mask of the second AS of a packed pair key


def swapped_key(key: int) -> int:
    """The packed key ``b << 32 | a`` of the pair whose key is ``a << 32 | b``."""
    return (key & _LOW) << 32 | key >> 32


_Adjacency = dict[int, set[int]]  # AS -> its neighbours of one kind


class RelationshipTable:
    """Directed p2c and undirected p2p relationships, each kind stored in the
    form its readers take. A table is built whole and never written: it
    checks nothing, and ``ingest.parse_relationships`` is the one place that
    checks relationship rows.

    A pair is packed as the key ``a << 32 | b`` of its ``(a, b)`` as given.
    ``p2c`` holds the keys of the pairs where ``a`` provides transit to
    ``b``, as a dict; ``is_p2c`` reads it, and so do ``p2c_links`` and the
    ``providers`` and ``customers`` per AS, each built on its first request.
    ``p2p``, the peer links, is an ``array("Q")`` of keys; a link may be
    given again, either way round, and every reader takes it once.
    ``peers_among`` reads the peers of the ASes it is asked about in one pass
    over the keys.
    """

    def __init__(self, p2c: dict[int, None], p2p: array) -> None:
        self.p2c = p2c
        self.p2p = p2p

    @classmethod
    def of(
        cls, p2c: Iterable[tuple[int, int]] = (), p2p: Iterable[tuple[int, int]] = ()
    ) -> "RelationshipTable":
        """The table of the ``(provider, customer)`` pairs ``p2c`` and the
        peer links ``p2p``, each packed into its key."""
        p2p_keys = array("Q", [a << 32 | b for a, b in p2p])
        return cls(dict.fromkeys(a << 32 | b for a, b in p2c), p2p_keys)

    def is_p2c(self, provider: int, customer: int) -> bool:
        return (provider << 32 | customer) in self.p2c

    @functools.cached_property
    def p2c_links(self) -> frozenset[tuple[int, int]]:
        """Every ``(provider, customer)`` pair."""
        return frozenset((key >> 32, key & _LOW) for key in self.p2c)

    @functools.cached_property
    def providers(self) -> _Adjacency:
        """The providers of each AS that has one."""
        providers: _Adjacency = {}
        for key in self.p2c:
            providers.setdefault(key & _LOW, set()).add(key >> 32)
        return providers

    @functools.cached_property
    def customers(self) -> _Adjacency:
        """The customers of each AS that has one."""
        customers: _Adjacency = {}
        for key in self.p2c:
            customers.setdefault(key >> 32, set()).add(key & _LOW)
        return customers

    def peers_among(self, ases: Iterable[int]) -> dict[int, set[int]]:
        """The peers of each AS of ``ases`` that has one, from one pass over
        the p2p keys; no AS outside ``ases`` gets an entry."""
        wanted = frozenset(ases)
        peers: dict[int, set[int]] = {}
        for key in self.p2p:
            a, b = key >> 32, key & _LOW
            if a in wanted:
                peers.setdefault(a, set()).add(b)
            if b in wanted:
                peers.setdefault(b, set()).add(a)
        return peers

    def peers_of(self, asn: int) -> frozenset[int]:
        return frozenset(self.peers_among((asn,)).get(asn, ()))

    def providers_of(self, asn: int) -> frozenset[int]:
        return frozenset(self.providers.get(asn, ()))

    def customers_of(self, asn: int) -> frozenset[int]:
        return frozenset(self.customers.get(asn, ()))

    def __iter__(self) -> Iterator[tuple[int, int, RelKind]]:
        """Each pair once as ``(a, b, kind)``: the p2c pairs, then the peer
        links, each as first given."""
        low = _LOW
        for key in self.p2c:
            yield key >> 32, key & low, _P2C
        seen: set[int] = set()  # each peer link given so far, as its smaller key
        for key in self.p2p:
            a, b = key >> 32, key & low
            link = key if a < b else b << 32 | a
            if link not in seen:
                seen.add(link)
                yield a, b, _P2P


def _cell(value: object) -> str:
    if isinstance(value, Fraction):
        return f"{float(value):.12f}"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, tuple):
        return ";".join(map(str, value))
    return str(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A CSV report: the line ``# a,b,c`` naming the columns, then one line
    per row. A ``Fraction`` cell is written as a 12-decimal double, a
    ``bool`` as 0 or 1, a tuple joined by ``;``, anything else with ``str``."""
    lines = ["# " + ",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _subject_key(subject: Subject) -> tuple[int, int | str]:
    # ASNs sort numerically before string labels; keeps report order deterministic.
    if isinstance(subject, int):
        return (0, subject)
    return (1, str(subject))


_REPORT_HEADER = "# country,subject,"


def _is_metric_name(name: object) -> bool:
    """A name the one-line report header ``_REPORT_HEADER + name`` carries as
    its last field: non-empty text with no comma and no line end."""
    return isinstance(name, str) and name != "" and not any(c in name for c in ",\n\r")


@dataclass
class MetricReport:
    """country x subject -> score in [0, 1], deterministically serializable."""

    metric_name: str
    entries: dict[tuple[str, Subject], Fraction] = field(default_factory=dict)

    def set(self, country: str, subject: Subject, value: Fraction) -> None:
        value = Fraction(value)
        if not 0 <= value <= 1:
            raise ValueError(f"score {value} for ({country}, {subject}) outside [0, 1]")
        self.entries[(country, subject)] = value

    def get(self, country: str, subject: Subject) -> Fraction:
        return self.entries.get((country, subject), Fraction(0))

    def sorted_items(self) -> list[tuple[tuple[str, Subject], Fraction]]:
        return sorted(self.entries.items(), key=lambda kv: (kv[0][0], _subject_key(kv[0][1])))

    def to_csv(self) -> str:
        rows = ((country, subject, value) for (country, subject), value in self.sorted_items())
        return csv_text(("country", "subject", self.metric_name), rows)

    def to_json(self) -> str:
        payload = {
            "metric": self.metric_name,
            "entries": [
                {
                    "country": country,
                    "subject": subject,
                    "numerator": value.numerator,
                    "denominator": value.denominator,
                }
                for (country, subject), value in self.sorted_items()
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_csv(cls, lines: Iterable[str]) -> "MetricReport":
        """Parse a ``to_csv`` report: the header ``# country,subject,<metric>``
        on the first non-blank line names the metric, and ``country,subject,
        score`` rows follow. A missing header (an empty report's included)
        or a malformed or repeated row raises ``ParseError`` naming its line."""
        rows = ((n, raw.strip()) for n, raw in enumerate(lines, start=1) if raw.strip())
        line_no, header = next(rows, (1, ""))
        metric = header.removeprefix(_REPORT_HEADER)
        if metric == header or not _is_metric_name(metric):
            raise ParseError(f"line {line_no}: expected the header '{_REPORT_HEADER}<metric>'")
        report = cls(metric_name=metric)
        first_lines: dict[tuple[str, Subject], str] = {}
        for line_no, line in rows:
            parts = line.split(",")
            if len(parts) != 3:
                raise ParseError(f"line {line_no}: malformed report row {line!r}")
            country, subject_text, value_text = parts
            try:
                subject: Subject = subject_text  # a label, unless it is an ASN
                if subject_text.isdigit():
                    subject = parse_decimal(subject_text, "ASN")
                value = parse_fraction(value_text).as_integer_ratio()
                report._read_entry(first_lines, f"line {line_no}", country, subject, *value)
            except ValueError as exc:
                raise ParseError(f"line {line_no}: malformed report row {line!r}: {exc}") from None
        return report

    @classmethod
    def from_json(cls, text: str) -> "MetricReport":
        """Parse the ``to_json`` layout; malformed JSON, a missing or
        ill-typed field, or a repeated entry raises ``ParseError``."""
        try:
            payload = json.loads(text)
        except ValueError as exc:  # the message names the line and column
            raise ParseError(f"malformed JSON report: {exc}") from None
        except RecursionError:
            raise ParseError("malformed JSON report: nested too deeply") from None
        first_entries: dict[tuple[str, Subject], str] = {}
        where = ""  # the entry being read, once the entries are
        try:
            metric = payload["metric"]
            if not _is_metric_name(metric):
                raise ValueError(f"metric name {metric!r} is not one line of text without a comma")
            report = cls(metric_name=metric)
            for n, entry in enumerate(payload["entries"], start=1):
                where = f" in entry {n}"
                report._read_entry(
                    first_entries,
                    f"entry {n}",
                    entry["country"],
                    entry["subject"],
                    entry["numerator"],
                    entry["denominator"],
                )
        except KeyError as exc:
            raise ParseError(f"JSON report lacks the field {exc}{where}") from None
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed JSON report{where}: {exc}") from None
        return report

    def _read_entry(
        self,
        first: dict[tuple[str, Subject], str],
        where: str,
        country: object,
        subject: object,
        numerator: object,
        denominator: object,
    ) -> None:
        """Set the entry read at ``where`` (``line 3``, ``entry 3``) of a
        report, after the one check of both formats: a country code, a
        subject that is an ASN (an int in 1..2^32-1) or a label (text that is
        neither empty nor ASCII digits), an int numerator and denominator,
        and a (country, subject) that no earlier entry has; ``first`` maps
        each one read so far to where it was read. Raises ``ValueError``."""
        validate_country(country)
        if isinstance(subject, str):
            if not subject or (subject.isascii() and subject.isdigit()):
                raise ValueError(f"subject {subject!r} is neither an ASN nor a label")
        else:
            validate_asn(subject)
        for n in (numerator, denominator):
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValueError(f"numerator and denominator must be integers, got {n!r}")
        seen_at = first.setdefault((country, subject), where)
        if seen_at != where:
            raise ValueError(f"({country}, {subject}) repeats {seen_at}")
        self.set(country, subject, Fraction(numerator, denominator))
