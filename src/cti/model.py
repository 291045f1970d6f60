"""Shared domain types used across the transit-influence pipeline.

The records (``Prefix``, ``PathRecord``, ``Rejection``, ``MonitorId``) are
immutable. The containers are not, and take no lock: a ``Corpus``'s columns
are appended in place while it is built, ``MetricReport.set`` and
``RelationshipTable.add`` write, and a table builds its views when first
asked. Scores are kept as exact rationals internally and converted to
fixed-point decimals only at serialization time.

The records ``Prefix`` and ``PathRecord`` are standard named tuples whose
``__new__`` validates the fields, so that hashing, equality and ordering run
in C: a ``Prefix`` is hashed at every address-mass lookup. Like tuples, a
record equals any tuple of the same field values, a record of another type
included; the program never mixes them in one container. The named tuple's
``_make`` and ``_replace`` skip that validation; nothing calls them. A path
corpus is a ``Corpus`` of 4-byte integer columns, not one record per row, a
traceroute corpus is a count per route, and a relationship is the stored
``(a, b)`` pair with its kind.

Every CSV report is written by ``csv_text``. Each kind of field is read by
one strict parser: ``Prefix.parse``, ``parse_decimal`` and ``parse_fraction``.
"""
from __future__ import annotations

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
    A route is its first hop, ``lead[i]``, over the tail ``tails[tail_ix[i]]``
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


_Adjacency = dict[int, set[int]]  # AS -> its neighbours of one kind


class RelationshipTable:
    """Directed p2c and undirected p2p edges with O(1) pair lookup.

    At most one relationship per unordered ASN pair. Each pair is stored
    as the ``(a, b)`` it was first given, with its kind: ``a`` provides
    transit to ``b`` (p2c), or the two peer (p2p). The peers, providers and
    customers per AS are three views, each built on the first request of
    its own kind, and so is the set of p2c pairs.
    """

    def __init__(self) -> None:
        self._kinds: dict[tuple[int, int], RelKind] = {}
        self._views: dict[str, _Adjacency] = {}
        self._p2c: frozenset[tuple[int, int]] | None = None

    def add(self, a: int, b: int, kind: RelKind) -> None:
        """Add ``a|b|kind``; a repeat of a stored relationship is ignored, a
        peer link included whichever way round it is given."""
        if a == b:
            raise ParseError(f"self-relationship for AS {a}")
        kinds = self._kinds
        key = (a, b)
        existing = kinds.get(key)
        if existing is None and (b, a) in kinds:
            key = (b, a)
            existing = kinds[key]
        if existing is None:
            kinds[key] = kind
            if self._views:
                self._views.clear()
            self._p2c = None
        elif existing is not kind or (kind is RelKind.P2C and key != (a, b)):
            raise ParseError(
                f"conflicting relationship for ASes {a} and {b}: "
                f"{key[0]}|{key[1]} {existing.value} vs {a}|{b} {kind.value}"
            )

    def is_p2c(self, provider: int, customer: int) -> bool:
        return self._kinds.get((provider, customer)) is RelKind.P2C

    def p2c_links(self) -> frozenset[tuple[int, int]]:
        """Every stored ``(provider, customer)`` pair, built on first request."""
        if self._p2c is None:
            kinds = self._kinds
            self._p2c = frozenset(pair for pair, kind in kinds.items() if kind is RelKind.P2C)
        return self._p2c

    def _view(self, name: str) -> _Adjacency:
        """The neighbour sets per AS of ``name``: peers, providers or
        customers."""
        view = self._views.get(name)
        if view is None:
            view = self._views[name] = {}
            wanted = RelKind.P2P if name == "peers" else RelKind.P2C
            for (a, b), kind in self._kinds.items():
                if kind is wanted:
                    if name != "customers":  # a is a peer or a provider of b
                        view.setdefault(b, set()).add(a)
                    if name != "providers":  # b is a peer or a customer of a
                        view.setdefault(a, set()).add(b)
        return view

    def peers_of(self, asn: int) -> frozenset[int]:
        return frozenset(self._view("peers").get(asn, ()))

    def providers_of(self, asn: int) -> frozenset[int]:
        return frozenset(self._view("providers").get(asn, ()))

    def customers_of(self, asn: int) -> frozenset[int]:
        return frozenset(self._view("customers").get(asn, ()))

    def __len__(self) -> int:
        return len(self._kinds)

    def __iter__(self) -> Iterator[tuple[int, int, RelKind]]:
        """Each stored pair as ``(a, b, kind)``."""
        return ((a, b, kind) for (a, b), kind in self._kinds.items())


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
