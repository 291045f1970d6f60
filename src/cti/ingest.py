"""Parsers for the six input file families.

All formats are line-oriented UTF-8 text with ``\\n`` endings; lines starting
with ``#`` are comments and blank lines are ignored. Parsers are strict on
structure (malformed lines abort the run) and lenient-with-logging on
semantic rejects (bad country codes, out-of-range scores, excluded prefixes).
"""
from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .model import (
    Corpus,
    MonitorId,
    ParseError,
    Prefix,
    RelKind,
    RelationshipTable,
    Route,
    intern,
    parse_dotted_quad,
    validate_asn,
    validate_country,
)


@dataclass(frozen=True)
class RowRejection:
    line_no: int
    line: str
    reason: str


GeoRow = tuple[Prefix, str, int]  # prefix, country, raw address count
DelegationRow = tuple[str, int, int]  # country, base address, address count


def _data_lines(reader: Iterable[str]) -> Iterable[tuple[int, str]]:
    for line_no, raw in enumerate(reader, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


def _parse_asn_token(token: str) -> int:
    if not token.isdigit():
        raise ValueError(f"malformed ASN token {token!r}")
    return validate_asn(int(token))


def parse_paths(
    reader: Iterable[str],
    monitors: Mapping[str, MonitorId],
    multi_origin: frozenset[Prefix] = frozenset(),
) -> tuple[Corpus, list[RowRejection]]:
    """Parse ``monitor_id|prefix|asn asn ...`` rows (origin last).

    Rejects (with a log entry) unknown monitors, prefixes longer than /24,
    prefixes on the multi-origin exclusion list, malformed ASN tokens and
    AS-set braces. Identical duplicate (monitor, prefix) rows are silently
    deduplicated; conflicting duplicates are a hard error.
    """
    corpus = Corpus(monitors=list(monitors.values()), prefixes=[], routes=[])
    monitor_of = {monitor_id: ix for ix, monitor_id in enumerate(monitors)}
    rejections: list[RowRejection] = []
    # A corpus repeats each prefix about once per monitor, and each route once
    # per prefix of its origin: each distinct prefix and hop text is judged
    # once per call, to its table index or the reason it is rejected, and
    # texts that parse to the same value share one index.
    prefix_index: dict[Prefix, int] = {}
    route_index: dict[Route, int] = {}
    parse_asn = functools.cache(_parse_asn_token)

    @functools.cache
    def prefix_ix_of(text: str) -> int | str:
        try:
            prefix = Prefix.parse(text)
        except ValueError as exc:
            return "length>24" if "length" in str(exc) else "unparsable prefix"
        if prefix in multi_origin:
            return "multi-origin prefix"
        return intern(prefix, prefix_index, corpus.prefixes)

    @functools.cache
    def route_ix_of(text: str) -> int | str:
        try:
            hops = tuple(map(parse_asn, text.split()))
        except ValueError:
            return "malformed ASN"
        return intern(hops, route_index, corpus.routes) if hops else "empty path"

    first_of: dict[int, int] = {}  # prefix_ix * len(monitors) + monitor_ix -> row
    row_lines: list[int] = []
    monitor_col, prefix_col, route_col = corpus.monitor_ix, corpus.prefix_ix, corpus.route_ix
    for line_no, line in _data_lines(reader):
        parts = line.split("|")
        if len(parts) != 3:
            raise ParseError(f"line {line_no}: expected monitor_id|prefix|hops, got {line!r}")
        monitor_id, prefix_text, hops_text = parts
        monitor_ix = monitor_of.get(monitor_id)
        if monitor_ix is None:
            rejections.append(RowRejection(line_no, line, "unknown monitor"))
            continue
        if "{" in hops_text or "}" in hops_text:
            rejections.append(RowRejection(line_no, line, "as-set"))
            continue
        prefix_ix = prefix_ix_of(prefix_text)
        if isinstance(prefix_ix, str):
            rejections.append(RowRejection(line_no, line, prefix_ix))
            continue
        route_ix = route_ix_of(hops_text)
        if isinstance(route_ix, str):
            rejections.append(RowRejection(line_no, line, route_ix))
            continue
        n_rows = len(route_col)
        row = first_of.setdefault(prefix_ix * len(monitor_of) + monitor_ix, n_rows)
        if row != n_rows:
            if route_col[row] != route_ix:
                raise ParseError(
                    f"conflicting paths for ({monitor_id}, {corpus.prefixes[prefix_ix]}) "
                    f"at lines {row_lines[row]} and {line_no}"
                )
            continue  # identical duplicate
        monitor_col.append(monitor_ix)
        prefix_col.append(prefix_ix)
        route_col.append(route_ix)
        row_lines.append(line_no)
    return corpus, rejections


def _hops_parser() -> Callable[[str], tuple[int, ...]]:
    """A cache, made for one parser call, of the parse of a space-separated
    ASN list with consecutive repeats collapsed. Each distinct ASN token is
    validated once too; a malformed one raises ``ValueError``, which is not
    cached."""
    parse_asn = functools.cache(_parse_asn_token)

    @functools.cache
    def parse_hops(text: str) -> tuple[int, ...]:
        hops = tuple(map(parse_asn, text.split()))
        if len(set(hops)) != len(hops):
            return tuple(asn for i, asn in enumerate(hops) if i == 0 or hops[i - 1] != asn)
        return hops

    return parse_hops


def parse_relationships(reader: Iterable[str]) -> RelationshipTable:
    """Parse ``a|b|-1`` (a provider of b) and ``a|b|0`` (peers) rows."""
    table = RelationshipTable()
    parse_asn = functools.cache(_parse_asn_token)
    for line_no, line in _data_lines(reader):
        parts = line.split("|")
        if len(parts) != 3:
            raise ParseError(f"line {line_no}: expected a|b|code, got {line!r}")
        try:
            a = parse_asn(parts[0])
            b = parse_asn(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from None
        if parts[2] == "-1":
            kind = RelKind.P2C
        elif parts[2] == "0":
            kind = RelKind.P2P
        else:
            raise ParseError(f"line {line_no}: unknown relationship code {parts[2]!r}")
        try:
            table.add(a, b, kind)
        except ParseError as exc:
            raise ParseError(f"line {line_no}: {exc}") from None
    return table


def parse_geo_and_delegations(
    geo_reader: Iterable[str],
    delegation_reader: Iterable[str],
) -> tuple[list[GeoRow], list[DelegationRow], list[RowRejection]]:
    """Parse raw geolocation rows and RIR extended-delegation rows.

    Semantic rules (round-up, delegation fallback) are applied later when the
    geo table is built; this only validates and retains the raw rows.
    """
    geo_rows: list[GeoRow] = []
    rejections: list[RowRejection] = []
    for line_no, line in _data_lines(geo_reader):
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"geo line {line_no}: expected prefix,country,count, got {line!r}")
        try:
            prefix = Prefix.parse(parts[0])
        except ValueError as exc:
            raise ParseError(f"geo line {line_no}: {exc}") from None
        try:
            country = validate_country(parts[1])
        except ValueError:
            rejections.append(RowRejection(line_no, line, "unparsable country code"))
            continue
        try:
            count = int(parts[2])
        except ValueError:
            raise ParseError(f"geo line {line_no}: malformed address count {parts[2]!r}") from None
        if count < 0:
            raise ParseError(f"geo line {line_no}: negative address count")
        if count > prefix.size:
            raise ParseError(
                f"geo line {line_no}: count {count} exceeds capacity {prefix.size} of {prefix}"
            )
        geo_rows.append((prefix, country, count))

    delegation_rows: list[DelegationRow] = []
    for line_no, line in _data_lines(delegation_reader):
        parts = line.split("|")
        if len(parts) < 7:
            raise ParseError(
                f"delegation line {line_no}: expected registry|cc|ipv4|base|count|date|status"
            )
        if parts[2] != "ipv4":
            continue  # asn/ipv6/summary records are irrelevant here
        try:
            country = validate_country(parts[1])
        except ValueError:
            rejections.append(RowRejection(line_no, line, "unparsable country code"))
            continue
        base = parse_dotted_quad(parts[3])
        if base is None:
            raise ParseError(f"delegation line {line_no}: malformed base address {parts[3]!r}")
        try:
            count = int(parts[4])
        except ValueError:
            raise ParseError(f"delegation line {line_no}: malformed count {parts[4]!r}") from None
        if count <= 0:
            raise ParseError(f"delegation line {line_no}: non-positive count")
        delegation_rows.append((country, base, count))
    return geo_rows, delegation_rows, rejections


def parse_monitors(reader: Iterable[str]) -> dict[str, MonitorId]:
    """Parse ``monitor_id,host_asn,country`` rows into a unique inventory."""
    monitors: dict[str, MonitorId] = {}
    for line_no, line in _data_lines(reader):
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"monitor line {line_no}: expected id,host_asn,country")
        monitor_id = parts[0]
        if monitor_id in monitors:
            raise ParseError(f"monitor line {line_no}: duplicate monitor id {monitor_id!r}")
        try:
            host_asn = _parse_asn_token(parts[1])
        except ValueError:
            raise ParseError(f"monitor line {line_no}: invalid ASN {parts[1]!r}") from None
        try:
            country = validate_country(parts[2])
        except ValueError as exc:
            raise ParseError(f"monitor line {line_no}: {exc}") from None
        monitors[monitor_id] = MonitorId(id=monitor_id, host_asn=host_asn, country=country)
    return monitors


@dataclass
class AuxBundle:
    state_owned: list[tuple[int, str]] = field(default_factory=list)
    org_of: dict[int, str] = field(default_factory=dict)
    memberships: list[tuple[str, str, int]] = field(default_factory=list)
    hegemony: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    clique: frozenset[int] = frozenset()
    multi_origin: frozenset[Prefix] = frozenset()
    rejections: list[RowRejection] = field(default_factory=list)


def parse_aux_tables(
    state_owned_reader: Iterable[str] = (),
    org_reader: Iterable[str] = (),
    membership_reader: Iterable[str] = (),
    hegemony_reader: Iterable[str] = (),
    clique_reader: Iterable[str] = (),
    multi_origin_reader: Iterable[str] = (),
) -> AuxBundle:
    """Parse the auxiliary tables; out-of-range hegemony scores are rejected rows."""
    aux = AuxBundle()

    for line_no, line in _data_lines(state_owned_reader):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"state-owned line {line_no}: expected asn,country")
        try:
            asn = _parse_asn_token(parts[0])
            country = validate_country(parts[1])
        except ValueError as exc:
            raise ParseError(f"state-owned line {line_no}: {exc}") from None
        aux.state_owned.append((asn, country))

    for line_no, line in _data_lines(org_reader):
        parts = line.split("|")
        if len(parts) != 2:
            raise ParseError(f"org line {line_no}: expected asn|org_id")
        try:
            asn = _parse_asn_token(parts[0])
        except ValueError as exc:
            raise ParseError(f"org line {line_no}: {exc}") from None
        aux.org_of[asn] = parts[1]

    for line_no, line in _data_lines(membership_reader):
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"membership line {line_no}: expected facility_id,country,asn")
        try:
            country = validate_country(parts[1])
            asn = _parse_asn_token(parts[2])
        except ValueError as exc:
            raise ParseError(f"membership line {line_no}: {exc}") from None
        aux.memberships.append((parts[0], country, asn))

    # each AS, and many a score, recurs in many hegemony rows
    parse_asn = functools.cache(_parse_asn_token)
    parse_score = functools.cache(Fraction)
    for line_no, line in _data_lines(hegemony_reader):
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"hegemony line {line_no}: expected origin_asn,transit_asn,score")
        try:
            origin = parse_asn(parts[0])
            transit = parse_asn(parts[1])
            score = parse_score(parts[2])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"hegemony line {line_no}: {exc}") from None
        if not 0 <= score.numerator <= score.denominator:  # in [0, 1]
            aux.rejections.append(RowRejection(line_no, line, "hegemony score outside [0,1]"))
            continue
        aux.hegemony[(origin, transit)] = score

    clique: set[int] = set()
    for line_no, line in _data_lines(clique_reader):
        try:
            clique.add(_parse_asn_token(line))
        except ValueError as exc:
            raise ParseError(f"clique line {line_no}: {exc}") from None
    aux.clique = frozenset(clique)

    multi_origin: set[Prefix] = set()
    for line_no, line in _data_lines(multi_origin_reader):
        try:
            multi_origin.add(Prefix.parse(line))
        except ValueError as exc:
            raise ParseError(f"multi-origin line {line_no}: {exc}") from None
    aux.multi_origin = frozenset(multi_origin)

    return aux


def parse_reserved_asns(reader: Iterable[str]) -> frozenset[int]:
    reserved: set[int] = set()
    for line_no, line in _data_lines(reader):
        if not line.isdecimal():
            raise ParseError(f"reserved-ASN line {line_no}: malformed ASN {line!r}")
        reserved.add(int(line))
    return frozenset(reserved)


@dataclass
class DatasetBundle:
    """Everything the pipeline consumes, parsed into model types."""

    paths: Corpus
    relationships: RelationshipTable
    geo_rows: list[GeoRow]
    delegations: list[DelegationRow]
    monitors: dict[str, MonitorId]
    aux: AuxBundle
    reserved: frozenset[int] = frozenset()
    path_rejections: list[RowRejection] = field(default_factory=list)
    geo_rejections: list[RowRejection] = field(default_factory=list)


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

REQUIRED_FILES = ("paths", "relationships", "geo", "monitors")

# The files ``load_bundle`` reads; only transit-fraction reads the traceroutes.
BUNDLE_FILES = tuple(name for key, name in FILE_NAMES.items() if key != "traceroutes")


def load_bundle_from_texts(files: Mapping[str, str]) -> DatasetBundle:
    """Assemble a bundle from in-memory file contents keyed by canonical name.

    Missing required entries raise FileNotFoundError naming the file.
    """
    for key in REQUIRED_FILES:
        if FILE_NAMES[key] not in files:
            raise FileNotFoundError(FILE_NAMES[key])

    def lines(key: str) -> list[str]:
        return files.get(FILE_NAMES[key], "").splitlines()

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
    relationships = parse_relationships(lines("relationships"))
    geo_rows, delegations, geo_rejections = parse_geo_and_delegations(
        lines("geo"), lines("delegations")
    )
    return DatasetBundle(
        paths=paths,
        relationships=relationships,
        geo_rows=geo_rows,
        delegations=delegations,
        monitors=monitors,
        aux=aux,
        reserved=reserved,
        path_rejections=path_rejections,
        geo_rejections=geo_rejections,
    )


def load_bundle(directory: str) -> DatasetBundle:
    """Load a bundle from a directory using the canonical file names.

    Missing required files raise FileNotFoundError naming the file.
    """
    for key in REQUIRED_FILES:
        path = os.path.join(directory, FILE_NAMES[key])
        if not os.path.exists(path):
            raise FileNotFoundError(path)

    files: dict[str, str] = {}
    for name in BUNDLE_FILES:
        path = os.path.join(directory, name)
        if os.path.exists(path):
            files[name] = read_text(path)
    return load_bundle_from_texts(files)


def read_text(path: str) -> str:
    """The whole file as UTF-8 text; other bytes raise ``ParseError`` naming
    the file."""
    with _utf8_only(path), open(path, encoding="utf-8") as handle:
        return handle.read()


def read_lines(path: str) -> Iterator[str]:
    """The file's lines as UTF-8 text, read as they are consumed; other bytes
    raise ``ParseError`` naming the file."""
    with _utf8_only(path), open(path, encoding="utf-8") as handle:
        yield from handle


@contextlib.contextmanager
def _utf8_only(path: str) -> Iterator[None]:
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
