"""The per-call route memos against the same work done row by row, by the
oracle's per-path literals (``synth_oracle._oracle_sanitize``,
``_oracle_retained_segment`` and ``_oracle_border``), which share no code
with the memos they check.

``parse_paths`` and ``parse_traceroutes`` parse each distinct hop text once,
``prepare_paths`` and ``retain_for_country`` judge each route once, through
its tail (the hops after the first) where the lead AS cannot change the
verdict, and test each row's host AS apart, ``compute_transit_fraction``
classifies each distinct route's border once from the count of traces per
route, and the kernel sums each (host AS, segment) group once. The corpora
here repeat routes across prefixes, give several monitors one host AS, share
tails between host ASes, and mix in every rejection category, prepending
that collapses, lead ASes that are reserved, clique ASes or repeated, and bad
rows that repeat, so a memo keyed on too little (the tail without its lead
AS, or the hops without the host AS, say) gives a different answer.
"""
import math
from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_ingest import (
    _outcome,
    _parse_path_rows,
    _parse_trace_counts,
    _reference_parse_paths,
    _reference_parse_traceroutes,
)
from test_pathprep import corpus_of, line_of, sanitize
from test_transit_dominance import rels_of, traces_of

from cti import cti_core, ingest, pathprep, pipeline
from cti import synth_oracle as so
from cti import transit_dominance as td
from cti.conglomerate import compute_ctin
from cti.geo import Nationality, build_geo_table
from cti.model import (
    MonitorId,
    PathRecord,
    Prefix,
    Rejection,
    RelKind,
    collapse_prepending,
)

CLIQUE = frozenset({1, 2})
RESERVED = frozenset({64512})
ASNS = (1, 2, 3, 4, 5, 6, 7)
# two host ASes, each hosting monitors on both sides of the AA border
MONITORS = tuple(MonitorId(f"m{i}", 3 + i % 2, "AA" if i < 2 else "BB") for i in range(6))
PREFIXES = tuple(Prefix((10 << 24) | (i << 8), 24) for i in range(6))
# Routes that reach every verdict, whichever of hosts 3 and 4 sees them.
SPECIAL_ROUTES = (
    (3, 5, 5, 6),  # prepending collapses; host 3 leads it
    (5, 6, 5),  # Loop
    (5, 64512, 6),  # Unallocated
    (1, 7, 2, 6),  # Poisoned
    (5, 3, 6),  # Loop for host 3 only: its AS after the first hop
    (4, 5, 6),  # host 4 leads it
    (3,),  # NoPeak for host 3: no transit AS once it is stripped
    (7, 6),  # NoPeak unless 7 is drawn as 6's provider
    (2, 7, 5, 6),  # three transit hops: 5, 7 and 2
    # lead ASes that a memo by tail must not skip
    (3, 3, 5, 6),  # host 3 prepends itself
    (64512, 5, 6),  # Unallocated at the lead
    (2, 4, 1, 5, 6),  # Poisoned by a clique lead, though host 4 follows it
    (1, 2, 5, 6),  # a clique lead next to the tail's clique AS wedges nothing
    (1, 5, 6),  # a clique lead over a tail without one
    (7, 5, 6, 7),  # Loop: the lead AS reappears in the tail
    (3, 7, 5, 6),  # hosts 3 and 4 lead one tail each
    (4, 7, 5, 6),
)
# host 3 provides transit to 5, so its segment depends on whether it leads;
# 2 above 7 above 5 gives a segment three transit hops long
BASE_EDGES = (
    (5, 6, RelKind.P2C),
    (3, 5, RelKind.P2C),
    (1, 5, RelKind.P2C),
    (2, 1, RelKind.P2P),
    (7, 5, RelKind.P2C),
    (2, 7, RelKind.P2C),
)
# bad rows, each repeated across the corpus
BAD_PATH_ROWS = (
    "m1|10.0.0.0/24|5 x",
    "m9|10.0.0.0/24|5 6",
    "m1|bogus|5 6",
    "m1|10.0.0.0/25|5 6",
    "m1|10.0.0.0/24|5 {6,7}",
    "m1|10.0.0.0/24|",
    "m1|10.0.0.0/24|0 6",
)
BAD_TRACEROUTE_ROWS = (
    "t-m1|10.0.0.0/24|5 x",
    "t-m1|bogus|5 6",
    "t-m1|10.0.0.0/24|",
    "t-m1|10.0.0.0/24|5 {6,7}",
)

_route = st.lists(st.sampled_from(ASNS), min_size=1, max_size=5).map(tuple)


@st.composite
def corpora(draw):
    """Paths unique per (monitor, prefix) over a small pool of routes."""
    pool = list(SPECIAL_ROUTES) + draw(st.lists(_route, min_size=1, max_size=4))
    cells = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(MONITORS), st.sampled_from(PREFIXES)),
            st.sampled_from(pool),
            max_size=30,
        )
    )
    return [PathRecord(monitor, prefix, hops) for (monitor, prefix), hops in cells.items()]


@st.composite
def relationships(draw):
    edges = {frozenset((a, b)): (a, b, kind) for a, b, kind in BASE_EDGES}
    pairs = st.tuples(st.sampled_from(ASNS), st.sampled_from(ASNS)).filter(lambda p: p[0] != p[1])
    for (a, b), kind in draw(st.dictionaries(pairs, st.sampled_from(RelKind), max_size=8)).items():
        edges.setdefault(frozenset((a, b)), (a, b, kind))  # at most one relationship per pair
    return rels_of(*edges.values())


@st.composite
def geo_tables(draw):
    rows = [(PREFIXES[0], "AA", 256)]  # AA always has address mass
    for prefix in PREFIXES[1:]:
        for country in draw(st.sets(st.sampled_from(["AA", "BB"]))):
            rows.append((prefix, country, draw(st.sampled_from([1, 256]))))
    origins = dict(zip(PREFIXES, draw(st.lists(st.sampled_from(ASNS), min_size=6, max_size=6))))
    geo, _rejections = build_geo_table(rows, [], origins)
    return geo


def _reference_sanitize(path, line):
    """The oracle's hygiene verdict of the path read from ``line``: the path
    with its collapsed hops, or its rejection."""
    hops = so._oracle_sanitize(path.hops, path.monitor.host_asn, CLIQUE, RESERVED, line)
    if isinstance(hops, Rejection):
        return hops
    return PathRecord(path.monitor, path.prefix, tuple(hops))


def _reference_prepare(paths):
    """The (line, path) pairs kept and the rejections of the paths, read from
    the lines ``corpus_of`` puts them on."""
    accepted, rejections = [], []
    for row, path in enumerate(paths):
        result = _reference_sanitize(path, line_of(row))
        if isinstance(result, Rejection):
            rejections.append(result)
        else:
            accepted.append((line_of(row), result))
    return accepted, rejections


def _reference_retain(sanitized, country, geo, rels):
    """Peak truncation of the sanitized (line, path) pairs, path by path."""
    retained, rejections = [], []
    for line, path in sanitized:
        if geo.mass.get((path.prefix, country), 0) == 0 or path.monitor.country == country:
            continue
        host = path.monitor.host_asn
        segment = so._oracle_retained_segment(path.hops, host, rels)
        if isinstance(segment, str):
            rejections.append(Rejection("paths.txt", line, "NoPeak", segment))
        else:
            retained.append((host, segment, path.prefix))
    return retained, rejections


def _reference_kernel(sanitized, rels, geo, country):
    """The kernel, term by term per path as it was before the (host AS,
    segment) groups, over every monitor of ``MONITORS`` outside the country,
    blind ones included: its fields as a dict, each W and S as a fraction of
    L, the products n*d of its counted paths, and the ctin of a member set."""
    monitors = [m for m in MONITORS if m.country != country]
    counted = []
    for path in sanitized:
        if geo.mass.get((path.prefix, country), 0) == 0 or path.monitor.country == country:
            continue
        segment = so._oracle_retained_segment(path.hops, path.monitor.host_asn, rels)
        if not isinstance(segment, str):
            counted.append((path, segment))
    observers = Counter((path.monitor.host_asn, path.prefix) for path, _segment in counted)
    rows = [
        (path, segment, geo.mass[(path.prefix, country)], observers[(path.monitor.host_asn, path.prefix)])
        for path, segment in counted
    ]
    products = {n * d for _path, segment, _mass, n in rows for d in range(1, len(segment))}
    lcm = math.lcm(*products)
    cells, groups = {}, {}
    for path, segment, mass, n in rows:
        host = path.monitor.host_asn
        groups[(host, segment)] = groups.get((host, segment), 0) + mass * (lcm // n)
        for distance, transit in enumerate(segment[1:], start=1):
            row = cells.setdefault(transit, {})
            row[host] = row.get(host, 0) + mass * (lcm // (n * distance))

    def ctin(members):
        numerator = 0
        for _path, segment, mass, n in rows:
            if segment[0] in members:
                continue
            for distance, transit in enumerate(segment[1:], start=1):
                if transit in members:
                    numerator += mass * (lcm // (n * distance))
                    break
        return Fraction(numerator, lcm * geo.country_total(country) * len(monitors))

    fields = {
        "denominator/L": geo.country_total(country),
        "n_monitors": len(monitors),
        "host_monitors": Counter(m.host_asn for m in monitors),
        "n_paths": len(rows),
        "groups": {key: Fraction(weight, lcm) for key, weight in groups.items()},
        "cells": _over(cells, lcm),
    }
    return fields, products, ctin


def _over(cells, lcm):
    """Each cell's numerator as a fraction of ``lcm``."""
    return {
        transit: {host: Fraction(numerator, lcm) for host, numerator in row.items()}
        for transit, row in cells.items()
    }


def _kernel_fields(table):
    """The kernel's fields as ``_reference_kernel`` gives them, its groups
    keyed (host AS, segment): L may be any common multiple of the n*d, so
    each W and S is compared as a fraction of it."""
    lcm = table.lcm
    groups = {
        (host, table.segments[segment_ix]): Fraction(weight, lcm)
        for segment_ix, weights in table.groups.items()
        for host, weight in weights.items()
    }
    fields = {"denominator/L": Fraction(table.denominator, lcm), "n_monitors": table.n_monitors}
    fields.update(host_monitors=table.host_monitors, n_paths=len(table))
    fields.update(groups=groups, cells=_over(table.cells, lcm))
    return fields


def _reference_transit_fraction(traces, rels, nationality, geo, country):
    """The transit fraction with one border per trace (a route per row)."""
    reached, crossed = {}, {}
    for hops in traces:
        if not nationality.is_domestic(hops[-1], country):
            continue
        reached[hops[-1]] = reached.get(hops[-1], 0) + 1
        border = so._oracle_border(hops, nationality.label, country)
        if border is not None and rels.is_p2c(*border):
            crossed[hops[-1]] = crossed.get(hops[-1], 0) + 1
    total = geo.country_total(country)
    fraction = Fraction(0)
    for origin, n in reached.items():
        share = Fraction(geo.originated.get((origin, country), 0), total)
        fraction += Fraction(crossed.get(origin, 0), n) * share
    return fraction


_SETTINGS = settings(max_examples=200, deadline=None)


@_SETTINGS
@given(corpora(), st.data())
def test_parsers_match_row_by_row(corpus, data):
    def text(path, probe=""):
        return f"{probe}{path.monitor.id}|{path.prefix}|{' '.join(map(str, path.hops))}"

    path_lines = [text(p) for p in corpus]
    trace_lines = [text(p, "t-") for p in corpus]
    for lines, bad in ((path_lines, BAD_PATH_ROWS), (trace_lines, BAD_TRACEROUTE_ROWS)):
        for row in data.draw(st.lists(st.sampled_from(bad), max_size=10)):
            lines.insert(data.draw(st.integers(0, len(lines))), row)
        if lines:
            lines[:0] = data.draw(st.lists(st.sampled_from(lines), max_size=3))  # identical repeats
    monitors = {m.id: m for m in MONITORS}
    assert _outcome(_parse_path_rows, path_lines, monitors) == _outcome(
        _reference_parse_paths, path_lines, monitors
    )
    assert _outcome(_parse_trace_counts, trace_lines) == _outcome(
        _reference_parse_traceroutes, trace_lines
    )


@_SETTINGS
@given(corpora())
# a miss collapses first, which copies the route and tail tables; the
# collapsed route after it must still be written to the copies
@example(
    [
        PathRecord(MONITORS[0], PREFIXES[0], (1, 1)),
        PathRecord(MONITORS[0], PREFIXES[1], (3, 5, 5, 6)),
    ]
)
def test_prepare_paths_matches_per_path_sanitize(corpus):
    for line, path in enumerate(corpus, start=1):
        assert sanitize(path, CLIQUE, RESERVED, line) == _reference_sanitize(path, line)
    for paths in (corpus, corpus[::-1]):
        raw = corpus_of(paths)
        sanitized, rejections = pathprep.prepare_paths(raw, CLIQUE, RESERVED)
        kept = list(zip(sanitized.line_no, sanitized))
        assert (kept, rejections) == _reference_prepare(paths)
        # a kept row keeps its lead AS, and its tail index unless its route
        # collapsed as a whole, onto a tail appended after the parsed ones
        rows = dict(zip(raw.line_no, zip(raw.lead, raw.tail_ix)))
        for line, lead, tail_ix in zip(sanitized.line_no, sanitized.lead, sanitized.tail_ix):
            raw_lead, raw_tail_ix = rows[line]
            assert lead == raw_lead
            assert tail_ix == raw_tail_ix or tail_ix >= len(raw.tails)
        # a parsed tail's entry is the tail, collapsed or not
        for tail, entry in zip(raw.tails, sanitized.tails):
            assert entry in (tail, collapse_prepending(tail))


@_SETTINGS
@given(corpora(), relationships(), geo_tables())
def test_retain_for_country_matches_per_path_truncation(corpus, rels, geo):
    sanitized, _rejections = pathprep.prepare_paths(corpus_of(corpus), CLIQUE, RESERVED)
    for country in ("AA", "BB"):
        expected = _reference_retain(zip(sanitized.line_no, sanitized), country, geo, rels)
        retained, rejections = pathprep.retain_for_country(sanitized, country, geo, rels)
        assert (list(retained), rejections) == expected


@_SETTINGS
@given(corpora(), relationships(), geo_tables())
def test_grouped_kernel_matches_per_path_terms(corpus, rels, geo):
    # every monitor is in the corpus's table, as the parser puts it there
    sanitized, _rejections = pathprep.prepare_paths(corpus_of(corpus, MONITORS), CLIQUE, RESERVED)
    for country in ("AA", "BB"):
        if not geo.total.get(country):
            continue
        retained, _no_peak = pathprep.retain_for_country(sanitized, country, geo, rels)
        table = cti_core.extract_observations(retained, geo, country)
        fields, products, ctin = _reference_kernel(list(sanitized), rels, geo, country)
        assert _kernel_fields(table) == fields
        # L is a common multiple of every counted n*d, not always the least
        assert all(table.lcm % product == 0 for product in products)
        for members in ({5}, {1, 5}, {3}, {2, 7}, set(ASNS)):
            assert compute_ctin(frozenset(members), table) == ctin(members)


@_SETTINGS
@given(
    corpora(),
    relationships(),
    geo_tables(),
    st.lists(st.sampled_from(["AA", "BB", None]), min_size=len(ASNS), max_size=len(ASNS)),
)
# the tail 5 6 7 goes domestic, foreign, domestic: its border is (6, 7), no
# p2c link, and not the lead's link (3, 5), which is one
@example(
    [PathRecord(MONITORS[0], PREFIXES[0], (3, 5, 6, 7))],
    rels_of(*BASE_EDGES),
    build_geo_table([(PREFIXES[0], "AA", 256)], [], {PREFIXES[0]: 7})[0],
    [None, None, None, None, "AA", "BB", "AA"],
)
def test_transit_fraction_matches_per_path_borders(corpus, rels, geo, labels):
    nationality = Nationality(dict(zip(ASNS, labels)))
    traces = [p.hops for p in corpus]
    expected = _reference_transit_fraction(traces, rels, nationality, geo, "AA")
    assert td.compute_transit_fraction(traces_of(traces), rels, nationality, geo, "AA") == expected


def test_special_routes_reach_every_verdict():
    corpus = [
        PathRecord(monitor, PREFIXES[0], hops)
        for monitor in MONITORS[2:4]  # hosts 3 and 4, both outside AA
        for hops in SPECIAL_ROUTES
    ]
    rels = rels_of(*BASE_EDGES)
    geo, _rejections = build_geo_table([(PREFIXES[0], "AA", 256)], [], {})
    sanitized, rejections = pathprep.prepare_paths(corpus_of(corpus), CLIQUE, RESERVED)
    retained, no_peak = pathprep.retain_for_country(sanitized, "AA", geo, rels)
    assert (list(zip(sanitized.line_no, sanitized)), rejections) == _reference_prepare(corpus)
    expected = _reference_retain(zip(sanitized.line_no, sanitized), "AA", geo, rels)
    assert (list(retained), no_peak) == expected
    reasons = {(r.category, r.detail) for r in rejections + no_peak}
    assert {category for category, _reason in reasons} == {
        pathprep.LOOP,
        pathprep.UNALLOCATED,
        pathprep.POISONED,
        pathprep.NO_PEAK,
    }
    assert (pathprep.LOOP, "monitor host ASN 3 after the first hop") in reasons
    assert (5, 3, 6) in [p.hops for p in sanitized]  # kept for host 4
    assert (3, 5, 6) in [p.hops for p in sanitized]  # collapsed
    # one route, two segments: host 3 is stripped, host 4 keeps AS 3 as the peak
    assert {segment for host, segment, _prefix in retained if host == 3} >= {(6, 5)}
    assert (6, 5, 3) in {segment for host, segment, _prefix in retained if host == 4}
    assert {host for host, segment, _prefix in retained if segment == (6, 5, 7, 2)} == {3, 4}


def test_each_verdict_is_judged_once_per_tail_or_per_route_off_the_tail_rule(monkeypatch):
    calls = Counter()
    for name in ("sanitize_route", "peak_segment"):

        def counted(*args, _judge=getattr(pathprep, name), _name=name):
            calls[_name] += 1
            return _judge(*args)

        monkeypatch.setattr(pathprep, name, counted)

    def keys(corpus):  # the distinct (lead AS, tail, host AS) triples of the rows
        rows = zip(corpus.monitor_ix, corpus.lead, corpus.tail_ix)
        return {(lead, tail_ix, corpus.monitors[m].host_asn) for m, lead, tail_ix in rows}

    def is_miss(route):  # a lead AS that the tail's verdict cannot speak for
        lead, tail = route[0], route[1:]
        if lead in bundle.reserved or lead in tail:
            return True
        return lead in clique and not clique.isdisjoint(tail) and tail[0] not in clique

    topo = so.generate_topology(7, so.SynthParams(n_clique=4, n_mid=30, n_stub=200, n_monitors=16))
    clean = so.propagate_routes(topo)
    # a clean corpus, and one whose prepended routes collapse onto tails
    # that the sanitized tails table then holds at several entries
    prepended, _manifest = so.inject_path_anomalies(clean, topo.clique, 7, n_prepends=400)
    for paths in (clean, prepended):
        calls.clear()
        bundle = ingest.load_bundle_from_texts(so.emit_files(topo, paths))
        parsed, clique = bundle.paths, bundle.aux.clique
        routes = {(lead, *parsed.tails[t]) for lead, t in set(zip(parsed.lead, parsed.tail_ix))}
        tails = {route[1:] for route in routes}
        misses = [route for route in routes if is_miss(route)]
        assert any(route[0] in clique for route in routes)  # clique leads take the tail rule
        assert len(tails) + len(misses) < len(keys(bundle.paths))
        sub = pipeline.build_substrate(bundle)
        assert calls["sanitize_route"] <= len(tails) + len(misses)
        sanitized = sub.sanitized
        if paths is clean:
            assert sanitized.tails is bundle.paths.tails  # interned once, kept for retention

        led_elsewhere = {
            (lead, tail_ix)
            for m, lead, tail_ix in zip(sanitized.monitor_ix, sanitized.lead, sanitized.tail_ix)
            if lead != sanitized.monitors[m].host_asn
        }
        entries = set(sanitized.tail_ix)
        tails = set(map(sanitized.tails.__getitem__, entries))  # by value
        if paths is prepended:
            assert len(tails) < len(entries)
        for country in ("AA", "BB"):
            calls.clear()
            pathprep.retain_for_country(sanitized, country, sub.geo, sub.rels)
            assert 0 < calls["peak_segment"] <= len(tails) + len(led_elsewhere)
            assert calls["peak_segment"] < len(keys(sanitized))
