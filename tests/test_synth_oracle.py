import dataclasses
import heapq
import importlib
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cti import synth_oracle as so
from cti.model import ComputationError, MonitorId, PathRecord, Prefix, RelKind


def test_generation_is_deterministic():
    a = so.generate_topology(seed=1)
    b = so.generate_topology(seed=1)
    files_a = so.emit_files(a, so.propagate_routes(a))
    files_b = so.emit_files(b, so.propagate_routes(b))
    assert files_a == files_b


def test_different_seeds_differ():
    a = so.emit_files(so.generate_topology(3), so.propagate_routes(so.generate_topology(3)))
    b = so.emit_files(so.generate_topology(4), so.propagate_routes(so.generate_topology(4)))
    assert a != b


def test_zero_stubs_is_an_error():
    with pytest.raises(ComputationError):
        so.SynthParams(n_stub=0)


def test_p2c_edges_form_a_dag_and_stubs_reach_clique():
    for seed in range(5):
        topo = so.generate_topology(seed)
        order = so._customer_first_order(topo.ases, topo.rels)  # raises on a cycle
        position = {asn: i for i, asn in enumerate(order)}
        for a, b, kind in topo.rels:
            if kind is RelKind.P2C:
                assert position[b] < position[a]
        for stub in topo.stubs:
            frontier = {stub}
            reached_clique = False
            while frontier and not reached_clique:
                frontier = set().union(*(topo.rels.providers_of(a) for a in frontier))
                reached_clique = bool(frontier & topo.clique)
            assert reached_clique


def _edge_kind(rels, a, b):
    """Direction of the (a, b) link walking origin -> monitor."""
    if rels.is_p2c(b, a):
        return "up"
    if rels.is_p2c(a, b):
        return "down"
    assert b in rels.peers_of(a), f"adjacent ASes {a},{b} without a relationship"
    return "peer"


def test_propagated_paths_are_valley_free():
    for seed in range(20):
        topo = so.generate_topology(seed)
        for path in so.propagate_routes(topo):
            walk = path.hops[::-1]  # origin outward
            kinds = [_edge_kind(topo.rels, walk[i], walk[i + 1]) for i in range(len(walk) - 1)]
            pattern = "".join({"up": "u", "peer": "p", "down": "d"}[k] for k in kinds)
            assert "du" not in pattern and "dp" not in pattern and "pu" not in pattern
            assert pattern.count("p") <= 1


def test_single_chain_propagation():
    topo = so.preset_topology("toy-fig1")
    paths = so.propagate_routes(topo)
    by_prefix = {p.prefix: p.hops for p in paths}
    assert by_prefix[Prefix.parse("10.0.0.0/24")] == (10, 20, 101)
    assert by_prefix[Prefix.parse("10.0.4.0/24")] == (10, 40, 103)
    assert len(paths) == 8


def test_equal_length_tie_breaks_on_lowest_next_hop():
    # two providers (20 and 30) both reach origin 101 in one hop; 20 wins at 10
    from cti.model import RelationshipTable

    rels = RelationshipTable.of(p2c=[(10, 30), (10, 20), (20, 101), (30, 101)])
    topo = so.preset_topology("toy-fig1")
    topo = so.SynthTopology(
        seed=0,
        params=topo.params,
        clique=frozenset({10}),
        mids=(20, 30),
        stubs=(101,),
        rels=rels,
        geo_rows=[],
        delegations=[],
        origin_of={},
        monitors=[],
    )
    routes = so.routes_for_prefix(topo, 101)
    assert routes[10] == (10, 20, 101)


def test_preset_rejects_unknown_name():
    with pytest.raises(ComputationError):
        so.preset_topology("nope")


def test_emit_files_round_trips_through_parsers():
    from cti import ingest

    topo = so.generate_topology(7)
    paths = so.propagate_routes(topo)
    bundle = ingest.load_bundle_from_texts(so.emit_files(topo, paths))
    assert len(bundle.paths) == len(paths)
    assert bundle.path_rejections == []
    assert bundle.aux.clique == topo.clique
    assert {m.id for m in bundle.paths.monitors} == {m.id for m in topo.monitors}
    # the generator checks no relationship: every table it gives passes the parser's checks whole
    for topo in [*map(so.generate_topology, range(1, 201)), *map(so.preset_topology, so.PRESETS)]:
        text = so.emit_files(topo, so.propagate_routes(topo))["relationships.txt"]
        assert set(ingest.parse_relationships(ingest.split_lines(text))) == set(topo.rels)


def test_the_generated_line_column_is_the_line_emit_files_writes_each_row_on():
    from cti import ingest

    for seed in range(1, 51):
        topo = so.generate_topology(seed)
        paths = so.propagate_routes(topo)
        corpora = [paths]
        if seed == 11:
            mutated, _manifest = so.inject_path_anomalies(
                paths, topo.clique, seed=5, n_loops=2, n_prepends=3, n_poisons=1
            )
            assert mutated.line_no is paths.line_no
            corpora.append(mutated)
        for corpus in corpora:
            assert corpus.line_no == range(1, len(corpus) + 1)
            lines = ingest.split_lines(so.emit_files(topo, corpus)["paths.txt"])
            monitors = {monitor.id: monitor for monitor in topo.monitors}
            parsed, rejections = ingest.parse_paths(lines, monitors)
            assert rejections == []
            assert parsed.monitor_ix == corpus.monitor_ix
            assert list(parsed) == list(corpus)
            assert list(parsed.line_no) == list(corpus.line_no)


def test_naive_cti_on_empty_paths_is_empty():
    topo = so.preset_topology("toy-fig1")
    assert so.naive_cti(topo, [], "CU").entries == {}


def test_naive_cti_toy_values():
    topo = so.preset_topology("toy-fig1")
    paths = so.propagate_routes(topo)
    report = so.naive_cti(topo, paths, "CU")
    assert report.get("CU", 40) == Fraction(1, 2)
    assert report.get("CU", 20) == Fraction(3, 8)
    assert report.get("CU", 30) == Fraction(1, 8)
    assert report.get("CU", 10) == 0


def test_injection_counts_and_eligibility():
    topo = so.generate_topology(11)
    paths = so.propagate_routes(topo)
    mutated, manifest = so.inject_path_anomalies(
        paths, topo.clique, seed=5, n_loops=2, n_prepends=3, n_poisons=1
    )
    assert manifest == {"Loop": 2, "Prepending": 3, "Poisoned": 1}
    assert len(mutated) == len(paths)
    changed = sum(1 for a, b in zip(mutated, paths) if a.hops != b.hops)
    assert changed == 6
    with pytest.raises(ComputationError):
        so.inject_path_anomalies(paths, topo.clique, seed=5, n_loops=len(paths) + 1)


def test_injection_leaves_its_input_as_it_was_and_shares_its_tables():
    topo = so.generate_topology(11)
    paths = so.propagate_routes(topo)
    before = list(paths)
    columns = (list(paths.tails), paths.monitor_ix[:], paths.prefix_ix[:])
    columns += (paths.lead[:], paths.tail_ix[:])
    mutated, _manifest = so.inject_path_anomalies(
        paths, topo.clique, seed=5, n_loops=2, n_prepends=3, n_poisons=1
    )
    assert list(paths) == before
    assert (paths.tails, paths.monitor_ix, paths.prefix_ix, paths.lead, paths.tail_ix) == columns
    assert mutated.monitors is paths.monitors
    assert mutated.prefixes is paths.prefixes
    assert mutated.tails[: len(paths.tails)] == paths.tails
    assert len(mutated.tails) == len(paths.tails) + 6


def test_injection_needs_two_clique_ases_for_poisoning():
    topo = so.preset_topology("toy-fig1")
    paths = so.propagate_routes(topo)
    with pytest.raises(ComputationError):
        so.inject_path_anomalies(paths, topo.clique, seed=1, n_poisons=1)


# Route propagation as it was first written: every AS pulls from all of its
# customers, then from all of its peers, then from its providers, with the
# customer-first order rebuilt for each origin. Kept as the reference that
# the push-based ``routes_for_prefix`` must match route for route.


def _best(current, candidate):
    # shorter path wins; equal lengths resolve by lowest next-hop ASN
    if current is None:
        return candidate
    if (len(candidate), candidate[1]) < (len(current), current[1]):
        return candidate
    return current


def _reference_customer_first_order(ases, rels):
    members = set(ases)
    pending = {asn: len(rels.customers_of(asn) & members) for asn in ases}
    heap = [asn for asn, count in pending.items() if count == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        asn = heapq.heappop(heap)
        order.append(asn)
        for provider in rels.providers_of(asn):
            if provider in pending:
                pending[provider] -= 1
                if pending[provider] == 0:
                    heapq.heappush(heap, provider)
    assert len(order) == len(ases)
    return order


def _reference_routes_for_prefix(topo, origin):
    ases = topo.ases
    rels = topo.rels
    order = _reference_customer_first_order(ases, rels)

    from_customer = {origin: (origin,)}
    for asn in order:
        if asn == origin:
            continue
        chosen = None
        for customer in sorted(rels.customers_of(asn)):
            route = from_customer.get(customer)
            if route is not None:
                chosen = _best(chosen, (asn,) + route)
        if chosen is not None:
            from_customer[asn] = chosen

    from_peer = {}
    for asn in ases:
        chosen = None
        for peer in sorted(rels.peers_of(asn)):
            route = from_customer.get(peer)
            if route is not None:
                chosen = _best(chosen, (asn,) + route)
        if chosen is not None:
            from_peer[asn] = chosen

    selected = dict(from_customer)
    for asn, route in from_peer.items():
        selected.setdefault(asn, route)

    from_provider = {}
    for asn in reversed(order):
        if asn in selected:
            continue
        chosen = None
        for provider in sorted(rels.providers_of(asn)):
            route = selected.get(provider) or from_provider.get(provider)
            if route is not None:
                chosen = _best(chosen, (asn,) + route)
        if chosen is not None:
            from_provider[asn] = chosen
    selected.update(from_provider)
    return selected


_LARGER = (
    so.SynthParams(n_clique=3, n_mid=12, n_stub=60, n_monitors=8),
    so.SynthParams(n_clique=5, n_mid=20, n_stub=80, n_monitors=10, prefixes_per_stub=3),
    so.SynthParams(n_clique=4, n_mid=30, n_stub=120, n_monitors=16),
)


def _instances():
    for seed in range(1, 121):
        yield so.generate_topology(seed)
    for index, params in enumerate(_LARGER):
        yield so.generate_topology(7 + index, params)
    for name in ("toy-fig1", "toy-fig1-indirect"):
        yield so.preset_topology(name)


def test_push_propagation_equals_pull_reference():
    for topo in _instances():
        plan = so.RoutePlan.of(topo)
        for origin in topo.ases:
            expected = _reference_routes_for_prefix(topo, origin)
            assert so.routes_for_prefix(topo, origin, plan) == expected, (topo.seed, origin)
        origin = max(topo.origin_of.values())
        assert so.routes_for_prefix(topo, origin) == _reference_routes_for_prefix(topo, origin)


def _reference_paths(topo):
    """``propagate_routes``'s rows, each host's route taken from the pull
    reference over every AS."""
    routes_of = {}
    paths = []
    for prefix in sorted(topo.origin_of):
        origin = topo.origin_of[prefix]
        if origin not in routes_of:
            routes_of[origin] = _reference_routes_for_prefix(topo, origin)
        for monitor in topo.monitors:
            route = routes_of[origin].get(monitor.host_asn)
            if route is not None:
                paths.append(PathRecord(monitor, prefix, route))
    return paths


def _with_monitors(topo, hosts):
    monitors = [MonitorId(f"m{i + 1}", host, "MM") for i, host in enumerate(hosts)]
    return dataclasses.replace(topo, monitors=monitors)


def _bench_layouts():
    """The benchmark's two CLI instances at its default seed, with its
    monitor layout: hosts drawn from the clique and the mid tier."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        inputs = importlib.import_module("inputs")
    finally:
        sys.path.remove(bench)
    for params in inputs.INSTANCES.values():
        yield inputs.place_monitors(so.generate_topology(7, params), 7)


def _host_layouts():
    """Every monitor on a clique host, on a mid-tier host, or on a stub."""
    for seed, params in enumerate(_LARGER, start=31):
        topo = so.generate_topology(seed, params)
        yield _with_monitors(topo, sorted(topo.clique))
        yield _with_monitors(topo, topo.mids[::3])
        yield _with_monitors(topo, topo.stubs[::7])


def _lone_host_topology():
    """Seed 5 with one more monitor, hosted by an AS with no links: it has
    no route to any origin."""
    topo = so.generate_topology(5)
    lone = MonitorId("m-lone", 999, "MM")
    return dataclasses.replace(topo, mids=topo.mids + (999,), monitors=topo.monitors + [lone])


def test_propagate_routes_equals_the_pull_reference():
    instances = [
        *_instances(),
        *_bench_layouts(),
        *_host_layouts(),
        _lone_host_topology(),
    ]
    for topo in instances:
        assert list(so.propagate_routes(topo)) == _reference_paths(topo), topo.seed


def test_the_route_table_holds_one_route_per_host_and_origin():
    for topo in [*list(_instances())[::7], *_bench_layouts(), _lone_host_topology()]:
        corpus = so.propagate_routes(topo)
        plan = so.RoutePlan.of(topo)
        expected = set()
        for origin in set(topo.origin_of.values()):
            routes = so.routes_for_prefix(topo, origin, plan)
            expected |= {
                (monitor.host_asn, origin) for monitor in topo.monitors if monitor.host_asn in routes
            }
        # each (host AS, origin) route is one lead AS over one interned tail
        routes = set(zip(corpus.lead, corpus.tail_ix))
        pairs = [(lead, (lead, *corpus.tails[tail_ix])[-1]) for lead, tail_ix in routes]
        assert len(pairs) == len(set(pairs)), topo.seed
        assert set(pairs) == expected, topo.seed
        # and each tail value is interned once, for some row
        tails = corpus.tails
        assert len(set(tails)) == len(tails) == len({tail_ix for _lead, tail_ix in routes})


def test_a_monitor_whose_host_has_no_route_gets_no_rows():
    paths = so.propagate_routes(_lone_host_topology())
    assert paths
    assert all(path.monitor.id != "m-lone" for path in paths)


def test_a_plan_for_some_ases_gives_each_the_route_of_the_full_plan():
    rng = random.Random(8)
    for topo in [*list(_instances())[::3], *_host_layouts()]:
        full = so.RoutePlan.of(topo)
        for size in (1, 2, 5):
            wanted = rng.sample(topo.ases, min(size, len(topo.ases)))
            plan = so.RoutePlan.of(topo, wanted)
            for origin in sorted(set(topo.origin_of.values())):
                routes = so.routes_for_prefix(topo, origin, plan)
                expected = so.routes_for_prefix(topo, origin, full)
                assert [routes.get(asn) for asn in wanted] == [
                    expected.get(asn) for asn in wanted
                ], (topo.seed, wanted, origin)


def _reference_emitted_paths(paths):
    path_lines = [f"{p.monitor.id}|{p.prefix}|{' '.join(str(h) for h in p.hops)}" for p in paths]
    traceroute_lines = [
        f"t-{p.monitor.id}|{p.prefix}|{' '.join(str(h) for h in p.hops)}" for p in paths
    ]
    return so._joined(path_lines), so._joined(traceroute_lines)


def test_emit_files_renders_each_path_as_the_per_path_reference():
    for topo in _instances():
        paths = so.propagate_routes(topo)
        if topo.seed % 4 == 0 and len(topo.clique) > 1:
            paths, _manifest = so.inject_path_anomalies(
                paths, topo.clique, topo.seed, n_loops=1, n_prepends=2, n_poisons=1
            )
        files = so.emit_files(topo, paths)
        assert (files["paths.txt"], files["traceroutes.txt"]) == _reference_emitted_paths(paths)


# The naive oracle with no ``OracleView``: every call rebuilds its own
# substrate (origins, masses, active monitors, observer counts), collapsing
# each path again, and builds each term from four factors. Kept as the
# reference that every naive function must match, with and without a shared
# view. Its per-path stages (collapse, peak cut, border) are the oracle's
# literals, written once in ``synth_oracle``.


def _reference_substrate(topo, paths, country):
    origin_of = {p.prefix: so._oracle_collapse(p.hops)[-1] for p in paths}
    mass = so._oracle_masses(topo, origin_of)
    total = so._oracle_country_total(mass, country)
    active = [m for m in topo.monitors if m.country != country]
    active_ids = {m.id for m in active}

    retained = {}
    for path in paths:
        if path.monitor.id not in active_ids:
            continue
        if mass.get((path.prefix, country), 0) == 0:
            continue
        hops = so._oracle_collapse(path.hops)
        segment = so._oracle_retained_segment(hops, path.monitor.host_asn, topo.rels)
        if not isinstance(segment, str):
            retained[(path.monitor, path.prefix)] = segment

    observer_counts = {}
    seen = {}
    for (monitor, prefix) in retained:
        seen.setdefault((monitor.host_asn, prefix), set()).add(monitor.id)
    for key, ids in seen.items():
        observer_counts[key] = len(ids)

    return retained, observer_counts, mass, total, active


def _reference_scores(substrate, country, monitors):
    retained, observers, mass, total, _active = substrate
    ids = {m.id for m in monitors}
    scores = {}
    for (monitor, prefix), segment in retained.items():
        if monitor.id not in ids:
            continue
        n = observers[(monitor.host_asn, prefix)]
        share = Fraction(mass[(prefix, country)], total)
        for distance in range(1, len(segment)):
            transit = segment[distance]
            term = Fraction(1, n) * Fraction(1, len(monitors)) * share * Fraction(1, distance)
            scores[transit] = scores.get(transit, Fraction(0)) + term
    return scores


def _reference_cti(topo, paths, country):
    substrate = _reference_substrate(topo, paths, country)
    *_, total, active = substrate
    if total == 0 or not active:
        return {}
    return {(country, t): v for t, v in _reference_scores(substrate, country, active).items()}


def _reference_outlier_cti(topo, paths, country, min_hosts, trim):
    substrate = _reference_substrate(topo, paths, country)
    *_, total, active = substrate
    if total == 0 or not active:
        return {}

    def scores_from(monitors):
        return _reference_scores(substrate, country, monitors)

    hosts = {m.host_asn for m in active}
    per_host = {h: scores_from([m for m in active if m.host_asn == h]) for h in hosts}
    entries = {}
    for transit, value in scores_from(active).items():
        host_values = {host: s[transit] for host, s in per_host.items() if transit in s}
        per_tail = math.floor(trim * len(host_values)) if len(host_values) >= min_hosts else 0
        if per_tail > 0:
            ranked = sorted(host_values, key=lambda host: (host_values[host], host))
            dropped = set(ranked[:per_tail] + ranked[-per_tail:])
            value = scores_from([m for m in active if m.host_asn not in dropped])[transit]
        entries[(country, transit)] = value
    return entries


def _reference_ctin(topo, paths, country, members):
    retained, observers, mass, total, active = _reference_substrate(topo, paths, country)
    if total == 0 or not active:
        return Fraction(0)
    score = Fraction(0)
    for (monitor, prefix), segment in retained.items():
        if segment[0] in members:
            continue
        distances = [d for d in range(1, len(segment)) if segment[d] in members]
        if not distances:
            continue
        n = observers[(monitor.host_asn, prefix)]
        share = Fraction(mass[(prefix, country)], total)
        score += Fraction(1, n) * Fraction(1, len(active)) * share * Fraction(1, min(distances))
    return score


def _reference_transit_fraction(topo, paths, traceroutes, country):
    origin_of = {p.prefix: so._oracle_collapse(p.hops)[-1] for p in paths}
    mass = so._oracle_masses(topo, origin_of)
    total = so._oracle_country_total(mass, country)
    if total == 0:
        return Fraction(0)
    label = so._oracle_nationality(topo, origin_of, mass)

    own = {}
    for (prefix, c), value in mass.items():
        if c != country:
            continue
        origin = origin_of.get(prefix)
        if origin is not None:
            own[origin] = own.get(origin, 0) + value

    reached, crossed = {}, {}
    for _probe, _prefix, raw_hops in traceroutes:
        hops = so._oracle_collapse(raw_hops)
        origin = hops[-1]
        if label.get(origin) != country:
            continue
        reached[origin] = reached.get(origin, 0) + 1
        border = so._oracle_border(hops, label, country)
        if border is not None and topo.rels.is_p2c(*border):
            crossed[origin] = crossed.get(origin, 0) + 1

    fraction = Fraction(0)
    for origin, count in reached.items():
        hits = crossed.get(origin, 0)
        if hits:
            fraction += Fraction(hits, count) * Fraction(own.get(origin, 0), total)
    return fraction


def _oracle_instances():
    """Seeds 1-120, every third also with injected anomalies, and both presets,
    each with its paths."""
    for seed in range(1, 121):
        topo = so.generate_topology(seed)
        paths = so.propagate_routes(topo)
        yield topo, paths
        if seed % 3 == 0:
            injected, _manifest = so.inject_path_anomalies(
                paths, topo.clique, seed, n_loops=2, n_prepends=2, n_poisons=1
            )
            yield topo, injected
    for name in ("toy-fig1", "toy-fig1-indirect"):
        topo = so.preset_topology(name)
        yield topo, so.propagate_routes(topo)


FILTERS = ((1, Fraction(1, 3)), (2, Fraction(1, 3)), (3, Fraction(1, 4)))  # (min_hosts, trim)


def test_naive_functions_equal_the_per_call_reference():
    for topo, paths in _oracle_instances():
        traceroutes = [(f"t-{p.monitor.id}", p.prefix, p.hops) for p in paths]
        countries = sorted({*topo.params.countries, *(c for _p, c, _n in topo.geo_rows)})
        member_sets = [
            frozenset(asn for asn, _c in topo.state_owned),
            frozenset(topo.mids[:2]),
            frozenset({max(topo.origin_of.values()), *topo.clique}),
        ]
        expected = {
            country: (
                _reference_cti(topo, paths, country),
                [_reference_outlier_cti(topo, paths, country, *f) for f in FILTERS],
                [_reference_ctin(topo, paths, country, members) for members in member_sets],
                _reference_transit_fraction(topo, paths, traceroutes, country),
            )
            for country in countries
        }
        for view in (None, so.OracleView(topo, paths)):
            actual = {
                country: (
                    so.naive_cti(topo, paths, country, view=view).entries,
                    [
                        so.naive_outlier_cti(topo, paths, country, *f, view=view).entries
                        for f in FILTERS
                    ],
                    [
                        so.naive_ctin(topo, paths, country, members, view=view)
                        for members in member_sets
                    ],
                    so.naive_transit_fraction(topo, paths, traceroutes, country, view=view),
                )
                for country in countries
            }
            assert actual == expected, (topo.seed, view is None)


def test_a_view_of_another_instance_is_an_error():
    topo = so.generate_topology(3)
    paths = so.propagate_routes(topo)
    other = so.OracleView(topo, list(paths))
    with pytest.raises(ComputationError):
        so.naive_cti(topo, paths, "AA", view=other)


def test_check_one_seed_builds_each_oracle_input_once(monkeypatch):
    """Per seed: the masses and the labels once, each checked country's
    substrate once."""
    calls = {"_oracle_masses": [], "_oracle_nationality": [], "_oracle_substrate": []}
    for name, seen in calls.items():

        def counted(*args, original=getattr(so, name), seen=seen):
            seen.append(args[-1])  # the country, for a substrate
            return original(*args)

        monkeypatch.setattr(so, name, counted)
    for seed in range(1, 21):
        for seen in calls.values():
            seen.clear()
        assert so.check_one_seed(seed) is None
        assert len(calls["_oracle_masses"]) == 1, seed
        assert len(calls["_oracle_nationality"]) == 1, seed
        countries = calls["_oracle_substrate"]
        assert countries and len(countries) == len(set(countries)), seed


def _literal_state_members(topo, view, country):
    """The ASes that ``state_owned.csv`` lists for the country and that hold
    at least 2/3 of their own originated addresses there, with no credit
    for their customers' addresses."""
    own: dict[int, dict[str, int]] = {}
    for (prefix, mass_country), value in view.mass.items():
        by_country = own.setdefault(view.origin_of[prefix], {})
        by_country[mass_country] = by_country.get(mass_country, 0) + value
    members = set()
    for asn, owner in topo.state_owned:
        addresses = own.get(asn, {})
        total = sum(addresses.values())
        if owner == country and total > 0 and 3 * addresses.get(country, 0) >= 2 * total:
            members.add(asn)
    return frozenset(members)


def test_cli_state_reports_equal_the_oracle_over_the_literal_member_rule():
    """The ctin and footprint reports that the commands write, against
    ``naive_ctin`` over the literal member rule, and the literal share of
    the country's addresses that the members originate."""
    from cti import ingest, pipeline

    for seed in range(1, 201):
        topo = so.generate_topology(seed)
        paths = so.propagate_routes(topo)
        sub = pipeline.build_substrate(ingest.load_bundle_from_texts(so.emit_files(topo, paths)))
        view = so.OracleView(topo, paths)
        for country in topo.params.countries:
            total = sum(v for (_prefix, c), v in view.mass.items() if c == country)
            if total == 0:
                with pytest.raises(ComputationError, match="no address mass"):
                    pipeline.state_footprint_reports(sub, country)
                continue
            ctin, footprint = pipeline.state_footprint_reports(sub, country)
            members = _literal_state_members(topo, view, country)
            if not members:
                assert ctin.entries == footprint.entries == {}, (seed, country)
                continue
            expected = so.naive_ctin(topo, paths, country, members, view=view)
            originated = sum(
                v
                for (prefix, c), v in view.mass.items()
                if c == country and view.origin_of[prefix] in members
            )
            assert ctin.entries == {(country, country): expected}, (seed, country)
            assert footprint.entries == {
                (country, country): expected + Fraction(originated, total)
            }, (seed, country)


def _provider_chain(depth):
    """One clique AS above a chain of ``depth`` transit ASes down to an
    origin, and a second origin one hop higher up the chain (a shorter
    route). The second AS of the chain from the top is state-owned, and the
    one monitor sits in the clique AS."""
    from cti.model import RelationshipTable

    top, deep, shallow = 1, 1001, 1002
    chain = tuple(range(101, 101 + depth))  # chain[0] is the clique AS's customer
    p2c = [*zip((top,) + chain, chain + (deep,)), (chain[-2], shallow)]
    rels = RelationshipTable.of(p2c=p2c)
    origin_of = {Prefix(10 << 24, 24): deep, Prefix((10 << 24) | 256, 24): shallow}
    params = so.SynthParams(n_clique=1, n_mid=depth, n_stub=2, n_monitors=1, countries=("AA",))
    return so.SynthTopology(
        seed=0,
        params=params,
        clique=frozenset({top}),
        mids=chain,
        stubs=(deep, shallow),
        rels=rels,
        geo_rows=[(prefix, "AA", 256) for prefix in origin_of],
        delegations=[],
        origin_of=origin_of,
        monitors=[MonitorId("m1", top, "MM")],
        state_owned=[(chain[1], "AA")],
    )


@pytest.mark.parametrize("depth", [3, 4, 5])
def test_check_instance_reaches_transit_hops_at_distance_three_and_more(depth):
    """The generated seeds cap a retained segment at two transit hops; a
    hand-built chain puts a transit AS, and the state-owned one, farther
    out."""
    topo = _provider_chain(depth)
    view = so.OracleView(topo, so.propagate_routes(topo))
    segments = view.country("AA").retained.values()
    assert max(len(segment) - 1 for segment in segments) == depth
    assert so.check_instance(topo) is None


def test_the_pipeline_equals_the_oracle_on_prepended_instances():
    """Seeds 1-200 with prepending injected, read back from their files, so
    that collapsed routes go through retention and the kernel: cti, the ctin
    of the state-owned set and the transit fraction equal the oracle's."""
    from cti import conglomerate, cti_core, ingest, pipeline

    checked = 0
    for seed in range(1, 201):
        topo = so.generate_topology(seed)
        paths, _manifest = so.inject_path_anomalies(
            so.propagate_routes(topo), topo.clique, seed, n_prepends=4
        )
        files = so.emit_files(topo, paths)
        bundle = ingest.load_bundle_from_texts(files, ingest.METRIC_FILES)
        sub = pipeline.build_substrate(bundle)
        assert sub.sanitized.tails is not bundle.paths.tails, seed  # a route collapsed
        view = so.OracleView(topo, paths)
        traceroutes = [(f"t-{p.monitor.id}", p.prefix, p.hops) for p in view.records]
        members = frozenset(asn for asn, _c in topo.state_owned)
        for country in topo.params.countries:
            if sub.geo.total.get(country, 0) <= 0:
                continue
            table = pipeline.build_country_substrate(sub, country)
            assert (
                cti_core.compute_cti(table).entries
                == so.naive_cti(topo, paths, country, view=view).entries
            ), (seed, country)
            assert conglomerate.compute_ctin(members, table) == so.naive_ctin(
                topo, paths, country, members, view=view
            ), (seed, country)
            assert pipeline.transit_fraction(sub, country) == so.naive_transit_fraction(
                topo, paths, traceroutes, country, view=view
            ), (seed, country)
            checked += 1
    assert checked > 300
