"""Synthetic topology generator, valley-free route propagation, anomaly
injection, and the naive score oracle.

The generator builds small seeded AS graphs (clique of peered top ASes,
mid-tier transits, origin stubs) and emits them in the standard input file
formats, so the pipeline consumes a synthetic instance exactly as it would
real data. The naive functions evaluate the same scores by literal
enumeration, sharing only the domain types with the pipeline; exact
equivalence between the two is the correctness oracle, which
``check_instance`` checks on one instance.

Each per-path stage is written once, literally, here: ``_oracle_collapse``
(prepending), ``_oracle_sanitize`` (path hygiene),
``_oracle_retained_segment`` (the cut at the topological peak) and
``_oracle_border`` (a traceroute's border crossing). The naive functions
call the collapse, the peak cut and the border; the per-path references
of the property tests call all four.
"""
from __future__ import annotations

import functools
import heapq
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import conglomerate, cti_core, ingest, pipeline, transit_dominance
from .ingest import DelegationRow, GeoRow
from .model import (
    ComputationError,
    Corpus,
    MetricReport,
    MonitorId,
    PathRecord,
    Prefix,
    Rejection,
    RelKind,
    RelationshipTable,
    Route,
    dotted_quad,
)

GEO_ROUND_UP = 256


@dataclass(frozen=True)
class SynthParams:
    n_clique: int = 2
    n_mid: int = 4
    n_stub: int = 6
    n_monitors: int = 3
    prefixes_per_stub: int = 2
    countries: tuple[str, ...] = ("AA", "BB")
    monitor_countries: tuple[str, ...] = ("MM",)

    def __post_init__(self) -> None:
        if self.n_clique < 1 or self.n_mid < 1 or self.n_stub < 1:
            raise ComputationError("each AS tier needs at least one member")
        if self.n_monitors < 1 or self.prefixes_per_stub < 1:
            raise ComputationError("need at least one monitor and one prefix per stub")
        if not self.countries or not self.monitor_countries:
            raise ComputationError("need at least one country in each pool")


@dataclass
class SynthTopology:
    seed: int
    params: SynthParams
    clique: frozenset[int]
    mids: tuple[int, ...]
    stubs: tuple[int, ...]
    rels: RelationshipTable
    geo_rows: list[GeoRow]
    delegations: list[DelegationRow]
    origin_of: dict[Prefix, int]
    monitors: list[MonitorId]
    state_owned: list[tuple[int, str]] = field(default_factory=list)
    org_of: dict[int, str] = field(default_factory=dict)

    @property
    def ases(self) -> list[int]:
        return sorted(set(self.clique) | set(self.mids) | set(self.stubs))


def generate_topology(seed: int, params: SynthParams | None = None) -> SynthTopology:
    """Deterministic random instance; identical seeds give identical topologies.

    Tiers are strict for provider links (clique above mid above stub), which
    keeps the p2c graph a DAG and every origin reachable from the clique.
    Peering exists inside the clique (full mesh) and sporadically within the
    mid and stub tiers. Some mid ASes originate prefixes too, so state
    conglomerates can contain both originating and pure-transit members.
    """
    params = params or SynthParams()
    rng = random.Random(seed)

    clique = tuple(range(11, 11 + params.n_clique))
    mids = tuple(range(101, 101 + params.n_mid))
    stubs = tuple(range(1001, 1001 + params.n_stub))

    rels = RelationshipTable()
    for i, a in enumerate(clique):
        for b in clique[i + 1 :]:
            rels.add(a, b, RelKind.P2P)
    for mid in mids:
        for provider in rng.sample(clique, rng.randint(1, len(clique))):
            rels.add(provider, mid, RelKind.P2C)
    for i, a in enumerate(mids):
        for b in mids[i + 1 :]:
            if rng.random() < 0.25:
                rels.add(a, b, RelKind.P2P)
    for stub in stubs:
        for provider in rng.sample(mids, rng.randint(1, min(2, len(mids)))):
            rels.add(provider, stub, RelKind.P2C)
        if rng.random() < 0.2:
            rels.add(rng.choice(clique), stub, RelKind.P2C)
    for i, a in enumerate(stubs):
        for b in stubs[i + 1 :]:
            if rng.random() < 0.1:
                rels.add(a, b, RelKind.P2P)

    origin_ases = list(stubs) + [mid for mid in mids if rng.random() < 0.4]
    geo_rows: list[GeoRow] = []
    delegations: list[DelegationRow] = []
    origin_of: dict[Prefix, int] = {}
    block = 0
    for asn in origin_ases:
        for _ in range(params.prefixes_per_stub):
            prefix = Prefix(base=(10 << 24) | (block << 8), length=24)
            block += 1
            origin_of[prefix] = asn
            country = rng.choice(params.countries)
            if rng.random() < 0.2:
                # delegation-fallback prefix: no geolocated mass at all
                delegations.append((country, prefix.base, prefix.size))
                continue
            geo_rows.append((prefix, country, rng.randint(1, prefix.size)))
            if rng.random() < 0.3:
                other = rng.choice(params.countries)
                if other != country:
                    geo_rows.append((prefix, other, rng.randint(0, prefix.size)))

    monitors: list[MonitorId] = []
    host_pool = list(clique) + list(mids)
    for index in range(params.n_monitors):
        host = rng.choice(host_pool)
        if rng.random() < 0.2:
            country = rng.choice(params.countries)
        else:
            country = rng.choice(params.monitor_countries)
        monitors.append(MonitorId(id=f"m{index + 1}", host_asn=host, country=country))

    state_country = params.countries[0]
    state_owned = sorted(
        asn for asn in list(mids) + list(stubs) if rng.random() < 0.35
    )

    org_of = {asn: f"org-{asn // 2}" for asn in origin_ases}

    return SynthTopology(
        seed=seed,
        params=params,
        clique=frozenset(clique),
        mids=mids,
        stubs=stubs,
        rels=rels,
        geo_rows=geo_rows,
        delegations=delegations,
        origin_of=origin_of,
        monitors=monitors,
        state_owned=[(asn, state_country) for asn in state_owned],
        org_of=org_of,
    )


PRESETS = ("toy-fig1", "toy-fig1-indirect")


def preset_topology(name: str) -> SynthTopology:
    """Hand-wired fixtures: a country served by three transit ASes under one
    top AS, with the monitor hosted either in the top AS (``toy-fig1``) or in
    a provider above it (``toy-fig1-indirect``). ``PRESETS`` names them."""
    if name not in PRESETS:
        raise ComputationError(f"unknown preset {name!r}")

    top, left, center, right = 10, 20, 30, 40
    origins = (101, 102, 103, 104)
    rels = RelationshipTable()
    for transit in (left, center, right):
        rels.add(top, transit, RelKind.P2C)
    rels.add(left, 101, RelKind.P2C)
    rels.add(center, 102, RelKind.P2C)
    rels.add(right, 103, RelKind.P2C)
    rels.add(right, 104, RelKind.P2C)

    owner_by_block = [101, 101, 101, 102, 103, 103, 104, 104]
    geo_rows: list[GeoRow] = []
    origin_of: dict[Prefix, int] = {}
    for block, owner in enumerate(owner_by_block):
        prefix = Prefix(base=(10 << 24) | (block << 8), length=24)
        origin_of[prefix] = owner
        geo_rows.append((prefix, "CU", 256))

    if name == "toy-fig1":
        clique = frozenset({top})
        mids = (left, center, right)
        monitor_host = top
    else:
        grand = 5
        rels.add(grand, top, RelKind.P2C)
        clique = frozenset({grand})
        mids = (top, left, center, right)
        monitor_host = grand

    return SynthTopology(
        seed=0,
        params=SynthParams(n_clique=1, n_mid=len(mids), n_stub=len(origins), n_monitors=1),
        clique=clique,
        mids=mids,
        stubs=origins,
        rels=rels,
        geo_rows=geo_rows,
        delegations=[],
        origin_of=origin_of,
        monitors=[MonitorId(id="m1", host_asn=monitor_host, country="US")],
    )


def _customer_first_order(ases: Sequence[int], rels: RelationshipTable) -> list[int]:
    """Topological order of the p2c DAG with every customer before its
    providers; ties resolve by ascending ASN."""
    members = set(ases)
    pending = {asn: len(rels.customers_of(asn) & members) for asn in ases}
    heap = [asn for asn, count in pending.items() if count == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        asn = heapq.heappop(heap)
        order.append(asn)
        for provider in rels.providers_of(asn):
            if provider in pending:
                pending[provider] -= 1
                if pending[provider] == 0:
                    heapq.heappush(heap, provider)
    if len(order) != len(ases):
        raise ComputationError("provider-customer links contain a cycle")
    return order


@dataclass(frozen=True)
class RoutePlan:
    """What route propagation needs of a topology, whatever the origin: each
    AS's position in the customer-first order, its providers and peers
    (sorted and restricted to the topology's ASes), and the providers-first
    order in which the provider stage pulls routes.

    The pull order covers the ASes whose routes are wanted and their provider
    ancestors, and only those ASes take a peer route: an AS's provider route
    reads only what its providers selected. A plan that names no ASes covers
    every AS."""

    position: dict[int, int]
    pull_order: list[int]
    providers: dict[int, tuple[int, ...]]
    peers: dict[int, tuple[int, ...]]

    @classmethod
    def of(cls, topo: SynthTopology, wanted: Sequence[int] = ()) -> "RoutePlan":
        ases = topo.ases
        members = set(ases)
        rels = topo.rels
        order = _customer_first_order(ases, rels)
        providers = {asn: tuple(sorted(rels.providers_of(asn) & members)) for asn in ases}
        covered = _with_provider_ancestors(wanted, providers) & members if wanted else members
        return cls(
            position={asn: index for index, asn in enumerate(order)},
            pull_order=[asn for asn in reversed(order) if asn in covered],
            providers=providers,
            peers={asn: tuple(sorted(rels.peers_of(asn) & covered)) for asn in ases},
        )


def _with_provider_ancestors(
    ases: Iterable[int], providers: Mapping[int, tuple[int, ...]]
) -> set[int]:
    """``ases`` and every AS above one of them in the provider graph."""
    covered: set[int] = set()
    stack = list(ases)
    while stack:
        asn = stack.pop()
        if asn not in covered:
            covered.add(asn)
            stack.extend(providers.get(asn, ()))
    return covered


def routes_for_prefix(
    topo: SynthTopology, origin: int, plan: RoutePlan | None = None
) -> dict[int, tuple[int, ...]]:
    """Per-AS preferred route to one origin under standard export policy:
    customer routes beat peer routes beat provider routes, then shortest
    path, then lowest next-hop ASN; customer routes are exported to every
    neighbor, peer and provider routes only to customers.

    ``plan`` is ``RoutePlan.of(topo)``, built here when not given; pass it
    when routing many origins over one topology. A plan built for some ASes
    gives each of them the route the full plan gives; the routes of other
    ASes may be missing.
    """
    plan = plan or RoutePlan.of(topo)

    # The customer and peer stages push each customer route to the
    # neighbours that import it. Within a stage every candidate an AS
    # receives comes from a different neighbour, which is the candidate's
    # next hop, and candidates rank by (length, next-hop ASN): no two
    # candidates tie, so the winner does not depend on the order in which
    # they arrive. A candidate is ranked before it is built, so only winners
    # become tuples. The customer stage visits the ASes the route reaches in
    # customer-first order (a heap of order positions), so all customers of
    # an AS have pushed to it before it pushes its own route on.
    position = plan.position
    from_customer: dict[int, tuple[int, ...]] = {origin: (origin,)}
    reached = [(position[origin], origin)]
    while reached:
        _position, asn = heapq.heappop(reached)
        route = from_customer[asn]
        length = len(route) + 1
        for provider in plan.providers[asn]:
            current = from_customer.get(provider)
            if current is None:
                heapq.heappush(reached, (position[provider], provider))
            elif not _ranks_before(length, asn, current):
                continue
            from_customer[provider] = (provider,) + route

    selected: dict[int, tuple[int, ...]] = dict(from_customer)
    for asn, route in from_customer.items():
        length = len(route) + 1
        for peer in plan.peers[asn]:
            if peer not in from_customer:
                current = selected.get(peer)
                if current is None or _ranks_before(length, asn, current):
                    selected[peer] = (peer,) + route

    # Provider routes are pulled, providers first: an AS without a customer
    # or peer route takes the best route any of its providers selected.
    # Providers are in ascending order, so among equally short routes the
    # first one seen has the lowest next hop.
    for asn in plan.pull_order:
        if asn in selected:
            continue
        best = None
        for provider in plan.providers[asn]:
            route = selected.get(provider)
            if route is not None and (best is None or len(route) < len(best)):
                best = route
        if best is not None:
            selected[asn] = (asn,) + best
    return selected


def _ranks_before(length: int, next_hop: int, current: tuple[int, ...]) -> bool:
    """Whether a candidate of ``length`` hops through ``next_hop`` beats the
    route ``current``: shorter wins, then the lower next-hop ASN. An origin's
    own one-hop route is never beaten."""
    return length < len(current) or (length == len(current) and next_hop < current[1])


def propagate_routes(topo: SynthTopology) -> Corpus:
    """One preferred path per (monitor, prefix) where the host AS has a route,
    in prefix order, then monitor order.

    Only the routes of the monitor host ASes and their providers are
    computed. The corpus's route table holds each (host AS, origin) route
    once: every monitor of a host AS, toward every prefix of an origin,
    shares it."""
    hosts = [monitor.host_asn for monitor in topo.monitors]
    distinct_hosts = list(dict.fromkeys(hosts))
    plan = RoutePlan.of(topo, distinct_hosts)
    corpus = Corpus(monitors=list(topo.monitors), prefixes=sorted(topo.origin_of), routes=[])
    # origin -> the monitor-index and route-index columns of each of its prefixes
    columns: dict[int, tuple[list[int], list[int]]] = {}
    for prefix_row, prefix in enumerate(corpus.prefixes):
        origin = topo.origin_of[prefix]
        if origin not in columns:
            routes = routes_for_prefix(topo, origin, plan)
            route_row: dict[int, int] = {}  # host AS -> its route's row in the table
            for host in distinct_hosts:
                if host in routes:
                    route_row[host] = len(corpus.routes)
                    corpus.routes.append(routes[host])
            monitor_column = [row for row, host in enumerate(hosts) if host in route_row]
            columns[origin] = monitor_column, [route_row[hosts[row]] for row in monitor_column]
        monitor_column, route_column = columns[origin]
        corpus.monitor_ix += monitor_column
        corpus.prefix_ix += [prefix_row] * len(monitor_column)
        corpus.route_ix += route_column
    corpus.line_no = range(1, len(corpus) + 1)  # the lines emit_files writes the rows on
    return corpus


def emit_files(topo: SynthTopology, paths: Corpus) -> dict[str, str]:
    """Render the instance in the standard input file formats."""
    # Each ASN, route, prefix and monitor text is rendered once, and a path
    # line joins the texts of its row's three table entries.
    asn_text = functools.cache(str)
    monitor_text = [f"{monitor.id}|" for monitor in paths.monitors]
    prefix_text = [f"{prefix}|" for prefix in paths.prefixes]
    route_text = [" ".join(map(asn_text, hops)) + "\n" for hops in paths.routes]
    paths_text = "".join(
        [
            monitor_text[m] + prefix_text[p] + route_text[r]
            for m, p, r in zip(paths.monitor_ix, paths.prefix_ix, paths.route_ix)
        ]
    )
    rel_lines = sorted(
        f"{a}|{b}|{'-1' if kind is RelKind.P2C else '0'}" for a, b, kind in topo.rels
    )
    geo_lines = [f"{prefix},{country},{count}" for prefix, country, count in topo.geo_rows]
    delegation_lines = [
        f"synth|{country}|ipv4|{dotted_quad(base)}|{count}|20200101|allocated"
        for country, base, count in topo.delegations
    ]
    monitor_lines = [f"{m.id},{m.host_asn},{m.country}" for m in topo.monitors]
    files = {
        "paths.txt": paths_text,
        "relationships.txt": _joined(rel_lines),
        "geo.csv": _joined(geo_lines),
        "delegations.txt": _joined(delegation_lines),
        "monitors.csv": _joined(monitor_lines),
        "clique.txt": _joined(str(asn) for asn in sorted(topo.clique)),
        "state_owned.csv": _joined(f"{asn},{country}" for asn, country in topo.state_owned),
        "as2org.txt": _joined(f"{asn}|{org}" for asn, org in sorted(topo.org_of.items())),
        # each traceroute line is "t-" and a path line
        "traceroutes.txt": paths_text and "t-" + paths_text[:-1].replace("\n", "\nt-") + "\n",
    }
    return files


def _joined(lines: Iterable[str]) -> str:
    body = "\n".join(lines)
    return body + "\n" if body else ""


# ---------------------------------------------------------------------------
# Anomaly injection


def inject_path_anomalies(
    paths: Corpus,
    clique: frozenset[int],
    seed: int,
    n_loops: int = 0,
    n_prepends: int = 0,
    n_poisons: int = 0,
) -> tuple[Corpus, dict[str, int]]:
    """A copy of a clean corpus with selected paths mutated, and the manifest
    of injected anomaly counts per category.

    Loops repeat the first hop non-consecutively, prepending duplicates a hop
    consecutively (harmless after collapse), and poisoning wedges a
    non-clique AS between two clique ASes. Each path is mutated at most once.
    The copy shares the input's monitor and prefix tables; each mutated path
    gets its own new entry in the copy's route table, and the input is left
    as it was.
    """
    rng = random.Random(seed)
    routes = list(paths.routes)
    route_ix = list(paths.route_ix)
    mutable = [len(set(hops)) >= 2 for hops in routes]
    eligible = [row for row, ix in enumerate(route_ix) if mutable[ix]]
    needed = n_loops + n_prepends + n_poisons
    if len(eligible) < needed:
        raise ComputationError(
            f"corpus has {len(eligible)} mutable paths, {needed} anomalies requested"
        )
    if n_poisons and len(clique) < 2:
        raise ComputationError("poisoning needs at least two clique ASes")
    targets = rng.sample(eligible, needed)
    loop_targets = set(targets[:n_loops])
    prepend_targets = set(targets[n_loops : n_loops + n_prepends])
    poison_targets = set(targets[n_loops + n_prepends :])

    def mutate(row: int, hops: Route) -> None:
        route_ix[row] = len(routes)
        routes.append(hops)

    for row in sorted(loop_targets):
        hops = routes[route_ix[row]]
        mutate(row, hops + (hops[0],))
    for row in sorted(prepend_targets):
        hops = routes[route_ix[row]]
        at = rng.randrange(len(hops))
        mutate(row, hops[: at + 1] + (hops[at],) + hops[at + 1 :])
    clique_sorted = sorted(clique)
    for row in sorted(poison_targets):
        hops = routes[route_ix[row]]
        ca, cb = rng.sample(clique_sorted, 2)
        wedge = next(h for h in hops if h not in clique)
        tail = tuple(h for h in hops if h not in (ca, cb, wedge))
        mutate(row, (ca, wedge, cb) + tail)

    mutated = Corpus(
        monitors=paths.monitors,
        prefixes=paths.prefixes,
        routes=routes,
        monitor_ix=list(paths.monitor_ix),
        prefix_ix=list(paths.prefix_ix),
        route_ix=route_ix,
        line_no=paths.line_no,
    )
    manifest = {"Loop": n_loops, "Prepending": n_prepends, "Poisoned": n_poisons}
    return mutated, manifest


# ---------------------------------------------------------------------------
# Naive oracle. Deliberately literal re-implementations that share only the
# domain types with the pipeline.


class OracleView:
    """The naive oracle's literal view of one instance: a topology and its
    paths. Each input is built once, when first asked for, and every naive
    function given the view reads the same copy: the paths as records, each
    path's collapsed hops, the origins, the address masses, the nationality
    labels and, per country, the retained segments (``country``)."""

    def __init__(self, topo: SynthTopology, paths: Iterable[PathRecord]) -> None:
        self.topo = topo
        self.paths = paths
        self._countries: dict[str, OracleCountry] = {}

    @functools.cached_property
    def records(self) -> list[PathRecord]:
        """The paths as a list of records, in path order: a ``Corpus`` builds
        a record each time a row is read."""
        return list(self.paths)

    @functools.cached_property
    def collapsed(self) -> list[list[int]]:
        """Each path's hops, consecutive repeats collapsed, in path order."""
        return [_oracle_collapse(path.hops) for path in self.records]

    @functools.cached_property
    def origin_of(self) -> dict[Prefix, int]:
        return {path.prefix: hops[-1] for path, hops in zip(self.records, self.collapsed)}

    @functools.cached_property
    def mass(self) -> dict[tuple[Prefix, str], int]:
        return _oracle_masses(self.topo, self.origin_of)

    @functools.cached_property
    def nationality(self) -> dict[int, str | None]:
        return _oracle_nationality(self.topo, self.origin_of, self.mass)

    def country(self, country: str) -> OracleCountry:
        if country not in self._countries:
            self._countries[country] = _oracle_substrate(self, country)
        return self._countries[country]


def _view_of(
    topo: SynthTopology, paths: Iterable[PathRecord], view: OracleView | None
) -> OracleView:
    """``view``, which must be of this very instance, or a new view of it."""
    if view is None:
        return OracleView(topo, paths)
    if view.topo is not topo or view.paths is not paths:
        raise ComputationError("the oracle view is of another instance")
    return view


@dataclass(frozen=True)
class OracleCountry:
    """The naive oracle's substrate for one country."""

    retained: dict[tuple[MonitorId, Prefix], tuple[int, ...]]  # origin-first segments
    observers: dict[tuple[int, Prefix], int]  # n per (host AS, prefix)
    mass: Mapping[tuple[Prefix, str], int]
    total: int  # A
    active: list[MonitorId]  # M


def _oracle_masses(
    topo: SynthTopology,
    origin_of: Mapping[Prefix, int],
) -> dict[tuple[Prefix, str], int]:
    mass: dict[tuple[Prefix, str], int] = {}
    for prefix, country, count in topo.geo_rows:
        if count > 0:
            mass[(prefix, country)] = count if count >= GEO_ROUND_UP else GEO_ROUND_UP
    located = {prefix for prefix, _country in mass}
    for prefix in origin_of:
        if prefix in located:
            continue
        covering = {
            country
            for country, base, count in topo.delegations
            if base <= prefix.base and prefix.base + prefix.size <= base + count
        }
        if len(covering) == 1:
            mass[(prefix, covering.pop())] = prefix.size
    return mass


def _oracle_country_total(mass: Mapping[tuple[Prefix, str], int], country: str) -> int:
    return sum(v for (_prefix, c), v in mass.items() if c == country)


def _oracle_collapse(hops: Sequence[int]) -> list[int]:
    collapsed: list[int] = []
    for asn in hops:
        if not collapsed or collapsed[-1] != asn:
            collapsed.append(asn)
    return collapsed


def _oracle_sanitize(
    hops: Sequence[int],
    host_asn: int,
    clique: frozenset[int],
    reserved: frozenset[int],
    line: int,
) -> list[int] | Rejection:
    """The hygiene verdict of a path read from ``paths.txt`` line ``line``:
    its collapsed hops, or why it is rejected."""
    collapsed = _oracle_collapse(hops)
    for asn in collapsed:
        if asn in reserved:
            return Rejection("paths.txt", line, "Unallocated", f"reserved ASN {asn}")
    if len(set(collapsed)) != len(collapsed):
        return Rejection("paths.txt", line, "Loop", "ASN repeats non-consecutively")
    clique_positions = [i for i, asn in enumerate(collapsed) if asn in clique]
    if clique_positions:
        lo, hi = clique_positions[0], clique_positions[-1]
        for i in range(lo + 1, hi):
            if collapsed[i] not in clique:
                reason = f"non-clique ASN {collapsed[i]} between clique ASes"
                return Rejection("paths.txt", line, "Poisoned", reason)
    if host_asn in collapsed[1:]:
        reason = f"monitor host ASN {host_asn} after the first hop"
        return Rejection("paths.txt", line, "Loop", reason)
    return collapsed


def _oracle_retained_segment(
    hops: Sequence[int], host_asn: int, rels: RelationshipTable
) -> tuple[int, ...] | str:
    """The origin-first segment up to the peak of a path's collapsed hops,
    or the NoPeak reason why it has none."""
    if hops and hops[0] == host_asn:
        hops = hops[1:]
    if len(hops) < 2:
        return "no transit AS on path"
    reverse = hops[::-1]
    peak = None
    for k in range(1, len(reverse)):
        if rels.is_p2c(reverse[k], reverse[k - 1]):
            peak = k
    if peak is None:
        return "no provider-customer link"
    return tuple(reverse[: peak + 1])


def _oracle_border(
    hops: Sequence[int], label: Mapping[int, str | None], country: str
) -> tuple[int, int] | None:
    """The link from the last hop (scanning from the probe) not labelled
    ``country`` to the hop after it; None when there is no such hop or it
    is the last."""
    last_foreign = None
    for index, asn in enumerate(hops):
        if label.get(asn) != country:
            last_foreign = index
    if last_foreign is None or last_foreign == len(hops) - 1:
        return None
    return hops[last_foreign], hops[last_foreign + 1]


def _oracle_substrate(view: OracleView, country: str) -> OracleCountry:
    mass = view.mass
    total = _oracle_country_total(mass, country)
    active = [m for m in view.topo.monitors if m.country != country]
    active_ids = {m.id for m in active}

    retained: dict[tuple[MonitorId, Prefix], tuple[int, ...]] = {}
    for path, hops in zip(view.records, view.collapsed):
        if path.monitor.id not in active_ids:
            continue
        if mass.get((path.prefix, country), 0) == 0:
            continue
        segment = _oracle_retained_segment(hops, path.monitor.host_asn, view.topo.rels)
        if not isinstance(segment, str):
            retained[(path.monitor, path.prefix)] = segment

    observer_counts: dict[tuple[int, Prefix], int] = {}
    seen: dict[tuple[int, Prefix], set[str]] = {}
    for (monitor, prefix) in retained:
        seen.setdefault((monitor.host_asn, prefix), set()).add(monitor.id)
    for key, ids in seen.items():
        observer_counts[key] = len(ids)

    return OracleCountry(retained, observer_counts, mass, total, active)


def _naive_scores(
    substrate: OracleCountry, country: str, monitors: Sequence[MonitorId]
) -> dict[int, Fraction]:
    """For every path of the given monitors, walk the retained segment and
    accumulate each transit AS's weighted, distance-discounted address share:
    the term w/|M| * mass/A * 1/d with w = 1/n, as one fraction."""
    ids = {m.id for m in monitors}
    scores: dict[int, Fraction] = {}
    for (monitor, prefix), segment in substrate.retained.items():
        if monitor.id not in ids:
            continue
        n = substrate.observers[(monitor.host_asn, prefix)]
        mass = substrate.mass[(prefix, country)]
        for distance in range(1, len(segment)):
            transit = segment[distance]
            term = Fraction(mass, n * len(monitors) * substrate.total * distance)
            scores[transit] = scores[transit] + term if transit in scores else term
    return scores


def naive_cti(
    topo: SynthTopology,
    paths: Iterable[PathRecord],
    country: str,
    *,
    view: OracleView | None = None,
) -> MetricReport:
    """Literal evaluation over every active monitor."""
    substrate = _view_of(topo, paths, view).country(country)
    report = MetricReport(metric_name="cti")
    if substrate.total == 0 or not substrate.active:
        return report
    for transit, value in _naive_scores(substrate, country, substrate.active).items():
        report.set(country, transit, value)
    return report


def naive_outlier_cti(
    topo: SynthTopology,
    paths: Iterable[PathRecord],
    country: str,
    min_hosts: int,
    trim: Fraction,
    *,
    view: OracleView | None = None,
) -> MetricReport:
    """Literal per-host outlier filter: score every transit AS from each host
    AS's monitors alone; when at least ``min_hosts`` hosts score it, drop
    floor(trim * H) hosts per tail (ties by host ASN) and rescore over the
    surviving monitors. Each distinct set of dropped hosts is rescored once."""
    substrate = _view_of(topo, paths, view).country(country)
    active = substrate.active
    report = MetricReport(metric_name="cti")
    if substrate.total == 0 or not active:
        return report

    rescored: dict[frozenset[int], dict[int, Fraction]] = {}

    def scores_without(dropped: frozenset[int]) -> dict[int, Fraction]:
        if dropped not in rescored:
            survivors = [m for m in active if m.host_asn not in dropped]
            rescored[dropped] = _naive_scores(substrate, country, survivors)
        return rescored[dropped]

    hosts = {m.host_asn for m in active}
    per_host = {
        h: _naive_scores(substrate, country, [m for m in active if m.host_asn == h])
        for h in hosts
    }
    for transit, value in scores_without(frozenset()).items():
        host_values = {host: s[transit] for host, s in per_host.items() if transit in s}
        per_tail = math.floor(trim * len(host_values)) if len(host_values) >= min_hosts else 0
        if per_tail > 0:
            ranked = sorted(host_values, key=lambda host: (host_values[host], host))
            value = scores_without(frozenset(ranked[:per_tail] + ranked[-per_tail:]))[transit]
        report.set(country, transit, value)
    return report


def naive_ctin(
    topo: SynthTopology,
    paths: Iterable[PathRecord],
    country: str,
    members: frozenset[int],
    *,
    view: OracleView | None = None,
) -> Fraction:
    """Set-level score: one term per (monitor, prefix) at the minimum member
    distance; prefixes originated by a member contribute nothing."""
    substrate = _view_of(topo, paths, view).country(country)
    total, active = substrate.total, substrate.active
    if total == 0 or not active:
        return Fraction(0)
    score = Fraction(0)
    for (monitor, prefix), segment in substrate.retained.items():
        if segment[0] in members:
            continue
        distances = [d for d in range(1, len(segment)) if segment[d] in members]
        if not distances:
            continue
        n = substrate.observers[(monitor.host_asn, prefix)]
        mass = substrate.mass[(prefix, country)]
        score += Fraction(mass, n * len(active) * total * min(distances))
    return score


def _oracle_nationality(
    topo: SynthTopology,
    origin_of: Mapping[Prefix, int],
    mass: Mapping[tuple[Prefix, str], int],
) -> dict[int, str | None]:
    own: dict[int, dict[str, int]] = {}
    for (prefix, country), value in mass.items():
        origin = origin_of.get(prefix)
        if origin is None:
            continue
        own.setdefault(origin, {})
        own[origin][country] = own[origin].get(country, 0) + value

    label: dict[int, str | None] = {}
    providers = {a for a, _b, kind in topo.rels if kind is RelKind.P2C}
    for asn in set(own) | providers:
        vector = dict(own.get(asn, {}))
        for customer in topo.rels.customers_of(asn):
            for country, value in own.get(customer, {}).items():
                vector[country] = vector.get(country, 0) + value
        total = sum(vector.values())
        label[asn] = None
        if total > 0:
            for country, value in vector.items():
                if 3 * value >= 2 * total:
                    label[asn] = country
    return label


def naive_transit_fraction(
    topo: SynthTopology,
    paths: Iterable[PathRecord],
    traceroutes: Sequence[tuple[str, Prefix, tuple[int, ...]]],
    country: str,
    *,
    view: OracleView | None = None,
) -> Fraction:
    """Literal border-crossing count: per domestic origin, the share of its
    traceroutes entering through a foreign-provider p2c link, weighted by the
    origin's share of the country's addresses."""
    view = _view_of(topo, paths, view)
    origin_of, mass = view.origin_of, view.mass
    total = _oracle_country_total(mass, country)
    if total == 0:
        return Fraction(0)
    label = view.nationality

    own: dict[int, int] = {}
    for (prefix, c), value in mass.items():
        if c != country:
            continue
        origin = origin_of.get(prefix)
        if origin is not None:
            own[origin] = own.get(origin, 0) + value

    reached: dict[int, int] = {}
    crossed: dict[int, int] = {}
    for _probe, _prefix, raw_hops in traceroutes:
        hops = _oracle_collapse(raw_hops)
        origin = hops[-1]
        if label.get(origin) != country:
            continue
        reached[origin] = reached.get(origin, 0) + 1
        border = _oracle_border(hops, label, country)
        if border is not None and topo.rels.is_p2c(*border):
            crossed[origin] = crossed.get(origin, 0) + 1

    fraction = Fraction(0)
    for origin, count in reached.items():
        hits = crossed.get(origin, 0)
        if hits:
            fraction += Fraction(hits * own.get(origin, 0), count * total)
    return fraction


# ---------------------------------------------------------------------------
# The oracle check: pipeline against naive oracle on one generated instance.


def check_one_seed(seed: int) -> str | None:
    """``check_instance`` on the instance ``generate_topology(seed)``."""
    return check_instance(generate_topology(seed))


def check_instance(topo: SynthTopology) -> str | None:
    """Compare pipeline and oracle on one instance; return a description of
    the first mismatch, or None when they agree exactly.

    Each country's kernel is built once and reduces to both cti (outlier
    filter off) and ctin; the bundle parses the traceroutes, and the transit
    nationality is classified, once. The oracle side is one ``OracleView``
    of the instance, shared by every naive call: the paths are read as
    records (the raw traceroutes are built from them too) and collapsed, and
    the origins, the address masses and the nationality labels built, once
    per seed, and each country's retained segments once per checked country.
    The pipeline and the naive functions are called through their modules'
    attributes, so a function replaced there (by a tracer, say) is the one
    called."""
    paths = propagate_routes(topo)
    files = emit_files(topo, paths)
    bundle = ingest.load_bundle_from_texts(files, ingest.METRIC_FILES)
    sub = pipeline.build_substrate(bundle)
    view = OracleView(topo, paths)
    raw_traceroutes = [(f"t-{p.monitor.id}", p.prefix, p.hops) for p in view.records]
    members = frozenset(asn for asn, _c in topo.state_owned)
    nationality = pipeline.transit_nationality(sub)
    for country in topo.params.countries:
        if sub.geo.total.get(country, 0) <= 0:
            continue
        table = pipeline.build_country_substrate(sub, country)
        pipe_cti = cti_core.compute_cti(table)
        oracle_cti = naive_cti(topo, paths, country, view=view)
        if pipe_cti.entries != oracle_cti.entries:
            return f"cti mismatch for {country}"

        if members:
            pipe_ctin = conglomerate.compute_ctin(members, table)
            oracle_ctin = naive_ctin(topo, paths, country, members, view=view)
            if pipe_ctin != oracle_ctin:
                return f"ctin mismatch for {country}"

        pipe_t = transit_dominance.compute_transit_fraction(
            bundle.traceroutes, sub.rels, nationality, sub.geo, country
        )
        oracle_t = naive_transit_fraction(topo, paths, raw_traceroutes, country, view=view)
        if pipe_t != oracle_t:
            return f"transit fraction mismatch for {country}"
    return None
