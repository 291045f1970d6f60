"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line with its runtime."""
import json
import time
from collections import Counter
from fractions import Fraction

import pytest
from click.testing import CliRunner

from cti import cti_core, ingest, outlier, pipeline, synth_oracle, transit_dominance
from cti.cli import check_one_seed, main
from cti.clh_compare import compare_reports
from cti.conglomerate import compute_ctin, originated_fraction
from cti.geo import Nationality, build_geo_table
from cti.model import (
    MetricReport,
    MonitorId,
    Prefix,
    RelationshipTable,
    collapse_prepending,
)
from cti.pathprep import prepare_paths, retain_for_country
from cti.synth_oracle import SynthParams
from test_pathprep import retained_of
from test_transit_dominance import traces_of

ORACLE_SEEDS = range(1, 501)


def _verdict(number, label, check):
    start = time.monotonic()
    try:
        check()
    except BaseException:
        print(f"[FAIL] criterion {number}: {label} ({time.monotonic() - start:.2f}s)")
        raise
    print(f"[PASS] criterion {number}: {label} ({time.monotonic() - start:.2f}s)")


def _toy_report(preset):
    topo = synth_oracle.preset_topology(preset)
    paths = synth_oracle.propagate_routes(topo)
    bundle = ingest.load_bundle_from_texts(synth_oracle.emit_files(topo, paths))
    sub = pipeline.build_substrate(bundle)
    return pipeline.cti_report(sub, "CU")


def test_criterion_1_toy_exactness():
    def check():
        start = time.monotonic()
        report = _toy_report("toy-fig1")
        assert report.get("CU", 40) == Fraction(1, 2)  # right
        assert report.get("CU", 20) == Fraction(3, 8)  # left
        assert report.get("CU", 30) == Fraction(1, 8)  # center
        assert report.get("CU", 10) == 0  # top
        for line in report.to_csv().splitlines()[1:]:
            _country, subject, text = line.split(",")
            assert abs(float(text) - float(report.get("CU", int(subject)))) < 1e-12
        assert time.monotonic() - start < 1.0

    _verdict(1, "toy fixture values 1/2, 3/8, 1/8, 0 exact", check)


def test_criterion_2_indirect_provider():
    def check():
        start = time.monotonic()
        report = _toy_report("toy-fig1-indirect")
        assert report.get("CU", 10) == Fraction(1, 2)  # top AS at distance 2
        assert report.get("CU", 40) == Fraction(1, 2)
        assert report.get("CU", 20) == Fraction(3, 8)
        assert report.get("CU", 30) == Fraction(1, 8)
        assert time.monotonic() - start < 1.0

    _verdict(2, "relocated monitor gives the top AS CTI 1/2", check)


def test_criterion_3_oracle_equivalence_500_seeds():
    def check():
        start = time.monotonic()
        for seed in ORACLE_SEEDS:
            mismatch = check_one_seed(seed)
            assert mismatch is None, f"seed {seed}: {mismatch}"
        assert time.monotonic() - start < 30.0

    _verdict(3, "pipeline equals naive oracle on 500 seeds (cti, ctin, t)", check)


def test_criterion_4_transit_fraction_contribution():
    def check():
        p1 = Prefix.parse("10.0.0.0/24")
        p2 = Prefix.parse("10.0.1.0/24")
        geo, _ = build_geo_table(
            [(p1, "CU", 256), (p2, "CU", 256)], [], {p1: 900, p2: 901}
        )
        rels = RelationshipTable.of(p2c=[(50, 900)], p2p=[(60, 900)])
        nationality = Nationality({900: "CU", 901: "CU"})
        traces = traces_of([(50, 900), (60, 900)])  # one trace per route toward p1
        value = transit_dominance.compute_transit_fraction(traces, rels, nationality, geo, "CU")
        # origin owns 1/2 the addresses, 1/2 of its traces cross a foreign p2c border
        assert value == Fraction(1, 4)

    _verdict(4, "worked transit-fraction contribution is exactly 0.25", check)


def _footprint_instance():
    """One monitor; state AS 500 originates 1 of 3 /24s (q = 1/3) and is the
    distance-1 transit for exactly one more (r = 1/3)."""
    monitor = MonitorId("m1", 10, "US")
    p_owned = Prefix.parse("10.0.0.0/24")
    p_transited = Prefix.parse("10.0.1.0/24")
    p_other = Prefix.parse("10.0.2.0/24")
    files = {
        "paths.txt": (
            f"m1|{p_owned}|10 500\n"
            f"m1|{p_transited}|10 500 901\n"
            f"m1|{p_other}|10 600 902\n"
        ),
        "relationships.txt": (
            "10|500|-1\n10|600|-1\n500|901|-1\n600|902|-1\n"
        ),
        "geo.csv": f"{p_owned},AA,256\n{p_transited},AA,256\n{p_other},AA,256\n",
        "monitors.csv": f"{monitor.id},{monitor.host_asn},{monitor.country}\n",
        "state_owned.csv": "500,AA\n",
    }
    return files


def test_criterion_5_footprint_consistency():
    def check():
        sub = pipeline.build_substrate(ingest.load_bundle_from_texts(_footprint_instance()))
        ctin, footprint = pipeline.state_footprint_reports(sub, "AA")
        assert ctin.entries == {("AA", "AA"): Fraction(1, 3)}
        assert footprint.entries == {("AA", "AA"): Fraction(1, 3) + Fraction(1, 3)}

        # F stays within [0, 1] across the oracle corpus
        for seed in ORACLE_SEEDS:
            topo = synth_oracle.generate_topology(seed)
            members = frozenset(asn for asn, _c in topo.state_owned)
            if not members:
                continue
            paths = synth_oracle.propagate_routes(topo)
            seed_sub = pipeline.build_substrate(
                ingest.load_bundle_from_texts(synth_oracle.emit_files(topo, paths))
            )
            for country in topo.params.countries:
                if seed_sub.geo.total.get(country, 0) <= 0:
                    continue
                seed_table = pipeline.build_country_substrate(seed_sub, country)
                value = compute_ctin(members, seed_table) + originated_fraction(
                    members, seed_sub.geo, country
                )
                assert 0 <= value <= 1

    _verdict(5, "footprint equals q + r exactly and stays in [0, 1]", check)


# A trim of 1/3 drops one host per tail from three hosts on; at the default
# 1/10 no instance with fewer than ten hosts would engage the filter.
ENGAGING_TRIM = Fraction(1, 3)
# Seed 1 of this size has 13 and 12 foreign host ASes toward AA and BB.
MANY_HOSTS = SynthParams(n_clique=3, n_mid=15, n_stub=30, n_monitors=20)


def test_criterion_6_filter_properties():
    def check():
        engaged = 0
        for seed in ORACLE_SEEDS:
            topo = synth_oracle.generate_topology(seed)
            paths = synth_oracle.propagate_routes(topo)
            sub = pipeline.build_substrate(
                ingest.load_bundle_from_texts(synth_oracle.emit_files(topo, paths))
            )
            for country in topo.params.countries:
                if sub.geo.total.get(country, 0) <= 0:
                    continue
                table = pipeline.build_country_substrate(sub, country)
                # (c) weights sum to one per (host AS, prefix): n counts the
                # host's monitors that observe the prefix over a retained path
                observers = {}
                for path in sub.sanitized:
                    if path.monitor.country == country:
                        continue
                    if not sub.geo.mass.get((path.prefix, country)):
                        continue
                    segment = synth_oracle._oracle_retained_segment(
                        path.hops, path.monitor.host_asn, sub.rels
                    )
                    if not isinstance(segment, str):
                        key = (path.monitor.host_asn, path.prefix)
                        observers.setdefault(key, set()).add(path.monitor.id)
                retained, _no_peak = retain_for_country(sub.sanitized, country, sub.geo, sub.rels)
                n_hosts = len(retained.hosts)
                weights = {
                    (retained.hosts[key % n_hosts], retained.prefixes[key // n_hosts]): n
                    for key, n in cti_core.compute_weights(retained).items()
                }
                # a (host AS, prefix) is counted exactly when its host AS has
                # two or more monitors outside the country; else n = 1
                outside = Counter(
                    m.host_asn for m in sub.bundle.paths.monitors if m.country != country
                )
                assert weights.keys() == {key for key in observers if outside[key[0]] > 1}
                for key, ids in observers.items():
                    assert Fraction(1, weights.get(key, 1)) * len(ids) == 1
                assert len(table) == sum(weights.get(key, 1) for key in observers)
                # (a) every host count here is < 10, so the filter is a no-op
                unfiltered = pipeline.cti_report(sub, country, apply_outlier=False)
                filtered = pipeline.cti_report(sub, country, apply_outlier=True)
                assert unfiltered.entries == filtered.entries
                # (d) the engaged filter equals the naive per-host oracle
                for min_hosts in (2, 3):
                    engaged_report = pipeline.cti_report(
                        sub, country, outlier_min_hosts=min_hosts, outlier_trim=ENGAGING_TRIM
                    )
                    oracle = synth_oracle.naive_outlier_cti(
                        topo, paths, country, min_hosts, ENGAGING_TRIM
                    )
                    assert engaged_report.entries == oracle.entries, (seed, country, min_hosts)
                    engaged += engaged_report.entries != unfiltered.entries
        assert engaged > 0

        # (d) ... and at the defaults on an instance with at least ten hosts
        topo = synth_oracle.generate_topology(1, MANY_HOSTS)
        paths = synth_oracle.propagate_routes(topo)
        sub = pipeline.build_substrate(
            ingest.load_bundle_from_texts(synth_oracle.emit_files(topo, paths))
        )
        for country in topo.params.countries:
            assert len({m.host_asn for m in topo.monitors if m.country != country}) >= 10
            filtered = pipeline.cti_report(sub, country)
            oracle = synth_oracle.naive_outlier_cti(
                topo, paths, country, outlier.DEFAULT_MIN_HOSTS, outlier.DEFAULT_TRIM
            )
            assert filtered.entries == oracle.entries
            assert filtered.entries != pipeline.cti_report(sub, country, apply_outlier=False).entries

        # (b) with ten equal-valued hosts, filtered equals unfiltered
        prefix = Prefix.parse("10.0.0.0/24")
        geo, _ = build_geo_table([(prefix, "CU", 256)], [], {})
        monitors = [MonitorId(f"m{i}", 1000 + i, "US") for i in range(10)]
        rows = [(m.host_asn, (900, 500), prefix) for m in monitors]
        retained = retained_of(rows, monitors)
        table = cti_core.extract_observations(retained, geo, "CU")
        result = outlier.apply_outlier_filter(table, 500)
        assert result.value == cti_core.compute_cti(table).get("CU", 500)
        assert len(result.excluded) == 2

    _verdict(
        6,
        "outlier no-op under 10 hosts, engaged filter equals oracle, equal-host identity, "
        "unit weights",
        check,
    )


def test_criterion_7_stability_tooling():
    def check():
        report = MetricReport("cti")
        report.set("CU", 40, Fraction(1, 2))
        report.set("CU", 20, Fraction(3, 8))
        stats = compare_reports(report, report)
        assert (stats.mean, stats.p25, stats.median, stats.p75) == (0, 0, 0, 0)

        a = MetricReport("a")
        a.set("CU", 1, Fraction(1, 2))
        a.set("CU", 2, Fraction(1, 10))
        b = MetricReport("b")
        b.set("CU", 1, Fraction(1, 4))
        b.set("CU", 3, Fraction(1, 10))
        stats = compare_reports(a, b)
        # diffs over the key union: |1/2-1/4|, |1/10-0|, |0-1/10| -> sorted [1/10, 1/10, 1/4]
        assert stats.n == 3
        assert stats.mean == Fraction(3, 20)
        assert stats.p25 == Fraction(1, 10)
        assert stats.median == Fraction(1, 10)
        assert stats.p75 == Fraction(1, 4)

    _verdict(7, "report comparison: zero on identity, exact hand-computed stats", check)


def _injected_rows(clean, mutated):
    """Each row that the injection changed, as {line: manifest category}, from
    the hops of each row before and after; row i is on line i + 1."""
    rows = {}
    for line, (before, after) in enumerate(zip(clean, mutated), start=1):
        if after == before + (before[0],):
            rows[line] = "Loop"
        elif after != before:
            rows[line] = "Prepending" if collapse_prepending(after) == before else "Poisoned"
    return rows


def _check_hygiene(rejections, injected, manifest):
    """Every hygiene rejection names paths.txt and the line of an injected
    loop or poisoned row, with its manifest category; prepending is
    normalized away, never rejected."""
    assert all(rejection.file == "paths.txt" for rejection in rejections)
    lines = [(rejection.line, rejection.category) for rejection in rejections]
    assert lines == sorted(lines)  # input order
    assert set(lines) == {(line, c) for line, c in injected.items() if c != "Prepending"}
    assert len(lines) == len(set(lines))
    assert Counter(injected.values()) == +Counter(manifest)


def test_criterion_8_path_hygiene_matches_injection_manifest(tmp_path):
    def check():
        for seed in (21, 22, 23):
            topo = synth_oracle.generate_topology(seed)
            paths = synth_oracle.propagate_routes(topo)
            mutated, manifest = synth_oracle.inject_path_anomalies(
                paths, topo.clique, seed=seed, n_loops=3, n_prepends=4, n_poisons=2
            )
            accepted, rejections = prepare_paths(mutated, topo.clique, frozenset())
            injected = _injected_rows([p.hops for p in paths], [p.hops for p in mutated])
            _check_hygiene(rejections, injected, manifest)
            assert len(accepted) == len(paths) - manifest["Loop"] - manifest["Poisoned"]

            # the same through the files that `cti synth` writes
            hops = {}
            injection = ["--loops", "3", "--prepends", "4", "--poisons", "2"]
            for name, options in (("clean", []), ("injected", injection)):
                out = tmp_path / f"{name}-{seed}"
                args = ["synth", "--seed", str(seed), "--output", str(out)] + options
                assert CliRunner().invoke(main, args).exit_code == 0
                lines = (out / "paths.txt").read_text().splitlines()
                hops[name] = [tuple(map(int, line.split("|")[2].split())) for line in lines]
            manifest = json.loads((out / "injection_manifest.json").read_text())
            sub = pipeline.build_substrate(ingest.load_bundle(str(out)))
            injected = _injected_rows(hops["clean"], hops["injected"])
            _check_hygiene(sub.hygiene_rejections, injected, manifest)

    _verdict(8, "hygiene rejections are the injected rows, by line and category", check)
