"""Metamorphic properties of the contribution kernel on small synthetic
instances."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cti import conglomerate, cti_core, ingest, outlier, pipeline, synth_oracle
from cti.geo import classify_nationality

SEEDS = st.integers(min_value=1, max_value=500)
FEW = settings(max_examples=25, deadline=None)
ENGAGING_TRIM = Fraction(1, 3)


def _files(seed):
    topo = synth_oracle.generate_topology(seed)
    return synth_oracle.emit_files(topo, synth_oracle.propagate_routes(topo))


def _substrate(files):
    return pipeline.build_substrate(ingest.load_bundle_from_texts(files, ingest.METRIC_FILES))


def _countries(sub):
    return [c for c in ("AA", "BB") if sub.geo.total.get(c, 0) > 0]


def _state_ctin(sub, country):
    ctin, _footprint = pipeline.state_footprint_reports(sub, country)
    return ctin


@FEW
@given(SEEDS, st.sampled_from([11, 101, 64500]))
def test_blind_monitor_scales_every_score(seed, host):
    files = _files(seed)
    sub = _substrate(files)
    blind = dict(files, **{"monitors.csv": files["monitors.csv"] + f"blind,{host},MM\n"})
    blind_sub = _substrate(blind)
    for country in _countries(sub):
        size = len([m for m in sub.bundle.paths.monitors if m.country != country])
        scale = Fraction(size, size + 1)
        before = pipeline.cti_report(sub, country, apply_outlier=False)
        after = pipeline.cti_report(blind_sub, country, apply_outlier=False)
        assert after.entries == {key: value * scale for key, value in before.entries.items()}
        ctin_before = _state_ctin(sub, country).entries
        assert _state_ctin(blind_sub, country).entries == {
            key: value * scale for key, value in ctin_before.items()
        }


def _with_aux(files):
    """The files plus a hegemony score for each (origin, provider) link and
    facility memberships in three countries, so clh and candidates have
    input."""
    links = [line.split("|") for line in files["relationships.txt"].splitlines()]
    hegemony = "".join(f"{b},{a},{(int(a) + int(b)) % 4}/4\n" for a, b, kind in links if kind == "-1")
    ases = sorted({int(asn) for a, b, _kind in links for asn in (a, b)})
    countries = ("AA", "BB", "MM")
    memberships = "".join(f"fac{asn % 3},{countries[asn % 3]},{asn}\n" for asn in ases)
    return dict(files, **{"hegemony.csv": hegemony, "memberships.csv": memberships})


def _order_free_results(files):
    """Every score the CLI reports, per country, from one set of files."""
    sub = _substrate(files)
    results = {}
    for country in _countries(sub):
        for min_hosts in (3, outlier.DEFAULT_MIN_HOSTS):
            report = pipeline.cti_report(sub, country, min_hosts, ENGAGING_TRIM)
            results[country, "cti", min_hosts] = report.entries
        ctin, footprint = pipeline.state_footprint_reports(sub, country)
        results[country, "ctin"] = ctin.entries
        results[country, "footprint"] = footprint.entries
        results[country, "clh"] = pipeline.clh_report(sub, country).entries
        results[country, "org"] = pipeline.org_aggregates(sub, country)
        results[country, "candidates"] = pipeline.candidate_results(sub, country)
        results[country, "transit"] = pipeline.transit_fraction(sub, country)
    return results


@FEW
@given(SEEDS, st.randoms(use_true_random=False))
def test_scores_ignore_path_row_order(seed, rng):
    files = _with_aux(_files(seed))
    shuffled = dict(files)
    for name in ("paths.txt", "traceroutes.txt"):
        lines = files[name].splitlines(keepends=True)
        rng.shuffle(lines)
        shuffled[name] = "".join(lines)
    expected = _order_free_results(files)
    assert expected
    assert _order_free_results(shuffled) == expected


@FEW
@given(SEEDS)
def test_every_score_lies_in_unit_interval(seed):
    sub = _substrate(_files(seed))
    for country in _countries(sub):
        table = pipeline.build_country_substrate(sub, country)
        values = list(pipeline.cti_report(sub, country, 2, ENGAGING_TRIM).entries.values())
        for transit in table.cells:
            values.extend(outlier.per_host_cti(table, transit).values())
            values.append(outlier.apply_outlier_filter(table, transit, 2, ENGAGING_TRIM).value)
        for report in pipeline.state_footprint_reports(sub, country):
            values.extend(report.entries.values())
        assert all(0 <= value <= 1 for value in values)


@FEW
@given(SEEDS)
def test_footprint_is_ctin_plus_originated_share(seed):
    sub = _substrate(_files(seed))
    nationality = classify_nationality(sub.geo)
    for country in _countries(sub):
        ctin, footprint = pipeline.state_footprint_reports(sub, country)
        members = conglomerate.state_members(sub.bundle.aux.state_owned, nationality, country)
        if not members:
            assert ctin.entries == footprint.entries == {}
            continue
        originated = conglomerate.originated_fraction(members, sub.geo, country)
        assert footprint.get(country, country) == ctin.get(country, country) + originated


@FEW
@given(SEEDS)
def test_cti_sums_each_transit_row_of_cells(seed):
    """compute_cti, a reduction over the groups, gives each transit AS the
    numerator that its row of cells sums to."""
    sub = _substrate(_files(seed))
    for country in _countries(sub):
        table = pipeline.build_country_substrate(sub, country)
        assert cti_core.compute_cti(table).entries == {
            (country, transit): table.score(sum(row.values()), table.n_monitors)
            for transit, row in table.cells.items()
        }
