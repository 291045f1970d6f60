"""Every input command builds its tables with the cyclic garbage collector
paused (``cli._input_command``). That is sound only while the tables hold no
reference cycles, so that reference counting frees each of them; these tests
check that on a generated instance, also when sanitizing collapses routes
and when a parse fails."""
import contextlib
import gc
import weakref

import pytest

from cti import ingest, pipeline, synth_oracle
from cti.model import ParseError
from test_ingest import _generated_instance

COUNTRIES = ("AA", "BB")


@pytest.fixture
def collector_paused():
    """The collector is off in the test, with no garbage left from before."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _garbage():
    """The number of objects a collection frees now: those it counts, and
    those freed by a finalizer that breaks their cycle, such as a suspended
    generator's, which ``gc.collect()`` does not count."""
    refs = []
    for obj in gc.get_objects():
        with contextlib.suppress(TypeError):  # not every object takes a weak reference
            refs.append(weakref.ref(obj))
    found = gc.collect()
    return found + sum(ref() is None for ref in refs)


def _every_metric_input(directory):
    """The generated instance, with a hegemony score per relationship and two
    facility memberships per AS, so that clh and candidates have rows."""
    _generated_instance(directory)
    links = [line.split("|") for line in (directory / "relationships.txt").read_text().split()]
    ases = sorted({int(asn) for a, b, _code in links for asn in (a, b)})
    hegemony = "".join(f"{b},{a},1/{2 + i % 5}\n" for i, (a, b, _code) in enumerate(links))
    memberships = "".join(
        f"f{asn % 7},{COUNTRIES[asn % 2]},{asn}\nf{asn % 5 + 7},AA,{asn}\n" for asn in ases
    )
    (directory / "hegemony.csv").write_text(hegemony)
    (directory / "memberships.csv").write_text(memberships)


def _every_metric(directory):
    """Parse every file, build the substrate and reduce every metric for
    each country; the results are dropped on return."""
    sub = pipeline.build_substrate(ingest.load_bundle(str(directory), ingest.METRIC_FILES))
    assert len(sub.bundle.paths) == 6784
    results = []
    for country in COUNTRIES:
        results += [
            pipeline.cti_report(sub, country),
            pipeline.cti_report(sub, country, apply_outlier=False),
            pipeline.state_footprint_reports(sub, country),
            pipeline.org_aggregates(sub, country),
            pipeline.transit_fraction(sub, country),
            pipeline.candidate_results(sub, country),
            pipeline.clh_report(sub, country),
        ]
    assert all(result is not None for result in results)


def test_the_pipeline_makes_no_reference_cycles(tmp_path, collector_paused):
    _every_metric_input(tmp_path)
    _every_metric(tmp_path)  # first-call caches and imports are not the pipeline's
    gc.collect()
    _every_metric(tmp_path)
    assert _garbage() == 0


def test_collapsing_prepended_routes_makes_no_reference_cycles(collector_paused):
    def build():
        topo = synth_oracle.generate_topology(7)
        paths, _manifest = synth_oracle.inject_path_anomalies(
            synth_oracle.propagate_routes(topo), topo.clique, 7, n_prepends=20
        )
        bundle = ingest.load_bundle_from_texts(synth_oracle.emit_files(topo, paths))
        sub = pipeline.build_substrate(bundle)
        assert sub.sanitized.tails is not bundle.paths.tails  # a route collapsed
        for country in COUNTRIES:
            pipeline.build_country_substrate(sub, country)

    build()  # first-call caches and imports are not the pipeline's
    gc.collect()
    build()
    assert _garbage() == 0


@pytest.mark.parametrize(
    "name,row",
    [
        ("paths.txt", "m1|10.0.0.0/24"),  # a short row
        ("traceroutes.txt", "t-m1|10.0.0.0/24|1|2"),  # a long row
        ("geo.csv", "10.0.0.0/24,AA,257"),  # a ValueError while the row is handled
    ],
)
def test_a_parse_error_makes_no_reference_cycles(tmp_path, collector_paused, name, row):
    _every_metric_input(tmp_path)
    path = tmp_path / name
    path.write_text(path.read_text() + row + "\n")
    gc.collect()
    try:
        ingest.load_bundle(str(tmp_path), ingest.METRIC_FILES)
    except ParseError:
        pass
    else:
        pytest.fail(f"a bad row of {name} parsed")
    assert _garbage() == 0
