"""The benchmark's bindings into the program still resolve.

``bench/tracing.py`` wraps functions by ``(module, attribute)`` name, and
the bench modules import and call program names directly. A refactor that
renames or moves one of them breaks the benchmark; these checks make it
fail here too. The bench sources are only read and imported, never changed.
"""
import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
BOUND_BY = ("workloads.py", "test_harness.py", "inputs.py")


def _import_bench(name: str):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def _resolve(module: str, attribute: str) -> object:
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        if hasattr(owner, "__path__") and not hasattr(owner, part):  # a package's submodule
            importlib.import_module(f"{owner.__name__}.{part}")
        owner = getattr(owner, part)
    return owner


def test_every_traced_target_resolves():
    targets = _import_bench("tracing").TARGETS
    assert targets
    for module, attribute, _span, _count in targets:
        assert callable(_resolve(f"cti.{module}", attribute)), (module, attribute)


def _program_bindings(source: str) -> set[tuple[str, str]]:
    """Every ``(module, name)`` a bench file takes from the program: the
    names it imports from ``cti`` modules, and the attributes it reads off
    a name so imported (``cli.main``, ``MetricReport.from_json``)."""
    tree = ast.parse(source)
    local: dict[str, tuple[str, str]] = {}  # local name -> (module, attribute path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "cti":
            for alias in node.names:
                local[alias.asname or alias.name] = (node.module, alias.name)
    bindings = set(local.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in local:
                module, name = local[node.value.id]
                bindings.add((module, f"{name}.{node.attr}"))
    return bindings


@pytest.mark.parametrize("name", BOUND_BY)
def test_bench_bindings_exist(name):
    bindings = _program_bindings((BENCH / name).read_text(encoding="utf-8"))
    assert bindings
    for module, attribute in sorted(bindings):
        assert _resolve(module, attribute) is not None, (name, module, attribute)


def test_binding_scan_sees_the_bench_calls():
    bindings = set().union(
        *(_program_bindings((BENCH / name).read_text(encoding="utf-8")) for name in BOUND_BY)
    )
    for expected in (
        ("cti", "cli.main"),
        ("cti", "cli.check_one_seed"),
        ("cti", "cli.compute_ctin"),
        ("cti", "pipeline.build_geo_table"),
        ("cti", "pipeline.classify_nationality"),
        ("cti.model", "MetricReport.from_json"),
    ):
        assert expected in bindings


def test_traced_commands_close_every_span_and_count_rows(tmp_path):
    """Traced ``cti``, ``clh`` and ``org`` commands and an oracle check, as
    ``bench/run.py --trace 1`` runs them: every span closes and the row
    counters see the rows, also of a bundle whose unread tables are None."""
    tracing = _import_bench("tracing")
    from cti import cli
    from cti import synth_oracle as so

    topo = so.preset_topology("toy-fig1")
    paths = so.propagate_routes(topo)
    for name, content in so.emit_files(topo, paths).items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    (tmp_path / "hegemony.csv").write_text("101,20,1/2\n101,30,2\n", encoding="utf-8")
    base = ["--input", str(tmp_path), "--country", "CU", "--output", str(tmp_path / "out")]
    commands = ("cti", "clh", "org")
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        for command in commands:
            args = [command, *base]
            tracer.wrap(f"cli.{command}", lambda: cli.main(args, standalone_mode=False))()
        assert tracer.counts["ingest.path_rows"] == len(commands) * len(paths)
        assert tracer.counts["ingest.rejected_rows"] == 1  # clh's out-of-range score
        assert tracer.wrap("cli.check_one_seed", cli.check_one_seed)(7) is None
    finally:
        uninstall()
    spans = tracer.finished()  # raises while a span is open
    assert tracer.ops == len(commands) + 1 and len(spans) > tracer.ops
    assert {"ingest.load_bundle", "clh_compare.compute_clh", "conglomerate.aggregate_org"} <= {
        span.name for span in spans
    }
    metrics = tracing.layer_metrics(spans, tracer.counts, 1, 0.0)
    for name in ("ingest.path_rows", "pathprep.retained_ratio", "cti_core.observations"):
        assert metrics[name][0] > 0, name


def test_seed_7_inputs_match_the_bench_pins():
    """The default seed's generated inputs hash to ``bench/pins.json``, as
    bench set-up requires, and the oracle expectations build on them: they
    read record attributes (``path.prefix``, ``path.hops``, ``p.monitor.id``)
    and methods of returned values that the binding scan cannot see."""
    inputs = _import_bench("inputs")
    pins = inputs.load_pins()["inputs"]
    instances = {}
    for workload in inputs.INSTANCES:
        topo, paths, files = inputs.build_instance(workload, inputs.DEFAULT_SEED)
        digests = {name: inputs.sha256(text.encode("utf-8")) for name, text in files.items()}
        assert digests == pins[workload], workload
        instances[workload] = topo, paths
    assert inputs.oracle_batch_digest(inputs.DEFAULT_SEED) == pins["oracle_check"]
    topo, paths = instances["country_cti"]
    expected = inputs.expectations(topo, paths)
    for country in topo.params.countries:
        assert expected["cti"][country], country
        assert expected["transit_fraction"][country] is not None, country
