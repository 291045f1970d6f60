"""Self-tests of the benchmark harness on hand-made inputs.

    python3 -m pytest bench
"""
from __future__ import annotations

import pytest

from measure import (
    MIN_P95_SAMPLES,
    REFERENCE_SECONDS,
    OpResult,
    Span,
    find_failures,
    latency_metrics,
    nearest_rank,
    reference_scale,
    reference_seconds,
    self_times,
)
from tracing import Tracer, install, layer_metrics


def test_self_time_subtracts_the_part_children_cover():
    spans = [
        Span("cli.cti", 0.0, 10.0, -1, 1),
        Span("ingest.load_bundle", 1.0, 3.0, 0, 1),
        Span("pipeline.build_substrate", 2.0, 4.0, 0, 1),  # overlaps its sibling
        Span("model.serialize", 9.0, 12.0, 0, 1),  # runs past its parent's end
        Span("ingest.load_bundle_from_texts", 1.5, 2.5, 1, 1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([Span("cli.cti", 2.0, 2.5, -1, 1)]) == [0.5]


def test_nearest_rank_percentile():
    values = [float(v) for v in range(100, 0, -1)]
    assert nearest_rank(values, 50) == 50.0
    assert nearest_rank(values, 95) == 95.0
    assert nearest_rank(values, 100) == 100.0
    assert nearest_rank([3.0, 1.0, 2.0, 4.0], 50) == 2.0
    assert nearest_rank([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_p95_is_omitted_below_the_sample_floor():
    short = latency_metrics([0.001] * (MIN_P95_SAMPLES - 1))
    assert set(short) == {"op_p50_ms"}
    enough = latency_metrics([i / 1000 for i in range(1, MIN_P95_SAMPLES + 1)])
    assert enough["op_p50_ms"] == pytest.approx(100.5)
    assert enough["op_p95_ms"] == pytest.approx(190.0)


def _no_oracle(_result: OpResult) -> None:
    return None


def test_non_zero_exit_counts_once():
    results = [
        OpResult("cti AA", 1.0, digest="a"),
        OpResult("cti AA", 1.0, error="exit status 4: computation error"),
        OpResult("cti AA", 1.0, digest="a"),
    ]
    failures = find_failures(results, {"cti AA": "a"}, _no_oracle)
    assert list(failures) == [1]
    assert len(failures) / len(results) == pytest.approx(1 / 3)


def test_digest_mismatch_counts_once_however_many_checks_fail():
    results = [
        OpResult("cti AA", 1.0, digest="a"),
        OpResult("org AA", 1.0, digest="b"),
        # differs from the first pass, from the pin and from the oracle
        OpResult("cti AA", 1.0, digest="c"),
        OpResult("org AA", 1.0, digest="b"),
    ]

    def oracle(result: OpResult) -> str | None:
        return "differs from naive_cti" if result.digest == "c" else None

    failures = find_failures(results, {"cti AA": "a", "org AA": "b"}, oracle)
    assert list(failures) == [2]
    assert "pinned" in failures[2] and "first pass" in failures[2]


def test_pins_apply_only_when_given():
    results = [OpResult("cti AA", 1.0, digest="a"), OpResult("cti AA", 1.0, digest="a")]
    assert find_failures(results, None, _no_oracle) == {}
    assert list(find_failures(results, {"cti BB": "a"}, _no_oracle)) == [0, 1]


def test_reference_scale_uses_the_mean_slowdown():
    assert reference_scale([REFERENCE_SECONDS]) == pytest.approx(1.0)
    # half the samples at twice the nominal duration: a 1.5x slowdown
    assert reference_scale([REFERENCE_SECONDS, 2 * REFERENCE_SECONDS]) == pytest.approx(1 / 1.5)
    assert reference_seconds(repeats=1) > 0


def test_tracer_records_parents_and_ops():
    tracer = Tracer()
    inner = tracer.wrap("cti_core.compute_cti", lambda: 1)
    middle = tracer.wrap("outlier.per_host_cti", lambda: inner() + inner())
    op = tracer.wrap("cli.cti", middle)
    assert op() == 2
    assert op() == 2
    spans = tracer.finished()
    assert [(s.name, s.parent, s.op) for s in spans[:4]] == [
        ("cli.cti", -1, 1),
        ("outlier.per_host_cti", 0, 1),
        ("cti_core.compute_cti", 1, 1),
        ("cti_core.compute_cti", 1, 1),
    ]
    assert spans[4].op == 2
    metrics = layer_metrics(spans, tracer.counts, passes=2, overhead_s=0.0)
    assert metrics["cti_core.compute_cti.from_per_host_cti.calls"] == (2.0, "count")
    assert metrics["cti_core.compute_cti.direct.calls"] == (0.0, "count")
    assert metrics["cli.calls"] == (1.0, "count")
    shares = sum(metrics[f"{layer}.self_share"][0] for layer in ("cli", "outlier", "cti_core"))
    assert shares == pytest.approx(1.0)


def test_install_wraps_every_binding_site_and_uninstall_restores():
    from cti import cli, conglomerate, cti_core, geo, outlier, pipeline

    def bindings():
        return (
            cti_core.compute_cti,
            outlier.compute_cti,
            conglomerate.compute_ctin,
            cli.compute_ctin,
            geo.build_geo_table,
            pipeline.build_geo_table,
            pipeline.classify_nationality,
        )

    before = bindings()
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        wrapped = bindings()
        assert all(new is not old for new, old in zip(wrapped, before))
        assert outlier.compute_cti is cti_core.compute_cti
        assert cli.compute_ctin is conglomerate.compute_ctin
        assert tracer.wrap("cli.check_one_seed", cli.check_one_seed)(1) is None
    finally:
        uninstall()
    assert bindings() == before
    names = {span.name for span in tracer.finished()}
    expected = {"synth_oracle.generate_topology", "synth_oracle.naive", "conglomerate.compute_ctin"}
    assert expected <= names
    assert tracer.ops == 1
    assert all(span.parent >= 0 for span in tracer.finished()[1:])
