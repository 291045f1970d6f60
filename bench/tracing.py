"""Spans around the calls into each module of ``src/cti``, recorded from
benchmark code only, and the per-layer metrics derived from them.

A wrapper replaces a function at every binding site, not only in its
defining module: ``outlier`` imports ``compute_cti`` by name, ``cli``
imports ``compute_ctin`` by name and ``pipeline`` imports ``build_geo_table``
and ``classify_nationality`` by name, so wrapping only the defining module
would miss those calls. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

import program  # noqa: F401  (puts the checkout's src/ on sys.path)
from measure import Span, self_times

LAYERS = (
    "cli",
    "ingest",
    "pathprep",
    "geo",
    "pipeline",
    "cti_core",
    "outlier",
    "conglomerate",
    "transit_dominance",
    "clh_compare",
    "model",
    "synth_oracle",
)

Count = Callable[[Counter, object], None]


def _count_subject(counts: Counter, result) -> None:
    counts["outlier.subjects"] += 1
    counts["outlier.engaged"] += bool(result.excluded)


def _count_bundle(counts: Counter, bundle) -> None:
    counts["ingest.path_rows"] += len(bundle.paths)
    counts["ingest.rejected_rows"] += (
        len(bundle.path_rejections) + len(bundle.geo_rejections) + len(bundle.aux.rejections)
    )


def _count_retained(counts: Counter, result) -> None:
    retained, rejections = result
    counts["pathprep.retained"] += len(retained)
    counts["pathprep.eligible"] += len(retained) + len(rejections)


def _count_observations(counts: Counter, observations) -> None:
    counts["cti_core.observations"] += len(observations)


# (module, attribute, span name, counter). "Class.method" attributes are
# replaced on the class.
TARGETS: tuple[tuple[str, str, str, Count | None], ...] = (
    ("outlier", "per_host_cti", "outlier.per_host_cti", None),
    ("outlier", "apply_outlier_filter", "outlier.apply_outlier_filter", _count_subject),
    ("cti_core", "compute_cti", "cti_core.compute_cti", None),
    ("cti_core", "extract_observations", "cti_core.extract_observations", _count_observations),
    ("cti_core", "compute_weights", "cti_core.compute_weights", None),
    ("ingest", "load_bundle", "ingest.load_bundle", None),
    ("ingest", "load_bundle_from_texts", "ingest.load_bundle_from_texts", _count_bundle),
    ("pathprep", "prepare_paths", "pathprep.prepare_paths", None),
    ("pathprep", "retain_for_country", "pathprep.retain_for_country", _count_retained),
    ("pipeline", "build_substrate", "pipeline.build_substrate", None),
    ("pipeline", "build_country_substrate", "pipeline.build_country_substrate", None),
    ("geo", "build_geo_table", "geo.build_geo_table", None),
    ("geo", "classify_nationality", "geo.classify_nationality", None),
    ("conglomerate", "compute_ctin", "conglomerate.compute_ctin", None),
    ("conglomerate", "aggregate_org", "conglomerate.aggregate_org", None),
    ("transit_dominance", "parse_traceroutes", "transit_dominance.parse_traceroutes", None),
    (
        "transit_dominance",
        "compute_transit_fraction",
        "transit_dominance.compute_transit_fraction",
        None,
    ),
    ("transit_dominance", "classify_candidate", "transit_dominance.classify_candidate", None),
    ("clh_compare", "compute_clh", "clh_compare.compute_clh", None),
    ("model", "MetricReport.to_csv", "model.serialize", None),
    ("model", "MetricReport.to_json", "model.serialize", None),
    ("synth_oracle", "generate_topology", "synth_oracle.generate_topology", None),
    ("synth_oracle", "propagate_routes", "synth_oracle.propagate_routes", None),
    ("synth_oracle", "emit_files", "synth_oracle.emit_files", None),
    ("synth_oracle", "naive_cti", "synth_oracle.naive", None),
    ("synth_oracle", "naive_ctin", "synth_oracle.naive", None),
    ("synth_oracle", "naive_transit_fraction", "synth_oracle.naive", None),
)

# compute_cti is reported per caller: the span that encloses the call.
CTI_CALLERS = {
    "outlier.per_host_cti": "cti_core.compute_cti.from_per_host_cti",
    "outlier.apply_outlier_filter": "cti_core.compute_cti.from_apply_outlier_filter",
}
CTI_DIRECT = "cti_core.compute_cti.direct"


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.ops = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Count | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            if parent == -1:
                self.ops += 1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.ops)
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def finished(self) -> list[Span]:
        if self._stack or any(span is None for span in self.spans):
            raise RuntimeError("spans still open")
        return list(self.spans)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.finished():
                out.write(json.dumps([span.name, span.start, span.end, span.parent, span.op]))
                out.write("\n")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target at every binding site; return the function that
    puts the originals back."""
    modules = [m for name, m in sys.modules.items() if name == "cti" or name.startswith("cti.")]
    restore: list[tuple[object, str, object]] = []
    for module_name, attribute, span_name, count in TARGETS:
        owner: object = importlib.import_module(f"cti.{module_name}")
        sites: list[object] = modules
        if "." in attribute:
            class_name, attribute = attribute.split(".")
            owner = getattr(owner, class_name)
            sites = [owner]
        original = vars(owner)[attribute]
        wrapped = tracer.wrap(span_name, original, count)
        for site in sites:
            for name, value in list(vars(site).items()):
                if value is original:
                    setattr(site, name, wrapped)
                    restore.append((site, name, original))

    def uninstall() -> None:
        for site, name, original in reversed(restore):
            setattr(site, name, original)

    return uninstall


def _metric_name(spans: list[Span], span: Span) -> str:
    if span.name != "cti_core.compute_cti":
        return span.name
    caller = spans[span.parent].name if span.parent >= 0 else ""
    return CTI_CALLERS.get(caller, CTI_DIRECT)


def layer_metrics(
    spans: list[Span], counts: Counter, passes: int, overhead_s: float, scale: float = 1.0
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per pass, as name -> (value, unit); self times are
    multiplied by ``scale``."""
    selfs = self_times(spans)
    total = sum(selfs)
    self_by_name: Counter = Counter()
    calls_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    outlier_inclusive = 0.0
    cti_calls_in_outlier = 0
    for span, self_s in zip(spans, selfs):
        name = "cli" if span.parent == -1 else _metric_name(spans, span)
        self_by_name[name] += self_s
        calls_by_name[name] += 1
        self_by_layer[span.name.split(".")[0]] += self_s
        if span.name.startswith("outlier."):
            outlier_inclusive += span.end - span.start
        if name in CTI_CALLERS.values():
            cti_calls_in_outlier += 1

    names = ["cli"] + sorted(
        {name for _m, _a, name, _c in TARGETS if name != "cti_core.compute_cti"}
        | set(CTI_CALLERS.values())
        | {CTI_DIRECT}
    )
    metrics: dict[str, tuple[float, str]] = {}
    for name in names:
        metrics[f"{name}.self_s"] = (self_by_name[name] * scale / passes, "s")
        metrics[f"{name}.calls"] = (calls_by_name[name] / passes, "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (_ratio(self_by_layer[layer], total), "ratio")

    subjects = counts["outlier.subjects"]
    metrics["outlier.subjects"] = (subjects / passes, "count")
    metrics["outlier.engaged_ratio"] = (_ratio(counts["outlier.engaged"], subjects), "ratio")
    metrics["outlier.cti_calls_per_subject"] = (_ratio(cti_calls_in_outlier, subjects), "ratio")
    metrics["outlier.inclusive_share"] = (_ratio(outlier_inclusive, total), "ratio")
    metrics["ingest.path_rows"] = (counts["ingest.path_rows"] / passes, "count")
    metrics["ingest.rejected_rows"] = (counts["ingest.rejected_rows"] / passes, "count")
    metrics["pathprep.retained_ratio"] = (
        _ratio(counts["pathprep.retained"], counts["pathprep.eligible"]),
        "ratio",
    )
    metrics["pipeline.substrates_per_op"] = (
        _ratio(calls_by_name["pipeline.build_substrate"], calls_by_name["cli"]),
        "ratio",
    )
    metrics["cti_core.observations"] = (counts["cti_core.observations"] / passes, "count")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
