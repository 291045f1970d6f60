"""Command-line surface: one subcommand per metric plus the synthetic
generator and the oracle self-check.

Every run that consumes an input directory writes a manifest next to the
reports, listing the content hash of each file the command reads
(``ingest.CORE_FILES`` and its entry in ``COMMAND_FILES``) and the effective
configuration. Reports are deterministic: identical inputs and
flags give byte-identical files. Exit codes: 0 success, 2 a file that cannot
be read or written (a missing input file, a directory or unreadable file given
as an input, an ``--output`` that names a file), 3 parse error (a bad input
row names its file and line, a bad ``compare`` report its path), 4 computation
error, 5 bad usage: an option value unparsable or out of range (a
``--country`` that is not two capital letters included), or a usage error
Click reports (unknown option or command, missing required option, value of
the wrong type). Each failure prints one line.
"""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import sys
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, TypeVar

import click

from . import clh_compare, ingest, outlier, pipeline, synth_oracle, transit_dominance
# compute_ctin is not called here; the benchmark's tracer test reads cli.compute_ctin.
from .conglomerate import OrgAggregate, compute_ctin  # noqa: F401
from .model import (
    ComputationError,
    MetricReport,
    ParseError,
    csv_text,
    parse_decimal,
    parse_fraction,
    validate_country,
)
from .synth_oracle import check_one_seed
from .transit_dominance import CandidateResult

EXIT_FILE_ERROR = 2
EXIT_PARSE_ERROR = 3
EXIT_COMPUTE_ERROR = 4
EXIT_BAD_OPTION = 5


T = TypeVar("T")


class OptionError(click.UsageError):
    """An option value that is unparsable or outside its valid range."""


def _option(
    name: str, text: str, parse=parse_fraction, valid=lambda v: 0 <= v <= 1, bounds="[0, 1]"
):
    """Parse an option value that ``valid`` accepts; it lies in ``bounds``."""
    try:
        if valid(value := parse(text)):
            return value
    except ValueError:
        pass
    raise OptionError(f"{name} {text!r} must be a number in {bounds}")


_count = partial(parse_decimal, what="count")


def _count_option(name: str, text: str, least: int = 0) -> int:
    """A count option of at least ``least``."""
    return _option(name, text, _count, lambda v: v >= least, f"[{least}, inf)")


def _guarded(action: Callable[[], T]) -> T:
    try:
        return action()
    except click.UsageError as exc:
        click.echo(f"bad option: {exc.format_message()}", err=True)
        sys.exit(EXIT_BAD_OPTION)
    except FileNotFoundError as exc:
        click.echo(f"missing input file: {exc}", err=True)
        sys.exit(EXIT_FILE_ERROR)
    except OSError as exc:
        click.echo(f"file error: {exc}", err=True)
        sys.exit(EXIT_FILE_ERROR)
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(EXIT_PARSE_ERROR)
    except ComputationError as exc:
        click.echo(f"computation error: {exc}", err=True)
        sys.exit(EXIT_COMPUTE_ERROR)


def _manifest(
    command: str, input_dir: str | None, config: dict, consumed: Iterable[str] = ()
) -> str:
    """The command's manifest; it hashes each file of ``consumed`` that
    ``input_dir`` holds."""
    inputs: dict[str, str] = {}
    if input_dir is not None:
        for name in sorted(consumed):
            path = os.path.join(input_dir, name)
            if os.path.exists(path):
                inputs[name] = _sha256_of_file(path)
    return _json_text({"command": command, "inputs": inputs, "config": config})


HASH_CHUNK_BYTES = 1 << 16


def _sha256_of_file(path: str) -> str:
    """The hex sha256 of a file's bytes, read ``HASH_CHUNK_BYTES`` at a time,
    so that the file is never held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(HASH_CHUNK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_files(output: str, files: dict[str, str]) -> None:
    """Write each named text into the directory ``output``."""
    os.makedirs(output, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(output, name), "w", encoding="utf-8", newline="\n") as out:
            out.write(text)


def _country(_ctx: click.Context, _param: click.Parameter, code: str) -> str:
    try:
        return validate_country(code)
    except ValueError:
        raise OptionError(f"--country {code!r} must be an ISO alpha-2 code in capitals") from None


_INPUT = click.option("--input", "input_dir", required=True, help="Input data directory.")
_COUNTRY = click.option(
    "--country", required=True, callback=_country, help="Destination country (ISO alpha-2)."
)
_OUTPUT = click.option("--output", default=".", show_default=True, help="Report directory.")
_FORMAT = click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
    help="csv carries 12-decimal doubles, json exact rationals.",
)


class _Group(click.Group):
    """The one place failures become exit codes: parsing the group's
    arguments, and invoking a subcommand (which parses its own arguments and
    runs its body), both go through ``_guarded``, with or without
    ``standalone_mode``."""

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        if not args:  # a bare ``cti`` prints the help, as ``cti --help`` does
            click.echo(ctx.get_help())
            ctx.exit()
        return _guarded(partial(super().parse_args, ctx, args))

    def invoke(self, ctx: click.Context):
        return _guarded(partial(super().invoke, ctx))


@click.group(cls=_Group)
def main() -> None:
    """Country-level transit influence toolkit."""


def _write_report(output: str, command: str, name: str, text: str, manifest: str) -> None:
    """Write the report ``name`` and the command's manifest, then print the
    report's path."""
    _write_files(output, {name: text, f"manifest_{command}.json": manifest})
    click.echo(os.path.join(output, name))


def _records_csv(record_type: type, records: Iterable[object]) -> str:
    """One CSV column per field of the dataclass ``record_type``."""
    header = [f.name for f in dataclasses.fields(record_type)]
    return csv_text(header, ([getattr(r, name) for name in header] for r in records))


# The files each input command reads besides ``ingest.CORE_FILES``, by
# ``ingest.FILE_NAMES`` key. A command opens, parses and hashes these and no
# others, and fails only for those of ``ingest.REQUIRED_FILES`` among them.
COMMAND_FILES = {
    "cti": ("relationships",),
    "ctin": ("relationships", "state_owned"),
    "footprint": ("relationships", "state_owned"),
    "org": ("relationships", "org"),
    "transit-fraction": ("relationships", "traceroutes"),
    "candidates": ("relationships", "memberships"),
    "clh": ("hegemony",),
}


Load = Callable[[], pipeline.Substrate]


def _input_command(name: str, *options):
    """Register the subcommand ``name``: ``--input``, ``--country`` and
    ``--output``, then ``options``. The body gets a ``Load`` of the substrate
    of the command's files, the country and its own options; it
    checks the options, then loads the substrate and makes one pipeline call,
    and returns the report with the manifest's config besides the country. A
    ``MetricReport`` is written in ``--format``, CSV text as it is, to
    ``<name>_<country>.<format>``."""
    metric_files = COMMAND_FILES[name]
    consumed = [ingest.FILE_NAMES[key] for key in (*ingest.CORE_FILES, *metric_files)]

    def register(body: Callable[..., tuple[MetricReport | str, dict]]) -> click.Command:
        def command(input_dir: str, country: str, output: str, fmt: str = "csv", **kwargs) -> None:
            def load_substrate() -> pipeline.Substrate:
                return pipeline.build_substrate(ingest.load_bundle(input_dir, metric_files))

            # The collector is paused here and nowhere else. The tables a body
            # builds (the bundle, the substrate, the country kernel and its
            # reduction) hold no reference cycles, so reference counting frees
            # them all, and the collections their allocations would trigger
            # find nothing to collect.
            enabled = gc.isenabled()
            gc.disable()
            try:
                report, config = body(load_substrate, country, **kwargs)
            finally:
                if enabled:
                    gc.enable()
            if isinstance(report, MetricReport):
                report = report.to_csv() if fmt == "csv" else report.to_json()
                config["format"] = fmt
            config["country"] = country
            report_name = f"{name.replace('-', '_')}_{country}.{fmt}"
            manifest = _manifest(name, input_dir, config, consumed)
            _write_report(output, name, report_name, report, manifest)

        for option in (*reversed(options), _OUTPUT, _COUNTRY, _INPUT):
            command = option(command)
        return main.command(name, help=body.__doc__)(command)

    return register


@_input_command(
    "cti",
    _FORMAT,
    click.option("--min-hosts", default=str(outlier.DEFAULT_MIN_HOSTS), show_default=True),
    click.option("--trim", default="1/10", show_default=True, help="Outlier tail fraction, < 1/2."),
    click.option("--no-outlier", is_flag=True, help="Skip the per-host outlier filter."),
)
def cti_command(load_substrate: Load, country: str, min_hosts: str, trim: str, no_outlier: bool):
    """Per-AS transit influence toward one country."""
    outlier_min_hosts = _count_option("--min-hosts", min_hosts, least=1)
    half = Fraction(1, 2)
    outlier_trim = _option("--trim", trim, valid=lambda v: 0 <= v < half, bounds="[0, 1/2)")
    report = pipeline.cti_report(
        load_substrate(),
        country,
        outlier_min_hosts=outlier_min_hosts,
        outlier_trim=outlier_trim,
        apply_outlier=not no_outlier,
    )
    return report, {"min_hosts": outlier_min_hosts, "trim": trim, "outlier": not no_outlier}


@_input_command("ctin", _FORMAT)
def ctin_command(load_substrate: Load, country: str):
    """State-conglomerate transit score for one country."""
    ctin_report, _footprint = pipeline.state_footprint_reports(load_substrate(), country)
    return ctin_report, {}


@_input_command("footprint", _FORMAT)
def footprint_command(load_substrate: Load, country: str):
    """State footprint: conglomerate transit score plus originated share."""
    _ctin, footprint_report = pipeline.state_footprint_reports(load_substrate(), country)
    return footprint_report, {}


@_input_command("org", click.option("--marginal-threshold", default="1/20", show_default=True))
def org_command(load_substrate: Load, country: str, marginal_threshold: str):
    """Organization-level score sums (upper bound over sibling ASes)."""
    threshold = _option("--marginal-threshold", marginal_threshold)
    aggregates = pipeline.org_aggregates(load_substrate(), country, marginal_threshold=threshold)
    return _records_csv(OrgAggregate, aggregates), {"marginal_threshold": marginal_threshold}


@_input_command(
    "transit-fraction",
    click.option("--threshold", default="12/25", show_default=True, help="Dominance cutoff."),
)
def transit_fraction_command(load_substrate: Load, country: str, threshold: str):
    """Address-weighted foreign-transit fraction and dominance verdict."""
    cutoff = _option("--threshold", threshold)
    value = pipeline.transit_fraction(load_substrate(), country)
    dominant = transit_dominance.classify_transit_dominant(value, cutoff)
    text = csv_text(("country", "transit_fraction", "dominant"), [(country, value, dominant)])
    return text, {"threshold": threshold}


@_input_command(
    "candidates", click.option("--origination-floor", default="1/2000", show_default=True)
)
def candidates_command(load_substrate: Load, country: str, origination_floor: str):
    """Peering-test verdicts for the country's significant domestic origins."""
    floor = _option("--origination-floor", origination_floor)
    results = pipeline.candidate_results(load_substrate(), country, origination_floor=floor)
    return _records_csv(CandidateResult, results), {"origination_floor": origination_floor}


@_input_command("clh", _FORMAT)
def clh_command(load_substrate: Load, country: str):
    """Origination-weighted hegemony baseline for one country."""
    return pipeline.clh_report(load_substrate(), country), {}


@main.command("compare")
@click.option("--a", "path_a", required=True, help="First report (csv or json).")
@click.option("--b", "path_b", required=True, help="Second report (csv or json).")
@_OUTPUT
def compare_command(path_a: str, path_b: str, output: str) -> None:
    """Entrywise absolute differences between two reports."""

    def load(path: str) -> MetricReport:
        text = ingest.read_text(path)
        try:
            if path.endswith(".json"):
                return MetricReport.from_json(text)
            return MetricReport.from_csv(ingest.split_lines(text))
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None

    stats = clh_compare.compare_reports(load(path_a), load(path_b))
    text = _records_csv(clh_compare.DiffStats, [stats])
    manifest = _manifest("compare", None, {"a": path_a, "b": path_b})
    _write_report(output, "compare", "compare.csv", text, manifest)


@main.command("synth")
@click.option("--seed", default="1", show_default=True)
@click.option("--preset", type=click.Choice(synth_oracle.PRESETS), help="A hand-wired instance.")
@_OUTPUT
@click.option("--loops", default="0", show_default=True)
@click.option("--prepends", default="0", show_default=True)
@click.option("--poisons", default="0", show_default=True)
def synth_command(
    seed: str, preset: str | None, output: str, loops: str, prepends: str, poisons: str
) -> None:
    """Generate a synthetic instance in the standard input formats."""
    seed_value = _count_option("--seed", seed)
    counts = {
        name: _count_option(f"--{name}", text)
        for name, text in (("loops", loops), ("prepends", prepends), ("poisons", poisons))
    }
    if preset is not None:
        topo = synth_oracle.preset_topology(preset)
    else:
        topo = synth_oracle.generate_topology(seed_value)
    paths = synth_oracle.propagate_routes(topo)
    manifest = {"Loop": 0, "Prepending": 0, "Poisoned": 0}
    if any(counts.values()):
        paths, manifest = synth_oracle.inject_path_anomalies(
            paths,
            topo.clique,
            seed_value,
            n_loops=counts["loops"],
            n_prepends=counts["prepends"],
            n_poisons=counts["poisons"],
        )
    files = synth_oracle.emit_files(topo, paths)
    files["injection_manifest.json"] = _json_text(manifest)
    config = {"seed": seed_value, "preset": preset, **counts}
    files["manifest_synth.json"] = _manifest("synth", None, config)
    _write_files(output, files)
    click.echo(output)


@main.command("oracle-check")
@click.option("--seeds", default="25", show_default=True)
@click.option("--start-seed", default="1", show_default=True)
def oracle_check_command(seeds: str, start_seed: str) -> None:
    """Generate, propagate, run the pipeline and the naive oracle, and fail
    on any disagreement."""
    count = _count_option("--seeds", seeds, least=1)
    first = _count_option("--start-seed", start_seed)
    for seed in range(first, first + count):
        mismatch = check_one_seed(seed)
        if mismatch:
            raise ComputationError(f"seed {seed}: {mismatch}")
    click.echo(f"ok: {count} instances, pipeline matches oracle exactly")


if __name__ == "__main__":
    main()
