"""Command-line surface: one subcommand per metric plus the synthetic
generator and the oracle self-check.

Every run that consumes an input directory writes a manifest next to the
reports, listing the content hash of each file the command read and the
effective configuration. Reports are deterministic: identical inputs and
flags give byte-identical files. Exit codes: 0 success, 2 a file that cannot
be read or written (a missing input file, a directory or unreadable file given
as an input, an ``--output`` that names a file), 3 parse error, 4 computation
error, 5 bad usage: an option value unparsable or out of range (a
``--country`` that is not two capital letters included), or a usage error
Click reports (unknown option or command, missing required option, value of
the wrong type). Each failure prints one line.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
from fractions import Fraction
from functools import partial
from typing import Callable, TypeVar

import click

from . import clh_compare, cti_core, ingest, outlier, pipeline, synth_oracle, transit_dominance
from .conglomerate import Conglomerate, compute_ctin
from .model import ComputationError, MetricReport, ParseError, validate_country

EXIT_FILE_ERROR = 2
EXIT_PARSE_ERROR = 3
EXIT_COMPUTE_ERROR = 4
EXIT_BAD_OPTION = 5


T = TypeVar("T")


class OptionError(click.UsageError):
    """An option value that is unparsable or outside its valid range."""


def _option(name: str, text: str, parse=Fraction, valid=lambda v: 0 <= v <= 1, bounds="[0, 1]"):
    """Parse an option value that ``valid`` accepts; it lies in ``bounds``."""
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or not valid(value):
        raise OptionError(f"{name} {text!r} must be a number in {bounds}")
    return value


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


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def _write_manifest(
    output: str,
    command: str,
    input_dir: str | None,
    config: dict,
    consumed: tuple[str, ...] = ingest.BUNDLE_FILES,
) -> None:
    """Write the command's manifest; it hashes each file of ``consumed``
    that ``input_dir`` holds."""
    inputs: dict[str, str] = {}
    if input_dir is not None:
        for name in sorted(consumed):
            path = os.path.join(input_dir, name)
            if os.path.exists(path):
                inputs[name] = _sha256(path)
    manifest = {"command": command, "inputs": inputs, "config": config}
    os.makedirs(output, exist_ok=True)
    with open(os.path.join(output, f"manifest_{command}.json"), "w", encoding="utf-8") as out:
        json.dump(manifest, out, indent=2, sort_keys=True)
        out.write("\n")


def _emit_report(report: MetricReport, output: str, stem: str, fmt: str) -> str:
    os.makedirs(output, exist_ok=True)
    path = os.path.join(output, f"{stem}.{fmt}")
    body = report.to_csv() if fmt == "csv" else report.to_json()
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(body)
    return path


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


@main.command("cti")
@_INPUT
@_COUNTRY
@_OUTPUT
@_FORMAT
@click.option("--min-hosts", default=str(outlier.DEFAULT_MIN_HOSTS), show_default=True)
@click.option("--trim", default="1/10", show_default=True, help="Outlier tail fraction, < 1/2.")
@click.option("--no-outlier", is_flag=True, help="Skip the per-host outlier filter.")
def cti_command(
    input_dir: str, country: str, output: str, fmt: str, min_hosts: str, trim: str, no_outlier: bool
) -> None:
    """Per-AS transit influence toward one country."""
    outlier_min_hosts = _option("--min-hosts", min_hosts, int, lambda v: v >= 1, "[1, inf)")
    outlier_trim = _option("--trim", trim, Fraction, lambda v: 0 <= v < Fraction(1, 2), "[0, 1/2)")
    sub = pipeline.build_substrate(ingest.load_bundle(input_dir))
    report = pipeline.cti_report(
        sub,
        country,
        outlier_min_hosts=outlier_min_hosts,
        outlier_trim=outlier_trim,
        apply_outlier=not no_outlier,
    )
    path = _emit_report(report, output, f"cti_{country}", fmt)
    _write_manifest(
        output,
        "cti",
        input_dir,
        {
            "country": country,
            "format": fmt,
            "min_hosts": outlier_min_hosts,
            "trim": trim,
            "outlier": not no_outlier,
        },
    )
    click.echo(path)


@main.command("ctin")
@_INPUT
@_COUNTRY
@_OUTPUT
@_FORMAT
def ctin_command(input_dir: str, country: str, output: str, fmt: str) -> None:
    """State-conglomerate transit score for one country."""
    sub = pipeline.build_substrate(ingest.load_bundle(input_dir))
    ctin_report, _footprint = pipeline.state_footprint_reports(sub, country)
    path = _emit_report(ctin_report, output, f"ctin_{country}", fmt)
    _write_manifest(output, "ctin", input_dir, {"country": country, "format": fmt})
    click.echo(path)


@main.command("footprint")
@_INPUT
@_COUNTRY
@_OUTPUT
@_FORMAT
def footprint_command(input_dir: str, country: str, output: str, fmt: str) -> None:
    """State footprint: conglomerate transit score plus originated share."""
    sub = pipeline.build_substrate(ingest.load_bundle(input_dir))
    _ctin, footprint_report = pipeline.state_footprint_reports(sub, country)
    path = _emit_report(footprint_report, output, f"footprint_{country}", fmt)
    _write_manifest(output, "footprint", input_dir, {"country": country, "format": fmt})
    click.echo(path)


@main.command("org")
@_INPUT
@_COUNTRY
@_OUTPUT
@click.option("--marginal-threshold", default="1/20", show_default=True)
def org_command(input_dir: str, country: str, output: str, marginal_threshold: str) -> None:
    """Organization-level score sums (upper bound over sibling ASes)."""
    threshold = _option("--marginal-threshold", marginal_threshold)
    sub = pipeline.build_substrate(ingest.load_bundle(input_dir))
    aggregates = pipeline.org_aggregates(sub, country, marginal_threshold=threshold)
    os.makedirs(output, exist_ok=True)
    path = os.path.join(output, f"org_{country}.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("# org_id,country,cti_sum,top_asn,top_share,marginal\n")
        for agg in aggregates:
            out.write(
                f"{agg.org_id},{agg.country},{float(agg.cti_sum):.12f},"
                f"{agg.top_asn},{float(agg.top_share):.12f},{int(agg.marginal)}\n"
            )
    _write_manifest(
        output,
        "org",
        input_dir,
        {"country": country, "marginal_threshold": marginal_threshold},
    )
    click.echo(path)


@main.command("transit-fraction")
@_INPUT
@_COUNTRY
@_OUTPUT
@click.option("--threshold", default="12/25", show_default=True, help="Dominance cutoff.")
def transit_fraction_command(input_dir: str, country: str, output: str, threshold: str) -> None:
    """Address-weighted foreign-transit fraction and dominance verdict."""
    cutoff = _option("--threshold", threshold)
    traceroute_path = os.path.join(input_dir, ingest.FILE_NAMES["traceroutes"])
    if not os.path.exists(traceroute_path):
        raise FileNotFoundError(traceroute_path)
    sub = pipeline.build_substrate(ingest.load_bundle(input_dir))
    traceroutes, _rejections = transit_dominance.parse_traceroutes(
        ingest.read_lines(traceroute_path)
    )
    value = pipeline.transit_fraction(sub, traceroutes, country)
    dominant = transit_dominance.classify_transit_dominant(value, cutoff)
    os.makedirs(output, exist_ok=True)
    path = os.path.join(output, f"transit_fraction_{country}.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("# country,transit_fraction,dominant\n")
        out.write(f"{country},{float(value):.12f},{int(dominant)}\n")
    _write_manifest(
        output,
        "transit-fraction",
        input_dir,
        {"country": country, "threshold": threshold},
        (*ingest.BUNDLE_FILES, ingest.FILE_NAMES["traceroutes"]),
    )
    click.echo(path)


@main.command("candidates")
@_INPUT
@_COUNTRY
@_OUTPUT
@click.option("--origination-floor", default="1/2000", show_default=True)
def candidates_command(input_dir: str, country: str, output: str, origination_floor: str) -> None:
    """Peering-test verdicts for the country's significant domestic origins."""
    floor = _option("--origination-floor", origination_floor)
    sub = pipeline.build_substrate(ingest.load_bundle(input_dir))
    results = pipeline.candidate_results(sub, country, origination_floor=floor)
    os.makedirs(output, exist_ok=True)
    path = os.path.join(output, f"candidates_{country}.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("# asn,candidate,failed_tests\n")
        for result in results:
            out.write(f"{result.asn},{int(result.candidate)},{';'.join(result.failed_tests)}\n")
    _write_manifest(
        output,
        "candidates",
        input_dir,
        {"country": country, "origination_floor": origination_floor},
    )
    click.echo(path)


@main.command("clh")
@_INPUT
@_COUNTRY
@_OUTPUT
@_FORMAT
def clh_command(input_dir: str, country: str, output: str, fmt: str) -> None:
    """Origination-weighted hegemony baseline for one country."""
    sub = pipeline.build_substrate(ingest.load_bundle(input_dir))
    report = pipeline.clh_report(sub, country)
    path = _emit_report(report, output, f"clh_{country}", fmt)
    _write_manifest(output, "clh", input_dir, {"country": country, "format": fmt})
    click.echo(path)


@main.command("compare")
@click.option("--a", "path_a", required=True, help="First report (csv or json).")
@click.option("--b", "path_b", required=True, help="Second report (csv or json).")
@_OUTPUT
def compare_command(path_a: str, path_b: str, output: str) -> None:
    """Entrywise absolute differences between two reports."""

    def load(path: str) -> MetricReport:
        text = ingest.read_text(path)
        if path.endswith(".json"):
            return MetricReport.from_json(text)
        return MetricReport.from_csv(text.splitlines())

    stats = clh_compare.compare_reports(load(path_a), load(path_b))
    os.makedirs(output, exist_ok=True)
    path = os.path.join(output, "compare.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("# n,mean,p25,median,p75\n")
        out.write(
            f"{stats.n},{float(stats.mean):.12f},{float(stats.p25):.12f},"
            f"{float(stats.median):.12f},{float(stats.p75):.12f}\n"
        )
    _write_manifest(output, "compare", None, {"a": path_a, "b": path_b})
    click.echo(path)


@main.command("synth")
@click.option("--seed", default=1, show_default=True, type=int)
@click.option("--preset", default=None, help="toy-fig1 or toy-fig1-indirect.")
@_OUTPUT
@click.option("--loops", default="0", show_default=True)
@click.option("--prepends", default="0", show_default=True)
@click.option("--poisons", default="0", show_default=True)
def synth_command(
    seed: int, preset: str | None, output: str, loops: str, prepends: str, poisons: str
) -> None:
    """Generate a synthetic instance in the standard input formats."""
    counts = {
        name: _option(f"--{name}", text, int, lambda v: v >= 0, "[0, inf)")
        for name, text in (("loops", loops), ("prepends", prepends), ("poisons", poisons))
    }
    if preset is not None:
        topo = synth_oracle.preset_topology(preset)
    else:
        topo = synth_oracle.generate_topology(seed)
    paths = synth_oracle.propagate_routes(topo)
    manifest = {"Loop": 0, "Prepending": 0, "Poisoned": 0}
    if any(counts.values()):
        paths, manifest = synth_oracle.inject_path_anomalies(
            paths,
            topo.clique,
            seed,
            n_loops=counts["loops"],
            n_prepends=counts["prepends"],
            n_poisons=counts["poisons"],
        )
    files = synth_oracle.emit_files(topo, paths)
    os.makedirs(output, exist_ok=True)
    for name, content in files.items():
        with open(os.path.join(output, name), "w", encoding="utf-8", newline="\n") as out:
            out.write(content)
    with open(os.path.join(output, "injection_manifest.json"), "w", encoding="utf-8") as out:
        json.dump(manifest, out, indent=2, sort_keys=True)
        out.write("\n")
    _write_manifest(
        output,
        "synth",
        None,
        {"seed": seed, "preset": preset, **counts},
    )
    click.echo(output)


@main.command("oracle-check")
@click.option("--seeds", default="25", show_default=True)
@click.option("--start-seed", default=1, show_default=True, type=int)
def oracle_check_command(seeds: str, start_seed: int) -> None:
    """Generate, propagate, run the pipeline and the naive oracle, and fail
    on any disagreement."""
    count = _option("--seeds", seeds, int, lambda v: v >= 1, "[1, inf)")
    for seed in range(start_seed, start_seed + count):
        mismatch = check_one_seed(seed)
        if mismatch:
            raise ComputationError(f"seed {seed}: {mismatch}")
    click.echo(f"ok: {count} instances, pipeline matches oracle exactly")


def check_one_seed(seed: int) -> str | None:
    """Compare pipeline and oracle on one generated instance; return a
    description of the first mismatch, or None when they agree exactly.

    Each country's kernel is built once and reduces to both cti (outlier
    filter off) and ctin; the transit nationality is classified once."""
    topo = synth_oracle.generate_topology(seed)
    paths = synth_oracle.propagate_routes(topo)
    files = synth_oracle.emit_files(topo, paths)
    bundle = ingest.load_bundle_from_texts(files)
    sub = pipeline.build_substrate(bundle)
    raw_traceroutes = [(f"t-{p.monitor.id}", p.prefix, p.hops) for p in paths]
    parsed_traceroutes, _rej = transit_dominance.parse_traceroutes(
        files["traceroutes.txt"].splitlines()
    )
    members = frozenset(asn for asn, _c in topo.state_owned)
    nationality = pipeline.transit_nationality(sub)
    for country in topo.params.countries:
        if sub.geo.total.get(country, 0) <= 0:
            continue
        table = pipeline.build_country_substrate(sub, country)
        pipe_cti = cti_core.compute_cti(table)
        oracle_cti = synth_oracle.naive_cti(topo, paths, country)
        if pipe_cti.entries != oracle_cti.entries:
            return f"cti mismatch for {country}"

        if members:
            group = Conglomerate(label="state", members=members, country=country)
            pipe_ctin = compute_ctin(group, table)
            oracle_ctin = synth_oracle.naive_ctin(topo, paths, country, members)
            if pipe_ctin != oracle_ctin:
                return f"ctin mismatch for {country}"

        pipe_t = transit_dominance.compute_transit_fraction(
            parsed_traceroutes, sub.rels, nationality, sub.geo, country
        )
        oracle_t = synth_oracle.naive_transit_fraction(topo, paths, raw_traceroutes, country)
        if pipe_t != oracle_t:
            return f"transit fraction mismatch for {country}"
    return None


if __name__ == "__main__":
    main()
