"""Seeded input builder for the benchmark workloads.

The instances come from the public ``synth_oracle`` functions. Three changes
are made to them:

- The monitors get a fixed layout. The generator draws each monitor's host
  and country at random, which swings the number of foreign host ASes, and
  with it whether the outlier filter engages, from seed to seed. Here the
  seed only picks which ASes host the monitors.
- The state-owned ASes are split between the destination countries. The
  generator gives them all to the first, so ``ctin`` and ``footprint`` would
  write an empty report for the second after parsing the whole corpus.
- ``hegemony.csv`` and ``memberships.csv`` are added. The generator emits
  neither, so ``clh`` and ``candidates`` would otherwise do no work.

For the default seed the sha256 of every generated file must equal the one
pinned in ``pins.json``; a mismatch fails set-up, so a generator change
cannot quietly change the workload.

Run as a script, it builds one workload's inputs and prints one JSON line
with the set-up time and the reference durations timed before and after it
(see ``measure.REFERENCE_SECONDS``). The benchmark runs it in a child
process, so set-up cannot raise the peak memory of the measured phase.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from measure import reference_seconds
from program import BENCH_DIR
from cti import synth_oracle
from cti.geo import build_geo_table, classify_nationality
from cti.model import MonitorId, PathRecord
from cti.synth_oracle import SynthParams, SynthTopology

DEFAULT_SEED = 7
PINS_PATH = BENCH_DIR / "pins.json"

# Instances written as input files for the CLI workloads.
INSTANCES = {
    "country_cti": SynthParams(n_clique=4, n_mid=30, n_stub=200, n_monitors=16),
    "metric_sweep": SynthParams(n_clique=4, n_mid=60, n_stub=300, n_monitors=48),
}
# oracle_check checks this many consecutive default-size seeds per pass.
ORACLE_BATCH = 300
WORKLOADS = (*INSTANCES, "oracle_check")


class SetupError(RuntimeError):
    """The generated inputs are not the ones the benchmark expects."""


def place_monitors(topo: SynthTopology, seed: int) -> SynthTopology:
    """Fixed monitor layout; the seed only picks the hosts.

    Seven eighths of the monitor count are distinct hosts drawn from the
    clique and mid tiers, and the remaining monitors double up on the first
    hosts, so some host ASes split their weight over two monitors. The last
    ``n_monitors // 16`` (at least one) monitors per destination country sit
    in that country, so the active set always excludes a few domestic
    monitors; every other monitor sits in the first monitor country.
    """
    params = topo.params
    n_monitors = params.n_monitors
    n_hosts = n_monitors * 7 // 8
    pool = sorted(topo.clique) + list(topo.mids)
    if n_hosts < 1 or n_hosts > len(pool):
        raise SetupError(f"cannot place {n_monitors} monitors on {len(pool)} candidate hosts")
    hosts = random.Random(f"monitors/{seed}").sample(pool, n_hosts)
    n_domestic = max(1, n_monitors // 16) * len(params.countries)
    first_domestic = n_monitors - n_domestic
    monitors = []
    for index in range(n_monitors):
        if index < first_domestic:
            country = params.monitor_countries[0]
        else:
            country = params.countries[(index - first_domestic) % len(params.countries)]
        monitors.append(
            MonitorId(id=f"m{index + 1}", host_asn=hosts[index % n_hosts], country=country)
        )
    return dataclasses.replace(topo, monitors=monitors)


def share_state_ownership(topo: SynthTopology) -> SynthTopology:
    """Give the generator's state-owned ASes to the destination countries in
    turn, in ASN order."""
    countries = topo.params.countries
    owners = [(asn, countries[i % len(countries)]) for i, (asn, _c) in enumerate(topo.state_owned)]
    return dataclasses.replace(topo, state_owned=owners)


def _score(rng: random.Random) -> str:
    thousandths = rng.randint(0, 1000)
    return f"{thousandths // 1000}.{thousandths % 1000:03d}"


def hegemony_text(topo: SynthTopology, rng: random.Random) -> str:
    """A seeded score for each origin AS toward each of its direct providers
    and each clique AS."""
    lines = []
    for origin in sorted(set(topo.origin_of.values())):
        for transit in sorted(topo.rels.providers_of(origin) | topo.clique):
            lines.append(f"{origin},{transit},{_score(rng)}")
    return "".join(line + "\n" for line in lines)


def memberships_text(topo: SynthTopology, rng: random.Random) -> str:
    """Two facility memberships per AS; one facility per eight ASes, spread
    over the destination and monitor countries."""
    countries = topo.params.countries + topo.params.monitor_countries
    ases = topo.ases
    facilities = [
        (f"fac{index + 1}", countries[index % len(countries)])
        for index in range(max(2, len(ases) // 8))
    ]
    lines = []
    for asn in ases:
        for facility, country in sorted(rng.sample(facilities, 2)):
            lines.append(f"{facility},{country},{asn}")
    return "".join(line + "\n" for line in lines)


def build_instance(
    workload: str, seed: int
) -> tuple[SynthTopology, list[PathRecord], dict[str, str]]:
    """Topology, propagated paths and input file contents for a CLI workload."""
    topo = synth_oracle.generate_topology(seed, INSTANCES[workload])
    topo = share_state_ownership(place_monitors(topo, seed))
    paths = synth_oracle.propagate_routes(topo)
    files = synth_oracle.emit_files(topo, paths)
    rng = random.Random(f"aux/{seed}")
    files["hegemony.csv"] = hegemony_text(topo, rng)
    files["memberships.csv"] = memberships_text(topo, rng)
    return topo, paths, files


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_and_verify(files: dict[str, str], directory: Path) -> dict[str, str]:
    """Write the files, read them back, and return their digests."""
    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, content in sorted(files.items()):
        data = content.encode("utf-8")
        path = directory / name
        path.write_bytes(data)
        digest = sha256(path.read_bytes())
        if digest != sha256(data):
            raise SetupError(f"{path} does not read back as written")
        digests[name] = digest
    return digests


def oracle_batch_digest(seed: int) -> dict[str, str]:
    """One digest over the emitted files of every instance in the batch."""
    combined = hashlib.sha256()
    for instance_seed in range(seed, seed + ORACLE_BATCH):
        topo = synth_oracle.generate_topology(instance_seed)
        files = synth_oracle.emit_files(topo, synth_oracle.propagate_routes(topo))
        for name, content in sorted(files.items()):
            combined.update(f"{instance_seed}/{name}\n".encode("utf-8"))
            combined.update(content.encode("utf-8"))
    return {"batch": combined.hexdigest()}


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_pins(pinned: dict[str, str], actual: dict[str, str], what: str) -> None:
    wrong = sorted(
        name for name in set(pinned) | set(actual) if pinned.get(name) != actual.get(name)
    )
    if wrong:
        raise SetupError(f"{what} differ from the pinned digests: {', '.join(wrong)}")


def set_up(
    workload: str, seed: int, directory: Path
) -> tuple[float, dict[str, str], tuple[SynthTopology, list[PathRecord]] | None]:
    """Generate, write and verify one workload's inputs.

    Returns the elapsed seconds, the digests, and for a CLI workload the
    topology and paths the files were rendered from.
    """
    pins = load_pins() if seed == DEFAULT_SEED else None
    start = time.perf_counter()
    instance = None
    if workload == "oracle_check":
        digests = oracle_batch_digest(seed)
    else:
        topo, paths, files = build_instance(workload, seed)
        digests = write_and_verify(files, directory)
        instance = (topo, paths)
    if pins is not None:
        check_pins(pins["inputs"][workload], digests, f"{workload} inputs")
    return time.perf_counter() - start, digests, instance


def _fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def expectations(topo: SynthTopology, paths: list[PathRecord]) -> dict:
    """Naive-oracle values for the reports the correctness gate compares.

    The state conglomerate holds the state-owned ASes that the program's
    nationality rule classifies as domestic, as the ``ctin`` command does.
    """
    origin_of = {path.prefix: path.hops[-1] for path in paths}
    geo, _rejections = build_geo_table(topo.geo_rows, topo.delegations, origin_of)
    nationality = classify_nationality(geo)
    traceroutes = [(f"t-{p.monitor.id}", p.prefix, p.hops) for p in paths]
    expected: dict = {"cti": {}, "ctin": {}, "transit_fraction": {}}
    for country in topo.params.countries:
        report = synth_oracle.naive_cti(topo, paths, country)
        expected["cti"][country] = [
            [subject, _fraction_text(value)] for (_c, subject), value in report.sorted_items()
        ]
        members = frozenset(
            asn
            for asn, owner in topo.state_owned
            if owner == country and nationality.is_domestic(asn, country)
        )
        expected["ctin"][country] = (
            _fraction_text(synth_oracle.naive_ctin(topo, paths, country, members))
            if members
            else None
        )
        expected["transit_fraction"][country] = _fraction_text(
            synth_oracle.naive_transit_fraction(topo, paths, traceroutes, country)
        )
    return expected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", required=True, type=Path, help="Input directory to write.")
    parser.add_argument(
        "--expect",
        type=Path,
        help="Also write the naive-oracle expectations to this file (untimed).",
    )
    args = parser.parse_args(argv)
    before = reference_seconds()
    try:
        seconds, digests, instance = set_up(args.workload, args.seed, args.out)
    except SetupError as exc:
        sys.stderr.write(f"set-up failed: {exc}\n")
        return 3
    references = [before, reference_seconds()]
    if args.expect is not None and instance is not None:
        with open(args.expect, "w", encoding="utf-8") as out:
            json.dump(expectations(*instance), out)
    print(json.dumps({"setup_s": seconds, "references": references, "digests": digests}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
