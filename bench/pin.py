"""Rewrite pins.json from the current program.

    python3 bench/pin.py

It pins the sha256 of the default seed's input files and of the reports
one pass writes, after checking the reports against the naive oracle. Run
it only for a change that is meant to alter the generated inputs or the
reports, and say so in that change: the benchmark fails set-up, or counts the
operation as failed, whenever a digest differs from its pin.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import program
from inputs import (
    DEFAULT_SEED,
    INSTANCES,
    PINS_PATH,
    build_instance,
    expectations,
    oracle_batch_digest,
    write_and_verify,
)
from measure import find_failures
from workloads import oracle_gate, run_passes, workload_ops


def main() -> int:
    pins: dict = {"seed": DEFAULT_SEED, "inputs": {}, "reports": {}}
    work = program.ROOT / ".bench_work" / f"pin-{os.getpid()}"
    try:
        for workload in INSTANCES:
            topo, paths, files = build_instance(workload, DEFAULT_SEED)
            pins["inputs"][workload] = write_and_verify(files, work / workload / "in")
            directory = work / workload
            ops = workload_ops(workload, DEFAULT_SEED, directory / "in", directory / "out")
            results = run_passes(ops, 0, 1).results
            failures = find_failures(results, None, oracle_gate(expectations(topo, paths)))
            if failures:
                for index, reason in sorted(failures.items()):
                    sys.stderr.write(f"{workload} {results[index].key}: {reason}\n")
                return 1
            pins["reports"][workload] = {result.key: result.digest for result in results}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    pins["inputs"]["oracle_check"] = oracle_batch_digest(DEFAULT_SEED)
    with open(PINS_PATH, "w", encoding="utf-8") as out:
        json.dump(pins, out, indent=2, sort_keys=True)
        out.write("\n")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
