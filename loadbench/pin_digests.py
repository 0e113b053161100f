"""Re-pin the fleet workloads' ledger digests into ``digests.json``.

Run from the repository root after a change that alters the ledger on
purpose (and say why in the change)::

    PYTHONPATH=src python3 loadbench/pin_digests.py --size full

Each of the ``WORLD_SEEDS`` worlds of both fleet workloads is run to its
horizon in a worker process (two at a time) and its tip hash recorded.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys

from fleet import DIGESTS
from worlds import SIZES, WORLD_SEEDS, build_fleet, fleet_inputs

FLEETS = ("fleet_static", "fleet_roaming")


def tip_hash(job: tuple[str, str, int]) -> str:
    workload, size_name, seed = job
    spec, trips, horizon = fleet_inputs(workload, SIZES[size_name], seed)
    scenario = build_fleet(spec, trips)
    scenario.run_until(horizon)
    return scenario.chain.tip_hash


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    args = parser.parse_args(argv)
    jobs = [(w, args.size, seed) for w in FLEETS for seed in range(WORLD_SEEDS)]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        tips = pool.map(tip_hash, jobs)
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for (workload, size_name, seed), tip in zip(jobs, tips):
        pinned.setdefault(workload, {}).setdefault(size_name, {})[str(seed)] = tip
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(jobs)} digests ({args.size}) in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
