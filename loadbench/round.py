"""One benchmark round in a fresh process; prints one JSON line.

``run.py`` starts this script once per round, so every timed world
starts from a fresh interpreter (worlds built back to back in one
process drift).  It is not meant to be run by hand, but can be::

    PYTHONPATH=src python3 loadbench/round.py fleet \
        --workload fleet_static --seed 1 --size tiny --trace 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("kind", choices=("fleet", "serve-server", "serve-load"))
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)

    if args.kind == "fleet":
        from fleet import run_round

        result = run_round(
            args.workload, args.seed, args.size, bool(args.trace), args.spans
        )
    elif args.kind == "serve-server":
        from serveload import run_server

        result = run_server(args.seed, bool(args.trace), args.spans)
    else:
        from serveload import run_load

        result = run_load(args.port, args.seed, args.size)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
