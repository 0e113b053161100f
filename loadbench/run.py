"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 loadbench/run.py --workload fleet_static --seed 1 \
        --seconds 36 --trace 0

Workloads are ``fleet_static``, ``fleet_roaming`` and ``serve_ingest``
(see NOTES.md for why each exists).  The run is made of
``--seconds // ROUND_S`` rounds (at least ``MIN_ROUNDS``), each in a
fresh process, and the rounds are reduced to one value per metric as
NOTES.md ("Host noise") describes.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` untraced and
traced rounds alternate and it carries the per-layer metrics, including
the traced-minus-untraced overhead.  The exit code is non-zero when any
output check fails (the result then says ``"correct": false``) or when
the program cannot be run at all (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from worlds import SIZES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet_static", "fleet_roaming", "serve_ingest")
#: Rounds per run at least.
MIN_ROUNDS = 3
#: Host seconds one round of any workload takes on the current code
#: (2-core host, 10-15 s); a run makes ``--seconds // ROUND_S`` rounds.
ROUND_S = 12
#: No single round may take longer than this.
ROUND_TIMEOUT_S = 150


class RoundError(RuntimeError):
    """A round process crashed or printed no result."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One thread per numeric library: the run uses at most the host's
    # two cores (the serve server plus its load generator).
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _round_cmd(kind: str, args: argparse.Namespace, seed: int, traced: bool,
               *extra: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "round.py"), kind, "--seed", str(seed),
           "--size", args.size, "--trace", str(int(traced)), *extra]
    if traced:
        cmd += ["--spans", str(ROOT / ".loadbench" / f"spans-{args.workload}.tsv")]
    return cmd


def _last_json(text: str, what: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RoundError(f"{what} printed no result")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise RoundError(f"{what} printed no result: {lines[-1][:200]!r}") from exc


def _run(cmd: list[str], what: str) -> dict:
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(),
                          timeout=ROUND_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RoundError(f"{what} exited with {proc.returncode}")
    return _last_json(proc.stdout, what)


def fleet_round(args: argparse.Namespace, seed: int, traced: bool) -> dict:
    """One fleet round in a fresh process."""
    return _run(_round_cmd("fleet", args, seed, traced, "--workload", args.workload),
                f"{args.workload} round")


def serve_round(args: argparse.Namespace, seed: int, traced: bool) -> dict:
    """A fresh server process, then a load-generator process against it."""
    # The server's stderr goes straight to ours: nothing reads a pipe
    # while the load generator runs.
    server = subprocess.Popen(
        _round_cmd("serve-server", args, seed, traced), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT,
    )
    try:
        if not select.select([server.stdout], [], [], ROUND_TIMEOUT_S)[0]:
            raise RoundError("serve server did not start")
        ready = _last_json(server.stdout.readline(), "serve server")
        load = _run(
            [sys.executable, str(HERE / "round.py"), "serve-load", "--seed",
             str(seed), "--size", args.size, "--port", str(ready["port"])],
            "serve load generator",
        )
        out, _ = server.communicate("stop\n", timeout=ROUND_TIMEOUT_S)
        if server.returncode != 0:
            raise RoundError(f"serve server exited with {server.returncode}")
        served = _last_json(out, "serve server")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    failures = load["failures"] + served["failures"]
    missing = sum(
        len(set(acked) - set(served["committed"].get(device, [])))
        for device, acked in load["acked"].items()
    )
    if missing:
        failures.append(f"{missing} acked reports are not in the ledger")
    return {
        "setup_s": [served["build_s"] + load["setup_s"]],
        "timed_s": load["timed_s"],
        "reports": load["reports"],
        "write_ms": load["write_ms"],
        "proof_ms": load["proof_ms"],
        "bill_s": served["bill_s"],
        "rss_mb": served["rss_mb"],
        # Operations: every write, every proof, the header sync, and the
        # server's ledger checks (validate, one invoice per device).
        "attempted": load["writes"] + load["proofs"] + 2 + len(served["committed"]),
        "failed": len(load["failures"]) + missing + len(served["failures"]),
        "failures": failures[:10],
        "known_dups": 0,
        "layers": served["layers"],
        "wire_s": load["rtt_s"] - served.get("handler_s", 0.0),
        "rtt_s": load["rtt_s"],
    }


def _pct(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of ``samples``."""
    if len(samples) < 2:
        return samples[0] if samples else float("nan")
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def round_count(seconds: float) -> int:
    """Rounds in a run of ``--seconds``: a number fixed by ``--seconds``
    alone, so a faster program is reduced over as many rounds as a
    slower one."""
    return max(MIN_ROUNDS, int(seconds // ROUND_S))


def run_rounds(args: argparse.Namespace) -> list[tuple[bool, dict]]:
    """The run's rounds, one after another: (traced?, result) pairs.

    Round ``i`` of a run of ``n`` rounds gets the seed ``n * seed + i``,
    so every round runs a different world and the tails cover several.
    With tracing on, untraced and traced rounds alternate and each
    traced round repeats the world of the untraced one before it, so the
    overhead compares the same work.
    """
    one_round = serve_round if args.workload == "serve_ingest" else fleet_round
    n = round_count(args.seconds)
    rounds: list[tuple[bool, dict]] = []
    for i in range(n):
        traced = bool(args.trace) and i % 2 == 1
        world = i // 2 if args.trace else i
        rounds.append((traced, one_round(args, n * args.seed + world, traced)))
    return rounds


def summarize(args: argparse.Namespace, rounds: list[tuple[bool, dict]]) -> dict:
    """The final result object (see the module docstring)."""
    plain = [r for traced, r in rounds if not traced]
    traced = [r for is_traced, r in rounds if is_traced]
    attempted = sum(r["attempted"] for _, r in rounds)
    failed = sum(r["failed"] for _, r in rounds)
    rates = [r["reports"] / r["timed_s"] for r in plain]
    write_ms = [x for r in plain for x in r["write_ms"]]
    proof_ms = [x for r in plain for x in r["proof_ms"]]
    for _, r in rounds:
        for failure in r["failures"]:
            print(f"CHECK FAILED: {failure}")
    print(
        f"{args.workload} seed={args.seed} rounds={len(plain)} untraced"
        f"/{len(traced)} traced; samples: write={len(write_ms)} "
        f"proof={len(proof_ms)}; reports/s per round="
        + ",".join(f"{x:.0f}" for x in rates)
    )
    if not args.trace:
        values = {
            "setup_s": statistics.median(x for r in plain for x in r["setup_s"]),
            "reports_per_s": statistics.median(rates),
            "write_p50_ms": _pct(write_ms, 50),
            "write_p99_ms": _pct(write_ms, 99),
            "proof_p50_ms": _pct(proof_ms, 50),
            "proof_p99_ms": _pct(proof_ms, 99),
            "bill_s": statistics.median(x for r in plain for x in r["bill_s"]),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
    else:
        values = {
            name: statistics.mean(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        traced_rate = statistics.median(r["reports"] / r["timed_s"] for r in traced)
        rtt = statistics.mean(r.get("rtt_s", 0.0) for r in traced)
        wire = statistics.mean(r.get("wire_s", 0.0) for r in traced)
        values.update({
            "chain.known_dups": statistics.mean(r["known_dups"] for r in traced),
            "serve.wire_s": wire,
            "serve.wire_frac": wire / rtt if rtt else 0.0,
            "trace.overhead_frac": statistics.median(rates) / traced_rate - 1.0,
            "write.samples": len(write_ms),
            "proof.samples": len(proof_ms),
        })
        units = PER_LAYER
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="world size (tiny: the benchmark's own tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        result = summarize(args, run_rounds(args))
    except (RoundError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
