"""One round of ``fleet_static`` or ``fleet_roaming`` in this process.

A round builds the world (several times; the builds are the set-up
samples), runs it to the workload's fixed simulated horizon (the timed
phase), issues seeded receipts and verifies each offline against a
header chain synced from the ledger (the read phase), runs full billing
passes, then checks every output.  Only the last build is run.
"""

from __future__ import annotations

import gc
import json
import math
import random
from bisect import bisect_right
from collections import Counter
from pathlib import Path

from hostspeed import HostSpeed
from layertrace import LayerTracer, install, patch
from metrics import layer_metrics, peak_rss_mb, program_counts
from worlds import SIZES, build_fleet, fleet_inputs, world_seed

DIGESTS = Path(__file__).resolve().parent / "digests.json"
#: Invoices timed per measurement of the host speed.
INVOICES_PER_PIECE = 10


def _probe_commits(samples: list[float], speed: HostSpeed) -> None:
    """Time every block commit (aggregator flush -> chain append).

    The fleet's "write" is one ledger block: the CPU time from the
    aggregator's flush to the appended block, per block, at the
    reference host speed.
    """

    def timed(flush):
        def timed_flush(self, timestamp):
            blocks, cpu_s = speed.time(lambda: flush(self, timestamp))
            if blocks:
                samples.append(cpu_s / len(blocks))
            return blocks

        return timed_flush

    patch("repro.aggregator.ledger_writer", "LedgerWriter.flush", timed)


def _is_lost_ack_copy(copies: list[dict], roamers: set[str]) -> bool:
    """The known at-least-once duplicate (see NOTES.md, "Known defects").

    A roamer that leaves a network between transmitting a report and
    receiving its Ack re-buffers the report, although the network has
    already committed it (home) or forwarded it home (host), and sends
    it again from a later network: the home ledger holds the same
    measurement twice, the later copy buffered.
    """
    if len(copies) != 2 or copies[0]["device"] not in roamers:
        return False
    first, later = copies
    same = ("measured_at", "energy_mwh", "current_ma", "network")
    return all(first[k] == later[k] for k in same) and bool(later.get("buffered"))


def _check(workload: str, size_name: str, seed: int, scenario, trips: list, *,
           receipts: int, receipts_bad: int, invoices: dict, matrix,
           committed_blocks: int):
    """Every output check of a fleet round (untimed).

    ``committed_blocks`` is the chain height at the end of the timed
    phase.  Returns ``(attempted, failed, failures, known_dups)``.
    """
    from repro.errors import BlockValidationError
    from repro.protocol.device_fsm import DevicePhase

    chain = scenario.chain
    failures: list[str] = []
    attempted = failed = 0

    def check(ok: bool, what: str, weight: int = 1) -> None:
        nonlocal attempted, failed
        attempted += weight
        if not ok:
            failed += weight
            failures.append(what)

    pinned = json.loads(DIGESTS.read_text()).get(workload, {}).get(size_name, {})
    expected = pinned.get(str(world_seed(seed)))
    check(chain.tip_hash == expected,
          f"ledger tip {chain.tip_hash} != pinned {expected} "
          f"({workload}/{size_name}/world seed {world_seed(seed)})")
    try:
        chain.validate()
        invalid = ""
    except BlockValidationError as exc:
        invalid = str(exc)
    check(not invalid, f"Blockchain.validate() failed: {invalid}")
    attempted += receipts
    failed += receipts_bad
    if receipts_bad:
        failures.append(f"{receipts_bad} receipts failed offline verification")

    copies: dict[tuple[str, int], list[dict]] = {}
    for block in chain:
        for record in block.records:
            copies.setdefault((record["device"], record["sequence"]), []).append(record)
    known_dups = 0
    extra_energy: Counter = Counter()
    for (device, sequence), found in copies.items():
        if len(found) == 1:
            continue
        if _is_lost_ack_copy(found, {t.device for t in trips}):
            known_dups += 1
            extra_energy[device] += found[1]["energy_mwh"]
        else:
            check(False, f"{device}/{sequence} appears {len(found)} times")

    for name, device in scenario.devices.items():
        ledger = chain.total_energy_mwh(device.device_id.uid) - extra_energy[name]
        check(
            math.isclose(invoices[name].total_energy_mwh, ledger,
                         rel_tol=1e-9, abs_tol=1e-12),
            f"{name}: invoiced {invoices[name].total_energy_mwh} != ledger {ledger}",
        )

    roaming_energy = sum(
        r["energy_mwh"] for block in chain for r in block.records if r.get("roaming")
    )
    pairs = {(e.home, e.host) for e in matrix.entries}
    check(
        math.isclose(sum(e.energy_mwh for e in matrix.entries), roaming_energy,
                     rel_tol=1e-9, abs_tol=1e-12)
        and pairs == {(t.home, t.away) for t in trips},
        f"settlement {sorted(pairs)} does not match the roaming records",
    )

    quiescent = all(
        d.fsm.phase is DevicePhase.REPORTING and d.store.is_empty
        for d in scenario.devices.values()
    )
    check(quiescent, "a device is not back to reporting with an empty store")

    # Every acked report is committed (after the last staged records are
    # flushed) and every committed sequence was issued by its device.
    for unit in scenario.aggregators.values():
        unit.writer.flush(scenario.simulator.now)
    committed: dict[str, set[int]] = {}
    for (device, sequence) in copies:
        committed.setdefault(device, set()).add(sequence)
    for height in range(committed_blocks, chain.height):
        for record in chain.get(height).records:
            committed.setdefault(record["device"], set()).add(record["sequence"])
    for name, device in scenario.devices.items():
        acked = device.acked_sequences
        have = committed.get(name, set())
        missing = len(acked - have)
        attempted += len(acked)
        failed += missing
        if missing:
            failures.append(f"{name}: {missing} acked reports not in the ledger")
        check(all(0 <= s < device.sequences_issued for s in have),
              f"{name}: ledger holds a sequence the device never issued")

    return attempted, failed, failures, known_dups


def run_round(workload: str, seed: int, size_name: str, traced: bool,
              spans_path: Path | None = None) -> dict:
    """Run one round and return its samples, counts and check results."""
    tracer = LayerTracer()
    # Fleet phases are timed in process CPU time scaled to the reference
    # host speed (see NOTES.md, "Host noise").
    speed = HostSpeed()
    write_samples: list[float] = []
    if traced:
        install(tracer)
        tracer.active = True
    else:
        # Untraced rounds alone give the write samples, so that
        # LedgerWriter.flush never carries two wrappers.
        _probe_commits(write_samples, speed)
    # Imported after install(): a module-level function bound to a local
    # name before it would stay unwrapped.
    from repro.billing import BillingEngine, FlatTariff, SettlementEngine
    from repro.chain.receipts import find_and_issue
    from repro.chain.sync import HeaderChain

    size = SIZES[size_name]
    spec, trips, horizon = fleet_inputs(workload, size, seed)

    def build():
        with tracer.span("runtime.build"):
            return build_fleet(spec, trips)

    # -- set-up: several builds of the same world, the last one is run.
    setup_s = []
    scenario = None
    for _ in range(size.builds):
        scenario = None
        gc.collect()
        scenario, build_s = speed.time(build)
        setup_s.append(build_s)
    chain = scenario.chain

    # -- timed phase: the fleet to its horizon, in 0.1 s slices of
    # simulated time ending mid-interval, each timed at the host speed
    # measured right before it.
    gc.collect()
    timed_s = 0.0
    for k in range(1, int(horizon * 10) + 1):
        timed_s += speed.time(lambda: scenario.run_until(min(k * 0.1 + 0.05, horizon)))[1]
    reports = chain.records_total
    write_ms = [s * 1e3 for s in write_samples]

    # -- read phase: seeded receipts, each verified offline.
    rng = random.Random(f"receipts:{seed}")
    block_ends = []
    total = 0
    for height in range(chain.height):
        total += chain.get(height).header.record_count
        block_ends.append(total)
    picks = []
    for _ in range(size.receipts):
        n = rng.randrange(total)
        height = bisect_right(block_ends, n)
        index = n - (block_ends[height - 1] if height else 0)
        record = chain.get(height).records[index]
        picks.append((record["device_uid"], record["sequence"]))
    proof_ms = []
    receipts_bad = 0
    with tracer.span("bench.read"):
        headers = HeaderChain()
        headers.extend(chain.headers(0, chain.height))
        for uid, sequence in picks:

            def read():
                receipt = find_and_issue(chain, uid, sequence)
                return receipt, headers.verify_receipt(receipt)

            (receipt, verified), proof_s = speed.time(read)
            proof_ms.append(proof_s * 1e3)
            if not (
                verified
                and receipt.record["device_uid"] == uid
                and receipt.record["sequence"] == sequence
            ):
                receipts_bad += 1

    # -- billing: invoice every device, settle every operator pair; a
    # pass is timed in pieces of INVOICES_PER_PIECE invoices.
    period = (0.0, horizon + 1.0)
    devices = list(scenario.devices.items())
    bill_s = []
    for _ in range(size.billing_passes):
        with tracer.span("bench.bill"):
            engine = BillingEngine(chain, FlatTariff())
            invoices = {}
            pass_s = 0.0
            for i in range(0, len(devices), INVOICES_PER_PIECE):
                piece, piece_s = speed.time(lambda: {
                    name: engine.invoice(device.device_id, period, include_lines=False)
                    for name, device in devices[i:i + INVOICES_PER_PIECE]
                })
                invoices.update(piece)
                pass_s += piece_s
            matrix, settle_s = speed.time(
                lambda: SettlementEngine(chain, FlatTariff(0.0001)).settle(period)
            )
        bill_s.append(pass_s + settle_s)
    tracer.active = False
    rss = peak_rss_mb()
    counts = program_counts(scenario)

    attempted, failed, failures, known_dups = _check(
        workload, size_name, seed, scenario, trips, receipts=len(picks),
        receipts_bad=receipts_bad, invoices=invoices, matrix=matrix,
        committed_blocks=len(block_ends),
    )

    layers = None
    if traced:
        layers, identity_error = layer_metrics(tracer, counts, builds=size.builds)
        attempted += 1
        if identity_error:
            failed += 1
            failures.append(identity_error)
        if spans_path is not None:
            tracer.write(spans_path)
    return {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "reports": reports,
        "write_ms": write_ms,
        "proof_ms": proof_ms,
        "bill_s": bill_s,
        "rss_mb": rss,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "known_dups": known_dups,
        "layers": layers,
    }
