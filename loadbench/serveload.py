"""``serve_ingest``: the served world and its closed-loop load generator.

The server and the load generator run in separate processes so the
client's work never competes with the server for the interpreter lock.
The load generator holds two keep-alive connections, one thread each
(two, because the benchmark host has two cores).  Each connection
registers a device, then sends its next request only when the previous
reply has arrived (a closed loop): three batch-1 ``POST /reports`` and
then one ``GET /proofs/<device>/<seq>`` for an earlier acked report.
After the timed phase it syncs ``/ledger/headers`` and verifies every
receipt offline.
"""

from __future__ import annotations

import http.client
import json
import random
import sys
import threading
import time
from pathlib import Path

from hostspeed import HostSpeed
from layertrace import LayerTracer, install
from metrics import layer_metrics, peak_rss_mb, program_counts
from worlds import serve_spec

CONNECTIONS = 2
#: Requests per connection and round.  A fixed count, not a fixed time,
#: so every round writes a ledger of the same size and a faster server
#: does not make the billing pass and proof reads over it look slower.
REQUESTS = {"full": 240, "tiny": 40}
#: Billing passes over the served ledger per round, and the pause before
#: each: a pass takes ~1 ms, and spacing them over two seconds samples
#: the shared host's fast and slow stretches instead of just one of them.
BILLING_PASSES = 20
BILLING_GAP_S = 0.1
#: Every PROOF_EVERY-th request on a connection reads a proof.
PROOF_EVERY = 4
#: Proofs are read for reports acked at least this many requests ago,
#: so the block holding them has been committed.
PROOF_LAG = 2


def run_server(seed: int, traced: bool, spans_path: Path | None = None) -> dict:
    """Serve until a line (or EOF) arrives on stdin; then bill and check.

    Prints one JSON line with the port and the set-up time as soon as
    the server accepts connections, and returns the round's results.
    """
    from repro.billing import BillingEngine, FlatTariff, SettlementEngine
    from repro.errors import BlockValidationError
    from repro.ids import DeviceId
    from repro.serve import AggregatorService, ServeRunner

    tracer = LayerTracer()
    if traced:
        install(tracer)
        tracer.active = True
    perf = time.perf_counter
    start = perf()
    with tracer.span("runtime.build"):
        service = AggregatorService(serve_spec(seed))
        runner = ServeRunner(service).start()
    build_s = perf() - start
    print(json.dumps({"port": runner.address[1], "build_s": build_s}), flush=True)
    sys.stdin.readline()
    runner.stop()

    scenario = service.scenario
    chain = scenario.chain
    sim = scenario.simulator
    devices = sorted(
        {r["device"] for block in chain for r in block.records}
    )
    period = (0.0, sim.now + 1.0)
    # Billing runs on this thread alone: CPU time at the reference host
    # speed, as in the fleet rounds (see NOTES.md, "Host noise").
    speed = HostSpeed()

    def bill():
        with tracer.span("bench.bill"):
            engine = BillingEngine(chain, FlatTariff())
            invoices = {
                name: engine.invoice(DeviceId(name), period, include_lines=False)
                for name in devices
            }
            SettlementEngine(chain, FlatTariff(0.0001)).settle(period)
        return invoices

    bill_s = []
    for _ in range(BILLING_PASSES):
        time.sleep(BILLING_GAP_S)
        invoices, pass_s = speed.time(bill)
        bill_s.append(pass_s)
    tracer.active = False

    failures = []
    try:
        chain.validate()
    except BlockValidationError as exc:
        failures.append(f"Blockchain.validate() failed: {exc}")
    committed: dict[str, list[int]] = {name: [] for name in devices}
    for block in chain:
        for record in block.records:
            committed[record["device"]].append(record["sequence"])
    for name in devices:
        if len(set(committed[name])) != len(committed[name]):
            failures.append(f"{name}: a sequence is committed twice")
        ledger = chain.total_energy_mwh(DeviceId(name).uid)
        if abs(invoices[name].total_energy_mwh - ledger) > 1e-9 * max(ledger, 1e-3):
            failures.append(f"{name}: invoiced != ledger total")
    result = {
        "build_s": build_s,
        "bill_s": bill_s,
        "rss_mb": peak_rss_mb(),
        "committed": committed,
        "failures": failures,
        "layers": None,
    }
    if traced:
        counts = program_counts(scenario)
        layers, error = layer_metrics(tracer, counts)
        if error:
            failures.append(error)
        result["layers"] = layers
        result["handler_s"] = sum(
            v["total_s"] for k, v in tracer.summary().items() if k == "serve.handler"
        )
        if spans_path is not None:
            tracer.write(spans_path)
    return result


def _report(device: str, master: str, sequence: int, current_ma: float) -> dict:
    return {
        "type": "consumption_report",
        "device": device,
        "master": master,
        "temporary": None,
        "sequence": sequence,
        "measured_at": 0.1 * sequence,
        "interval_s": 0.1,
        "current_ma": current_ma,
        "voltage_v": 5.0,
        "energy_mwh": current_ma * 5.0 * 0.1 / 3600.0,
        "buffered": False,
    }


class _Connection:
    """One keep-alive client connection driving its own device."""

    def __init__(self, port: int, device: str, seed: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.device = device
        self.rng = random.Random(f"serve:{seed}:{device}")
        self.base_ma = self.rng.uniform(60.0, 200.0)
        self.master = ""
        self.sent: dict[int, dict] = {}
        self.acked: list[int] = []
        self.write_ms: list[float] = []
        self.proof_ms: list[float] = []
        self.receipts: list[tuple[int, dict]] = []
        self.rtt_s = 0.0
        self.failures: list[str] = []

    def request(self, method: str, path: str, body: bytes | None = None):
        start = time.perf_counter()
        self.conn.request(method, path, body)
        response = self.conn.getresponse()
        payload = response.read()
        elapsed = time.perf_counter() - start
        self.rtt_s += elapsed
        return response.status, payload, elapsed

    def register(self) -> None:
        from repro.ids import DeviceId
        from repro.protocol.codec import encode_message
        from repro.protocol.messages import RegistrationRequest

        status, payload, _ = self.request(
            "POST", "/register", encode_message(RegistrationRequest(DeviceId(self.device)))
        )
        reply = json.loads(payload) if status == 200 else {}
        if reply.get("status") != "registered":
            raise RuntimeError(f"{self.device}: registration failed: {status} {payload[:200]!r}")
        self.master = reply["address"]

    def loop(self, requests: int) -> None:
        try:
            self._loop(requests)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.failures.append(f"{self.device}: {type(exc).__name__}: {exc}")

    def _loop(self, requests: int) -> None:
        sequence = 0
        for i in range(1, requests + 1):
            if self.failures:
                return
            if i % PROOF_EVERY == 0 and len(self.acked) > PROOF_LAG:
                seq = self.rng.choice(self.acked[:-PROOF_LAG])
                status, payload, elapsed = self.request(
                    "GET", f"/proofs/{self.device}/{seq}"
                )
                self.proof_ms.append(elapsed * 1e3)
                if status != 200:
                    self.failures.append(f"proof {self.device}/{seq}: HTTP {status}")
                else:
                    self.receipts.append((seq, json.loads(payload)))
                continue
            sequence += 1
            current = self.base_ma * self.rng.uniform(0.95, 1.05)
            report = _report(self.device, self.master, sequence, current)
            body = json.dumps({"reports": [report]}).encode()
            status, payload, elapsed = self.request("POST", "/reports", body)
            self.write_ms.append(elapsed * 1e3)
            verdicts = json.loads(payload) if status == 200 else {}
            if verdicts.get("accepted") != 1:
                self.failures.append(
                    f"write {self.device}/{sequence}: HTTP {status} {payload[:200]!r}"
                )
                continue
            self.sent[sequence] = report
            self.acked.append(sequence)


def run_load(port: int, seed: int, size: str) -> dict:
    """Drive one round's requests; return latencies and checks."""
    from repro.chain.receipts import receipt_from_dict
    from repro.chain.sync import HeaderChain, HeaderRecord

    conns = [_Connection(port, f"lb{seed}-{k}", seed) for k in range(CONNECTIONS)]
    start = time.perf_counter()
    threads = [threading.Thread(target=c.register) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    registered = all(c.master for c in conns)
    setup_s = time.perf_counter() - start
    if not registered:
        raise RuntimeError("a load-generator device failed to register")

    start = time.perf_counter()
    threads = [threading.Thread(target=c.loop, args=(REQUESTS[size],)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    timed_s = time.perf_counter() - start

    # Offline verification: sync the header chain, then check receipts.
    sync = conns[0]
    headers = HeaderChain()
    failures = [f for c in conns for f in c.failures]
    while True:
        status, payload, _ = sync.request(
            "GET", f"/ledger/headers?from_height={headers.height}&count=1024"
        )
        if status != 200:
            failures.append(f"/ledger/headers: HTTP {status}")
            break
        batch = json.loads(payload)
        headers.extend(HeaderRecord.from_dict(h) for h in batch["headers"])
        if headers.height >= batch["tip_height"] or not batch["headers"]:
            break
    bad = 0
    for c in conns:
        for seq, data in c.receipts:
            receipt = receipt_from_dict(data)
            sent = c.sent[seq]
            if not (
                headers.verify_receipt(receipt)
                and receipt.record["device"] == c.device
                and receipt.record["sequence"] == seq
                and receipt.record["energy_mwh"] == sent["energy_mwh"]
            ):
                bad += 1
    if bad:
        failures.append(f"{bad} receipts failed offline verification")
    for c in conns:
        c.conn.close()
    return {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "reports": sum(len(c.acked) for c in conns),
        "write_ms": [x for c in conns for x in c.write_ms],
        "proof_ms": [x for c in conns for x in c.proof_ms],
        "acked": {c.device: c.acked for c in conns},
        "writes": sum(len(c.write_ms) for c in conns),
        "proofs": sum(len(c.proof_ms) for c in conns),
        "rtt_s": sum(c.rtt_s for c in conns),
        "failures": failures,
    }
