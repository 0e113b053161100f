"""Metric names, units and the per-layer summary of a traced round."""

from __future__ import annotations

import resource

from layertrace import LAYERS, LayerTracer

#: Printed with tracing off, on every workload.
END_TO_END = {
    "setup_s": "s",
    "reports_per_s": "1/s",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "proof_p50_ms": "ms",
    "proof_p99_ms": "ms",
    "bill_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

#: Printed with tracing on, on every workload (zero where a layer is
#: bypassed).  ``*_self_s`` are summed span self times in seconds; they
#: add up to ``trace.root_s``.
PER_LAYER = {
    "sim.events": "count",
    "sim.self_s": "s",
    "device.calls": "count",
    "device.self_s": "s",
    "vector.cohort_ticks": "count",
    "vector.releases": "count",
    "vector.self_s": "s",
    "transport.messages": "count",
    "transport.self_s": "s",
    "protocol.decodes": "count",
    "protocol.codec_self_s": "s",
    "aggregator.reports": "count",
    "aggregator.nacks": "count",
    "aggregator.joins": "count",
    "aggregator.self_s": "s",
    "net.backhaul_msgs": "count",
    "net.self_s": "s",
    "chain.blocks": "count",
    "chain.records": "count",
    "chain.canonical_calls": "count",
    "chain.canonical_self_s": "s",
    "chain.merkle_self_s": "s",
    "chain.append_self_s": "s",
    "chain.receipt_self_s": "s",
    "chain.share": "frac",
    "chain.known_dups": "count",
    "billing.invoices": "count",
    "billing.self_s": "s",
    "runtime.build_s": "s",
    "runtime.self_s": "s",
    "serve.requests": "count",
    "serve.handler_self_s": "s",
    "serve.service_self_s": "s",
    "serve.wire_s": "s",
    "serve.wire_frac": "frac",
    "bench.self_s": "s",
    "trace.root_s": "s",
    "trace.overhead_frac": "frac",
    "write.samples": "count",
    "proof.samples": "count",
}


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def program_counts(scenario) -> dict[str, int]:
    """The per-layer counts the program keeps itself."""
    units = scenario.aggregators.values()
    return {
        "sim.events": scenario.simulator.events_executed,
        "chain.blocks": scenario.chain.height,
        "chain.records": scenario.chain.records_total,
        "aggregator.reports": sum(u.verifier.stats.reports_screened for u in units),
        "aggregator.nacks": sum(u.nacks_sent for u in units),
        "net.backhaul_msgs": scenario.mesh.messages_sent,
    }


def _share(tracer: LayerTracer, layer: str) -> float:
    """``layer``'s share of the program's own work: its self time under
    every root but the benchmark's world builds and read/billing loops
    (so the timed phase of a fleet, every request of the server)."""
    skip = ("runtime", "bench")
    root = tracer.root_s(exclude_roots=skip)
    own = sum(
        v["self_s"] for k, v in tracer.summary(exclude_roots=skip).items()
        if k.split(".")[0] == layer
    )
    return own / root if root else 0.0


def layer_metrics(tracer: LayerTracer, counts: dict[str, int], builds: int = 1):
    """Per-layer counts and self times of one traced round.

    ``counts`` carries what the program itself counts (kernel events,
    blocks, screened reports, ...).  Returns ``(metrics, error)`` where
    ``error`` is None when the layer self times add up to the root spans
    and a description otherwise.
    """
    summary = tracer.summary()

    def spans(prefix: str) -> list[dict]:
        return [v for k, v in summary.items() if k == prefix or k.startswith(prefix + ".")]

    def count(prefix: str) -> int:
        return sum(v["count"] for v in spans(prefix))

    def self_s(prefix: str) -> float:
        return sum(v["self_s"] for v in spans(prefix))

    root = tracer.root_s()
    stray = sorted({k.split(".")[0] for k in summary} - set(LAYERS))
    layer_sum = sum(self_s(layer) for layer in LAYERS)
    error = None
    if stray:
        error = f"spans outside the known layers: {stray}"
    elif abs(layer_sum - root) > 1e-6 * max(root, 1.0):
        error = f"layer self times sum to {layer_sum!r} s, roots to {root!r} s"
    metrics = {
        "sim.events": counts.get("sim.events", 0),
        "sim.self_s": self_s("sim"),
        "device.calls": count("device"),
        "device.self_s": self_s("device"),
        "vector.cohort_ticks": count("vector.tick"),
        "vector.releases": count("vector.release"),
        "vector.self_s": self_s("vector"),
        "transport.messages": count("transport.deliver"),
        "transport.self_s": self_s("transport"),
        "protocol.decodes": count("protocol.decode"),
        "protocol.codec_self_s": self_s("protocol"),
        "aggregator.reports": counts.get("aggregator.reports", 0),
        "aggregator.nacks": counts.get("aggregator.nacks", 0),
        "aggregator.joins": count("aggregator.join"),
        "aggregator.self_s": self_s("aggregator"),
        "net.backhaul_msgs": counts.get("net.backhaul_msgs", 0),
        "net.self_s": self_s("net"),
        "chain.blocks": counts.get("chain.blocks", 0),
        "chain.records": counts.get("chain.records", 0),
        "chain.canonical_calls": count("chain.canonical"),
        "chain.canonical_self_s": self_s("chain.canonical"),
        "chain.merkle_self_s": self_s("chain.merkle"),
        "chain.append_self_s": self_s("chain.append"),
        "chain.receipt_self_s": self_s("chain.receipt"),
        "chain.share": _share(tracer, "chain"),
        "billing.invoices": count("billing.invoice"),
        "billing.self_s": self_s("billing"),
        "runtime.build_s": self_s("runtime") / builds,
        "runtime.self_s": self_s("runtime"),
        "serve.requests": count("serve.handler"),
        "serve.handler_self_s": self_s("serve.handler"),
        "serve.service_self_s": self_s("serve.service"),
        "bench.self_s": self_s("bench"),
        "trace.root_s": root,
    }
    return metrics, error
