"""Per-layer span recorder for traced benchmark rounds.

Spans are recorded from outside the program: :func:`install` replaces
each layer's entry points (methods on its classes, module-level
functions everywhere they were imported) with a wrapper that times the
call.  Nothing under ``src/`` knows it is being traced, and an untraced
round never calls :func:`install`, so its timings carry no wrapper cost.

Every span has an id, its parent's id (the span that was open on the
same thread when it started, so all spans of one request or one kernel
event share the root's id), a start, an end and a *self time*: its
duration minus the durations of its direct children.  Self times
therefore telescope: over any set of complete span trees they sum to the
durations of the roots, which is what lets a traced round say where all
of its time went.  Spans stay in per-thread arrays until the round ends
and are written out by :meth:`LayerTracer.write`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

#: Layer boundaries: (span name, module, attribute path).  A span name
#: is ``<layer>.<group>``; the layer is what self time is summed over,
#: the group is the finer split some per-layer metrics need.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("sim.kernel", "repro.sim.kernel", "Simulator.run_until"),
    ("device.firmware", "repro.device.firmware", "Firmware._tick"),
    ("device.stack", "repro.device.stack", "MeteringDevice._on_ctrl"),
    ("device.stack", "repro.device.stack", "MeteringDevice.enter_network"),
    ("device.stack", "repro.device.stack", "MeteringDevice.leave_network"),
    ("device.stack", "repro.device.stack", "MeteringDevice._flush_buffer"),
    ("device.stack", "repro.device.stack", "MeteringDevice._on_report_timeout"),
    ("vector.tick", "repro.vector.fleet", "Cohort._tick"),
    ("vector.release", "repro.vector.fleet", "Cohort.release"),
    ("vector.fleet", "repro.vector.fleet", "VectorFleet._deliver"),
    ("vector.fleet", "repro.vector.fleet", "VectorFleet._scan"),
    ("transport.deliver", "repro.transport.direct", "DirectHub.deliver"),
    ("transport.hub", "repro.transport.direct", "DirectHub._drain"),
    ("transport.link", "repro.transport.direct", "DirectLink.publish"),
    ("transport.link", "repro.transport.direct", "DirectLink.connect"),
    ("protocol.codec", "repro.protocol.codec", "encode_message"),
    ("protocol.decode", "repro.protocol.codec", "decode_message"),
    ("protocol.codec", "repro.protocol.codec", "as_message"),
    ("aggregator.unit", "repro.aggregator.unit", "AggregatorUnit._on_report"),
    ("aggregator.unit", "repro.aggregator.unit", "AggregatorUnit._process_report"),
    ("aggregator.unit", "repro.aggregator.unit", "AggregatorUnit._on_register"),
    ("aggregator.join", "repro.aggregator.unit", "AggregatorUnit._process_registration"),
    ("aggregator.unit", "repro.aggregator.unit", "AggregatorUnit._on_backhaul"),
    ("aggregator.unit", "repro.aggregator.unit", "AggregatorUnit._feeder_tick"),
    ("aggregator.unit", "repro.aggregator.unit", "AggregatorUnit._flush_block"),
    ("aggregator.unit", "repro.aggregator.unit", "AggregatorUnit._expire_temporaries"),
    ("net.backhaul", "repro.net.backhaul", "BackhaulMesh.send"),
    ("net.backhaul", "repro.net.backhaul", "BackhaulMesh.broadcast"),
    ("chain.canonical", "repro.chain.hashing", "canonical_bytes"),
    ("chain.merkle", "repro.chain.merkle", "MerkleTree.__init__"),
    ("chain.merkle", "repro.chain.merkle", "MerkleTree.proof"),
    ("chain.append", "repro.aggregator.ledger_writer", "LedgerWriter.flush"),
    ("chain.append", "repro.chain.ledger", "Blockchain.append"),
    ("chain.receipt", "repro.chain.receipts", "find_and_issue"),
    ("chain.receipt", "repro.chain.receipts", "issue_receipt"),
    ("chain.receipt", "repro.chain.receipts", "InclusionReceipt.verify"),
    ("chain.receipt", "repro.chain.merkle", "MerkleTree.verify_proof"),
    ("chain.receipt", "repro.chain.sync", "HeaderChain.extend"),
    ("chain.receipt", "repro.chain.sync", "HeaderChain.verify_receipt"),
    ("billing.invoice", "repro.billing.engine", "BillingEngine.invoice"),
    ("billing.settle", "repro.billing.settlement", "SettlementEngine.settle"),
    ("serve.handler", "repro.serve.http", "_Handler._dispatch"),
    ("serve.service", "repro.serve.service", "AggregatorService.register"),
    ("serve.service", "repro.serve.service", "AggregatorService.ingest"),
    ("serve.service", "repro.serve.service", "AggregatorService.proof"),
    ("serve.service", "repro.serve.service", "AggregatorService.ledger_headers"),
    ("serve.service", "repro.serve.service", "AggregatorService.advance"),
)

#: Every layer a span name can start with; ``runtime`` and ``bench`` are
#: the benchmark's own root spans (world build; read and billing loops).
LAYERS = (
    "sim", "device", "vector", "transport", "protocol", "aggregator", "net",
    "chain", "billing", "serve", "runtime", "bench",
)


class _ThreadSpans:
    """One thread's open-span stack and its finished spans."""

    __slots__ = ("stack", "ids", "parents", "names", "starts", "ends", "selfs")

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.selfs = array("d")


class LayerTracer:
    """Records spans while :attr:`active`; see the module docstring."""

    def __init__(self) -> None:
        self.active = False
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._threads_lock = threading.Lock()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = self._local.spans = _ThreadSpans()
            with self._threads_lock:
                self._threads.append(spans)
            return spans

    def _finish(self, spans: _ThreadSpans, frame: list, name_id: int,
                start: float, end: float) -> None:
        stack = spans.stack
        stack.pop()
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_id = parent[0]
        else:
            parent_id = -1
        spans.ids.append(frame[0])
        spans.parents.append(parent_id)
        spans.names.append(name_id)
        spans.starts.append(start)
        spans.ends.append(end)
        spans.selfs.append(duration - frame[1])

    def wrap(self, name: str, fn):
        """``fn`` recording one ``name`` span per call while active."""
        name_id = self._name_id(name)
        perf = time.perf_counter
        ids = self._ids
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer._spans()
            # frame: [span id, summed duration of direct children]
            frame = [next(ids), 0.0]
            spans.stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._finish(spans, frame, name_id, start, perf())

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block (the benchmark's own root spans)."""
        if not self.active:
            yield
            return
        name_id = self._name_id(name)
        spans = self._spans()
        frame = [next(self._ids), 0.0]
        spans.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._finish(spans, frame, name_id, start, time.perf_counter())

    def _spans_with_roots(self):
        """(thread spans, index, name of the span's root) for every span."""
        for spans in self._threads:
            # Spans are stored in finish order, so a parent always comes
            # after its children: walking backwards meets it first.
            root_of: dict[int, str] = {}
            found = []
            for i in range(len(spans.ids) - 1, -1, -1):
                parent = spans.parents[i]
                root = self._names[spans.names[i]] if parent < 0 else root_of[parent]
                root_of[spans.ids[i]] = root
                found.append((spans, i, root))
            yield from reversed(found)

    def summary(self, exclude_roots: tuple[str, ...] = ()) -> dict[str, dict[str, float]]:
        """Span name -> {"count", "self_s", "total_s"} over all threads.

        ``exclude_roots`` drops every span under a root whose layer is
        listed (e.g. the benchmark's own read and billing loops).
        """
        out: dict[str, dict[str, float]] = {}
        for spans, i, root in self._spans_with_roots():
            if root.split(".")[0] in exclude_roots:
                continue
            entry = out.setdefault(
                self._names[spans.names[i]], {"count": 0, "self_s": 0.0, "total_s": 0.0}
            )
            entry["count"] += 1
            entry["self_s"] += spans.selfs[i]
            entry["total_s"] += spans.ends[i] - spans.starts[i]
        return out

    def root_s(self, exclude_roots: tuple[str, ...] = ()) -> float:
        """Summed duration of the root spans (spans with no parent)."""
        return sum(
            spans.ends[i] - spans.starts[i]
            for spans in self._threads
            for i, parent in enumerate(spans.parents)
            if parent < 0
            and self._names[spans.names[i]].split(".")[0] not in exclude_roots
        )

    def write(self, path: Path) -> None:
        """Write every finished span as tab-separated text.

        Columns: id, parent id (-1 for a root), thread, name, start and
        end (``perf_counter`` seconds), self time in seconds.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("id\tparent\tthread\tname\tstart\tend\tself\n")
            for thread, spans in enumerate(self._threads):
                for i, name_id in enumerate(spans.names):
                    out.write(
                        f"{spans.ids[i]}\t{spans.parents[i]}\t{thread}\t"
                        f"{self._names[name_id]}\t{spans.starts[i]!r}\t"
                        f"{spans.ends[i]!r}\t{spans.selfs[i]!r}\n"
                    )


def _replace_everywhere(original, replacement) -> None:
    """Rebind a module-level function in every loaded module of the program."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def patch(module_name: str, path: str, make_wrapper) -> None:
    """Replace one entry point (``Class.method`` or a module function)
    with ``make_wrapper(original)``, once per process and entry point."""
    import importlib

    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, attr, make_wrapper(raw))
    else:
        original = getattr(module, path)
        _replace_everywhere(original, make_wrapper(original))


def install(tracer: LayerTracer) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` (once per process)."""
    for span_name, module_name, path in ENTRY_POINTS:
        patch(module_name, path, functools.partial(tracer.wrap, span_name))
