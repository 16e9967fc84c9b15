"""Outside-in layer spans for the end-to-end benchmark.

Nothing here edits ``src/``: every span is a wrapper the benchmark installs
over a public entry point of one layer (module attribute or class method) and
removes again afterwards.  A span is ``[name, start_ns, end_ns]``, appended
to :attr:`Recorder.spans` in entry order.  Work runs on one thread per
process, so spans nest by time containment and the enclosing span is the
one that caused a span.

Self time is computed after the op, from the spans, by :func:`attribute`:
each instant of the op's wall time goes to the innermost active span, so
the layer self times plus ``unattributed`` add up to the op's wall time.
Grid cells run in pool workers; their spans come back with the cell result
and are overlaid on the parent's timeline (see :func:`attribute`).
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: Label of the root span of an op in the benchmark process.
OP = "op"
#: Label of the root span of a grid cell in a pool worker.
CELL = "cell"
UNATTRIBUTED = "unattributed"

#: Every layer span name, in report order.
LAYERS = (
    "scenarios.compile",
    "scenarios.signature",
    "scenarios.store.get",
    "scenarios.store.put",
    "ml.dataset",
    "ml.train",
    "ml.eval",
    "mqttfc.codec",
    "mqttfc.serialize",
    "mqttfc.compress",
    "mqttfc.decompress",
    "mqttfc.deserialize",
    "mqttfc.chunk",
    "mqtt.broker",
    "runtime.scheduler",
    "core.aggregation",
)

Span = List  # [name, start_ns, end_ns]


class Recorder:
    """Spans and counters of the current op, kept in memory."""

    def __init__(self) -> None:
        self.tracing = False
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        #: ``compile_scenario`` wall seconds, one entry per compile.
        self.compile_s: List[float] = []
        #: The last :class:`ScenarioResult` ``execute_scenario`` returned.
        self.last_result = None

    def reset(self) -> None:
        """Forget the previous op."""
        self.spans = []
        self.counts = {}
        self.compile_s = []
        self.last_result = None

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records a span named ``name``."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0]
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()

        return traced


class Patcher:
    """Replaces attributes and puts the originals back in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install_layer_spans(rec: Recorder, patcher: Patcher) -> None:
    """Wrap each layer's public entry points with spans (see ``LAYERS``)."""
    from repro.core import aggregation
    from repro.ml.data import ArrayDataset
    from repro.ml.models import ClassifierModel
    from repro.mqtt.broker import MQTTBroker
    from repro.mqttfc import rfc
    from repro.mqttfc.batching import BatchAssembler, BatchEncoder
    from repro.mqttfc.codecs import UpdateCodec
    from repro.runtime import experiment
    from repro.runtime.scheduler import EventScheduler
    from repro.scenarios import runner
    from repro.scenarios.store import ResultsStore

    def spans(name: str, owner: object, attrs: Iterable[str]) -> None:
        for attr in attrs:
            patcher.patch(owner, attr, lambda fn: rec.span(name, fn))

    spans("scenarios.compile", runner, ["compile_scenario"])
    spans("scenarios.signature", runner, ["_signatures"])
    spans("scenarios.store.get", ResultsStore, ["get_run"])
    spans("scenarios.store.put", ResultsStore, ["put_run", "record_grid"])
    spans(
        "ml.dataset",
        experiment,
        ["synthetic_digits", "train_test_split", "iid_partition",
         "dirichlet_partition", "shard_partition"],
    )
    spans("ml.dataset", ArrayDataset, ["subset"])
    spans("ml.train", ClassifierModel, ["train_epoch"])
    spans("ml.eval", ClassifierModel, ["evaluate"])
    spans("mqttfc.codec", UpdateCodec, ["encode_state", "decode_state", "observe_global"])
    spans("mqttfc.serialize", rfc, ["encode_payload_frame"])
    spans("mqttfc.decompress", rfc, ["decompress_payload"])
    spans("mqttfc.deserialize", rfc, ["decode_payload"])
    spans("mqttfc.chunk", BatchAssembler, ["add"])
    spans("mqtt.broker", MQTTBroker, ["publish"])
    spans(
        "runtime.scheduler",
        EventScheduler,
        ["run_until_idle", "run_until", "run_until_quiet", "run_until_time", "sweep"],
    )
    strategies = [aggregation.AggregationStrategy]
    for strategy in strategies:
        strategies.extend(strategy.__subclasses__())
        if "aggregate" in vars(strategy):
            spans("core.aggregation", strategy, ["aggregate"])

    def counted_compress(fn: Callable) -> Callable:
        traced = rec.span("mqttfc.compress", fn)

        def compress_frame(frame, config=None):
            out = traced(frame, config)
            policy = config or rfc.CompressionConfig()
            if policy.enabled and frame.nbytes >= policy.min_bytes:
                # A kept zlib output is shorter than the raw frame plus its flag.
                rec.count("mqttfc.compress.attempts")
                rec.count("mqttfc.compress.kept", int(out.nbytes <= frame.nbytes))
                rec.count("mqttfc.compress.in_bytes", frame.nbytes)
                rec.count("mqttfc.compress.out_bytes", out.nbytes)
            return out

        return compress_frame

    patcher.patch(rfc, "compress_frame", counted_compress)

    def chunked(fn: Callable) -> Callable:
        # A generator: time each step, not the publishes between steps.
        step = rec.span("mqttfc.chunk", next)

        @functools.wraps(fn)
        def iter_payloads_frame(*args, **kwargs):
            chunks = fn(*args, **kwargs)
            done = object()
            while True:
                chunk = step(chunks, done)
                if chunk is done:
                    return
                yield chunk

        return iter_payloads_frame

    patcher.patch(BatchEncoder, "iter_payloads_frame", chunked)


# ----------------------------------------------------------------- attribution


def segments(spans: Sequence[Span]) -> List[Tuple[str, int, int]]:
    """Split one process's nested spans into ``(innermost name, start, end)``."""
    out: List[Tuple[str, int, int]] = []
    stack: List[list] = []  # [name, cursor, end]

    def pop() -> None:
        name, cursor, end = stack.pop()
        if end > cursor:
            out.append((name, cursor, end))
        if stack:
            stack[-1][1] = end

    for name, start, end in spans:
        while stack and stack[-1][2] <= start:
            pop()
        if stack and start > stack[-1][1]:
            out.append((stack[-1][0], stack[-1][1], start))
        stack.append([name, start, end])
    while stack:
        pop()
    return out


def attribute(
    parent: Sequence[Span], workers: Sequence[Sequence[Span]]
) -> Dict[str, float]:
    """Seconds of the op's wall time per layer; the values sum to the op span.

    ``parent`` holds the op's spans in the benchmark process, its first span
    being the op itself; ``workers`` holds one span list per grid cell run
    in a pool worker, each rooted at its cell span.  At each instant the
    wall time is shared equally by the innermost active span of every lane
    (the parent and each running cell).  The parent's bare op span counts
    only while no cell runs, because there the parent is waiting on the pool.
    Root spans count as ``unattributed``.
    """
    op_start, op_end = parent[0][1], parent[0][2]
    events: List[Tuple[int, int, int, str]] = []
    for lane, lane_spans in enumerate([parent, *workers]):
        for name, start, end in segments(lane_spans):
            start, end = max(start, op_start), min(end, op_end)
            if end > start:
                events.append((start, 1, lane, name))
                events.append((end, 0, lane, name))
    events.sort()

    totals: Dict[str, float] = {}
    active: Dict[int, str] = {}

    def share(length: int) -> None:
        names = [name for lane, name in active.items() if lane]
        own = active.get(0)
        if own is not None and (own != OP or not names):
            names.append(own)
        if not names:
            names = [UNATTRIBUTED]
        part = length / 1e9 / len(names)
        for name in names:
            key = UNATTRIBUTED if name in (OP, CELL) else name
            totals[key] = totals.get(key, 0.0) + part

    previous = op_start
    for at, starts, lane, name in events:
        if at > previous:
            share(at - previous)
            previous = at
        if starts:
            active[lane] = name
        else:
            active.pop(lane, None)
    if op_end > previous:
        share(op_end - previous)
    return totals


def span_calls(spans: Iterable[Span]) -> Dict[str, int]:
    """Number of spans per layer name."""
    calls: Dict[str, int] = {}
    for name, _start, _end in spans:
        calls[name] = calls.get(name, 0) + 1
    return calls


def chrome_events(spans: Sequence[Span], pid: int, op: int) -> List[dict]:
    """Spans as Chrome ``trace_event`` complete events (one tid per op)."""
    return [
        {"name": name, "ph": "X", "pid": pid, "tid": op,
         "ts": start / 1e3, "dur": (end - start) / 1e3}
        for name, start, end in spans
    ]


def key_sums(maps: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Key-wise sum of several dicts."""
    total: Dict[str, float] = {}
    for mapping in maps:
        for key, value in mapping.items():
            total[key] = total.get(key, 0) + value
    return total
