"""Network models attributing simulated transfer costs to MQTT traffic.

The paper's runtime evaluation (Fig. 8) measures *total processing delay*,
which is dominated by model-parameter transfer through the broker plus
aggregation compute.  Because this reproduction runs in a single process, the
broker does not actually take milliseconds to move bytes; instead every hop is
charged against a :class:`LinkProfile` (latency + bandwidth + jitter + loss)
and recorded in a :class:`TrafficLog`.  The simulation layer
(:mod:`repro.sim`) and the experiment harness read that log to compute the
delay figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.soa import StringTable, grow
from repro.utils.validation import require_positive

__all__ = ["LinkProfile", "NetworkModel", "TrafficRecord", "TrafficLog"]

#: Fixed per-packet protocol overhead in bytes (MQTT fixed header + topic +
#: packet id).  Small but kept explicit so traffic accounting is meaningful for
#: the many tiny coordination messages SDFLMQ exchanges.
PACKET_OVERHEAD_BYTES = 64


@dataclass(frozen=True)
class LinkProfile:
    """Characteristics of the link between one client and its broker.

    Attributes
    ----------
    latency_s:
        One-way propagation latency in seconds.
    bandwidth_bps:
        Usable bandwidth in *bytes* per second (not bits).
    jitter_s:
        Standard deviation of a Gaussian jitter term added to the latency.
    loss_rate:
        Probability that a QoS-0 packet is silently dropped.  QoS 1/2 packets
        are never lost (the retransmission cost is charged instead).
    """

    latency_s: float = 0.002
    bandwidth_bps: float = 12.5e6  # 100 Mbit/s expressed in bytes/s
    jitter_s: float = 0.0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.latency_s, "latency_s", strict=False)
        require_positive(self.bandwidth_bps, "bandwidth_bps")
        require_positive(self.jitter_s, "jitter_s", strict=False)
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")

    def transfer_time(self, payload_bytes: int, rng: Optional[np.random.Generator] = None) -> float:
        """Time in seconds to move ``payload_bytes`` across this link once."""
        size = payload_bytes + PACKET_OVERHEAD_BYTES
        delay = self.latency_s + size / self.bandwidth_bps
        if self.jitter_s > 0.0 and rng is not None:
            delay += abs(float(rng.normal(0.0, self.jitter_s)))
        return delay


@dataclass(slots=True)
class TrafficRecord:
    """One hop of one message through the broker.

    Slotted: one record is created per delivery on the routing hot path, so
    the per-instance ``__dict__`` is worth avoiding.
    """

    topic: str
    sender_id: str
    receiver_id: str
    payload_bytes: int
    qos: int
    transfer_time_s: float
    handshake_packets: int
    timestamp: float
    broker: str

    @property
    def total_bytes(self) -> int:
        """Payload plus per-packet protocol overhead for all packets on the hop."""
        return self.payload_bytes + PACKET_OVERHEAD_BYTES * (1 + self.handshake_packets)


class _TrafficBatch:
    """One broadcast fan-out's traffic, stored once instead of ``n`` records.

    ``count`` may be smaller than ``len(receiver_ids)`` when the log's
    ``max_records`` retention cap truncated the batch; aggregates always cover
    every member regardless.  Materializes :class:`TrafficRecord` façades
    lazily for :meth:`TrafficLog.records` / iteration.
    """

    __slots__ = (
        "topic",
        "sender_id",
        "receiver_ids",
        "payload_bytes",
        "qos",
        "transfer_times",
        "handshake_packets",
        "timestamp",
        "broker",
        "count",
    )

    def __init__(
        self,
        topic: str,
        sender_id: str,
        receiver_ids: Sequence[str],
        payload_bytes: int,
        qos: Sequence[int],
        transfer_times: Sequence[float],
        handshake_packets: Sequence[int],
        timestamp: float,
        broker: str,
        count: int,
    ) -> None:
        self.topic = topic
        self.sender_id = sender_id
        self.receiver_ids = receiver_ids
        self.payload_bytes = payload_bytes
        self.qos = qos
        self.transfer_times = transfer_times
        self.handshake_packets = handshake_packets
        self.timestamp = timestamp
        self.broker = broker
        self.count = count

    def materialize(self) -> Iterator[TrafficRecord]:
        for i in range(self.count):
            yield TrafficRecord(
                topic=self.topic,
                sender_id=self.sender_id,
                receiver_id=self.receiver_ids[i],
                payload_bytes=self.payload_bytes,
                qos=self.qos[i],
                transfer_time_s=self.transfer_times[i],
                handshake_packets=self.handshake_packets[i],
                timestamp=self.timestamp,
                broker=self.broker,
            )


class TrafficLog:
    """Accumulates per-hop traffic and summary statistics, column-first.

    Identities are interned once (:class:`~repro.utils.soa.StringTable`) and
    the per-receiver / per-sender / per-topic aggregates live in id-indexed
    int64 arrays, so a whole broadcast fan-out is accounted with one
    :meth:`add_batch` call (a vectorized scatter-add) instead of ``n`` dict
    updates.  Raw records stay bounded by ``max_records`` (batches retained
    compactly, rehydrated to :class:`TrafficRecord` on access) while the
    aggregates remain exact over the full run.

    The intern table survives :meth:`clear` — the broker caches interned id
    arrays on its routing plans, and those must stay valid across
    ``reset_stats()``; only the counters are zeroed.
    """

    def __init__(self, max_records: int = 200_000) -> None:
        require_positive(max_records, "max_records")
        self._chunks: List[object] = []  # TrafficRecord | _TrafficBatch
        self._retained = 0
        self._max_records = int(max_records)
        self._ids = StringTable()
        self._receiver_bytes = np.zeros(256, dtype=np.int64)
        self._sender_bytes = np.zeros(256, dtype=np.int64)
        self._topic_messages = np.zeros(256, dtype=np.int64)
        self.total_messages = 0
        self.total_payload_bytes = 0
        self.total_transfer_time_s = 0.0

    def intern(self, value: Optional[str]) -> int:
        """Intern an identity (sender/receiver/topic) into this log's id space.

        The returned index stays valid forever (ids are never reused and the
        counter columns only grow), so routing plans may cache it.
        """
        index = self._ids.intern(value)
        if index >= len(self._receiver_bytes):
            capacity = index + 1
            self._receiver_bytes = grow(self._receiver_bytes, capacity, fill=0)
            self._sender_bytes = grow(self._sender_bytes, capacity, fill=0)
            self._topic_messages = grow(self._topic_messages, capacity, fill=0)
        return index

    def intern_many(self, values: Sequence[Optional[str]]) -> np.ndarray:
        """Intern a sequence of identities; returns their ids as int64."""
        intern = self.intern
        return np.array([intern(v) for v in values], dtype=np.int64)

    def add(self, record: TrafficRecord) -> None:
        """Record one delivery hop (the scalar path)."""
        if self._retained < self._max_records:
            self._chunks.append(record)
            self._retained += 1
        payload_bytes = record.payload_bytes
        self.total_messages += 1
        self.total_payload_bytes += payload_bytes
        self.total_transfer_time_s += record.transfer_time_s
        # Intern before indexing: ``intern`` may grow the count arrays, and
        # ``a[intern(x)] += v`` would fetch the old array first.
        receiver = self.intern(record.receiver_id)
        sender = self.intern(record.sender_id)
        topic = self.intern(record.topic)
        self._receiver_bytes[receiver] += payload_bytes
        self._sender_bytes[sender] += payload_bytes
        self._topic_messages[topic] += 1

    def add_batch(
        self,
        topic: str,
        sender_id: str,
        receiver_ids: Sequence[str],
        receiver_idx: np.ndarray,
        sender_idx: int,
        topic_idx: int,
        payload_bytes: int,
        qos: Sequence[int],
        transfer_times: Sequence[float],
        handshake_packets: Sequence[int],
        timestamp: float,
        broker: str,
    ) -> None:
        """Record one whole fan-out (the broker's vectorized publish path).

        ``receiver_idx``/``sender_idx``/``topic_idx`` are pre-interned ids
        from *this* log (see :meth:`intern`); receivers within one fan-out
        are unique (one route entry per subscriber), so the scatter-add below
        never collapses duplicate indices.  ``transfer_times`` must be a
        plain list — the transfer total is accumulated sequentially so the
        float result is bit-identical to ``n`` scalar :meth:`add` calls.
        """
        n = len(receiver_ids)
        self.total_messages += n
        self.total_payload_bytes += payload_bytes * n
        self.total_transfer_time_s = sum(transfer_times, self.total_transfer_time_s)
        self._receiver_bytes[receiver_idx] += payload_bytes
        self._sender_bytes[sender_idx] += payload_bytes * n
        self._topic_messages[topic_idx] += n
        room = self._max_records - self._retained
        if room > 0:
            keep = n if n <= room else room
            self._chunks.append(
                _TrafficBatch(
                    topic,
                    sender_id,
                    receiver_ids,
                    payload_bytes,
                    qos,
                    transfer_times,
                    handshake_packets,
                    timestamp,
                    broker,
                    keep,
                )
            )
            self._retained += keep

    def __len__(self) -> int:
        return self.total_messages

    def __iter__(self) -> Iterator[TrafficRecord]:
        for chunk in self._chunks:
            if type(chunk) is _TrafficBatch:
                yield from chunk.materialize()
            else:
                yield chunk  # type: ignore[misc]

    @property
    def records(self) -> Tuple[TrafficRecord, ...]:
        """The retained raw records (up to ``max_records``), materialized."""
        return tuple(self)

    def bytes_received_by(self, client_id: str) -> int:
        """Total payload bytes delivered to ``client_id``."""
        index = self._ids.lookup(client_id)
        return int(self._receiver_bytes[index]) if index is not None else 0

    def bytes_sent_by(self, client_id: str) -> int:
        """Total payload bytes published by ``client_id``."""
        index = self._ids.lookup(client_id)
        return int(self._sender_bytes[index]) if index is not None else 0

    def messages_on_topic(self, topic: str) -> int:
        """Number of deliveries on a concrete topic."""
        index = self._ids.lookup(topic)
        return int(self._topic_messages[index]) if index is not None else 0

    def clear(self) -> None:
        """Drop all records and reset aggregates.

        The intern table (and thus any cached :meth:`intern` index) survives;
        only the counters are zeroed.
        """
        self._chunks.clear()
        self._retained = 0
        self.total_messages = 0
        self.total_payload_bytes = 0
        self.total_transfer_time_s = 0.0
        self._receiver_bytes[:] = 0
        self._sender_bytes[:] = 0
        self._topic_messages[:] = 0


class NetworkModel:
    """Per-client link registry plus broker processing cost model.

    Parameters
    ----------
    default_link:
        Link profile used for clients without an explicit profile.
    broker_processing_s_per_byte:
        Broker CPU cost charged per payload byte routed (models serialization
        and queueing inside the broker process).
    broker_processing_s_per_message:
        Fixed broker CPU cost per routed message.
    seed:
        Seed for the jitter / loss random stream.
    """

    def __init__(
        self,
        default_link: Optional[LinkProfile] = None,
        broker_processing_s_per_byte: float = 2e-9,
        broker_processing_s_per_message: float = 5e-5,
        seed: int = 0,
    ) -> None:
        self.default_link = default_link or LinkProfile()
        require_positive(broker_processing_s_per_byte, "broker_processing_s_per_byte", strict=False)
        require_positive(broker_processing_s_per_message, "broker_processing_s_per_message", strict=False)
        self.broker_processing_s_per_byte = broker_processing_s_per_byte
        self.broker_processing_s_per_message = broker_processing_s_per_message
        self._links: Dict[str, LinkProfile] = {}
        self._link_overrides: Dict[str, List[LinkProfile]] = {}
        self._rng = np.random.default_rng(seed)
        #: Monotonic generation counter, bumped whenever any link assignment
        #: changes.  Consumers that cache per-link derived state (the broker's
        #: routing-plan latency/bandwidth vectors) key their caches on this.
        self.version = 0

    def set_link(self, client_id: str, profile: LinkProfile) -> None:
        """Assign a link profile to a specific client id."""
        self._links[client_id] = profile
        self.version += 1

    def link_for(self, client_id: Optional[str]) -> LinkProfile:
        """Return the link profile for ``client_id`` (default if unknown).

        An active override (fault-injection window) shadows the base profile.
        """
        if client_id is None:
            return self.default_link
        override = self._link_overrides.get(client_id)
        if override:
            return override[-1]
        return self._links.get(client_id, self.default_link)

    # -------------------------------------------------------- fault injection

    def push_link_override(self, client_id: str, profile: LinkProfile) -> None:
        """Temporarily replace ``client_id``'s link (degradation window start).

        Overrides stack, so nested/overlapping windows restore correctly when
        popped in reverse order of application.
        """
        self._link_overrides.setdefault(client_id, []).append(profile)
        self.version += 1

    def pop_link_override(self, client_id: str, profile: Optional[LinkProfile] = None) -> bool:
        """Remove a link override; returns True if one existed.

        With ``profile`` given, that exact pushed instance is removed wherever
        it sits in the stack — which is what lets different fault windows
        overlap on the same client and still restore correctly when they end
        out of push order.  Without it, the most recent override is popped.
        """
        stack = self._link_overrides.get(client_id)
        if not stack:
            return False
        if profile is None:
            stack.pop()
        else:
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] is profile:
                    del stack[index]
                    break
            else:
                return False
        if not stack:
            del self._link_overrides[client_id]
        self.version += 1
        return True

    def degraded_profile(
        self,
        client_id: str,
        bandwidth_factor: float = 1.0,
        latency_add_s: float = 0.0,
        jitter_add_s: float = 0.0,
        loss_rate: Optional[float] = None,
    ) -> LinkProfile:
        """The client's *base* link with a degradation applied (not installed).

        Computed against the base profile (ignoring any active overrides), so
        overlapping degradation windows stay independent of each other: the
        most recently opened window wins while both are active, and closing
        either restores exactly what the other describes.
        """
        require_positive(bandwidth_factor, "bandwidth_factor")
        require_positive(latency_add_s, "latency_add_s", strict=False)
        require_positive(jitter_add_s, "jitter_add_s", strict=False)
        base = self._links.get(client_id, self.default_link)
        return LinkProfile(
            latency_s=base.latency_s + latency_add_s,
            bandwidth_bps=base.bandwidth_bps * bandwidth_factor,
            jitter_s=base.jitter_s + jitter_add_s,
            loss_rate=base.loss_rate if loss_rate is None else loss_rate,
        )

    def scale_broker_processing(self, factor: float) -> None:
        """Multiply the broker's per-message/per-byte processing cost by ``factor``.

        A factor above 1 models a broker slowdown window (CPU contention,
        co-located workload); scaling by ``1 / factor`` afterwards restores
        the original cost exactly.
        """
        require_positive(factor, "factor")
        self.broker_processing_s_per_byte *= factor
        self.broker_processing_s_per_message *= factor
        self.version += 1

    def broker_processing_time(self, payload_bytes: int) -> float:
        """Broker-side processing time for routing one message."""
        return (
            self.broker_processing_s_per_message
            + payload_bytes * self.broker_processing_s_per_byte
        )

    def uplink_time(self, sender_id: Optional[str], payload_bytes: int) -> float:
        """Publisher → broker transfer time."""
        return self.link_for(sender_id).transfer_time(payload_bytes, self._rng)

    def downlink_time(self, receiver_id: Optional[str], payload_bytes: int) -> float:
        """Broker → subscriber transfer time."""
        return self.link_for(receiver_id).transfer_time(payload_bytes, self._rng)

    def end_to_end_time(
        self, sender_id: Optional[str], receiver_id: Optional[str], payload_bytes: int
    ) -> float:
        """Full publisher → broker → subscriber time including broker processing."""
        return (
            self.uplink_time(sender_id, payload_bytes)
            + self.broker_processing_time(payload_bytes)
            + self.downlink_time(receiver_id, payload_bytes)
        )

    def should_drop(self, receiver_id: Optional[str], qos: int) -> bool:
        """Whether a QoS-0 delivery to ``receiver_id`` is lost."""
        if qos != 0:
            return False
        loss = self.link_for(receiver_id).loss_rate
        if loss <= 0.0:
            return False
        return bool(self._rng.random() < loss)
