"""The in-process MQTT broker.

The broker owns the subscription trie, retained messages, client sessions
(including persistent sessions and last-will handling) and the traffic log.
Message delivery is *queued*: a publish places :class:`DeliveryRecord` objects
in each subscriber's inbox — or, when an
:class:`~repro.runtime.scheduler.EventScheduler` is attached, in its
time-ordered event heap.  Subscribers process them when their ``loop()`` is
pumped or the scheduler drains.  This keeps routing deterministic and avoids
unbounded recursion when a message handler publishes further messages (which
is constant behaviour in the SDFLMQ choreography).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.mqtt.errors import (
    ClientIdInUseError,
    InvalidTopicError,
    PayloadTooLargeError,
)
from repro.mqtt.messages import (
    QOS_HANDSHAKE_PACKETS,
    DeliveryRecord,
    MQTTMessage,
    QoS,
)
from repro.mqtt.network import (
    PACKET_OVERHEAD_BYTES,
    NetworkModel,
    TrafficLog,
    TrafficRecord,
)
from repro.mqtt.topics import (
    TopicTrie,
    topic_matches_filter,
    validate_topic,
    validate_topic_filter,
)
from repro.utils.validation import require_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mqtt.bridge import BrokerBridge
    from repro.runtime.scheduler import EventScheduler

__all__ = ["MQTTBroker", "BrokerStats", "Subscription"]


class DeliveryTarget(Protocol):
    """Anything the broker can deliver to (normally :class:`repro.mqtt.MQTTClient`)."""

    client_id: str

    def _deliver(self, record: DeliveryRecord) -> None:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class Subscription:
    """A (client, filter, qos) triple held by the broker."""

    client_id: str
    topic_filter: str
    qos: QoS


@dataclass
class BrokerStats:
    """Counters the broker maintains for observability and tests."""

    connects: int = 0
    disconnects: int = 0
    messages_published: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_queued_offline: int = 0
    bytes_published: int = 0
    bytes_delivered: int = 0
    retained_messages: int = 0
    bridged_in: int = 0
    bridged_out: int = 0


@dataclass
class _ClientSession:
    """Broker-side state for one client id."""

    client_id: str
    clean_session: bool = True
    connected: bool = False
    target: Optional[DeliveryTarget] = None
    subscriptions: Dict[str, QoS] = field(default_factory=dict)
    will: Optional[MQTTMessage] = None
    offline_queue: List[DeliveryRecord] = field(default_factory=list)


#: Minimum fan-out width for the vectorized publish path.  Below this the
#: per-publish numpy fixed costs exceed the per-member savings of the scalar
#: loop, so small fan-outs (unicast request/reply traffic) stay scalar.
_VECTOR_MIN_FANOUT = 8

#: Cap on cached sender-excluded subplans per route plan (echo suppression
#: when the publisher subscribes to its own topic).  Beyond this many distinct
#: in-plan senders the publish falls back to the scalar loop rather than
#: growing the cache without bound.
_MAX_MINUS_PLANS = 8


class _RoutePlan:
    """Memoized fan-out plan for one concrete topic, plus lazy vector caches.

    ``entries`` is the canonical ``[(client_id, granted QoS, matched filter)]``
    list sorted by client id; iteration/len index straight into it, so every
    scalar consumer sees exactly the old plain-list plan.  Everything else is
    derived lazily and cached for the vectorized publish path, keyed to the
    generation counter of whatever it was derived from:

    * delivery targets — valid while ``broker._session_epoch`` is unchanged
      (no connect/disconnect means the verified-connected set cannot change);
    * per-receiver latency/bandwidth vectors and the jitter-free / loss-free
      flags — valid while ``network.version`` is unchanged;
    * per-publish-QoS effective-QoS lists, FIFO-clamp pair ids (interned in an
      :class:`~repro.runtime.scheduler.EventScheduler`), traffic-log id
      arrays, and sender-excluded subplans — valid for the plan's lifetime
      (any subscription change builds a fresh plan).
    """

    __slots__ = (
        "entries",
        "_receiver_ids",
        "_filters",
        "_pos",
        "_targets",
        "_targets_epoch",
        "_lat",
        "_bw",
        "_jitter_free",
        "_loss_free",
        "_net_version",
        "_eqos",
        "_fifo",
        "_traffic",
        "_traffic_senders",
        "_minus",
    )

    def __init__(self, entries: List[Tuple[str, QoS, str]]) -> None:
        self.entries = entries
        self._receiver_ids: Optional[List[str]] = None
        self._filters: Optional[List[str]] = None
        self._pos: Optional[Dict[str, int]] = None
        self._targets: Optional[List[DeliveryTarget]] = None
        self._targets_epoch = -1
        self._lat: Optional[np.ndarray] = None
        self._bw: Optional[np.ndarray] = None
        self._jitter_free = False
        self._loss_free = False
        self._net_version = -1
        self._eqos: Dict[int, Tuple[List[int], bool, List[int]]] = {}
        self._fifo: Dict[Tuple[int, Optional[str]], Tuple[int, np.ndarray, List[int]]] = {}
        self._traffic: Optional[Tuple[TrafficLog, int, np.ndarray]] = None
        self._traffic_senders: Dict[Optional[str], int] = {}
        self._minus: Optional[Dict[str, "_RoutePlan"]] = None

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    @property
    def receiver_ids(self) -> List[str]:
        ids = self._receiver_ids
        if ids is None:
            ids = self._receiver_ids = [entry[0] for entry in self.entries]
        return ids

    @property
    def filters(self) -> List[str]:
        filters = self._filters
        if filters is None:
            filters = self._filters = [entry[2] for entry in self.entries]
        return filters

    def position(self, client_id: str) -> Optional[int]:
        pos = self._pos
        if pos is None:
            pos = self._pos = {
                entry[0]: index for index, entry in enumerate(self.entries)
            }
        return pos.get(client_id)

    def minus_sender(self, sender_id: str) -> Optional["_RoutePlan"]:
        """This plan with ``sender_id``'s entry removed (echo suppression)."""
        minus = self._minus
        if minus is None:
            minus = self._minus = {}
        sub = minus.get(sender_id)
        if sub is None:
            if len(minus) >= _MAX_MINUS_PLANS:
                return None
            sub = _RoutePlan(
                [entry for entry in self.entries if entry[0] != sender_id]
            )
            minus[sender_id] = sub
        return sub

    def targets(self, broker: "MQTTBroker") -> Optional[List[DeliveryTarget]]:
        """Live targets per entry; ``None`` unless every receiver is connected.

        Cached per broker session epoch: with no connect/disconnect since the
        last check, the verified result cannot have changed.
        """
        if self._targets_epoch == broker._session_epoch:
            return self._targets
        sessions = broker._sessions
        targets: Optional[List[DeliveryTarget]] = []
        for client_id, _sub_qos, _matched in self.entries:
            session = sessions.get(client_id)
            if session is None or not session.connected or session.target is None:
                targets = None
                break
            targets.append(session.target)
        self._targets = targets
        self._targets_epoch = broker._session_epoch
        return targets

    def link_vectors(
        self, network: NetworkModel
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], bool, bool]:
        """Per-receiver (latency, bandwidth) vectors + jitter/loss-free flags."""
        if self._net_version != network.version:
            profiles = [network.link_for(cid) for cid in self.receiver_ids]
            self._lat = np.array([p.latency_s for p in profiles], dtype=np.float64)
            self._bw = np.array(
                [p.bandwidth_bps for p in profiles], dtype=np.float64
            )
            self._jitter_free = all(p.jitter_s == 0.0 for p in profiles)
            self._loss_free = all(p.loss_rate <= 0.0 for p in profiles)
            self._net_version = network.version
        return self._lat, self._bw, self._jitter_free, self._loss_free

    def effective_qos(
        self, publish_qos: QoS
    ) -> Tuple[List[int], bool, List[int]]:
        """``(per-member effective QoS, any-QoS0, per-member handshake packets)``."""
        key = int(publish_qos)
        cached = self._eqos.get(key)
        if cached is None:
            eqos = [
                key if key <= sub_qos else int(sub_qos)
                for _cid, sub_qos, _matched in self.entries
            ]
            handshakes = [QOS_HANDSHAKE_PACKETS[q] for q in eqos]
            cached = self._eqos[key] = (eqos, 0 in eqos, handshakes)
        return cached

    def fifo_ids(
        self, scheduler: "EventScheduler", sender_id: Optional[str]
    ) -> Tuple[int, np.ndarray, List[int]]:
        """Interned (sender id, FIFO pair slots, receiver ids) in ``scheduler``."""
        key = (id(scheduler), sender_id)
        cached = self._fifo.get(key)
        if cached is None:
            sender_idx, _receiver_arr, pair_arr, receiver_list = scheduler.intern_fanout(
                sender_id, self.receiver_ids
            )
            cached = self._fifo[key] = (sender_idx, pair_arr, receiver_list)
        return cached

    def traffic_ids(
        self, traffic: TrafficLog, topic: str, sender_id: Optional[str]
    ) -> Tuple[int, int, np.ndarray]:
        """Interned (sender, topic, receivers) ids in ``traffic``'s id space."""
        cached = self._traffic
        if cached is None or cached[0] is not traffic:
            cached = self._traffic = (
                traffic,
                traffic.intern(topic),
                traffic.intern_many(self.receiver_ids),
            )
            self._traffic_senders.clear()
        sender_idx = self._traffic_senders.get(sender_id)
        if sender_idx is None:
            sender_idx = self._traffic_senders[sender_id] = traffic.intern(
                sender_id or "?"
            )
        return sender_idx, cached[1], cached[2]


class _FanoutDeliveries(Sequence[DeliveryRecord]):
    """Lazy ``publish()`` result for a vectorized fan-out.

    The hot path creates no :class:`DeliveryRecord` objects; callers that do
    inspect the result (tests, the simulation layer) get records materialized
    on demand from the plan entries plus the scheduler's clamped times.  Each
    access builds a fresh snapshot — the in-flight state itself lives in the
    scheduler's batch entry.
    """

    __slots__ = ("_message", "_entries", "_eqos", "_deliver_at", "_unclamped", "_seq0")

    def __init__(
        self,
        message: MQTTMessage,
        entries: List[Tuple[str, QoS, str]],
        eqos: List[int],
        deliver_at: np.ndarray,
        unclamped: Optional[np.ndarray],
        seq0: int,
    ) -> None:
        self._message = message
        self._entries = entries
        self._eqos = eqos
        self._deliver_at = deliver_at
        self._unclamped = unclamped
        self._seq0 = seq0

    def __len__(self) -> int:
        return len(self._entries)

    def _materialize(self, index: int) -> DeliveryRecord:
        unclamped: Optional[float] = None
        if self._unclamped is not None:
            value = self._unclamped[index]
            if value == value:  # not NaN
                unclamped = float(value)
        client_id, _sub_qos, matched_filter = self._entries[index]
        return DeliveryRecord(
            message=self._message,
            subscriber_id=client_id,
            subscription_filter=matched_filter,
            effective_qos=QoS(self._eqos[index]),
            deliver_at=float(self._deliver_at[index]),
            sequence=self._seq0 + index,
            unclamped_deliver_at=unclamped,
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._materialize(i) for i in range(*index.indices(len(self._entries)))]
        if index < 0:
            index += len(self._entries)
        if not 0 <= index < len(self._entries):
            raise IndexError(index)
        return self._materialize(index)

    def __iter__(self):
        for index in range(len(self._entries)):
            yield self._materialize(index)


class MQTTBroker:
    """An MQTT 3.1.1-style broker running inside the simulation process.

    Parameters
    ----------
    name:
        Broker name; used as the message ``origin_broker`` tag and in bridge
        loop prevention.
    network:
        Optional :class:`NetworkModel` used to attribute transfer delays to
        every delivery.  When ``None``, deliveries are instantaneous.
    clock:
        Optional object with a ``now()`` method returning the simulated time;
        used to timestamp messages and deliveries.
    max_payload_bytes:
        Maximum accepted payload size (matches the configurable packet-size
        limit in real brokers; MQTTFC's batching layer exists to stay below
        this).
    max_offline_queue:
        Maximum number of QoS>0 messages queued for a disconnected persistent
        session before old ones are discarded.
    max_bridge_dedup:
        Maximum number of ``(origin_broker, message_id)`` keys remembered for
        bridge loop prevention.  The set is an LRU ring: once full, the oldest
        keys are evicted, keeping memory bounded over arbitrarily long bridged
        runs while still deduplicating any realistically-delayed forward.
    """

    def __init__(
        self,
        name: str = "broker",
        network: Optional[NetworkModel] = None,
        clock: Optional[object] = None,
        max_payload_bytes: int = 256 * 1024 * 1024,
        max_offline_queue: int = 10_000,
        max_bridge_dedup: int = 50_000,
    ) -> None:
        self.name = name
        self.network = network
        self.clock = clock
        self.max_payload_bytes = int(require_positive(max_payload_bytes, "max_payload_bytes"))
        self.max_offline_queue = int(require_positive(max_offline_queue, "max_offline_queue"))
        self.max_bridge_dedup = int(require_positive(max_bridge_dedup, "max_bridge_dedup"))

        self._sessions: Dict[str, _ClientSession] = {}
        # The routing plan below memoizes full fan-out resolution per topic,
        # so the trie's own match cache would only ever be filled on plan
        # misses and re-read never — disable it rather than carry two caches
        # with duplicated invalidation.
        self._subscriptions: TopicTrie[Tuple[str, QoS]] = TopicTrie(match_cache_size=0)
        # Memoized routing plans: concrete topic -> _RoutePlan wrapping
        # [(client_id, granted QoS, matched filter)], sorted by client id.
        # Fan-out resolves the subscriber set, the per-client max-QoS collapse
        # and the matched filter once per topic between subscription changes
        # instead of once per publish (LRU-bounded like the trie's match
        # cache); the plan object also carries the vectorized-path caches.
        self._route_cache: "OrderedDict[str, _RoutePlan]" = OrderedDict()
        self._route_cache_size = 4096
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        self._retained: Dict[str, MQTTMessage] = {}
        self._bridges: List["BrokerBridge"] = []
        # LRU-ordered dedup keys; values are unused (OrderedDict as ring set).
        self._seen_bridge_messages: "OrderedDict[Tuple[str, int], None]" = OrderedDict()
        self._next_message_id = 1
        self._next_sequence = 1
        #: Bumped on every connect/disconnect.  Plans cache their verified
        #: delivery-target lists against it, and in-flight fan-out batches use
        #: it to skip the per-member connected check when no session changed
        #: between routing and delivery.
        self._session_epoch = 0
        self.scheduler: Optional["EventScheduler"] = None
        self.stats = BrokerStats()
        self.traffic = TrafficLog()

    # ------------------------------------------------------------------ time

    def now(self) -> float:
        """Current simulated time (0.0 when no clock is attached)."""
        if self.clock is None:
            return 0.0
        return float(self.clock.now())

    # ----------------------------------------------------------- connections

    def connect(
        self,
        target: DeliveryTarget,
        clean_session: bool = True,
        will: Optional[MQTTMessage] = None,
    ) -> bool:
        """Attach a client to the broker.

        Returns ``True`` if a persistent session was resumed, ``False`` for a
        fresh session.  Raises :class:`ClientIdInUseError` if another live
        client already uses the id (mirrors broker takeover semantics being
        disabled).
        """
        client_id = target.client_id
        session = self._sessions.get(client_id)
        if session is not None and session.connected:
            raise ClientIdInUseError(f"client id {client_id!r} is already connected")

        resumed = False
        if session is None or clean_session or session.clean_session:
            if session is not None:
                # _drop_subscriptions invalidates the route cache; a brand-new
                # client has no subscriptions yet, so nothing to invalidate.
                self._drop_subscriptions(session)
            session = _ClientSession(client_id=client_id, clean_session=clean_session)
            self._sessions[client_id] = session
        else:
            resumed = True

        session.connected = True
        session.clean_session = clean_session
        session.target = target
        session.will = will
        self._session_epoch += 1
        self.stats.connects += 1

        if resumed:
            for topic_filter, qos in session.subscriptions.items():
                self._subscriptions.insert(topic_filter, (client_id, qos))
            pending, session.offline_queue = session.offline_queue, []
            for record in pending:
                self._hand_over(session, record)
        return resumed

    def disconnect(self, client_id: str, unexpected: bool = False) -> None:
        """Detach a client.

        With ``unexpected=True`` the broker publishes the client's last-will
        message (if any), mirroring a keep-alive timeout on a real broker.
        """
        session = self._sessions.get(client_id)
        if session is None or not session.connected:
            return
        will = session.will
        session.connected = False
        session.target = None
        session.will = None
        self._session_epoch += 1
        self.stats.disconnects += 1
        if session.clean_session:
            self._drop_subscriptions(session)
            del self._sessions[client_id]
        if unexpected and will is not None:
            self.publish(will)

    def _drop_subscriptions(self, session: _ClientSession) -> None:
        for topic_filter, qos in session.subscriptions.items():
            self._subscriptions.remove(topic_filter, (session.client_id, qos))
            self._invalidate_routes(topic_filter)
        session.subscriptions.clear()

    def is_connected(self, client_id: str) -> bool:
        """Whether a client id currently has a live connection."""
        session = self._sessions.get(client_id)
        return session is not None and session.connected

    @property
    def connected_clients(self) -> List[str]:
        """Ids of currently connected clients (sorted for determinism)."""
        return sorted(cid for cid, s in self._sessions.items() if s.connected)

    # --------------------------------------------------------- subscriptions

    def subscribe(self, client_id: str, topic_filter: str, qos: QoS | int = QoS.AT_MOST_ONCE) -> QoS:
        """Subscribe ``client_id`` to ``topic_filter``; returns the granted QoS.

        Retained messages matching the filter are delivered immediately, as per
        the MQTT specification.
        """
        session = self._require_session(client_id)
        qos = QoS.coerce(qos)
        validate_topic_filter(topic_filter)
        previous = session.subscriptions.get(topic_filter)
        if previous is not None and previous != qos:
            self._subscriptions.remove(topic_filter, (client_id, previous))
        session.subscriptions[topic_filter] = qos
        self._subscriptions.insert(topic_filter, (client_id, qos))
        self._invalidate_routes(topic_filter)

        # Retained message replay.
        for topic, message in self._retained.items():
            if topic_matches_filter(topic, topic_filter):
                record = self._make_delivery(message, client_id, topic_filter, qos, retained_replay=True)
                if record is not None:
                    self._hand_over(session, record)
        return qos

    def unsubscribe(self, client_id: str, topic_filter: str) -> bool:
        """Remove a subscription; returns True if it existed."""
        session = self._require_session(client_id)
        qos = session.subscriptions.pop(topic_filter, None)
        if qos is None:
            return False
        self._subscriptions.remove(topic_filter, (client_id, qos))
        self._invalidate_routes(topic_filter)
        return True

    def subscriptions_of(self, client_id: str) -> Dict[str, QoS]:
        """Return a copy of the client's current subscription map."""
        session = self._sessions.get(client_id)
        if session is None:
            return {}
        return dict(session.subscriptions)

    def subscriber_count(self, topic: str) -> int:
        """Number of distinct clients whose filters match a concrete topic."""
        return len({cid for cid, _ in self._subscriptions.match(topic)})

    def _require_session(self, client_id: str) -> _ClientSession:
        session = self._sessions.get(client_id)
        if session is None:
            raise KeyError(f"unknown client id {client_id!r}; connect first")
        return session

    # ---------------------------------------------------------------- publish

    def publish(
        self, message: MQTTMessage, _from_bridge: bool = False
    ) -> Sequence[DeliveryRecord]:
        """Route a message to all matching subscribers.

        Returns a sequence of the delivery records created (one per receiving
        client), which tests and the simulation layer use to reason about
        fan-out and delay.  On the vectorized broadcast path the sequence is
        lazy (:class:`_FanoutDeliveries`) — records materialize only if the
        caller actually looks at them.
        """
        validate_topic(message.topic)
        size = message.size_bytes
        if size > self.max_payload_bytes:
            raise PayloadTooLargeError(
                f"payload of {size} bytes exceeds broker limit "
                f"of {self.max_payload_bytes} bytes"
            )

        if message.origin_broker is None:
            message.origin_broker = self.name
        if message.message_id < 0:
            message.message_id = self._next_message_id
            self._next_message_id += 1
        if message.timestamp == 0.0:
            message.timestamp = self.now()

        key = (message.origin_broker, message.message_id)
        if _from_bridge:
            if key in self._seen_bridge_messages:
                return []
            self.stats.bridged_in += 1
        self._remember_bridge_key(key)

        self.stats.messages_published += 1
        self.stats.bytes_published += size

        if message.retain:
            if size == 0:
                self._retained.pop(message.topic, None)
            else:
                # Shallow copy: the retained record shares the (immutable)
                # payload buffer with the in-flight message.
                self._retained[message.topic] = message.copy()
            self.stats.retained_messages = len(self._retained)

        # The sender-side half of the delivery delay (uplink + broker
        # processing) is identical for every subscriber of this publish, so
        # compute it once per fan-out.  Only safe when the sender link is
        # jitter-free: jitter draws from the shared RNG per call, and the
        # draw order is part of the determinism contract.
        network = self.network
        base_time: Optional[float] = None
        if network is not None:
            sender_link = network.link_for(message.sender_id)
            if sender_link.jitter_s == 0.0:
                base_time = sender_link.transfer_time(size) + network.broker_processing_time(size)

        plan = self._route_plan(message.topic)
        sender_id = message.sender_id if self._suppress_echo else None
        if self.scheduler is not None and len(plan.entries) >= _VECTOR_MIN_FANOUT:
            fast = self._publish_vector(message, plan, sender_id, size, base_time)
            if fast is not None:
                for bridge in self._bridges:
                    forwarded = bridge.on_local_publish(self, message)
                    if forwarded:
                        self.stats.bridged_out += forwarded
                return fast

        deliveries: List[DeliveryRecord] = []
        sessions = self._sessions
        for client_id, sub_qos, matched_filter in plan.entries:
            if client_id == sender_id:
                continue
            session = sessions.get(client_id)
            if session is None:
                continue
            record = self._make_delivery(
                message, client_id, matched_filter, sub_qos, size=size, base_time=base_time
            )
            if record is None:
                continue
            deliveries.append(record)
            if session.connected and session.target is not None:
                self._hand_over(session, record)
            elif not session.clean_session and record.effective_qos > QoS.AT_MOST_ONCE:
                if len(session.offline_queue) < self.max_offline_queue:
                    session.offline_queue.append(record)
                    self.stats.messages_queued_offline += 1
                else:
                    self.stats.messages_dropped += 1
            else:
                self.stats.messages_dropped += 1

        for bridge in self._bridges:
            forwarded = bridge.on_local_publish(self, message)
            if forwarded:
                self.stats.bridged_out += forwarded

        return deliveries

    def _publish_vector(
        self,
        message: MQTTMessage,
        plan: _RoutePlan,
        sender_id: Optional[str],
        size: int,
        base_time: Optional[float],
    ) -> Optional[_FanoutDeliveries]:
        """Route one broadcast fan-out as a single vectorized batch.

        Returns ``None`` when the fan-out cannot take the fast path, in which
        case the caller runs the scalar loop with **no state consumed** —
        every guard below is checked before the first side effect.  The path
        is safe only when it is bit-for-bit and draw-for-draw equivalent to
        the scalar loop:

        * every receiver is connected (no offline-queue / drop branches),
        * the sender-side delay was hoisted (``base_time``) and every receiver
          link is jitter-free — otherwise the scalar loop would consume RNG
          draws whose order is part of the determinism contract,
        * no member can be lossy-dropped (QoS-0 members only on loss-free
          links) — same RNG argument, plus drops would perforate the
          consecutive sequence-number block the batch reserves.

        The per-member delay math performs the exact same float operations in
        the same order as ``LinkProfile.transfer_time`` + the scalar hoist, so
        the resulting ``deliver_at`` values are IEEE-identical.
        """
        if sender_id is not None and plan.position(sender_id) is not None:
            plan = plan.minus_sender(sender_id)
            if plan is None or len(plan.entries) < _VECTOR_MIN_FANOUT:
                return None
        targets = plan.targets(self)
        if targets is None:
            return None
        n = len(plan.entries)
        eqos, has_qos0, handshakes = plan.effective_qos(message.qos)
        network = self.network
        timestamp = message.timestamp
        if network is None:
            transfer_times: List[float] = [0.0] * n
            deliver_at = np.full(n, timestamp, dtype=np.float64)
        else:
            if base_time is None:
                return None  # jittery sender link: per-member RNG draws
            latency, bandwidth, jitter_free, loss_free = plan.link_vectors(network)
            if not jitter_free:
                return None
            if has_qos0 and not loss_free:
                return None
            # Same op order per element as transfer_time + the publish hoist:
            # downlink = latency + size/bandwidth; deliver_at =
            # timestamp + (base_time + downlink).
            downlink = latency + (size + PACKET_OVERHEAD_BYTES) / bandwidth
            transfer = base_time + downlink
            deliver_at = timestamp + transfer
            transfer_times = transfer.tolist()

        seq0 = self._next_sequence
        self._next_sequence = seq0 + n
        stats = self.stats
        stats.messages_delivered += n
        stats.bytes_delivered += size * n
        traffic = self.traffic
        sender_idx_t, topic_idx_t, receiver_idx_t = plan.traffic_ids(
            traffic, message.topic, message.sender_id
        )
        traffic.add_batch(
            topic=message.topic,
            sender_id=message.sender_id or "?",
            receiver_ids=plan.receiver_ids,
            receiver_idx=receiver_idx_t,
            sender_idx=sender_idx_t,
            topic_idx=topic_idx_t,
            payload_bytes=size,
            qos=eqos,
            transfer_times=transfer_times,
            handshake_packets=handshakes,
            timestamp=timestamp,
            broker=self.name,
        )
        scheduler = self.scheduler
        sender_idx, pair_ids, receiver_idx = plan.fifo_ids(scheduler, message.sender_id)
        effective, unclamped = scheduler.schedule_batch(
            self,
            message,
            targets,
            plan.filters,
            pair_ids,
            receiver_idx,
            eqos,
            deliver_at,
            seq0,
            sender_idx,
            self._session_epoch,
        )
        return _FanoutDeliveries(message, plan.entries, eqos, effective, unclamped, seq0)

    def _invalidate_routes(self, topic_filter: str) -> None:
        """Drop cached route plans whose topic the changed filter matches.

        A subscription change to ``sessions/+/ack`` can only alter the
        fan-out of topics that filter matches, so only those cache entries
        are discarded; every other hot topic keeps its plan (mid-round
        admission at flash-crowd scale previously re-missed the entire
        cache on each join — ``route_cache_hits``/``misses`` make the
        difference observable in the throughput bench).
        """
        stale = [
            topic for topic in self._route_cache if topic_matches_filter(topic, topic_filter)
        ]
        for topic in stale:
            del self._route_cache[topic]

    def _route_plan(self, topic: str) -> _RoutePlan:
        """The memoized fan-out plan for a concrete topic.

        A client holding several overlapping filters that match this topic
        appears once per distinct granted QoS in the trie; the plan keeps
        exactly one entry per client, at the maximum granted QoS (MQTT 3.1.1
        §3.3.5 allows either behaviour — once-per-client is what SDFLMQ's
        choreography assumes), together with the filter that matched (for
        callback routing).  Entries are sorted by client id for determinism.
        """
        plan = self._route_cache.get(topic)
        if plan is not None:
            self.route_cache_hits += 1
            self._route_cache.move_to_end(topic)
            return plan
        self.route_cache_misses += 1
        best_qos: Dict[str, QoS] = {}
        for client_id, sub_qos in self._subscriptions.match(topic):
            granted = best_qos.get(client_id)
            if granted is None or sub_qos > granted:
                best_qos[client_id] = sub_qos
        entries: List[Tuple[str, QoS, str]] = []
        for client_id in sorted(best_qos):
            sub_qos = best_qos[client_id]
            session = self._sessions.get(client_id)
            matched_filter = (
                self._matched_filter(session, topic, sub_qos) if session is not None else topic
            )
            entries.append((client_id, sub_qos, matched_filter))
        plan = _RoutePlan(entries)
        self._route_cache[topic] = plan
        if len(self._route_cache) > self._route_cache_size:
            self._route_cache.popitem(last=False)
        return plan

    #: When True (default), a publisher does not receive its own messages even
    #: if one of its subscriptions matches.  Real MQTT *does* echo messages
    #: back; SDFLMQ's topic scheme never requires the echo and suppressing it
    #: halves the traffic on the shared session topics, so it is the default.
    _suppress_echo = True

    def _matched_filter(self, session: _ClientSession, topic: str, qos: QoS) -> str:
        for topic_filter, sub_qos in session.subscriptions.items():
            if sub_qos == qos and topic_matches_filter(topic, topic_filter):
                return topic_filter
        for topic_filter in session.subscriptions:
            if topic_matches_filter(topic, topic_filter):
                return topic_filter
        return topic

    def _make_delivery(
        self,
        message: MQTTMessage,
        client_id: str,
        topic_filter: str,
        sub_qos: QoS,
        retained_replay: bool = False,
        size: Optional[int] = None,
        base_time: Optional[float] = None,
    ) -> Optional[DeliveryRecord]:
        """Build one delivery record (and its traffic entry) for a subscriber.

        ``size`` and ``base_time`` are fan-out hoists from :meth:`publish`:
        the payload size and the sender-side delay half (uplink + broker
        processing) are per-publish constants, so the fast path passes them
        in instead of recomputing per subscriber.
        """
        # min() of two QoS members without re-entering the enum constructor.
        qos = message.qos
        effective_qos = qos if qos <= sub_qos else sub_qos
        network = self.network
        if size is None:
            size = message.size_bytes
        if network is not None and network.should_drop(client_id, int(effective_qos)):
            self.stats.messages_dropped += 1
            return None

        transfer_time = 0.0
        if network is not None:
            if base_time is not None:
                # Same float-addition order as end_to_end_time:
                # (uplink + processing) + downlink.
                transfer_time = base_time + network.downlink_time(client_id, size)
            else:
                transfer_time = network.end_to_end_time(message.sender_id, client_id, size)
        deliver_at = (message.timestamp if not retained_replay else self.now()) + transfer_time
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        record = DeliveryRecord(
            message=message,
            subscriber_id=client_id,
            subscription_filter=topic_filter,
            effective_qos=effective_qos,
            deliver_at=deliver_at,
            sequence=sequence,
        )
        self.traffic.add(
            TrafficRecord(
                topic=message.topic,
                sender_id=message.sender_id or "?",
                receiver_id=client_id,
                payload_bytes=size,
                qos=int(effective_qos),
                transfer_time_s=transfer_time,
                handshake_packets=QOS_HANDSHAKE_PACKETS[effective_qos],
                timestamp=message.timestamp,
                broker=self.name,
            )
        )
        return record

    def _remember_bridge_key(self, key: Tuple[str, int]) -> None:
        seen = self._seen_bridge_messages
        if key in seen:
            seen.move_to_end(key)
            return
        seen[key] = None
        while len(seen) > self.max_bridge_dedup:
            seen.popitem(last=False)

    def requeue_offline(self, record: DeliveryRecord) -> bool:
        """Park an undeliverable in-flight record in the subscriber's offline queue.

        Called by the event scheduler when a delivery comes due after its
        target disconnected.  Only persistent (non-clean) sessions with
        QoS > 0 records qualify — exactly the records a real broker would
        retransmit on session resumption.  Returns True if the record was
        queued.
        """
        session = self._sessions.get(record.subscriber_id)
        if (
            session is None
            or session.connected
            or session.clean_session
            or record.effective_qos <= QoS.AT_MOST_ONCE
        ):
            return False
        if len(session.offline_queue) >= self.max_offline_queue:
            self.stats.messages_dropped += 1
            return False
        session.offline_queue.append(record)
        self.stats.messages_queued_offline += 1
        return True

    def attach_scheduler(self, scheduler: Optional["EventScheduler"]) -> None:
        """Route deliveries through ``scheduler`` (``None`` restores inboxes).

        With a scheduler attached, :meth:`_hand_over` enqueues each record in
        the scheduler's time-ordered heap instead of the subscriber's inbox,
        so the whole deployment is driven in ``deliver_at`` order.
        """
        self.scheduler = scheduler

    def _hand_over(self, session: _ClientSession, record: DeliveryRecord) -> None:
        assert session.target is not None
        stats = self.stats
        stats.messages_delivered += 1
        stats.bytes_delivered += record.message.size_bytes
        if self.scheduler is not None:
            self.scheduler.schedule(session.target, record)
        else:
            session.target._deliver(record)

    # --------------------------------------------------------------- retained

    def retained_message(self, topic: str) -> Optional[MQTTMessage]:
        """Return the retained message for a concrete topic, if any."""
        return self._retained.get(topic)

    @property
    def retained_topics(self) -> List[str]:
        """Topics that currently hold a retained message (sorted)."""
        return sorted(self._retained)

    # ---------------------------------------------------------------- bridges

    def attach_bridge(self, bridge: "BrokerBridge") -> None:
        """Register a bridge; called by :class:`BrokerBridge` itself."""
        if bridge not in self._bridges:
            self._bridges.append(bridge)

    def detach_bridge(self, bridge: "BrokerBridge") -> None:
        """Unregister a bridge."""
        if bridge in self._bridges:
            self._bridges.remove(bridge)

    @property
    def bridges(self) -> List["BrokerBridge"]:
        """Bridges currently attached to this broker."""
        return list(self._bridges)

    # ------------------------------------------------------------------ misc

    def reset_stats(self) -> None:
        """Zero the counters and the traffic log (subscriptions are kept).

        Cache hit/miss counters are included: they used to survive
        ``reset_stats`` (and broker reuse across scenarios), drifting the
        exported cache-efficiency numbers.  The caches themselves keep their
        contents — only the accounting restarts.
        """
        self.stats = BrokerStats()
        self.stats.retained_messages = len(self._retained)
        self.traffic.clear()
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        self._subscriptions.match_cache_hits = 0
        self._subscriptions.match_cache_misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MQTTBroker(name={self.name!r}, clients={len(self.connected_clients)}, "
            f"subscriptions={len(self._subscriptions)})"
        )
