"""Broker bridging (paper §III.F).

MQTT broker bridging lets several brokers share (a subset of) their topic
space so that clients connected to different regional brokers can still reach
each other.  SDFLMQ uses this to regionalize clusters: each region gets its
own broker, trainers publish to their local broker, and bridges forward
cluster-head / coordinator traffic between regions.

A :class:`BrokerBridge` connects exactly two brokers with a list of
:class:`BridgeRule` entries.  Each rule names a topic filter and a direction
(``in``, ``out`` or ``both``, from the perspective of the *local* broker —
matching Mosquitto's bridge configuration language).  Loop prevention relies
on the brokers' ``(origin_broker, message_id)`` dedup combined with bridges
never re-forwarding a message back to its origin broker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal

from repro.mqtt.broker import MQTTBroker
from repro.mqtt.messages import MQTTMessage
from repro.mqtt.topics import topic_matches_filter, validate_topic_filter

__all__ = ["BridgeRule", "BrokerBridge"]

Direction = Literal["in", "out", "both"]


@dataclass(frozen=True)
class BridgeRule:
    """One forwarding rule of a bridge.

    Attributes
    ----------
    topic_filter:
        MQTT filter selecting which topics the rule applies to.
    direction:
        ``out`` forwards local→remote, ``in`` forwards remote→local, ``both``
        forwards in both directions.
    """

    topic_filter: str
    direction: Direction = "both"

    def __post_init__(self) -> None:
        validate_topic_filter(self.topic_filter)
        if self.direction not in ("in", "out", "both"):
            raise ValueError(f"direction must be 'in', 'out' or 'both', got {self.direction!r}")


class BrokerBridge:
    """A bidirectional bridge between a *local* and a *remote* broker."""

    def __init__(
        self,
        local: MQTTBroker,
        remote: MQTTBroker,
        rules: List[BridgeRule] | None = None,
        name: str | None = None,
    ) -> None:
        if local is remote:
            raise ValueError("cannot bridge a broker to itself")
        self.local = local
        self.remote = remote
        self.rules: List[BridgeRule] = list(rules) if rules else [BridgeRule("#", "both")]
        self.name = name or f"bridge[{local.name}<->{remote.name}]"
        self.forwarded_local_to_remote = 0
        self.forwarded_remote_to_local = 0
        local.attach_bridge(self)
        remote.attach_bridge(self)

    def close(self) -> None:
        """Detach the bridge from both brokers."""
        self.local.detach_bridge(self)
        self.remote.detach_bridge(self)

    def _should_forward(self, topic: str, outbound_from_local: bool) -> bool:
        for rule in self.rules:
            if not topic_matches_filter(topic, rule.topic_filter):
                continue
            if rule.direction == "both":
                return True
            if outbound_from_local and rule.direction == "out":
                return True
            if not outbound_from_local and rule.direction == "in":
                return True
        return False

    def on_local_publish(self, source: MQTTBroker, message: MQTTMessage) -> int:
        """Called by a broker after it routed ``message`` locally.

        Forwards the message to the other end if a rule matches.  Returns the
        number of brokers the message was forwarded to (0 or 1).
        """
        if source is self.local:
            target, outbound = self.remote, True
        elif source is self.remote:
            target, outbound = self.local, False
        else:  # pragma: no cover - defensive
            return 0
        if message.origin_broker == target.name:
            return 0
        if not self._should_forward(message.topic, outbound):
            return 0
        target.publish(message.copy() if message.retain else message, _from_bridge=True)
        if outbound:
            self.forwarded_local_to_remote += 1
        else:
            self.forwarded_remote_to_local += 1
        return 1

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"BrokerBridge({self.local.name!r} <-> {self.remote.name!r}, rules={len(self.rules)})"
