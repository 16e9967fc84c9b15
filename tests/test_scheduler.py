"""Tests for the event-driven delivery scheduler.

Covers the heap ordering contract (``(deliver_at, sequence)`` with a
deterministic tiebreak), clock advancement, timed actions and churn events,
the broker scheduling path, and end-to-end determinism: the same seed and the
same scenario must produce the identical delivery order and final model
state across two runs — including under scheduled churn.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqtt.messages import MQTTMessage, QoS
from repro.mqtt.network import LinkProfile, NetworkModel
from repro.runtime.experiment import ExperimentConfig, FLExperiment
from repro.runtime.scheduler import EventScheduler
from repro.sim.clock import SimulationClock
from repro.sim.events import ChurnSchedule, EventLog


def _timed_broker(latencies):
    """Broker + scheduler where client ``c{i}`` has the i-th latency."""
    clock = SimulationClock()
    network = NetworkModel(seed=0)
    for index, latency in enumerate(latencies):
        network.set_link(f"c{index}", LinkProfile(latency_s=latency, bandwidth_bps=1e9))
    broker = MQTTBroker("timed", network=network, clock=clock)
    scheduler = EventScheduler(clock=clock)
    scheduler.attach_broker(broker)
    return broker, scheduler, clock


class TestEventOrdering:
    def test_drains_in_deliver_at_order_not_registration_order(self):
        # Registration order c0..c2, but link latencies are reversed, so the
        # arrival (and callback) order must be c2, c1, c0.
        broker, scheduler, clock = _timed_broker([0.300, 0.200, 0.100])
        order = []
        for index in range(3):
            client = MQTTClient(f"c{index}")
            client.connect(broker)
            client.subscribe("bus")
            client.on_message = lambda _c, _m, cid=f"c{index}": order.append(cid)
            scheduler.register(client)
        publisher = MQTTClient("pub")
        publisher.connect(broker)

        publisher.publish("bus", b"x")
        scheduler.run_until_idle()
        assert order == ["c2", "c1", "c0"]

    def test_equal_times_tiebreak_by_sequence(self):
        # Identical links → identical deliver_at; the per-delivery sequence
        # (assigned in routing order) must break the tie deterministically.
        broker, scheduler, clock = _timed_broker([0.1, 0.1, 0.1])
        order = []
        for index in range(3):
            client = MQTTClient(f"c{index}")
            client.connect(broker)
            client.subscribe("bus")
            client.on_message = lambda _c, _m, cid=f"c{index}": order.append(cid)
            scheduler.register(client)
        publisher = MQTTClient("pub")
        publisher.connect(broker)

        publisher.publish("bus", b"x")
        publisher.publish("bus", b"y")
        scheduler.run_until_idle()
        # Routing iterates clients in sorted order per publish.
        assert order == ["c0", "c1", "c2", "c0", "c1", "c2"]

    def test_clock_advances_to_last_delivery(self):
        broker, scheduler, clock = _timed_broker([0.050])
        client = MQTTClient("c0")
        client.connect(broker)
        client.subscribe("bus")
        scheduler.register(client)
        publisher = MQTTClient("pub")
        publisher.connect(broker)

        records = []
        client.on_message = lambda _c, m: records.append(clock.now())
        publisher.publish("bus", b"x")
        scheduler.run_until_idle()
        assert clock.now() == pytest.approx(records[-1])
        assert clock.now() > 0.05  # at least the one-way latency

    def test_interleaves_messages_from_multiple_brokers(self):
        clock = SimulationClock()
        slow_net = NetworkModel(default_link=LinkProfile(latency_s=0.5, bandwidth_bps=1e9))
        fast_net = NetworkModel(default_link=LinkProfile(latency_s=0.001, bandwidth_bps=1e9))
        slow_broker = MQTTBroker("slow", network=slow_net, clock=clock)
        fast_broker = MQTTBroker("fast", network=fast_net, clock=clock)
        scheduler = EventScheduler(clock=clock)
        scheduler.attach_broker(slow_broker)
        scheduler.attach_broker(fast_broker)
        assert set(scheduler.brokers) == {slow_broker, fast_broker}

        order = []
        for name, broker in (("s", slow_broker), ("f", fast_broker)):
            client = MQTTClient(f"sub_{name}")
            client.connect(broker)
            client.subscribe("bus")
            client.on_message = lambda _c, _m, tag=name: order.append(tag)
            scheduler.register(client)
        pub_slow = MQTTClient("pub_s")
        pub_slow.connect(slow_broker)
        pub_fast = MQTTClient("pub_f")
        pub_fast.connect(fast_broker)

        pub_slow.publish("bus", b"x")  # published first, arrives second
        pub_fast.publish("bus", b"y")
        scheduler.run_until_idle()
        assert order == ["f", "s"]

    def test_detach_broker_restores_inbox_delivery(self):
        broker, scheduler, clock = _timed_broker([0.1])
        client = MQTTClient("c0")
        client.connect(broker)
        client.subscribe("bus")
        publisher = MQTTClient("pub")
        publisher.connect(broker)

        scheduler.detach_broker(broker)
        assert broker.scheduler is None
        publisher.publish("bus", b"x")
        assert client.pending_messages == 1


class TestTimedExecution:
    def test_run_until_time_holds_future_events(self):
        broker, scheduler, clock = _timed_broker([5.0])
        client = MQTTClient("c0")
        client.connect(broker)
        client.subscribe("bus")
        got = []
        client.on_message = lambda _c, m: got.append(m.payload)
        scheduler.register(client)
        publisher = MQTTClient("pub")
        publisher.connect(broker)

        publisher.publish("bus", b"later")
        scheduler.run_until_time(1.0)
        assert got == [] and clock.now() == 1.0
        assert scheduler.next_event_time() > 1.0
        scheduler.run_until_time(10.0)
        assert got == [b"later"] and clock.now() == 10.0

    def test_actions_fire_before_deliveries_at_same_instant(self):
        scheduler = EventScheduler(clock=SimulationClock())
        trace = []
        broker = MQTTBroker("b", network=NetworkModel(default_link=LinkProfile(latency_s=1.0)), clock=scheduler.clock)
        scheduler.attach_broker(broker)
        client = MQTTClient("c0")
        client.connect(broker)
        client.subscribe("bus")
        client.on_message = lambda _c, m: trace.append("delivery")
        scheduler.register(client)
        publisher = MQTTClient("pub")
        publisher.connect(broker)

        publisher.publish("bus", b"x")
        deliver_at = scheduler.next_event_time()
        scheduler.call_at(deliver_at, lambda: trace.append("action"))
        scheduler.run_until_idle()
        assert trace == ["action", "delivery"]

    def test_recurring_actions_advance_time(self):
        clock = SimulationClock()
        scheduler = EventScheduler(clock=clock)
        ticks = []

        def tick():
            ticks.append(clock.now())
            if len(ticks) < 5:
                scheduler.call_at(clock.now() + 1.0, tick)

        scheduler.call_at(1.0, tick)
        scheduler.run_until_time(10.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert clock.now() == 10.0
        assert scheduler.actions_fired == 5

    def test_run_until_time_loop_guard(self):
        scheduler = EventScheduler(max_sweeps=10)

        def rearm():
            scheduler.call_at(0.0, rearm)

        scheduler.call_at(0.0, rearm)
        with pytest.raises(RuntimeError, match="without the clock advancing"):
            scheduler.run_until_time(1.0)

    def test_run_until_time_allows_many_events_when_time_advances(self):
        # The loop guard must only trip on zero-delay loops, not on a healthy
        # horizon containing more events than max_sweeps.
        clock = SimulationClock()
        scheduler = EventScheduler(clock=clock, max_sweeps=10)
        fired = []

        def tick():
            fired.append(clock.now())
            if len(fired) < 50:  # 5x the guard, each at a new instant
                scheduler.call_at(clock.now() + 0.1, tick)

        scheduler.call_at(0.1, tick)
        scheduler.run_until_time(100.0)
        assert len(fired) == 50


class TestCollectionPath:
    def test_records_already_in_inboxes_are_collected_in_time_order(self):
        # No scheduler attached to the broker: records land in inboxes with
        # their deliver_at stamped; the scheduler must still drain them in
        # time order once the clients are registered.
        clock = SimulationClock()
        network = NetworkModel(seed=0)
        network.set_link("c0", LinkProfile(latency_s=0.9, bandwidth_bps=1e9))
        network.set_link("c1", LinkProfile(latency_s=0.1, bandwidth_bps=1e9))
        broker = MQTTBroker("plain", network=network, clock=clock)
        order = []
        clients = []
        for index in range(2):
            client = MQTTClient(f"c{index}")
            client.connect(broker)
            client.subscribe("bus")
            client.on_message = lambda _c, _m, cid=f"c{index}": order.append(cid)
            clients.append(client)
        publisher = MQTTClient("pub")
        publisher.connect(broker)
        publisher.publish("bus", b"x")
        assert all(c.pending_messages == 1 for c in clients)

        scheduler = EventScheduler(clients, clock=clock)
        scheduler.run_until_idle()
        assert order == ["c1", "c0"]
        assert all(c.pending_messages == 0 for c in clients)


class TestChurnDeterminism:
    @staticmethod
    def _run_churn_scenario(seed: int):
        """A jittered, churning 6-client scenario; returns the delivery trace."""
        clock = SimulationClock()
        network = NetworkModel(seed=seed)
        for index in range(6):
            network.set_link(
                f"c{index}",
                LinkProfile(latency_s=0.001 * (index + 1), bandwidth_bps=1e6, jitter_s=0.004),
            )
        broker = MQTTBroker("churny", network=network, clock=clock)
        scheduler = EventScheduler(clock=clock)
        scheduler.attach_broker(broker)
        event_log = EventLog()

        trace = []
        clients = {}
        for index in range(6):
            client = MQTTClient(f"c{index}", clean_session=False)
            client.connect(broker)
            client.subscribe("bus/#", QoS.AT_LEAST_ONCE)
            client.on_message = lambda _c, m, cid=f"c{index}": trace.append(
                (cid, m.topic, round(clock.now(), 9))
            )
            scheduler.register(client)
            clients[client.client_id] = client
        publisher = MQTTClient("pub")
        publisher.connect(broker)

        plan = ChurnSchedule()
        plan.leave(0.050, "c2", detail="power loss")
        plan.leave(0.080, "c4")
        plan.reconnect(0.200, "c2")
        plan.bind(
            scheduler,
            {
                "leave": lambda e: clients[e.client_id].disconnect(unexpected=True),
                "reconnect": lambda e: clients[e.client_id].connect(broker),
            },
            event_log=event_log,
        )

        for burst in range(10):
            scheduler.call_at(
                0.030 * burst,
                lambda burst=burst: publisher.publish(f"bus/{burst}", b"x", qos=QoS.AT_LEAST_ONCE),
            )
        scheduler.run_until_time(1.0)
        return trace, event_log.kinds()

    def test_same_seed_same_delivery_order_under_churn(self):
        first_trace, first_kinds = self._run_churn_scenario(seed=5)
        second_trace, second_kinds = self._run_churn_scenario(seed=5)
        assert first_trace == second_trace
        assert first_kinds == second_kinds
        assert first_kinds["churn_leave"] == 2 and first_kinds["churn_reconnect"] == 1
        # The churn actually bit: c2 misses bursts while offline yet catches
        # up via its persistent session after reconnecting.
        assert any(cid == "c2" and t > 0.2 for cid, _topic, t in first_trace)

    def test_different_seed_changes_arrival_times(self):
        first_trace, _ = self._run_churn_scenario(seed=5)
        other_trace, _ = self._run_churn_scenario(seed=6)
        assert first_trace != other_trace

    def test_experiment_runs_event_driven_and_is_deterministic(self):
        config = ExperimentConfig(
            num_clients=4, fl_rounds=2, local_epochs=1, dataset_samples=600,
            client_data_fraction=0.05, train_for_real=False, seed=3,
        )

        def run_once():
            experiment = FLExperiment(config)
            result = experiment.run()
            reference = experiment.client_models[experiment.clients[0].client_id]
            return experiment, result, reference.state_dict()

        experiment_a, result_a, state_a = run_once()
        experiment_b, result_b, state_b = run_once()

        # The experiment really ran through the scheduler path.
        assert all(b.scheduler is experiment_a.scheduler for b in experiment_a.brokers)
        assert experiment_a.scheduler.events_processed > 0
        assert experiment_a.clock.now() > sum(r.delay.total_s for r in result_a.rounds)
        assert all(r.delay.messaging_s >= 0.0 for r in result_a.rounds)

        # Same seed + same scenario ⇒ identical metrics AND final model state.
        assert result_a.accuracies == result_b.accuracies
        assert result_a.round_delays == result_b.round_delays
        assert result_a.total_traffic_bytes == result_b.total_traffic_bytes
        assert set(state_a) == set(state_b)
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key])


class TestDisconnectedDeliveries:
    """Deliveries whose target disconnected before their ``deliver_at``."""

    def test_clean_session_delivery_is_dropped(self):
        broker, scheduler, clock = _timed_broker([0.100])
        client = MQTTClient("c0")
        client.connect(broker)
        client.subscribe("bus")
        received = []
        client.on_message = lambda _c, m: received.append(m.payload)
        scheduler.register(client)
        publisher = MQTTClient("pub")
        publisher.connect(broker)

        publisher.publish("bus", b"late", qos=QoS.AT_LEAST_ONCE)
        client.disconnect()  # before the 100 ms delivery comes due
        scheduler.run_until_idle()

        assert received == []
        assert scheduler.deliveries_dropped == 1
        assert scheduler.deliveries_requeued == 0

    def test_persistent_session_delivery_requeues_and_replays(self):
        broker, scheduler, clock = _timed_broker([0.100])
        client = MQTTClient("c0", clean_session=False)
        client.connect(broker)
        client.subscribe("bus", QoS.AT_LEAST_ONCE)
        received = []
        client.on_message = lambda _c, m: received.append(bytes(m.payload))
        scheduler.register(client)
        publisher = MQTTClient("pub")
        publisher.connect(broker)

        publisher.publish("bus", b"hold", qos=QoS.AT_LEAST_ONCE)
        client.disconnect()
        scheduler.run_until_idle()
        assert received == []
        assert scheduler.deliveries_requeued == 1

        client.connect(broker)  # persistent session resumes → backlog replays
        scheduler.run_until_idle()
        assert received == [b"hold"]

    def test_qos0_persistent_session_delivery_is_dropped(self):
        broker, scheduler, clock = _timed_broker([0.100])
        client = MQTTClient("c0", clean_session=False)
        client.connect(broker)
        client.subscribe("bus", QoS.AT_MOST_ONCE)
        scheduler.register(client)
        publisher = MQTTClient("pub")
        publisher.connect(broker)

        publisher.publish("bus", b"x")
        client.disconnect()
        scheduler.run_until_idle()
        assert scheduler.deliveries_dropped == 1
        assert scheduler.deliveries_requeued == 0


class TestPerConnectionFifo:
    """A small message must not overtake a big earlier one on the same pair."""

    def _run(self, fifo):
        clock = SimulationClock()
        network = NetworkModel(seed=0)
        # Slow link: a large payload takes much longer than a tiny one.
        network.set_link("sub", LinkProfile(latency_s=0.001, bandwidth_bps=1e4))
        broker = MQTTBroker("fifo", network=network, clock=clock)
        scheduler = EventScheduler(clock=clock, fifo_per_connection=fifo)
        scheduler.attach_broker(broker)
        subscriber = MQTTClient("sub")
        subscriber.connect(broker)
        subscriber.subscribe("bus")
        order = []
        subscriber.on_message = lambda _c, m: order.append(bytes(m.payload))
        scheduler.register(subscriber)
        publisher = MQTTClient("pub")
        publisher.connect(broker)
        publisher.publish("bus", b"L" * 5000)  # ~0.5 s transfer
        publisher.publish("bus", b"s")         # ~1 ms transfer
        scheduler.run_until_idle()
        return order

    def test_fifo_clamp_preserves_send_order(self):
        assert self._run(fifo=True) == [b"L" * 5000, b"s"]

    def test_without_fifo_small_message_overtakes(self):
        assert self._run(fifo=False) == [b"s", b"L" * 5000]

    def test_clamp_applies_per_connection_not_globally(self):
        clock = SimulationClock()
        network = NetworkModel(seed=0)
        network.set_link("slow", LinkProfile(latency_s=0.001, bandwidth_bps=1e4))
        network.set_link("fast", LinkProfile(latency_s=0.001, bandwidth_bps=1e9))
        broker = MQTTBroker("fifo", network=network, clock=clock)
        scheduler = EventScheduler(clock=clock)
        scheduler.attach_broker(broker)
        arrivals = []
        for cid in ("slow", "fast"):
            client = MQTTClient(cid)
            client.connect(broker)
            client.subscribe("bus")
            client.on_message = lambda _c, _m, cid=cid: arrivals.append(cid)
            scheduler.register(client)
        publisher = MQTTClient("pub")
        publisher.connect(broker)
        publisher.publish("bus", b"x" * 5000)
        # The fast subscriber's copy is an independent (sender, receiver)
        # connection, so it must NOT be held back by the slow subscriber's.
        scheduler.run_until_idle()
        assert arrivals == ["fast", "slow"]


class TestRunUntilQuiet:
    def test_drains_deliveries_without_firing_future_actions(self):
        broker, scheduler, clock = _timed_broker([0.010])
        client = MQTTClient("c0")
        client.connect(broker)
        client.subscribe("bus")
        scheduler.register(client)
        publisher = MQTTClient("pub")
        publisher.connect(broker)
        fired = []
        scheduler.call_at(1000.0, lambda: fired.append("future"))

        publisher.publish("bus", b"x")
        processed = scheduler.run_until_quiet()

        assert processed == 1
        assert fired == []
        assert scheduler.pending == 1  # the future action stays queued
        assert clock.now() < 1.0

    def test_fires_actions_due_before_pending_deliveries(self):
        broker, scheduler, clock = _timed_broker([0.500])
        client = MQTTClient("c0")
        client.connect(broker)
        client.subscribe("bus")
        scheduler.register(client)
        publisher = MQTTClient("pub")
        publisher.connect(broker)
        fired = []
        scheduler.call_at(0.100, lambda: fired.append("early"))

        publisher.publish("bus", b"x")  # due at ~0.5 s
        scheduler.run_until_quiet()

        assert fired == ["early"]


class TestStopWhenPredicate:
    def test_run_until_time_stops_early_without_fast_forward(self):
        broker, scheduler, clock = _timed_broker([0.010, 0.020, 0.030])
        seen = []
        for index in range(3):
            client = MQTTClient(f"c{index}")
            client.connect(broker)
            client.subscribe("bus")
            client.on_message = lambda _c, _m, cid=f"c{index}": seen.append(cid)
            scheduler.register(client)
        publisher = MQTTClient("pub")
        publisher.connect(broker)

        publisher.publish("bus", b"x")
        scheduler.run_until_time(10.0, stop_when=lambda: len(seen) >= 2)

        assert seen == ["c0", "c1"]
        assert clock.now() < 0.030  # stopped at c1's delivery, not the deadline
        assert scheduler.pending == 1


class TestCancelDeliveries:
    def test_cancel_by_predicate_removes_only_matches(self):
        broker, scheduler, clock = _timed_broker([0.010, 0.020])
        seen = []
        for index in range(2):
            client = MQTTClient(f"c{index}")
            client.connect(broker)
            client.subscribe("bus")
            client.on_message = lambda _c, _m, cid=f"c{index}": seen.append(cid)
            scheduler.register(client)
        publisher = MQTTClient("pub")
        publisher.connect(broker)

        publisher.publish("bus", b"x")
        cancelled = scheduler.cancel_deliveries(lambda r: r.subscriber_id == "c1")

        assert cancelled == 1
        assert scheduler.deliveries_cancelled == 1
        scheduler.run_until_idle()
        assert seen == ["c0"]


class TestCancelReleasesFifoClamp:
    """Cancelled deliveries must free their per-connection FIFO clamp slot.

    Regression for the lifecycle-RESTART cancellation path: when a round
    restart (or straggler cut-off) cancels an in-flight upload, deliveries
    of the same (sender, receiver) connection that were queued *behind* it —
    and the connection's next-round traffic — must revert to their own
    transfer times instead of staying pushed back behind a message that no
    longer exists.
    """

    def _slow_pair(self):
        clock = SimulationClock()
        network = NetworkModel(seed=0)
        network.set_link("sub", LinkProfile(latency_s=0.001, bandwidth_bps=1e4))
        broker = MQTTBroker("b", network=network, clock=clock)
        scheduler = EventScheduler(clock=clock)
        scheduler.attach_broker(broker)
        subscriber = MQTTClient("sub")
        subscriber.connect(broker)
        subscriber.subscribe("big")
        subscriber.subscribe("small")
        arrivals = []
        subscriber.on_message = lambda _c, m: arrivals.append((m.topic, clock.now()))
        scheduler.register(subscriber)
        publisher = MQTTClient("pub")
        publisher.connect(broker)
        return scheduler, publisher, arrivals

    def test_cancel_unclamps_survivors_and_next_round_traffic(self):
        scheduler, publisher, arrivals = self._slow_pair()
        publisher.publish("big", b"L" * 50_000)  # ~5 s transfer, occupies the wire
        publisher.publish("small", b"s")         # ~ms transfer, clamped behind it

        small = [r for r in scheduler.pending_deliveries() if r.message.topic == "small"][0]
        assert small.deliver_at > 4.0, "test setup: the small message must be clamped"
        assert small.unclamped_deliver_at is not None

        cancelled = scheduler.cancel_deliveries(lambda r: r.message.topic == "big")
        assert cancelled == 1

        # The survivor reverts to its own (unclamped) transfer time ...
        small = scheduler.pending_deliveries()[0]
        assert small.deliver_at < 1.0, "survivor still clamped to a cancelled predecessor"
        # ... and the connection's next delivery is clamped to the *released*
        # tail, not to the cancelled upload's far-future one.
        publisher.publish("small", b"t")
        assert all(r.deliver_at < 1.0 for r in scheduler.pending_deliveries())

        scheduler.run_until_idle()
        assert [topic for topic, _ in arrivals] == ["small", "small"]
        assert all(at < 1.0 for _, at in arrivals)

    def test_reclamp_preserves_fifo_order_among_survivors(self):
        scheduler, publisher, arrivals = self._slow_pair()
        publisher.publish("big", b"L" * 50_000)
        publisher.publish("small", b"m" * 5_000)  # ~0.5 s transfer once unclamped
        publisher.publish("small", b"s")          # ~ms transfer; must stay behind the 0.5 s one

        scheduler.cancel_deliveries(lambda r: r.message.topic == "big")
        records = scheduler.pending_deliveries()
        assert [len(r.message.payload) for r in records] == [5_000, 1]

        scheduler.run_until_idle()
        assert [topic for topic, _ in arrivals] == ["small", "small"]
        arrival_times = [at for _, at in arrivals]
        assert arrival_times == sorted(arrival_times)

    def test_publish_result_is_the_live_pending_record(self):
        # A single delivery's record is stored in the heap as is: the object
        # publish() returned is the one pending_deliveries() yields and the
        # cancel predicate sees, and the re-clamp after a cancel updates it.
        scheduler, publisher, arrivals = self._slow_pair()
        (broker,) = scheduler.brokers
        publisher.publish("big", b"L" * 50_000)
        (mid,) = broker.publish(MQTTMessage(topic="small", payload=b"m" * 5_000, sender_id="pub"))
        (tiny,) = broker.publish(MQTTMessage(topic="small", payload=b"s", sender_id="pub"))
        mid_own, tiny_own = mid.unclamped_deliver_at, tiny.unclamped_deliver_at
        assert mid.deliver_at > 4.0 and tiny.deliver_at == mid.deliver_at, "test setup"
        assert tiny_own < mid_own < 1.0

        seen = []
        scheduler.cancel_deliveries(lambda r: seen.append(r) or r.message.topic == "big")
        assert any(r is mid for r in seen) and any(r is tiny for r in seen)

        pending = scheduler.pending_deliveries()
        assert pending[0] is mid and pending[1] is tiny
        # mid springs back to its own time; tiny is re-clamped behind it.
        assert mid.deliver_at == mid_own and mid.unclamped_deliver_at is None
        assert tiny.deliver_at == mid_own and tiny.unclamped_deliver_at == tiny_own

        scheduler.run_until_idle()
        assert [at for _, at in arrivals] == [mid_own, mid_own]
