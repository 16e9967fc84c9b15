"""Routing throughput of the event-driven scheduler at 1k+ simulated clients.

The seed runtime's round-robin pump swept every client per sweep and re-walked
the subscription trie on every publish.  This benchmark drives the two hot-path
changes of the event-driven runtime together:

* the broker hands every delivery to an :class:`EventScheduler` heap keyed by
  ``(deliver_at, sequence)`` instead of per-client inboxes, and
* the broker memoizes a full *routing plan* per concrete topic (subscriber
  set, per-client max-QoS collapse, matched filter), so fanning the same
  command topic out to 1k+ subscribers resolves routing once, not once per
  publish — and not even once per delivery for the matched-filter lookup
  (the cache-hit counters are asserted below; ``TopicTrie.match`` itself now
  only runs on plan misses).

The printed figure is deliveries per wall-clock second through the full
publish → schedule → heap-drain → callback path.
"""

from __future__ import annotations

import gc
import sys
import time

from bench import (
    SCHEDULER_12K_CLIENTS,
    SCHEDULER_BROADCASTS,
    SCHEDULER_CLIENTS,
    bench_scheduler_12k,
)
from conftest import emit

from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqtt.messages import QoS
from repro.mqtt.network import NetworkModel
from repro.runtime.scheduler import EventScheduler
from repro.sim.clock import SimulationClock

# Fleet shape shared with tools/bench.py so the committed BENCH_*.json
# baseline and this suite's printed figure are directly comparable.
NUM_CLIENTS = SCHEDULER_CLIENTS
NUM_BROADCASTS = SCHEDULER_BROADCASTS


def _build_fleet():
    clock = SimulationClock()
    broker = MQTTBroker("bench-broker", network=NetworkModel(seed=3), clock=clock)
    scheduler = EventScheduler(clock=clock)
    scheduler.attach_broker(broker)

    received = [0] * NUM_CLIENTS
    clients = []
    for index in range(NUM_CLIENTS):
        client = MQTTClient(f"dev_{index:04d}")
        client.connect(broker)
        client.subscribe("fleet/all/cmd", QoS.AT_LEAST_ONCE)
        client.subscribe(f"fleet/dev_{index:04d}/cmd", QoS.AT_LEAST_ONCE)

        def on_message(_c, _m, index=index):
            received[index] += 1

        client.on_message = on_message
        scheduler.register(client)
        clients.append(client)

    commander = MQTTClient("commander")
    commander.connect(broker)
    return broker, scheduler, commander, received


def test_scheduler_throughput(benchmark, bench_fast):
    def run():
        broker, scheduler, commander, received = _build_fleet()
        start = time.perf_counter()
        for round_index in range(NUM_BROADCASTS):
            commander.publish("fleet/all/cmd", b"sync", qos=QoS.AT_LEAST_ONCE)
            # A handful of unicast messages interleaved with the broadcasts.
            commander.publish(f"fleet/dev_{round_index:04d}/cmd", b"ping", qos=QoS.AT_LEAST_ONCE)
            scheduler.run_until_idle()
        elapsed = time.perf_counter() - start
        return broker, scheduler, received, elapsed

    broker, scheduler, received, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)

    delivered = sum(received)
    emit(
        "Event scheduler — routing throughput at 1k+ simulated clients",
        f"clients:               {NUM_CLIENTS}\n"
        f"deliveries dispatched: {delivered}\n"
        f"wall time:             {elapsed:.3f} s\n"
        f"throughput:            {delivered / max(elapsed, 1e-9):,.0f} deliveries/s\n"
        f"route plan cache:      {broker.route_cache_hits} hits / "
        f"{broker.route_cache_misses} misses",
    )

    # Every one of the 1k+ clients saw every broadcast (plus its unicast ping).
    assert NUM_CLIENTS >= 1_000
    assert delivered == NUM_CLIENTS * NUM_BROADCASTS + NUM_BROADCASTS
    assert scheduler.messages_processed == delivered

    # The broker must NOT re-resolve routing on every publish: after the
    # first broadcast builds the plan (one trie walk + one matched-filter
    # resolution per subscriber), the remaining ones are pure cache hits.
    assert broker.route_cache_hits >= NUM_BROADCASTS - 1
    assert broker.route_cache_hits + broker.route_cache_misses == 2 * NUM_BROADCASTS

    # Simulated time advanced to the deliveries' arrival instants.
    assert scheduler.now() > 0.0


def test_scheduler_12k_fanout_throughput(benchmark, bench_fast):
    """Single-topic broadcast at 12k subscribers — the vectorized batch regime.

    Every client holds exactly one subscription to the shared command topic,
    so each publish is one 12k-wide fan-out served by a single batch heap
    entry.  Shape and builder are shared with ``tools/bench.py`` (the
    ``scheduler_12k_deliveries_per_s`` gate in BENCH_pr10.json).
    """
    num_clients = 2_000 if bench_fast else SCHEDULER_12K_CLIENTS
    result = benchmark.pedantic(
        lambda: bench_scheduler_12k(num_clients=num_clients, num_broadcasts=2, rounds=1),
        rounds=1,
        iterations=1,
    )
    emit(
        "Event scheduler — 12k-client single-topic fan-out",
        f"clients:    {result['scheduler_12k_clients']}\n"
        f"deliveries: {result['scheduler_12k_deliveries']}\n"
        f"throughput: {result['scheduler_12k_deliveries_per_s']:,.0f} deliveries/s",
    )
    assert result["scheduler_12k_deliveries"] == num_clients * 2
    assert result["scheduler_12k_deliveries_per_s"] > 0


def test_cancel_deliveries_zero_match_early_out(bench_fast):
    """``cancel_deliveries`` with no matches must not rebuild the heap.

    The common case at a healthy round deadline is a predicate that matches
    nothing; the two-phase sweep returns after the read-only matching pass.
    Pinned structurally (the heap list object is untouched) and by wall
    clock relative to a matching cancel on the same heap.
    """
    num_clients = 500 if bench_fast else 4_000

    def build():
        clock = SimulationClock()
        broker = MQTTBroker("bench-broker", network=NetworkModel(seed=3), clock=clock)
        scheduler = EventScheduler(clock=clock)
        scheduler.attach_broker(broker)
        for index in range(num_clients):
            client = MQTTClient(f"dev_{index:05d}")
            client.connect(broker)
            client.subscribe("fleet/all/cmd", QoS.AT_LEAST_ONCE)
            scheduler.register(client)
        commander = MQTTClient("commander")
        commander.connect(broker)
        commander.publish("fleet/all/cmd", b"sync", qos=QoS.AT_LEAST_ONCE)
        return scheduler

    scheduler = build()
    pending_before = scheduler.pending_delivery_count
    assert pending_before == num_clients
    heap_before = scheduler._heap

    start = time.perf_counter()
    cancelled = scheduler.cancel_deliveries(lambda record: False)
    zero_match_s = time.perf_counter() - start
    assert cancelled == 0
    # Early-out: no rebuild, no re-heapify — the very same heap list object.
    assert scheduler._heap is heap_before
    assert scheduler.pending_delivery_count == pending_before

    start = time.perf_counter()
    cancelled = scheduler.cancel_deliveries(
        lambda record: record.subscriber_id == "dev_00000"
    )
    matching_s = time.perf_counter() - start
    assert cancelled == 1

    emit(
        "Event scheduler — cancel_deliveries zero-match early-out",
        f"pending deliveries: {pending_before}\n"
        f"zero-match cancel:  {zero_match_s * 1e3:.3f} ms\n"
        f"matching cancel:    {matching_s * 1e3:.3f} ms",
    )


def test_steady_state_broadcasts_do_not_accumulate_allocations(bench_fast):
    """Idle-state memory pin: repeated broadcasts reach a flat allocation plateau.

    After warmup (FIFO tails grown, route plan cached, intern tables filled),
    further broadcast rounds must not hold on to new allocator blocks — the
    kernel releases each in-flight entry as it fires.  ``sys.getallocatedblocks`` counts
    live CPython allocator blocks, so a per-round leak of even one record
    object per delivery would show up as ``num_clients`` extra blocks per
    round.
    """
    num_clients = 400 if bench_fast else 1_200
    clock = SimulationClock()
    broker = MQTTBroker("bench-broker", network=NetworkModel(seed=3), clock=clock)
    scheduler = EventScheduler(clock=clock)
    scheduler.attach_broker(broker)
    for index in range(num_clients):
        client = MQTTClient(f"dev_{index:05d}")
        client.connect(broker)
        client.subscribe("fleet/all/cmd", QoS.AT_LEAST_ONCE)
        scheduler.register(client)
    commander = MQTTClient("commander")
    commander.connect(broker)

    def broadcast():
        commander.publish("fleet/all/cmd", b"sync", qos=QoS.AT_LEAST_ONCE)
        scheduler.run_until_idle()
        # Traffic accounting retains per-delivery transfer times by design
        # (bounded by TrafficLog max_records); drain it so the pin isolates
        # the scheduler kernel.  clear() keeps the intern table, so cached
        # routing-plan indices stay valid across rounds.
        broker.traffic.clear()

    for _ in range(3):  # warmup: grow FIFO tails, build plan, intern ids
        broadcast()
    gc.collect()
    baseline_blocks = sys.getallocatedblocks()
    rounds = 5
    for _ in range(rounds):
        broadcast()
    gc.collect()
    grown = sys.getallocatedblocks() - baseline_blocks

    emit(
        "Event scheduler — steady-state allocation plateau",
        f"clients:             {num_clients}\n"
        f"broadcast rounds:    {rounds}\n"
        f"net new live blocks: {grown}",
    )
    # With traffic accounting drained, steady state is a plateau: anything
    # near one-block-per-delivery (num_clients x rounds) is a kernel leak.
    assert grown < num_clients
