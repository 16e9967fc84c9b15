"""Failure-injection tests: clients dropping out of a running session.

The paper motivates SDFLMQ with constrained, churning IoT fleets; these tests
verify that the presence/last-will mechanism removes departed clients from the
session, that the coordinator re-plans roles for the survivors, and that a
round still completes when a contributor disappears mid-round.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.client import SDFLMQClient
from repro.core.clustering import ClusteringConfig
from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.parameter_server import ParameterServer
from repro.core.roles import Role
from repro.core.session import SessionState
from repro.core.topics import presence_topic
from repro.ml.models import ClassifierModel, make_mlp
from repro.mqtt.broker import MQTTBroker
from repro.runtime.scheduler import EventScheduler

SESSION = "failover"


def build(num_clients, policy="hierarchical", fl_rounds=2):
    broker = MQTTBroker("failure-broker")
    pump = EventScheduler()
    coordinator = Coordinator(
        broker,
        config=CoordinatorConfig(clustering=ClusteringConfig(policy=policy, aggregator_fraction=0.3)),
    )
    server = ParameterServer(broker)
    pump.register(coordinator.mqtt)
    pump.register(server.mqtt)
    clients, models = [], {}
    for index in range(num_clients):
        client = SDFLMQClient(f"client_{index:03d}", broker=broker, pump=pump.run_until_idle)
        pump.register(client.mqtt)
        clients.append(client)
        models[client.client_id] = ClassifierModel(make_mlp(10, (6,), 3, seed=7), name="mlp")
    clients[0].create_fl_session(session_id=SESSION, fl_rounds=fl_rounds, model_name="mlp",
                                 session_capacity_min=num_clients, session_capacity_max=num_clients)
    for client in clients[1:]:
        client.join_fl_session(session_id=SESSION, fl_rounds=fl_rounds, model_name="mlp")
    pump.run_until_idle()
    for client in clients:
        client.set_model(SESSION, models[client.client_id], num_samples=10)
    return broker, pump, coordinator, server, clients, models


class TestPresence:
    def test_online_marker_retained_on_connect(self):
        broker, pump, coordinator, *_ = build(2)
        retained = broker.retained_message(presence_topic("client_000"))
        assert retained is not None and retained.payload == b"online"

    def test_graceful_leave_removes_contributor(self):
        broker, pump, coordinator, server, clients, models = build(4)
        clients[3].leave()
        pump.run_until_idle()
        session = coordinator.session(SESSION)
        assert "client_003" not in session.contributors
        assert len(session.contributors) == 3
        assert coordinator.clients_dropped == 1

    def test_unexpected_disconnect_triggers_last_will(self):
        broker, pump, coordinator, server, clients, models = build(4)
        clients[2].disconnect(unexpected=True)
        pump.run_until_idle()
        assert "client_002" not in coordinator.session(SESSION).contributors
        assert broker.retained_message(presence_topic("client_002")).payload == b"offline"

    def test_clean_disconnect_without_leave_keeps_membership(self):
        """A clean MQTT disconnect sends no will; the coordinator keeps the client
        (it may reconnect) — only 'offline' markers remove it."""
        broker, pump, coordinator, server, clients, models = build(3)
        clients[2].disconnect(unexpected=False)
        pump.run_until_idle()
        assert "client_002" in coordinator.session(SESSION).contributors

    def test_all_clients_leaving_terminates_session(self):
        broker, pump, coordinator, server, clients, models = build(2)
        for client in clients:
            client.leave()
            pump.run_until_idle()
        session = coordinator.session(SESSION)
        assert session.state is SessionState.TERMINATED


class TestMidRoundDropout:
    def _local_update(self, client, model, offset):
        for value in model.network.parameters().values():
            value += offset
        client.send_local(SESSION)

    def test_trainer_dropout_before_uploading(self):
        """A trainer dies before sending its model; the survivors still produce
        a global model for the round."""
        broker, pump, coordinator, server, clients, models = build(5)
        session = coordinator.session(SESSION)
        dropped = next(
            cid for cid in session.topology.trainer_ids
            if not session.topology.node(cid).role.aggregates
        )
        survivors = [c for c in clients if c.client_id != dropped]
        victim = next(c for c in clients if c.client_id == dropped)

        # Survivors upload first, then the victim dies without uploading.
        for index, client in enumerate(survivors):
            self._local_update(client, models[client.client_id], 0.1 * index)
        pump.run_until_idle()
        assert not server.has_model(SESSION)  # still waiting for the victim

        victim.disconnect(unexpected=True)
        pump.run_until_idle()

        assert server.has_model(SESSION)
        for client in survivors:
            client.wait_global_update(SESSION)
        assert dropped not in coordinator.session(SESSION).topology.client_ids

    def test_aggregator_dropout_between_rounds(self):
        """An aggregator leaves after a completed round; the next round picks a
        new topology and still completes."""
        broker, pump, coordinator, server, clients, models = build(6, fl_rounds=2)
        session = coordinator.session(SESSION)
        aggregator_id = session.topology.root_id

        # Round 0 completes normally.
        for index, client in enumerate(clients):
            self._local_update(client, models[client.client_id], 0.05 * index)
        pump.run_until_idle()
        for client in clients:
            client.wait_global_update(SESSION)
            client.report_stats(SESSION)
        pump.run_until_idle()

        victim = next(c for c in clients if c.client_id == aggregator_id)
        victim.disconnect(unexpected=True)
        pump.run_until_idle()

        new_topology = coordinator.session(SESSION).topology
        assert aggregator_id not in new_topology.client_ids
        assert new_topology.root_id != aggregator_id

        survivors = [c for c in clients if c is not victim]
        for index, client in enumerate(survivors):
            self._local_update(client, models[client.client_id], 0.02 * index)
        pump.run_until_idle()
        for client in survivors:
            client.wait_global_update(SESSION)
        assert server.record(SESSION).version == 2

    def test_survivor_roles_updated_after_dropout(self):
        broker, pump, coordinator, server, clients, models = build(5, policy="central")
        root = coordinator.session(SESSION).topology.root_id
        victim = next(c for c in clients if c.client_id == root)
        victim.disconnect(unexpected=True)
        pump.run_until_idle()
        new_root = coordinator.session(SESSION).topology.root_id
        assert new_root != root
        new_root_client = next(c for c in clients if c.client_id == new_root)
        assert new_root_client.role(SESSION).aggregates


class TestMidRoundAggregatorLoss:
    """The hardest churn case: an *aggregator* dies while contributions for the
    current round are in flight.  The coordinator's round-restart broadcast
    makes the survivors drop their buffers and re-send, so the round still
    produces a global model under the re-planned topology."""

    def test_intermediate_aggregator_dies_mid_round(self):
        broker, pump, coordinator, server, clients, models = build(6)
        session = coordinator.session(SESSION)
        intermediate = next(
            cid for cid in session.topology.aggregator_ids if cid != session.topology.root_id
        )
        victim = next(c for c in clients if c.client_id == intermediate)

        for index, client in enumerate(clients):
            for value in models[client.client_id].network.parameters().values():
                value += 0.05 * index
            client.send_local(SESSION)
        victim.disconnect(unexpected=True)
        pump.run_until_idle()

        assert server.has_model(SESSION)
        survivors = [c for c in clients if c is not victim]
        for client in survivors:
            client.wait_global_update(SESSION)
        assert intermediate not in coordinator.session(SESSION).topology.client_ids
        # The victim's weights must not be part of the recovered aggregate:
        # total weight equals the sum over the survivors only.
        record = server.record(SESSION)
        assert record.total_weight == pytest.approx(sum(10.0 for _ in survivors))

    def test_root_aggregator_dies_mid_round(self):
        broker, pump, coordinator, server, clients, models = build(5)
        root = coordinator.session(SESSION).topology.root_id
        victim = next(c for c in clients if c.client_id == root)

        for index, client in enumerate(clients):
            for value in models[client.client_id].network.parameters().values():
                value += 0.03 * index
            client.send_local(SESSION)
        victim.disconnect(unexpected=True)
        pump.run_until_idle()

        survivors = [c for c in clients if c is not victim]
        assert server.has_model(SESSION)
        for client in survivors:
            client.wait_global_update(SESSION)
        new_topology = coordinator.session(SESSION).topology
        assert root not in new_topology.client_ids
        assert new_topology.root_id != root

    def test_duplicate_contribution_from_same_sender_replaced(self):
        broker, pump, coordinator, server, clients, models = build(3, policy="central")
        root_id = coordinator.session(SESSION).topology.root_id
        root = next(c for c in clients if c.client_id == root_id)
        trainer = next(c for c in clients if c.client_id != root_id)

        state_a = models[trainer.client_id].state_dict()
        root._handle_receive_model(SESSION, {
            "state": state_a, "weight": 10.0, "sender": trainer.client_id, "round_index": 0,
        })
        # The same trainer re-sends (e.g. after a round restart) — the old entry
        # is replaced rather than double counted.
        root._handle_receive_model(SESSION, {
            "state": state_a, "weight": 10.0, "sender": trainer.client_id, "round_index": 0,
        })
        assert len(root.participation(SESSION).pending_contributions) == 1

    def test_round_restart_event_recorded(self):
        broker, pump, coordinator, server, clients, models = build(4)
        victim = clients[-1]
        for client in clients:
            if client is victim:
                continue
            client.send_local(SESSION)
        victim.disconnect(unexpected=True)
        pump.run_until_idle()
        # A restart was broadcast because the round was incomplete at drop time.
        assert coordinator.clients_dropped == 1
        assert server.has_model(SESSION)
