"""Integration tests for the coordinator and parameter server over the broker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.client import SDFLMQClient
from repro.core.clustering import ClusteringConfig
from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.errors import SessionNotFoundError
from repro.core.parameter_server import ParameterServer
from repro.core.roles import Role
from repro.core.session import SessionState
from repro.core.topics import global_store_topic
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqttfc.rfc import FleetControlEndpoint
from repro.runtime.scheduler import EventScheduler
from repro.sim.events import EventLog


@pytest.fixture
def stack(broker):
    """Broker + coordinator + parameter server + pump, plus a client factory."""
    pump = EventScheduler()
    coordinator = Coordinator(
        broker,
        config=CoordinatorConfig(
            clustering=ClusteringConfig(policy="hierarchical", aggregator_fraction=0.3)
        ),
        event_log=EventLog(),
    )
    server = ParameterServer(broker, event_log=coordinator.event_log)
    pump.register(coordinator.mqtt)
    pump.register(server.mqtt)

    clients = []

    def add_client(client_id, **kwargs):
        client = SDFLMQClient(client_id, broker=broker, pump=pump.run_until_idle, **kwargs)
        pump.register(client.mqtt)
        clients.append(client)
        return client

    return {
        "broker": broker,
        "pump": pump,
        "coordinator": coordinator,
        "server": server,
        "add_client": add_client,
        "clients": clients,
    }


def _establish_session(stack, num_clients=5, fl_rounds=2, session_id="s1", **client_kwargs):
    add_client, pump = stack["add_client"], stack["pump"]
    clients = [add_client(f"client_{i:03d}", **client_kwargs) for i in range(num_clients)]
    clients[0].create_fl_session(
        session_id=session_id,
        fl_rounds=fl_rounds,
        model_name="mlp",
        session_capacity_min=num_clients,
        session_capacity_max=num_clients,
    )
    for client in clients[1:]:
        client.join_fl_session(session_id=session_id, fl_rounds=fl_rounds, model_name="mlp", num_samples=10)
    pump.run_until_idle()
    return clients


class TestSessionEstablishment:
    def test_create_session_ack(self, stack):
        client = stack["add_client"]("creator")
        call = client.create_fl_session(
            session_id="s1", fl_rounds=2, model_name="mlp",
            session_capacity_min=3, session_capacity_max=3,
        )
        assert call.result()["accepted"] is True
        assert "s1" in stack["coordinator"].sessions

    def test_duplicate_session_rejected_first_wins(self, stack):
        first = stack["add_client"]("first")
        second = stack["add_client"]("second")
        first.create_fl_session(session_id="dup", fl_rounds=1, model_name="m",
                                session_capacity_min=2, session_capacity_max=2)
        ack = second.create_fl_session(session_id="dup", fl_rounds=1, model_name="m",
                                       session_capacity_min=2, session_capacity_max=2)
        assert ack.result()["accepted"] is False
        assert stack["coordinator"].session("dup").request.requester_id == "first"
        assert stack["coordinator"].rejected_session_requests == 1

    def test_join_unknown_session_rejected(self, stack):
        client = stack["add_client"]("joiner")
        ack = client.join_fl_session(session_id="ghost", fl_rounds=1, model_name="m")
        assert ack.result()["accepted"] is False
        assert "no such session" in ack.result()["reason"]

    def test_join_full_session_rejected(self, stack):
        clients = _establish_session(stack, num_clients=3)
        late = stack["add_client"]("latecomer")
        ack = late.join_fl_session(session_id="s1", fl_rounds=2, model_name="mlp")
        assert ack.result()["accepted"] is False
        assert "full" in ack.result()["reason"] or "not accepting" in ack.result()["reason"]

    def test_session_starts_when_full(self, stack):
        _establish_session(stack, num_clients=5)
        session = stack["coordinator"].session("s1")
        assert session.state is SessionState.RUNNING
        assert session.topology is not None
        assert len(session.topology.client_ids) == 5

    def test_roles_assigned_to_every_client(self, stack):
        clients = _establish_session(stack, num_clients=5)
        roles = [client.role("s1") for client in clients]
        assert all(role is not Role.IDLE for role in roles)
        aggregating = [r for r in roles if r.aggregates]
        assert len(aggregating) == 2  # 30% of 5, rounded

    def test_params_inbox_subscribed_by_every_participant(self, stack):
        # The contribution inbox is session-scoped, not role-scoped: a
        # mid-round re-plan may promote any client and route re-sent
        # contributions at it before its set_role lands, so every
        # participant keeps its own params topic subscribed for the whole
        # session (trainers simply buffer and reconcile on promotion).
        clients = _establish_session(stack, num_clients=5)
        broker = stack["broker"]
        for client in clients:
            topic = f"sdflmq/session/s1/aggregator/{client.client_id}/params"
            assert topic in broker.subscriptions_of(client.client_id)

    def test_unknown_session_lookup_raises(self, stack):
        with pytest.raises(SessionNotFoundError):
            stack["coordinator"].session("nope")

    def test_active_sessions_listing(self, stack):
        _establish_session(stack, num_clients=3, session_id="alpha")
        assert stack["coordinator"].active_sessions() == ["alpha"]

    def test_terminate_session_broadcast(self, stack):
        clients = _establish_session(stack, num_clients=3)
        stack["coordinator"].terminate_session("s1", reason="operator stop")
        stack["pump"].run_until_idle()
        assert all(client.session_completed("s1") for client in clients)
        assert not stack["coordinator"].session("s1").is_active


class TestParameterServer:
    def test_store_and_fetch_global(self, stack, broker):
        server = stack["server"]
        pump = stack["pump"]
        # A bare MQTTFC endpoint acts as the root aggregator.
        mqtt = MQTTClient("root_agg")
        mqtt.connect(broker)
        endpoint = FleetControlEndpoint(mqtt)
        endpoint.start()
        pump.register(mqtt)

        state = {"w": np.arange(6, dtype=np.float64).reshape(2, 3)}
        endpoint.call_topic(
            global_store_topic("sess"), "store_global",
            {"session_id": "sess", "round_index": 0, "state": state, "num_contributors": 4,
             "total_weight": 40.0, "model_name": "mlp"},
            expect_response=False,
        )
        pump.run_until_idle()
        assert server.has_model("sess")
        record = server.record("sess")
        assert record.version == 1
        assert record.num_contributors == 4
        np.testing.assert_array_equal(record.state["w"], state["w"])

        fetch = endpoint.call_topic(
            "mqttfc/sdflmq_paramserver/call/fetch_global", "fetch_global", "sess"
        )
        pump.run_until_idle()
        result = fetch.result()
        assert result["found"] is True
        np.testing.assert_array_equal(np.asarray(result["state"]["w"]), state["w"])

    def test_fetch_unknown_session(self, stack, broker):
        pump = stack["pump"]
        mqtt = MQTTClient("asker")
        mqtt.connect(broker)
        endpoint = FleetControlEndpoint(mqtt)
        endpoint.start()
        pump.register(mqtt)
        call = endpoint.call("sdflmq_paramserver", "fetch_global", "missing")
        pump.run_until_idle()
        assert call.result()["found"] is False

    def test_store_notifies_coordinator(self, stack, broker):
        clients = _establish_session(stack, num_clients=2, fl_rounds=3)
        coordinator = stack["coordinator"]
        session = coordinator.session("s1")
        assert session.global_versions == 0

    def test_republish_returns_false_without_model(self, stack):
        assert stack["server"].republish("nothing") is False

    def test_duplicate_store_for_same_round_is_ignored(self, stack, broker):
        # Regression: a mid-round failure can race the coordinator's round
        # restart against an aggregate already in flight, so the same round's
        # global arrives twice.  The repository keeps exactly one global per
        # round; the late copy must not mint a new version (that would poison
        # the coordinator's rounds-vs-versions restart guard for the *next*
        # failure) and must not be re-announced to clients.
        server = stack["server"]
        pump = stack["pump"]
        mqtt = MQTTClient("root_agg2")
        mqtt.connect(broker)
        endpoint = FleetControlEndpoint(mqtt)
        endpoint.start()
        pump.register(mqtt)

        def store(round_index, fill):
            endpoint.call_topic(
                global_store_topic("dup"), "store_global",
                {"session_id": "dup", "round_index": round_index,
                 "state": {"w": np.full((2, 2), float(fill))}, "num_contributors": 3},
                expect_response=False,
            )
            pump.run_until_idle()

        store(0, 1.0)
        updates_after_first = server.updates_published
        store(0, 9.0)  # restart-race duplicate for the stored round
        assert server.record("dup").version == 1
        assert server.duplicate_stores_ignored == 1
        assert server.updates_published == updates_after_first
        np.testing.assert_array_equal(server.record("dup").state["w"], np.full((2, 2), 1.0))

        store(1, 2.0)  # the next round stores normally
        assert server.record("dup").version == 2
        assert server.record("dup").round_index == 1
