"""Tests for the MQTT Fleet Control remote-function-call layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mqtt.client import MQTTClient
from repro.mqttfc.compression import CompressionConfig
from repro.mqttfc.rfc import (
    FleetControlEndpoint,
    PendingCall,
    RemoteCallError,
    call_topic,
    response_topic,
)
from repro.runtime.scheduler import EventScheduler


@pytest.fixture
def rig(broker):
    """Two connected endpoints plus a pump that drives both."""
    pump = EventScheduler()

    def make(client_id, **kwargs):
        client = MQTTClient(client_id)
        client.connect(broker)
        endpoint = FleetControlEndpoint(client, **kwargs)
        endpoint.start()
        pump.register(client)
        return endpoint

    return make, pump


class TestTopics:
    def test_call_topic_layout(self):
        assert call_topic("worker", "train") == "mqttfc/worker/call/train"

    def test_response_topic_layout(self):
        assert response_topic("worker") == "mqttfc/worker/response"


class TestRegistry:
    def test_register_and_list(self, rig):
        make, _ = rig
        endpoint = make("server")
        endpoint.register("add", lambda a, b: a + b)
        endpoint.register("sub", lambda a, b: a - b)
        assert endpoint.registered_functions() == ["add", "sub"]

    def test_unregister(self, rig):
        make, _ = rig
        endpoint = make("server")
        endpoint.register("add", lambda a, b: a + b)
        assert endpoint.unregister("add")
        assert not endpoint.unregister("add")
        assert endpoint.registered_functions() == []

    def test_decorator_registration(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")

        @server.remote_function("double")
        def double(x):
            return 2 * x

        call = caller.call("server", "double", 21)
        pump.run_until_idle()
        assert call.result() == 42

    def test_invalid_function_name_rejected(self, rig):
        make, _ = rig
        endpoint = make("server")
        with pytest.raises(ValueError):
            endpoint.register("has space", lambda: None)


class TestCalls:
    def test_simple_call_with_result(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")
        server.register("add", lambda a, b: a + b)
        call = caller.call("server", "add", 2, 3)
        assert not call.done
        pump.run_until_idle()
        assert call.done and not call.failed
        assert call.result() == 5
        assert call.responder == "server"

    def test_kwargs_supported(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")
        server.register("scale", lambda value, factor=1: value * factor)
        call = caller.call("server", "scale", 5, factor=3)
        pump.run_until_idle()
        assert call.result() == 15

    def test_result_before_completion_raises(self, rig):
        make, _ = rig
        server = make("server")
        caller = make("caller")
        server.register("noop", lambda: None)
        call = caller.call("server", "noop")
        with pytest.raises(RemoteCallError, match="not completed"):
            call.result()
        assert call.result_or("fallback") == "fallback"

    def test_notify_fire_and_forget(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")
        seen = []
        server.register("log", lambda msg: seen.append(msg))
        call = caller.notify("server", "log", "hello")
        assert call.done  # resolved immediately, no response expected
        pump.run_until_idle()
        assert seen == ["hello"]
        assert server.stats.responses_sent == 0

    def test_remote_exception_reported(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")

        def fails():
            raise ValueError("remote boom")

        server.register("fails", fails)
        call = caller.call("server", "fails")
        pump.run_until_idle()
        assert call.failed
        with pytest.raises(RemoteCallError, match="remote boom"):
            call.result()

    def test_unknown_function_reported(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")
        # The server listens on a wildcard store topic (as the parameter server
        # does), so the request is delivered, but the named function does not
        # exist in its registry → a "not found" error response comes back.
        server.register("store", lambda *_a, **_k: None, topic="jobs/+/store")
        call = caller.call_topic("jobs/abc/store", "does_not_exist")
        pump.run_until_idle()
        assert call.failed
        with pytest.raises(RemoteCallError, match="not found"):
            call.result()

    def test_call_to_unsubscribed_topic_stays_pending(self, rig):
        make, pump = rig
        make("server")
        caller = make("caller")
        call = caller.call("server", "never_registered")
        pump.run_until_idle()
        # No subscriber on the topic → the request vanishes, exactly as with a
        # real broker; the call simply never completes.
        assert not call.done
        assert caller.pending_calls() == 1

    def test_numpy_arguments_and_results(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")
        server.register("sum_arrays", lambda arrays: {"total": np.sum([np.asarray(a) for a in arrays], axis=0)})
        arrays = [np.arange(6, dtype=np.float64).reshape(2, 3) for _ in range(3)]
        call = caller.call("server", "sum_arrays", arrays)
        pump.run_until_idle()
        np.testing.assert_array_equal(call.result()["total"], 3 * arrays[0])

    def test_large_payload_chunked_and_reassembled(self, rig):
        make, pump = rig
        server = make("server", chunk_bytes=1024)
        caller = make("caller", chunk_bytes=1024, compression=CompressionConfig(enabled=False))
        server.register("param_count", lambda state: int(sum(np.asarray(v).size for v in state.values())))
        state = {f"layer{i}": np.random.default_rng(i).normal(size=(50, 50)) for i in range(4)}
        call = caller.call("server", "param_count", state)
        pump.run_until_idle()
        assert call.result() == 4 * 2500
        assert caller.stats.chunks_sent > 1  # the request definitely did not fit one chunk

    def test_shared_topic_fanout(self, rig, broker):
        make, pump = rig
        workers = [make(f"worker{i}") for i in range(3)]
        caller = make("caller")
        hits = []
        for index, worker in enumerate(workers):
            worker.register(f"task_local_{index}", (lambda i: (lambda payload: hits.append((i, payload))))(index),
                            topic="jobs/broadcast")
        caller.call_topic("jobs/broadcast", "task", "work-item", expect_response=False)
        pump.run_until_idle()
        assert sorted(hits) == [(0, "work-item"), (1, "work-item"), (2, "work-item")]

    def test_two_way_calls_between_peers(self, rig):
        make, pump = rig
        alice = make("alice")
        bob = make("bob")
        alice.register("ping", lambda: "alice-pong")
        bob.register("ping", lambda: "bob-pong")
        call_ab = alice.call("bob", "ping")
        call_ba = bob.call("alice", "ping")
        pump.run_until_idle()
        assert call_ab.result() == "bob-pong"
        assert call_ba.result() == "alice-pong"

    def test_stats_counters(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")
        server.register("echo", lambda x: x)
        for i in range(3):
            caller.call("server", "echo", i)
        pump.run_until_idle()
        assert caller.stats.calls_sent == 3
        assert caller.stats.responses_received == 3
        assert server.stats.calls_served == 3
        assert server.stats.responses_sent == 3
        assert caller.pending_calls() == 0

    def test_concurrent_pending_calls_correlated(self, rig):
        make, pump = rig
        server = make("server")
        caller = make("caller")
        server.register("square", lambda x: x * x)
        calls = [caller.call("server", "square", i) for i in range(10)]
        assert caller.pending_calls() == 10
        pump.run_until_idle()
        assert [c.result() for c in calls] == [i * i for i in range(10)]

    def test_compression_transparent_to_caller(self, rig):
        make, pump = rig
        server = make("server", compression=CompressionConfig(enabled=True, min_bytes=16))
        caller = make("caller", compression=CompressionConfig(enabled=True, min_bytes=16))
        server.register("length", lambda text: len(text))
        call = caller.call("server", "length", "z" * 50_000)
        pump.run_until_idle()
        assert call.result() == 50_000
