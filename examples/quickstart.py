#!/usr/bin/env python3
"""Quickstart: the paper's Listing 1, end to end, in one process.

A client creates an FL session for an MLP, four more clients join, every
client trains on its local shard of the synthetic digit dataset for a few
epochs per round, sends its local model for hierarchical aggregation over
MQTT, and waits for the synchronized global model — exactly the
``create_fl_session`` / ``set_model`` / ``send_local`` / ``wait_global_update``
flow from the paper, with the broker, coordinator and parameter server all
running in-process.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import Coordinator, CoordinatorConfig, ParameterServer, SDFLMQClient
from repro.core.clustering import ClusteringConfig
from repro.ml import (
    ArrayDataset,
    ClassifierModel,
    DataLoader,
    iid_partition,
    make_paper_mlp,
    synthetic_digits,
    SyntheticDigitsConfig,
    train_test_split,
)
from repro.ml.optim import Adam
from repro.mqtt import MQTTBroker
from repro.runtime import EventScheduler

NUM_CLIENTS = 5
FL_ROUNDS = 3
LOCAL_EPOCHS = 3
SESSION_ID = "session_01"


def main() -> None:
    # ------------------------------------------------------------------ data
    dataset = synthetic_digits(SyntheticDigitsConfig(num_samples=4000, seed=7))
    train_set, test_set = train_test_split(dataset, test_fraction=0.2, rng=np.random.default_rng(0))
    shards = [train_set.subset(p) for p in iid_partition(train_set, NUM_CLIENTS, rng=np.random.default_rng(1))]

    # -------------------------------------------------- broker + server side
    broker = MQTTBroker("edge-broker")
    scheduler = EventScheduler()
    coordinator = Coordinator(
        broker,
        config=CoordinatorConfig(clustering=ClusteringConfig(policy="hierarchical", aggregator_fraction=0.3)),
    )
    parameter_server = ParameterServer(broker)
    scheduler.register(coordinator.mqtt)
    scheduler.register(parameter_server.mqtt)

    # ----------------------------------------------------------- client side
    clients: list[SDFLMQClient] = []
    models: list[ClassifierModel] = []
    optimizers: list[Adam] = []
    for index in range(NUM_CLIENTS):
        client = SDFLMQClient(
            f"client_{index:03d}",
            broker=broker,
            preferred_role="trainer_aggregator",
            pump=scheduler.run_until_idle,
        )
        network = make_paper_mlp(input_dim=train_set.num_features, num_classes=10, seed=42)
        model = ClassifierModel(network, name="mlp")
        clients.append(client)
        models.append(model)
        optimizers.append(Adam(network, lr=1e-3))
        scheduler.register(client.mqtt)

    # The first client creates the session (Listing 1, line 19); others join.
    clients[0].create_fl_session(
        session_id=SESSION_ID,
        fl_rounds=FL_ROUNDS,
        model_name="mlp",
        session_capacity_min=NUM_CLIENTS,
        session_capacity_max=NUM_CLIENTS,
    )
    for client, shard in zip(clients[1:], shards[1:]):
        client.join_fl_session(
            session_id=SESSION_ID, fl_rounds=FL_ROUNDS, model_name="mlp", num_samples=len(shard)
        )
    scheduler.run_until_idle()

    for client, model, shard in zip(clients, models, shards):
        client.set_model(SESSION_ID, model, num_samples=len(shard))
        print(f"{client.client_id}: role={client.role(SESSION_ID).value}, samples={len(shard)}")

    # ------------------------------------------------------ FL optimization loop
    for round_index in range(FL_ROUNDS):
        for index, (client, model, shard) in enumerate(zip(clients, models, shards)):
            loader = DataLoader(shard, batch_size=32, shuffle=True, rng=np.random.default_rng(round_index * 100 + index))
            for _epoch in range(LOCAL_EPOCHS):
                model.train_epoch(loader, optimizers[index])
            client.send_local(SESSION_ID)
        scheduler.run_until_idle()
        for client in clients:
            client.wait_global_update(SESSION_ID)
            client.report_stats(SESSION_ID)
        scheduler.run_until_idle()

        accuracy = models[0].accuracy(test_set)
        print(f"round {round_index + 1}/{FL_ROUNDS}: global test accuracy = {accuracy:.4f}")

    print(f"\nbroker routed {broker.stats.messages_published} messages "
          f"({broker.stats.bytes_published / 1024:.1f} KiB published)")
    print(f"global model versions stored by the parameter server: "
          f"{parameter_server.record(SESSION_ID).version}")


if __name__ == "__main__":
    main()
