"""Shared fixtures for the SDFLMQ reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.data import ArrayDataset, train_test_split
from repro.ml.datasets import SyntheticDigitsConfig, make_gaussian_blobs, synthetic_digits
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.runtime.scheduler import EventScheduler


@pytest.fixture
def broker() -> MQTTBroker:
    """A fresh in-process broker."""
    return MQTTBroker("test-broker")


@pytest.fixture
def connected_clients(broker):
    """Factory creating clients already connected to the shared broker."""
    created = []

    def factory(client_id: str, **kwargs) -> MQTTClient:
        client = MQTTClient(client_id, **kwargs)
        client.connect(broker)
        created.append(client)
        return client

    yield factory
    for client in created:
        if client.connected:
            client.disconnect()


@pytest.fixture
def pump() -> EventScheduler:
    """An empty event scheduler to drive clients; register them as needed."""
    return EventScheduler()


@pytest.fixture(scope="session")
def small_digits() -> ArrayDataset:
    """A small synthetic digits dataset shared across tests (read-only)."""
    return synthetic_digits(SyntheticDigitsConfig(num_samples=600, side=16, seed=3))


@pytest.fixture(scope="session")
def digits_split(small_digits):
    """(train, test) split of the small digits dataset."""
    return train_test_split(small_digits, test_fraction=0.25, rng=np.random.default_rng(0))


@pytest.fixture(scope="session")
def blobs_dataset() -> ArrayDataset:
    """An easy Gaussian-blobs dataset for fast learning tests."""
    return make_gaussian_blobs(num_samples=400, num_classes=3, num_features=16, seed=5)
