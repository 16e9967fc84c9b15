"""Tests for datasets, loaders, synthetic data, partitioners, metrics and state utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.data import ArrayDataset, DataLoader, train_test_split
from repro.ml.datasets import (
    SyntheticDigitsConfig,
    _smooth_prototype,
    make_gaussian_blobs,
    synthetic_digits,
)
from repro.ml.metrics import accuracy, confusion_matrix, top_k_accuracy
from repro.ml.models import ClassifierModel, make_paper_mlp
from repro.ml.partition import dirichlet_partition, fraction_subsample, iid_partition, shard_partition
from repro.ml.state import (
    cast_state_dict,
    flatten_state_dict,
    state_dict_nbytes,
    state_dict_num_parameters,
    state_dicts_allclose,
    unflatten_state_dict,
    zeros_like_state_dict,
)
from repro.utils.rng import rng_from_seed


class TestArrayDataset:
    def test_basic_properties(self):
        ds = ArrayDataset(np.zeros((10, 4)), np.arange(10) % 3)
        assert len(ds) == 10
        assert ds.num_features == 4
        assert ds.num_classes == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((10, 4)), np.zeros(9, dtype=int))

    def test_1d_features_promoted(self):
        ds = ArrayDataset(np.zeros(5), np.zeros(5, dtype=int))
        assert ds.num_features == 1

    def test_subset(self):
        ds = ArrayDataset(np.arange(20).reshape(10, 2), np.arange(10))
        sub = ds.subset(np.array([1, 3, 5]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.labels, [1, 3, 5])

    def test_class_counts(self):
        ds = ArrayDataset(np.zeros((6, 1)), np.array([0, 0, 1, 2, 2, 2]))
        np.testing.assert_array_equal(ds.class_counts(), [2, 1, 3])

    def test_getitem(self):
        ds = ArrayDataset(np.arange(8).reshape(4, 2), np.arange(4))
        features, label = ds[2]
        np.testing.assert_array_equal(features, [4, 5])
        assert label == 2


class TestDataLoader:
    def test_batches_cover_everything(self):
        ds = ArrayDataset(np.arange(25).reshape(25, 1), np.arange(25))
        loader = DataLoader(ds, batch_size=4, shuffle=True, rng=np.random.default_rng(0))
        seen = np.concatenate([labels for _, labels in loader])
        assert sorted(seen.tolist()) == list(range(25))
        assert len(loader) == 7

    def test_drop_last(self):
        ds = ArrayDataset(np.zeros((25, 1)), np.zeros(25, dtype=int))
        loader = DataLoader(ds, batch_size=4, drop_last=True)
        assert len(loader) == 6
        assert all(len(labels) == 4 for _, labels in loader)

    def test_deterministic_given_rng(self):
        ds = ArrayDataset(np.arange(30).reshape(30, 1), np.arange(30))
        order_a = [labels.tolist() for _, labels in DataLoader(ds, 8, rng=np.random.default_rng(4))]
        order_b = [labels.tolist() for _, labels in DataLoader(ds, 8, rng=np.random.default_rng(4))]
        assert order_a == order_b

    def test_no_shuffle_preserves_order(self):
        ds = ArrayDataset(np.arange(10).reshape(10, 1), np.arange(10))
        first_batch = next(iter(DataLoader(ds, 5, shuffle=False)))
        np.testing.assert_array_equal(first_batch[1], [0, 1, 2, 3, 4])

    def test_invalid_batch_size(self):
        ds = ArrayDataset(np.zeros((4, 1)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            DataLoader(ds, batch_size=0)


class TestTrainTestSplit:
    def test_sizes_and_disjointness(self):
        ds = ArrayDataset(np.arange(100).reshape(100, 1), np.arange(100))
        train, test = train_test_split(ds, test_fraction=0.2, rng=np.random.default_rng(0))
        assert len(train) == 80 and len(test) == 20
        assert set(train.features.ravel()).isdisjoint(set(test.features.ravel()))

    def test_invalid_fraction(self):
        ds = ArrayDataset(np.zeros((10, 1)), np.zeros(10, dtype=int))
        with pytest.raises(ValueError):
            train_test_split(ds, test_fraction=0.0)


def _per_sample_roll_digits(config: SyntheticDigitsConfig) -> np.ndarray:
    """The features as the original per-sample ``np.roll`` loop built them."""
    rng = rng_from_seed(config.seed, "synthetic_digits")
    side = config.side
    prototypes = np.stack([_smooth_prototype(rng, side) for _ in range(config.num_classes)])
    labels = rng.integers(0, config.num_classes, size=config.num_samples)
    features = np.empty((config.num_samples, side * side), dtype=np.float64)
    shifts = rng.integers(-config.max_shift, config.max_shift + 1, size=(config.num_samples, 2))
    scales = rng.uniform(0.8, 1.2, size=config.num_samples)
    noise = rng.normal(0.0, config.noise, size=(config.num_samples, side, side))
    for i in range(config.num_samples):
        shifted = np.roll(prototypes[labels[i]], shift=(shifts[i, 0], shifts[i, 1]), axis=(0, 1))
        features[i] = (scales[i] * shifted + noise[i]).ravel()
    std = features.std()
    if std > 0:
        features = (features - features.mean()) / std
    return features


class TestSyntheticDigits:
    def test_deterministic_for_seed(self):
        a = synthetic_digits(SyntheticDigitsConfig(num_samples=100, seed=1))
        b = synthetic_digits(SyntheticDigitsConfig(num_samples=100, seed=1))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = synthetic_digits(SyntheticDigitsConfig(num_samples=100, seed=1))
        b = synthetic_digits(SyntheticDigitsConfig(num_samples=100, seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_shapes_and_classes(self):
        ds = synthetic_digits(SyntheticDigitsConfig(num_samples=300, side=8, num_classes=10, seed=0))
        assert ds.num_features == 64
        assert len(ds) == 300
        assert set(np.unique(ds.labels)) <= set(range(10))

    def test_standardized_features(self):
        ds = synthetic_digits(SyntheticDigitsConfig(num_samples=500, seed=0))
        assert abs(ds.features.mean()) < 1e-8
        assert ds.features.std() == pytest.approx(1.0, abs=1e-6)

    def test_learnable_by_small_mlp(self, digits_split):
        train, test = digits_split
        model = ClassifierModel(make_paper_mlp(input_dim=train.num_features, num_classes=10, seed=0))
        model.fit(train, epochs=10, batch_size=32, lr=1e-3, rng=np.random.default_rng(0))
        assert model.accuracy(test) > 0.7

    @pytest.mark.parametrize(
        "config",
        [
            SyntheticDigitsConfig(num_samples=800, seed=42),
            SyntheticDigitsConfig(num_samples=1024, seed=7),
            SyntheticDigitsConfig(num_samples=3000, seed=3),
            SyntheticDigitsConfig(num_samples=50, side=9, num_classes=4, max_shift=8, seed=5),
        ],
    )
    def test_features_match_the_per_sample_roll_loop(self, config):
        ds = synthetic_digits(config)
        reference = _per_sample_roll_digits(config)
        assert ds.features.tobytes() == reference.tobytes()

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SyntheticDigitsConfig(num_samples=0)
        with pytest.raises(ValueError):
            SyntheticDigitsConfig(max_shift=100, side=8)

    def test_gaussian_blobs_separable(self):
        ds = make_gaussian_blobs(num_samples=200, num_classes=3, separation=5.0, noise=0.5, seed=0)
        assert len(ds) == 200
        assert ds.num_classes == 3


class TestPartitioners:
    @pytest.fixture(scope="class")
    def dataset(self):
        return synthetic_digits(SyntheticDigitsConfig(num_samples=400, side=8, seed=2))

    def test_iid_partition_covers_all_indices(self, dataset):
        parts = iid_partition(dataset, 7, rng=np.random.default_rng(0))
        merged = np.concatenate(parts)
        assert len(merged) == len(dataset)
        assert len(np.unique(merged)) == len(dataset)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_iid_partition_too_many_clients(self, dataset):
        with pytest.raises(ValueError):
            iid_partition(dataset, len(dataset) + 1)

    def test_dirichlet_partition_covers_all_indices(self, dataset):
        parts = dirichlet_partition(dataset, 5, alpha=0.5, rng=np.random.default_rng(0))
        merged = np.concatenate(parts)
        assert len(np.unique(merged)) == len(dataset)

    def test_dirichlet_small_alpha_is_more_skewed(self, dataset):
        def skew(alpha):
            parts = dirichlet_partition(dataset, 5, alpha=alpha, rng=np.random.default_rng(1))
            # Mean per-client entropy of the label distribution (lower = more skewed).
            entropies = []
            for part in parts:
                counts = np.bincount(dataset.labels[part], minlength=dataset.num_classes).astype(float)
                p = counts / counts.sum()
                p = p[p > 0]
                entropies.append(-(p * np.log(p)).sum())
            return float(np.mean(entropies))

        assert skew(0.1) < skew(100.0)

    def test_shard_partition_covers_all_indices(self, dataset):
        parts = shard_partition(dataset, 8, shards_per_client=2, rng=np.random.default_rng(0))
        merged = np.concatenate(parts)
        assert len(np.unique(merged)) == len(dataset)

    def test_shard_partition_limits_classes_per_client(self, dataset):
        parts = shard_partition(dataset, 10, shards_per_client=2, rng=np.random.default_rng(0))
        classes_per_client = [len(np.unique(dataset.labels[p])) for p in parts]
        assert np.mean(classes_per_client) < dataset.num_classes * 0.6

    def test_fraction_subsample(self, dataset):
        indices = fraction_subsample(dataset, 0.1, rng=np.random.default_rng(0))
        assert len(indices) == round(0.1 * len(dataset))
        assert len(np.unique(indices)) == len(indices)

    def test_fraction_subsample_invalid(self, dataset):
        with pytest.raises(ValueError):
            fraction_subsample(dataset, 0.0)

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_iid_partition_property(self, num_clients):
        ds = make_gaussian_blobs(num_samples=60, num_classes=3, seed=1)
        parts = iid_partition(ds, num_clients, rng=np.random.default_rng(0))
        assert len(parts) == num_clients
        assert sum(len(p) for p in parts) == 60


class TestMetrics:
    def test_accuracy_from_labels(self):
        assert accuracy(np.array([0, 1, 2, 2]), np.array([0, 1, 1, 2])) == 0.75

    def test_accuracy_from_logits(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert accuracy(logits, np.array([0, 1])) == 1.0

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0, 1]), np.array([0]))

    def test_top_k(self):
        logits = np.array([[0.1, 0.5, 0.4], [0.7, 0.2, 0.1]])
        assert top_k_accuracy(logits, np.array([2, 1]), k=1) == 0.0
        assert top_k_accuracy(logits, np.array([2, 1]), k=2) == 1.0

    def test_top_k_invalid(self):
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros((2, 3)), np.array([0, 1]), k=5)

    def test_confusion_matrix(self):
        matrix = confusion_matrix(np.array([0, 1, 1, 2]), np.array([0, 1, 2, 2]), num_classes=3)
        assert matrix[0, 0] == 1 and matrix[1, 1] == 1 and matrix[2, 1] == 1 and matrix[2, 2] == 1
        assert matrix.sum() == 4


class TestStateUtilities:
    @staticmethod
    def _state(seed=0):
        rng = np.random.default_rng(seed)
        return {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3), "scalar": rng.normal(size=())}

    def test_num_parameters_and_nbytes(self):
        state = self._state()
        assert state_dict_num_parameters(state) == 16
        assert state_dict_nbytes(state) == 16 * 8
        assert state_dict_nbytes(state, "float32") == 16 * 4

    def test_flatten_unflatten_roundtrip(self):
        state = self._state()
        vector, spec = flatten_state_dict(state)
        rebuilt = unflatten_state_dict(vector, spec)
        assert state_dicts_allclose(state, rebuilt)

    def test_unflatten_wrong_size_rejected(self):
        _, spec = flatten_state_dict(self._state())
        with pytest.raises(ValueError):
            unflatten_state_dict(np.zeros(3), spec)

    def test_zeros_like(self):
        zeros = zeros_like_state_dict(self._state())
        assert all(np.all(v == 0) for v in zeros.values())

    def test_cast_state_dict(self):
        casted = cast_state_dict(self._state(), "float32")
        assert all(v.dtype == np.float32 for v in casted.values())
        assert all(v.flags["C_CONTIGUOUS"] for v in casted.values())

    def test_allclose_detects_differences(self):
        a, b = self._state(), self._state()
        assert state_dicts_allclose(a, b)
        b["w"] = b["w"] + 1e-3
        assert not state_dicts_allclose(a, b)
        assert not state_dicts_allclose(a, {"w": a["w"]})

    def test_empty_state_dict(self):
        vector, spec = flatten_state_dict({})
        assert vector.size == 0
        assert unflatten_state_dict(vector, spec) == {}

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_flatten_roundtrip_property(self, num_arrays, seed):
        rng = np.random.default_rng(seed)
        state = {
            f"p{i}": rng.normal(size=tuple(rng.integers(1, 5, size=rng.integers(1, 3))))
            for i in range(num_arrays)
        }
        vector, spec = flatten_state_dict(state)
        assert vector.size == state_dict_num_parameters(state)
        assert state_dicts_allclose(state, unflatten_state_dict(vector, spec))
