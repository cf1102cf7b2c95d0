"""Tests for the dataset registry and loader."""

import sys
import threading
import time

import pytest

from repro.datasets import registry
from repro.datasets.registry import (
    DATASET_SPECS,
    LARGE_DATASETS,
    SMALL_DATASETS,
    clear_dataset_cache,
    get_spec,
    list_datasets,
    load_dataset,
)
from repro.errors import DatasetError
from repro.graphs.homophily import node_homophily


class TestRegistryContents:
    def test_twelve_benchmarks(self):
        assert len(DATASET_SPECS) == 12
        assert len(SMALL_DATASETS) == 6
        assert len(LARGE_DATASETS) == 6

    def test_list_datasets_filters(self):
        assert list_datasets("small") == SMALL_DATASETS
        assert list_datasets("large") == LARGE_DATASETS
        assert set(list_datasets()) == set(DATASET_SPECS)

    def test_list_datasets_invalid_scale(self):
        with pytest.raises(DatasetError):
            list_datasets("medium")

    def test_specs_mirror_paper_statistics(self):
        texas = get_spec("texas")
        assert texas.paper_nodes == 183
        assert texas.config.num_classes == 5
        pokec = get_spec("pokec")
        assert pokec.paper_edges == 30622564
        assert pokec.config.num_classes == 2

    def test_aliases(self):
        assert get_spec("arxiv").name == "arxiv-year"
        assert get_spec("snap").name == "snap-patents"
        assert get_spec("twitch").name == "twitch-gamers"

    def test_unknown_dataset_raises(self):
        with pytest.raises(DatasetError):
            get_spec("imaginary")


class TestLoadDataset:
    def test_basic_load(self):
        dataset = load_dataset("texas", seed=0)
        assert dataset.name == "texas"
        assert dataset.num_splits == 5
        assert dataset.num_classes == 5

    def test_scale_factor_reduces_size(self):
        full = load_dataset("cora", seed=0)
        small = load_dataset("cora", seed=0, scale_factor=0.5)
        assert small.num_nodes < full.num_nodes

    def test_num_splits_override(self):
        dataset = load_dataset("texas", seed=0, num_splits=2)
        assert dataset.num_splits == 2

    def test_invalid_num_splits(self):
        with pytest.raises(DatasetError):
            load_dataset("texas", num_splits=0)

    def test_cache_returns_same_object(self):
        clear_dataset_cache()
        first = load_dataset("texas", seed=0)
        second = load_dataset("texas", seed=0)
        assert first is second

    def test_cache_disabled_returns_new_object(self):
        first = load_dataset("texas", seed=0, cache=False)
        second = load_dataset("texas", seed=0, cache=False)
        assert first is not second

    def test_homophily_regime_matches_paper(self):
        # Heterophilous benchmarks stay heterophilous, homophilous stay homophilous.
        chameleon = load_dataset("chameleon", seed=0, scale_factor=0.5, cache=False)
        cora = load_dataset("cora", seed=0, scale_factor=0.5, cache=False)
        assert node_homophily(chameleon.graph) < 0.45
        assert node_homophily(cora.graph) > 0.6

    def test_metadata_records_paper_statistics(self):
        dataset = load_dataset("pokec", seed=0, scale_factor=0.25, cache=False)
        assert dataset.metadata["paper_nodes"] == 1632803
        assert dataset.metadata["scale"] == "large"
        assert "measured_homophily" in dataset.metadata


class TestConcurrentLoad:
    """Threads racing on one ``load_dataset`` key generate it once."""

    NUM_THREADS = 8

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Count ``generate_synthetic_graph`` calls, with a slow body that
        keeps every racing thread inside the memo lookup at once."""
        recorded = []
        generate = registry.generate_synthetic_graph

        def counting(config, seed=None):
            recorded.append((config.name, seed))
            time.sleep(0.05)
            return generate(config, seed=seed)

        clear_dataset_cache()
        monkeypatch.setattr(registry, "generate_synthetic_graph", counting)
        yield recorded
        clear_dataset_cache()

    def _race(self, keys):
        barrier = threading.Barrier(len(keys))
        results = [None] * len(keys)

        def load(index, name):
            barrier.wait()
            try:
                results[index] = load_dataset(name, seed=123)
            except Exception as error:  # surfaced by the assertion below
                results[index] = error

        threads = [threading.Thread(target=load, args=(index, name))
                   for index, name in enumerate(keys)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not [r for r in results if isinstance(r, Exception)]
        return results

    def test_one_generation_per_key(self, calls):
        results = self._race(["texas"] * self.NUM_THREADS)
        assert len(calls) == 1
        assert all(result is results[0] for result in results)

    def test_distinct_keys_generate_independently(self, calls):
        keys = ["texas", "cora"] * (self.NUM_THREADS // 2)
        results = self._race(keys)
        assert len(calls) == 2
        for name, result in zip(keys, results):
            assert result is load_dataset(name, seed=123)
            assert result.name == name
        assert len(calls) == 2

    def test_failed_generation_is_retried(self, calls, monkeypatch):
        def failing(config, seed=None):
            raise RuntimeError("generator died")

        counting = registry.generate_synthetic_graph
        monkeypatch.setattr(registry, "generate_synthetic_graph", failing)
        with pytest.raises(RuntimeError, match="died"):
            load_dataset("texas", seed=123)
        monkeypatch.setattr(registry, "generate_synthetic_graph", counting)
        assert load_dataset("texas", seed=123).name == "texas"
        assert len(calls) == 1
