"""The SIGMA operator is computed once per graph and config per process.

:func:`repro.simrank.topk.shared_simrank_operator` hands every SIGMA model
built on the same live graph with an equal config one read-only
operator.  These tests pin that it computes once (across repeats, sweep
points and threads), that sharing changes no trained number, which calls
share an entry, that the persistent cache is untouched, and that an
entry lives exactly as long as its graph (which keeps only its latest
config's entry).
"""

from __future__ import annotations

import gc
import copy
import json
import pickle
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import repro.simrank.topk as topk
import repro.training.evaluation as evaluation
from repro import api
from repro.config import RunSpec, SimRankConfig
from repro.datasets.dataset import Dataset
from repro.datasets.registry import clear_dataset_cache, load_dataset
from repro.datasets.splits import stratified_splits
from repro.datasets.synthetic import SyntheticGraphConfig, generate_synthetic_graph
from repro.experiments import run_experiment
from repro.experiments.engine import record_times, summary_record
from repro.experiments.store import get_artifact_store
from repro.models.registry import create_model
import repro.models.glognn as glognn
from repro.models.sigma import SIGMA
from repro.simrank.cache import get_operator_cache
from repro.simrank.topk import shared_simrank_operator
from repro.training.config import TrainConfig
from repro.training.evaluation import repeated_evaluation

TRAIN = TrainConfig(max_epochs=12, patience=6, min_epochs=2)
SIMRANK = SimRankConfig(top_k=8)


def fresh_graph(seed: int = 7):
    config = SyntheticGraphConfig(
        num_nodes=120, num_classes=3, num_features=8, average_degree=4.0,
        homophily=0.2, feature_signal=1.5, name="shared-op")
    return generate_synthetic_graph(config, seed=seed)


def fresh_dataset(seed: int = 7) -> Dataset:
    graph = fresh_graph(seed)
    return Dataset(graph=graph, name="shared-op",
                   splits=stratified_splits(graph.labels, num_splits=3,
                                            seed=1))


@pytest.fixture
def computes(monkeypatch):
    """Counts calls of the pure, uncached :func:`simrank_operator`."""
    calls = []
    real = topk.simrank_operator

    def counting(graph, config=None, **kwargs):
        calls.append((id(graph), config))
        return real(graph, config, **kwargs)

    monkeypatch.setattr(topk, "simrank_operator", counting)
    return calls


def trained_numbers(summary):
    """Everything a training run produces except wall-clock times."""
    return [(result.best_epoch, result.best_val_accuracy,
             result.test_accuracy, result.train_accuracy, result.num_epochs,
             [(record.epoch, record.loss, record.train_accuracy,
               record.val_accuracy, record.test_accuracy)
              for record in result.history])
            for result in summary.results]


class TestComputeOnce:
    def test_repeats_compute_once_and_match_a_fresh_graph_per_repeat(
            self, computes, monkeypatch):
        dataset = fresh_dataset()
        shared = repeated_evaluation("sigma", dataset, num_repeats=3,
                                     config=TRAIN, simrank=SIMRANK)
        assert len(computes) == 1
        assert len(shared.results) == 3

        def fresh_graph_model(name, graph, **kwargs):
            return create_model(name, graph.copy(), **kwargs)

        monkeypatch.setattr(evaluation, "create_model", fresh_graph_model)
        unshared = repeated_evaluation("sigma", dataset, num_repeats=3,
                                       config=TRAIN, simrank=SIMRANK)
        assert len(computes) == 4
        assert shared.accuracies == unshared.accuracies
        assert trained_numbers(shared) == trained_numbers(unshared)

    def test_sweep_points_on_a_memoized_dataset_match_cold_runs(
            self, computes):
        specs = [RunSpec(model="sigma", dataset="texas", seed=4711,
                         repeats=1, simrank=SIMRANK,
                         train=TRAIN.with_overrides(learning_rate=rate))
                 for rate in (0.01, 0.05)]
        clear_dataset_cache()
        warm = [api.run(spec).summary for spec in specs]
        assert len(computes) == 1
        cold = []
        for spec in specs:
            clear_dataset_cache()
            cold.append(api.run(spec).summary)
        assert len(computes) == 3
        for warm_summary, cold_summary in zip(warm, cold):
            assert trained_numbers(warm_summary) == \
                trained_numbers(cold_summary)

    def test_sigma_variants_share_the_operator(self, computes):
        graph = fresh_graph()
        full = SIGMA(graph, hidden=8, simrank=SIMRANK, rng=0)
        ablated = SIGMA(graph, hidden=8, simrank=SIMRANK, rng=1,
                        use_features=False)
        localised = SIGMA(graph, hidden=8, simrank=SIMRANK, rng=2,
                          operator_mode="simrank_adj")
        iterative = create_model("sigma_iterative", graph, hidden=8,
                                 simrank=SIMRANK, rng=3)
        assert len(computes) == 1
        assert full.simrank is ablated.simrank is localised.simrank \
            is iterative.simrank


class TestScopeAndLifetime:
    def test_differing_configs_get_separate_entries(self, computes):
        graph = fresh_graph()
        base = SimRankConfig(method="localpush", top_k=8)
        configs = [base, base.with_overrides(epsilon=0.05),
                   base.with_overrides(top_k=4),
                   base.with_overrides(executor="thread")]
        for count, config in enumerate(configs, start=1):
            operator = shared_simrank_operator(graph, config)
            assert len(computes) == count
            assert graph._shared_operator.config == config
            assert shared_simrank_operator(graph, config) is operator
            assert len(computes) == count

    def test_a_new_config_replaces_the_entry(self, computes):
        graph = fresh_graph()
        first = weakref.ref(shared_simrank_operator(graph, SIMRANK))
        other = shared_simrank_operator(graph,
                                        SIMRANK.with_overrides(top_k=4))
        gc.collect()
        # The first config's operator is no longer held by the graph.
        assert first() is None
        assert shared_simrank_operator(graph, SIMRANK) is not other
        assert len(computes) == 3

    def test_cache_dir_bypasses_the_memo(self, tmp_path, computes):
        graph = fresh_graph()
        cache = get_operator_cache(tmp_path)
        config = SIMRANK.with_overrides(cache_dir=str(tmp_path))
        first = shared_simrank_operator(graph, config)
        second = shared_simrank_operator(graph, config)
        assert len(computes) == 2
        assert (cache.hits, cache.stores) == (1, 1)
        assert (first.cache_hit, second.cache_hit) == (False, True)
        assert first is not second
        assert graph._shared_operator is None
        # A model behaves the same: a third lookup, another hit.
        model = SIGMA(graph, hidden=8, simrank=config, rng=0)
        assert model.simrank.cache_hit
        assert (cache.hits, cache.stores) == (2, 1)

    def test_entry_dies_with_its_graph(self):
        graph = fresh_graph()
        operator = weakref.ref(shared_simrank_operator(graph, SIMRANK))
        assert operator() is not None
        del graph
        gc.collect()
        assert operator() is None

    def test_copies_start_without_the_entry(self, computes):
        graph = fresh_graph()
        operator = shared_simrank_operator(graph, SIMRANK)
        for other in (pickle.loads(pickle.dumps(graph)),
                      copy.deepcopy(graph), graph.copy()):
            assert other._shared_operator is None
            assert shared_simrank_operator(other, SIMRANK) is not operator
        assert len(computes) == 4

    def test_entry_dies_with_the_dataset_memo(self):
        clear_dataset_cache()
        summary = api.run(RunSpec(model="sigma", dataset="texas", seed=4712,
                                  repeats=1, simrank=SIMRANK,
                                  train=TRAIN)).summary
        assert summary.accuracies
        graph = load_dataset("texas", seed=4712).graph
        operator = weakref.ref(shared_simrank_operator(graph, SIMRANK))
        assert operator() is not None
        del graph
        clear_dataset_cache()
        gc.collect()
        assert operator() is None

    def test_shared_arrays_are_read_only(self):
        matrix = shared_simrank_operator(fresh_graph(), SIMRANK).matrix
        for array in (matrix.data, matrix.indices, matrix.indptr):
            with pytest.raises(ValueError):
                array[0] = array[0]


class TestThreads:
    def test_concurrent_callers_compute_once(self, monkeypatch):
        calls = []
        real = topk.simrank_operator

        def slow(graph, config=None):
            calls.append((id(graph), config))
            time.sleep(0.05)
            return real(graph, config)

        monkeypatch.setattr(topk, "simrank_operator", slow)
        # One config per graph: a graph keeps only its latest config's
        # entry, so configs racing on one graph may each compute.
        configs = (SIMRANK, SIMRANK.with_overrides(top_k=4)) * 2
        pairs = [(fresh_graph(seed), config)
                 for seed, config in zip((7, 8, 9, 10), configs)]
        results = [None] * 16
        barrier = threading.Barrier(len(results))

        def call(index):
            barrier.wait()
            results[index] = shared_simrank_operator(
                *pairs[index % len(pairs)])

        threads = [threading.Thread(target=call, args=(index,))
                   for index in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(calls, key=repr) == sorted(
            ((id(graph), config) for graph, config in pairs), key=repr)
        for index, result in enumerate(results):
            assert result is shared_simrank_operator(
                *pairs[index % len(pairs)])

    def test_thread_executor_matches_serial_and_computes_once(
            self, computes):
        kwargs = dict(datasets=("texas",), deltas=(0.3, 0.5, 0.7),
                      num_repeats=2, config=TRAIN, seed=4713,
                      print_result=False)
        clear_dataset_cache()
        threaded = run_experiment("table9", executor="thread", workers=3,
                                  **kwargs)
        assert len(computes) == 1
        clear_dataset_cache()
        serial = run_experiment("table9", **kwargs)
        assert len(computes) == 2
        assert threaded.rows() == serial.rows()


class TestTable7PrecomputeColumn:
    KWARGS = dict(datasets=("genius",), models=("sigma",), num_repeats=2,
                  scale_factor=0.1, config=TRAIN, seed=4714,
                  print_result=False)

    def test_pre_is_the_one_time_cost(self, monkeypatch):
        real = topk.simrank_operator

        def slow(graph, config=None):
            time.sleep(0.3)
            return real(graph, config)

        monkeypatch.setattr(topk, "simrank_operator", slow)
        clear_dataset_cache()
        (row,) = run_experiment("table7", **self.KWARGS).rows()
        # A mean over the two repeats would report about half the cost.
        assert row["pre"] >= 0.3
        assert row["learn"] >= row["pre"]

    def test_pre_of_a_model_without_sharing_is_one_run(self, monkeypatch):
        # GloGNN redoes its precompute in every repeat; two repeats must
        # still report one run's cost, not the sum of both.
        real = glognn.symmetric_normalize

        def slow(matrix):
            time.sleep(0.3)
            return real(matrix)

        monkeypatch.setattr(glognn, "symmetric_normalize", slow)
        clear_dataset_cache()
        (row,) = run_experiment(
            "table7", **dict(self.KWARGS, models=("glognn",))).rows()
        assert 0.3 <= row["pre"] < 0.5
        assert row["learn"] >= row["pre"]

    def test_summary_takes_the_largest_precompute(self):
        summary = repeated_evaluation("sigma", fresh_dataset(), num_repeats=2,
                                      config=TRAIN, simrank=SIMRANK)
        first, second = (result.timing.precompute
                         for result in summary.results)
        assert summary.operator_precompute_time == max(first, second) == first
        record = summary_record(summary)
        assert record_times(record) == (summary.operator_precompute_time,
                                        summary.learning_time)
        assert summary.learning_time == pytest.approx(
            first + np.mean([result.timing.training
                             for result in summary.results]))

    def test_resume_serves_records_of_the_older_schema(self, tmp_path):
        store = get_artifact_store(tmp_path / "store")
        kwargs = dict(self.KWARGS, store=store)
        fresh = run_experiment("table7", **kwargs).rows()
        (path,) = (tmp_path / "store").glob("cell-*.json")
        payload = json.loads(path.read_text())
        record = payload["record"]
        record["mean_precompute_time"] = record.pop("operator_precompute_time")
        record["mean_learning_time"] = record.pop("learning_time")
        path.write_text(json.dumps(payload))

        resumed = run_experiment("table7", **kwargs).rows()
        assert store.hits == 1
        assert resumed == fresh
