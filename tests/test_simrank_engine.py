"""Suite for the unified LocalPush engine core and its pluggable executors.

Pins the properties of the one-engine, one-execution-knob design:

* every executor (``serial``/``thread``/``process``) and worker count
  produces a **bit-identical** matrix, streamed top-k included,
* :func:`repro.simrank.localpush.resolve_executor` picks ``serial``
  below :data:`AUTO_SHARDED_MIN_NODES` and ``thread`` from there up,
  passes explicit executors through and rejects unknown names, and
* the operator pipeline accepts ``executor=`` and serves the same
  operator regardless of it.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from _simrank_fixtures import (
    disconnected as _disconnected,
    erdos_renyi as _erdos_renyi,
    sbm as _sbm,
    star as _star,
    weighted as _weighted,
)
from repro.errors import SimRankError
from repro.simrank.engine import EXECUTORS, localpush_engine
from repro.simrank.localpush import (
    AUTO_SHARDED_MIN_NODES,
    localpush_reference,
    localpush_simrank,
    resolve_executor,
)


def _assert_identical(a: sp.csr_matrix, b: sp.csr_matrix) -> None:
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)  # bitwise, no tolerance


EQUIVALENCE_GRAPHS = [
    pytest.param(lambda: _erdos_renyi(60, 0.08, seed=0), id="erdos-renyi-60"),
    pytest.param(lambda: _sbm(150, seed=2), id="sbm-150"),
    pytest.param(lambda: _weighted(40, seed=12), id="weighted-40"),
    pytest.param(_disconnected, id="disconnected"),
    pytest.param(lambda: _star(12), id="star-12"),
]


class TestExecutorEquivalence:
    """Bit-identical output across executors — pinned, not approximate."""

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    def test_all_executors_identical_on_equivalence_suite(self, make_graph):
        graph = make_graph()
        kwargs = dict(epsilon=0.1, prune=False, absorb_residual=True,
                      num_shards=3)
        results = {
            executor: localpush_engine(graph, executor=executor,
                                       num_workers=2 if executor != "serial"
                                       else None, **kwargs)
            for executor in EXECUTORS
        }
        for executor in ("thread", "process"):
            _assert_identical(results["serial"].matrix,
                              results[executor].matrix)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_pooled_executors_match_serial(self, executor):
        graph = _sbm(200, seed=5)
        # num_shards forces multi-shard rounds so the pools actually engage.
        serial = localpush_engine(graph, epsilon=0.05, prune=False,
                                  executor="serial", num_shards=6)
        pooled = localpush_engine(graph, epsilon=0.05, prune=False,
                                  executor=executor, num_workers=2,
                                  num_shards=6)
        _assert_identical(serial.matrix, pooled.matrix)
        assert serial.num_pushes == pooled.num_pushes
        assert serial.num_rounds == pooled.num_rounds

    @pytest.mark.parametrize("workers", [1, 3])
    def test_process_worker_count_does_not_change_the_matrix(self, workers):
        graph = _sbm(150, seed=6)
        reference = localpush_engine(graph, epsilon=0.1, prune=False,
                                     executor="process", num_workers=2,
                                     num_shards=4)
        other = localpush_engine(graph, epsilon=0.1, prune=False,
                                 executor="process", num_workers=workers,
                                 num_shards=4)
        _assert_identical(reference.matrix, other.matrix)

    def test_streamed_topk_identical_across_executors(self):
        graph = _sbm(200, seed=7)
        kwargs = dict(epsilon=0.1, prune=False, absorb_residual=True,
                      stream_top_k=6, num_shards=5)
        serial = localpush_engine(graph, executor="serial", **kwargs)
        process = localpush_engine(graph, executor="process", num_workers=2,
                                   **kwargs)
        _assert_identical(serial.matrix, process.matrix)
        assert np.diff(process.matrix.indptr).max() <= 6
        assert (process.matrix.diagonal() > 0).all()

    def test_matches_dict_oracle_within_epsilon(self):
        graph = _erdos_renyi(80, 0.07, seed=8)
        oracle = localpush_reference(graph, epsilon=0.05, prune=False)
        core = localpush_engine(graph, epsilon=0.05, prune=False,
                                executor="process", num_workers=2,
                                num_shards=3)
        diff = np.abs((oracle.matrix - core.matrix).toarray()).max()
        assert diff < 0.05

    def test_result_metadata(self):
        graph = _sbm(150, seed=9)
        result = localpush_engine(graph, epsilon=0.1, executor="process",
                                  num_workers=2, num_shards=3)
        assert result.executor == "process"
        assert result.num_workers == 2
        assert result.num_shards == 3
        assert result.num_rounds is not None and result.num_rounds > 0

    def test_invalid_executor_rejected(self, tiny_graph):
        with pytest.raises(SimRankError):
            localpush_engine(tiny_graph, epsilon=0.1, executor="gpu")


class TestResolveExecutor:
    """One execution knob: the executor, resolved by node count."""

    def test_threshold_is_pinned(self):
        assert AUTO_SHARDED_MIN_NODES == 4096

    @pytest.mark.parametrize("unset", [None, "auto"])
    def test_ladder_by_node_count(self, unset):
        assert resolve_executor(unset, 1) == "serial"
        assert resolve_executor(unset, AUTO_SHARDED_MIN_NODES - 1) == "serial"
        assert resolve_executor(unset, AUTO_SHARDED_MIN_NODES) == "thread"
        assert resolve_executor(unset, 10**6) == "thread"

    def test_explicit_executors_pass_through(self):
        for executor in EXECUTORS:
            assert resolve_executor(executor, 10) == executor
            assert resolve_executor(executor, 10**6) == executor

    def test_unknown_executor_rejected(self):
        with pytest.raises(SimRankError):
            resolve_executor("fpga", 100)

    def test_localpush_simrank_accepts_executor(self):
        graph = _sbm(150, seed=10)
        result = localpush_simrank(graph, epsilon=0.1, executor="process",
                                   num_workers=2)
        assert result.executor == "process"
        default = localpush_simrank(graph, epsilon=0.1)
        assert default.executor == "serial"
        _assert_identical(result.matrix, default.matrix)

    def test_small_graphs_run_the_core(self):
        """Small graphs run the serial core by default too; the dict
        reference loop is reachable only by calling it by name."""
        graph = _erdos_renyi(50, 0.1, seed=4)
        result = localpush_simrank(graph, epsilon=0.1)
        assert result.executor == "serial"
        assert result.num_rounds is not None and result.num_rounds > 0
        core = localpush_engine(graph, epsilon=0.1, executor="serial")
        _assert_identical(result.matrix, core.matrix)

    def test_auto_dispatch_uses_thread_above_threshold(self, monkeypatch):
        import repro.simrank.localpush as localpush_module

        monkeypatch.setattr(localpush_module, "AUTO_SHARDED_MIN_NODES", 100)
        graph = _sbm(150, seed=12)
        result = localpush_simrank(graph, epsilon=0.1, executor="auto")
        assert result.executor == "thread"
        serial = localpush_engine(graph, epsilon=0.1, executor="serial")
        _assert_identical(result.matrix, serial.matrix)


class TestOperatorPipelineExecutors:
    def test_operator_identical_across_executors(self):
        from repro.simrank.topk import simrank_operator

        from repro.config import SimRankConfig

        graph = _sbm(150, seed=14)
        serial = simrank_operator(graph, config=SimRankConfig(
            method="localpush", epsilon=0.1, top_k=4, executor="serial"))
        process = simrank_operator(graph, config=SimRankConfig(
            method="localpush", epsilon=0.1, top_k=4, executor="process",
            workers=2))
        _assert_identical(serial.matrix, process.matrix)
        assert np.diff(process.matrix.indptr).max() <= 4


@pytest.mark.slow
class TestEngineStress:
    """Large-graph executor equivalence; excluded from the fast default."""

    def test_large_graph_executors_bit_identical(self):
        graph = _sbm(2000, seed=20)
        serial = localpush_engine(graph, epsilon=0.1, prune=False,
                                  executor="serial")
        thread = localpush_engine(graph, epsilon=0.1, prune=False,
                                  executor="thread", num_workers=4)
        process = localpush_engine(graph, epsilon=0.1, prune=False,
                                   executor="process", num_workers=4)
        _assert_identical(serial.matrix, thread.matrix)
        _assert_identical(serial.matrix, process.matrix)
        assert serial.num_shards >= 2  # the frontier actually sharded
