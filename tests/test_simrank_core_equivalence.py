"""Equivalence / bound / streaming suite for the unified LocalPush core.

The per-pair dict loop :func:`repro.simrank.localpush.localpush_reference`
is the correctness oracle (a direct transcription of Algorithm 1).  The
frontier-batched core (:func:`repro.simrank.engine.localpush_engine`)
must, under the serial and the thread executor:

* agree with the oracle within ``ε`` max-norm, and within ``(1 − c)·ε``
  in the operator configuration (``absorb_residual=True``), on every
  equivalence fixture,
* meet ``‖Ŝ − S‖_max < ε`` against the dense linearized series on the
  fixtures and on random weighted and disconnected graphs,
* return **bit-identical** matrices for every worker count, and agree
  across shard counts up to float regrouping, and
* stream top-k pruning without changing the final
  ``top_k_per_row(..., keep_diagonal=True)`` result.

Also holds the regression tests for three bugfixes:

* ``top_k_per_row(keep_diagonal=True)`` keeping ``k + 1`` entries per row,
* LocalPush returning an empty diagonal when ``ε ≥ 1/(1−c)``,
* ``SIGMA._sigmoid`` overflowing ``np.exp`` for large-magnitude logits.
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
    with_isolated as _with_isolated,
)
from repro.config import SimRankConfig
from repro.errors import SimRankError
from repro.graphs.sparse import top_k_per_row
from repro.models.sigma import _sigmoid
from repro.simrank.engine import EXECUTORS, localpush_engine
from repro.simrank.exact import linearized_simrank
from repro.simrank.localpush import localpush_reference
from repro.simrank.topk import simrank_operator

DECAY = 0.6

#: The in-process executors every equivalence assertion runs under (the
#: process executor is pinned bit-identical to them in
#: ``test_simrank_engine.py``).
CORE_EXECUTORS = ("serial", "thread")

EQUIVALENCE_GRAPHS = [
    pytest.param(lambda: _erdos_renyi(60, 0.08, seed=0), id="erdos-renyi-60"),
    pytest.param(lambda: _erdos_renyi(120, 0.05, seed=1), id="erdos-renyi-120"),
    pytest.param(lambda: _sbm(150, seed=2), id="sbm-150"),
    pytest.param(lambda: _sbm(150, seed=3, homophily=0.7), id="sbm-150-homophilous"),
    pytest.param(lambda: _weighted(40, seed=12), id="weighted-40"),
    pytest.param(_with_isolated, id="isolated-nodes"),
    pytest.param(_disconnected, id="disconnected"),
    pytest.param(lambda: _star(12), id="star-12"),
]


def _max_diff(a: sp.csr_matrix, b: sp.csr_matrix) -> float:
    return float(np.abs((a - b).toarray()).max())


def _assert_identical(a: sp.csr_matrix, b: sp.csr_matrix) -> None:
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)  # bitwise, no tolerance


class TestOracleEquivalence:
    """The dict loop is the oracle; every core executor must agree."""

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    @pytest.mark.parametrize("epsilon", [0.2, 0.05])
    @pytest.mark.parametrize("executor", CORE_EXECUTORS)
    def test_matches_oracle_within_epsilon(self, make_graph, epsilon,
                                           executor):
        graph = make_graph()
        oracle = localpush_reference(graph, epsilon=epsilon, prune=False)
        core = localpush_engine(graph, epsilon=epsilon, prune=False,
                                executor=executor)
        assert _max_diff(oracle.matrix, core.matrix) < epsilon

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    @pytest.mark.parametrize("epsilon", [0.2, 0.05])
    @pytest.mark.parametrize("executor", CORE_EXECUTORS)
    def test_operator_config_matches_oracle_within_tight_bound(
            self, make_graph, epsilon, executor):
        """Acceptance criterion: (1 − c)·ε max-norm vs the dict oracle.

        Both run the operator configuration (``absorb_residual=True``),
        which folds all sub-threshold residual mass into the estimate;
        the remaining disagreement is only the re-propagated tail,
        empirically well below ``(1 − c)·ε``.
        """
        graph = make_graph()
        oracle = localpush_reference(graph, epsilon=epsilon, prune=False,
                                     absorb_residual=True)
        core = localpush_engine(graph, epsilon=epsilon, prune=False,
                                absorb_residual=True, executor=executor)
        assert _max_diff(oracle.matrix, core.matrix) < (1.0 - DECAY) * epsilon

    @pytest.mark.parametrize("epsilon", [0.1, 0.05])
    def test_weighted_graph_equivalence(self, epsilon):
        """Oracle and core both walk W = A·D⁻¹ with *weighted* degrees."""
        graph = _weighted(40, seed=12)
        reference = linearized_simrank(graph, num_iterations=60)
        oracle = localpush_reference(graph, epsilon=epsilon, prune=False)
        core = localpush_engine(graph, epsilon=epsilon, prune=False)
        assert np.abs(oracle.matrix.toarray() - reference).max() < epsilon
        assert np.abs(core.matrix.toarray() - reference).max() < epsilon
        assert _max_diff(oracle.matrix, core.matrix) < epsilon


class TestErrorBound:
    """Lemma III.5 against the dense linearized series."""

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    @pytest.mark.parametrize("executor", CORE_EXECUTORS)
    def test_error_bound_against_linearized_series(self, make_graph, executor):
        graph = make_graph()
        reference = linearized_simrank(graph, num_iterations=60)
        result = localpush_engine(graph, epsilon=0.1, prune=False,
                                  executor=executor)
        assert np.abs(result.matrix.toarray() - reference).max() < 0.1

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    def test_oracle_error_bound(self, make_graph):
        graph = make_graph()
        reference = linearized_simrank(graph, num_iterations=60)
        result = localpush_reference(graph, epsilon=0.1, prune=False)
        assert np.abs(result.matrix.toarray() - reference).max() < 0.1

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("epsilon", [0.3, 0.1])
    def test_random_weighted_graphs(self, seed, epsilon):
        graph = _weighted(30, seed=seed, density=0.2)
        reference = linearized_simrank(graph, num_iterations=60)
        result = localpush_engine(graph, epsilon=epsilon, prune=False,
                                  executor="thread")
        assert np.abs(result.matrix.toarray() - reference).max() < epsilon

    @pytest.mark.parametrize("seed", range(3))
    def test_random_disconnected_graphs(self, seed):
        graph = _disconnected(seed=seed * 11 + 1)
        reference = linearized_simrank(graph, num_iterations=60)
        result = localpush_engine(graph, epsilon=0.1, prune=False,
                                  executor="thread")
        assert np.abs(result.matrix.toarray() - reference).max() < 0.1


class TestDeterminism:
    """Bit-identical output for every worker count — pinned, not approximate."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_do_not_change_the_matrix(self, workers):
        graph = _sbm(200, seed=5)
        reference = localpush_engine(graph, epsilon=0.05, prune=False,
                                     executor="thread", num_workers=1,
                                     num_shards=6)
        parallel = localpush_engine(graph, epsilon=0.05, prune=False,
                                    executor="thread", num_workers=workers,
                                    num_shards=6)
        _assert_identical(reference.matrix, parallel.matrix)
        assert reference.num_pushes == parallel.num_pushes
        assert reference.num_rounds == parallel.num_rounds

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_do_not_change_streamed_topk(self, workers):
        graph = _sbm(200, seed=6)
        kwargs = dict(epsilon=0.1, prune=False, absorb_residual=True,
                      stream_top_k=6, executor="thread", num_shards=5)
        reference = localpush_engine(graph, num_workers=1, **kwargs)
        parallel = localpush_engine(graph, num_workers=workers, **kwargs)
        _assert_identical(reference.matrix, parallel.matrix)

    def test_repeated_runs_are_identical(self):
        graph = _erdos_renyi(80, 0.07, seed=8)
        first = localpush_engine(graph, epsilon=0.1, prune=False,
                                 executor="thread")
        second = localpush_engine(graph, epsilon=0.1, prune=False,
                                  executor="thread")
        _assert_identical(first.matrix, second.matrix)

    @pytest.mark.parametrize("num_shards", [1, 3, 7])
    def test_shard_counts_agree_within_float_grouping(self, num_shards):
        """Shard sums regroup float additions; results agree to ~1e-12."""
        graph = _sbm(150, seed=4)
        base = localpush_engine(graph, epsilon=0.1, prune=False,
                                executor="thread", num_shards=1)
        other = localpush_engine(graph, epsilon=0.1, prune=False,
                                 executor="thread", num_shards=num_shards)
        assert _max_diff(base.matrix, other.matrix) < 1e-9


class TestStreamingTopK:
    """Streaming prune must equal pruning the fully materialised estimate."""

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    @pytest.mark.parametrize("k", [2, 8])
    def test_equals_posthoc_topk(self, make_graph, k):
        graph = make_graph()
        kwargs = dict(epsilon=0.1, prune=False, absorb_residual=True,
                      executor="thread")
        full = localpush_engine(graph, **kwargs)
        streamed = localpush_engine(graph, stream_top_k=k, **kwargs)
        expected = top_k_per_row(full.matrix, k, keep_diagonal=True)
        assert np.array_equal(streamed.matrix.indptr, expected.indptr)
        assert np.array_equal(streamed.matrix.indices, expected.indices)
        np.testing.assert_allclose(streamed.matrix.data, expected.data,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_semantics_uniform_across_executors(self, executor):
        """stream_top_k must not change meaning with the executor."""
        graph = _sbm(150, seed=17)
        result = localpush_engine(graph, epsilon=0.1, prune=False,
                                  absorb_residual=True, executor=executor,
                                  stream_top_k=5)
        assert np.diff(result.matrix.indptr).max() <= 5
        assert (result.matrix.diagonal() > 0).all()

    def test_invalid_stream_top_k_rejected_for_every_executor(self, tiny_graph):
        for executor in EXECUTORS:
            with pytest.raises(SimRankError):
                localpush_engine(tiny_graph, epsilon=0.1, executor=executor,
                                 stream_top_k=0)

    def test_row_budget_and_diagonal(self):
        graph = _sbm(150, seed=9)
        result = localpush_engine(graph, epsilon=0.1, prune=False,
                                  absorb_residual=True, executor="thread",
                                  stream_top_k=4)
        assert np.diff(result.matrix.indptr).max() <= 4
        assert (result.matrix.diagonal() > 0).all()

    def test_streamed_memory_stays_bounded(self):
        """Mid-loop the estimate must stay well below the unpruned size."""
        graph = _sbm(200, seed=10)
        k = 4
        kwargs = dict(epsilon=0.05, prune=False, absorb_residual=True,
                      executor="thread")
        full = localpush_engine(graph, **kwargs)
        streamed = localpush_engine(graph, stream_top_k=k, **kwargs)
        assert streamed.matrix.nnz <= k * graph.num_nodes
        assert streamed.matrix.nnz < full.matrix.nnz

    def test_operator_pipeline_uses_streaming(self):
        graph = _sbm(150, seed=11)
        config = SimRankConfig(method="localpush", epsilon=0.1, top_k=4)
        threaded = simrank_operator(graph, config.with_overrides(
            executor="thread"))
        serial = simrank_operator(graph, config.with_overrides(
            executor="serial"))
        assert np.diff(threaded.matrix.indptr).max() <= 4
        _assert_identical(threaded.matrix, serial.matrix)


class TestCoreParameters:
    def test_invalid_parameters(self, tiny_graph):
        for kwargs in (dict(epsilon=0.0), dict(decay=1.0),
                       dict(num_workers=0), dict(num_shards=0),
                       dict(stream_top_k=0)):
            with pytest.raises(SimRankError):
                localpush_engine(tiny_graph, executor="thread", **kwargs)
        for kwargs in (dict(epsilon=0.0), dict(decay=1.0)):
            with pytest.raises(SimRankError):
                localpush_reference(tiny_graph, **kwargs)

    @pytest.mark.parametrize("executor", CORE_EXECUTORS)
    def test_max_pushes_cap(self, executor):
        graph = _sbm(150, seed=14)
        with pytest.raises(SimRankError):
            localpush_engine(graph, epsilon=0.01, max_pushes=5,
                             executor=executor)

    def test_oracle_max_pushes_cap(self):
        with pytest.raises(SimRankError):
            localpush_reference(_sbm(150, seed=8), epsilon=0.01, max_pushes=5)

    def test_metadata(self):
        graph = _sbm(150, seed=15)
        result = localpush_engine(graph, epsilon=0.1, executor="thread",
                                  num_workers=3, num_shards=2)
        assert result.executor == "thread"
        assert result.num_workers == 3
        assert result.num_shards == 2
        assert result.num_rounds is not None and result.num_rounds > 0
        assert result.num_pushes > 0
        assert result.elapsed_seconds >= 0.0
        oracle = localpush_reference(graph, epsilon=0.1)
        assert oracle.executor is None and oracle.num_rounds is None
        assert oracle.num_pushes > 0

    @pytest.mark.parametrize("executor", CORE_EXECUTORS)
    def test_prune_keeps_offdiagonal_above_floor(self, executor):
        graph = _sbm(150, seed=16)
        result = localpush_engine(graph, epsilon=0.1, prune=True,
                                  executor=executor)
        offdiag = result.matrix.copy().tolil()
        offdiag.setdiag(0)
        values = offdiag.tocsr()
        values.eliminate_zeros()
        if values.nnz:
            assert values.data.min() >= 0.1 / 10.0

    @pytest.mark.parametrize("executor", CORE_EXECUTORS)
    def test_diagonal_always_positive(self, executor):
        for make_graph in (_with_isolated, _disconnected, lambda: _star(8)):
            result = localpush_engine(make_graph(), epsilon=0.1,
                                      executor=executor)
            assert (result.matrix.diagonal() > 0).all()


#: Both implementations of Algorithm 1, for the regressions they share.
ALGORITHMS = [
    pytest.param(localpush_reference, id="reference"),
    pytest.param(localpush_engine, id="core"),
]


class TestLargeEpsilonDiagonal:
    """Regression: ε ≥ 1/(1−c) used to return a matrix with no entries."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_diagonal_survives_suppressed_pushes(self, algorithm):
        graph = _erdos_renyi(30, 0.15, seed=10)
        # decay 0.6 → threshold = 0.4·ε ≥ 1 once ε ≥ 2.5.
        result = algorithm(graph, epsilon=3.0)
        assert (result.matrix.diagonal() > 0).all()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_diagonal_survives_without_prune(self, algorithm):
        result = algorithm(_star(5), epsilon=10.0, prune=False)
        assert (result.matrix.diagonal() > 0).all()


class TestTopKDiagonalRegression:
    """Regression: keep_diagonal used to retain k + 1 entries per row."""

    def test_rows_have_at_most_k_entries(self):
        rng = np.random.default_rng(0)
        dense = rng.random((30, 30))
        pruned = top_k_per_row(sp.csr_matrix(dense), 5, keep_diagonal=True)
        per_row = np.diff(pruned.indptr)
        assert per_row.max() <= 5
        assert (pruned.diagonal() > 0).all()

    def test_diagonal_evicts_smallest_kept_entry(self):
        row = np.array([[0.01, 0.5, 0.4, 0.3]])
        pruned = top_k_per_row(sp.csr_matrix(row), 2, keep_diagonal=True)
        dense = pruned.toarray()[0]
        # Diagonal (0.01) replaces the smallest of the top-2 (0.4).
        np.testing.assert_allclose(dense, [0.01, 0.5, 0.0, 0.0])

    def test_diagonal_already_in_topk_is_not_duplicated(self):
        row = np.array([[0.9, 0.5, 0.1, 0.2]])
        pruned = top_k_per_row(sp.csr_matrix(row), 2, keep_diagonal=True)
        assert pruned.nnz == 2
        np.testing.assert_allclose(pruned.toarray()[0], [0.9, 0.5, 0.0, 0.0])

    def test_tie_break_prefers_smaller_column(self):
        row = np.array([[0.0, 0.5, 0.5, 0.5]])
        pruned = top_k_per_row(sp.csr_matrix(row), 2)
        np.testing.assert_allclose(pruned.toarray()[0], [0.0, 0.5, 0.5, 0.0])

    def test_operator_rows_bounded_with_positive_diagonal(self):
        graph = _sbm(150, seed=11)
        operator = simrank_operator(graph, SimRankConfig(
            method="localpush", epsilon=0.1, top_k=4))
        per_row = np.diff(operator.matrix.indptr)
        assert per_row.max() <= 4
        assert (operator.matrix.diagonal() > 0).all()


class TestSigmoidStability:
    """Regression: naive 1/(1+exp(-x)) overflowed for large negative logits."""

    def test_extreme_logits_do_not_overflow(self):
        with np.errstate(over="raise", under="ignore"):
            assert _sigmoid(-1000.0) == pytest.approx(0.0)
            assert _sigmoid(1000.0) == pytest.approx(1.0)

    def test_matches_naive_form_in_stable_range(self):
        for value in np.linspace(-30, 30, 13):
            expected = 1.0 / (1.0 + np.exp(-value))
            assert _sigmoid(float(value)) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        for value in (-7.3, -0.5, 0.0, 2.2):
            assert _sigmoid(value) + _sigmoid(-value) == pytest.approx(1.0)


@pytest.mark.slow
class TestCoreStress:
    """Large-graph stress runs; excluded from the fast default selection."""

    def test_large_graph_equivalence_and_worker_determinism(self):
        graph = _sbm(2000, seed=20)
        serial = localpush_engine(graph, epsilon=0.1, prune=False,
                                  executor="serial")
        one = localpush_engine(graph, epsilon=0.1, prune=False,
                               executor="thread", num_workers=1)
        four = localpush_engine(graph, epsilon=0.1, prune=False,
                                executor="thread", num_workers=4)
        _assert_identical(one.matrix, four.matrix)
        _assert_identical(serial.matrix, one.matrix)
        assert one.num_shards >= 2  # the frontier actually sharded

    def test_large_graph_streaming_topk_bounds_memory(self):
        graph = _sbm(2000, seed=21)
        k = 8
        streamed = localpush_engine(graph, epsilon=0.1, prune=False,
                                    absorb_residual=True, executor="thread",
                                    stream_top_k=k)
        assert streamed.matrix.nnz <= k * graph.num_nodes
        assert (streamed.matrix.diagonal() > 0).all()
