"""LocalPush approximation of SimRank (Algorithm 1 of the paper).

The algorithm maintains a residual matrix ``R`` (initialised to the
identity) and an estimate ``Ŝ`` (initialised to zero).  While some pair has
residual above ``(1 - c)·ε`` it moves that residual into the estimate and
pushes ``c``-scaled fractions of it to all neighbour pairs, scaled by the
receiving pair's degrees.  The fixed point of this process is the linearized
SimRank series ``Σ_ℓ c^ℓ (W^ℓ)ᵀ W^ℓ`` of Theorem III.2, and stopping at the
``(1 - c)·ε`` threshold yields ``‖Ŝ − S‖_max < ε`` (Lemma III.5).

Entries of the estimate below ``ε / 10`` are pruned, as in the paper, so the
result stays sparse with roughly ``O(n·d²/ε)`` entries rather than ``O(n²)``.

One engine, one execution knob
------------------------------
Every computation runs on the unified core
(:func:`repro.simrank.engine.localpush_engine`): frontier-batched rounds
``R ← R + c·Wᵀ F W`` with deterministic frontier sharding, optional
streaming top-k pruning and a pluggable *executor* — ``"serial"``
(in-thread), ``"thread"`` (``ThreadPoolExecutor``) or ``"process"``
(process pool over shared-memory walk matrices).  All executors and
worker counts produce bit-identical matrices.  :func:`resolve_executor`
picks the executor when none is named: ``"serial"`` below
:data:`AUTO_SHARDED_MIN_NODES` nodes, ``"thread"`` from there up.

:func:`localpush_reference` is a per-pair queue over Python dicts, a
direct transcription of Algorithm 1.  No configuration reaches it; it is
the correctness oracle the equivalence tests and
``benchmarks/bench_localpush.py`` compare the core against, and its
Python-level loop costs ``O(d²)`` bytecode per push.

Both guarantee a strictly positive diagonal: SimRank defines
``S(u, u) = 1``, so even when ``ε`` is so large that the push threshold
``(1 - c)·ε ≥ 1`` suppresses every push, the initial diagonal residual is
folded back into the estimate rather than silently dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Literal, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import SimRankError
from repro.graphs.graph import Graph
from repro.simrank.engine import EXECUTORS, localpush_engine
from repro.simrank.exact import DEFAULT_DECAY
from repro.utils.timer import Timer

ExecutorName = Literal["serial", "thread", "process", "auto"]

#: Node count from which an unnamed (``None``/``"auto"``) executor
#: resolves to ``"thread"`` instead of ``"serial"``: push rounds become
#: large enough that splitting them across a worker pool pays for the
#: pool setup.  Pinned by the executor-selection unit tests.
AUTO_SHARDED_MIN_NODES = 4096


def resolve_executor(executor: Optional[str], num_nodes: int) -> str:
    """The unified-core executor that runs a request on ``num_nodes`` nodes.

    An explicit ``"serial"``, ``"thread"`` or ``"process"`` passes
    through; ``None`` or ``"auto"`` resolves to ``"serial"`` below
    :data:`AUTO_SHARDED_MIN_NODES` and to ``"thread"`` from there up.
    Every executor is bit-identical, so the choice is a throughput knob
    only and never enters the operator-cache key.
    """
    if executor is None or executor == "auto":
        return "thread" if num_nodes >= AUTO_SHARDED_MIN_NODES else "serial"
    if executor not in EXECUTORS:
        raise SimRankError(f"unknown LocalPush executor {executor!r}; "
                           f"expected one of {EXECUTORS} or 'auto'")
    return executor


@dataclass
class LocalPushResult:
    """Output of :func:`localpush_simrank` and :func:`localpush_reference`.

    Attributes
    ----------
    matrix:
        Sparse ``(n, n)`` approximate SimRank matrix ``Ŝ``.
    num_pushes:
        Number of residual-push operations performed (the core counts
        absorbed frontier entries, the batched analogue of a push).
    num_residual_entries:
        Number of residual entries that remained below threshold at
        termination (an indicator of the frontier size).
    elapsed_seconds:
        Wall-clock time of the push loop.
    epsilon:
        The error threshold the run was configured with.
    decay:
        The decay factor ``c``.
    executor:
        Unified-core executor used (``"serial"``, ``"thread"`` or
        ``"process"``); ``None`` for the reference loop.
    num_rounds:
        Number of frontier rounds (core only).
    num_workers:
        Worker-pool size used (thread/process executors only).
    num_shards:
        Largest per-round shard count used (core only).
    kernel:
        Resolved round-arithmetic kernel of the core (``"scipy"`` or
        ``"fused"`` — never ``"auto"``); ``None`` for the reference loop.
    dtype:
        Working precision of the run (``"float64"`` or ``"float32"``).
    """

    matrix: sp.csr_matrix
    num_pushes: int
    num_residual_entries: int
    elapsed_seconds: float
    epsilon: float
    decay: float
    executor: Optional[str] = None
    num_rounds: Optional[int] = None
    num_workers: Optional[int] = None
    num_shards: Optional[int] = None
    kernel: Optional[str] = None
    dtype: str = "float64"


def localpush_simrank(graph: Graph, *, decay: float = DEFAULT_DECAY,
                      epsilon: float = 0.1, prune: bool = True,
                      absorb_residual: bool = False,
                      max_pushes: int | None = None,
                      executor: Optional[ExecutorName] = None,
                      num_workers: int | None = None,
                      stream_top_k: int | None = None,
                      kernel: str = "auto",
                      dtype: str = "float64") -> LocalPushResult:
    """Run Algorithm 1 (LocalPush) and return the sparse approximation.

    Parameters
    ----------
    graph:
        Input graph.  Isolated nodes receive only their self-similarity.
    decay:
        SimRank decay factor ``c`` (paper default 0.6).
    epsilon:
        Max-norm error threshold ``ε``; the push loop stops once every
        residual is below ``(1 - c)·ε``.
    prune:
        Whether to drop estimate entries below ``ε / 10`` (line 6 of
        Algorithm 1).  Disable to validate the error guarantee exactly.
    absorb_residual:
        When true, leftover residual mass below the push threshold is added
        into the estimate before pruning.  This is a strict improvement of
        the approximation (each residual is a lower bound on the remaining
        contribution to its own entry) and keeps informative small scores
        that the plain algorithm would discard — the SIGMA aggregation
        operator uses this variant before its top-k pruning.
    max_pushes:
        Optional safety cap on the number of absorbed frontier entries;
        exceeding it raises :class:`SimRankError` (it indicates a
        mis-configured ε).
    executor:
        ``"serial"``, ``"thread"`` or ``"process"`` (see
        :mod:`repro.simrank.engine`), or ``None``/``"auto"`` to pick by
        node count (:func:`resolve_executor`).  Every executor and worker
        count produces a bit-identical matrix.
    num_workers:
        Worker-pool size for the thread/process executors; ignored by
        the serial executor.
    stream_top_k:
        Prune the returned matrix to the ``k`` largest entries per row
        with ``top_k_per_row(..., keep_diagonal=True)`` semantics,
        streamed into the push loop (bounded memory).
    kernel:
        Round arithmetic: ``"scipy"`` (historical CSR-object path),
        ``"fused"`` (raw-array kernel with reused workspaces) or
        ``"auto"`` (≡ ``"fused"``).  Every kernel is bit-identical per
        dtype, so the choice is purely a speed knob (cache-key exempt).
    dtype:
        ``"float64"`` (default, the reference precision) or
        ``"float32"`` — an opt-in low-memory mode with an adjusted error
        bound (see :func:`repro.simrank.kernels.float32_error_bound`).
    """
    return localpush_engine(
        graph, decay=decay, epsilon=epsilon, prune=prune,
        absorb_residual=absorb_residual, max_pushes=max_pushes,
        executor=resolve_executor(executor, graph.num_nodes),
        num_workers=num_workers, stream_top_k=stream_top_k, kernel=kernel,
        dtype=dtype)


def localpush_reference(graph: Graph, *, decay: float = DEFAULT_DECAY,
                        epsilon: float = 0.1, prune: bool = True,
                        absorb_residual: bool = False,
                        max_pushes: int | None = None) -> LocalPushResult:
    """Algorithm 1 as a per-pair queue over Python dicts: the oracle.

    Same parameters and ``‖Ŝ − S‖_max < ε`` guarantee as
    :func:`localpush_simrank` in float64, but one pair is pushed at a
    time, in queue order, so its values differ from the core's
    frontier-batched rounds by less than ``ε``.  No configuration or
    executor ladder dispatches here; the equivalence tests and the
    LocalPush micro-benchmark call it directly.
    """
    if not 0.0 < decay < 1.0:
        raise SimRankError(f"decay factor c must be in (0, 1), got {decay}")
    if epsilon <= 0.0:
        raise SimRankError(f"epsilon must be positive, got {epsilon}")
    n = graph.num_nodes
    adjacency = graph.adjacency
    indptr, indices, weights = adjacency.indptr, adjacency.indices, adjacency.data
    # Weighted degrees (column sums == row sums for a symmetric adjacency),
    # matching the walk matrix W = A D⁻¹ of the dense references and the
    # core; on 0/1 graphs this is the plain neighbour count.
    degrees = np.asarray(adjacency.sum(axis=0)).ravel()
    threshold = (1.0 - decay) * epsilon

    estimate: Dict[Tuple[int, int], float] = {}
    residual: Dict[Tuple[int, int], float] = {}
    queue: deque[Tuple[int, int]] = deque()
    queued: set[Tuple[int, int]] = set()

    for node in range(n):
        pair = (node, node)
        residual[pair] = 1.0
        if 1.0 > threshold:
            queue.append(pair)
            queued.add(pair)

    num_pushes = 0
    timer = Timer()
    timer.start()
    while queue:
        pair = queue.popleft()
        queued.discard(pair)
        value = residual.get(pair, 0.0)
        if value <= threshold:
            continue
        u, v = pair
        estimate[pair] = estimate.get(pair, 0.0) + value
        residual[pair] = 0.0
        num_pushes += 1
        if max_pushes is not None and num_pushes > max_pushes:
            raise SimRankError(
                f"LocalPush exceeded max_pushes={max_pushes}; "
                "epsilon is likely too small for this graph"
            )
        u_neighbors = indices[indptr[u]:indptr[u + 1]]
        v_neighbors = indices[indptr[v]:indptr[v + 1]]
        if u_neighbors.size == 0 or v_neighbors.size == 0:
            continue
        u_weights = weights[indptr[u]:indptr[u + 1]]
        v_weights = weights[indptr[v]:indptr[v + 1]]
        scaled = decay * value
        for u_next, u_weight in zip(u_neighbors, u_weights):
            walk_u = u_weight / degrees[u_next]      # W[u, u_next]
            for v_next, v_weight in zip(v_neighbors, v_weights):
                amount = scaled * walk_u * v_weight / degrees[v_next]
                next_pair = (int(u_next), int(v_next))
                new_value = residual.get(next_pair, 0.0) + amount
                residual[next_pair] = new_value
                if new_value > threshold and next_pair not in queued:
                    queue.append(next_pair)
                    queued.add(next_pair)
    elapsed = timer.stop()

    if absorb_residual:
        for pair, value in residual.items():
            if value > 0.0:
                estimate[pair] = estimate.get(pair, 0.0) + value

    # SimRank defines S(u, u) = 1, so every node must keep a positive
    # diagonal even when the threshold (1-c)·ε ≥ 1 suppresses all pushes:
    # fold the untouched diagonal residual back into the estimate.
    for node in range(n):
        pair = (node, node)
        if estimate.get(pair, 0.0) <= 0.0:
            value = residual.get(pair, 0.0)
            if value > 0.0:
                estimate[pair] = estimate.get(pair, 0.0) + value

    if prune:
        floor = epsilon / 10.0
        estimate = {pair: value for pair, value in estimate.items()
                    if value >= floor or pair[0] == pair[1]}

    matrix = _pairs_to_csr(estimate, n)
    leftover = sum(1 for value in residual.values() if value > 0.0)
    return LocalPushResult(
        matrix=matrix,
        num_pushes=num_pushes,
        num_residual_entries=leftover,
        elapsed_seconds=elapsed,
        epsilon=epsilon,
        decay=decay,
    )


def finalize_estimate(estimate: sp.csr_matrix, residual: sp.csr_matrix, *,
                      epsilon: float, prune: bool) -> sp.csr_matrix:
    """Shared post-loop finalisation of the batched engines' estimates.

    Restores any missing diagonal from the untouched residual mass
    (SimRank defines ``S(u, u) = 1``, so every node keeps a positive
    diagonal even when the threshold ``(1-c)·ε ≥ 1`` suppressed all
    pushes) and applies the paper's ``ε / 10`` floor prune, never dropping
    the diagonal.  Kept in one place so the fresh, single-source and
    dynamic-maintenance paths cannot drift apart in these semantics.
    """
    from repro.graphs.sparse import csr_row_indices

    diagonal = estimate.diagonal()
    missing = diagonal <= 0.0
    if missing.any():
        residual_diagonal = residual.diagonal()
        # The typed zero keeps float32 estimates float32 (a bare Python
        # 0.0 would promote the fill — and then the sum — to float64 on
        # pre-NEP-50 numpy).
        fill = np.where(missing, residual_diagonal,
                        residual_diagonal.dtype.type(0.0))
        estimate = (estimate + sp.diags(fill, format="csr")).tocsr()
    if prune:
        floor = epsilon / 10.0
        rows = csr_row_indices(estimate)
        keep = (estimate.data >= floor) | (rows == estimate.indices)
        estimate.data[~keep] = 0.0
        estimate.eliminate_zeros()
    estimate.sort_indices()
    return estimate


def _pairs_to_csr(entries: Dict[Tuple[int, int], float], n: int) -> sp.csr_matrix:
    if not entries:
        return sp.csr_matrix((n, n))
    rows = np.fromiter((pair[0] for pair in entries), dtype=np.int64, count=len(entries))
    cols = np.fromiter((pair[1] for pair in entries), dtype=np.int64, count=len(entries))
    data = np.fromiter(entries.values(), dtype=np.float64, count=len(entries))
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    matrix.sort_indices()
    return matrix


__all__ = ["localpush_simrank", "localpush_reference", "LocalPushResult",
           "ExecutorName", "resolve_executor", "finalize_estimate",
           "AUTO_SHARDED_MIN_NODES"]
