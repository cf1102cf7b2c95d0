"""Unified LocalPush engine core with pluggable shard executors.

This module owns the *single* implementation of the batched LocalPush
loop (Algorithm 1 of the paper, frontier-batched form).  Runs differ
only in **how the per-round shard pushes are executed**, a pluggable
*executor* strategy:

``executor="serial"``
    Shards are pushed one after another in the calling thread; a
    frontier small enough for one shard is pushed with a single sparse
    matmul.
``executor="thread"``
    Shards are pushed by a :class:`concurrent.futures.ThreadPoolExecutor`.
    scipy's sparse matmul holds the GIL, so this mainly overlaps
    allocation and bookkeeping.
``executor="process"``
    Shards are pushed by a process pool.  The CSR arrays of the walk
    matrix ``W`` (and ``Wᵀ``) are placed in
    :mod:`multiprocessing.shared_memory` segments once per run; each
    worker process attaches zero-copy views, so only the (small) shard
    frontiers and the partial results cross the process boundary.  This
    is the executor that scales past the GIL on multi-core CPython.

Every round works on the same deterministic plan:

1. gather the above-threshold frontier from the CSR residual,
2. absorb it into the estimate,
3. partition it into shards ``F = Σ_i F_i`` — the partition is a
   function of the frontier alone (``num_shards`` fixed by the caller or
   derived from the frontier size), **never** of the executor or worker
   count,
4. hand the shards to the executor and merge the partial updates
   ``c·Wᵀ F_i W`` *in shard order*, no matter which worker finished
   first.

Because the push operator is linear in ``F`` and the shard partition and
merge order are executor-independent, the returned matrix is
**bit-identical for every executor and every worker count** — the
property the operator cache relies on (its key excludes both knobs) and
the equivalence suite pins.  The error-bound arguments (the residual
invariant and the streaming top-k prune's ``‖R‖_max/(1−c)`` correction
bound) are in the module docstring of :mod:`repro.simrank`; the
post-loop diagonal restore and ``ε/10`` floor are
:func:`repro.simrank.localpush.finalize_estimate`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import SimRankError
from repro.graphs.graph import Graph
from repro.graphs.normalize import column_normalize
from repro.graphs.sparse import csr_row_indices as _csr_rows
from repro.graphs.sparse import top_k_per_row
from repro.simrank.exact import DEFAULT_DECAY
from repro.simrank.kernels import (DTYPES, KERNELS, PhaseProfile, Shard,
                                   make_round_state, resolve_kernel,
                                   shard_bounds, working_dtype)
from repro.utils.timer import Timer

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.simrank.localpush import LocalPushResult

#: Target number of frontier entries per shard when ``num_shards`` is not
#: given.  Chosen so a shard's ``Wᵀ F_i W`` stays comfortably inside cache
#: while leaving enough shards to occupy a small worker pool.
DEFAULT_SHARD_NNZ = 8192

#: Upper bound applied to the default worker count.
DEFAULT_MAX_WORKERS = 4

#: Executor names accepted by :func:`localpush_engine`.
EXECUTORS = ("serial", "thread", "process")


def default_num_workers() -> int:
    """Worker count used when ``num_workers`` is not specified."""
    return max(1, min(DEFAULT_MAX_WORKERS, os.cpu_count() or 1))


def _push_matrix(walk_t: sp.csr_matrix, walk: sp.csr_matrix,
                 shard: sp.csr_matrix, decay: float) -> sp.csr_matrix:
    """One shard matrix's partial update ``c·Wᵀ F_i W`` (pure)."""
    pushed = ((walk_t @ shard) @ walk).tocsr()
    pushed.data *= decay
    return pushed


def _push_shard(walk_t: sp.csr_matrix, walk: sp.csr_matrix,
                rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
                n: int, decay: float) -> sp.csr_matrix:
    """One shard's partial update ``c·Wᵀ F_i W`` (pure, order-independent)."""
    shard = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return _push_matrix(walk_t, walk, shard, decay)


# --------------------------------------------------------------------- #
# Executor strategies
# --------------------------------------------------------------------- #
class _SerialExecutor:
    """Push shards one by one in the calling thread."""

    name = "serial"
    wants_triplets = False
    workers_used: Optional[int] = None

    def __init__(self, walk: sp.csr_matrix, walk_t: sp.csr_matrix,
                 n: int, decay: float) -> None:
        self._walk, self._walk_t = walk, walk_t
        self._n, self._decay = n, decay

    def push_round(self, shards: Sequence[Shard]) -> List[sp.csr_matrix]:
        return [_push_shard(self._walk_t, self._walk, rows, cols, data,
                            self._n, self._decay)
                for rows, cols, data in shards]

    def push_round_matrices(self, matrices: Sequence[sp.csr_matrix]
                            ) -> List[sp.csr_matrix]:
        return [_push_matrix(self._walk_t, self._walk, matrix, self._decay)
                for matrix in matrices]

    def close(self) -> None:
        pass


class _ThreadExecutor(_SerialExecutor):
    """Push shards on a thread pool; single-shard rounds run inline."""

    name = "thread"

    def __init__(self, walk: sp.csr_matrix, walk_t: sp.csr_matrix,
                 n: int, decay: float, workers: int) -> None:
        super().__init__(walk, walk_t, n, decay)
        self.workers_used = workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers_used)
        return self._pool

    def push_round(self, shards: Sequence[Shard]) -> List[sp.csr_matrix]:
        if self.workers_used == 1 or len(shards) <= 1:
            return super().push_round(shards)
        pool = self._ensure_pool()
        futures = [pool.submit(_push_shard, self._walk_t, self._walk,
                               rows, cols, data, self._n, self._decay)
                   for rows, cols, data in shards]
        return [future.result() for future in futures]

    def push_round_matrices(self, matrices: Sequence[sp.csr_matrix]
                            ) -> List[sp.csr_matrix]:
        if self.workers_used == 1 or len(matrices) <= 1:
            return super().push_round_matrices(matrices)
        pool = self._ensure_pool()
        futures = [pool.submit(_push_matrix, self._walk_t, self._walk,
                               matrix, self._decay) for matrix in matrices]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# Per-worker-process state: the walk matrices rebuilt as zero-copy views
# over the parent's shared-memory segments (set by _process_worker_init).
_PROCESS_STATE: dict = {}


def _process_worker_init(spec: dict) -> None:
    """Attach a worker process to the parent's shared walk matrices."""
    from multiprocessing import resource_tracker, shared_memory

    segments = []
    arrays = {}
    # The parent owns the segments and unlinks them at close; suppress the
    # attach-side resource_tracker registration (a per-attach register with
    # no matching unregister — removed upstream only in 3.13's track=False)
    # so the shared tracker neither warns about "leaked" segments nor
    # double-frees them.
    original_register = resource_tracker.register

    def _register(name: str, rtype: str) -> None:  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original_register(name, rtype)

    resource_tracker.register = _register
    try:
        for field, (name, dtype, length) in spec["arrays"].items():
            segment = shared_memory.SharedMemory(name=name)
            segments.append(segment)
            arrays[field] = np.ndarray((length,), dtype=np.dtype(dtype),
                                       buffer=segment.buf)
    finally:
        resource_tracker.register = original_register
    n = spec["n"]
    walk = sp.csr_matrix(
        (arrays["walk_data"], arrays["walk_indices"], arrays["walk_indptr"]),
        shape=(n, n))
    walk_t = sp.csr_matrix(
        (arrays["walk_t_data"], arrays["walk_t_indices"],
         arrays["walk_t_indptr"]), shape=(n, n))
    _PROCESS_STATE.update(walk=walk, walk_t=walk_t, n=n,
                          decay=spec["decay"], segments=segments)


def _process_push_shard(rows: np.ndarray, cols: np.ndarray,
                        data: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                                   np.ndarray]:
    """Worker-side shard push against the shared walk matrices."""
    n = _PROCESS_STATE["n"]
    pushed = _push_shard(_PROCESS_STATE["walk_t"], _PROCESS_STATE["walk"],
                         rows, cols, data, n, _PROCESS_STATE["decay"])
    return pushed.data, pushed.indices, pushed.indptr


class _ProcessExecutor(_SerialExecutor):
    """Push shards on a process pool over shared-memory walk matrices.

    The pool and the shared-memory segments are created lazily on the
    first multi-shard round, so small runs (every round fits one shard)
    never pay the fork/attach cost — and remain bit-identical, because
    single-shard rounds are computed inline by every executor.

    ``wants_triplets`` steers the fused kernel back to (rows, cols, data)
    chunks for multi-shard rounds: zero-copy CSR views cannot cross the
    process boundary, and the triplet rebuild is exactly what the
    shared-memory workers already implement.
    """

    name = "process"
    wants_triplets = True

    def __init__(self, walk: sp.csr_matrix, walk_t: sp.csr_matrix,
                 n: int, decay: float, workers: int) -> None:
        super().__init__(walk, walk_t, n, decay)
        self.workers_used = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._segments: list = []

    def _start_pool(self) -> None:
        from multiprocessing import shared_memory

        spec_arrays = {}
        for field, array in (
                ("walk_data", self._walk.data),
                ("walk_indices", self._walk.indices),
                ("walk_indptr", self._walk.indptr),
                ("walk_t_data", self._walk_t.data),
                ("walk_t_indices", self._walk_t.indices),
                ("walk_t_indptr", self._walk_t.indptr)):
            array = np.ascontiguousarray(array)
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, array.nbytes))
            view = np.ndarray(array.shape, dtype=array.dtype,
                              buffer=segment.buf)
            view[:] = array
            self._segments.append(segment)
            spec_arrays[field] = (segment.name, array.dtype.str, array.shape[0])
        spec = {"arrays": spec_arrays, "n": self._n, "decay": self._decay}
        methods = mp.get_all_start_methods()
        context = mp.get_context("fork" if "fork" in methods else "spawn")
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers_used, mp_context=context,
            initializer=_process_worker_init, initargs=(spec,))

    def push_round(self, shards: Sequence[Shard]) -> List[sp.csr_matrix]:
        if len(shards) <= 1:
            return _SerialExecutor.push_round(self, shards)
        if self._pool is None:
            self._start_pool()
        futures = [self._pool.submit(_process_push_shard, rows, cols, data)
                   for rows, cols, data in shards]
        partials = []
        for future in futures:
            data, indices, indptr = future.result()
            partials.append(sp.csr_matrix((data, indices, indptr),
                                          shape=(self._n, self._n)))
        return partials

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for segment in self._segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []


def _make_executor(name: str, walk: sp.csr_matrix, walk_t: sp.csr_matrix,
                   n: int, decay: float,
                   num_workers: Optional[int]) -> "_SerialExecutor":
    if name == "serial":
        return _SerialExecutor(walk, walk_t, n, decay)
    workers = num_workers if num_workers is not None else default_num_workers()
    if name == "thread":
        return _ThreadExecutor(walk, walk_t, n, decay, workers)
    if name == "process":
        return _ProcessExecutor(walk, walk_t, n, decay, workers)
    raise SimRankError(f"unknown LocalPush executor {name!r}; "
                       f"expected one of {EXECUTORS}")


# --------------------------------------------------------------------- #
# The engine core
# --------------------------------------------------------------------- #
@dataclass
class _EngineRun:
    """Raw outcome of one push-round loop, before result packaging."""

    estimate: sp.csr_matrix
    num_pushes: int
    num_rounds: int
    num_residual_entries: int
    elapsed_seconds: float
    workers_used: Optional[int]
    max_shards_used: int
    kernel_used: str
    #: Final residual, attached only when the caller asked to keep it
    #: (``keep_residual=True`` — the dynamic-maintenance path).
    residual: Optional[sp.csr_matrix] = None


def _validate_engine_args(decay: float, epsilon: float, executor: str,
                          num_workers: Optional[int],
                          num_shards: Optional[int],
                          stream_top_k: Optional[int],
                          kernel: str = "auto",
                          dtype: str = "float64") -> None:
    if not 0.0 < decay < 1.0:
        raise SimRankError(f"decay factor c must be in (0, 1), got {decay}")
    if epsilon <= 0.0:
        raise SimRankError(f"epsilon must be positive, got {epsilon}")
    if executor not in EXECUTORS:
        raise SimRankError(f"unknown LocalPush executor {executor!r}; "
                           f"expected one of {EXECUTORS}")
    if kernel not in KERNELS:
        raise SimRankError(f"unknown LocalPush kernel {kernel!r}; "
                           f"expected one of {KERNELS}")
    if dtype not in DTYPES:
        raise SimRankError(f"unknown LocalPush dtype {dtype!r}; "
                           f"expected one of {DTYPES}")
    if num_workers is not None and num_workers < 1:
        raise SimRankError(f"num_workers must be >= 1, got {num_workers}")
    if num_shards is not None and num_shards < 1:
        raise SimRankError(f"num_shards must be >= 1, got {num_shards}")
    if stream_top_k is not None and stream_top_k < 1:
        raise SimRankError(f"stream_top_k must be >= 1, got {stream_top_k}")


def _seed_residual(n: int, seed_nodes: Optional[np.ndarray],
                   dtype: np.dtype = np.dtype(np.float64)) -> sp.csr_matrix:
    """Initial residual: the identity restricted to ``seed_nodes``.

    ``seed_nodes=None`` seeds every node (the all-pairs run).  A restricted
    seed set is exact for the seeded nodes' connected components: the
    push operator ``c·Wᵀ F W`` never creates an entry ``(a, b)`` with
    ``a`` and ``b`` outside the components the mass started in, so seeds
    from other components contribute nothing to the restricted rows.
    """
    if seed_nodes is None:
        return sp.identity(n, dtype=dtype, format="csr")
    counts = np.zeros(n, dtype=np.int64)
    counts[seed_nodes] = 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    data = np.ones(seed_nodes.size, dtype=dtype)
    return sp.csr_matrix((data, seed_nodes.astype(np.int64, copy=False),
                          indptr), shape=(n, n))


def _run_rounds(graph: Graph, *, decay: float, epsilon: float, prune: bool,
                absorb_residual: bool, max_pushes: Optional[int],
                executor: str, num_workers: Optional[int],
                num_shards: Optional[int], stream_top_k: Optional[int],
                coalesce_every: int,
                seed_nodes: Optional[np.ndarray] = None,
                absorb_rows: Optional[np.ndarray] = None,
                kernel: str = "auto", dtype: str = "float64",
                profile: Optional[PhaseProfile] = None,
                initial_residual: Optional[sp.csr_matrix] = None,
                copy_residual: bool = True,
                signed: bool = False, finalize: bool = True,
                keep_residual: bool = False) -> _EngineRun:
    """The shared frontier-batched round loop.

    The per-round CSR arithmetic is delegated to a *round state* from
    :mod:`repro.simrank.kernels` (``kernel`` selects which; every kernel
    is bit-identical per ``dtype``); this loop owns the round plan —
    extract, absorb, shard, push, coalesce, prune — and the accounting.

    ``seed_nodes``/``absorb_rows`` are the single-source restriction
    hooks: the residual starts as the identity restricted to
    ``seed_nodes`` (``None`` = all nodes) and only estimate entries whose
    row is in ``absorb_rows`` are materialised (``None`` = all rows).
    Every arithmetic operation on an absorbed row is identical to the
    unrestricted run whenever the shard partitions coincide — CSR
    matmul, addition, thresholding and duplicate folding are all per-row
    independent — which is what makes single-source rows bit-identical
    to the all-pairs rows (see ``single_source_localpush`` for the
    precise guarantee).

    Streaming top-k runs in-loop only for unrestricted runs; restricted
    runs accumulate triplets and apply the identical
    ``top_k_per_row(..., keep_diagonal=True)`` semantics post hoc.

    The dynamic-maintenance hooks (all defaulted off, leaving every
    fresh run bit-identical to the pre-hook loop):

    ``initial_residual``
        Warm-start residual replacing the identity seeding — the repair
        residual of :mod:`repro.dynamic`.  Copied before use; the
        caller's matrix is never mutated.
    ``signed``
        Magnitude-threshold frontier extraction (``|R| > threshold``)
        for residuals that carry negative mass; excludes streaming
        top-k, whose prune slack assumes non-negative residuals.
    ``finalize``
        ``False`` skips :func:`finalize_estimate` (diagonal restore and
        ε/10 floor) so the returned estimate is the raw absorbed
        frontier sum — the quantity the repair algebra adds to a
        maintained estimate.
    ``keep_residual``
        Attach the final residual to the returned :class:`_EngineRun`.
    """
    from repro.simrank.localpush import finalize_estimate

    if signed and stream_top_k is not None:
        raise SimRankError(
            "signed (repair) runs cannot stream top-k: the streaming "
            "prune's slack bound assumes a non-negative residual")

    n = graph.num_nodes
    threshold = (1.0 - decay) * epsilon
    np_dtype = working_dtype(dtype)
    walk = column_normalize(graph.adjacency)     # W = A D⁻¹
    if walk.dtype != np_dtype:
        walk = walk.astype(np_dtype)
    walk_t = walk.T.tocsr()
    runner = _make_executor(executor, walk, walk_t, n, decay, num_workers)

    if initial_residual is not None:
        residual = sp.csr_matrix(initial_residual, dtype=np_dtype,
                                 copy=copy_residual)
        if residual.shape != (n, n):
            raise SimRankError(
                f"initial residual must have shape {(n, n)}, "
                f"got {residual.shape}")
        residual.sort_indices()
        residual.eliminate_zeros()
    else:
        residual = _seed_residual(n, seed_nodes, np_dtype)
    state = make_round_state(resolve_kernel(kernel), residual, n=n,
                             dtype=np_dtype,
                             index_dtype=walk.indices.dtype,
                             profile=profile, signed=signed)
    state.set_flush_cadence(coalesce_every)
    streaming = stream_top_k is not None and absorb_rows is None
    absorb_mask: Optional[np.ndarray] = None
    if absorb_rows is not None:
        absorb_mask = np.zeros(n, dtype=bool)
        absorb_mask[absorb_rows] = True
    # The materialised running estimate is only needed when the streaming
    # prune inspects it in-loop; otherwise absorbed frontiers are
    # accumulated as COO triplets and coalesced once at the end.
    est_rows: list[np.ndarray] = []
    est_cols: list[np.ndarray] = []
    est_data: list[np.ndarray] = []

    num_pushes = 0
    num_rounds = 0
    max_shards_used = 0
    timer = Timer()
    timer.start()
    try:
        while True:
            if profile is not None:
                # Round marker for span-emitting profiles (telemetry):
                # a plain accumulating PhaseProfile ignores it.  Metadata
                # only — it cannot influence the arithmetic.
                profile.begin_round(num_rounds)
            frontier = state.extract_frontier(threshold)
            if frontier is None:
                break
            count = frontier.count

            # Absorb the frontier into the estimate (line 4 of Algorithm 1,
            # batched); the round state has already cleared it from the
            # residual.
            if streaming:
                state.absorb_stream(frontier)
            elif absorb_mask is not None:
                keep = absorb_mask[frontier.rows]
                if keep.any():
                    est_rows.append(frontier.rows[keep])
                    est_cols.append(frontier.cols[keep])
                    est_data.append(frontier.data[keep])
            else:
                est_rows.append(frontier.rows)
                est_cols.append(frontier.cols)
                est_data.append(frontier.data)
            num_pushes += count
            if max_pushes is not None and num_pushes > max_pushes:
                raise SimRankError(
                    f"LocalPush exceeded max_pushes={max_pushes}; "
                    "epsilon is likely too small for this graph"
                )

            # Shard the frontier by stored-entry ranges.  The partition is
            # a function of the frontier only, never of the kernel,
            # executor or worker count.
            shards = num_shards if num_shards is not None else max(
                1, -(-count // DEFAULT_SHARD_NNZ))
            shards = min(shards, count)
            max_shards_used = max(max_shards_used, shards)
            bounds = shard_bounds(count, shards)

            state.push_round(runner, frontier, bounds)
            num_rounds += 1
            if num_rounds % coalesce_every == 0:
                state.coalesce()

            if streaming:
                assert stream_top_k is not None
                state.stream_prune(stream_top_k, decay)
    finally:
        runner.close()
    residual, stream_estimate = state.finish(streaming, stream_top_k, decay)
    residual.eliminate_zeros()
    elapsed = timer.stop()

    if streaming:
        assert stream_estimate is not None
        estimate = stream_estimate
    else:
        estimate = sp.csr_matrix((n, n), dtype=np_dtype)
    if not streaming and est_data:
        estimate = sp.coo_matrix(
            (np.concatenate(est_data),
             (np.concatenate(est_rows), np.concatenate(est_cols))),
            shape=(n, n),
        ).tocsr()  # COO→CSR sums duplicate frontier absorptions

    if absorb_residual and residual.nnz:
        rows = _csr_rows(residual)
        positive = residual.data > 0.0
        if absorb_mask is not None:
            positive &= absorb_mask[rows]
        if positive.any():
            leftover_mass = sp.csr_matrix(
                (residual.data[positive].copy(),
                 (rows[positive],
                  residual.indices[positive].astype(np.int64, copy=False))),
                shape=(n, n))
            estimate = estimate + leftover_mass

    if finalize:
        estimate = finalize_estimate(estimate, residual, epsilon=epsilon,
                                     prune=prune)

    if stream_top_k is not None:
        # Exact top_k_per_row semantics over the surviving superset: equal
        # to pruning the full estimate, because streamed drops were
        # provably outside the final top-k.  Restricted runs reach here
        # with the full (un-streamed) absorbed rows, so this is simply
        # the post-hoc prune.
        estimate = top_k_per_row(estimate, stream_top_k, keep_diagonal=True)

    if signed:
        leftover = int(residual.nnz)  # eliminate_zeros ran: all nonzero
    else:
        leftover = int(np.count_nonzero(residual.data > 0.0))
    return _EngineRun(
        estimate=estimate,
        num_pushes=num_pushes,
        num_rounds=num_rounds,
        num_residual_entries=leftover,
        elapsed_seconds=elapsed,
        workers_used=runner.workers_used,
        max_shards_used=max_shards_used,
        kernel_used=state.kernel,
        residual=residual if keep_residual else None,
    )


def localpush_engine(graph: Graph, *, decay: float = DEFAULT_DECAY,
                     epsilon: float = 0.1, prune: bool = True,
                     absorb_residual: bool = False,
                     max_pushes: int | None = None,
                     executor: str = "serial",
                     num_workers: Optional[int] = None,
                     num_shards: Optional[int] = None,
                     stream_top_k: Optional[int] = None,
                     coalesce_every: int = 4,
                     kernel: str = "auto", dtype: str = "float64",
                     profile: Optional[PhaseProfile] = None
                     ) -> "LocalPushResult":
    """Run the batched LocalPush round loop with a pluggable executor.

    Parameters mirror :func:`repro.simrank.localpush.localpush_simrank`
    (which resolves the executor and dispatches here), plus:

    executor:
        ``"serial"``, ``"thread"`` or ``"process"`` — how the per-round
        shard pushes are executed.  The result is bit-identical for
        every executor and worker count (see the module docstring), so
        this is purely a throughput knob.
    kernel:
        ``"auto"``, ``"scipy"`` or ``"fused"`` — how the
        per-round CSR arithmetic is carried out (see
        :mod:`repro.simrank.kernels`).  Bit-identical per ``dtype`` for
        every kernel, so — like ``executor`` — purely a throughput knob.
    dtype:
        ``"float64"`` (default) or ``"float32"``.  float32 halves the
        working-set memory at the cost of a slightly enlarged error
        bound (:func:`repro.simrank.kernels.float32_error_bound`) and a
        separate operator-cache key.
    profile:
        Optional :class:`repro.simrank.kernels.PhaseProfile` that
        accumulates per-phase seconds (frontier/push/merge/prune) for
        benchmarking; ``None`` keeps the loop unmeasured.
    num_workers:
        Pool size for the thread/process executors (ignored by
        ``"serial"``); defaults to :func:`default_num_workers`.
    num_shards:
        Fixed shard count per round.  Defaults to
        ``ceil(frontier_nnz / DEFAULT_SHARD_NNZ)``, recomputed per round
        from the frontier alone so results stay independent of the
        executor and pool size.
    stream_top_k:
        When given, stream top-k pruning into the round loop (bounded
        ``O(k·n)`` memory) and return the matrix already pruned with
        :func:`repro.graphs.sparse.top_k_per_row` semantics
        (``keep_diagonal=True``); matches pruning the fully materialised
        estimate exactly.
    """
    from repro.simrank.localpush import LocalPushResult

    _validate_engine_args(decay, epsilon, executor, num_workers, num_shards,
                          stream_top_k, kernel, dtype)
    run = _run_rounds(graph, decay=decay, epsilon=epsilon, prune=prune,
                      absorb_residual=absorb_residual, max_pushes=max_pushes,
                      executor=executor, num_workers=num_workers,
                      num_shards=num_shards, stream_top_k=stream_top_k,
                      coalesce_every=coalesce_every, kernel=kernel,
                      dtype=dtype, profile=profile)
    return LocalPushResult(
        matrix=run.estimate,
        num_pushes=run.num_pushes,
        num_residual_entries=run.num_residual_entries,
        elapsed_seconds=run.elapsed_seconds,
        epsilon=epsilon,
        decay=decay,
        executor=executor,
        num_rounds=run.num_rounds,
        num_workers=run.workers_used,
        num_shards=run.max_shards_used,
        kernel=run.kernel_used,
        dtype=dtype,
    )


# --------------------------------------------------------------------- #
# Warm-started (repair) runs
# --------------------------------------------------------------------- #
@dataclass
class ResumeRun:
    """Outcome of a warm-started round loop (:func:`resume_localpush`).

    ``estimate_delta`` is the raw absorbed frontier sum of the resumed
    rounds — no diagonal restore, no ε/10 floor — i.e. the correction a
    maintained estimate adds to itself.  ``residual`` is the final
    residual with every entry magnitude ``≤ (1−c)·ε``.
    """

    estimate_delta: sp.csr_matrix
    residual: sp.csr_matrix
    num_pushes: int
    num_rounds: int
    num_residual_entries: int
    elapsed_seconds: float
    workers_used: Optional[int]
    max_shards_used: int
    kernel_used: str


def resume_localpush(graph: Graph, initial_residual: sp.csr_matrix, *,
                     decay: float = DEFAULT_DECAY, epsilon: float = 0.1,
                     max_pushes: Optional[int] = None,
                     executor: str = "serial",
                     num_workers: Optional[int] = None,
                     num_shards: Optional[int] = None,
                     coalesce_every: int = 4, kernel: str = "auto",
                     dtype: str = "float64",
                     copy_residual: bool = True,
                     profile: Optional[PhaseProfile] = None) -> ResumeRun:
    """Resume the round loop from an explicit (possibly signed) residual.

    This is the engine entry point of the dynamic subsystem
    (:mod:`repro.dynamic`): given a residual ``R₀`` that restores the
    LocalPush invariant ``Ŝ + G(R₀) = S`` for some maintained estimate
    ``Ŝ`` on ``graph``, it runs the standard frontier rounds — any
    ``kernel`` × ``executor`` × worker count, same shard plan, same
    bit-determinism argument — in *signed* mode (``|R| > (1−c)·ε``
    frontier threshold, since repair residuals carry negative mass for
    deleted edges) until convergence.  ``Ŝ + estimate_delta`` then
    satisfies the same ``(1−c)·ε`` residual bound, and hence the same
    ``< ε`` error bound, as a fresh run (see the :mod:`repro.dynamic`
    package docstring for the algebra).

    The caller's ``initial_residual`` is copied, never mutated — unless
    ``copy_residual=False``, which hands the matrix's buffers to the
    round loop (the dynamic operator passes a residual it just built and
    owns; the defensive copy is measurable at repair latencies).
    Streaming top-k and the single-source restrictions do not apply to
    repair runs.
    """
    _validate_engine_args(decay, epsilon, executor, num_workers, num_shards,
                          None, kernel, dtype)
    run = _run_rounds(graph, decay=decay, epsilon=epsilon, prune=False,
                      absorb_residual=False, max_pushes=max_pushes,
                      executor=executor, num_workers=num_workers,
                      num_shards=num_shards, stream_top_k=None,
                      coalesce_every=coalesce_every, kernel=kernel,
                      dtype=dtype, profile=profile,
                      initial_residual=initial_residual,
                      copy_residual=copy_residual, signed=True,
                      finalize=False, keep_residual=True)
    assert run.residual is not None
    return ResumeRun(
        estimate_delta=run.estimate,
        residual=run.residual,
        num_pushes=run.num_pushes,
        num_rounds=run.num_rounds,
        num_residual_entries=run.num_residual_entries,
        elapsed_seconds=run.elapsed_seconds,
        workers_used=run.workers_used,
        max_shards_used=run.max_shards_used,
        kernel_used=run.kernel_used,
    )


# --------------------------------------------------------------------- #
# Single-source / single-pair queries
# --------------------------------------------------------------------- #
@dataclass
class SingleSourceResult:
    """One source row of the SimRank matrix, with the run's telemetry.

    ``row`` is a ``1×n`` CSR matrix holding row ``source`` of the
    estimate ``Ŝ`` with ``‖Ŝ[source] − S[source]‖_max < ε`` (same Lemma
    III.5 bound as the all-pairs engine).  Batch queries share one round
    loop, so ``num_pushes``/``num_rounds``/``elapsed_seconds`` describe
    the whole batch, not the one source.
    """

    source: int
    row: sp.csr_matrix
    num_pushes: int
    num_rounds: int
    num_residual_entries: int
    elapsed_seconds: float
    epsilon: float
    decay: float
    executor: str
    num_workers: Optional[int]
    num_shards: int
    component_size: int
    batch_size: int = 1

    @property
    def nnz(self) -> int:
        return int(self.row.nnz)


def component_nodes(graph: Graph, sources: Sequence[int]) -> np.ndarray:
    """Sorted node ids of the connected components containing ``sources``.

    Deterministic (``scipy.sparse.csgraph.connected_components`` labels
    are a pure function of the CSR structure); used to restrict the
    single-source residual seeding to the only seeds that can reach the
    query rows.
    """
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(graph.adjacency, directed=False)
    source_array = np.asarray(sources, dtype=np.int64)
    wanted = labels[source_array]
    return np.flatnonzero(np.isin(labels, wanted))


def _validate_sources(graph: Graph, sources: Sequence[int]) -> np.ndarray:
    source_array = np.asarray(list(sources), dtype=np.int64)
    if source_array.ndim != 1 or source_array.size == 0:
        raise SimRankError("sources must be a non-empty sequence of node ids")
    n = graph.num_nodes
    bad = (source_array < 0) | (source_array >= n)
    if bad.any():
        raise SimRankError(
            f"source node(s) {sorted(int(s) for s in source_array[bad])} "
            f"out of range for a graph with {n} nodes")
    return source_array


def multi_source_localpush(graph: Graph, sources: Sequence[int], *,
                           decay: float = DEFAULT_DECAY,
                           epsilon: float = 0.1, prune: bool = True,
                           absorb_residual: bool = False,
                           max_pushes: int | None = None,
                           executor: str = "serial",
                           num_workers: Optional[int] = None,
                           num_shards: Optional[int] = None,
                           top_k: Optional[int] = None,
                           coalesce_every: int = 4,
                           kernel: str = "auto",
                           dtype: str = "float64"
                           ) -> List[SingleSourceResult]:
    """Batched single-source LocalPush: one shared round loop, many rows.

    Seeds the residual with the identity restricted to the sources'
    connected components (the only seeds whose mass can reach the query
    rows — the push operator never crosses components) and materialises
    estimate entries only for the requested rows, so memory is
    ``O(rounds × per-row frontier)`` instead of ``O(n²)`` while the
    residual work is bounded by the touched components, not the graph.

    **Equivalence guarantee** (pinned by the single-source suite): each
    returned ``row`` is *bit-identical* to the corresponding row of
    ``localpush_engine(...)`` run without streaming — for every executor
    and worker count — whenever the per-round shard partitions of the two
    runs coincide: always on a connected graph (the frontiers, and hence
    the partition derived from them, are identical), and on any graph
    when every round fits one shard (the ``DEFAULT_SHARD_NNZ`` default
    for all but huge frontiers).  With a forced multi-shard split on a
    *disconnected* graph the partial-sum order may differ and rows agree
    only to float round-off (still within the ``(1−c)·ε`` bound).

    ``top_k`` applies :func:`repro.graphs.sparse.top_k_per_row`
    semantics (``keep_diagonal=True``) to each returned row — identical
    to pruning the all-pairs estimate post hoc.

    Results are returned in input order; duplicate sources share the
    same computed row.
    """
    _validate_engine_args(decay, epsilon, executor, num_workers, num_shards,
                          top_k, kernel, dtype)
    source_array = _validate_sources(graph, sources)
    unique_sources = np.unique(source_array)

    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(graph.adjacency, directed=False)
    wanted = labels[unique_sources]
    seed_nodes = np.flatnonzero(np.isin(labels, wanted))

    run = _run_rounds(graph, decay=decay, epsilon=epsilon, prune=prune,
                      absorb_residual=absorb_residual, max_pushes=max_pushes,
                      executor=executor, num_workers=num_workers,
                      num_shards=num_shards, stream_top_k=top_k,
                      coalesce_every=coalesce_every,
                      seed_nodes=seed_nodes, absorb_rows=unique_sources,
                      kernel=kernel, dtype=dtype)

    component_sizes = {int(s): int(np.count_nonzero(labels == labels[s]))
                       for s in unique_sources}
    rows = {int(s): run.estimate.getrow(int(s)) for s in unique_sources}
    return [SingleSourceResult(
        source=int(source),
        row=rows[int(source)],
        num_pushes=run.num_pushes,
        num_rounds=run.num_rounds,
        num_residual_entries=run.num_residual_entries,
        elapsed_seconds=run.elapsed_seconds,
        epsilon=epsilon,
        decay=decay,
        executor=executor,
        num_workers=run.workers_used,
        num_shards=run.max_shards_used,
        component_size=component_sizes[int(source)],
        batch_size=int(unique_sources.size),
    ) for source in source_array]


def single_source_localpush(graph: Graph, source: int, *,
                            decay: float = DEFAULT_DECAY,
                            epsilon: float = 0.1, prune: bool = True,
                            absorb_residual: bool = False,
                            max_pushes: int | None = None,
                            executor: str = "serial",
                            num_workers: Optional[int] = None,
                            num_shards: Optional[int] = None,
                            top_k: Optional[int] = None,
                            coalesce_every: int = 4,
                            kernel: str = "auto",
                            dtype: str = "float64") -> SingleSourceResult:
    """Single-source LocalPush: row ``source`` of the SimRank matrix.

    A one-element :func:`multi_source_localpush` batch; see there for
    the bit-identical equivalence guarantee and the complexity argument.
    """
    return multi_source_localpush(
        graph, [source], decay=decay, epsilon=epsilon, prune=prune,
        absorb_residual=absorb_residual, max_pushes=max_pushes,
        executor=executor, num_workers=num_workers, num_shards=num_shards,
        top_k=top_k, coalesce_every=coalesce_every, kernel=kernel,
        dtype=dtype)[0]


def single_pair_localpush(graph: Graph, source: int, target: int, *,
                          decay: float = DEFAULT_DECAY,
                          epsilon: float = 0.1, prune: bool = True,
                          absorb_residual: bool = False,
                          max_pushes: int | None = None,
                          executor: str = "serial",
                          num_workers: Optional[int] = None,
                          num_shards: Optional[int] = None,
                          coalesce_every: int = 4,
                          kernel: str = "auto",
                          dtype: str = "float64") -> float:
    """Single-pair LocalPush: ``Ŝ(source, target)`` with the same ε bound.

    Computed as entry ``target`` of the single-source row so the value is
    bit-identical to the all-pairs entry under the guarantee documented
    on :func:`multi_source_localpush`.  When the two nodes live in
    different connected components the true score is exactly ``0.0`` and
    no push rounds run at all.
    """
    _validate_sources(graph, [source, target])
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(graph.adjacency, directed=False)
    if source != target and labels[source] != labels[target]:
        return 0.0
    result = single_source_localpush(
        graph, source, decay=decay, epsilon=epsilon, prune=prune,
        absorb_residual=absorb_residual, max_pushes=max_pushes,
        executor=executor, num_workers=num_workers, num_shards=num_shards,
        coalesce_every=coalesce_every, kernel=kernel, dtype=dtype)
    return float(result.row[0, target])


__all__ = ["localpush_engine", "resume_localpush", "ResumeRun",
           "single_source_localpush",
           "multi_source_localpush", "single_pair_localpush",
           "SingleSourceResult", "component_nodes", "default_num_workers",
           "EXECUTORS", "DEFAULT_SHARD_NNZ", "DEFAULT_MAX_WORKERS"]
