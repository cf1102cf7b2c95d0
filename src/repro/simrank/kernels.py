"""Push-round kernels: how one LocalPush round's CSR arithmetic is executed.

:mod:`repro.simrank.engine` owns *what* a round computes (frontier →
``c·Wᵀ F W`` → residual/estimate update) and the executor strategies own
*where* the shard matmuls run.  This module owns the remaining axis —
*how* the surrounding CSR arithmetic is carried out — as a pluggable
kernel ladder:

``kernel="scipy"``
    The historical implementation: the frontier round-trips through a
    ``np.repeat`` row expansion and a COO→CSR construction per shard,
    shard partials merge through chained ``csr_plus_csr`` additions
    (an ``O(shards²)`` walk of the partial mass), and the streaming
    estimate absorbs and prunes every round.
``kernel="fused"``
    Operates on the raw CSR arrays with preallocated, round-reused
    workspaces.  The frontier is compressed out of the residual with one
    boolean mask and a searchsorted row pointer (no ``np.repeat``, no
    COO round-trip) and the shard matrices are zero-copy
    clipped-row-pointer views of it; the shard partials merge in **one**
    concatenate + single duplicate-summing pass (a selector-matrix
    product — see below) instead of the chained additions; the
    streaming-estimate absorb is batched and pruned at the
    ``coalesce_every`` cadence instead of every round.
``kernel="auto"``
    Resolves to ``"fused"``.

The one-pass partial merge
--------------------------
Chained ``((p₀ + p₁) + p₂) + …`` additions walk the accumulated pushed
mass once per shard — ``O(shards²)`` stored entries touched per round,
and the measured hot spot of multi-shard rounds.  The fused kernel
instead stacks the partials (``vstack`` — the concatenate) and
left-multiplies by a *selector* matrix ``J`` with a single ``1.0`` entry
per ``(row, shard)`` pair, so ``J @ vstack(partials)`` sums, for every
output entry, the matching entries of all shards in one C pass of
scipy's sparse matmul.  This is bitwise the chained association: the
matmul accumulates each output entry sequentially in shard order
starting from ``+0.0``, and ``+0.0 + a == a`` and ``1.0 · a == a``
exactly, so the per-entry float operations are identical to the chained
adds (shard partials are products of non-negative walk weights and
positive frontier mass, so no ``-0.0`` corner exists; a partial entry
that underflows to ``+0.0`` is dropped by the subsequent
``csr_plus_csr`` zero filter on either path, leaving identical stored
patterns).

The residual update itself stays scipy's canonical ``csr_plus_csr`` (a
single C merge): a prototype that held the residual as flat
``row·n + col`` key/value arrays and merged in numpy was measured
1.5–2× *slower* than the C add at every size — the fused win comes from
removing redundant passes (the chained folds, the per-shard COO
round-trips, the per-round absorbs), not from reimplementing the merge.

Bit-identity
------------
For a fixed dtype every kernel returns *bit-identical* matrices — the
same guarantee the executor axis already carries, and the reason
``kernel`` stays out of the operator-cache key.  The pieces:

* both kernels canonicalise the round update (``pushed.sort_indices()``)
  before the residual add, so the residual's storage order is row-major
  column-sorted every round and both kernels extract frontiers in the
  identical entry order;
* the fused zero-copy shard slices hold bitwise the same
  ``(indptr, indices, data)`` arrays the scipy kernel builds through its
  per-shard COO round-trip (the frontier inherits the residual's
  canonical order; frontier keys are unique, so the COO build sorts and
  folds nothing), and the executor matmuls are shared;
* the one-pass partial merge reproduces the chained association exactly
  (previous section), and the residual/estimate additions are the same
  ``csr_plus_csr`` calls with the same operand order;
* the only cadence difference — the fused kernel folds and prunes the
  streaming estimate every ``coalesce_every`` rounds instead of every
  round — cannot change the final matrix: the absorb fold keeps the
  round-order left-to-right association, and every streamed drop is
  *provably outside the final top-k* (its value plus the
  ``‖R‖_max/(1−c)`` slack is strictly below the row's k-th largest,
  which never decreases), so the post-loop
  ``top_k_per_row(..., keep_diagonal=True)`` selects the same entries
  with the same fully-accumulated values either way.

The kernel-equivalence suite pins all of this per executor × worker
count, including single-source rows and streamed top-k runs.

float32 mode and its adjusted bound
-----------------------------------
``dtype="float32"`` runs the whole round loop — walk matrix, residual,
estimate — in single precision.  The push *threshold* ``(1−c)·ε`` needs
no adjustment: float32 values embed exactly into float64, so the
comparison against the float64 threshold is exact.  The *error bound*
does: Lemma III.5's ``‖Ŝ − S‖_max < ε`` holds in exact arithmetic, and
single precision adds rounding error on top.  Each stored value is
accumulated over at most ``ceil(log((1−c)·ε) / log(c))`` rounds (the
residual max decays at least geometrically by ``c`` per round), each
round compounding a bounded number of rounding steps (the ``Wᵀ F W``
dot products plus one absorb/merge add) on mass bounded by the
geometric total ``1/(1−c)``.  :func:`float32_error_bound` packages this
as

    ``ε₃₂ = ε + F32_BOUND_SAFETY · u · rounds(ε, c) / (1 − c)``

with ``u = 2⁻²⁴`` (round-to-nearest unit roundoff) and a safety constant
absorbing the per-round dot-product accumulation; the hypothesis sweep
and the recorded benchmark sweep validate the bound against the exact
``linearized_simrank`` oracle.  float32 operators are keyed separately
in the operator cache (see ``SimRankConfig.cache_key_fields``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.errors import SimRankError
from repro.graphs.sparse import csr_row_indices
from repro.utils.timer import Timer

#: Kernel names accepted by the engine (``"auto"`` resolves to
#: ``"fused"``).
KERNELS = ("auto", "scipy", "fused")

#: dtype names accepted by the engine.
DTYPES = ("float64", "float32")

#: float32 round-to-nearest unit roundoff (2⁻²⁴).
F32_UNIT_ROUNDOFF = 2.0 ** -24

#: Safety factor of :func:`float32_error_bound`, absorbing the per-round
#: dot-product accumulation (degree-length products inside ``Wᵀ F W``)
#: with ample margin; validated empirically by the hypothesis sweep and
#: the recorded benchmark sweep.
F32_BOUND_SAFETY = 64.0

#: Per-round phase names recorded by :class:`PhaseProfile`.
PHASES = ("frontier", "push", "merge", "prune")

#: A shard of the frontier: (rows, cols, values) of its stored entries.
Shard = Tuple[np.ndarray, np.ndarray, np.ndarray]


class RoundRunner(Protocol):
    """The executor surface the round states drive (see ``engine.py``)."""

    name: str
    #: Process pools want pickled (rows, cols, data) triplets for
    #: multi-shard rounds; in-process executors take zero-copy matrices.
    wants_triplets: bool

    def push_round(self, shards: Sequence[Shard]) -> List[sp.csr_matrix]:
        ...

    def push_round_matrices(self, matrices: Sequence[sp.csr_matrix]
                            ) -> List[sp.csr_matrix]:
        ...


def resolve_kernel(kernel: str) -> str:
    """Resolve a kernel request to a concrete implementation name.

    ``"auto"`` picks ``"fused"`` (bit-identical to ``"scipy"`` and
    faster).  Unknown names raise :class:`SimRankError`.
    """
    if kernel not in KERNELS:
        raise SimRankError(f"unknown LocalPush kernel {kernel!r}; "
                           f"expected one of {KERNELS}")
    if kernel == "auto":
        return "fused"
    return kernel


def working_dtype(dtype: str) -> np.dtype:
    """The numpy dtype for a config-level dtype name."""
    if dtype not in DTYPES:
        raise SimRankError(f"unknown LocalPush dtype {dtype!r}; "
                           f"expected one of {DTYPES}")
    return np.dtype(np.float32 if dtype == "float32" else np.float64)


def localpush_max_rounds(epsilon: float, decay: float) -> int:
    """Upper bound on the number of frontier rounds before termination.

    After each round every residual entry is a sum of push masses from
    one more application of ``c·Wᵀ · W`` whose total mass factor is at
    most ``c``, so ``‖R‖_max`` decays at least geometrically: it drops
    below the ``(1−c)·ε`` push threshold within
    ``ceil(log((1−c)·ε) / log(c))`` rounds.
    """
    threshold = (1.0 - decay) * epsilon
    if threshold >= 1.0:
        return 0
    return max(1, math.ceil(math.log(threshold) / math.log(decay)))


def float32_error_bound(epsilon: float, decay: float) -> float:
    """The adjusted max-norm error bound of the float32 mode.

    ``ε₃₂ = ε + F32_BOUND_SAFETY · u · rounds(ε, c) / (1 − c)`` — the
    exact-arithmetic truncation bound ``ε`` (Lemma III.5, unchanged: the
    float32 threshold comparison is exact) plus a rounding term: every
    stored value is accumulated over at most
    :func:`localpush_max_rounds` rounds of unit-roundoff-``u``
    operations on total mass bounded by the geometric series
    ``1/(1−c)``.  See the module docstring for the derivation and the
    safety constant.
    """
    rounds = localpush_max_rounds(epsilon, decay)
    return epsilon + F32_BOUND_SAFETY * F32_UNIT_ROUNDOFF * rounds / (1.0 - decay)


# --------------------------------------------------------------------- #
# Per-round phase profiling
# --------------------------------------------------------------------- #
class PhaseProfile:
    """Accumulated per-phase seconds of a push-round loop.

    Phases: ``frontier`` (above-threshold extraction, residual clearing
    and shard assembly), ``push`` (the executor's shard matmuls),
    ``merge`` (partial merging + the residual update) and ``prune``
    (coalescing plus the streaming absorb/prune work).  Used by
    ``bench_localpush.py --profile``; ``None`` (the default everywhere)
    keeps the loop unmeasured.

    This is also the engine's telemetry hook:
    :class:`repro.telemetry.TracingPhaseProfile` subclasses it to
    re-emit every measurement as a trace span, overriding :meth:`add`
    and the per-round marker :meth:`begin_round` (a no-op here).
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {phase: 0.0 for phase in PHASES}

    def measure(self, phase: str) -> "_PhaseTimer":
        return _PhaseTimer(self, phase)

    def add(self, phase: str, seconds: float) -> None:
        self.seconds[phase] += seconds

    def begin_round(self, index: int) -> None:
        """Round marker called by the engine loop; metadata only."""

    def as_dict(self) -> Dict[str, float]:
        return dict(self.seconds)


class _PhaseTimer(Timer):
    """A :class:`Timer` that reports its elapsed time into a profile."""

    def __init__(self, profile: PhaseProfile, phase: str) -> None:
        super().__init__()
        self._profile = profile
        self._phase = phase

    def __exit__(self, *exc_info: object) -> None:
        self._profile.add(self._phase, self.stop())


class _NullTimer:
    """No-op context manager standing in for an absent profile."""

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_TIMER = _NullTimer()

_Measure = Union[_PhaseTimer, _NullTimer]


# --------------------------------------------------------------------- #
# Shared frontier container + deterministic shard bounds
# --------------------------------------------------------------------- #
class Frontier:
    """One round's above-threshold entries, in residual storage order.

    ``cols``/``data`` are always materialised.  ``rows`` is computed on
    first access from the frontier row pointer (the fused kernel's
    zero-copy matrix path never needs it; the triplet and absorb paths
    do).  ``matrix`` is the frontier as one canonical CSR matrix sharing
    the ``cols``/``data`` arrays — set by the fused kernels, ``None``
    for the scipy kernel, which passes eager ``rows`` instead.
    """

    __slots__ = ("cols", "data", "matrix", "_rows", "_indptr")

    def __init__(self, cols: np.ndarray, data: np.ndarray, *,
                 rows: Optional[np.ndarray] = None,
                 indptr: Optional[np.ndarray] = None,
                 matrix: Optional[sp.csr_matrix] = None) -> None:
        self.cols = cols
        self.data = data
        self.matrix = matrix
        self._rows = rows
        self._indptr = indptr

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            assert self._indptr is not None
            counts = np.diff(self._indptr)
            self._rows = np.repeat(
                np.arange(counts.size, dtype=np.int64), counts)
        return self._rows

    @property
    def count(self) -> int:
        return int(self.data.size)


def shard_bounds(count: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, end)`` entry ranges of the shard partition.

    Reproduces ``np.array_split(np.arange(count), shards)`` exactly (the
    first ``count % shards`` shards get one extra entry), so the
    partition — and with it the bit-identity guarantee — is a pure
    function of the frontier size, never of the kernel or executor.
    """
    base, extra = divmod(count, shards)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(shards):
        end = start + base + (1 if index < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds


# --------------------------------------------------------------------- #
# Round-reused scratch buffers
# --------------------------------------------------------------------- #
class _Workspace:
    """Named, capacity-grown scratch buffers reused across rounds."""

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def scratch(self, name: str, size: int, dtype: np.dtype) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = np.empty(max(size, 16), dtype=dtype)
            self._buffers[name] = buffer
        return buffer[:size]

    def bool_buffer(self, name: str, size: int) -> np.ndarray:
        return self.scratch(name, size, np.dtype(bool))


# --------------------------------------------------------------------- #
# Streaming top-k prune (correction-bound guarded; see module docstring
# of repro.simrank for the full argument)
# --------------------------------------------------------------------- #
def streaming_prune(estimate: sp.csr_matrix, k: int,
                    slack: float) -> sp.csr_matrix:
    """Drop estimate entries that provably cannot reach the final top-k.

    An entry is removed only when ``value + slack`` is strictly below the
    row's current k-th largest value; the diagonal is never dropped (it
    is preserved by the final ``top_k_per_row(..., keep_diagonal=True)``
    semantics and must survive streaming too).  Mutates ``estimate`` in
    place (the caller holds the only reference to the freshly summed
    matrix).
    """
    if estimate.nnz == 0:
        return estimate
    indptr, indices, data = estimate.indptr, estimate.indices, estimate.data
    # Early rounds can never drop anything: value + slack >= slack, and no
    # row's k-th largest can exceed the global maximum entry.
    if slack >= float(data.max()):
        return estimate
    # Only rows holding more than k entries can possibly shed one.
    candidates = np.flatnonzero(np.diff(indptr) > k)
    if candidates.size == 0:
        return estimate
    changed = False
    for row in candidates:
        start, end = indptr[row], indptr[row + 1]
        size = end - start
        row_data = data[start:end]
        kth = np.partition(row_data, size - k)[size - k]
        drop = (row_data + slack) < kth
        if not drop.any():
            continue
        drop &= indices[start:end] != row
        if not drop.any():
            continue
        row_data[drop] = 0.0
        changed = True
    if changed:
        estimate.eliminate_zeros()
    return estimate


# --------------------------------------------------------------------- #
# Round states: the per-run kernel objects driven by the engine loop
# --------------------------------------------------------------------- #
class ScipyRoundState:
    """The historical CSR-object round arithmetic, verbatim.

    ``signed=True`` switches the frontier threshold to entry
    *magnitude* (``|R| > threshold``).  The fresh-run loop never needs
    it — seeding with the identity keeps the residual non-negative —
    but a dynamic repair warm-starts from a residual that carries
    negative mass for deleted edges (:mod:`repro.dynamic`), and its
    convergence argument bounds ``‖R‖_max = max |R_uv|``.  The default
    keeps the positive-only compare, bit-identical to every run before
    the flag existed.
    """

    kernel = "scipy"

    def __init__(self, residual: sp.csr_matrix, *, n: int, dtype: np.dtype,
                 index_dtype: np.dtype,
                 profile: Optional[PhaseProfile] = None,
                 signed: bool = False) -> None:
        self._residual = residual
        self._n = n
        self._dtype = dtype
        self._profile = profile
        self._signed = bool(signed)
        self._estimate = sp.csr_matrix((n, n), dtype=dtype)

    def _measure(self, phase: str) -> _Measure:
        if self._profile is None:
            return _NULL_TIMER
        return self._profile.measure(phase)

    def set_flush_cadence(self, coalesce_every: int) -> None:
        """No-op: the scipy kernel absorbs and prunes every round."""

    def extract_frontier(self, threshold: float) -> Optional[Frontier]:
        with self._measure("frontier"):
            residual = self._residual
            if self._signed:
                above = np.abs(residual.data) > threshold
            else:
                above = residual.data > threshold
            count = int(np.count_nonzero(above))
            if count == 0:
                return None
            rows = csr_row_indices(residual)[above]
            cols = residual.indices[above].astype(np.int64, copy=False)
            data = residual.data[above].copy()
            residual.data[above] = 0.0
        return Frontier(cols, data, rows=rows)

    def absorb_stream(self, frontier: Frontier) -> None:
        with self._measure("prune"):
            self._estimate = self._estimate + sp.csr_matrix(
                (frontier.data, (frontier.rows, frontier.cols)),
                shape=(self._n, self._n))

    def push_round(self, runner: RoundRunner, frontier: Frontier,
                   bounds: Sequence[Tuple[int, int]]) -> None:
        with self._measure("frontier"):
            chunks = [(frontier.rows[start:end], frontier.cols[start:end],
                       frontier.data[start:end]) for start, end in bounds]
        with self._measure("push"):
            partials = runner.push_round(chunks)
        with self._measure("merge"):
            # Merge in shard order — deterministic regardless of which
            # worker finished first.
            pushed = partials[0]
            for partial in partials[1:]:
                pushed = pushed + partial
            # Canonicalise the round update (a storage reorder; no value
            # changes).  With both operands canonical the addition takes
            # scipy's sorted fast path, so the residual's *storage order*
            # is row-major column-sorted every round — the same order the
            # fused kernel maintains.  Without this, downstream
            # order-sensitive steps (shard partitioning, the estimate's
            # COO duplicate fold) would diverge between kernels by a few
            # ulps.
            pushed.sort_indices()
            self._residual = self._residual + pushed

    def coalesce(self) -> None:
        with self._measure("prune"):
            self._residual.eliminate_zeros()

    def residual_max(self) -> float:
        return float(self._residual.data.max()) if self._residual.nnz else 0.0

    def stream_prune(self, k: int, decay: float) -> None:
        with self._measure("prune"):
            slack = self.residual_max() / (1.0 - decay)
            self._estimate = streaming_prune(self._estimate, k, slack)

    def finish(self, streaming: bool, k: Optional[int], decay: float
               ) -> Tuple[sp.csr_matrix, Optional[sp.csr_matrix]]:
        return self._residual, (self._estimate if streaming else None)


class FusedRoundState(ScipyRoundState):
    """Raw-CSR round arithmetic with reused workspaces and one-pass merges.

    Shares the scipy kernel's residual/estimate objects and C additions
    but restructures the three measured hot spots: repeat-free frontier
    compression with zero-copy shard slices, the one-pass
    selector-product partial merge, and the batched streaming absorb.
    Bit-identical to :class:`ScipyRoundState` per dtype — see the module
    docstring for the argument and ``tests/test_simrank_kernels.py`` for
    the pins.
    """

    kernel = "fused"

    def __init__(self, residual: sp.csr_matrix, *, n: int, dtype: np.dtype,
                 index_dtype: np.dtype,
                 profile: Optional[PhaseProfile] = None,
                 signed: bool = False) -> None:
        super().__init__(residual, n=n, dtype=dtype,
                         index_dtype=index_dtype, profile=profile,
                         signed=signed)
        self._index_dtype = index_dtype
        self._workspace = _Workspace()
        #: Selector matrices of the one-pass partial merge, per shard
        #: count (rounds repeat shard counts, so these are reused too).
        self._selectors: Dict[int, sp.csr_matrix] = {}
        #: Streaming absorbs batched between flushes (frontier matrices
        #: in round order).
        self._pending: List[sp.csr_matrix] = []
        self._flush_every = 1

    def set_flush_cadence(self, coalesce_every: int) -> None:
        """Batch streaming absorbs for this many rounds between flushes."""
        self._flush_every = max(1, int(coalesce_every))

    def extract_frontier(self, threshold: float) -> Optional[Frontier]:
        with self._measure("frontier"):
            residual = self._residual
            data = residual.data
            workspace = self._workspace
            above = workspace.bool_buffer("above", data.size)
            if self._signed:
                magnitude = workspace.scratch("magnitude", data.size,
                                              self._dtype)
                np.abs(data, out=magnitude)
                np.greater(magnitude, threshold, out=above)
            else:
                np.greater(data, threshold, out=above)
            positions = np.flatnonzero(above)
            count = int(positions.size)
            if count == 0:
                return None
            # Row pointer of the compressed selection: the number of
            # selected entries before each residual row boundary — a
            # binary search of the (sorted) selected positions, with the
            # gathers indexed instead of boolean-masked (measured ~10×
            # cheaper per pass).  No per-entry row-index expansion.
            indptr = np.searchsorted(positions, residual.indptr)
            cols = residual.indices[positions]
            frontier_data = data[positions]
            data[positions] = 0.0
            matrix = sp.csr_matrix(
                (frontier_data, cols,
                 indptr.astype(self._index_dtype, copy=False)),
                shape=(self._n, self._n), copy=False)
        return Frontier(cols, frontier_data, indptr=indptr, matrix=matrix)

    def absorb_stream(self, frontier: Frontier) -> None:
        # Queue the round's frontier matrix; the left-to-right fold (and
        # the prune) run at the coalesce cadence in stream_prune().
        assert frontier.matrix is not None
        self._pending.append(frontier.matrix)

    def push_round(self, runner: RoundRunner, frontier: Frontier,
                   bounds: Sequence[Tuple[int, int]]) -> None:
        use_triplets = runner.wants_triplets and len(bounds) > 1
        with self._measure("frontier"):
            if use_triplets:
                chunks = [(frontier.rows[start:end],
                           frontier.cols[start:end],
                           frontier.data[start:end])
                          for start, end in bounds]
                matrices: List[sp.csr_matrix] = []
            else:
                chunks = []
                matrices = self._shard_slices(frontier, bounds)
        with self._measure("push"):
            if use_triplets:
                partials = runner.push_round(chunks)
            else:
                partials = runner.push_round_matrices(matrices)
        with self._measure("merge"):
            if len(partials) == 1:
                pushed = partials[0]
            else:
                pushed = self._fold_partials(partials)
            # Same canonicalisation as the scipy kernel (storage reorder
            # only) so the add below takes the sorted fast path and the
            # residual order stays canonical.
            pushed.sort_indices()
            self._residual = self._residual + pushed

    def _shard_slices(self, frontier: Frontier,
                      bounds: Sequence[Tuple[int, int]]
                      ) -> List[sp.csr_matrix]:
        """Zero-copy CSR shard views of the frontier matrix.

        The frontier inherits the residual's row-major, column-sorted
        entry order, so a contiguous entry range *is* a CSR matrix once
        the row pointer is clipped to it — bitwise the same arrays the
        scipy kernel builds through its per-shard COO round-trip, with
        no sort and no duplicate folding.
        """
        matrix = frontier.matrix
        assert matrix is not None
        n = self._n
        indptr = matrix.indptr.astype(np.int64, copy=False)
        slices = []
        for start, end in bounds:
            shard_indptr = np.clip(indptr - start, 0, end - start)
            slices.append(sp.csr_matrix(
                (matrix.data[start:end], matrix.indices[start:end],
                 shard_indptr.astype(self._index_dtype, copy=False)),
                shape=(n, n), copy=False))
        return slices

    def _fold_partials(self, partials: Sequence[sp.csr_matrix]
                       ) -> sp.csr_matrix:
        """All shard partials summed in one duplicate-folding C pass.

        ``selector @ vstack(partials)`` — the selector row ``r`` holds a
        unit entry at column ``i·n + r`` for every shard ``i`` in
        ascending order, so the sparse matmul accumulates each output
        entry sequentially in shard order: bitwise the chained
        ``((p₀ + p₁) + p₂)`` association (see the module docstring), at
        a cost of one walk over the partial mass instead of one per
        shard.
        """
        stacked = sp.vstack(partials, format="csr")
        pushed = self._selector(len(partials),
                                stacked.indices.dtype) @ stacked
        return pushed.tocsr()

    def _selector(self, shards: int,
                  index_dtype: np.dtype) -> sp.csr_matrix:
        selector = self._selectors.get(shards)
        if selector is None or selector.indices.dtype != index_dtype \
                or selector.data.dtype != self._dtype:
            n = self._n
            indices = (np.arange(shards, dtype=np.int64)[None, :] * n
                       + np.arange(n, dtype=np.int64)[:, None]).ravel()
            indptr = np.arange(0, shards * n + 1, shards, dtype=np.int64)
            selector = sp.csr_matrix(
                (np.ones(shards * n, dtype=self._dtype),
                 indices.astype(index_dtype, copy=False),
                 indptr.astype(index_dtype, copy=False)),
                shape=(n, shards * n), copy=False)
            self._selectors[shards] = selector
        return selector

    def stream_prune(self, k: int, decay: float) -> None:
        if len(self._pending) < self._flush_every:
            return
        with self._measure("prune"):
            self._flush_stream(k, decay)

    def _flush_stream(self, k: int, decay: float) -> None:
        # The left-to-right fold reproduces the scipy kernel's
        # round-by-round ((e + f₁) + f₂) additions: the estimate stays
        # the left operand and each round's frontier folds in round
        # order.
        estimate = self._estimate
        for matrix in self._pending:
            estimate = estimate + matrix
        self._pending.clear()
        slack = self.residual_max() / (1.0 - decay)
        self._estimate = streaming_prune(estimate, k, slack)

    def finish(self, streaming: bool, k: Optional[int], decay: float
               ) -> Tuple[sp.csr_matrix, Optional[sp.csr_matrix]]:
        estimate: Optional[sp.csr_matrix] = None
        if streaming:
            assert k is not None
            # Final flush: absorb any batched rounds and prune once more
            # with the terminal slack (idempotent when already flushed).
            self._flush_stream(k, decay)
            estimate = self._estimate
        return self._residual, estimate


RoundState = Union[ScipyRoundState, FusedRoundState]

_ROUND_STATES: Dict[str, type] = {
    "scipy": ScipyRoundState,
    "fused": FusedRoundState,
}


def make_round_state(kernel: str, residual: sp.csr_matrix, *, n: int,
                     dtype: np.dtype, index_dtype: np.dtype,
                     profile: Optional[PhaseProfile] = None,
                     signed: bool = False) -> RoundState:
    """Construct the round state for a *resolved* kernel name.

    ``signed=True`` selects magnitude-threshold frontier extraction for
    repair runs whose residual carries negative mass (see
    :class:`ScipyRoundState`); the default is the positive-only compare
    used by every fresh run.
    """
    try:
        state_cls = _ROUND_STATES[kernel]
    except KeyError:
        raise SimRankError(
            f"unknown LocalPush kernel {kernel!r}; "
            f"expected one of {tuple(_ROUND_STATES)}") from None
    state: RoundState = state_cls(residual, n=n, dtype=dtype,
                                  index_dtype=index_dtype, profile=profile,
                                  signed=signed)
    return state


__all__ = ["KERNELS", "DTYPES", "PHASES", "F32_UNIT_ROUNDOFF",
           "F32_BOUND_SAFETY", "Shard", "RoundRunner",
           "resolve_kernel", "working_dtype", "localpush_max_rounds",
           "float32_error_bound", "PhaseProfile", "Frontier",
           "shard_bounds", "streaming_prune", "ScipyRoundState",
           "FusedRoundState", "RoundState",
           "make_round_state"]
