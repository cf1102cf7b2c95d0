"""SimRank substrate: exact, linearized and LocalPush-approximate SimRank.

Three computations are provided:

* :func:`exact_simrank` — the classic Jeh–Widom fixed point of Eq. (2) in the
  paper, computed by power iteration with a diagonal reset.  This is the
  ground truth for small graphs (Table II, Fig. 2).
* :func:`linearized_simrank` — the series
  ``S' = Σ_ℓ c^ℓ (W^ℓ)ᵀ W^ℓ`` of pairwise-random-walk meeting
  probabilities, exactly the quantity of Theorem III.2.  This is the fixed
  point that LocalPush approximates and the operator SIGMA aggregates with.
* :func:`localpush_simrank` — Algorithm 1 (LocalPush) of the paper: a
  residual-push approximation with max-norm guarantee ``ε`` and
  ``O(d²/ε)``-style cost, returning a sparse matrix.  It runs on the one
  unified core, :func:`repro.simrank.engine.localpush_engine`;
  :func:`repro.simrank.localpush.localpush_reference` is the per-pair
  dict transcription of Algorithm 1 that the tests and the LocalPush
  micro-benchmark use as the oracle (no configuration reaches it).

:func:`simrank_operator` combines approximation and top-k pruning into the
sparse aggregation operator used by the SIGMA model.  It takes a single
typed config object::

    from repro.config import SimRankConfig
    operator = simrank_operator(graph, SimRankConfig(
        method="localpush", epsilon=0.1, top_k=32,
        executor="process", workers=8,
        cache_dir="~/.cache/simrank"))

Configuration: SimRankConfig
----------------------------
:class:`repro.config.SimRankConfig` carries three field groups:

* the **mathematical contract** — ``method`` (``"exact"``, ``"series"``,
  ``"localpush"`` or ``"auto"``, which picks exactness up to
  ``exact_size_limit`` nodes and LocalPush above), ``decay``,
  ``epsilon``, ``top_k``, ``row_normalize`` and ``dtype``; these
  determine the operator entries and therefore enter the cache key;
* the **execution plan** — ``executor``, ``workers`` and ``kernel``.
  ``executor`` decides where the per-round shard pushes run;
  left unset (``None`` or ``"auto"``) it follows a node-count ladder
  (:func:`repro.simrank.localpush.resolve_executor`):

  =========== ============================================================
  executor     used for
  =========== ============================================================
  serial       < 4096 nodes by default — shards pushed in the calling
               thread
  thread       ≥ 4096 nodes by default — shards pushed by a thread pool,
               merged in shard order
  process      only when named — shards pushed by a process pool over
               shared-memory walk matrices (multi-core past the GIL)
  =========== ============================================================

  Orthogonally to the executor, ``kernel`` picks the push-round
  *arithmetic* (see :mod:`repro.simrank.kernels`): ``scipy`` (the
  reference, sparse-matrix ops with per-round allocations), ``fused``
  (raw-CSR kernel with round-reused workspaces, zero-copy shard slices
  and a one-pass partial merge — bit-identical to ``scipy``, faster on
  multi-round runs) or ``auto`` (the default, ``fused``).

* the **cache location** — ``cache_dir`` and ``cache_max_bytes``.

The shard partition is a function of the frontier alone and partial
updates merge in shard order, so **every executor, worker count and
kernel returns a bit-identical matrix** — pinned by
``tests/test_simrank_engine.py`` and ``tests/test_simrank_kernels.py``.
Accordingly no part of the execution plan enters the operator-cache key;
the key fields are derived in exactly one place,
:meth:`repro.config.SimRankConfig.cache_key_fields`.  The executor
threshold is :data:`repro.simrank.localpush.AUTO_SHARDED_MIN_NODES`;
unit tests pin it.  All plans satisfy the same ``‖Ŝ − S‖_max < ε``
guarantee (Lemma III.5) — in float64.  The opt-in ``dtype="float32"`` mode
trades that guarantee for half the memory: accumulated rounding can
exceed ε itself, so the bound loosens to
:func:`repro.simrank.kernels.float32_error_bound`, which adds a
per-round rounding term ``O(u·rounds/(1−c))`` (``u = 2⁻²⁴``); because
the entries differ from float64's, ``dtype`` *does* enter the cache
key.

Streaming top-k error-bound argument
------------------------------------
The core can prune the estimate to the top ``k`` scores per row *inside*
the push loop (``stream_top_k``), keeping memory at ``O(k·n)`` instead
of ``O(n·d²/ε)``.  Correctness rests on the residual invariant
``S = Ŝ + Σ_{ℓ≥0} c^ℓ (Wᵀ)^ℓ R W^ℓ`` and on the columns of ``W = A D⁻¹``
summing to at most one, which bounds the future growth of *any* estimate
entry by ``slack = ‖R‖_max / (1 − c)``.  An entry is dropped only when its
current value plus ``slack`` is strictly below the row's current k-th
largest score — so it provably cannot enter the final top-k, and the
streamed result is identical to pruning the fully materialised estimate
(see :mod:`repro.simrank.engine` for the full argument).  Because the
estimate never feeds back into the residual, the ε guarantee on retained
entries is untouched.

Operator cache: layout, eviction, reuse
---------------------------------------
:mod:`repro.simrank.cache` persists computed operators under a cache
directory as ``simrank-<key>.npz`` files (CSR arrays plus a JSON metadata
record) with a sidecar index for LRU accounting.  ``<key>`` hashes
``(format version, graph fingerprint, method, c, ε, k, row_normalize,
dtype)``; the executor, worker count and kernel are excluded because
core results are bit-identical across all of them.  Stale format
versions, metadata mismatches and corrupted files are evicted and
recomputed.  Two
policies sit on top:

* **LRU eviction** — give the cache a byte cap
  (``cache_max_bytes=``/``--simrank-cache-max-bytes``) and stores beyond
  it evict the least-recently-used entries;
* **cross-ε/k reuse** — an entry computed at tighter ``ε′ ≤ ε`` with
  ``k′ ≥ k`` serves the looser request after re-pruning (never the
  reverse), counted separately from exact hits.

See the module docstring of :mod:`repro.simrank.cache` for both
arguments.  Enable the cache by setting ``cache_dir`` (and optionally
``cache_max_bytes``) on the :class:`repro.config.SimRankConfig` passed
to ``simrank_operator`` / ``SIGMA(simrank=...)`` / a ``RunSpec``, or via
the CLI flag ``--simrank-cache-dir``.

In-process reuse versus the persistent cache
--------------------------------------------
:func:`simrank_operator` itself is pure: each call computes, or loads
from the persistent cache when ``cache_dir`` is set.  The SIGMA models
call :func:`repro.simrank.topk.shared_simrank_operator` instead, which
without a ``cache_dir`` computes the operator once per live
:class:`repro.graphs.graph.Graph` object and equal config in the
process.  Repeats, sweep points and ablation variants built on one graph
(for example a dataset memoised by ``load_dataset``) then share one
operator whose matrix arrays are read-only.  Graphs are never modified
in place, so the entry is valid for the graph's lifetime; it is a private
field of the graph and is dropped with it.  A graph keeps only the entry
of the config it was last asked for, so an ``ε``/``k`` sweep on one graph
holds one operator at a time.  With a ``cache_dir`` the persistent cache
is the only reuse path, so its hits, stores and ``cache_hit`` flags are
those of a plain call, and it also carries operators across processes.
"""

from repro.simrank.cache import (
    CACHE_FORMAT_VERSION,
    OperatorCache,
    get_operator_cache,
    graph_fingerprint,
)
from repro.simrank.engine import EXECUTORS, localpush_engine
from repro.simrank.exact import exact_simrank, linearized_simrank
from repro.simrank.localpush import (
    AUTO_SHARDED_MIN_NODES,
    LocalPushResult,
    localpush_reference,
    localpush_simrank,
    resolve_executor,
)
from repro.simrank.topk import (
    shared_simrank_operator,
    simrank_operator,
    topk_simrank,
)
from repro.simrank.pairwise_walk import (
    homophily_probability,
    pairwise_meeting_probability,
    pairwise_walk_series,
)
from repro.simrank.analysis import SimRankClassStats, simrank_class_statistics

__all__ = [
    "exact_simrank",
    "linearized_simrank",
    "localpush_simrank",
    "localpush_engine",
    "localpush_reference",
    "LocalPushResult",
    "resolve_executor",
    "EXECUTORS",
    "AUTO_SHARDED_MIN_NODES",
    "topk_simrank",
    "simrank_operator",
    "shared_simrank_operator",
    "OperatorCache",
    "get_operator_cache",
    "graph_fingerprint",
    "CACHE_FORMAT_VERSION",
    "pairwise_meeting_probability",
    "pairwise_walk_series",
    "homophily_probability",
    "SimRankClassStats",
    "simrank_class_statistics",
]
