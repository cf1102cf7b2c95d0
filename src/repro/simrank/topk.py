"""Top-k pruning and construction of the SIGMA aggregation operator.

The paper stores, for every node, only its ``k`` largest approximate
SimRank scores, reducing both memory (``O(k·n)``) and the per-epoch
aggregation cost (``O(k·n·f)``, Table III).  :func:`simrank_operator`
bundles the full precomputation pipeline used by the SIGMA model:

``graph → (exact | series | localpush) SimRank → top-k prune → CSR operator``

:func:`simrank_operator` is a pure function: every call computes (or
loads from the persistent cache).  :func:`shared_simrank_operator` is
what the SIGMA models call: it computes the operator once per live graph
and config in this process (keeping the latest config's per graph) and
hands every later caller the same read-only :class:`SimRankOperator`.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Literal, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.config import UNSET, SimRankConfig, merge_deprecated_kwargs
from repro.graphs.graph import Graph
from repro.graphs.sparse import sparse_row_normalize, top_k_per_row
from repro.simrank.cache import (
    OperatorCache,
    get_operator_cache,
    graph_fingerprint,
)
from repro.simrank.exact import exact_simrank, linearized_simrank
from repro.simrank.localpush import localpush_simrank
from repro.utils.timer import Timer

Method = Literal["exact", "series", "localpush", "auto"]

CacheLike = Union[OperatorCache, str, os.PathLike, None]


def topk_simrank(matrix: sp.spmatrix | np.ndarray, k: int,
                 *, keep_diagonal: bool = True) -> sp.csr_matrix:
    """Keep the ``k`` largest SimRank scores per row.

    The diagonal (self-similarity) entry is preserved by default because the
    SIGMA update (Eq. (6)) mixes the aggregated embedding with the node's
    own embedding and losing the self entry would silently drop that term
    from ``S·H``.
    """
    if sp.issparse(matrix):
        sparse = sp.csr_matrix(matrix)
    else:
        sparse = sp.csr_matrix(np.asarray(matrix))
    return top_k_per_row(sparse, k, keep_diagonal=keep_diagonal)


@dataclass
class SimRankOperator:
    """The precomputed aggregation operator ``S`` plus provenance metadata."""

    matrix: sp.csr_matrix
    method: str
    decay: float
    epsilon: Optional[float]
    top_k: Optional[int]
    precompute_seconds: float
    backend: Optional[str] = None
    #: True when the operator was served from a persistent cache instead of
    #: being recomputed; ``precompute_seconds`` then measures the load.
    cache_hit: bool = False
    #: Whether the rows were normalised to sum to one after pruning.
    row_normalize: bool = False
    #: Set on cross-ε/k cache reuse hits: the (tighter) ε′ and (larger) k′
    #: of the stored entry that was re-pruned to serve this request.
    reuse_source_epsilon: Optional[float] = None
    reuse_source_top_k: Optional[int] = None

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    @property
    def average_entries_per_node(self) -> float:
        n = self.matrix.shape[0]
        return self.nnz / n if n else 0.0


def simrank_operator(graph: Graph, config: Optional[SimRankConfig] = None, *,
                     method: object = UNSET, decay: object = UNSET,
                     epsilon: object = UNSET, top_k: object = UNSET,
                     row_normalize: object = UNSET,
                     exact_size_limit: object = UNSET,
                     backend: object = UNSET, executor: object = UNSET,
                     num_workers: object = UNSET, cache: object = UNSET,
                     cache_max_bytes: object = UNSET) -> SimRankOperator:
    """Precompute the SimRank aggregation operator for a graph.

    The supported calling convention is a single
    :class:`repro.config.SimRankConfig`::

        simrank_operator(graph, SimRankConfig(method="localpush",
                                              epsilon=0.1, top_k=32,
                                              cache_dir="~/.simrank-cache"))

    See :class:`repro.config.SimRankConfig` for the meaning of every
    field (method selection, ε, top-k pruning, the LocalPush
    ``(backend, executor, workers)`` plan, and the persistent operator
    cache with its LRU byte cap).  With ``config=None`` and no keywords
    the library defaults apply.

    Deprecated keywords
    -------------------
    The pre-config keyword arguments (``method=``, ``decay=``,
    ``epsilon=``, ``top_k=``, ``row_normalize=``, ``exact_size_limit=``,
    ``backend=``, ``executor=``, ``num_workers=``, ``cache=``,
    ``cache_max_bytes=``) remain accepted: each one emits a
    :class:`DeprecationWarning` and is folded into an equivalent config,
    producing an identical operator *and* an identical on-disk cache key
    (pinned by ``tests/test_config.py``), so caches written by older
    code stay warm.  ``cache=`` additionally accepts a live
    :class:`repro.simrank.cache.OperatorCache` instance.  Mixing
    ``config=`` with any deprecated keyword is an error.
    """
    cache_instance: Optional[OperatorCache] = None
    if isinstance(cache, OperatorCache):
        cache_instance = cache
        cache = str(cache.directory)
    # These knobs had None for their legacy default, so an explicit None
    # means "default", not an override.  (top_k=None stays explicit: it
    # is the documented "no pruning" request — same value as the config
    # default here, but the warning should still fire.)
    executor = UNSET if executor is None else executor
    num_workers = UNSET if num_workers is None else num_workers
    cache = UNSET if cache is None else cache
    cache_max_bytes = UNSET if cache_max_bytes is None else cache_max_bytes
    config = merge_deprecated_kwargs(config, {
        "method": ("method", method),
        "decay": ("decay", decay),
        "epsilon": ("epsilon", epsilon),
        "top_k": ("top_k", top_k),
        "row_normalize": ("row_normalize", row_normalize),
        "exact_size_limit": ("exact_size_limit", exact_size_limit),
        "backend": ("backend", backend),
        "executor": ("executor", executor),
        "num_workers": ("workers", num_workers),
        "cache": ("cache_dir", cache),
        "cache_max_bytes": ("cache_max_bytes", cache_max_bytes),
    }, api_hint="config=SimRankConfig(...)")
    return _simrank_operator(graph, config, cache_instance)


def _simrank_operator(graph: Graph, config: SimRankConfig,
                      cache_instance: Optional[OperatorCache] = None
                      ) -> SimRankOperator:
    """Config-driven core of :func:`simrank_operator`."""
    resolved = config.resolved_method(graph.num_nodes)
    key_fields = config.cache_key_fields(graph.num_nodes)

    cache_store = cache_instance
    if cache_store is not None:
        if config.cache_max_bytes is not None:
            cache_store.max_bytes = config.cache_max_bytes
    elif config.cache_dir is not None:
        cache_store = get_operator_cache(config.cache_dir,
                                         max_bytes=config.cache_max_bytes)

    key: Optional[str] = None
    fingerprint: Optional[str] = None
    timer = Timer()
    timer.start()
    if cache_store is not None:
        fingerprint = graph_fingerprint(graph)
        key = cache_store.key_for_fields(graph, key_fields)
        cached = cache_store.lookup(graph, fingerprint=fingerprint,
                                    **key_fields)
        if cached is not None:
            cached.precompute_seconds = timer.stop()
            return cached

    localpush_backend: Optional[str] = None
    if resolved == "exact":
        dense = exact_simrank(graph, decay=config.decay)
        matrix = sp.csr_matrix(dense)
    elif resolved == "series":
        dense = linearized_simrank(graph, decay=config.decay,
                                   tolerance=config.epsilon / 10.0)
        dense[dense < config.epsilon / 10.0] = 0.0
        matrix = sp.csr_matrix(dense)
    else:
        # For the aggregation operator we keep sub-threshold residual mass
        # (a strict accuracy improvement) and let top-k do the pruning; the
        # unified core additionally streams the top-k prune into the push
        # loop (stream_top_k) so the full estimate never materialises.
        result = localpush_simrank(graph, decay=config.decay,
                                   epsilon=config.epsilon,
                                   prune=config.top_k is None,
                                   absorb_residual=True,
                                   backend=config.backend,
                                   executor=config.executor,
                                   num_workers=config.workers,
                                   stream_top_k=config.top_k,
                                   kernel=config.kernel,
                                   dtype=config.dtype)
        matrix = result.matrix
        localpush_backend = result.backend
    if config.dtype == "float32" and matrix.dtype != np.float32:
        # The LocalPush core computes natively in float32; the dense
        # references have no reduced-precision path, so their operators
        # are computed exactly and rounded once at the end (a strictly
        # smaller error than carrying float32 through the iteration).
        matrix = matrix.astype(np.float32)

    if config.top_k is not None:
        matrix = topk_simrank(matrix, config.top_k)
    if config.row_normalize:
        matrix = sparse_row_normalize(matrix)
    matrix.sort_indices()

    operator = SimRankOperator(
        matrix=matrix,
        method=resolved,
        decay=config.decay,
        epsilon=key_fields["epsilon"],
        top_k=config.top_k,
        precompute_seconds=timer.stop(),
        backend=localpush_backend,
        row_normalize=config.row_normalize,
    )
    if cache_store is not None and key is not None:
        cache_store.store(key, operator, fingerprint=fingerprint)
    return operator


@dataclass
class _SharedSlot:
    """One memo entry; its lock lets one thread compute while others wait."""

    config: SimRankConfig
    lock: threading.Lock = field(default_factory=threading.Lock)
    operator: Optional[SimRankOperator] = None


#: Guards the choice of a graph's memo entry, not the computation.
_SHARED_LOCK = threading.Lock()


def shared_simrank_operator(graph: Graph,
                            config: SimRankConfig) -> SimRankOperator:
    """The operator of ``graph`` under ``config``, computed once per process.

    Every call with the same live ``graph`` object and an equal
    ``config`` returns the same :class:`SimRankOperator`, whose matrix
    arrays are read-only; the first caller computes it with
    :func:`simrank_operator` while concurrent callers for that pair wait
    for it.  This is sound because a :class:`Graph` is never modified in
    place (:meth:`Graph.apply_delta` returns a new graph).  The entry is a
    private field of the graph, so it lives exactly as long as the graph
    does, and a graph keeps only its most recent config's entry: a sweep
    over ``ε``/``k`` on one graph holds one operator at a time, not one per
    config.  With ``config.cache_dir`` set, the persistent
    :class:`OperatorCache` is the only reuse path: every call goes
    straight to :func:`simrank_operator`, so cache hits, stores and
    ``cache_hit`` are those of an unshared call.
    """
    if config.cache_dir is not None:
        return simrank_operator(graph, config)
    with _SHARED_LOCK:
        slot = graph._shared_operator
        if not isinstance(slot, _SharedSlot) or slot.config != config:
            slot = graph._shared_operator = _SharedSlot(config)
    with slot.lock:
        if slot.operator is None:
            operator = simrank_operator(graph, config)
            matrix = operator.matrix
            for array in (matrix.data, matrix.indices, matrix.indptr):
                array.flags.writeable = False
            slot.operator = operator
        return slot.operator


__all__ = ["topk_simrank", "simrank_operator", "shared_simrank_operator",
           "SimRankOperator"]
