"""Persistent, content-addressed cache for precomputed SimRank operators.

LocalPush precompute dominates end-to-end cost of the scalability
experiments (Fig. 5, Table III), yet the operator is a pure function of
``(graph, method, c, ε, k, row_normalize, dtype)``.  This module stores
each computed :class:`repro.simrank.topk.SimRankOperator` on disk under a
content-addressed key so repeated experiment runs skip precompute
entirely.

Cache layout
------------
A cache directory holds one ``.npz`` file per operator plus a sidecar
index::

    <cache-dir>/
        simrank-<key>.npz            # CSR arrays (data/indices/indptr/shape)
                                     # + a JSON metadata record
        simrank-cache-index.json     # per-entry parameters, sizes and
                                     # LRU clock (rebuildable from the
                                     # .npz metadata at any time)

``<key>`` is the SHA-256 (truncated to 32 hex chars) of a canonical JSON
payload containing the cache format version, the *graph fingerprint* (a
SHA-256 over the adjacency CSR arrays — content-addressed, so renames and
re-generations of the same graph hit) and the resolved operator
parameters.  The parameter fields are derived in exactly one place —
:meth:`repro.config.SimRankConfig.cache_key_fields` — and hashed here by
:meth:`OperatorCache.key_for_fields`.  The whole execution plan
(executor, worker count, kernel) is deliberately excluded from the key:
the engine core is bit-deterministic across all of them, so operators
computed with any plan are interchangeable.

Eviction policy (LRU under a byte cap)
--------------------------------------
Construct the cache with ``max_bytes`` (or pass
``cache_max_bytes=``/``--simrank-cache-max-bytes`` through the operator
pipeline) to cap the total size of stored entries.  Every store and every
hit advances a logical LRU clock persisted in the sidecar index; when a
store pushes the directory over the cap, least-recently-used entries are
deleted (counted in ``lru_evictions``) until the cap is met again.  The
just-stored entry is always retained, even if it alone exceeds the cap.

Cross-ε / cross-k reuse
-----------------------
A LocalPush operator computed at a *tighter* threshold ``ε′ ≤ ε`` is a
strictly better approximation than one computed at ``ε``, and a top-k
pruned operator with ``k′ ≥ k`` is a superset of the ``k`` one.  On an
exact-key miss, :meth:`OperatorCache.lookup` therefore scans the index
for an entry with the same graph fingerprint, method and decay whose
``(ε′, k′)`` dominates the request, loads it, and *re-prunes* it down to
the requested contract (``top_k_per_row`` for a smaller ``k``, the
``ε/10`` floor for a looser full-matrix request, re-normalisation when
rows were normalised — per-row scaling preserves score ranking, so
re-pruning a normalised operator selects the same support).  The reverse
direction never happens: a looser entry cannot serve a tighter request.
Reuse hits are counted separately (``reuse_hits``) from exact key hits
(``exact_hits``); ``hits`` remains their sum.

Delta-chained entries
---------------------
Dynamic repairs (:mod:`repro.dynamic`) store their repaired snapshots
under a key derived from the *base* graph fingerprint plus the update
batch's content hash (:meth:`OperatorCache.delta_key_for`), so a warm
base entry plus a small delta is addressable without the updated CSR.
Chained entries carry the *updated* graph's fingerprint in their
metadata and therefore also participate in the ordinary reuse scan and
row serving for requests on the updated graph — a repaired operator
satisfies the same ``(1−c)·ε`` contract as a freshly computed one.

Invalidation and corruption
---------------------------
* **Versioned invalidation** — :data:`CACHE_FORMAT_VERSION` participates in
  the key *and* is checked against the stored metadata on load; bumping it
  orphans every existing entry, and a stale or mismatched file is evicted
  (deleted) rather than trusted.
* **Parameter verification** — the stored metadata must match the request
  exactly, guarding against key collisions and hand-edited files.
* **Corruption** — any load failure (truncated zip, missing arrays,
  malformed JSON) counts as a miss: the broken file is evicted and the
  operator is recomputed and re-stored.

Writes are atomic (temp file + ``os.replace``) so a crashed run never
leaves a half-written entry behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.config import CACHE_KEY_FIELDS
from repro.errors import SimRankError
from repro.graphs.fingerprint import graph_fingerprint, payload_digest
from repro.graphs.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simrank.topk import SimRankOperator
    from repro.telemetry.metrics import Counter
    from repro.telemetry.runtime import Telemetry

#: Bump to orphan every previously written cache entry (e.g. when the
#: on-disk layout or the operator semantics change).  Version 2: metadata
#: gained the graph fingerprint (needed by the reuse index) and the
#: unified engine core fixed the shard partition across all executors.
#: Version 3: the engine-family ``backend`` label left the key and the
#: metadata (every LocalPush operator comes from the one core), and
#: float64's ``dtype: None`` is hashed like every other key field.
CACHE_FORMAT_VERSION = 3

_FILE_PREFIX = "simrank-"
_INDEX_NAME = "simrank-cache-index.json"

#: Per-directory singleton registry so every consumer of the same cache
#: directory shares one instance — and therefore one set of hit/miss
#: counters, which the experiment tests assert on.
_CACHE_REGISTRY: Dict[Path, "OperatorCache"] = {}


def get_operator_cache(directory: str | os.PathLike,
                       max_bytes: Optional[int] = None) -> "OperatorCache":
    """Return the shared :class:`OperatorCache` for ``directory``.

    Memoised per resolved path: repeated calls (e.g. one per experiment
    grid cell) reuse the same instance and keep accumulating its counters.
    A non-``None`` ``max_bytes`` updates the shared instance's cap.
    """
    path = Path(directory).expanduser().resolve()
    cache = _CACHE_REGISTRY.get(path)
    if cache is None:
        cache = OperatorCache(path, max_bytes=max_bytes)
        _CACHE_REGISTRY[path] = cache
    elif max_bytes is not None:
        cache.max_bytes = max_bytes
    return cache


def _floor_prune(matrix: sp.csr_matrix, floor: float) -> sp.csr_matrix:
    """Drop entries below ``floor``, never the diagonal (paper's prune)."""
    from repro.graphs.sparse import csr_row_indices

    rows = csr_row_indices(matrix)
    keep = (matrix.data >= floor) | (rows == matrix.indices)
    matrix.data[~keep] = 0.0
    matrix.eliminate_zeros()
    return matrix


class OperatorCache:
    """On-disk operator cache with LRU eviction and cross-ε/k reuse.

    Prefer :func:`get_operator_cache` over direct construction so counter
    state is shared per directory.

    Counters
    --------
    ``hits`` (= ``exact_hits`` + ``reuse_hits``), ``misses``, ``stores``,
    ``evictions`` (corrupt/stale files), ``lru_evictions`` (byte-cap
    policy).  Single-source row serving (:meth:`lookup_row`) keeps its
    own ``row_hits``/``row_misses`` pair so the operator-level invariant
    ``hits == exact_hits + reuse_hits`` is unaffected by row traffic.
    """

    def __init__(self, directory: str | os.PathLike, *,
                 max_bytes: Optional[int] = None) -> None:
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes  # validated by the property setter
        self.hits = 0
        self.exact_hits = 0
        self.reuse_hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.lru_evictions = 0
        self.row_hits = 0
        self.row_misses = 0
        self._events: Optional["Counter"] = None

    def attach_telemetry(self, telemetry: Optional["Telemetry"]) -> None:
        """Mirror counter events onto ``repro_cache_events_total``.

        The plain integer counters above stay authoritative (their
        values and the ``hits == exact_hits + reuse_hits`` invariant are
        pinned by tests); attaching an enabled
        :class:`repro.telemetry.Telemetry` handle additionally emits one
        labelled registry increment per event so the cache shows up in
        the Prometheus exposition.  A ``None`` or disabled handle is a
        no-op — the unattached fast path is a single ``is None`` check.
        """
        if telemetry is None or not telemetry.enabled:
            return
        self._events = telemetry.registry.counter(
            "repro_cache_events_total",
            "Operator cache events (hit/miss/store/eviction) by type.")

    def _event(self, event: str) -> None:
        if self._events is not None:
            self._events.inc(1.0, event=event)

    @property
    def max_bytes(self) -> Optional[int]:
        """Byte cap for stored entries (``None`` = unbounded).

        Validated on every assignment — late updates (the
        :func:`get_operator_cache` registry and the
        ``cache_max_bytes=`` pipeline parameter reach existing
        instances) must not smuggle in a cap that would evict the whole
        directory on the next store.
        """
        return self._max_bytes

    @max_bytes.setter
    def max_bytes(self, value: Optional[int]) -> None:
        if value is not None and value <= 0:
            raise ValueError(f"max_bytes must be positive, got {value}")
        self._max_bytes = value

    # ------------------------------------------------------------------ #
    def key_for_fields(self, graph: Graph, fields: Dict[str, object]) -> str:
        """Content-addressed key for one operator configuration.

        ``fields`` is the mapping produced by
        :meth:`repro.config.SimRankConfig.cache_key_fields` — the single
        derivation of the key tuple.  The cache only *hashes*: it never
        decides what enters the key.  A field set that drifts from
        :data:`repro.config.CACHE_KEY_FIELDS` is rejected so the two
        modules cannot silently disagree.
        """
        if set(fields) != set(CACHE_KEY_FIELDS):
            raise ValueError(
                f"cache key fields must be exactly {sorted(CACHE_KEY_FIELDS)}, "
                f"got {sorted(fields)}")
        return payload_digest({
            "version": CACHE_FORMAT_VERSION,
            "graph": graph_fingerprint(graph),
            **fields,
        })

    def key_for(self, graph: Graph, *, method: str, decay: float,
                epsilon: Optional[float], top_k: Optional[int],
                row_normalize: bool, dtype: Optional[str] = None) -> str:
        """Keyword-argument form of :meth:`key_for_fields` (same key).

        ``dtype`` uses the key-field encoding: ``None`` for float64 (the
        reference precision), the dtype name otherwise.
        """
        return self.key_for_fields(graph, {
            "method": method,
            "decay": decay,
            "epsilon": epsilon,
            "top_k": top_k,
            "row_normalize": row_normalize,
            "dtype": dtype,
        })

    def delta_key_for(self, base_fingerprint: str, delta_hash: str,
                      fields: Dict[str, object]) -> str:
        """Content-addressed key for a delta-chained (repaired) entry.

        Dynamic repairs (:mod:`repro.dynamic`) key their snapshots off
        the *base* graph fingerprint plus the update batch's content
        hash (:meth:`repro.graphs.delta.UpdateBatch.content_hash`)
        instead of the updated graph's fingerprint, so a process that
        holds the base graph and the delta can address the repaired
        operator without materialising the updated CSR first.  The
        parameter fields are the same
        :meth:`repro.config.SimRankConfig.cache_key_fields` mapping the
        plain key uses — rejected on drift, hashed through the shared
        :func:`repro.graphs.fingerprint.payload_digest` path.
        """
        if set(fields) != set(CACHE_KEY_FIELDS):
            raise ValueError(
                f"cache key fields must be exactly {sorted(CACHE_KEY_FIELDS)}, "
                f"got {sorted(fields)}")
        return payload_digest({
            "version": CACHE_FORMAT_VERSION,
            "base": base_fingerprint,
            "delta": delta_hash,
            **fields,
        })

    def lookup_delta(self, base_fingerprint: str, delta_hash: str,
                     fields: Dict[str, object]
                     ) -> Optional["SimRankOperator"]:
        """Load the repaired operator chained off ``base + delta``.

        Metadata is verified against ``fields`` exactly as for plain
        exact-key hits; a hit counts as an ``exact_hit`` and bumps the
        LRU clock, a miss (or a corrupt/stale file, evicted) counts as a
        miss.
        """
        key = self.delta_key_for(base_fingerprint, delta_hash, fields)
        return self.load(key, expect=dict(fields))

    def store_delta(self, base_fingerprint: str, delta_hash: str,
                    fields: Dict[str, object],
                    operator: "SimRankOperator", *,
                    fingerprint: Optional[str] = None) -> Path:
        """Persist a repaired operator under its delta-chained key.

        ``fingerprint`` is the *updated* graph's fingerprint — recorded
        in the entry metadata, so besides the chain addressing the entry
        also joins the ordinary reuse scan (and row serving) for any
        later request on the updated graph: a repaired operator
        satisfies the same ``(1−c)·ε`` contract as a fresh one.
        """
        key = self.delta_key_for(base_fingerprint, delta_hash, fields)
        return self.store(key, operator, fingerprint=fingerprint)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{_FILE_PREFIX}{key}.npz"

    def __len__(self) -> int:
        return sum(1 for path in self.directory.glob(f"{_FILE_PREFIX}*.npz"))

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        for path in self.directory.glob(f"{_FILE_PREFIX}*.npz"):
            path.unlink()
            removed += 1
        self._index_path.unlink(missing_ok=True)
        return removed

    # ------------------------------------------------------------------ #
    # Sidecar index (LRU clock + reuse parameters)
    # ------------------------------------------------------------------ #
    @property
    def _index_path(self) -> Path:
        return self.directory / _INDEX_NAME

    def _load_index(self) -> dict:
        try:
            index = json.loads(self._index_path.read_text())
            if (not isinstance(index, dict)
                    or not isinstance(index.get("entries"), dict)):
                raise ValueError("malformed index")
        except Exception:
            index = {"version": CACHE_FORMAT_VERSION, "clock": 0, "entries": {}}
        return index

    def _save_index(self, index: dict) -> None:
        temp_path = self._index_path.with_name(
            self._index_path.name + f".tmp{os.getpid()}")
        try:
            temp_path.write_text(json.dumps(index, sort_keys=True))
            os.replace(temp_path, self._index_path)
        finally:
            temp_path.unlink(missing_ok=True)

    def _key_of_path(self, path: Path) -> str:
        return path.name[len(_FILE_PREFIX):-len(".npz")]

    def _sync_index(self, index: dict) -> dict:
        """Reconcile the index with the directory contents.

        Entries whose file disappeared are dropped; files the index does
        not know (written by an older revision or another process) are
        adopted by reading their embedded metadata, so LRU accounting and
        the reuse scan always see the whole directory.
        """
        entries = index["entries"]
        on_disk = {self._key_of_path(path): path
                   for path in self.directory.glob(f"{_FILE_PREFIX}*.npz")}
        for key in [key for key in entries if key not in on_disk]:
            del entries[key]
        for key, path in on_disk.items():
            if key in entries:
                continue
            try:
                with np.load(path, allow_pickle=False) as payload:
                    meta = json.loads(str(payload["meta"]))
            except Exception:
                continue  # unreadable; the exact-load path will evict it
            entries[key] = {
                "fingerprint": meta.get("fingerprint"),
                "method": meta.get("method"),
                "decay": meta.get("decay"),
                "epsilon": meta.get("epsilon"),
                "top_k": meta.get("top_k"),
                "row_normalize": bool(meta.get("row_normalize", False)),
                "dtype": meta.get("dtype"),
                "bytes": path.stat().st_size,
                "last_used": 0,
            }
        return index

    def _touch(self, index: dict, key: str) -> None:
        index["clock"] = int(index.get("clock", 0)) + 1
        if key in index["entries"]:
            index["entries"][key]["last_used"] = index["clock"]

    def _drop_entry(self, key: str) -> None:
        index = self._load_index()
        if key in index["entries"]:
            del index["entries"][key]
            self._save_index(index)

    def _enforce_budget(self, index: dict, protect: str) -> None:
        """Evict LRU entries until the byte cap is met (``protect`` stays)."""
        if self.max_bytes is None:
            return
        entries = index["entries"]
        total = sum(int(entry.get("bytes", 0)) for entry in entries.values())
        while total > self.max_bytes:
            victims = [key for key in entries if key != protect]
            if not victims:
                break
            victim = min(victims,
                         key=lambda key: int(entries[key].get("last_used", 0)))
            total -= int(entries[victim].get("bytes", 0))
            self.path_for(victim).unlink(missing_ok=True)
            del entries[victim]
            self.lru_evictions += 1
            self._event("lru_eviction")

    # ------------------------------------------------------------------ #
    # Load / store
    # ------------------------------------------------------------------ #
    def _load(self, key: str, *, expect: Optional[dict] = None
              ) -> Optional["SimRankOperator"]:
        """Deserialize the entry under ``key`` without touching counters.

        Corrupt, stale-format or mismatched files are evicted (deleted and
        counted in ``evictions``); the caller decides hit/miss accounting.
        """
        from repro.simrank.topk import SimRankOperator

        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as payload:
                meta = json.loads(str(payload["meta"]))
                if meta.get("version") != CACHE_FORMAT_VERSION:
                    raise ValueError(
                        f"cache format version {meta.get('version')} != "
                        f"{CACHE_FORMAT_VERSION}")
                for field, expected in (expect or {}).items():
                    if meta.get(field) != expected:
                        raise ValueError(
                            f"metadata mismatch for {field!r}: "
                            f"{meta.get(field)!r} != {expected!r}")
                shape = tuple(int(side) for side in payload["shape"])
                matrix = sp.csr_matrix(
                    (payload["data"], payload["indices"], payload["indptr"]),
                    shape=shape)
                matrix.check_format(full_check=True)
        except Exception:
            # Truncated, corrupted, stale-format or mismatched entry: evict
            # so the caller recomputes and overwrites with a fresh file.
            self.evictions += 1
            self._event("eviction")
            path.unlink(missing_ok=True)
            self._drop_entry(key)
            return None
        return SimRankOperator(
            matrix=matrix,
            method=str(meta["method"]),
            decay=float(meta["decay"]),
            epsilon=None if meta["epsilon"] is None else float(meta["epsilon"]),
            top_k=None if meta["top_k"] is None else int(meta["top_k"]),
            precompute_seconds=0.0,
            cache_hit=True,
            row_normalize=bool(meta.get("row_normalize", False)),
        )

    def load(self, key: str, *, expect: Optional[dict] = None
             ) -> Optional["SimRankOperator"]:
        """Load the operator stored under ``key``, or ``None`` on a miss.

        ``expect`` maps metadata field names to required values (the
        resolved request parameters); a mismatch — as well as a version
        mismatch or any deserialisation failure — evicts the file and
        counts as a miss.  Exact-key hits bump the LRU clock.
        """
        operator = self._load(key, expect=expect)
        if operator is None:
            self.misses += 1
            self._event("miss")
            return None
        self.hits += 1
        self.exact_hits += 1
        self._event("exact_hit")
        index = self._load_index()
        self._touch(index, key)
        self._save_index(index)
        return operator

    # ------------------------------------------------------------------ #
    # Cross-ε / cross-k reuse
    # ------------------------------------------------------------------ #
    @staticmethod
    def _can_serve(entry: dict, *, fingerprint: str, method: str,
                   decay: float, epsilon: float, top_k: Optional[int],
                   row_normalize: bool, dtype: Optional[str] = None) -> bool:
        """Whether a stored entry dominates the requested contract.

        Domination is directional by construction: a tighter ``ε′ ≤ ε``
        and a larger ``k′ ≥ k`` can be re-pruned down to the request; the
        reverse never qualifies.  The normalisation flag must match the
        request (the keyed contract — raw and normalised operators never
        substitute for each other); re-pruning a normalised entry to a
        smaller ``k`` is sound because per-row scaling preserves score
        ranking.  A normalised *full-matrix* entry cannot be
        floor-re-pruned (its raw magnitudes are gone), so it only serves
        a request at the same ``ε``.
        """
        if entry.get("fingerprint") != fingerprint:
            return False
        if entry.get("method") != "localpush" or method != "localpush":
            return False
        if entry.get("decay") != decay:
            return False
        if bool(entry.get("row_normalize", False)) != row_normalize:
            return False
        # Precision is part of the contract: a float32 entry never
        # serves a float64 request or vice versa.  float64 entries
        # carry no marker (``entry.get`` → ``None`` ≡ float64).
        if entry.get("dtype") != dtype:
            return False
        candidate_epsilon = entry.get("epsilon")
        if candidate_epsilon is None or candidate_epsilon > epsilon:
            return False
        candidate_k = entry.get("top_k")
        if top_k is None:
            if candidate_k is not None:
                return False
            return not row_normalize or candidate_epsilon == epsilon
        return candidate_k is None or candidate_k >= top_k

    def _reprune(self, candidate: "SimRankOperator", *, epsilon: float,
                 top_k: Optional[int], row_normalize: bool) -> sp.csr_matrix:
        """Re-prune a dominating entry down to the requested contract."""
        from repro.graphs.sparse import sparse_row_normalize, top_k_per_row

        matrix = candidate.matrix
        if top_k is not None:
            if candidate.top_k is None or candidate.top_k > top_k:
                matrix = top_k_per_row(matrix, top_k, keep_diagonal=True)
                if row_normalize:
                    # Per-row scaling preserved the ranking, so the pruned
                    # support is exact; restore the rows-sum-to-one
                    # contract over it.
                    matrix = sparse_row_normalize(matrix)
        elif (not row_normalize and candidate.epsilon is not None
              and candidate.epsilon < epsilon):
            matrix = _floor_prune(matrix, epsilon / 10.0)
        matrix.sort_indices()
        return matrix

    def lookup(self, graph: Graph, *, method: str, decay: float,
               epsilon: Optional[float], top_k: Optional[int],
               row_normalize: bool, dtype: Optional[str] = None,
               fingerprint: Optional[str] = None
               ) -> Optional["SimRankOperator"]:
        """Serve a request from the cache, by exact key or by reuse.

        The exact key is tried first (an ``exact_hit``).  On a miss, if
        the request is a LocalPush operator, the index is scanned for an
        entry computed at a tighter ``ε′ ≤ ε`` with ``k′ ≥ k`` on the
        same graph/decay; the closest dominating entry (largest ``ε′``,
        then smallest sufficient ``k′``) is re-pruned to the requested
        contract and served as a ``reuse_hit``.  Anything else is a miss.
        """
        key = self.key_for(graph, method=method, decay=decay, epsilon=epsilon,
                           top_k=top_k, row_normalize=row_normalize,
                           dtype=dtype)
        expect: Dict[str, object] = {
            "method": method, "decay": decay, "epsilon": epsilon,
            "top_k": top_k, "row_normalize": row_normalize, "dtype": dtype}
        exact = self._load(key, expect=expect)
        if exact is not None:
            self.hits += 1
            self.exact_hits += 1
            self._event("exact_hit")
            index = self._load_index()
            self._touch(index, key)
            self._save_index(index)
            return exact

        if method == "localpush" and epsilon is not None:
            index = self._sync_index(self._load_index())
            fingerprint = fingerprint or graph_fingerprint(graph)
            candidates = [
                (candidate_key, entry)
                for candidate_key, entry in index["entries"].items()
                if self._can_serve(entry, fingerprint=fingerprint,
                                   method=method, decay=decay,
                                   epsilon=epsilon, top_k=top_k,
                                   row_normalize=row_normalize,
                                   dtype=dtype)
            ]
            # Closest dominating entry first: largest ε′ (least
            # over-computation), then smallest sufficient k′ (least to
            # load and re-prune), then most recently used.
            candidates.sort(key=lambda item: (
                -float(item[1]["epsilon"]),
                float("inf") if item[1]["top_k"] is None else item[1]["top_k"],
                -int(item[1].get("last_used", 0))))
            for candidate_key, entry in candidates:
                candidate = self._load(candidate_key)
                if candidate is None:
                    continue  # corrupt on disk; evicted, try the next
                matrix = self._reprune(candidate, epsilon=epsilon,
                                       top_k=top_k,
                                       row_normalize=row_normalize)
                self.hits += 1
                self.reuse_hits += 1
                self._event("reuse_hit")
                self._touch(index, candidate_key)
                self._save_index(index)
                from repro.simrank.topk import SimRankOperator

                return SimRankOperator(
                    matrix=matrix,
                    method=method,
                    decay=decay,
                    epsilon=epsilon,
                    top_k=top_k,
                    precompute_seconds=0.0,
                    cache_hit=True,
                    row_normalize=row_normalize,
                    reuse_source_epsilon=candidate.epsilon,
                    reuse_source_top_k=candidate.top_k,
                )

        self.misses += 1
        self._event("miss")
        return None

    def lookup_row(self, graph: Graph, source: int, *, decay: float,
                   epsilon: float, top_k: Optional[int],
                   row_normalize: bool, dtype: Optional[str] = None,
                   fingerprint: Optional[str] = None
                   ) -> Optional[Tuple[sp.csr_matrix, float]]:
        """Serve one row of a LocalPush operator from any dominating entry.

        A cached all-pairs entry answers any single-source request
        without recompute: the index is scanned with the same dominance
        relation as :meth:`lookup` (same graph fingerprint, decay and
        normalisation flag; ``ε′ ≤ ε``; ``k′ ≥ k``), row ``source`` of
        the closest dominating entry is sliced out and re-pruned to the
        requested contract with the exact :meth:`_reprune` semantics
        (``top_k_per_row(..., keep_diagonal=True)`` / ``ε/10`` floor /
        re-normalisation), applied to the single row.

        Returns ``(row, entry_epsilon)`` — the ``1×n`` CSR row and the
        ``ε′`` the stored entry was computed at (the error bound the
        answer actually satisfies) — or ``None`` on a miss.  Counted in
        ``row_hits``/``row_misses``, never in the operator counters.
        """
        import dataclasses

        n = graph.num_nodes
        if not 0 <= int(source) < n:
            raise SimRankError(
                f"source node {source} out of range for a graph "
                f"with {n} nodes")
        index = self._sync_index(self._load_index())
        fingerprint = fingerprint or graph_fingerprint(graph)
        candidates = [
            (candidate_key, entry)
            for candidate_key, entry in index["entries"].items()
            if self._can_serve(entry, fingerprint=fingerprint,
                               method="localpush", decay=decay,
                               epsilon=epsilon, top_k=top_k,
                               row_normalize=row_normalize, dtype=dtype)
        ]
        candidates.sort(key=lambda item: (
            -float(item[1]["epsilon"]),
            float("inf") if item[1]["top_k"] is None else item[1]["top_k"],
            -int(item[1].get("last_used", 0))))
        for candidate_key, entry in candidates:
            candidate = self._load(candidate_key)
            if candidate is None:
                continue  # corrupt on disk; evicted, try the next
            # Embed the sliced row back at its original index so the
            # shared re-prune semantics (keep_diagonal targets column
            # ``source``) apply unchanged; every re-prune step is
            # row-independent, so this equals slicing a fully re-pruned
            # operator at O(row) cost instead of O(nnz).
            sliced = sp.csr_matrix(candidate.matrix).getrow(int(source))
            indptr = np.zeros(n + 1, dtype=sliced.indptr.dtype)
            indptr[int(source) + 1:] = sliced.nnz
            embedded = sp.csr_matrix(
                (sliced.data, sliced.indices, indptr), shape=(n, n))
            matrix = self._reprune(
                dataclasses.replace(candidate, matrix=embedded),
                epsilon=epsilon, top_k=top_k, row_normalize=row_normalize)
            self.row_hits += 1
            self._event("row_hit")
            self._touch(index, candidate_key)
            self._save_index(index)
            return matrix.getrow(int(source)), float(entry["epsilon"])
        self.row_misses += 1
        self._event("row_miss")
        return None

    # ------------------------------------------------------------------ #
    def store(self, key: str, operator: "SimRankOperator", *,
              fingerprint: Optional[str] = None) -> Path:
        """Atomically persist ``operator`` under ``key``.

        ``fingerprint`` (the graph fingerprint) is recorded in the entry
        metadata so the reuse scan can match it; without it the entry
        still serves exact-key hits but never reuse.  Storing may trigger
        LRU eviction of other entries when a byte cap is configured.
        """
        matrix = sp.csr_matrix(operator.matrix)
        # Key-field encoding: float64 (the reference precision) is
        # recorded as None.
        dtype = "float32" if matrix.dtype == np.float32 else None
        meta = json.dumps({
            "version": CACHE_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "method": operator.method,
            "decay": operator.decay,
            "epsilon": operator.epsilon,
            "top_k": operator.top_k,
            "row_normalize": operator.row_normalize,
            "dtype": dtype,
            "precompute_seconds": operator.precompute_seconds,
        })
        path = self.path_for(key)
        temp_path = path.with_name(path.name + f".tmp{os.getpid()}")
        try:
            with open(temp_path, "wb") as handle:
                np.savez_compressed(
                    handle,
                    data=matrix.data,
                    indices=matrix.indices,
                    indptr=matrix.indptr,
                    shape=np.asarray(matrix.shape, dtype=np.int64),
                    meta=np.asarray(meta),
                )
            os.replace(temp_path, path)
        finally:
            temp_path.unlink(missing_ok=True)
        self.stores += 1
        self._event("store")

        index = self._sync_index(self._load_index())
        index["entries"][key] = {
            "fingerprint": fingerprint,
            "method": operator.method,
            "decay": operator.decay,
            "epsilon": operator.epsilon,
            "top_k": operator.top_k,
            "row_normalize": operator.row_normalize,
            "dtype": dtype,
            "bytes": path.stat().st_size,
            "last_used": 0,
        }
        self._touch(index, key)
        self._enforce_budget(index, protect=key)
        self._save_index(index)
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"OperatorCache({str(self.directory)!r}, hits={self.hits} "
                f"(exact={self.exact_hits}, reuse={self.reuse_hits}), "
                f"misses={self.misses}, stores={self.stores}, "
                f"rows={self.row_hits}/{self.row_hits + self.row_misses}, "
                f"evictions={self.evictions}, "
                f"lru_evictions={self.lru_evictions}, "
                f"max_bytes={self.max_bytes})")


__all__ = ["OperatorCache", "get_operator_cache", "graph_fingerprint",
           "CACHE_FORMAT_VERSION"]
