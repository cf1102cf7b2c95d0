"""The :class:`Graph` container used throughout the library.

A :class:`Graph` wraps an undirected adjacency matrix stored in CSR format
together with optional node features and labels.  It exposes the quantities
the SIGMA paper relies on — degrees, neighbour lists, average degree ``d``,
and cheap conversions to the propagation operators used by the models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError


def _as_csr(adjacency: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    matrix = sp.csr_matrix(adjacency, dtype=np.float64)
    matrix.eliminate_zeros()
    matrix.sort_indices()
    return matrix


@dataclass
class Graph:
    """An undirected attributed graph.

    Parameters
    ----------
    adjacency:
        ``(n, n)`` sparse adjacency matrix.  It is symmetrised on
        construction unless ``assume_symmetric`` is given to
        :meth:`from_edges`.
    features:
        Optional ``(n, f)`` dense node-feature matrix.
    labels:
        Optional ``(n,)`` integer label vector.
    name:
        Human readable dataset name, used in experiment reports.
    """

    adjacency: sp.csr_matrix
    features: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None
    name: str = "graph"
    _degrees: np.ndarray = field(init=False, repr=False, default=None)
    #: The in-process SIGMA operator memo entry of this graph object, owned
    #: by :func:`repro.simrank.topk.shared_simrank_operator`.  It lives and
    #: dies with the graph, which is never modified in place.
    _shared_operator: Optional[object] = field(
        init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        self.adjacency = _as_csr(self.adjacency)
        rows, cols = self.adjacency.shape
        if rows != cols:
            raise GraphError(
                f"adjacency must be square, got shape {self.adjacency.shape}"
            )
        if (self.adjacency != self.adjacency.T).nnz != 0:
            raise GraphError("adjacency must be symmetric (undirected graph)")
        if (self.adjacency.data < 0).any():
            raise GraphError("adjacency must not contain negative weights")
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=np.float64)
            if self.features.ndim != 2 or self.features.shape[0] != rows:
                raise GraphError(
                    "features must be a (num_nodes, dim) matrix, got shape "
                    f"{self.features.shape} for {rows} nodes"
                )
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
            if self.labels.shape[0] != rows:
                raise GraphError(
                    f"labels must have one entry per node, got {self.labels.shape[0]} "
                    f"for {rows} nodes"
                )
        self._degrees = np.asarray(self.adjacency.sum(axis=1)).ravel()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]] | np.ndarray,
        *,
        features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        name: str = "graph",
    ) -> "Graph":
        """Build an undirected, unweighted graph from an edge list.

        Duplicate edges and self-loops are removed; each undirected edge is
        stored in both directions.
        """
        edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                                dtype=np.int64)
        if edge_array.size == 0:
            adjacency = sp.csr_matrix((num_nodes, num_nodes), dtype=np.float64)
            return cls(adjacency, features=features, labels=labels, name=name)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphError(f"edges must be (m, 2) pairs, got shape {edge_array.shape}")
        src, dst = edge_array[:, 0], edge_array[:, 1]
        if (src < 0).any() or (dst < 0).any() or (src >= num_nodes).any() or (dst >= num_nodes).any():
            raise GraphError("edge endpoints must be in [0, num_nodes)")
        keep = src != dst
        src, dst = src[keep], dst[keep]
        all_src = np.concatenate([src, dst])
        all_dst = np.concatenate([dst, src])
        data = np.ones(all_src.shape[0], dtype=np.float64)
        adjacency = sp.coo_matrix((data, (all_src, all_dst)), shape=(num_nodes, num_nodes))
        adjacency = adjacency.tocsr()
        adjacency.data[:] = 1.0  # collapse duplicate edges to weight one
        return cls(adjacency, features=features, labels=labels, name=name)

    @classmethod
    def from_networkx(cls, nx_graph, *, features: Optional[np.ndarray] = None,
                      labels: Optional[np.ndarray] = None, name: str = "graph") -> "Graph":
        """Build a :class:`Graph` from an (undirected) networkx graph."""
        import networkx as nx

        nodes = sorted(nx_graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in nx_graph.edges()]
        return cls.from_edges(len(nodes), edges, features=features, labels=labels, name=name)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return int(self.adjacency.nnz // 2)

    @property
    def num_directed_edges(self) -> int:
        """Number of stored (directed) adjacency entries."""
        return int(self.adjacency.nnz)

    @property
    def degrees(self) -> np.ndarray:
        """Weighted node degrees (row sums of the adjacency matrix)."""
        return self._degrees

    @property
    def average_degree(self) -> float:
        """Average degree ``d = m / n`` used in the paper's complexity bounds."""
        if self.num_nodes == 0:
            return 0.0
        return float(self._degrees.mean())

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise GraphError("graph has no labels")
        return int(self.labels.max()) + 1

    @property
    def num_features(self) -> int:
        if self.features is None:
            raise GraphError("graph has no features")
        return int(self.features.shape[1])

    def neighbors(self, node: int) -> np.ndarray:
        """Return the neighbour indices of ``node``."""
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node {node} out of range [0, {self.num_nodes})")
        start, end = self.adjacency.indptr[node], self.adjacency.indptr[node + 1]
        return self.adjacency.indices[start:end]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors(u)

    def edge_list(self) -> np.ndarray:
        """Return the ``(m, 2)`` array of undirected edges with ``u < v``."""
        coo = self.adjacency.tocoo()
        mask = coo.row < coo.col
        return np.stack([coo.row[mask], coo.col[mask]], axis=1)

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def subgraph(self, nodes: Sequence[int], *, name: Optional[str] = None) -> "Graph":
        """Return the induced subgraph on ``nodes`` (relabelled to 0..k-1)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        adjacency = self.adjacency[nodes][:, nodes]
        features = self.features[nodes] if self.features is not None else None
        labels = self.labels[nodes] if self.labels is not None else None
        return Graph(adjacency, features=features, labels=labels,
                     name=name or f"{self.name}-sub")

    def apply_delta(self, updates) -> "Graph":
        """Return a new :class:`Graph` with an update batch applied.

        ``updates`` is anything
        :meth:`repro.graphs.delta.UpdateBatch.coerce` accepts — a
        :class:`~repro.graphs.delta.GraphDelta`, an
        :class:`~repro.graphs.delta.UpdateBatch` or an iterable of
        deltas — applied left to right against this graph's edge set.
        The node set is fixed: every endpoint must be an existing node
        id.  Deltas are strict (insert requires the edge absent, delete
        and reweight require it present); a violation raises
        :class:`~repro.errors.GraphError` and nothing is applied.
        Features, labels and the name carry over unchanged.

        Cost is proportional to the batch size plus the touched rows of
        the CSR, not the edge count: the changes accumulate into a small
        COO correction added to the adjacency (a deletion contributes
        exactly ``-weight``, so the cancelled entry is exact ``0.0`` and
        dropped by the CSR normalisation) — the delta-sized contract the
        :mod:`repro.dynamic` repair path relies on.
        """
        from repro.graphs.delta import UpdateBatch

        batch = UpdateBatch.coerce(updates)
        n = self.num_nodes
        adjacency = self.adjacency
        # Net weight change per canonical (u, v) pair; presence checks
        # see earlier deltas of the same batch through this mapping.
        changes: dict = {}
        for delta in batch:
            u, v = delta.u, delta.v
            if v >= n:
                raise GraphError(
                    f"delta endpoint {v} out of range for a graph with "
                    f"{n} nodes")
            current = float(adjacency[u, v]) + changes.get((u, v), 0.0)
            if delta.kind == "insert":
                if current != 0.0:
                    raise GraphError(
                        f"cannot insert edge ({u}, {v}): already present")
                changes[(u, v)] = changes.get((u, v), 0.0) + delta.weight
            elif delta.kind == "delete":
                if current == 0.0:
                    raise GraphError(
                        f"cannot delete edge ({u}, {v}): not present")
                changes[(u, v)] = changes.get((u, v), 0.0) - current
            else:  # reweight
                if current == 0.0:
                    raise GraphError(
                        f"cannot reweight edge ({u}, {v}): not present")
                changes[(u, v)] = (changes.get((u, v), 0.0)
                                   + (delta.weight - current))
        if not changes:
            return Graph(adjacency.copy(), features=self.features,
                         labels=self.labels, name=self.name)
        pairs = [pair for pair, weight in changes.items() if weight != 0.0]
        if pairs:
            rows = np.fromiter((p[0] for p in pairs), dtype=np.int64,
                               count=len(pairs))
            cols = np.fromiter((p[1] for p in pairs), dtype=np.int64,
                               count=len(pairs))
            data = np.fromiter((changes[p] for p in pairs), dtype=np.float64,
                               count=len(pairs))
            correction = sp.coo_matrix(
                (np.concatenate([data, data]),
                 (np.concatenate([rows, cols]),
                  np.concatenate([cols, rows]))), shape=(n, n))
            adjacency = (adjacency + correction.tocsr()).tocsr()
        return Graph(adjacency, features=self.features,
                     labels=self.labels, name=self.name)

    def with_features(self, features: np.ndarray) -> "Graph":
        return Graph(self.adjacency, features=features, labels=self.labels, name=self.name)

    def with_labels(self, labels: np.ndarray) -> "Graph":
        return Graph(self.adjacency, features=self.features, labels=labels, name=self.name)

    def __getstate__(self) -> dict:
        # The memo entry holds a lock and belongs to this object in this
        # process; a pickled or deep-copied graph starts without one.
        state = dict(self.__dict__)
        state["_shared_operator"] = None
        return state

    def copy(self) -> "Graph":
        return Graph(
            self.adjacency.copy(),
            features=None if self.features is None else self.features.copy(),
            labels=None if self.labels is None else self.labels.copy(),
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"Graph(name={self.name!r}, nodes={self.num_nodes}, edges={self.num_edges}"]
        if self.features is not None:
            parts.append(f", features={self.features.shape[1]}")
        if self.labels is not None:
            parts.append(f", classes={self.num_classes}")
        parts.append(")")
        return "".join(parts)


__all__ = ["Graph"]
