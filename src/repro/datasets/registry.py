"""Registry of synthetic benchmark specifications mirroring the paper.

Each entry reproduces, at laptop scale, the characteristics of the 12
datasets in Table V of the paper: class count, feature dimensionality,
target node homophily and relative size.  Node counts are scaled down from
the real benchmarks (pokec has 1.6M nodes; here it is the largest synthetic
graph) while preserving the ordering of sizes and the homophily regime.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.datasets.dataset import Dataset
from repro.datasets.splits import stratified_splits
from repro.datasets.synthetic import SyntheticGraphConfig, generate_synthetic_graph
from repro.errors import DatasetError
from repro.graphs.homophily import node_homophily
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class DatasetSpec:
    """A named benchmark specification.

    ``paper_nodes`` / ``paper_edges`` record the statistics of the real
    dataset for reporting; ``config`` describes the synthetic stand-in.
    """

    name: str
    config: SyntheticGraphConfig
    paper_nodes: int
    paper_edges: int
    paper_homophily: float
    scale: str  # "small" or "large"
    num_splits: int

    def build_config(self, scale_factor: float = 1.0) -> SyntheticGraphConfig:
        if scale_factor == 1.0:
            return self.config
        return self.config.scaled(scale_factor)


def _spec(name: str, *, nodes: int, classes: int, features: int, degree: float,
          homophily: float, paper_nodes: int, paper_edges: int,
          paper_homophily: float, scale: str, num_splits: int,
          feature_signal: float = 1.0, structure_signal: float = 0.85,
          class_imbalance: float = 0.0) -> DatasetSpec:
    config = SyntheticGraphConfig(
        num_nodes=nodes,
        num_classes=classes,
        num_features=features,
        average_degree=degree,
        homophily=homophily,
        feature_signal=feature_signal,
        structure_signal=structure_signal,
        class_imbalance=class_imbalance,
        name=name,
    )
    return DatasetSpec(
        name=name,
        config=config,
        paper_nodes=paper_nodes,
        paper_edges=paper_edges,
        paper_homophily=paper_homophily,
        scale=scale,
        num_splits=num_splits,
    )


# --------------------------------------------------------------------------- #
# Small-scale benchmarks (5 repeats in the paper)
# --------------------------------------------------------------------------- #
_SMALL_SPECS: List[DatasetSpec] = [
    _spec("texas", nodes=183, classes=5, features=96, degree=3.2, homophily=0.11,
          paper_nodes=183, paper_edges=295, paper_homophily=0.11, scale="small",
          num_splits=5, feature_signal=3.0, class_imbalance=0.35),
    _spec("citeseer", nodes=1200, classes=6, features=128, degree=2.8, homophily=0.74,
          paper_nodes=3327, paper_edges=4676, paper_homophily=0.74, scale="small",
          num_splits=5, feature_signal=2.5),
    _spec("cora", nodes=1000, classes=7, features=128, degree=3.9, homophily=0.81,
          paper_nodes=2708, paper_edges=5278, paper_homophily=0.81, scale="small",
          num_splits=5, feature_signal=2.5),
    _spec("chameleon", nodes=900, classes=5, features=96, degree=14.0, homophily=0.23,
          paper_nodes=2277, paper_edges=31421, paper_homophily=0.23, scale="small",
          num_splits=5, feature_signal=1.3),
    _spec("pubmed", nodes=1500, classes=3, features=100, degree=4.5, homophily=0.80,
          paper_nodes=19717, paper_edges=44327, paper_homophily=0.80, scale="small",
          num_splits=5, feature_signal=2.0),
    _spec("squirrel", nodes=1200, classes=5, features=96, degree=16.0, homophily=0.22,
          paper_nodes=5201, paper_edges=198493, paper_homophily=0.22, scale="small",
          num_splits=5, feature_signal=0.5),
]

# --------------------------------------------------------------------------- #
# Large-scale benchmarks (10 repeats in the paper)
# --------------------------------------------------------------------------- #
_LARGE_SPECS: List[DatasetSpec] = [
    _spec("genius", nodes=4000, classes=2, features=12, degree=4.0, homophily=0.61,
          paper_nodes=421961, paper_edges=984979, paper_homophily=0.61, scale="large",
          num_splits=10, feature_signal=1.6, class_imbalance=0.5),
    _spec("arxiv-year", nodes=4000, classes=5, features=64, degree=7.0, homophily=0.22,
          paper_nodes=169343, paper_edges=1166243, paper_homophily=0.22, scale="large",
          num_splits=10, feature_signal=0.8),
    _spec("penn94", nodes=3000, classes=2, features=32, degree=16.0, homophily=0.47,
          paper_nodes=41554, paper_edges=1362229, paper_homophily=0.47, scale="large",
          num_splits=10, feature_signal=1.0),
    _spec("twitch-gamers", nodes=4000, classes=2, features=7, degree=10.0, homophily=0.54,
          paper_nodes=168114, paper_edges=6797557, paper_homophily=0.54, scale="large",
          num_splits=10, feature_signal=0.5),
    _spec("snap-patents", nodes=6000, classes=5, features=64, degree=5.0, homophily=0.07,
          paper_nodes=2923922, paper_edges=13975788, paper_homophily=0.07, scale="large",
          num_splits=10, feature_signal=0.5),
    _spec("pokec", nodes=8000, classes=2, features=64, degree=9.0, homophily=0.44,
          paper_nodes=1632803, paper_edges=30622564, paper_homophily=0.44, scale="large",
          num_splits=10, feature_signal=0.5),
]

DATASET_SPECS: Dict[str, DatasetSpec] = {spec.name: spec for spec in _SMALL_SPECS + _LARGE_SPECS}
SMALL_DATASETS: List[str] = [spec.name for spec in _SMALL_SPECS]
LARGE_DATASETS: List[str] = [spec.name for spec in _LARGE_SPECS]

_ALIASES = {
    "arxiv": "arxiv-year",
    "snap": "snap-patents",
    "twitch": "twitch-gamers",
}

_DATASET_CACHE: Dict[tuple, Dataset] = {}


def list_datasets(scale: Optional[str] = None) -> List[str]:
    """Return dataset names, optionally filtered by ``"small"``/``"large"``."""
    if scale is None:
        return list(DATASET_SPECS)
    if scale not in {"small", "large"}:
        raise DatasetError(f"scale must be 'small' or 'large', got {scale!r}")
    return [name for name, spec in DATASET_SPECS.items() if spec.scale == scale]


def get_spec(name: str) -> DatasetSpec:
    """Look up a :class:`DatasetSpec` by (possibly aliased) name."""
    key = _ALIASES.get(name.lower(), name.lower())
    if key not in DATASET_SPECS:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {', '.join(DATASET_SPECS)}"
        )
    return DATASET_SPECS[key]


def load_dataset(name: str, *, seed: RngLike = 0, scale_factor: float = 1.0,
                 num_splits: Optional[int] = None, cache: bool = True) -> Dataset:
    """Generate (or fetch from cache) the synthetic stand-in for ``name``.

    Parameters
    ----------
    name:
        Benchmark name or alias (e.g. ``"pokec"``, ``"arxiv"``).
    seed:
        Master seed controlling both graph generation and splits.
    scale_factor:
        Multiplier on the node count; benchmarks use values below one to run
        quickly, the experiment scripts use the default 1.0.
    num_splits:
        Override the number of repeated splits (defaults to the paper's
        5/10 for small/large datasets).
    cache:
        When true (the default), generated datasets are memoised per
        ``(name, seed, scale_factor, num_splits)``.
    """
    spec = get_spec(name)
    splits = num_splits if num_splits is not None else spec.num_splits
    if splits < 1:
        raise DatasetError(f"num_splits must be >= 1, got {splits}")
    if not isinstance(seed, (int, type(None))):
        cache = False
    cache_key = (spec.name, seed, scale_factor, splits)
    if cache and cache_key in _DATASET_CACHE:
        return _DATASET_CACHE[cache_key]

    config = spec.build_config(scale_factor)
    graph_seed = seed if seed is not None else None
    graph = generate_synthetic_graph(config, seed=graph_seed)
    split_seed = (graph_seed + 1) if isinstance(graph_seed, int) else None
    split_list = stratified_splits(graph.labels, num_splits=splits, seed=split_seed)
    dataset = Dataset(
        graph=graph,
        splits=split_list,
        name=spec.name,
        metadata={
            "scale": spec.scale,
            "scale_factor": scale_factor,
            "target_homophily": spec.paper_homophily,
            "measured_homophily": round(node_homophily(graph), 4),
            "paper_nodes": spec.paper_nodes,
            "paper_edges": spec.paper_edges,
        },
    )
    if cache:
        # Threads that generated the same key concurrently all return the
        # first stored dataset, so they share one graph (and its operator).
        dataset = _DATASET_CACHE.setdefault(cache_key, dataset)
    return dataset


def clear_dataset_cache() -> None:
    """Drop all memoised datasets (useful in long test sessions)."""
    _DATASET_CACHE.clear()


__all__ = [
    "DatasetSpec",
    "DATASET_SPECS",
    "SMALL_DATASETS",
    "LARGE_DATASETS",
    "list_datasets",
    "get_spec",
    "load_dataset",
    "clear_dataset_cache",
]
