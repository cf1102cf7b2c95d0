"""Experiment E2 — Table II: intra- vs inter-class SimRank statistics.

The paper's Table II reports mean ± standard deviation of SimRank scores for
intra-class and inter-class node pairs on Texas, Chameleon, Cora and Pubmed,
showing that intra-class pairs consistently score higher.  Fig. 2 plots the
corresponding score densities — and, declaratively, *shares this
experiment's cells*: the Fig. 2 spec reuses :func:`class_stats_cell`, so a
warm :class:`~repro.experiments.store.ArtifactStore` serves one
experiment's cells to the other without recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import ExperimentCell, ExperimentSpec, RunSpec
from repro.datasets.registry import load_dataset
from repro.experiments.common import format_table
from repro.experiments.engine import run_experiment
from repro.experiments.registry import experiment
from repro.simrank.analysis import SimRankClassStats, simrank_class_statistics
from repro.simrank.exact import exact_simrank

DEFAULT_DATASETS = ("texas", "chameleon", "cora", "pubmed")

TITLE = "Table II — intra- vs inter-class SimRank statistics"


@dataclass
class Table2Result:
    """Per-dataset intra/inter-class SimRank statistics."""

    stats: Dict[str, SimRankClassStats] = field(default_factory=dict)

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for name, stat in self.stats.items():
            rows.append({
                "dataset": name,
                "intra_mean": round(stat.intra_mean, 3),
                "intra_std": round(stat.intra_std, 3),
                "inter_mean": round(stat.inter_mean, 3),
                "inter_std": round(stat.inter_std, 3),
                "separation": round(stat.separation, 4),
            })
        return rows

    @property
    def all_separations_positive(self) -> bool:
        """The paper's headline claim: intra-class pairs score higher everywhere."""
        return all(stat.separation > 0 for stat in self.stats.values())


def class_stats_cell(cell: ExperimentCell) -> Dict[str, object]:
    """Exact SimRank + class-pair statistics for one dataset cell.

    The record carries the sampled intra/inter score populations so the
    Fig. 2 reduction can rebuild its histograms from stored cells.
    """
    spec = cell.spec
    dataset = load_dataset(spec.dataset, seed=spec.seed,
                           scale_factor=spec.scale_factor)
    scores = exact_simrank(dataset.graph, decay=cell.params["decay"])
    stat = simrank_class_statistics(dataset.graph, scores,
                                    num_pairs=cell.params["num_pairs"],
                                    seed=spec.seed)
    return {
        "dataset": spec.dataset,
        "graph_name": stat.dataset,
        "intra_mean": stat.intra_mean,
        "intra_std": stat.intra_std,
        "inter_mean": stat.inter_mean,
        "inter_std": stat.inter_std,
        "num_intra_pairs": stat.num_intra_pairs,
        "num_inter_pairs": stat.num_inter_pairs,
        "intra_scores": [float(v) for v in stat.intra_scores],
        "inter_scores": [float(v) for v in stat.inter_scores],
    }


def stats_from_record(record: Dict[str, object]) -> SimRankClassStats:
    """Rebuild a :class:`SimRankClassStats` from a stored cell record."""
    return SimRankClassStats(
        dataset=str(record["graph_name"]),
        intra_mean=float(record["intra_mean"]),
        intra_std=float(record["intra_std"]),
        inter_mean=float(record["inter_mean"]),
        inter_std=float(record["inter_std"]),
        num_intra_pairs=int(record["num_intra_pairs"]),
        num_inter_pairs=int(record["num_inter_pairs"]),
        intra_scores=np.asarray(record["intra_scores"], dtype=np.float64),
        inter_scores=np.asarray(record["inter_scores"], dtype=np.float64),
    )


def spec(datasets: Sequence[str] = DEFAULT_DATASETS, *, scale_factor: float = 1.0,
         decay: float = 0.6, num_pairs: int = 20000, seed: int = 0) -> ExperimentSpec:
    """Exact-SimRank class statistics for each requested dataset."""
    datasets = list(datasets)
    base = RunSpec(model="sigma", dataset=datasets[0], seed=seed,
                   scale_factor=scale_factor)
    return ExperimentSpec(
        name="table2", title=TITLE, base=base,
        grid=tuple({"dataset": name} for name in datasets),
        params={"decay": decay, "num_pairs": num_pairs})


@experiment("table2", title=TITLE, spec=spec, cell=class_stats_cell)
def _reduce(spec: ExperimentSpec, cells) -> Table2Result:
    result = Table2Result()
    for outcome in cells:
        result.stats[outcome.spec.dataset] = stats_from_record(outcome.record)
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_experiment("table2", print_result=False)
    print("Table II — mean & std of node-pair SimRank similarities")
    print(format_table(result.rows()))
    print(f"\nintra-class > inter-class on all datasets: {result.all_separations_positive}")


if __name__ == "__main__":  # pragma: no cover
    main()
