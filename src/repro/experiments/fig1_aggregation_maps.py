"""Experiment E1 — Fig. 1(b)/(c): PPR vs SimRank aggregation maps.

The paper visualises, for a centre node of the Texas graph, how much
aggregation weight PPR (local) and SimRank (global) place on every other
node, coloured by label.  The quantitative counterpart computed here is the
*label mass*: the fraction of total (off-self) aggregation weight assigned
to nodes with the same label as the centre node.  SimRank should place a
substantially larger fraction on same-label nodes than PPR under heterophily.

Declaratively: a single analytic cell; the operator knobs (``num_centers``,
``ppr_alpha``, ``decay``) are declared spec parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.config import ExperimentCell, ExperimentSpec, RunSpec
from repro.datasets.registry import load_dataset
from repro.experiments.common import format_table
from repro.experiments.engine import run_experiment
from repro.experiments.registry import experiment
from repro.ppr.power import ppr_matrix_power
from repro.simrank.exact import exact_simrank
from repro.utils.rng import ensure_rng

TITLE = "Fig. 1(b)/(c) — PPR vs SimRank aggregation maps"


@dataclass
class AggregationMap:
    """Aggregation scores of one operator with respect to one centre node.

    ``scores`` holds the full per-node weight vector on fresh in-process
    computations and is ``None`` when the map was rebuilt from a stored
    cell record (the store keeps only the label-mass summary).
    """

    operator: str = ""
    center: int = 0
    same_label_mass: float = 0.0
    top_neighbors: List[int] = field(default_factory=list)
    top_same_label_fraction: float = 0.0
    scores: Optional[np.ndarray] = None


@dataclass
class Fig1Result:
    dataset: str
    centers: List[int] = field(default_factory=list)
    maps: List[AggregationMap] = field(default_factory=list)

    def rows(self) -> List[Dict[str, object]]:
        return [{
            "operator": entry.operator,
            "center": entry.center,
            "same_label_mass": round(entry.same_label_mass, 3),
            "top10_same_label": round(entry.top_same_label_fraction, 3),
        } for entry in self.maps]

    def mean_same_label_mass(self, operator: str) -> float:
        values = [entry.same_label_mass for entry in self.maps if entry.operator == operator]
        return float(np.mean(values)) if values else 0.0


def _label_mass(scores: np.ndarray, labels: np.ndarray, center: int,
                top: int = 10) -> AggregationMap | None:
    scores = scores.copy()
    scores[center] = 0.0
    total = scores.sum()
    if total <= 0:
        return None
    same = scores[labels == labels[center]].sum()
    order = np.argsort(scores)[::-1][:top]
    top_same = float(np.mean(labels[order] == labels[center]))
    return AggregationMap(operator="", center=center, scores=scores,
                          same_label_mass=float(same / total),
                          top_neighbors=[int(i) for i in order],
                          top_same_label_fraction=top_same)


def aggregation_map_cell(cell: ExperimentCell) -> Dict[str, object]:
    """Compare PPR and SimRank aggregation maps on random centre nodes."""
    spec = cell.spec
    dataset = load_dataset(spec.dataset, seed=spec.seed,
                           scale_factor=spec.scale_factor)
    graph = dataset.graph
    rng = ensure_rng(spec.seed)
    centers = rng.choice(graph.num_nodes,
                         size=min(int(cell.params["num_centers"]),
                                  graph.num_nodes),
                         replace=False)
    ppr = ppr_matrix_power(graph, alpha=cell.params["ppr_alpha"])
    simrank = exact_simrank(graph, decay=cell.params["decay"])
    maps = []
    for center in centers:
        for operator_name, matrix in (("ppr", ppr), ("simrank", simrank)):
            entry = _label_mass(matrix[center], graph.labels, int(center))
            if entry is None:
                continue
            maps.append({
                "operator": operator_name,
                "center": entry.center,
                "same_label_mass": entry.same_label_mass,
                "top_neighbors": entry.top_neighbors,
                "top_same_label_fraction": entry.top_same_label_fraction,
            })
    return {"dataset": spec.dataset,
            "centers": [int(center) for center in centers],
            "maps": maps}


def spec(dataset_name: str = "texas", *, num_centers: int = 10,
         scale_factor: float = 1.0, ppr_alpha: float = 0.15,
         decay: float = 0.6, seed: int = 0) -> ExperimentSpec:
    """The PPR-vs-SimRank label-mass comparison on ``dataset_name``."""
    base = RunSpec(model="sigma", dataset=dataset_name, seed=seed,
                   scale_factor=scale_factor)
    return ExperimentSpec(
        name="fig1", title=TITLE, base=base,
        params={"num_centers": num_centers, "ppr_alpha": ppr_alpha,
                "decay": decay})


@experiment("fig1", title=TITLE, spec=spec, cell=aggregation_map_cell)
def _reduce(spec: ExperimentSpec, cells) -> Fig1Result:
    if not cells:
        return Fig1Result(dataset=spec.base.dataset)
    outcome = cells[0]
    result = Fig1Result(dataset=outcome.spec.dataset,
                        centers=[int(c) for c in outcome.record["centers"]])
    for entry in outcome.record["maps"]:
        result.maps.append(AggregationMap(
            operator=str(entry["operator"]),
            center=int(entry["center"]),
            same_label_mass=float(entry["same_label_mass"]),
            top_neighbors=[int(i) for i in entry["top_neighbors"]],
            top_same_label_fraction=float(entry["top_same_label_fraction"]),
        ))
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_experiment("fig1", print_result=False)
    print("Fig. 1(b)/(c) — aggregation mass on same-label nodes (Texas)")
    print(format_table(result.rows()))
    print(f"\nmean same-label mass: PPR={result.mean_same_label_mass('ppr'):.3f}  "
          f"SimRank={result.mean_same_label_mass('simrank'):.3f}")


if __name__ == "__main__":  # pragma: no cover
    main()
