"""Experiment E6 — Fig. 5: scalability of SIGMA and GloGNN with graph size.

The paper scales pokec down/up over a geometric grid of edge counts and
plots learning time (and SIGMA's precomputation time) against edge count on
a log axis, observing near-linear scaling for both methods and a growing
speed-up of SIGMA over GloGNN.  This experiment does the same with the
synthetic pokec generator, varying the node count so the edge count follows
a geometric grid.

Declaratively: a (size level × model) grid; the cell runner generates the
synthetic graph at ``base.scale_factor / shrink**level``, so the shared
``scale_factor`` transform (``repro-experiment fig5 --scale-factor 0.5``)
rescales the whole grid — the flag can no longer be silently dropped the
way the pre-registry dispatch did for this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

from repro.config import (
    ExperimentCell,
    ExperimentSpec,
    RunSpec,
    SimRankConfig,
)
from repro.datasets.dataset import Dataset
from repro.datasets.registry import get_spec
from repro.datasets.splits import stratified_splits
from repro.datasets.synthetic import generate_synthetic_graph
from repro.experiments.common import QUICK_EXPERIMENT_CONFIG, format_table
from repro.experiments.engine import run_experiment
from repro.experiments.registry import experiment
from repro.training.config import TrainConfig

TITLE = "Fig. 5 — scalability of SIGMA and GloGNN with graph size"


@dataclass
class ScalabilityPoint:
    """Timing of one model at one graph size."""

    model: str
    num_nodes: int
    num_edges: int
    precompute_seconds: float
    learning_seconds: float


@dataclass
class Fig5Result:
    points: List[ScalabilityPoint] = field(default_factory=list)

    def rows(self) -> List[Dict[str, object]]:
        return [{
            "model": point.model,
            "nodes": point.num_nodes,
            "edges": point.num_edges,
            "precompute": round(point.precompute_seconds, 3),
            "learn": round(point.learning_seconds, 3),
        } for point in self.points]

    def series(self, model: str) -> List[tuple[int, float]]:
        return [(point.num_edges, point.learning_seconds)
                for point in self.points if point.model == model]

    def speedup_trend(self) -> List[tuple[int, float]]:
        """Per-size speed-up of SIGMA over GloGNN (edges, ratio)."""
        sigma = {p.num_edges: p.learning_seconds for p in self.points if p.model == "sigma"}
        glognn = {p.num_edges: p.learning_seconds for p in self.points if p.model == "glognn"}
        shared = sorted(set(sigma) & set(glognn))
        return [(edges, glognn[edges] / sigma[edges]) for edges in shared if sigma[edges] > 0]


@lru_cache(maxsize=4)
def _sized_dataset(base_dataset: str, scale: float, seed: int) -> Dataset:
    """One size level's synthetic dataset, shared by every model cell.

    Generation is deterministic in ``(dataset, scale, seed)``, so the memo
    only removes the duplicate work of the per-model cells at one level —
    results are identical with or without it (cells stay pure).
    """
    graph_config = get_spec(base_dataset).build_config(scale)
    graph = generate_synthetic_graph(graph_config, seed=seed)
    splits = stratified_splits(graph.labels, num_splits=1, seed=seed + 1)
    return Dataset(graph=graph, splits=splits,
                   name=f"{base_dataset}@{scale:.3f}")


def scalability_cell(cell: ExperimentCell) -> Dict[str, object]:
    """Generate the level's graph, train one model, record the timings."""
    from repro.api import build_model
    from repro.training.trainer import Trainer

    spec = cell.spec
    scale = spec.scale_factor / (float(cell.params["shrink"])
                                 ** int(cell.params["level"]))
    dataset = _sized_dataset(spec.dataset, scale, spec.seed)
    graph = dataset.graph
    # spec.simrank is already None on the baseline cells (the grid
    # expansion drops the base config for non-SIGMA models).
    model = build_model(spec.model, graph, rng=spec.seed, simrank=spec.simrank)
    trained = Trainer(model, spec.train).fit(dataset.split(0))
    return {
        "model": spec.model,
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edges),
        "precompute_seconds": float(trained.timing.precompute),
        "learning_seconds": float(trained.learning_time),
    }


def spec(*, base_dataset: str = "pokec", num_sizes: int = 4, shrink: float = 2.0,
         models: Sequence[str] = ("sigma", "glognn"),
         config: Optional[TrainConfig] = None, seed: int = 0,
         base_scale: float = 1.0,
         simrank: Optional[SimRankConfig] = None) -> ExperimentSpec:
    """Learning time across a geometric grid of graph sizes.

    The largest size is the base dataset at ``base_scale`` (the spec's
    shared ``scale_factor``); each subsequent level divides the node
    count by ``shrink``.  ``simrank`` configures the SIGMA cells'
    LocalPush precompute — the precompute column of this figure is
    exactly what the unified core accelerates.
    """
    base = RunSpec(model="sigma", dataset=base_dataset,
                   train=config or QUICK_EXPERIMENT_CONFIG, simrank=simrank,
                   seed=seed, scale_factor=base_scale)
    entries = [{"level": level, "model": model}
               for level in range(num_sizes) for model in models]
    return ExperimentSpec(name="fig5", title=TITLE, base=base,
                          grid=tuple(entries),
                          params={"level": 0, "shrink": shrink})


@experiment("fig5", title=TITLE, spec=spec, cell=scalability_cell)
def _reduce(spec: ExperimentSpec, cells) -> Fig5Result:
    result = Fig5Result()
    for outcome in cells:
        result.points.append(ScalabilityPoint(
            model=str(outcome.record["model"]),
            num_nodes=int(outcome.record["num_nodes"]),
            num_edges=int(outcome.record["num_edges"]),
            precompute_seconds=float(outcome.record["precompute_seconds"]),
            learning_seconds=float(outcome.record["learning_seconds"]),
        ))
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_experiment("fig5", print_result=False)
    print("Fig. 5 — scalability of SIGMA and GloGNN across graph sizes")
    print(format_table(result.rows()))
    for edges, ratio in result.speedup_trend():
        print(f"edges={edges}: SIGMA speed-up over GloGNN = {ratio:.2f}x")


if __name__ == "__main__":  # pragma: no cover
    main()
