"""Experiment E4 — Table VII: learning-time breakdown on large datasets.

Compares the decoupled heterophilous methods (LINKX, GloGNN, SIGMA) by
total learning time, split into precomputation (SIGMA's SimRank
construction) and aggregation (time spent inside the graph-aggregation
operators during training).  SIGMA's repeats share one operator, so
``pre`` is one cold precompute (the largest over the cell's repeats, not
their mean) and ``learn`` is ``pre`` plus the mean training time of one
run.  The expected
shape is the paper's: SIGMA's precompute is cheap, its aggregation is far
cheaper than GloGNN's iterative whole-graph aggregation, and SIGMA has the
lowest total learning time.

Declaratively: a (model × dataset) grid of plain ``RunSpec`` cells — the
sweep engine's default cell runner executes each through ``repro.api.run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import ExperimentSpec, RunSpec, grid_product
from repro.datasets.registry import LARGE_DATASETS
from repro.experiments.common import DEFAULT_EXPERIMENT_CONFIG, format_table
from repro.experiments.engine import record_times, run_experiment
from repro.experiments.registry import experiment
from repro.training.config import TrainConfig

DEFAULT_MODELS = ("linkx", "glognn", "sigma")

TITLE = "Table VII — learning-time breakdown on large datasets"


@dataclass
class Table7Result:
    """Timing rows per (model, dataset)."""

    datasets: List[str]
    models: List[str]
    rows_by_model: Dict[str, List[Dict[str, float]]] = field(default_factory=dict)

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for model in self.models:
            for entry in self.rows_by_model.get(model, []):
                rows.append({"model": model, **entry})
        return rows

    def learning_time(self, model: str, dataset: str) -> float:
        for entry in self.rows_by_model.get(model, []):
            if entry["dataset"] == dataset:
                return float(entry["learn"])
        raise KeyError(f"no timing entry for {model} on {dataset}")

    def average_speedup_over(self, baseline: str, *, target: str = "sigma") -> float:
        """Average of per-dataset ``baseline_learn / target_learn`` ratios."""
        ratios = []
        for dataset in self.datasets:
            target_time = self.learning_time(target, dataset)
            baseline_time = self.learning_time(baseline, dataset)
            if target_time > 0:
                ratios.append(baseline_time / target_time)
        return float(np.mean(ratios)) if ratios else 0.0


def spec(datasets: Sequence[str] = tuple(LARGE_DATASETS),
         models: Sequence[str] = DEFAULT_MODELS, *,
         num_repeats: int = 2, scale_factor: float = 1.0,
         config: Optional[TrainConfig] = None, seed: int = 0) -> ExperimentSpec:
    """The Pre./AGG/Learn breakdown grid: one RunSpec per (model, dataset)."""
    datasets, models = list(datasets), list(models)
    base = RunSpec(model=models[0], dataset=datasets[0],
                   train=config or DEFAULT_EXPERIMENT_CONFIG, seed=seed,
                   repeats=num_repeats, scale_factor=scale_factor)
    return ExperimentSpec(
        name="table7", title=TITLE, base=base,
        grid=grid_product({"model": models, "dataset": datasets}),
        reduction={"datasets": datasets, "models": models})


@experiment("table7", title=TITLE, spec=spec)
def _reduce(spec: ExperimentSpec, cells) -> Table7Result:
    result = Table7Result(datasets=list(spec.reduction["datasets"]),
                          models=list(spec.reduction["models"]))
    for model in result.models:
        result.rows_by_model[model] = []
    for outcome in cells:
        precompute, learn = record_times(outcome.record)
        result.rows_by_model[outcome.spec.model].append({
            "dataset": outcome.spec.dataset,
            "pre": round(precompute, 3),
            "agg": round(outcome.record["mean_aggregation_time"], 3),
            "learn": round(learn, 3),
            "accuracy": round(100 * outcome.record["mean_accuracy"], 2),
        })
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_experiment("table7", print_result=False)
    print("Table VII — average learning time (s) on large-scale datasets")
    print(format_table(result.rows()))
    for baseline in result.models:
        if baseline == "sigma":
            continue
        speedup = result.average_speedup_over(baseline)
        print(f"SIGMA average speed-up over {baseline}: {speedup:.2f}x")


if __name__ == "__main__":  # pragma: no cover
    main()
