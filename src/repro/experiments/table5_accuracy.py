"""Experiment E3 — Table V: classification accuracy of SIGMA vs baselines.

Reproduces the paper's main accuracy comparison: every registered model is
trained on every benchmark with repeated splits, and models are ranked by
their average accuracy rank across datasets (the paper's ``Rank`` column).

The paper tunes each method per dataset (Table VI); here a small
validation-based grid (see :data:`repro.experiments.common.TUNING_GRIDS`)
plays that role for the decoupled models whose feature factor matters.
Declaratively: a (model × dataset) grid whose custom cell runner tunes
first (when the ``tune`` parameter is set) and then executes the tuned
``RunSpec`` through ``repro.api.run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import ExperimentCell, ExperimentSpec, RunSpec, grid_product
from repro.datasets.registry import list_datasets, load_dataset
from repro.experiments.common import (
    DEFAULT_EXPERIMENT_CONFIG,
    format_table,
    tune_hyperparameters,
)
from repro.experiments.engine import run_experiment, summary_record
from repro.experiments.registry import experiment
from repro.training.config import TrainConfig

DEFAULT_MODELS = (
    "mlp", "gcn", "sgc", "gat", "appnp", "mixhop", "gcnii", "gprgnn",
    "h2gcn", "acmgcn", "linkx", "glognn", "pprgo", "sigma",
)

TITLE = "Table V — classification accuracy and average rank"


@dataclass
class Table5Result:
    """Accuracy of every (model, dataset) pair plus average ranks."""

    datasets: List[str]
    models: List[str]
    #: ``accuracies[model][dataset] = (mean, std)`` over the repeats.
    accuracies: Dict[str, Dict[str, Tuple[float, float]]] = field(default_factory=dict)

    def accuracy(self, model: str, dataset: str) -> float:
        return self.accuracies[model][dataset][0]

    def ranks(self) -> Dict[str, float]:
        """Average rank of each model across datasets (1 = best)."""
        ranks: Dict[str, List[int]] = {model: [] for model in self.models}
        for dataset in self.datasets:
            scores = [(model, self.accuracy(model, dataset)) for model in self.models]
            ordered = sorted(scores, key=lambda pair: pair[1], reverse=True)
            for position, (model, _) in enumerate(ordered, start=1):
                ranks[model].append(position)
        return {model: float(np.mean(values)) for model, values in ranks.items()}

    def rows(self) -> List[Dict[str, object]]:
        ranks = self.ranks()
        rows = []
        for model in sorted(self.models, key=lambda m: ranks[m]):
            row: Dict[str, object] = {"model": model}
            for dataset in self.datasets:
                mean, std = self.accuracies[model][dataset]
                row[dataset] = f"{100 * mean:.1f}±{100 * std:.1f}"
            row["rank"] = round(ranks[model], 2)
            rows.append(row)
        return rows

    def best_model_per_dataset(self) -> Dict[str, str]:
        return {
            dataset: max(self.models, key=lambda model: self.accuracy(model, dataset))
            for dataset in self.datasets
        }


def tuned_evaluation_cell(cell: ExperimentCell) -> Dict[str, object]:
    """Tune on split 0 (when requested), then execute the tuned RunSpec."""
    from repro.api import run

    spec = cell.spec
    tuned: Dict[str, object] = {}
    if cell.params["tune"]:
        dataset = load_dataset(spec.dataset, seed=spec.seed,
                               scale_factor=spec.scale_factor)
        tuned = tune_hyperparameters(spec.model, dataset, seed=spec.seed)
    result = run(spec.with_overrides(overrides={**spec.overrides, **tuned}))
    return {**summary_record(result.summary), "tuned_overrides": tuned}


def spec(datasets: Optional[Sequence[str]] = None,
         models: Sequence[str] = DEFAULT_MODELS, *,
         num_repeats: Optional[int] = None, scale_factor: float = 1.0,
         config: Optional[TrainConfig] = None, tune: bool = True,
         seed: int = 0) -> ExperimentSpec:
    """The accuracy grid over ``models`` × ``datasets``.

    ``datasets`` defaults to all twelve benchmarks; ``num_repeats`` to the
    paper's 5/10 protocol; ``tune`` runs the small per-dataset
    hyper-parameter grid for models with a tuning grid (SIGMA, GloGNN).
    """
    dataset_names = list(datasets) if datasets is not None else list_datasets()
    models = list(models)
    base = RunSpec(model=models[0], dataset=dataset_names[0],
                   train=config or DEFAULT_EXPERIMENT_CONFIG, seed=seed,
                   repeats=num_repeats, scale_factor=scale_factor)
    return ExperimentSpec(
        name="table5", title=TITLE, base=base,
        grid=grid_product({"model": models, "dataset": dataset_names}),
        params={"tune": bool(tune)},
        reduction={"datasets": dataset_names, "models": models})


@experiment("table5", title=TITLE, spec=spec, cell=tuned_evaluation_cell)
def _reduce(spec: ExperimentSpec, cells) -> Table5Result:
    result = Table5Result(datasets=list(spec.reduction["datasets"]),
                          models=list(spec.reduction["models"]))
    for outcome in cells:
        result.accuracies.setdefault(outcome.spec.model, {})
        result.accuracies[outcome.spec.model][outcome.spec.dataset] = (
            outcome.record["mean_accuracy"], outcome.record["std_accuracy"])
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_experiment("table5", print_result=False)
    print("Table V — classification accuracy (%) and average rank")
    print(format_table(result.rows()))
    best = result.best_model_per_dataset()
    wins = sum(1 for model in best.values() if model == "sigma")
    print(f"\nSIGMA is the best model on {wins}/{len(best)} datasets")


if __name__ == "__main__":  # pragma: no cover
    main()
