"""Experiment E9 — Table VIII: component ablation of SIGMA and GloGNN.

Rows reproduced:

* ``SIGMA``          — the full model;
* ``SIGMA w/o S``    — global aggregation removed (α pinned to 1);
* ``SIGMA w/ S·A``   — SimRank weights restricted to immediate neighbours;
* ``SIGMA w/o X``    — feature embedding removed (δ = 0);
* ``SIGMA w/o A``    — adjacency embedding removed (δ = 1);
* ``GloGNN`` and its ``w/o A`` / ``w/o X`` variants.

The summary statistics are the average and maximum accuracy drop of each
variant relative to its full model, matching the paper's Avg.↓ / Max.↓
columns.  Declaratively: a (variant × dataset) grid of plain ``RunSpec``
cells whose ``overrides.*`` keys carry each variant's ablation switches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import ExperimentSpec, RunSpec
from repro.datasets.registry import LARGE_DATASETS
from repro.experiments.common import DEFAULT_EXPERIMENT_CONFIG, format_table
from repro.experiments.engine import run_experiment
from repro.experiments.registry import experiment
from repro.training.config import TrainConfig

SIGMA_VARIANTS: Dict[str, Dict[str, object]] = {
    "sigma": {},
    "sigma w/o S": {"use_simrank": False},
    "sigma w/ S*A": {"operator_mode": "simrank_adj"},
    "sigma w/o X": {"use_features": False},
    "sigma w/o A": {"use_adjacency": False},
}

GLOGNN_VARIANTS: Dict[str, Dict[str, object]] = {
    "glognn": {},
    "glognn w/o A": {"use_adjacency": False},
    "glognn w/o X": {"use_features": False},
}

TITLE = "Table VIII — component study of SIGMA and GloGNN"


@dataclass
class Table8Result:
    """Accuracy per (variant, dataset) plus drop statistics."""

    datasets: List[str]
    accuracies: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def _drops(self, variant: str, reference: str) -> List[float]:
        return [self.accuracies[reference][d] - self.accuracies[variant][d]
                for d in self.datasets]

    def average_drop(self, variant: str, reference: str) -> float:
        return float(np.mean(self._drops(variant, reference)))

    def max_drop(self, variant: str, reference: str) -> float:
        return float(np.max(self._drops(variant, reference)))

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for variant, per_dataset in self.accuracies.items():
            reference = "sigma" if variant.startswith("sigma") else "glognn"
            row: Dict[str, object] = {"variant": variant}
            for dataset in self.datasets:
                row[dataset] = round(100 * per_dataset[dataset], 2)
            if variant != reference:
                row["avg_drop"] = round(100 * self.average_drop(variant, reference), 2)
                row["max_drop"] = round(100 * self.max_drop(variant, reference), 2)
            else:
                row["avg_drop"] = "-"
                row["max_drop"] = "-"
            rows.append(row)
        return rows


def spec(datasets: Sequence[str] = tuple(LARGE_DATASETS), *,
         num_repeats: int = 2, scale_factor: float = 1.0,
         config: Optional[TrainConfig] = None, seed: int = 0,
         sigma_overrides: Optional[Dict[str, object]] = None) -> ExperimentSpec:
    """The ablation grid: every SIGMA and GloGNN variant on every dataset."""
    datasets = list(datasets)
    sigma_overrides = dict(sigma_overrides or {"final_layers": 2})

    entries = []
    for label, overrides in SIGMA_VARIANTS.items():
        merged = dict(sigma_overrides)
        merged.update(overrides)
        for dataset in datasets:
            entries.append({"label": label, "model": "sigma", "dataset": dataset,
                            **{f"overrides.{key}": value
                               for key, value in merged.items()}})
    for label, overrides in GLOGNN_VARIANTS.items():
        for dataset in datasets:
            entries.append({"label": label, "model": "glognn", "dataset": dataset,
                            **{f"overrides.{key}": value
                               for key, value in overrides.items()}})

    base = RunSpec(model="sigma", dataset=datasets[0],
                   train=config or DEFAULT_EXPERIMENT_CONFIG, seed=seed,
                   repeats=num_repeats, scale_factor=scale_factor)
    return ExperimentSpec(name="table8", title=TITLE, base=base,
                          grid=tuple(entries), params={"label": ""},
                          reduction={"datasets": datasets})


@experiment("table8", title=TITLE, spec=spec)
def _reduce(spec: ExperimentSpec, cells) -> Table8Result:
    result = Table8Result(datasets=list(spec.reduction["datasets"]))
    for outcome in cells:
        label = str(outcome.params["label"])
        result.accuracies.setdefault(label, {})
        result.accuracies[label][outcome.spec.dataset] = (
            outcome.record["mean_accuracy"])
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_experiment("table8", print_result=False)
    print("Table VIII — component study of SIGMA and GloGNN (accuracy %, drops in points)")
    print(format_table(result.rows()))


if __name__ == "__main__":  # pragma: no cover
    main()
