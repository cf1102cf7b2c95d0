"""Experiment E11 — Table X: convergent values of the balance factor α.

SIGMA's update (Eq. (6)) mixes the global aggregation with the local
embedding through a learnable α initialised at 0.5.  The paper reports the
value α converges to on each large dataset: smaller values mean the model
leans more heavily on the global SimRank aggregation (notably on the highly
heterophilous snap-patents graph).  Declaratively: a dataset grid whose
custom cell runner trains SIGMA per split and reads the converged
``model.alpha`` (a quantity :func:`repro.api.run` does not surface).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import ExperimentCell, ExperimentSpec, RunSpec
from repro.datasets.registry import LARGE_DATASETS, load_dataset
from repro.experiments.common import DEFAULT_EXPERIMENT_CONFIG, format_table
from repro.experiments.engine import run_experiment
from repro.experiments.registry import experiment
from repro.training.config import TrainConfig

TITLE = "Table X — convergent values of the balance factor α"


@dataclass
class Table10Result:
    """Converged α (mean over repeats) per dataset."""

    alphas: Dict[str, float] = field(default_factory=dict)
    homophily: Dict[str, float] = field(default_factory=dict)

    def rows(self) -> List[Dict[str, object]]:
        return [{"dataset": name, "alpha": round(alpha, 3),
                 "homophily": round(self.homophily.get(name, float("nan")), 3)}
                for name, alpha in self.alphas.items()]


def alpha_cell(cell: ExperimentCell) -> Dict[str, object]:
    """Train SIGMA with a learnable α on every split; record its mean."""
    from repro.api import build_model
    from repro.training.trainer import Trainer

    spec = cell.spec
    dataset = load_dataset(spec.dataset, seed=spec.seed,
                           scale_factor=spec.scale_factor)
    repeats = spec.repeats if spec.repeats is not None else dataset.num_splits
    values = []
    for repeat in range(min(repeats, dataset.num_splits)):
        model = build_model(spec.model, dataset.graph, rng=spec.seed + repeat,
                            **spec.overrides)
        Trainer(model, spec.train).fit(dataset.split(repeat))
        values.append(model.alpha)
    return {
        "dataset": spec.dataset,
        "alpha": float(np.mean(values)),
        "homophily": float(dataset.metadata.get("measured_homophily",
                                                float("nan"))),
    }


def spec(datasets: Sequence[str] = tuple(LARGE_DATASETS), *,
         num_repeats: int = 2, scale_factor: float = 1.0,
         config: Optional[TrainConfig] = None, seed: int = 0,
         final_layers: int = 2) -> ExperimentSpec:
    """The learnable-α sweep over the large datasets."""
    datasets = list(datasets)
    base = RunSpec(model="sigma", dataset=datasets[0],
                   overrides={"learn_alpha": True, "final_layers": final_layers},
                   train=config or DEFAULT_EXPERIMENT_CONFIG, seed=seed,
                   repeats=num_repeats, scale_factor=scale_factor)
    return ExperimentSpec(name="table10", title=TITLE, base=base,
                          grid=tuple({"dataset": name} for name in datasets))


@experiment("table10", title=TITLE, spec=spec, cell=alpha_cell)
def _reduce(spec: ExperimentSpec, cells) -> Table10Result:
    result = Table10Result()
    for outcome in cells:
        result.alphas[outcome.spec.dataset] = float(outcome.record["alpha"])
        result.homophily[outcome.spec.dataset] = float(outcome.record["homophily"])
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_experiment("table10", print_result=False)
    print("Table X — converged values of α on the large-scale datasets")
    print(format_table(result.rows()))


if __name__ == "__main__":  # pragma: no cover
    main()
