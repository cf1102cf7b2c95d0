"""Experiment E2 (figure) — Fig. 2: SimRank score densities by pair type.

Produces, for each dataset, histogram densities of SimRank scores for
intra-class and inter-class node pairs.  The paper plots these as KDE
curves; here the densities are returned as arrays (and printed as a compact
text summary) so they can be plotted with any tool.

Declaratively this spec *shares Table II's cells*: same grid, same cell
runner (:func:`repro.experiments.table2_simrank_stats.class_stats_cell`),
only the reduction differs (the histogram bin count lives in
``spec.reduction``, which never enters the cell key) — so running Fig. 2
against a store warmed by Table II recomputes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.config import ExperimentSpec
from repro.experiments import table2_simrank_stats
from repro.experiments.engine import run_experiment
from repro.experiments.registry import experiment
from repro.experiments.table2_simrank_stats import (
    DEFAULT_DATASETS,
    class_stats_cell,
    stats_from_record,
)

TITLE = "Fig. 2 — SimRank score distributions by pair type"


@dataclass
class Fig2Result:
    """Histogram densities per dataset."""

    histograms: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for name, hist in self.histograms.items():
            intra_centres, intra_density = hist["intra"]
            inter_centres, inter_density = hist["inter"]
            rows.append({
                "dataset": name,
                "intra_mode": round(float(intra_centres[np.argmax(intra_density)]), 3),
                "inter_mode": round(float(inter_centres[np.argmax(inter_density)]), 3),
                "bins": len(intra_centres),
            })
        return rows


def spec(datasets: Sequence[str] = DEFAULT_DATASETS, *, scale_factor: float = 1.0,
         bins: int = 40, seed: int = 0) -> ExperimentSpec:
    """Table II's cell grid with a histogram reduction on top."""
    base = table2_simrank_stats.spec(datasets, scale_factor=scale_factor,
                                     seed=seed)
    return base.with_overrides(name="fig2", title=TITLE,
                               reduction={"bins": bins})


@experiment("fig2", title=TITLE, spec=spec, cell=class_stats_cell)
def _reduce(spec: ExperimentSpec, cells) -> Fig2Result:
    bins = int(spec.reduction["bins"])
    result = Fig2Result()
    for outcome in cells:
        stat = stats_from_record(outcome.record)
        result.histograms[outcome.spec.dataset] = stat.histogram(bins=bins)
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    from repro.experiments.common import format_table

    result = run_experiment("fig2", print_result=False)
    print("Fig. 2 — SimRank score distributions (histogram mode per pair type)")
    print(format_table(result.rows()))


if __name__ == "__main__":  # pragma: no cover
    main()
