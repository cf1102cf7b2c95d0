"""Experiment E12 — Fig. 8: grouping effect of the SIGMA embeddings.

The paper visualises the output embedding matrix ``Z`` (nodes reordered by
label) and observes block patterns: same-class nodes have similar embedding
rows.  The quantitative counterpart computed here is the *grouping ratio*:
mean cosine similarity of embedding pairs within a class divided by the mean
similarity across classes — values well above one indicate the grouping
effect of Theorem III.4.

Declaratively: a dataset grid with a custom cell runner.  Each cell seeds
its own pair-sampling RNG from the spec seed (the pre-spec module threaded
one RNG through all datasets, making later datasets depend on earlier
ones; per-cell seeding is what makes cells independent and resumable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import ExperimentCell, ExperimentSpec, RunSpec
from repro.datasets.registry import SMALL_DATASETS, load_dataset
from repro.experiments.common import DEFAULT_EXPERIMENT_CONFIG, format_table
from repro.experiments.engine import run_experiment
from repro.experiments.registry import experiment
from repro.training.config import TrainConfig
from repro.utils.rng import ensure_rng

TITLE = "Fig. 8 — grouping effect of the SIGMA embeddings"


@dataclass
class GroupingStats:
    dataset: str
    intra_similarity: float
    inter_similarity: float
    embeddings: np.ndarray
    label_order: np.ndarray

    @property
    def grouping_ratio(self) -> float:
        if self.inter_similarity == 0:
            return float("inf")
        return self.intra_similarity / self.inter_similarity


@dataclass
class Fig8Result:
    stats: List[GroupingStats] = field(default_factory=list)

    def rows(self) -> List[Dict[str, object]]:
        return [{
            "dataset": entry.dataset,
            "intra_cosine": round(entry.intra_similarity, 3),
            "inter_cosine": round(entry.inter_similarity, 3),
            "grouping_ratio": round(entry.grouping_ratio, 3),
        } for entry in self.stats]


def _pairwise_cosine_stats(embeddings: np.ndarray, labels: np.ndarray,
                           num_pairs: int, rng: np.random.Generator) -> tuple[float, float]:
    norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
    normalized = embeddings / np.maximum(norms, 1e-12)
    n = embeddings.shape[0]
    left = rng.integers(0, n, size=num_pairs)
    right = rng.integers(0, n, size=num_pairs)
    keep = left != right
    left, right = left[keep], right[keep]
    similarity = np.einsum("nf,nf->n", normalized[left], normalized[right])
    same = labels[left] == labels[right]
    intra = similarity[same]
    inter = similarity[~same]
    return (float(intra.mean()) if intra.size else 0.0,
            float(inter.mean()) if inter.size else 0.0)


def grouping_cell(cell: ExperimentCell) -> Dict[str, object]:
    """Train SIGMA and compute grouping statistics of its embeddings."""
    from repro.api import build_model
    from repro.training.trainer import Trainer

    spec = cell.spec
    dataset = load_dataset(spec.dataset, seed=spec.seed,
                           scale_factor=spec.scale_factor)
    model = build_model(spec.model, dataset.graph, rng=spec.seed,
                        **spec.overrides)
    Trainer(model, spec.train).fit(dataset.split(0))
    embeddings = model.embeddings()
    labels = dataset.graph.labels
    rng = ensure_rng(spec.seed)
    intra, inter = _pairwise_cosine_stats(embeddings, labels,
                                          int(cell.params["num_pairs"]), rng)
    order = np.argsort(labels)
    return {
        "dataset": spec.dataset,
        "intra_similarity": intra,
        "inter_similarity": inter,
        "embeddings": embeddings[order].tolist(),
        "label_order": [int(i) for i in order],
    }


def spec(datasets: Sequence[str] = tuple(SMALL_DATASETS), *,
         scale_factor: float = 1.0, config: Optional[TrainConfig] = None,
         num_pairs: int = 20000, seed: int = 0) -> ExperimentSpec:
    """Grouping statistics of trained SIGMA embeddings per dataset."""
    datasets = list(datasets)
    base = RunSpec(model="sigma", dataset=datasets[0],
                   train=config or DEFAULT_EXPERIMENT_CONFIG, seed=seed,
                   scale_factor=scale_factor)
    return ExperimentSpec(
        name="fig8", title=TITLE, base=base,
        grid=tuple({"dataset": name} for name in datasets),
        params={"num_pairs": num_pairs})


@experiment("fig8", title=TITLE, spec=spec, cell=grouping_cell)
def _reduce(spec: ExperimentSpec, cells) -> Fig8Result:
    result = Fig8Result()
    for outcome in cells:
        result.stats.append(GroupingStats(
            dataset=str(outcome.record["dataset"]),
            intra_similarity=float(outcome.record["intra_similarity"]),
            inter_similarity=float(outcome.record["inter_similarity"]),
            embeddings=np.asarray(outcome.record["embeddings"], dtype=np.float64),
            label_order=np.asarray(outcome.record["label_order"], dtype=np.int64),
        ))
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_experiment("fig8", print_result=False)
    print("Fig. 8 — grouping effect of the SIGMA embeddings Z")
    print(format_table(result.rows()))


if __name__ == "__main__":  # pragma: no cover
    main()
