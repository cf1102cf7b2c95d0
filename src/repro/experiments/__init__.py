"""Declarative experiment harness: specs, registry, sweep engine, store.

Every table and figure of the paper is a **registered experiment**: a
frozen :class:`repro.config.ExperimentSpec` describing a *grid of
RunSpec cells* plus a reduction folding the per-cell records into the
paper artefact.  The pieces:

* :class:`repro.config.ExperimentSpec` — the declarative description
  (base ``RunSpec``, grid entries addressing ``model``/``dataset``/
  ``overrides.*``/``train.*``/``simrank.*`` or declared parameters,
  reduction knobs).  Smoke scaling is a spec transform:
  ``spec.with_base(scale_factor=0.25)`` / ``spec.with_train(...)``.
* :mod:`repro.experiments.registry` — the ``@experiment`` decorator
  binding name, spec builder, optional cell runner and reduction; it
  replaces the old string→module table and the signature-inspection
  dispatch (an unsupported knob is a hard ``ExperimentError``, never
  silently dropped).
* :mod:`repro.experiments.engine` — the sweep engine: expands the grid,
  resumes finished cells from the store, runs the rest under
  ``executor="serial" | "thread" | "process"`` (identical results for
  every executor and worker count) and reduces.
* :mod:`repro.experiments.store` — the resumable
  :class:`~repro.experiments.store.ArtifactStore`: per-cell records
  keyed by the cell's config hash (sidecar-manifest design like the
  operator cache) plus one versioned run-artefact file per experiment
  with the resolved spec embedded.

Entry points: :func:`run_experiment` / :func:`execute` in Python,
``repro-experiment <id>`` (or ``python -m repro.cli experiment <id>``)
on the command line — ``--list``, ``--describe``, ``--scale-factor``,
``--quick``, ``--executor``, ``--store``/``--resume``/``--force``.
"""

from repro.config import ExperimentCell, ExperimentSpec, grid_product
from repro.experiments.common import (
    DEFAULT_EXPERIMENT_CONFIG,
    QUICK_EXPERIMENT_CONFIG,
    format_table,
    tune_hyperparameters,
)
from repro.experiments.engine import (
    CellOutcome,
    ExperimentRun,
    execute,
    run_experiment,
)
from repro.experiments.registry import (
    EXPERIMENT_MODULES,
    ExperimentDefinition,
    build_spec,
    experiment,
    get_experiment,
    list_experiments,
)
from repro.experiments.store import ArtifactStore, get_artifact_store

__all__ = [
    "DEFAULT_EXPERIMENT_CONFIG",
    "QUICK_EXPERIMENT_CONFIG",
    "format_table",
    "tune_hyperparameters",
    "ExperimentCell",
    "ExperimentSpec",
    "grid_product",
    "CellOutcome",
    "ExperimentRun",
    "execute",
    "run_experiment",
    "EXPERIMENT_MODULES",
    "ExperimentDefinition",
    "build_spec",
    "experiment",
    "get_experiment",
    "list_experiments",
    "ArtifactStore",
    "get_artifact_store",
]
