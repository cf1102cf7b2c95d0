"""Sweep engine: execute an :class:`~repro.config.ExperimentSpec` grid.

The engine is the single execution path behind every experiment — the
``repro-experiment`` CLI, :func:`run_experiment` and the benchmarks all
funnel into :func:`execute`:

1. expand the spec into cells (:meth:`ExperimentSpec.cells`);
2. serve finished cells from the :class:`repro.experiments.store.
   ArtifactStore` when one is configured (``resume``; ``force``
   recomputes), so a killed sweep restarts where it died;
3. run the remaining cells through the experiment's cell runner under
   ``executor="serial" | "thread" | "process"`` — the executor names and
   default pool size are shared with the LocalPush engine core
   (:mod:`repro.simrank.engine`), and because every cell is a pure
   function of its ``(RunSpec, params)``, results are identical for
   every executor and worker count;
4. persist each fresh record, fold all records through the experiment's
   reduction, and append a versioned run artefact embedding the resolved
   spec.

The default cell runner, :func:`evaluation_cell`, executes the cell's
``RunSpec`` through :func:`repro.api.run` — a grid experiment whose cells
are plain training runs needs no runner of its own.
"""

from __future__ import annotations

import time
from concurrent.futures import (ProcessPoolExecutor, ThreadPoolExecutor,
                                as_completed)
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import ExperimentCell, ExperimentSpec

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.config import RunSpec
    from repro.telemetry.runtime import Telemetry
    from repro.training.config import TrainConfig
    from repro.training.evaluation import EvaluationSummary
from repro.errors import ExperimentError
from repro.experiments.registry import ExperimentDefinition, build_spec, get_experiment
from repro.experiments.store import ArtifactStore, get_artifact_store
# Shared executor vocabulary and pool sizing of the LocalPush engine core.
from repro.simrank.engine import EXECUTORS, default_num_workers


def summary_record(summary: "EvaluationSummary") -> Dict[str, object]:
    """Full-precision JSON record of one repeated-evaluation summary.

    Unlike ``EvaluationSummary.as_row()`` nothing is rounded here: the
    reductions must reproduce the legacy modules' numbers (ranking ties
    included) exactly from the stored record.
    """
    return {
        "model": summary.model,
        "dataset": summary.dataset,
        "accuracies": [float(value) for value in summary.accuracies],
        "mean_accuracy": summary.mean_accuracy,
        "std_accuracy": summary.std_accuracy,
        "learning_time": summary.learning_time,
        "operator_precompute_time": summary.operator_precompute_time,
        "mean_aggregation_time": summary.mean_aggregation_time,
    }


def record_times(record: Dict[str, Any]) -> Tuple[float, float]:
    """``(operator_precompute_time, learning_time)`` of a cell record.

    Records stored before those fields existed carry the per-repeat means
    ``mean_precompute_time``/``mean_learning_time`` instead.  Every repeat
    recomputed the operator then, so those means measured the same costs
    and ``--resume`` keeps serving such records.
    """
    if "operator_precompute_time" in record:
        return (float(record["operator_precompute_time"]),
                float(record["learning_time"]))
    return (float(record["mean_precompute_time"]),
            float(record["mean_learning_time"]))


def evaluation_cell(cell: ExperimentCell) -> Dict[str, object]:
    """Default cell runner: execute the cell's ``RunSpec`` end to end."""
    from repro.api import run

    return summary_record(run(cell.spec).summary)


def _execute_cell(cell_runner: Callable[[ExperimentCell], dict],
                  cell: ExperimentCell, trace: bool = False,
                  experiment: str = ""
                  ) -> Tuple[dict, float, Optional[Dict[str, object]]]:
    """Run one cell under a timer (module-level: process-pool picklable).

    With ``trace`` on, the cell runs under a *local* tracer (built here
    so the whole call stays picklable and works inside process-pool
    workers): an ``experiment.cell`` root span with an
    ``experiment.cell.run`` child around the runner call, plus whatever
    spans telemetry-aware layers underneath record.  The returned tree
    is the versioned ``SpanRecorder.tree()`` payload embedded in the run
    artefact's cell records.
    """
    start = time.perf_counter()
    if not trace:
        record = cell_runner(cell)
        return record, time.perf_counter() - start, None
    from repro.telemetry.tracing import SpanRecorder, Tracer

    recorder = SpanRecorder()
    tracer = Tracer([recorder])
    with tracer.span("experiment.cell", index=cell.index,
                     experiment=experiment):
        with tracer.span("experiment.cell.run"):
            record = cell_runner(cell)
    return record, time.perf_counter() - start, recorder.tree()


@dataclass(frozen=True)
class CellOutcome:
    """One executed (or resumed) cell: its record plus provenance."""

    cell: ExperimentCell
    record: Dict[str, object]
    seconds: float = 0.0
    cached: bool = False
    key: Optional[str] = None
    #: Versioned span tree of the traced execution (``None`` when the
    #: run was untraced or the cell was served from the store).
    trace: Optional[Dict[str, object]] = None

    @property
    def index(self) -> int:
        return self.cell.index

    @property
    def spec(self) -> "RunSpec":
        return self.cell.spec

    @property
    def params(self) -> Dict[str, object]:
        return self.cell.params


@dataclass
class ExperimentRun:
    """Outcome of :func:`execute`: the reduced result plus the sweep log."""

    spec: ExperimentSpec
    result: object
    outcomes: List[CellOutcome] = field(default_factory=list)
    executor: str = "serial"
    workers: Optional[int] = None
    seconds: float = 0.0

    @property
    def cells_executed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.cached)

    @property
    def cells_resumed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    def to_record(self) -> Dict[str, object]:
        """Versioned run record with the resolved spec embedded (the
        ``bench_localpush.py`` record pattern, generalized)."""
        rows = self.result.rows() if hasattr(self.result, "rows") else []
        return {
            "experiment": self.spec.name,
            "title": self.spec.title,
            # Record metadata only — never ordering, never in the rows
            # the bit-identical guarantee covers.
            "created_unix": time.time(),  # repro-lint: disable=R3
            "spec": self.spec.to_dict(),
            "executor": self.executor,
            "workers": self.workers,
            "seconds": self.seconds,
            "cells_executed": self.cells_executed,
            "cells_resumed": self.cells_resumed,
            "cells": [{
                "index": outcome.index,
                "key": outcome.key,
                "overrides": outcome.cell.overrides,
                "seconds": outcome.seconds,
                "cached": outcome.cached,
                "record": outcome.record,
                "trace": outcome.trace,
            } for outcome in self.outcomes],
            "rows": rows,
        }


def _run_pending(pending: Sequence[ExperimentCell],
                 cell_runner: Callable[[ExperimentCell], dict],
                 executor: str, workers: Optional[int],
                 on_complete: Callable[
                     [ExperimentCell, dict, float,
                      Optional[Dict[str, object]]], None],
                 trace: bool = False, experiment: str = ""
                 ) -> Dict[int, Tuple[dict, float, Optional[Dict[str, object]]]]:
    """Execute ``pending`` cells: ``{cell index: (record, s, trace)}``.

    ``on_complete`` fires (in the calling thread) as each cell finishes —
    the store persists cells incrementally there, so a sweep killed or
    raising mid-run keeps everything already completed and resumes from
    the unfinished cells.
    """
    if executor not in EXECUTORS:
        raise ExperimentError(
            f"unknown experiment executor {executor!r}; "
            f"expected one of {EXECUTORS}")
    if workers is not None and workers < 1:
        raise ExperimentError(f"workers must be a positive integer, "
                              f"got {workers!r}")
    results: Dict[int, Tuple[dict, float, Optional[Dict[str, object]]]] = {}
    if executor == "serial" or len(pending) <= 1:
        for cell in pending:
            record, seconds, tree = _execute_cell(cell_runner, cell, trace,
                                                  experiment)
            results[cell.index] = (record, seconds, tree)
            on_complete(cell, record, seconds, tree)
        return results
    pool_cls = ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
    num_workers = min(workers or default_num_workers(), len(pending))
    with pool_cls(max_workers=num_workers) as pool:
        futures = {pool.submit(_execute_cell, cell_runner, cell, trace,
                               experiment): cell
                   for cell in pending}
        for future in as_completed(futures):
            cell = futures[future]
            record, seconds, tree = future.result()
            results[cell.index] = (record, seconds, tree)
            on_complete(cell, record, seconds, tree)
    return results


def execute(spec: ExperimentSpec, *,
            definition: Optional[ExperimentDefinition] = None,
            executor: str = "serial", workers: Optional[int] = None,
            store: Optional[ArtifactStore | str] = None,
            resume: bool = True, force: bool = False,
            telemetry: Optional["Telemetry"] = None) -> ExperimentRun:
    """Execute ``spec`` cell by cell and reduce to the paper artefact.

    ``definition`` defaults to the registry entry under ``spec.name``.
    With a ``store``, finished cells are served from disk when ``resume``
    is true (``force`` recomputes and overwrites them), every fresh cell
    is persisted as it completes, and a run artefact is appended.

    With an enabled ``telemetry`` handle, every freshly executed cell is
    traced (see :func:`_execute_cell`); the span trees land in the run
    artefact's cell records (``trace`` key) and, when the handle carries
    a JSONL sink, are also appended there with run-unique span ids.
    """
    if not isinstance(spec, ExperimentSpec):
        raise ExperimentError(
            f"execute expects an ExperimentSpec, got {type(spec).__name__}")
    definition = definition or get_experiment(spec.name)
    cell_runner = definition.cell or evaluation_cell
    if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        store = get_artifact_store(store)
    from repro.telemetry.runtime import resolve_telemetry

    telemetry = resolve_telemetry(telemetry)
    trace = telemetry.enabled

    started = time.perf_counter()
    cells = spec.cells()
    keys: Dict[int, Optional[str]] = {}
    resumed: Dict[int, dict] = {}
    pending: List[ExperimentCell] = []
    for cell in cells:
        key = store.key_for(cell, cell_runner) if store is not None else None
        keys[cell.index] = key
        if store is not None and resume and not force:
            record = store.load_cell(key, cell, cell_runner)
            if record is not None:
                resumed[cell.index] = record
                continue
        pending.append(cell)

    def persist(cell: ExperimentCell, record: dict, seconds: float,
                tree: Optional[Dict[str, object]] = None) -> None:
        # Incremental: each completed cell lands on disk immediately, so a
        # sweep killed mid-run resumes from exactly the unfinished cells.
        if store is not None:
            store.store_cell(keys[cell.index], cell, cell_runner, record,
                             experiment=spec.name, seconds=seconds,
                             trace=tree)

    executed = _run_pending(pending, cell_runner, executor, workers, persist,
                            trace, spec.name)

    outcomes: List[CellOutcome] = []
    for cell in cells:
        if cell.index in resumed:
            outcomes.append(CellOutcome(cell=cell, record=resumed[cell.index],
                                        cached=True, key=keys[cell.index]))
            continue
        record, seconds, tree = executed[cell.index]
        outcomes.append(CellOutcome(cell=cell, record=record, seconds=seconds,
                                    cached=False, key=keys[cell.index],
                                    trace=tree))

    if trace and telemetry.sink is not None:
        _emit_traces(telemetry, outcomes)
    result = definition.reduce(spec, outcomes)
    run = ExperimentRun(spec=spec, result=result, outcomes=outcomes,
                        executor=executor, workers=workers,
                        seconds=time.perf_counter() - started)
    if store is not None:
        store.append_artifact(spec.name, run.to_record())
    return run


def _emit_traces(telemetry: "Telemetry",
                 outcomes: Sequence[CellOutcome]) -> None:
    """Append every traced cell's spans to the handle's JSONL sink.

    Each cell was traced by its own local tracer (span ids start at 1 in
    every worker), so ids are offset per cell to stay unique across the
    whole run's trace file — ``repro-trace`` needs the parent links to
    resolve unambiguously.
    """
    sink = telemetry.sink
    assert sink is not None
    offset = 0
    for outcome in outcomes:
        if not outcome.trace:
            continue
        spans = outcome.trace.get("spans")
        if not isinstance(spans, list) or not spans:
            continue
        for span in spans:
            shifted = dict(span)
            shifted["span_id"] = int(shifted["span_id"]) + offset
            if shifted.get("parent_id") is not None:
                shifted["parent_id"] = int(shifted["parent_id"]) + offset
            sink.write(shifted)
        offset += max(int(span["span_id"]) for span in spans)


def run_experiment(name: str, *args: object, scale_factor: Optional[float] = None,
                   train: Optional["TrainConfig"] = None,
                   executor: str = "serial", workers: Optional[int] = None,
                   store: Optional[ArtifactStore | str] = None,
                   resume: bool = True, force: bool = False,
                   spec: Optional[ExperimentSpec] = None,
                   print_result: bool = True,
                   telemetry: Optional["Telemetry"] = None,
                   **overrides: object) -> object:
    """Run a registered experiment and return its result object.

    ``*args``/``**overrides`` are handed to the experiment's spec builder
    (unknown ones are a hard :class:`ExperimentError`); ``spec=`` runs a
    pre-built spec instead.  ``scale_factor`` and ``train`` are applied as
    spec transforms, so they reach *every* experiment by construction —
    no experiment can silently ignore them.
    """
    definition = get_experiment(name)
    if spec is None:
        spec = build_spec(name, *args, **overrides)
    elif args or overrides:
        raise ExperimentError(
            "pass either a pre-built spec or builder arguments, not both")
    if scale_factor is not None:
        spec = spec.with_base(scale_factor=scale_factor)
    if train is not None:
        spec = spec.with_train(train)
    run = execute(spec, definition=definition, executor=executor,
                  workers=workers, store=store, resume=resume, force=force,
                  telemetry=telemetry)
    if print_result:
        from repro.experiments.common import format_table

        rows = run.result.rows() if hasattr(run.result, "rows") else []
        print(f"== {definition.name} ==")
        print(format_table(rows))
    return run.result


__all__ = ["CellOutcome", "ExperimentRun", "evaluation_cell",
           "summary_record", "record_times", "execute", "run_experiment"]
