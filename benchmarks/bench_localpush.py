"""Benchmark: LocalPush engine executors (serial/thread/process) vs the dict oracle.

Times the dict reference loop and the unified core under every executor
on a synthetic pokec-style graph, checks the core agrees with the oracle
within ``ε`` (the equivalence criterion of the test suite) *and* that all
executors are bit-identical to each other, then appends the result to
``BENCH_localpush.json`` at the repo root so future PRs can track the
precompute-speed trajectory.

The JSON file is an append-only list of run records.  Each new record is
validated against :data:`RECORD_SCHEMA` before being appended and carries
``cpu_count`` alongside ``num_workers`` — process-pool speedups are only
interpretable relative to the cores the machine actually had.

Usage
-----
``PYTHONPATH=src python benchmarks/bench_localpush.py``            full run (5k nodes)
``PYTHONPATH=src python benchmarks/bench_localpush.py --smoke``    quick smoke (600 nodes)
``... --nodes 2000 --epsilon 0.05 --workers 8 --output /tmp/b.json``  custom
``... --profile``                                       print the phase table too

Both modes exercise the dict oracle and every executor.  The full run
reproduces the acceptance bar of the unified-core PR: per-executor
speedups over the serial executor on a ≥ 5k-node graph at ε = 0.1
(``speedup_vs_serial`` — > 1 for the process executor requires actual
multi-core hardware; see ``cpu_count`` in the record).

Every record additionally carries three sections introduced with the
kernel layer:

* ``kernels`` — the scipy-vs-fused comparison at the same node count but
  a *kernel-stress* ε (default ``ε/10``, recorded in the section): at
  the headline ε = 0.1 the rounds are single-shard and matmul-bound, so
  the merge-path restructuring the fused kernel exists for barely
  registers; the stress ε drives multi-shard rounds where it does.  The
  section records ``speedup_vs_scipy`` and per-executor
  ``bit_identical_to_scipy``.
* ``float32`` — the reduced-precision sweep: fused float32 runs on small
  graphs against the dense ``linearized_simrank`` oracle, with the
  measured max error checked against the adjusted bound
  (:func:`repro.simrank.kernels.float32_error_bound`).
* ``profile`` — the per-phase (frontier/push/merge/prune) seconds of one
  serial core run at the headline ε (``--profile`` prints the table).

``benchmarks/check_perf_gate.py`` consumes this history in CI: it
compares the freshest record's core seconds against the last earlier
record with the same ``cpu_count``/``num_nodes`` shape and fails on a
>30 % core-kernel slowdown.
"""

from __future__ import annotations

# repro-lint: disable-file=R8 — this micro-benchmark measures the engine
# internals themselves (executor pool, reference oracle, synthetic generator),
# so importing them is its purpose, not an API leak.
import argparse
import json
import os
from pathlib import Path

import numpy as np

from repro.config import SimRankConfig
from repro.datasets.synthetic import SyntheticGraphConfig, generate_synthetic_graph
from repro.errors import ConfigError
from repro.simrank.engine import EXECUTORS, default_num_workers, localpush_engine
from repro.simrank.exact import linearized_simrank
from repro.simrank.kernels import PHASES, PhaseProfile, float32_error_bound
from repro.simrank.localpush import localpush_reference
from repro.telemetry import SpanRecorder, Tracer, TracingPhaseProfile, phase_seconds
from repro.utils.timer import Timer

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_localpush.json"

#: Top-level schema of one appended benchmark record: required key → type.
#: ``validate_record`` enforces it (with exact types — ``bool`` is not an
#: acceptable ``int``) before anything is written to the history file.
#: ``config`` is the resolved ``SimRankConfig.to_dict()`` of the run and
#: must round-trip through ``SimRankConfig.from_dict``.
RECORD_SCHEMA = {
    "benchmark": str,
    "mode": str,
    "num_nodes": int,
    "num_edges": int,
    "epsilon": float,
    "decay": float,
    "seed": int,
    "cpu_count": int,
    "num_workers": int,
    "config": dict,
    "backends": dict,
    "executors": dict,
    "kernels": dict,
    "float32": dict,
    "profile": dict,
    "within_epsilon": bool,
}

#: Schema of the ``kernels`` comparison section.
KERNELS_SCHEMA = {
    "epsilon": float,
    "scipy": dict,
    "fused": dict,
}

#: Schema of the ``float32`` sweep section.
FLOAT32_SCHEMA = {
    "epsilon": float,
    "decay": float,
    "bound": float,
    "sweeps": list,
}

#: Schema of the ``profile`` phase-breakdown section.
PROFILE_SCHEMA = {
    "kernel": str,
    "executor": str,
    "total_seconds": float,
    "phase_seconds": dict,
}

#: Schema of each per-executor entry inside ``record["executors"]``.
EXECUTOR_SCHEMA = {
    "seconds": float,
    "num_pushes": int,
    "nnz": int,
}

#: Extra keys required of the non-serial executor entries.
POOLED_EXECUTOR_SCHEMA = {
    "num_workers": int,
    "speedup_vs_serial": float,
    "bit_identical_to_serial": bool,
}


class RecordSchemaError(ValueError):
    """The benchmark record does not match :data:`RECORD_SCHEMA`."""


def _check_fields(mapping: dict, schema: dict, context: str, problems: list) -> None:
    for field, expected in schema.items():
        if field not in mapping:
            problems.append(f"{context}: missing required key {field!r}")
            continue
        value = mapping[field]
        if expected is float:
            ok = type(value) in (int, float) and type(value) is not bool
        else:
            ok = type(value) is expected
        if not ok:
            problems.append(
                f"{context}.{field}: expected {expected.__name__}, "
                f"got {type(value).__name__} ({value!r})")


def validate_record(record: dict) -> dict:
    """Validate a benchmark record against the schema; raise on mismatch."""
    problems: list = []
    _check_fields(record, RECORD_SCHEMA, "record", problems)
    executors = record.get("executors")
    if isinstance(executors, dict):
        for name in EXECUTORS:
            if name not in executors:
                problems.append(f"record.executors: missing executor {name!r}")
        for name, entry in executors.items():
            if not isinstance(entry, dict):
                problems.append(f"record.executors.{name}: expected dict")
                continue
            _check_fields(entry, EXECUTOR_SCHEMA,
                          f"record.executors.{name}", problems)
            if name in ("thread", "process"):
                _check_fields(entry, POOLED_EXECUTOR_SCHEMA,
                              f"record.executors.{name}", problems)
    backends = record.get("backends")
    if isinstance(backends, dict) and "dict" not in backends:
        problems.append("record.backends: missing the dict oracle entry")
    kernels = record.get("kernels")
    if isinstance(kernels, dict):
        _check_fields(kernels, KERNELS_SCHEMA, "record.kernels", problems)
        fused = kernels.get("fused")
        if isinstance(fused, dict):
            identical = fused.get("bit_identical_to_scipy")
            if not isinstance(identical, dict) or \
                    set(identical) != set(EXECUTORS):
                problems.append(
                    "record.kernels.fused.bit_identical_to_scipy: expected "
                    f"one bool per executor {tuple(EXECUTORS)}")
    f32 = record.get("float32")
    if isinstance(f32, dict):
        _check_fields(f32, FLOAT32_SCHEMA, "record.float32", problems)
    profile = record.get("profile")
    if isinstance(profile, dict):
        _check_fields(profile, PROFILE_SCHEMA, "record.profile", problems)
    config = record.get("config")
    if type(config) is dict:
        try:
            SimRankConfig.from_dict(config)
        except ConfigError as error:
            problems.append(f"record.config: not a valid SimRankConfig "
                            f"serialisation ({error})")
    if problems:
        raise RecordSchemaError(
            "benchmark record failed schema validation:\n  "
            + "\n  ".join(problems))
    return record


def build_graph(num_nodes: int, *, average_degree: float, seed: int):
    config = SyntheticGraphConfig(
        num_nodes=num_nodes, num_classes=2, num_features=8,
        average_degree=average_degree, homophily=0.44,
        name=f"bench-localpush-{num_nodes}")
    return generate_synthetic_graph(config, seed=seed)


def _timed(compute) -> dict:
    timer = Timer()
    with timer:
        result = compute()
    record = {
        "seconds": timer.elapsed,
        "num_pushes": result.num_pushes,
        "nnz": int(result.matrix.nnz),
        "matrix": result.matrix,
    }
    if result.num_workers is not None:
        record["num_workers"] = result.num_workers
    return record


def time_reference(graph, *, epsilon: float, decay: float) -> dict:
    """One timed run of the per-pair dict oracle (``localpush_reference``)."""
    return _timed(lambda: localpush_reference(graph, epsilon=epsilon,
                                              decay=decay, prune=False))


def time_plan(graph, *, executor: str, epsilon: float, decay: float,
              num_workers: int, stream_top_k: int | None = None) -> dict:
    """One timed unified-core run under ``executor``."""
    record = _timed(lambda: localpush_engine(
        graph, epsilon=epsilon, decay=decay, prune=False, executor=executor,
        num_workers=num_workers, stream_top_k=stream_top_k))
    if stream_top_k is not None:
        record["stream_top_k"] = stream_top_k
    return record


def _bit_identical(a, b) -> bool:
    return (a.dtype == b.dtype
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


def time_kernel(graph, *, kernel: str, executor: str, epsilon: float,
                decay: float, num_workers: int, dtype: str = "float64",
                profile: PhaseProfile | None = None) -> dict:
    """One timed unified-core run with an explicit kernel choice."""
    timer = Timer()
    with timer:
        result = localpush_engine(graph, epsilon=epsilon, decay=decay,
                                  prune=False, executor=executor,
                                  num_workers=num_workers, kernel=kernel,
                                  dtype=dtype, profile=profile)
    return {
        "seconds": timer.elapsed,
        "num_pushes": result.num_pushes,
        "nnz": int(result.matrix.nnz),
        "matrix": result.matrix,
        "kernel": result.kernel,
    }


def kernel_comparison(graph, *, epsilon: float, decay: float,
                      num_workers: int) -> dict:
    """The ``kernels`` record section: scipy vs fused at a stress ε.

    Times both kernels on the serial executor and runs the fused kernel
    under every executor to record per-executor bitwise identity with
    the scipy baseline (the guarantee that keeps ``kernel`` out of the
    operator-cache key).
    """
    print(f"  kernel comparison at stress epsilon={epsilon}:")
    scipy_run = time_kernel(graph, kernel="scipy", executor="serial",
                            epsilon=epsilon, decay=decay,
                            num_workers=num_workers)
    print(f"  {'scipy':>10}: {scipy_run['seconds']:8.3f}s "
          f"({scipy_run['num_pushes']} pushes, nnz={scipy_run['nnz']})")
    fused_runs = {}
    identical = {}
    for executor in EXECUTORS:
        fused_runs[executor] = time_kernel(
            graph, kernel="fused", executor=executor, epsilon=epsilon,
            decay=decay, num_workers=num_workers)
        identical[executor] = _bit_identical(scipy_run["matrix"],
                                             fused_runs[executor]["matrix"])
    fused = fused_runs["serial"]
    speedup = (round(scipy_run["seconds"] / fused["seconds"], 2)
               if fused["seconds"] > 0 else float("inf"))
    print(f"  {'fused':>10}: {fused['seconds']:8.3f}s — {speedup}x over "
          f"scipy, bit-identical per executor: {identical}")
    return {
        "epsilon": epsilon,
        "scipy": {
            "seconds": round(scipy_run["seconds"], 4),
            "num_pushes": scipy_run["num_pushes"],
            "nnz": scipy_run["nnz"],
        },
        "fused": {
            "seconds": round(fused["seconds"], 4),
            "num_pushes": fused["num_pushes"],
            "nnz": fused["nnz"],
            "speedup_vs_scipy": speedup,
            "bit_identical_to_scipy": {executor: bool(flag)
                                       for executor, flag in
                                       identical.items()},
        },
    }


def float32_sweep(*, epsilon: float, decay: float, average_degree: float,
                  seed: int, sizes: tuple = (300, 600)) -> dict:
    """The ``float32`` record section: measured error vs the adjusted bound.

    Runs the fused float32 core on small graphs against the dense
    ``linearized_simrank`` oracle (iterated to near machine precision)
    and checks the measured max error against
    :func:`repro.simrank.kernels.float32_error_bound` — the documented
    guarantee of ``dtype="float32"``.  The float64 error is recorded
    alongside so the precision penalty is visible in the history.
    """
    bound = float32_error_bound(epsilon, decay)
    sweeps = []
    for size in sizes:
        graph = build_graph(size, average_degree=average_degree,
                            seed=seed + size)
        exact = linearized_simrank(graph, decay=decay, tolerance=1e-12)
        errors = {}
        for dtype in ("float32", "float64"):
            result = localpush_engine(graph, epsilon=epsilon, decay=decay,
                                      prune=False, absorb_residual=True,
                                      kernel="fused", dtype=dtype)
            dense = result.matrix.toarray().astype(np.float64)
            errors[dtype] = float(np.abs(dense - exact).max())
        sweeps.append({
            "num_nodes": graph.num_nodes,
            "max_abs_err_float32": errors["float32"],
            "max_abs_err_float64": errors["float64"],
            "within_bound": bool(errors["float32"] < bound),
        })
        print(f"  float32 sweep n={graph.num_nodes}: "
              f"err32={errors['float32']:.3e} err64={errors['float64']:.3e} "
              f"bound={bound:.3e} within={sweeps[-1]['within_bound']}")
    return {"epsilon": epsilon, "decay": decay, "bound": bound,
            "sweeps": sweeps}


def profile_breakdown(graph, *, epsilon: float, decay: float,
                      num_workers: int, show: bool) -> dict:
    """The ``profile`` record section: per-phase seconds of one core run.

    Measured through the telemetry span path: the engine runs under a
    :class:`TracingPhaseProfile` (one ``localpush.<phase>`` span per
    phase measurement per round) and the table is
    :func:`repro.telemetry.summary.phase_seconds` over the recorded
    spans — the same aggregation ``repro-trace`` prints, so the
    benchmark and the tracing CLI can never disagree.  The record shape
    (:data:`PROFILE_SCHEMA`) is unchanged from the pre-telemetry
    accumulator.
    """
    recorder = SpanRecorder()
    profile = TracingPhaseProfile(Tracer([recorder]))
    run = time_kernel(graph, kernel="auto", executor="serial",
                      epsilon=epsilon, decay=decay, num_workers=num_workers,
                      profile=profile)
    totals = {phase: 0.0 for phase in PHASES}
    totals.update(phase_seconds(recorder.spans()))
    phases = {phase: round(seconds, 4)
              for phase, seconds in totals.items()}
    if show:
        print(f"  phase breakdown (kernel={run['kernel']}, serial, "
              f"epsilon={epsilon}):")
        for phase, seconds in phases.items():
            share = seconds / run["seconds"] if run["seconds"] > 0 else 0.0
            print(f"  {phase:>10}: {seconds:8.4f}s ({share:5.1%})")
    return {
        "kernel": run["kernel"],
        "executor": "serial",
        "total_seconds": round(run["seconds"], 4),
        "phase_seconds": phases,
    }


def load_history(path: Path) -> list:
    """Existing benchmark records; a legacy single-record file is wrapped."""
    if not path.exists():
        return []
    existing = json.loads(path.read_text())
    return existing if isinstance(existing, list) else [existing]


def run(*, num_nodes: int, average_degree: float, epsilon: float, decay: float,
        seed: int, smoke: bool, num_workers: int, stream_top_k: int = 32,
        kernel_epsilon: float | None = None,
        show_profile: bool = False) -> dict:
    graph = build_graph(num_nodes, average_degree=average_degree, seed=seed)
    cpu_count = os.cpu_count() or 1
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"epsilon={epsilon}, decay={decay}, workers={num_workers}, "
          f"cpus={cpu_count}")

    # Dict oracle first: the within-ε equivalence reference.
    oracle = time_reference(graph, epsilon=epsilon, decay=decay)
    print(f"  {'dict':>10}: {oracle['seconds']:8.3f}s "
          f"({oracle['num_pushes']} pushes, nnz={oracle['nnz']})")

    # The unified core under every executor, same worker count.
    runs = {}
    for executor in EXECUTORS:
        record = time_plan(graph, executor=executor, epsilon=epsilon,
                           decay=decay, num_workers=num_workers)
        runs[executor] = record
        workers = record.get("num_workers")
        extra = f", workers={workers}" if workers is not None else ""
        print(f"  {executor:>10}: {record['seconds']:8.3f}s "
              f"({record['num_pushes']} pushes, nnz={record['nnz']}{extra})")

    # The operator pipeline always streams top-k through the core
    # (simrank_operator passes stream_top_k=top_k), so the tracked record
    # must include what model precompute actually pays per round.
    streamed = time_plan(graph, executor="serial", epsilon=epsilon,
                         decay=decay, num_workers=num_workers,
                         stream_top_k=stream_top_k)
    print(f"  {'serial+topk':>11}: {streamed['seconds']:8.3f}s "
          f"(stream_top_k={stream_top_k}, nnz={streamed['nnz']})")

    serial = runs["serial"]
    serial_matrix = serial["matrix"]
    diff = oracle["matrix"] - serial_matrix
    max_abs_diff = float(np.abs(diff.data).max()) if diff.nnz else 0.0
    within_epsilon = max_abs_diff < epsilon
    print(f"  core vs dict: max|Ŝ_dict − Ŝ| = {max_abs_diff:.5f} "
          f"(bound ε = {epsilon})")

    executors_out = {}
    for executor, record in runs.items():
        entry = {
            "seconds": round(record["seconds"], 4),
            "num_pushes": record["num_pushes"],
            "nnz": record["nnz"],
        }
        if executor != "serial":
            matrix = record["matrix"]
            identical = (
                np.array_equal(serial_matrix.indptr, matrix.indptr)
                and np.array_equal(serial_matrix.indices, matrix.indices)
                and np.array_equal(serial_matrix.data, matrix.data))
            entry["num_workers"] = int(record.get("num_workers") or 1)
            entry["speedup_vs_serial"] = (
                round(serial["seconds"] / record["seconds"], 2)
                if record["seconds"] > 0 else float("inf"))
            entry["bit_identical_to_serial"] = bool(identical)
            print(f"  {executor:>10}: speedup vs serial "
                  f"{entry['speedup_vs_serial']}x, bit-identical={identical}")
        executors_out[executor] = entry
    executors_out["serial_streamed"] = {
        "seconds": round(streamed["seconds"], 4),
        "num_pushes": streamed["num_pushes"],
        "nnz": streamed["nnz"],
        "stream_top_k": streamed["stream_top_k"],
    }

    dict_seconds = oracle["seconds"]
    backends_out = {
        "dict": {
            "seconds": round(dict_seconds, 4),
            "num_pushes": oracle["num_pushes"],
            "nnz": oracle["nnz"],
        },
        "core": {
            "seconds": round(serial["seconds"], 4),
            "num_pushes": serial["num_pushes"],
            "nnz": serial["nnz"],
            "max_abs_diff_vs_dict": round(max_abs_diff, 6),
            "speedup_vs_dict": (round(dict_seconds / serial["seconds"], 2)
                                if serial["seconds"] > 0 else float("inf")),
        },
    }
    print(f"  {'core':>10}: speedup {backends_out['core']['speedup_vs_dict']}x "
          "over the dict oracle")

    # Kernel ladder: scipy vs fused at a multi-shard stress ε (at the
    # headline ε the rounds are matmul-bound and single-shard, so the
    # merge-path differences the fused kernel targets barely register).
    stress_epsilon = (kernel_epsilon if kernel_epsilon is not None
                      else epsilon / 10.0)
    kernels_out = kernel_comparison(graph, epsilon=stress_epsilon,
                                    decay=decay, num_workers=num_workers)
    float32_out = float32_sweep(epsilon=epsilon, decay=decay,
                                average_degree=average_degree, seed=seed)
    profile_out = profile_breakdown(graph, epsilon=epsilon, decay=decay,
                                    num_workers=num_workers,
                                    show=show_profile)

    # The resolved configuration of the headline executor-sweep runs
    # (LocalPush, full estimate, no pruning) — embedded so the history is
    # self-describing.  The extra `serial_streamed` measurement differs
    # only in its streaming prune and records its own `stream_top_k`.
    config = SimRankConfig(method="localpush", epsilon=epsilon, decay=decay,
                           workers=num_workers)

    return {
        "benchmark": "localpush_executors",
        "mode": "smoke" if smoke else "full",
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "epsilon": epsilon,
        "decay": decay,
        "seed": seed,
        "cpu_count": cpu_count,
        "num_workers": num_workers,
        "config": config.to_dict(),
        "backends": backends_out,
        "executors": executors_out,
        "kernels": kernels_out,
        "float32": float32_out,
        "profile": profile_out,
        "within_epsilon": bool(within_epsilon),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="quick 600-node run instead of the full 5k-node one")
    parser.add_argument("--nodes", type=int, default=None,
                        help="node count override (default: 5000, or 600 with --smoke)")
    parser.add_argument("--degree", type=float, default=9.0,
                        help="target average degree (pokec-like default: 9)")
    parser.add_argument("--epsilon", type=float, default=0.1,
                        help="LocalPush error threshold ε")
    parser.add_argument("--decay", type=float, default=0.6, help="decay factor c")
    parser.add_argument("--seed", type=int, default=0, help="graph seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="thread/process executor pool size "
                             "(default: min(4, cpu count))")
    parser.add_argument("--kernel-epsilon", type=float, default=None,
                        help="stress ε of the scipy-vs-fused kernel "
                             "comparison (default: ε/10 — small enough to "
                             "drive multi-shard rounds)")
    parser.add_argument("--profile", action="store_true",
                        help="print the per-phase (frontier/push/merge/"
                             "prune) breakdown of the serial core run; the "
                             "breakdown is recorded either way")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="benchmark history JSON to append to "
                             "(default: BENCH_localpush.json at the repo root)")
    args = parser.parse_args(argv)

    num_nodes = args.nodes if args.nodes is not None else (600 if args.smoke else 5000)
    num_workers = args.workers if args.workers is not None else default_num_workers()
    record = run(num_nodes=num_nodes, average_degree=args.degree,
                 epsilon=args.epsilon, decay=args.decay, seed=args.seed,
                 smoke=args.smoke, num_workers=num_workers,
                 kernel_epsilon=args.kernel_epsilon,
                 show_profile=args.profile)
    validate_record(record)
    history = load_history(args.output)
    history.append(record)
    args.output.write_text(json.dumps(history, indent=2) + "\n")
    print(f"appended record #{len(history)} to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
