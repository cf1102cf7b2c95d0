"""One benchmark process: set up one workload and, in the ``run`` stage,
time its fixed list of ops.

``run.py`` starts this file in a fresh process whose working directory
is a fresh empty temporary directory, with the checkout's ``src`` on
``PYTHONPATH``.  The process writes its measurements to ``result.json``
in that directory and exits 0 even when an op failed; failures are
counted in the result, and ``run.py`` turns them into a non-zero exit.

Stages:

``warmup``
    Import the package only (compiles bytecode, fills the page cache).
``setup``
    Imports, warm-up and the workload's preload; reports ``setup_s``.
``run``
    ``setup``, then the timed ops and their output checks.  With
    ``--trace 1`` every call into a layer runs inside a span and the
    result also holds the per-layer metrics derived from the spans.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import sys
import time
import traceback
from collections import deque
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Tuple

from repro.telemetry import (NULL_TRACER, JsonlSpanSink, SpanRecorder,
                             Tracer)
from repro.telemetry.summary import self_times

#: Epochs per cell: ``min_epochs == max_epochs`` so every cell trains
#: exactly this many epochs whatever its hyper-parameters.
EPOCHS = 10
#: Nominal seconds per op on a 2-core x86 host at the commit that added
#: the benchmark.  Only the op count is derived from it
#: (``round(seconds / nominal)``), so a faster program finishes the same
#: fixed work sooner and ``wall_s`` shows it.
NOMINAL_OP_S = {"cell-pokec": 6.0, "sweep-penn94": 7.0, "serve-mixed": 0.05}
MIN_OPS = {"cell-pokec": 3, "sweep-penn94": 3, "serve-mixed": 40}
#: serve-mixed block: a read, four inserts of seeded non-edges, a read,
#: then the four deletes in insert order, so every block ends on the
#: loaded graph and every other read sees four extra edges.  Nothing in
#: the repository fixes a read/write mix; this one is chosen so that
#: each path carries about half of ``wall_s`` (a write costs about a
#: fifth of a read), and a slowdown of either by more than about half
#: moves ``wall_s`` past its bound.  The run reports the measured share.
SERVE_PATTERN = "RIIIIRDDDD"
SERVE_K = 10
#: Every CHECK_EVERY-th read is compared with ``repro.api.topk``.
CHECK_EVERY = 8
#: Large enough that the traced run never drops a span.
MAX_SPANS = 1 << 20
#: Learning-rate × weight-decay grid walked by sweep-penn94.  Neither
#: changes the work of an op: the epoch count is fixed.
SWEEP_GRID = [(lr, wd) for wd in (5e-4, 1e-3, 5e-3)
              for lr in (0.005, 0.01, 0.02, 0.05)]


def op_count(workload: str, seconds: int) -> int:
    return max(MIN_OPS[workload], round(seconds / NOMINAL_OP_S[workload]))




def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS counter (VmHWM) at the current RSS."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


#: What an end-to-end run returns besides the shared metrics: the
#: latencies ``op_p50_ms`` is the median of, and report-only lines
#: ``(name, value, unit, note)``.
Outputs = Tuple[List[float], List[Tuple[str, float, str, str]]]


class Run:
    """Bookkeeping of one run: op latencies and memory, failures, checks.

    With tracing on, :meth:`span` and :meth:`record` feed a
    ``repro.telemetry`` tracer whose spans stay in memory until the run
    ends; every span opened inside an op carries the op index as its
    ``op`` attribute.  Off, they go to the inert ``NULL_TRACER``, so
    both runs execute the same code.
    """

    def __init__(self, trace: bool) -> None:
        self.recorder = SpanRecorder(MAX_SPANS) if trace else None
        self.tracer = Tracer([self.recorder]) if trace else NULL_TRACER
        self.current_op: Optional[int] = None
        self.op_seconds: List[float] = []
        #: Peak resident memory (MB) during each op, by op kind, and
        #: under ``set-up`` the peak before the first op.
        self.peaks: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.check_ok = 0

    def _tags(self, attributes: Dict[str, object]) -> Dict[str, object]:
        if self.current_op is not None:
            attributes["op"] = self.current_op
        return attributes

    def span(self, name: str, **attributes: object):
        """A span around a call into a layer."""
        return self.tracer.span(name, **self._tags(attributes))

    def record(self, name: str, seconds: float, **attributes: object) -> None:
        """A span for time the system measured itself, as a child of the
        innermost open span."""
        self.tracer.record_complete(name, seconds, **self._tags(attributes))

    def op(self, index: int, fn: Callable[[], object], kind: str,
           layer: Optional[str] = None) -> Tuple[object, float]:
        """Time op ``index``; an op that raises is counted as failed.

        Also records the peak resident memory reached during the op
        under ``kind``; ``layer`` names a span around ``fn``.  Returns
        ``(value, seconds)``, or ``(None, 0.0)`` on failure.
        """
        self.attempted += 1
        if not self.peaks:
            self.peaks["set-up"] = [peak_rss_mb()]
        reset_peak_rss()
        self.current_op = index
        try:
            with self.span("op", kind=kind), \
                    self.span(layer) if layer else nullcontext():
                start = time.monotonic()
                value = fn()
                elapsed = time.monotonic() - start
        except Exception:  # a failed op is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None, 0.0
        finally:
            self.current_op = None
        self.op_seconds.append(elapsed)
        self.peaks.setdefault(kind, []).append(peak_rss_mb())
        return value, elapsed

    def check(self, ok: bool, what: str, counted: bool = True) -> None:
        """Record an output check; a failed check fails the run.

        ``counted`` checks make up ``correct_frac``.
        """
        if counted:
            self.checked += 1
            self.check_ok += bool(ok)
        if not ok:
            print(f"check failed: {what}", file=sys.stderr)
            self.failed += 1

    def trace(self) -> "Trace":
        assert self.recorder is not None
        if self.recorder.dropped:
            raise RuntimeError(f"{self.recorder.dropped} spans dropped")
        return Trace(self.recorder.spans())


class Trace:
    """The traced run's spans, read the way the layer metrics need."""

    def __init__(self, spans: List[Dict[str, object]]) -> None:
        self.spans = spans
        self.self_s = self_times(spans)

    def values(self, name: str, *, self_time: bool = False,
               in_ops: bool = True) -> List[float]:
        """Durations (or self times) of the spans called ``name``: those
        inside a timed op, or with ``in_ops=False`` those of set-up."""
        return [self.self_s[span["span_id"]] if self_time
                else span["duration"]
                for span in self.spans
                if span["name"] == name
                and ("op" in span["attributes"]) == in_ops]

    def attribute(self, name: str, key: str) -> List[object]:
        return [span["attributes"][key] for span in self.spans
                if span["name"] == name and key in span["attributes"]]

    def by(self, name: str, key: str) -> Dict[object, float]:
        """Duration of each span called ``name``, keyed by an attribute."""
        return {span["attributes"][key]: span["duration"]
                for span in self.spans
                if span["name"] == name and key in span["attributes"]}

    def write(self, path: str) -> None:
        sink = JsonlSpanSink(path)
        for span in self.spans:
            sink.write(span)
        sink.close()


# --------------------------------------------------------------------- #
# cell-pokec and sweep-penn94: one op is one repro.api.run cell
# --------------------------------------------------------------------- #
class CellWorkload:
    def __init__(self, name: str, seed: int, seconds: int) -> None:
        self.name = name
        self.seed = seed
        self.count = op_count(name, seconds)
        self.dataset = "pokec" if name == "cell-pokec" else "penn94"
        self.kind = "cell" if name == "cell-pokec" else "sweep point"
        #: cell-pokec generates a new graph in every op.
        self.graph_per_op = name == "cell-pokec"

    def setup(self, run: Run) -> None:
        import repro
        from repro import api
        from repro.config import RunSpec
        from repro.training import TrainConfig

        self.repro, self.api = repro, api
        rng = random.Random(self.seed)
        if self.name == "cell-pokec":
            seeds = rng.sample(range(1, 1 << 30), self.count)
            grid = [(0.01, 5e-4)] * self.count
        else:
            seeds = [rng.randrange(1, 1 << 30)] * self.count
            grid = [SWEEP_GRID[i % len(SWEEP_GRID)]
                    for i in range(self.count)]
        self.specs = [
            RunSpec(model="sigma", dataset=self.dataset, repeats=1, seed=s,
                    train=TrainConfig(learning_rate=lr, weight_decay=wd,
                                      max_epochs=EPOCHS, min_epochs=EPOCHS))
            for s, (lr, wd) in zip(seeds, grid)]
        # Warm-up: one tiny cell, so lazy imports are not charged to op 0.
        api.run(RunSpec(model="sigma", dataset="texas", repeats=1, seed=0,
                        train=TrainConfig(max_epochs=EPOCHS,
                                          min_epochs=EPOCHS)))
        if self.name == "sweep-penn94":
            # Fills the in-process dataset memo that api.run consults.
            with run.span("datasets.load"):
                repro.load_dataset(self.dataset, seed=seeds[0])

    def _cell(self, run: Run, spec) -> Callable[[], object]:
        """One cell: the dataset (a memo hit after set-up in the sweep),
        then ``api.run``, whose own dataset lookup then hits the memo."""
        def cell():
            with run.span("datasets.load"):
                dataset = self.repro.load_dataset(self.dataset,
                                                  seed=spec.seed)
            self.num_edges = dataset.graph.num_edges
            with run.span("api.run"):
                result = self.api.run(spec)
                # The training loop reports its time as buckets; each
                # becomes a child span, so api.run's self time is the rest.
                buckets = result.summary.results[0].timing.buckets
                run.record("simrank.precompute",
                           buckets.get("precompute", 0.0))
                run.record("training.fit", buckets.get("training", 0.0),
                           aggregation_s=buckets.get("aggregation", 0.0))
            return result
        return cell

    def run_ops(self, run: Run) -> Outputs:
        self.accuracies: List[float] = []
        self.epochs: List[int] = []
        for index, spec in enumerate(self.specs):
            result, _ = run.op(index, self._cell(run, spec), self.kind)
            if result is None:
                continue
            accuracy = result.summary.mean_accuracy
            num_epochs = result.summary.results[0].num_epochs
            run.check(math.isfinite(accuracy) and 0.0 <= accuracy <= 1.0
                      and num_epochs == EPOCHS,
                      f"op {index}: accuracy {accuracy} after {num_epochs} "
                      f"epochs, want {EPOCHS}")
            self.accuracies.append(accuracy)
            self.epochs.append(num_epochs)
        return run.op_seconds, [
            ("accuracy", mean(self.accuracies), "fraction",
             f"mean test accuracy over {len(self.accuracies)} cells")]

    def layers(self, trace: Trace) -> Dict[str, float]:
        fits = trace.values("training.fit")
        return {
            "datasets.load_s": median(trace.values("datasets.load")),
            "datasets.preload_s": median(
                trace.values("datasets.load", in_ops=False)),
            "datasets.num_edges": float(self.num_edges),
            "api.run_s": median(trace.values("api.run")),
            "api.other_s": median(trace.values("api.run", self_time=True)),
            "simrank.precompute_s": median(
                trace.values("simrank.precompute")),
            "training.fit_s": median(fits),
            "models.aggregation_s": median(
                trace.attribute("training.fit", "aggregation_s")),
            "training.epoch_ms": median(
                [1000.0 * f / e for f, e in zip(fits, self.epochs)]),
            "training.epochs": float(median(self.epochs)),
            "training.accuracy": mean(self.accuracies),
        }


# --------------------------------------------------------------------- #
# serve-mixed: closed-loop reads and synchronous writes on one service
# --------------------------------------------------------------------- #
class ServeWorkload:
    kind = "read"
    graph_per_op = False

    def __init__(self, name: str, seed: int, seconds: int) -> None:
        self.name = name
        self.seed = seed
        blocks = max(1, round(op_count(name, seconds) / len(SERVE_PATTERN)))
        self.schedule = SERVE_PATTERN * blocks

    def setup(self, run: Run) -> None:
        import repro
        from repro import api
        from repro.config import DynamicConfig, ServeConfig
        from repro.graphs.delta import GraphDelta
        from repro.serve import SimRankService

        self.api, self.delta = api, GraphDelta
        # One graph, the dataset's default one, for every seed: the seed
        # draws the read sources and write edges.  Generated pokec graphs
        # differ in how dense their SimRank operator is, which would make
        # this workload's memory and latency follow the seed; cell-pokec
        # covers that variety.
        with run.span("datasets.load"):
            graph = repro.load_dataset("pokec").graph
        # Synchronous repair: with background repair, which graph a read
        # sees would depend on thread timing.
        self.svc = SimRankService(
            graph, serve=ServeConfig(),
            dynamic=DynamicConfig(background_repair=False))

        rng = random.Random(self.seed)
        n = graph.num_nodes
        edges: List[Tuple[int, int]] = []
        seen = set()
        while len(edges) < self.schedule.count("I") + 1:
            u, v = sorted((rng.randrange(n), rng.randrange(n)))
            if u != v and not graph.has_edge(u, v) and (u, v) not in seen:
                seen.add((u, v))
                edges.append((u, v))
        self.edges = edges[1:]
        self.sources = [rng.randrange(n)
                        for _ in range(self.schedule.count("R"))]

        self.svc.topk(rng.randrange(n), SERVE_K)
        # The first write builds the maintained operator (bootstrap); the
        # second undoes it so the timed ops start on the loaded graph.
        with run.span("dynamic.bootstrap"):
            self.svc.apply_update(GraphDelta("insert", *edges[0]), wait=True)
        self.svc.apply_update(GraphDelta("delete", *edges[0]), wait=True)
        self.issued_reads, self.issued_writes = 1, 2

    def _write(self, run: Run, delta) -> Callable[[], Dict[str, object]]:
        def write():
            payload = self.svc.apply_update(delta, wait=True)
            run.record("dynamic.repair", payload["repair_seconds"],
                       pushes=payload["num_pushes"])
            return payload
        return write

    def run_ops(self, run: Run) -> Outputs:
        svc = self.svc
        self.reads: List[float] = []
        self.writes: List[float] = []
        sources, edges = iter(self.sources), iter(self.edges)
        inserted: deque = deque()
        for index, kind in enumerate(self.schedule):
            if kind == "R":
                self._read(run, index, next(sources))
                continue
            if kind == "I":
                edge = next(edges)
                inserted.append(edge)
            else:
                edge = inserted.popleft()
            delta = self.delta("insert" if kind == "I" else "delete", *edge)
            self.issued_writes += 1
            payload, elapsed = run.op(index, self._write(run, delta),
                                      "write", "serve.apply_update")
            if payload is None:
                continue
            self.writes.append(elapsed)
            present = svc.graph.has_edge(*edge)
            run.check(present == (kind == "I") and not payload["background"],
                      f"op {index}: edge {edge} present={present} after "
                      f"{delta.kind}", counted=False)

        self.counters = svc.metrics()["counters"]
        run.check(self.counters["queries"] == self.issued_reads,
                  f"service counted {self.counters['queries']} queries, "
                  f"{self.issued_reads} issued", counted=False)
        run.check(self.counters["updates_applied"] == self.issued_writes,
                  f"service applied {self.counters['updates_applied']} "
                  f"updates, {self.issued_writes} issued", counted=False)
        reads, writes = self.reads, self.writes
        read_p90 = p90(reads)
        beyond = sum(r > read_p90 for r in reads)
        return reads, [
            ("read_p90_ms", 1000.0 * read_p90, "ms",
             f"90th percentile of {len(reads)} reads, {beyond} above it"),
            ("write_p50_ms", 1000.0 * median(writes), "ms",
             f"median of {len(writes)} synchronous writes"),
            ("write_share", sum(writes) / max(1e-9, sum(reads + writes)),
             "fraction", f"share of wall_s spent in the {len(writes)} "
                         f"writes; the {len(reads)} reads take the rest")]

    def _read(self, run: Run, index: int, source: int) -> None:
        svc = self.svc
        graph = svc.graph
        self.issued_reads += 1
        answer, elapsed = run.op(index, lambda: svc.topk(source, SERVE_K),
                                 "read", "serve.topk")
        if answer is None:
            return
        self.reads.append(elapsed)
        if len(self.reads) % CHECK_EVERY != 1:
            return
        # Output check, outside the timed op: the served row against
        # repro.api.topk on the graph version the read was served from.
        with run.span("simrank.topk", read=index):
            expected = self.api.topk(graph, source, SERVE_K, svc.simrank)
        run.check(answer.path == "exact" and answer.entries == expected,
                  f"op {index}: topk({source}) on path {answer.path} "
                  f"differs from repro.api.topk")

    def layers(self, trace: Trace) -> Dict[str, float]:
        served = trace.by("serve.topk", "op")
        reference = trace.by("simrank.topk", "read")
        return {
            "datasets.preload_s": median(
                trace.values("datasets.load", in_ops=False)),
            "datasets.num_edges": float(self.svc.graph.num_edges),
            "dynamic.bootstrap_s": median(
                trace.values("dynamic.bootstrap", in_ops=False)),
            "serve.read_p90_ms": 1000.0 * p90(self.reads),
            "simrank.topk_ms": 1000.0 * median(list(reference.values())),
            "serve.overhead_ms": 1000.0 * median(
                [served[op] - ref for op, ref in reference.items()]),
            "serve.exact_frac": self.counters["exact_served"]
            / max(1.0, self.counters["queries"]),
            "serve.write_ms": 1000.0 * median(
                trace.values("serve.apply_update")),
            "dynamic.repair_ms": 1000.0 * median(
                trace.values("dynamic.repair")),
            "serve.write_overhead_ms": 1000.0 * median(
                trace.values("serve.apply_update", self_time=True)),
            "dynamic.pushes": float(sum(
                trace.attribute("dynamic.repair", "pushes"))),
            "serve.queries": float(self.counters["queries"]),
            "serve.updates_applied": float(self.counters["updates_applied"]),
        }


WORKLOADS = {"cell-pokec": CellWorkload, "sweep-penn94": CellWorkload,
             "serve-mixed": ServeWorkload}


def peak_metric(run: Run, workload) -> Tuple[float, str]:
    """``peak_rss_mb`` and its note.

    Where every op shares one graph, the peak of the whole process, set-up
    included.  In cell-pokec each op generates its own graph, and a few
    generated graphs reproducibly give a SimRank operator about four times
    denser than most (over twice the memory), so the peak is the median
    over cells of the peak during each cell.
    """
    if workload.graph_per_op:
        cells = run.peaks.get(workload.kind, [])
        return median(cells), (
            f"median over {len(cells)} cells of the peak during the cell; "
            f"max {max(cells, default=0.0):.1f}")
    return max(max(v) for v in run.peaks.values()), (
        "peak of the process; by phase: " + ", ".join(
            f"{kind} {max(v):.1f}" for kind, v in run.peaks.items()))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stage", choices=("warmup", "setup", "run"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="monotonic clock reading when the process "
                             "was started")
    args = parser.parse_args(argv)

    if args.stage == "warmup":
        import repro  # noqa: F401
        import repro.serve  # noqa: F401
        return 0

    run = Run(trace=bool(args.trace))
    workload = WORKLOADS[args.workload](args.workload, args.seed,
                                        args.seconds)
    workload.setup(run)
    result: Dict[str, object] = {"setup_s": time.monotonic() - args.t0}
    if args.stage == "run":
        latencies, extras = workload.run_ops(run)
        ops = run.op_seconds
        peak, peak_note = peak_metric(run, workload)
        noun = f"{workload.kind}s"
        result.update({
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {
                "wall_s": sum(ops),
                "op_p50_ms": 1000.0 * median(latencies),
                "correct_frac": run.check_ok / max(1, run.checked),
                "peak_rss_mb": peak,
            },
            "notes": {
                "wall_s": f"sum over {len(ops)} timed ops",
                "op_p50_ms": f"median of {len(latencies)} {noun}",
                "correct_frac": f"{run.checked} checked {noun}",
                "peak_rss_mb": peak_note,
            },
            "extras": extras,
        })
        if run.recorder is not None:
            trace = run.trace()
            result["layers"] = {**workload.layers(trace),
                                "trace.wall_s": sum(ops)}
            trace.write("spans.jsonl")
    with open("result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
