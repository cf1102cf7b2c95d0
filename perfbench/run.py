"""End-to-end benchmark of the SIGMA reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cell-pokec --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

``cell-pokec``
    One op is one full experiment cell, ``repro.api.run`` of SIGMA on a
    freshly generated pokec graph (a new seed per op).
``sweep-penn94``
    One op is one point of a hyper-parameter sweep, ``repro.api.run`` of
    SIGMA on the same preloaded penn94 graph and seed.
``serve-mixed``
    One closed-loop client against an in-process
    ``repro.serve.SimRankService`` on pokec: ``topk`` reads interleaved
    with synchronous single-edge writes.

Every process this script starts gets a fresh empty working directory
under ``.perfbench/tmp`` in the checkout and imports ``repro`` from the
checkout's ``src``.  ``setup_s`` is the median over several processes
that each set the workload up from a cold start.  With ``--trace 0`` the
last line of standard output is a JSON object holding every end-to-end
metric; with ``--trace 1`` the ops run with spans around each call into
a layer and the object holds the per-layer metrics (spans are kept in
``.perfbench/traces``).  A failed op or output check makes the exit code
1; a broken checkout or a timeout makes it 2 with no result printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("cell-pokec", "sweep-penn94", "serve-mixed")
#: Cold set-ups per run that ``setup_s`` takes the median of (the timed
#: process's own set-up included); the cheaper set-ups get more repeats.
SETUP_REPEATS = {"cell-pokec": 7, "sweep-penn94": 3, "serve-mixed": 3}
#: Everything must have ended this many seconds after the script starts.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(stage: str, args: argparse.Namespace, deadline: float) -> Dict:
    """Run one worker process in a fresh directory; return its result."""
    tmp_root = WORKDIR / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    cwd = Path(tempfile.mkdtemp(prefix=f"{stage}-", dir=tmp_root))
    env = dict(os.environ)
    # Imports read cached bytecode, as they do for an installed package;
    # the cache lives under .perfbench so src/ is left as checked out.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORKDIR / "pycache")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        start = time.monotonic()
        command = [sys.executable, str(HERE / "worker.py"),
                   "--stage", stage, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--t0", repr(start)]
        proc = subprocess.Popen(command, cwd=cwd, env=env,
                                stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{stage} process passed the deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise BenchError(f"{stage} process exited with {code}")
        if stage == "warmup":
            return {}
        result = json.loads((cwd / "result.json").read_text())
        spans = cwd / "spans.jsonl"
        if spans.exists():
            traces = WORKDIR / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.move(str(spans),
                        traces / f"{args.workload}-seed{args.seed}.jsonl")
        return result
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S
    # A terminated benchmark still stops its worker (see child()).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2

    try:
        child("warmup", args, deadline)
        setups = []
        if not args.trace:
            setups = [child("setup", args, deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS[args.workload] - 1)]
        result = child("run", args, deadline)
    except (BenchError, OSError, ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2
    setups.append(result["setup_s"])
    # Metric names and units are declared once, in BENCHMARK.json.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    notes = {"setup_s": "median of " + " ".join(f"{s:.3f}" for s in setups),
             **result["notes"]}
    if args.trace:
        # A layer the workload does not exercise reads 0.
        table = spec["per_layer"]
        values = {**{m["name"]: 0.0 for m in table}, **result["layers"]}
    else:
        table = spec["end_to_end"]
        values = {"setup_s": statistics.median(setups), **result["metrics"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in table}
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:24s} {entry['value']:14.6g} {entry['unit']:9s} "
              f"{notes.get(name, '')}")
    for name, value, unit, note in result["extras"]:
        print(f"  {name:24s} {value:14.6g} {unit:9s} {note}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
