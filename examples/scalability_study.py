"""Scalability study: SIGMA's one-shot aggregation vs iterative GloGNN.

Generates a family of social-network-like graphs of growing size (the
paper's pokec generator) and measures, for SIGMA and GloGNN,

* the SimRank precomputation time (SIGMA only),
* the per-run learning time, and
* the speed-up of SIGMA over GloGNN as the graph grows —

reproducing the trend of the paper's Fig. 5 at laptop scale.

Configuring the precompute
--------------------------
SIGMA's precompute column is dominated by LocalPush (Algorithm 1).  The
whole pipeline is configured by one object —
:class:`repro.config.SimRankConfig` — whose execution-plan fields map to
the flags of this script:

* ``executor`` — how the frontier-batched LocalPush core
  (:mod:`repro.simrank.engine`) runs its per-round shard pushes:
  ``"serial"`` (in the calling thread), ``"thread"`` (a thread pool;
  scipy's matmul holds the GIL, so gains are modest on CPython) or
  ``"process"`` (a process pool sharing the walk matrix via
  ``multiprocessing.shared_memory`` — true multi-core scaling).  Left
  at ``"auto"`` (the default) it is ``"serial"`` below 4096 nodes and
  ``"thread"`` from there up;
* ``workers`` — thread/process pool size;
* ``cache_dir`` / ``cache_max_bytes`` — the persistent operator cache: a
  warm cache skips the precompute column entirely, and a looser-ε run
  can even be served from a tighter-ε entry by the cache's cross-ε reuse.

Every executor and worker count produces a **bit-identical** operator,
and all share the ``(1 − c)·ε`` stopping rule and the
``‖Ŝ − S‖_max < ε`` guarantee, so accuracy is unaffected by the choice.
"""

from __future__ import annotations

import argparse

from repro.config import SIGMA_DEFAULT_SIMRANK
from repro.experiments import format_table, run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--executor", default=None,
                        choices=("serial", "thread", "process", "auto"),
                        help="unified-core executor for the LocalPush "
                             "precompute (default: auto)")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size for the thread/process executors")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent operator cache directory")
    args = parser.parse_args()

    simrank = SIGMA_DEFAULT_SIMRANK.with_overrides(
        executor=args.executor, workers=args.workers,
        cache_dir=args.cache_dir)
    result = run_experiment("fig5", base_dataset="pokec", num_sizes=4,
                            shrink=2.0, base_scale=0.5, seed=0,
                            simrank=simrank, print_result=False)
    print("learning time across graph sizes")
    print(format_table(result.rows()))
    print("\nSIGMA speed-up over GloGNN by graph size:")
    for edges, ratio in result.speedup_trend():
        print(f"  edges={edges:7d}: {ratio:.2f}x")


if __name__ == "__main__":
    main()
