"""End-to-end benchmark of the ``repro`` package in this checkout.

Usage::

    python3 e2ebench/run.py --workload {cli,study,sweep,serve} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it sets the workload up (timed as ``setup_s``), runs
whole rounds of its operations until the program's timed seconds reach
``S`` (the benchmark's checks of every output are not timed), and prints
the end-to-end metrics.  With ``--trace 1`` it instead
replays one round of every workload through benchmark-side timers around
the program's public calls, and prints the per-layer metrics plus
``bench.trace_overhead_ratio`` (traced / untraced wall of one round of
the named workload).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything a run writes lives under
``.e2ebench/`` in the checkout and is removed when the run ends (the
bytecode cache under ``.e2ebench/pycache`` is kept).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Bytecode of the benchmark, like the program's, is cached under
# .e2ebench/ rather than next to the sources.
sys.pycache_prefix = str(Path(__file__).resolve().parents[1] / ".e2ebench"
                         / "pycache")

import common  # noqa: E402
import wl_cli  # noqa: E402
import wl_serve  # noqa: E402
import wl_study  # noqa: E402
import wl_sweep  # noqa: E402

WORKLOADS = {"cli": wl_cli, "study": wl_study, "sweep": wl_sweep,
             "serve": wl_serve}


def traced(workload: str, seed: int, workdir):
    tally = common.Tally()
    layers = {}
    walls = {}
    for name, mod in WORKLOADS.items():
        common.log(f"tracing one round of {name}")
        t, m, wall = mod.probe(seed, workdir)
        tally.merge(t)
        layers.update(m)
        walls[name] = wall
    plain = WORKLOADS[workload].plain_round_wall(seed, workdir)
    layers["bench.trace_overhead_ratio"] = common.metric(
        walls[workload] / plain, "ratio")
    return tally, layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        common.require_program()
        common.warm_bytecode()
        with common.RunDir(args.workload) as workdir:
            if args.trace:
                tally, metrics = traced(args.workload, args.seed, workdir)
            else:
                tally, metrics = WORKLOADS[args.workload].run(
                    args.seed, args.seconds, workdir)
    except common.BenchError as exc:
        common.log(f"error: {exc}")
        return 2
    for problem in tally.problems:
        common.log(f"failed: {problem}")
    common.emit(tally.wrong == 0, tally.attempted, tally.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
