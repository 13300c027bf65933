"""Steadiness and comparison tool for the end-to-end benchmark.

Run each workload N times on successive seeds and report, per end-to-end
metric, the median, the quartiles, the quartile spread and the max/min
spread as shares of the median, against the metric's bound in
``BENCHMARK.json``::

    python3 e2ebench/steady.py --runs 10 --first-seed 1 [--workload W ...] \\
        [--save runs.json]

Compare two saved sets (for example the parent commit and a change) by
their medians, against the same bounds::

    python3 e2ebench/steady.py --compare base.json change.json

A spread is ``steady`` below a third of the bound, ``ok`` below the
bound, ``WIDE`` above it.  In a comparison, a metric whose quartile
spread on either side is wider than its bound is ``UNRESOLVED``: its
move cannot be told from noise, so it neither passes nor regresses.
The comparison exits 1 on any regression, else 2 on any unresolved
metric, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:"
                         f"\n{proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["run_wall_s"] = wall
    doc["seed"] = seed
    return doc


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med, (max(values) - min(values)) / med


def verdict(share: float, bound: float) -> str:
    if share < bound / 3:
        return "steady"
    return "ok" if share <= bound else "WIDE"


def report(spec: dict, runs: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, docs in runs.items():
        fails = {d["failed"] / d["attempted"] for d in docs}
        walls = [d["run_wall_s"] for d in docs]
        print(f"\n{workload}: {len(docs)} runs, seeds "
              f"{docs[0]['seed']}..{docs[-1]['seed']}, correct "
              f"{all(d['correct'] for d in docs)}, failed shares "
              f"{sorted(fails)}, run wall {min(walls):.1f}.."
              f"{max(walls):.1f} s")
        print(f"  {'metric':18} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}  verdict")
        for name, bound in bounds.items():
            values = [d["metrics"][name]["value"] for d in docs]
            med, q1, q3, iqr, rng = spread(values)
            print(f"  {name:18} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{iqr:8.2%} {rng:9.2%} {bound:6.0%}  "
                  f"{verdict(iqr, bound)}")


def compare(spec: dict, base: dict, change: dict) -> int:
    """Median of ``change`` vs median of ``base``, per metric and workload,
    with each side's quartile spread; the exit code of the comparison."""
    regressions = unresolved = 0
    print(f"{'':6} {'metric':18} {'base':>11}    {'change':>11} "
          f"{'worse by':>8} {'bound':>6} {'iqr/med base':>12} "
          f"{'change':>7}  verdict")
    for m in spec["end_to_end"]:
        for workload in base:
            if workload not in change:
                continue
            a, _, _, iqr_a, _ = spread([d["metrics"][m["name"]]["value"]
                                        for d in base[workload]])
            b, _, _, iqr_b, _ = spread([d["metrics"][m["name"]]["value"]
                                        for d in change[workload]])
            delta = (b - a) / a if m["better"] == "lower" else (a - b) / a
            if max(iqr_a, iqr_b) > m["bound"]:
                word = "UNRESOLVED"
                unresolved += 1
            elif delta > m["bound"]:
                word = "REGRESSION"
                regressions += 1
            else:
                word = "pass"
            print(f"{workload:6} {m['name']:18} {a:11.5g} -> {b:11.5g} "
                  f"{delta:+8.2%} {m['bound']:6.0%} {iqr_a:12.2%} "
                  f"{iqr_b:7.2%}  {word}")
    return 1 if regressions else 2 if unresolved else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save", help="write the raw runs to this JSON file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                   help="compare two saved sets instead of running")
    args = p.parse_args(argv)
    spec = load_spec()
    if args.compare:
        base, change = (json.loads(Path(f).read_text()) for f in args.compare)
        return compare(spec, base, change)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    runs = {}
    for workload in names:
        runs[workload] = []
        for k in range(args.runs):
            seed = args.first_seed + k
            runs[workload].append(one_run(spec, workload, seed))
            print(f"{workload} seed {seed}: "
                  f"{runs[workload][-1]['run_wall_s']:.1f} s",
                  file=sys.stderr, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1))
    report(spec, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
