"""Workload ``cli``: fresh ``python -m repro`` interpreters, one per command.

One round runs, in a seeded order:

* ``repro age`` on each ISCAS85 circuit, each under its own seeded
  scenario (RAS, T_standby, lifetime, standby case);
* ``repro age FILE.bench`` on a seeded ~20k-gate netlist the benchmark
  writes itself;
* ``repro age CIRCUIT --store DIR`` for two circuits whose store was
  warmed during set-up (same scenario as their plain command);
* ``repro mlv`` and ``repro sleep`` on c432.

Import, argument parsing, netlist parsing and rendering are most of what
a CLI user waits for, and no other workload pays them per operation.
"""

from __future__ import annotations

import json
import random
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common
import netgen

BIG_GATES = 20000
STORE_CIRCUITS = ("c7552", "c1908")
SMALL = "c432"
RAS = ("1:1", "1:5", "1:9", "5:1")
T_STANDBY = (330.0, 350.0, 370.0, 400.0)
YEARS = (3.0, 5.0, 10.0)
#: The tail is the median over the rounds of each round's slowest command
#: (the 20k-gate ``.bench`` one), and a run has at least MIN_ROUNDS rounds:
#: one slow outlier sets the slowest command of a run, not this median.
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Op:
    """One CLI command of the round."""

    key: str
    kind: str  # age | age-store | mlv | sleep
    argv: Tuple[str, ...]
    plain_key: Optional[str] = None  # age-store: its no-store twin


@dataclass
class Plan:
    ops: List[Op]
    store: Path
    bench: Path
    order_rng: random.Random = field(repr=False, default=None)


def _scenario(rng: random.Random) -> List[str]:
    return ["--ras", rng.choice(RAS),
            "--t-standby", f"{rng.choice(T_STANDBY):g}",
            "--years", f"{rng.choice(YEARS):g}",
            "--standby", rng.choice(("worst", "worst", "best"))]


def make_plan(seed: int, workdir: Path) -> Plan:
    """The seeded command list, set in a fresh directory under workdir."""
    rng = random.Random(f"cli-{seed}")
    workdir = Path(tempfile.mkdtemp(prefix="cli", dir=workdir))
    bench = workdir / f"synth{seed}.bench"
    store = workdir / "store"
    ops: List[Op] = []
    scen: Dict[str, List[str]] = {}
    for name in common.ISCAS85:
        scen[name] = _scenario(rng)
        ops.append(Op(f"age:{name}", "age", ("age", name, *scen[name])))
    ops.append(Op("age:big", "age", ("age", str(bench), *_scenario(rng))))
    for name in STORE_CIRCUITS:
        ops.append(Op(f"age-store:{name}", "age-store",
                      ("age", name, *scen[name], "--store", str(store)),
                      plain_key=f"age:{name}"))
    ops.append(Op("mlv", "mlv",
                  ("mlv", SMALL, "--seed", str(rng.randrange(1000)),
                   "--ras", rng.choice(RAS))))
    ops.append(Op("sleep", "sleep",
                  ("sleep", SMALL, "--beta", rng.choice(("0.05", "0.03")),
                   "--ras", rng.choice(RAS))))
    return Plan(ops=ops, store=store, bench=bench,
                order_rng=random.Random(f"cli-order-{seed}"))


def setup(seed: int, workdir: Path) -> Plan:
    """Write the synthetic netlist and warm the store (the timed set-up)."""
    plan = make_plan(seed, workdir)
    netgen.write_bench(plan.bench, BIG_GATES, seed)
    for op in plan.ops:
        if op.kind == "age-store":
            res = common.run_repro(op.argv)
            if res.returncode != 0:
                raise common.BenchError(f"store warm-up failed: "
                                        f"{res.stderr.strip()}")
    return plan


# -- checks -------------------------------------------------------------------

_FLOAT = r"(-?\d+(?:\.\d+)?)"


def _field(stdout: str, label: str, pattern: str) -> Tuple[str, ...]:
    m = re.search(rf"^{re.escape(label)}\s*:\s*{pattern}\s*$", stdout,
                  re.MULTILINE)
    if m is None:
        raise ValueError(f"no {label!r} line")
    return m.groups()


def check_age(stdout: str) -> Optional[str]:
    """Aged >= fresh, and the printed degradation matches the delays.

    Delays print to 1e-4 ns and the degradation to 0.01 %, so the check
    accepts any degradation consistent with delays inside their rounding
    intervals.
    """
    try:
        fresh = float(_field(stdout, "fresh delay", rf"{_FLOAT} ns")[0])
        aged = float(_field(stdout, "aged delay", rf"{_FLOAT} ns")[0])
        deg = float(_field(stdout, "degradation", rf"{_FLOAT}%")[0])
    except ValueError as exc:
        return f"unparsable age output: {exc}"
    if not 0.0 < fresh <= aged:
        return f"aged delay {aged} ns below fresh {fresh} ns"
    h = 0.5e-4
    lo = ((aged - h) / (fresh + h) - 1.0) * 100.0 - 0.005
    hi = ((aged + h) / (fresh - h) - 1.0) * 100.0 + 0.005
    if not lo - 1e-9 <= deg <= hi + 1e-9:
        return (f"degradation {deg}% disagrees with {aged}/{fresh} ns "
                f"(allowed {lo:.4f}..{hi:.4f}%)")
    return None


def check_mlv(stdout: str) -> Optional[str]:
    """A 0/1 vector, leakage at or below expected, a positive aging."""
    try:
        bits = _field(stdout, "chosen MLV", r"([01]+)")[0]
        saved = float(_field(stdout, "standby leakage",
                             rf"{_FLOAT} uA \({_FLOAT}% below expected\)")[1])
        deg = float(_field(stdout, "aged degradation", rf"{_FLOAT}%")[0])
        evaluated = int(_field(stdout, "vectors evaluated", r"(\d+)")[0])
    except ValueError as exc:
        return f"unparsable mlv output: {exc}"
    if not bits or saved < 0.0 or not 0.0 < deg < 50.0 or evaluated < 1:
        return (f"mlv out of range: bits={bits!r} saved={saved}% "
                f"deg={deg}% evaluated={evaluated}")
    return None


def check_sleep(stdout: str) -> Optional[str]:
    """The gated circuit still ages: penalty and rail drop grow."""
    try:
        d0, d_end = (float(x) for x in _field(
            stdout, "rail drop",
            rf"{_FLOAT} mV \(design\), {_FLOAT} mV at \S+ years"))
        p0, p_end = (float(x) for x in _field(
            stdout, "delay penalty",
            rf"{_FLOAT}% at t=0, {_FLOAT}% at \S+ years"))
    except ValueError as exc:
        return f"unparsable sleep output: {exc}"
    if not (0.0 < p0 < p_end and 0.0 < d0 <= d_end):
        return (f"sleep penalties out of order: {p0}% -> {p_end}%, "
                f"{d0} -> {d_end} mV")
    return None


def check(op: Op, res: common.ChildResult,
          outputs: Dict[str, str]) -> Optional[common.Problem]:
    if res.returncode != 0:
        return common.Error(f"{' '.join(op.argv)} exited {res.returncode}: "
                            f"{res.stderr.strip()[-300:]}")
    if op.kind == "mlv":
        problem = check_mlv(res.stdout)
    elif op.kind == "sleep":
        problem = check_sleep(res.stdout)
    else:
        problem = check_age(res.stdout)
        if problem is None and op.kind == "age-store":
            if res.stdout != outputs.get(op.plain_key):
                problem = f"{op.key}: --store stdout differs from the plain run"
    return None if problem is None else common.Problem(problem)


def one_round(plan: Plan, tally: common.Tally, rss: List[float],
              per_op: Optional[Dict[str, List[float]]] = None) -> float:
    """Run every command once, in a fresh seeded order; the round wall."""
    order = list(plan.ops)
    plan.order_rng.shuffle(order)
    results = []
    t0 = time.perf_counter()
    for op in order:
        res = common.run_repro(op.argv)
        results.append((op, res))
        rss.append(res.maxrss_mib)
    wall = time.perf_counter() - t0
    outputs = {op.key: res.stdout for op, res in results}
    for op, res in results:
        tally.record(res.wall_s, check(op, res, outputs))
        if per_op is not None:
            per_op.setdefault(op.key, []).append(res.wall_s)
    return wall


def run(seed: int, seconds: float, workdir: Path):
    """The measured run: ``(tally, metrics)``."""
    plan, setup_s = common.median_setup(lambda: setup(seed, workdir))
    tally = common.Tally()
    rss: List[float] = []
    per_op: Dict[str, List[float]] = {}
    wall = common.run_rounds(
        seconds, lambda: one_round(plan, tally, rss, per_op), MIN_ROUNDS)
    common.log("median seconds per command: " + json.dumps(
        {k: round(common.median(v), 4) for k, v in sorted(per_op.items())}))
    metrics = common.end_to_end(tally, wall, setup_s, max(rss), 100.0)
    # The run's slowest command is replaced by the median of the rounds'
    # slowest (see MIN_ROUNDS).
    metrics["latency_tail_s"] = common.metric(
        common.median([max(r) for r in zip(*per_op.values())]), "s")
    return tally, metrics


def plain_round_wall(seed: int, workdir: Path) -> float:
    """One untraced round, for the tracing-overhead ratio."""
    plan = setup(seed, workdir)
    return one_round(plan, common.Tally(), [])


def probe(seed: int, workdir: Path):
    """Per-layer split of one round, replayed through timed public calls.

    Returns ``(tally, layer_metrics, traced_wall)``; layer times are
    totals over the round's commands.
    """
    plan = setup(seed, workdir)
    tally = common.Tally()
    totals: Dict[str, float] = {}
    hits = misses = 0
    residual = 0.0
    traced_wall = 0.0
    outputs: Dict[str, str] = {}
    results = []
    for op in plan.ops:
        out = workdir / "replay.json"
        res = common.run_python(
            [str(common.ROOT / "e2ebench" / "replay.py"), str(out),
             *op.argv])
        results.append((op, res))
        outputs[op.key] = res.stdout
        traced_wall += res.wall_s
        if res.returncode != 0:
            continue
        doc = json.loads(out.read_text(encoding="utf-8"))
        for name, s in doc["self_s"].items():
            totals[name] = totals.get(name, 0.0) + s
        residual += res.wall_s - sum(doc["self_s"].values())
        if op.kind == "age-store":
            hits += doc["store_hits"]
            misses += doc["store_misses"]
    for op, res in results:
        tally.record(res.wall_s, check(op, res, outputs))
    m = common.metric
    layers = {
        "cli.import_s": m(totals.get("cli.import", 0.0), "s"),
        "cli.residual_s": m(residual, "s"),
        "netlist.load_s": m(totals.get("netlist.load", 0.0), "s"),
        "netlist.parse_s": m(totals.get("netlist.parse", 0.0), "s"),
        "sta.lower_s": m(totals.get("sta.lower", 0.0), "s"),
        "sta.aged_delays_s": m(totals.get("sta.aged_delays", 0.0), "s"),
        "artifacts.store_read_s": m(totals.get("artifacts.store_read", 0.0),
                                    "s"),
        "artifacts.store_hit_ratio": m(hits / max(1, hits + misses),
                                       "ratio"),
    }
    common.log("cli layer split: " + json.dumps(
        {k: round(v, 4) for k, v in sorted(totals.items())})
        + f" residual={residual:.4f} wall={traced_wall:.4f}")
    return tally, layers, traced_wall
