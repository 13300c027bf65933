"""Workload ``sweep``: pooled, sharded ``repro sweep`` runs over ISCAS85.

Each operation is one fresh interpreter running ``repro sweep`` over the
whole suite (seeded scenario and search seed) with ``--workers 2
--shards 2`` into a fresh ``--store``.  Only this workload runs the
``flow.parallel`` pool executor, parent-side bundle building, bundle
shipping and shard checkpoints.

Set-up computes the reference the rows are checked against: the same
co-optimization, run serially in this process through the public
``co_optimize_circuit`` worker.
"""

from __future__ import annotations

import json
import random
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

import common

WORKERS = common.CONCURRENCY
SHARDS = 2
N_VECTORS = 48
SET_SIZE = 6
#: Two or three sweeps fit in a run, so the tail is the slowest sweep.
TAIL_P = 100.0


class Sweep:
    """The seeded sweep: scenario and search seed, reference rows."""

    def __init__(self, seed: int):
        rng = random.Random(f"sweep-{seed}")
        # Suite order: the order fixes which circuits share a pool worker
        # and a shard, and with it the peak RSS of the run.
        self.circuits = list(common.ISCAS85)
        self.ras = rng.choice(("1:5", "1:9", "1:1"))
        self.t_standby = rng.choice((330.0, 350.0, 370.0))
        self.years = 10.0
        self.mlv_seed = rng.randrange(1000)

    def argv(self, store: Path) -> List[str]:
        return ["sweep", *self.circuits, "--ras", self.ras,
                "--t-standby", f"{self.t_standby:g}",
                "--years", f"{self.years:g}", "--seed", str(self.mlv_seed),
                "--vectors", str(N_VECTORS), "--set-size", str(SET_SIZE),
                "--workers", str(WORKERS), "--shards", str(SHARDS),
                "--store", str(store)]

    def jobs(self, bundles: Optional[Dict[str, object]] = None):
        from repro import OperatingProfile
        from repro.constants import years
        from repro.flow.parallel import CoOptimizationJob

        profile = OperatingProfile.from_ras(self.ras,
                                            t_standby=self.t_standby)
        return [CoOptimizationJob(circuit=name, profile=profile,
                                  lifetime=years(self.years),
                                  n_vectors=N_VECTORS,
                                  max_set_size=SET_SIZE, seed=self.mlv_seed,
                                  bundle=(bundles or {}).get(name))
                for name in self.circuits]

    def sweep_key(self) -> str:
        from repro import OperatingProfile
        from repro.constants import years
        from repro.flow.parallel import co_optimization_sweep_key

        return co_optimization_sweep_key(
            self.circuits,
            OperatingProfile.from_ras(self.ras, t_standby=self.t_standby),
            years(self.years), n_vectors=N_VECTORS, max_set_size=SET_SIZE,
            range_fraction=0.04, seed=self.mlv_seed, n_shards=SHARDS)

    def reference(self) -> Dict[str, dict]:
        """Serial in-process rows, JSON-shaped like a shard checkpoint."""
        from repro.flow.parallel import co_optimize_circuit

        rows = {}
        for job in self.jobs():
            row = co_optimize_circuit(job)
            payload = asdict(row)
            payload["chosen_bits"] = list(row.chosen_bits)
            rows[row.name] = payload
        return rows

    def next_store(self, workdir: Path) -> Path:
        """A fresh, empty store directory for one sweep."""
        return Path(tempfile.mkdtemp(prefix="store", dir=workdir))


def _printed_rows(stdout: str) -> List[List[str]]:
    """Cells of the sweep table's body rows."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("---"))
    return [[c.strip() for c in line.split("|")] for line in lines[start + 1:]
            if "|" in line]


def _expected_cells(row: dict) -> List[str]:
    """A reference row formatted as the table prints it."""
    return [row["name"], f"{row['fresh_delay'] * 1e9:.4f}",
            f"{row['min_degradation'] * 100:.2f}%",
            f"{row['mlv_diff'] * 100:.3f}%",
            f"{row['worst_degradation'] * 100:.2f}%",
            f"{row['leakage_reduction'] * 100:.2f}%", str(row["set_size"]),
            str(row["evaluated"])]


def check(sweep: Sweep, res: common.ChildResult, store: Path,
          ref: Dict[str, dict]) -> Optional[common.Problem]:
    """Every circuit exactly once, every row equal to the reference."""
    if res.returncode != 0:
        return common.Error(f"sweep exited {res.returncode}: "
                            f"{res.stderr.strip()[-300:]}")
    from repro.artifacts import ArtifactStore

    try:
        printed = _printed_rows(res.stdout)
    except StopIteration:
        return common.Problem("no sweep table on stdout")
    names = [cells[0] for cells in printed]
    if sorted(names) != sorted(sweep.circuits) or len(set(names)) != len(names):
        return common.Problem(f"table circuits {names} != {sweep.circuits}")
    for cells in printed:
        if cells != _expected_cells(ref[cells[0]]):
            return common.Problem(f"printed row {cells} != reference "
                                  f"{_expected_cells(ref[cells[0]])}")
    key = sweep.sweep_key()
    st = ArtifactStore(store)
    seen = []
    for k in st.list_shards(key):
        for row in st.load_shard(key, k)["results"]:
            seen.append(row["name"])
            if row != ref[row["name"]]:
                return common.Problem(f"checkpointed row of {row['name']} "
                                      "differs from the serial reference")
    if sorted(seen) != sorted(sweep.circuits):
        return common.Problem(f"checkpoints cover {sorted(seen)}")
    return None


def setup(seed: int):
    common.use_program_in_process()
    sweep = Sweep(seed)
    return sweep, sweep.reference()


def one_round(sweep: Sweep, ref, workdir: Path, tally: common.Tally,
              rss: List[float]) -> float:
    store = sweep.next_store(workdir)
    res = common.run_repro(sweep.argv(store))
    rss.append(res.maxrss_mib)
    tally.record(res.wall_s, check(sweep, res, store, ref),
                 units=len(sweep.circuits))
    return res.wall_s


def run(seed: int, seconds: float, workdir: Path):
    t0 = time.perf_counter()
    sweep, ref = setup(seed)
    setup_s = time.perf_counter() - t0
    tally = common.Tally()
    rss: List[float] = []
    wall = common.run_rounds(
        seconds, lambda: one_round(sweep, ref, workdir, tally, rss))
    return tally, common.end_to_end(tally, wall, setup_s, max(rss), TAIL_P)


def plain_round_wall(seed: int, workdir: Path) -> float:
    sweep, ref = setup(seed)
    return one_round(sweep, ref, workdir, common.Tally(), [])


def probe(seed: int, workdir: Path):
    """Parent-side phases of one replayed sweep, and the serial job time.

    ``(tally, layer_metrics, traced_wall)``: the replay wraps
    ``ArtifactBundle.snapshot``, ``ArtifactStore.save_*`` and
    ``run_sharded_sweep`` (whose self time is the pool phase); the
    serial ``co_optimize_circuit`` calls run here on hydrated bundles,
    as the pool workers run them.
    """
    from repro import AnalysisContext, iscas85
    from repro.artifacts import ArtifactBundle
    from repro.flow.parallel import co_optimize_circuit

    sweep, ref = setup(seed)
    store = sweep.next_store(workdir)
    out = workdir / "replay.json"
    res = common.run_python([str(common.ROOT / "e2ebench" / "replay.py"),
                             str(out), *sweep.argv(store)])
    tally = common.Tally()
    tally.record(res.wall_s, check(sweep, res, store, ref),
                 units=len(sweep.circuits))
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    s = doc.get("self_s", {})
    bundles, hydrate_s, job_s = {}, 0.0, 0.0
    for name in sweep.circuits:
        bundles[name] = ArtifactBundle.snapshot(
            AnalysisContext(iscas85.load(name)))
        t0 = time.perf_counter()
        bundles[name].hydrate()
        hydrate_s += time.perf_counter() - t0
    for job in sweep.jobs(bundles):
        t0 = time.perf_counter()
        co_optimize_circuit(job)
        job_s += time.perf_counter() - t0
    pool_s = s.get("flow.pool_phase", 0.0)
    m = common.metric
    layers = {
        "artifacts.bundle_build_s": m(s.get("artifacts.bundle_build", 0.0),
                                      "s"),
        "artifacts.store_write_s": m(s.get("artifacts.store_write", 0.0),
                                     "s"),
        "artifacts.hydrate_s": m(hydrate_s, "s"),
        "flow.job_s": m(job_s, "s"),
        "flow.pool_phase_s": m(pool_s, "s"),
        "flow.pool_efficiency": m(job_s / (pool_s * WORKERS)
                                  if pool_s else 0.0, "ratio"),
    }
    common.log("sweep layer split: " + json.dumps(
        {k: round(v, 4) for k, v in sorted(s.items())})
        + f" wall={res.wall_s:.4f}")
    return tally, layers, res.wall_s
