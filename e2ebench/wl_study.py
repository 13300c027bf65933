"""Workload ``study``: the paper's analyses over ISCAS85, in one interpreter.

Each pass builds one fresh ``AnalysisPlatform`` (and so one fresh
``AnalysisContext``) per circuit and runs, as one operation each:

* MLV search + NBTI-aware selection (Table 3);
* the RAS x T_standby aged-delay grid (Table 1, Figs. 3-4);
* the worst/best potential sweep (Table 4);
* ``statistical_aging`` at fresh and 3 years (Fig. 12);
* the sleep-transistor gated series (Fig. 11);
* greedy control points on every circuit, and ``size_for_aging`` and
  ``assign_dual_vth`` on the circuits where they finish in about a
  second (see SIZING / DUAL_VTH).

The compiled kernels and the context memo do almost all the work; the
import, store and process layers do none.  Set-up imports the package
and runs an untimed-in-latency warm-up pass on c432.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common
from spans import NullTracer, Tracer

RAS = ("9:1", "5:1", "1:1", "1:5", "1:9")
T_STANDBY = (330.0, 350.0, 370.0, 400.0)
SIZING = ("c432", "c499", "c880", "c1355", "c1908", "c2670")
DUAL_VTH = ("c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540",
            "c5315", "c6288")
#: Circuits small enough for the benchmark's own scalar longest-path walk.
WALKED = ("c432", "c499", "c880")
#: The Fig. 12 circuit, where the paper states aged mu-3s > fresh mu+3s.
FIG12 = "c880"
N_DIES = 100
#: A pass has 75 operations; p85 leaves at least ten beyond it.
TAIL_P = 85.0
#: Around the median of one pass, neighbouring latencies differ by 5-10 %,
#: so a one-pass median moved by 17 % (quartile spread) over ten seeds; a
#: run has at least two passes, two samples of every operation.
MIN_PASSES = 2


# -- references computed apart from the program -------------------------------


def _phases(truth: Dict[Tuple[int, ...], int], n_in: int) -> set:
    """Output-vs-input edge relations of a cell, from its truth table:
    ``{"same"}`` (positive unate), ``{"opposite"}`` (negative unate), or
    both (binate, e.g. XOR)."""
    found = set()
    for bits, out in truth.items():
        for i in range(n_in):
            if bits[i] == 0:
                up = truth[bits[:i] + (1,) + bits[i + 1:]]
                if up != out:
                    found.add("same" if up > out else "opposite")
    return found


def longest_path_delay(ctx) -> float:
    """Fresh circuit delay by a plain rise/fall longest-path walk.

    Uses only ``Cell.delay`` at 300 K and the context's gate loads; the
    edge relation of each cell comes from its truth table.
    """
    circuit, library = ctx.circuit, ctx.library
    tech = library.tech
    loads = ctx.gate_loads()
    arrival = {pi: {"rise": 0.0, "fall": 0.0}
               for pi in circuit.primary_inputs}
    phase_of: Dict[str, set] = {}
    for name in circuit.topological_order():
        gate = circuit.gates[name]
        cell = library.get(gate.cell)
        if gate.cell not in phase_of:
            phase_of[gate.cell] = _phases(ctx.truth_table(gate.cell),
                                          len(gate.inputs))
        phases = phase_of[gate.cell]
        arrival[name] = {}
        for edge in ("rise", "fall"):
            other = "fall" if edge == "rise" else "rise"
            srcs = []
            if "same" in phases:
                srcs.append(edge)
            if "opposite" in phases:
                srcs.append(other)
            latest = max(arrival[net][e] for net in gate.inputs for e in srcs)
            arrival[name][edge] = latest + cell.delay(tech, loads[name], edge)
    return max(arrival[po][e] for po in circuit.primary_outputs
               for e in ("rise", "fall"))


# -- the analyses ---------------------------------------------------------------


class Study:
    """One seeded study: scenarios, pass order, and the checks."""

    def __init__(self, seed: int):
        from repro import OperatingProfile
        from repro.constants import TEN_YEARS

        rng = random.Random(f"study-{seed}")
        self.lifetime = TEN_YEARS
        self.mlv_seed = rng.randrange(1000)
        self.stat_seed = rng.randrange(1000)
        self.beta = rng.choice((0.05, 0.03, 0.01))
        # Table 3's scenario for every seed: the sizing and dual-Vth work
        # grows with the degradation, so a seeded scenario would change
        # how much work a pass does.
        self.profile = OperatingProfile.from_ras("1:5", t_standby=330.0)
        self.hot = OperatingProfile.from_ras("1:9", t_standby=400.0)
        self.order_rng = random.Random(f"study-order-{seed}")
        #: MLV candidate vectors evaluated since construction.
        self.evaluated = 0

    def ops_for(self, name: str) -> List[str]:
        ops = ["mlv", "grid", "potential", "statistical", "sleep",
               "control_points"]
        if name in SIZING:
            ops.append("sizing")
        if name in DUAL_VTH:
            ops.append("dual_vth")
        return ops

    def run_op(self, op: str, circuit, platform, tracer) -> Tuple[float, object]:
        """Run one analysis; ``(seconds, output)``."""
        from repro import OperatingProfile
        from repro.constants import years
        from repro.flow import assign_dual_vth, size_for_aging
        from repro.ivc import (greedy_control_points, potential_sweep,
                               probability_based_mlv_search,
                               select_mlv_for_nbti)
        from repro.sleep import (SleepStyle, design_sleep_transistor,
                                 gated_lifetime_series)
        from repro.variation import VariationModel, statistical_aging

        ctx = platform.context_for(circuit)
        t0 = time.perf_counter()
        if op == "mlv":
            with tracer.span("leakage.table_build"):
                table = ctx.leakage_table
            with tracer.span("ivc.mlv_search"):
                search = probability_based_mlv_search(
                    circuit, table, n_vectors=48, max_set_size=6,
                    seed=self.mlv_seed, library=platform.library,
                    context=ctx)
            with tracer.span("ivc.nbti_select"):
                selection = select_mlv_for_nbti(
                    circuit, search, self.profile, self.lifetime,
                    platform.analyzer, context=ctx)
            self.evaluated += search.evaluated
            out = (search, selection)
        elif op == "grid":
            with tracer.span("sta.grid"):
                out = {(ras, tst): ctx.aged_delays(
                    OperatingProfile.from_ras(ras, t_standby=tst),
                    self.lifetime)
                    for ras in RAS for tst in T_STANDBY}
        elif op == "potential":
            with tracer.span("ivc.potential"):
                out = potential_sweep(circuit, T_STANDBY, ras="1:9",
                                      t_total=self.lifetime, context=ctx)
        elif op == "statistical":
            with tracer.span("variation.statistical"):
                out = statistical_aging(
                    circuit, self.hot, times=(0.0, years(3.0)),
                    n_samples=N_DIES,
                    variation=VariationModel(sigma_local=0.010),
                    seed=self.stat_seed, context=ctx)
        elif op == "sleep":
            with tracer.span("sleep.gated_series"):
                design = design_sleep_transistor(
                    circuit, SleepStyle.HEADER, self.beta, context=ctx)
                out = gated_lifetime_series(circuit, design, self.profile,
                                            (0.0, self.lifetime),
                                            context=ctx)
        elif op == "control_points":
            with tracer.span("ivc.control_points"):
                out = greedy_control_points(circuit, self.hot,
                                            self.lifetime, max_points=4)
        elif op == "sizing":
            with tracer.span("flow.sizing"):
                out = size_for_aging(circuit, self.profile, self.lifetime,
                                     context=ctx)
        elif op == "dual_vth":
            with tracer.span("flow.dual_vth"):
                out = assign_dual_vth(circuit, timing_budget=0.05,
                                      profile=self.profile, context=ctx)
        else:
            raise ValueError(op)
        return time.perf_counter() - t0, out

    def check(self, op: str, name: str, circuit, platform,
              out) -> Optional[str]:
        """The property each analysis must have (``None`` when it holds)."""
        if op == "mlv":
            return self._check_mlv(circuit, platform, *out)
        if op == "grid":
            return self._check_grid(name, circuit, platform, out)
        if op == "potential":
            worst = [r.worst_degradation for r in out]
            best = [r.best_degradation for r in out]
            pots = [r.potential for r in out]
            if any(w < b for w, b in zip(worst, best)):
                return f"{name}: worst < best degradation {worst} {best}"
            if any(b <= a for a, b in zip(pots, pots[1:])):
                return f"{name}: potential not rising with T_standby {pots}"
            return None
        if op == "statistical":
            mean = out.mean()
            if not mean[1] > mean[0]:
                return f"{name}: aged mean delay {mean[1]} <= fresh {mean[0]}"
            if name == FIG12 and not (out.lower_3sigma()[1]
                                      > out.upper_3sigma()[0]):
                return f"{name}: aged mu-3s does not clear fresh mu+3s"
            return None
        if op == "sleep":
            t0, t_end = out
            fresh = platform.context_for(circuit).fresh_delay()
            if not fresh < t0.circuit_delay < t_end.circuit_delay:
                return (f"{name}: gated delays {t0.circuit_delay} -> "
                        f"{t_end.circuit_delay} vs fresh {fresh}")
            return None
        if op == "control_points":
            if out.achieved_degradation < out.best_bound - 1e-12:
                return f"{name}: control points beat the Table 4 bound"
            return None
        if op == "sizing":
            if not (out.met and out.achieved_delay
                    <= out.target_delay * (1 + 1e-12)):
                return (f"{name}: sized aged delay {out.achieved_delay} "
                        f"misses target {out.target_delay}")
            return None
        if op == "dual_vth":
            if not (out.leakage_factor < 1.0 and out.aged_delay_dual
                    / out.fresh_delay_dual <= out.aged_delay_lvt
                    / out.fresh_delay_lvt + 1e-12):
                return f"{name}: dual-Vth did not cut leakage and aging"
            return None
        raise ValueError(op)

    def _check_mlv(self, circuit, platform, search, selection):
        from repro import AnalysisContext
        from repro.sim.vectors import bits_to_vector

        chosen = selection.chosen
        fresh_ctx = AnalysisContext(circuit, library=platform.library)
        leak = fresh_ctx.leakage_for_vector(bits_to_vector(circuit,
                                                           chosen.bits))
        expected = platform.context_for(circuit).expected_leakage()
        if leak != chosen.leakage:
            return (f"{circuit.name}: MLV leakage {chosen.leakage} != "
                    f"recomputed {leak}")
        if leak > expected:
            return f"{circuit.name}: MLV leakage {leak} > expected {expected}"
        return None

    def _check_grid(self, name, circuit, platform, grid):
        shares = RAS  # ascending standby share
        for (ras, tst), r in grid.items():
            if not r.aged_delay >= r.fresh_delay > 0.0:
                return f"{name}: aged < fresh at RAS {ras}, {tst} K"
        hot = [grid[(r, 400.0)].relative_degradation for r in shares]
        cold = [grid[(r, 330.0)].relative_degradation for r in shares]
        if any(b <= a for a, b in zip(hot, hot[1:])):
            return f"{name}: aging at 400 K not rising with standby {hot}"
        if any(b >= a for a, b in zip(cold, cold[1:])):
            return f"{name}: aging at 330 K not falling with standby {cold}"
        if name in WALKED:
            fresh = next(iter(grid.values())).fresh_delay
            walked = longest_path_delay(platform.context_for(circuit))
            if abs(fresh - walked) > 1e-9 * walked:
                return f"{name}: fresh delay {fresh} != walked {walked}"
        return None

    def one_pass(self, circuits: Dict[str, object], tally: common.Tally,
                 tracer=None) -> Tuple[Dict[str, object], float]:
        """Every analysis on every circuit once.

        Returns the contexts' stats and the pass's seconds without the
        checks, which are the benchmark's work, not the program's.
        """
        from repro import AnalysisPlatform

        tracer = tracer or NullTracer()
        names = list(circuits)
        self.order_rng.shuffle(names)
        stats = {}
        checking = 0.0
        t0 = time.perf_counter()
        for name in names:
            circuit = circuits[name]
            platform = AnalysisPlatform()
            for op in self.ops_for(name):
                seconds, out = self.run_op(op, circuit, platform, tracer)
                c0 = time.perf_counter()
                problem = self.check(op, name, circuit, platform, out)
                tally.record(seconds, None if problem is None
                             else common.Problem(problem))
                checking += time.perf_counter() - c0
            stats[name] = platform.context_for(circuit).stats
        return stats, time.perf_counter() - t0 - checking


def load_suite() -> Dict[str, object]:
    from repro import iscas85

    return {name: iscas85.load(name) for name in common.ISCAS85}


def setup(seed: int):
    """Import, load the suite, warm up on c432: ``(study, circuits)``."""
    common.use_program_in_process()
    study = Study(seed)
    circuits = load_suite()
    study.one_pass({"c432": circuits["c432"]}, common.Tally())
    return study, circuits


def run(seed: int, seconds: float, workdir: Path):
    t0 = time.perf_counter()
    study, circuits = setup(seed)
    setup_s = time.perf_counter() - t0
    tally = common.Tally()
    wall = common.run_rounds(
        seconds, lambda: study.one_pass(circuits, tally)[1], MIN_PASSES)
    return tally, common.end_to_end(tally, wall, setup_s,
                                    common.self_peak_rss_mib(), TAIL_P)


def plain_round_wall(seed: int, workdir: Path) -> float:
    study, circuits = setup(seed)
    return study.one_pass(circuits, common.Tally())[1]


def probe(seed: int, workdir: Path):
    """One traced pass: ``(tally, layer_metrics, traced_wall)``."""
    study, circuits = setup(seed)
    study.evaluated = 0
    tracer = Tracer()
    tally = common.Tally()
    stats, wall = study.one_pass(circuits, tally, tracer)
    hits = sum(s.hits() for s in stats.values())
    misses = sum(s.misses() for s in stats.values())
    s = tracer.self_s
    m = common.metric
    grid_points = len(RAS) * len(T_STANDBY) * len(circuits)
    evaluated = study.evaluated
    dies = N_DIES * 2 * len(circuits)
    layers = {
        "sta.grid_s": m(s["sta.grid"], "s"),
        "sta.grid_points_per_s": m(grid_points / s["sta.grid"], "1/s"),
        "ivc.mlv_search_s": m(s["ivc.mlv_search"], "s"),
        "ivc.vectors_evaluated": m(evaluated, "count"),
        "ivc.vectors_per_s": m(evaluated / s["ivc.mlv_search"], "1/s"),
        "ivc.nbti_select_s": m(s["ivc.nbti_select"], "s"),
        "ivc.potential_s": m(s["ivc.potential"], "s"),
        "ivc.control_points_s": m(s["ivc.control_points"], "s"),
        "leakage.table_build_s": m(s["leakage.table_build"], "s"),
        "variation.statistical_s": m(s["variation.statistical"], "s"),
        "variation.dies_per_s": m(dies / s["variation.statistical"], "1/s"),
        "sleep.gated_series_s": m(s["sleep.gated_series"], "s"),
        "flow.sizing_s": m(s["flow.sizing"], "s"),
        "flow.dual_vth_s": m(s["flow.dual_vth"], "s"),
        "context.hit_ratio": m(hits / max(1, hits + misses), "ratio"),
    }
    return tally, layers, wall
