"""Traced replay of one ``repro`` command in a fresh interpreter.

Usage: ``python e2ebench/replay.py OUT.json ARG...`` with the checkout's
``src`` on ``PYTHONPATH``.  It imports ``repro.cli`` under a span, wraps
the public functions each layer exposes with benchmark-side timers, runs
``repro.cli.main(ARGS)`` -- the same code path as ``python -m repro
ARGS`` -- and writes the self time per layer to ``OUT.json``.  The
parent subtracts these from the replay's wall time; what is left is
interpreter start-up, argument parsing and rendering.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402


def _wrap_layers(tracer: Tracer) -> None:
    import repro.cli
    import repro.flow
    import repro.flow.parallel
    import repro.sleep
    from repro.artifacts import ArtifactBundle, ArtifactStore
    from repro.context import AnalysisContext
    from repro.sta import AgingAnalyzer

    resolve = repro.cli.resolve_circuit

    def resolve_circuit(name):
        layer = "netlist.parse" if name.endswith(".bench") else "netlist.load"
        with tracer.span(layer):
            return resolve(name)

    repro.cli.resolve_circuit = resolve_circuit
    tracer.wrap(repro.flow.parallel, "load_circuit", "netlist.load")
    tracer.wrap(AnalysisContext, "compiled_timing", "sta.lower")
    tracer.wrap(AnalysisContext, "aged_delays", "sta.aged_delays")
    tracer.wrap(AgingAnalyzer, "aged_timing", "sta.aged_timing")
    for name in ("has_bundle", "load_bundle", "has_result", "load_result"):
        tracer.wrap(ArtifactStore, name, "artifacts.store_read")
    for name in ("save_bundle", "save_result", "save_shard", "save_run"):
        tracer.wrap(ArtifactStore, name, "artifacts.store_write")
    tracer.wrap(ArtifactBundle, "snapshot", "artifacts.bundle_build")
    tracer.wrap(ArtifactBundle, "seed", "artifacts.hydrate")
    tracer.wrap(repro.flow.AnalysisPlatform, "co_optimize", "ivc.co_optimize")
    tracer.wrap(repro.sleep, "design_sleep_transistor", "sleep.design")
    tracer.wrap(repro.sleep, "gated_lifetime_series", "sleep.gated_series")
    tracer.wrap(repro.flow.parallel, "run_sharded_sweep", "flow.pool_phase")


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import repro.cli
    _wrap_layers(tracer)
    from repro.artifacts import ArtifactStore

    stores = []
    init = ArtifactStore.__init__

    def store_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stores.append(self)

    ArtifactStore.__init__ = store_init
    code = repro.cli.main(argv)
    sys.stdout.flush()
    hits = sum(s.stats.hits() for s in stores)
    misses = sum(s.stats.misses() for s in stores)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"code": code, "self_s": dict(tracer.self_s),
                   "calls": dict(tracer.calls),
                   "store_hits": hits, "store_misses": misses,
                   "inner_s": time.perf_counter() - T_START}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
