"""Shared plumbing of the end-to-end benchmark.

Everything here acts from outside the program: it locates the checkout's
``src/`` tree, starts fresh ``python -m repro`` interpreters against it,
times them, reads their peak memory, and turns samples into metrics.
Nothing in this package imports a private name of ``repro``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

#: Root of the checkout: the directory holding ``e2ebench/`` and ``src/``.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Everything a run writes lives under here (gitignored); a run's own
#: files sit in a per-run subdirectory that is removed when it ends.
WORK = ROOT / ".e2ebench"
#: Bytecode cache of the benchmarked interpreters, kept out of ``src/``.
PYCACHE = WORK / "pycache"

#: ISCAS85 profile circuits, smallest first.
ISCAS85 = ("c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540",
           "c5315", "c6288", "c7552")

#: Closed-loop concurrency: never more clients or workers than cores.
CONCURRENCY = max(1, min(2, os.cpu_count() or 1))

T = TypeVar("T")

#: A benchmarked interpreter still running after this long is killed.
CHILD_TIMEOUT_S = 120.0

#: Set-ups per run of the workloads whose ``setup_s`` is a median.
SETUPS = 3


class BenchError(Exception):
    """The benchmark cannot run here (not a failed operation)."""


def require_program() -> None:
    """Fail unless the checkout holds the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run from a "
                         "checkout that holds src/repro")


def use_program_in_process() -> None:
    """Import ``repro`` from this checkout, caching bytecode in WORK."""
    require_program()
    PYCACHE.mkdir(parents=True, exist_ok=True)
    sys.pycache_prefix = str(PYCACHE)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def child_env() -> Dict[str, str]:
    """Environment of a benchmarked interpreter: this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class RunDir:
    """A per-run scratch directory under WORK, removed on exit."""

    def __init__(self, tag: str):
        WORK.mkdir(parents=True, exist_ok=True)
        self.path = WORK / f"{tag}-{os.getpid()}-{time.time_ns()}"

    def __enter__(self) -> Path:
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class ChildResult:
    """One finished child interpreter."""

    returncode: int
    wall_s: float
    stdout: str
    stderr: str
    maxrss_mib: float


def _reap(pid: int):
    """``os.wait4`` retried over signals: ``(status, rusage)``."""
    while True:
        try:
            _, status, usage = os.wait4(pid, 0)
            return status, usage
        except InterruptedError:
            continue


def run_python(args: Sequence[str]) -> ChildResult:
    """Run ``python <args>`` against the checkout and time it end to end.

    Wall time runs from just before the process is created until it has
    been reaped, so interpreter start, imports, work and output are all
    inside it.  The child is reaped with ``wait4``, whose rusage gives its
    own peak RSS (including any workers it waited for).  A child still
    running after ``CHILD_TIMEOUT_S`` is killed.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="io", dir=WORK) as scratch:
        out_path = Path(scratch) / "stdout"
        err_path = Path(scratch) / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL,
                                    env=child_env(), cwd=ROOT)
            killer = threading.Timer(CHILD_TIMEOUT_S, _kill_quietly,
                                     (proc.pid,))
            killer.start()
            try:
                status, usage = _reap(proc.pid)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildResult(returncode=proc.returncode, wall_s=wall,
                           stdout=out_path.read_text(encoding="utf-8"),
                           stderr=err_path.read_text(encoding="utf-8"),
                           maxrss_mib=usage.ru_maxrss / 1024.0)


def run_repro(args: Sequence[str]) -> ChildResult:
    """``python -m repro <args>`` in a fresh interpreter."""
    return run_python(["-m", "repro", *args])


def _kill_quietly(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def warm_bytecode() -> None:
    """Compile the program's modules into PYCACHE once (not timed).

    A user's installed package already has its bytecode; compiling it on
    the first import of a run would charge every run a one-off cost.
    """
    res = run_python(["-c", "import repro.cli, repro.serve, "
                            "repro.flow.parallel, repro.variation, "
                            "repro.sleep, repro.ivc"])
    if res.returncode != 0:
        raise BenchError(f"cannot import repro: {res.stderr.strip()}")


def self_peak_rss_mib() -> float:
    """Peak RSS of this process (the in-process study workload)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0..100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def run_rounds(seconds: float, one_round: Callable[[], float],
               min_rounds: int = 1) -> float:
    """Run whole rounds until their timed seconds reach ``seconds`` (and
    at least ``min_rounds`` rounds have run); the timed wall.

    ``one_round`` returns the seconds the program worked in it, leaving
    out the benchmark's own checks; the total of those is the timed wall.
    Every run attempts whole rounds of the same operations, so the share
    of any failing operation is the same in every run.
    """
    timed = 0.0
    rounds = 0
    while timed < seconds or rounds < min_rounds:
        timed += one_round()
        rounds += 1
    return timed


def median_setup(set_up: Callable[[], T],
                 tear_down: Optional[Callable[[T], None]] = None
                 ) -> Tuple[T, float]:
    """Set up SETUPS times: ``(last set-up, median seconds)``.

    One set-up of a second or a few is too noisy a figure on a shared
    machine; the median of several is steady.  Each set-up but the last
    is torn down (untimed) before the next starts.
    """
    seconds = []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        made = set_up()
        seconds.append(time.perf_counter() - t0)
        if k < SETUPS - 1 and tear_down is not None:
            tear_down(made)
    return made, median(seconds)


@dataclass
class Tally:
    """Operations of one run: latencies, failures and what went wrong."""

    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: List[str] = field(default_factory=list)
    work_units: int = 0

    def record(self, latency: float, problem: Optional["Problem"],
               units: int = 1) -> None:
        """One attempted operation; ``problem`` is ``None`` when it
        completed and its output passed every check."""
        self.attempted += 1
        if problem is None:
            self.latencies.append(latency)
            self.work_units += units
            return
        self.failed += 1
        self.wrong += problem.wrong
        if len(self.problems) < 20:
            self.problems.append(str(problem))

    def merge(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.problems += other.problems[:20 - len(self.problems)]
        self.work_units += other.work_units


class Problem(str):
    """Why an operation failed.  ``wrong`` marks an output that came back
    but failed a correctness check (as opposed to an error)."""

    wrong = True


class Error(Problem):
    """The operation itself failed: non-zero exit, HTTP error, raise."""

    wrong = False


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(tally: Tally, wall_s: float, setup_s: float,
               peak_rss_mib: float, tail_p: float) -> Dict[str, object]:
    """The end-to-end metric block every workload reports.

    ``tail_p`` is the workload's fixed tail percentile (100 = slowest).
    """
    if not tally.latencies:
        raise BenchError("no operation succeeded; first failure: "
                         + (tally.problems[0] if tally.problems else "?"))
    return {
        "setup_s": metric(setup_s, "s"),
        "latency_p50_s": metric(median(tally.latencies), "s"),
        "latency_tail_s": metric(percentile(tally.latencies, tail_p), "s"),
        "throughput_per_s": metric(tally.work_units / wall_s, "1/s"),
        "peak_rss_mib": metric(peak_rss_mib, "MiB"),
    }


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, object]) -> None:
    """The result line: the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()


def log(msg: str) -> None:
    """Progress notes go to stderr; stdout carries only the result."""
    print(f"[e2ebench] {msg}", file=sys.stderr, flush=True)
