"""Workload ``serve``: closed-loop clients against a ``repro serve`` child.

Set-up warms every ISCAS85 bundle into a fresh store (``repro cache
warm``), starts ``repro serve --workers 2`` on it, and answers each
scenario of a seeded repeat pool once, so that those answers are cached.
Then ``CONCURRENCY`` clients, each on its own keep-alive connection, work
through rounds of 33 requests: 23 repeat a pooled scenario (answered
from the result cache), the other 10 ask a (circuit, RAS, T_standby,
years, standby) scenario never asked before (answered by a worker job).  Each request is
submit -> poll status -> result.  The shares stay well away from 50/50 so
that the median sits inside the cached cluster and the tail inside the
worker cluster.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common

#: One round: every pooled scenario twice plus three seeded repeats
#: (23 of 33, 70 %), and one never-asked scenario per circuit (30 %).
#: Pool and new requests cover every circuit equally, so each round asks
#: for the same work whatever the seed.
REPEATS_EXTRA = 3
POLL_S = 0.005
JOB_TIMEOUT_S = 60.0
RAS = ("9:1", "5:1", "3:1", "1:1", "1:3", "1:5", "1:9")
T_STANDBY = tuple(float(t) for t in range(300, 401, 5))
YEARS = tuple(y / 2 for y in range(2, 21))
#: A run sends well over 100 requests, so p90 leaves more than ten beyond
#: it and falls inside the worker-job cluster (the slowest 30 %).
TAIL_P = 90.0


@dataclass(frozen=True)
class Scenario:
    circuit: str
    ras: str
    t_standby: float
    years: float
    standby: str

    def body(self) -> dict:
        return {"circuit": self.circuit,
                "scenario": {"ras": self.ras, "t_active": 400.0,
                             "t_standby": self.t_standby,
                             "years": self.years, "standby": self.standby}}


@dataclass
class Answer:
    scenario: Scenario
    repeat: bool
    wall_s: float
    submit_s: float = 0.0
    result_s: float = 0.0
    state: str = ""
    cached: bool = False
    numbers: Optional[dict] = None
    error: Optional[str] = None


@dataclass
class Server:
    proc: subprocess.Popen
    url: Tuple[str, int]
    log: Path
    closed: bool = field(default=False)

    def peak_rss_mib(self) -> float:
        """VmHWM of the server process (its own peak RSS)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise common.BenchError("no VmHWM for the server process")

    def metrics(self) -> dict:
        conn = http.client.HTTPConnection(*self.url, timeout=30)
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        """SIGTERM (graceful drain), then kill the whole process group."""
        if self.closed:
            return
        self.closed = True
        try:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        finally:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()


def start_server(workdir: Path) -> Server:
    store = workdir / "store"
    warm = common.run_repro(["cache", "warm", *common.ISCAS85,
                             "--store", str(store)])
    if warm.returncode != 0:
        raise common.BenchError(f"cache warm failed: {warm.stderr.strip()}")
    ready = workdir / "ready.json"
    log = workdir / "server.log"
    with open(log, "wb") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store),
             "--workers", str(common.CONCURRENCY), "--port", "0",
             "--ready-file", str(ready)],
            stdin=subprocess.DEVNULL, stdout=fh, stderr=fh,
            env=common.child_env(), cwd=common.ROOT, start_new_session=True)
    server = Server(proc=proc, url=("127.0.0.1", 0), log=log)
    deadline = time.monotonic() + 60
    while not ready.exists() or not ready.read_text().endswith("\n"):
        if proc.poll() is not None or time.monotonic() > deadline:
            server.close()
            raise common.BenchError("server did not become ready: "
                                    + log.read_text()[-500:])
        time.sleep(0.01)
    server.url = ("127.0.0.1", json.loads(ready.read_text())["port"])
    return server


class Client:
    """One closed-loop client on one keep-alive connection."""

    def __init__(self, url: Tuple[str, int]):
        self.conn = http.client.HTTPConnection(*url, timeout=60)

    def _call(self, method: str, path: str, body=None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        self.conn.request(method, path, body=data, headers=headers)
        resp = self.conn.getresponse()
        return resp.status, json.loads(resp.read())

    def ask(self, scenario: Scenario, repeat: bool) -> Answer:
        t0 = time.perf_counter()
        status, doc = self._call("POST", "/submit", scenario.body())
        t1 = time.perf_counter()
        ans = Answer(scenario, repeat, 0.0, submit_s=t1 - t0)
        if status not in (200, 202):
            ans.error = f"submit {status}: {doc}"
            ans.wall_s = time.perf_counter() - t0
            return ans
        job, state = doc["job_id"], doc["state"]
        ans.cached = bool(doc.get("cached"))
        deadline = t1 + JOB_TIMEOUT_S
        while state not in ("done", "failed"):
            if time.perf_counter() > deadline:
                ans.error = f"job {job} still {state!r} after {JOB_TIMEOUT_S} s"
                ans.wall_s = time.perf_counter() - t0
                return ans
            time.sleep(POLL_S)
            status, doc = self._call("GET", f"/status/{job}")
            state = doc.get("state", "?")
        t2 = time.perf_counter()
        status, doc = self._call("GET", f"/result/{job}")
        t3 = time.perf_counter()
        ans.wall_s, ans.result_s, ans.state = t3 - t0, t3 - t2, state
        if status == 200:
            ans.numbers = doc["numbers"]
        else:
            ans.error = f"result {status}: {doc.get('error')}"
        return ans

    def close(self) -> None:
        self.conn.close()


class Traffic:
    """The seeded request mix."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"serve-{seed}")
        self.used = set()
        self.pool = [self._fresh(name) for name in common.ISCAS85]

    def _fresh(self, circuit: str) -> Scenario:
        while True:
            s = Scenario(circuit, self.rng.choice(RAS),
                         self.rng.choice(T_STANDBY), self.rng.choice(YEARS),
                         self.rng.choice(("worst", "best")))
            if s not in self.used:
                self.used.add(s)
                return s

    def round(self) -> List[Tuple[Scenario, bool]]:
        repeats = self.pool * 2 + self.rng.sample(self.pool, REPEATS_EXTRA)
        reqs = [(s, True) for s in repeats]
        reqs += [(self._fresh(name), False) for name in common.ISCAS85]
        self.rng.shuffle(reqs)
        return reqs


def run_requests(clients: List[Client], reqs) -> Tuple[List[Answer], float]:
    """Closed loop: each client takes the next request when it is free."""
    answers: List[Answer] = []
    lock = threading.Lock()
    queue = list(reversed(reqs))
    errors: List[Exception] = []

    def work(client: Client) -> None:
        try:
            while True:
                with lock:
                    if not queue:
                        return
                    scenario, repeat = queue.pop()
                ans = client.ask(scenario, repeat)
                with lock:
                    answers.append(ans)
        except Exception as exc:  # surfaced below, after join
            errors.append(exc)

    t0 = time.perf_counter()
    threads = [threading.Thread(target=work, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise common.BenchError(f"client failed: {errors[0]!r}")
    return answers, wall


class Reference:
    """The client's own in-process answer to each scenario."""

    def __init__(self):
        common.use_program_in_process()
        self.contexts: Dict[str, object] = {}

    def numbers(self, s: Scenario) -> dict:
        from repro import ALL_ONE, ALL_ZERO, AnalysisContext, OperatingProfile
        from repro import iscas85
        from repro.constants import years

        ctx = self.contexts.get(s.circuit)
        if ctx is None:
            ctx = self.contexts[s.circuit] = AnalysisContext(
                iscas85.load(s.circuit))
        res = ctx.aged_delays(
            OperatingProfile.from_ras(s.ras, t_active=400.0,
                                      t_standby=s.t_standby),
            years(s.years),
            standby=ALL_ZERO if s.standby == "worst" else ALL_ONE)
        return {"fresh_delay": res.fresh_delay, "aged_delay": res.aged_delay,
                "degradation": res.relative_degradation,
                "max_shift": res.max_shift}

    def check(self, ans: Answer) -> Optional[common.Problem]:
        if ans.error is not None or ans.state != "done":
            return common.Error(ans.error or f"job ended {ans.state}")
        if ans.cached != ans.repeat:
            return common.Problem(f"{ans.scenario}: cached={ans.cached} "
                                  f"for repeat={ans.repeat}")
        if ans.numbers != self.numbers(ans.scenario):
            return common.Problem(f"{ans.scenario}: served {ans.numbers} != "
                                  f"{self.numbers(ans.scenario)}")
        return None


def counter(doc: dict, name: str) -> int:
    entry = doc.get("metrics", {}).get(name)
    return int(sum(entry["values"].values())) if entry else 0


def setup(seed: int, workdir: Path):
    """Warm the store, start the server, cache the repeat pool."""
    workdir = Path(tempfile.mkdtemp(prefix="serve", dir=workdir))
    traffic = Traffic(seed)
    server = start_server(workdir)
    clients = [Client(server.url) for _ in range(common.CONCURRENCY)]
    try:
        answers, _ = run_requests(clients,
                                  [(s, False) for s in traffic.pool])
        bad = [a for a in answers if a.state != "done" or a.error]
        if bad:
            raise common.BenchError(f"priming failed: {bad[0]}")
    except BaseException:
        finish(server, clients)
        raise
    return traffic, server, clients


def finish(server: Server, clients: List[Client]) -> None:
    for c in clients:
        c.close()
    server.close()


def judge(answers: List[Answer], server: Server, ref: Reference,
          cached_before: int, tally: common.Tally) -> dict:
    """Check every answer and the cache-answer counter; ``/metrics``."""
    for ans in answers:
        tally.record(ans.wall_s, ref.check(ans))
    doc = server.metrics()
    repeats = sum(a.repeat for a in answers)
    got = counter(doc, "serve.cache_answers") - cached_before
    if got != repeats:
        tally.wrong += 1
        tally.problems.append(f"serve.cache_answers rose by {got}, "
                              f"{repeats} repeat requests were sent")
    return doc


def run(seed: int, seconds: float, workdir: Path):
    ref = Reference()
    (traffic, server, clients), setup_s = common.median_setup(
        lambda: setup(seed, workdir), lambda made: finish(*made[1:]))
    try:
        before = counter(server.metrics(), "serve.cache_answers")
        answers: List[Answer] = []

        def one_round() -> float:
            got, wall = run_requests(clients, traffic.round())
            answers.extend(got)
            return wall

        wall = common.run_rounds(seconds, one_round)
        rss = server.peak_rss_mib()
        tally = common.Tally()
        judge(answers, server, ref, before, tally)
    finally:
        finish(server, clients)
    return tally, common.end_to_end(tally, wall, setup_s, rss, TAIL_P)


def plain_round_wall(seed: int, workdir: Path) -> float:
    traffic, server, clients = setup(seed, workdir)
    try:
        return run_requests(clients, traffic.round())[1]
    finally:
        finish(server, clients)


def probe(seed: int, workdir: Path):
    """One round with its HTTP calls split out, plus ``/metrics`` counts."""
    ref = Reference()
    traffic, server, clients = setup(seed, workdir)
    try:
        doc0 = server.metrics()
        answers, wall = run_requests(clients, traffic.round())
        tally = common.Tally()
        doc = judge(answers, server, ref,
                    counter(doc0, "serve.cache_answers"), tally)
    finally:
        finish(server, clients)
    med = common.median
    m = common.metric
    cached = [a.wall_s for a in answers if a.repeat]
    jobs = [a.wall_s for a in answers if not a.repeat]
    layers = {
        "serve.submit_rtt_s": m(med([a.submit_s for a in answers]), "s"),
        "serve.result_rtt_s": m(med([a.result_s for a in answers]), "s"),
        "serve.cached_answer_s": m(med(cached), "s"),
        "serve.job_answer_s": m(med(jobs), "s"),
        "serve.worker_jobs": m(counter(doc, "serve.workers_spawned")
                               - counter(doc0, "serve.workers_spawned"),
                               "count"),
        "serve.cache_answers": m(counter(doc, "serve.cache_answers")
                                 - counter(doc0, "serve.cache_answers"),
                                 "count"),
    }
    return tally, layers, wall
