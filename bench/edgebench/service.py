"""``service-burst``: the study pipeline behind the HTTP control plane.

A :class:`ServerThread` (``max_active=2``, ``run_workers=1``) serves two
closed-loop client threads.  A repetition hands them a batch of distinct
30-day study submissions (the seed changes, so no POST is an idempotent
registry hit); each client POSTs, polls to ``done``, fetches the results
document and one figure, then takes the next submission.  The repetition
ends with sequential status polls against the now idle server.

This is the same ``execute_study`` as the study workloads, used
differently: many short concurrent runs on threads, registry
persistence, canonical digests and figure reports — the per-run fixed
costs that a long run hides.
"""

from __future__ import annotations

import queue
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from edgebench.harness import Check, Rep, Workload
from edgebench.spans import Tracer
from repro.core.parallel import execute_study
from repro.service import ClientError, ServerThread, ServiceClient
from repro.service.configs import build_config
from repro.service.results import results_payload, study_digest

_CLIENTS = 2
_POLL_INTERVAL = 0.05
_FIGURE = "fig02"


@dataclass
class ServiceContext:
    scratch: Path
    thread: ServerThread
    port: int
    next_seed: int
    #: (study seed, run id, final record, results document) of every run.
    runs: List[Tuple[int, str, dict, dict]] = field(default_factory=list)


@dataclass
class _Burst:
    wall_s: float
    runs: List[Tuple[int, str, dict, dict]]
    submit_to_done: List[float]
    errors: List[str]


class ServiceBurst(Workload):
    name = "service-burst"

    @property
    def burst(self) -> int:
        return 4 if self.scale == "full" else 2

    @property
    def polls(self) -> int:
        return 100 if self.scale == "full" else 10

    @property
    def span(self) -> Tuple[str, str, int]:
        """(start, end, days) of every submitted study."""
        if self.scale == "full":
            return "2017-04-01", "2017-04-30", 30
        return "2017-04-10", "2017-04-12", 3

    def payload(self, study_seed: int) -> dict:
        start, end, _ = self.span
        return {"scale": "small", "seed": study_seed, "start": start, "end": end}

    def server_options(self) -> dict:
        return {"max_active": 2, "run_workers": 1}

    def setup(self, seed: int, scratch: Path) -> ServiceContext:
        thread = ServerThread(scratch / "state", **self.server_options())
        server = thread.__enter__()
        return ServiceContext(
            scratch=scratch,
            thread=thread,
            port=server.port,
            # Distinct study seeds for every run of every repetition.
            next_seed=(seed % 1_000_000) * 1_000 + 1,
        )

    def teardown(self, ctx: ServiceContext) -> None:
        ctx.thread.__exit__(None, None, None)

    def client(self, ctx: ServiceContext) -> ServiceClient:
        return ServiceClient("127.0.0.1", ctx.port, timeout=60.0)

    # -- one burst ---------------------------------------------------------

    def _burst(
        self,
        ctx: ServiceContext,
        one_run: Callable[[ServiceClient, int], Tuple[str, dict, dict, float]],
    ) -> _Burst:
        seeds: "queue.Queue[int]" = queue.Queue()
        for _ in range(self.burst):
            seeds.put(ctx.next_seed)
            ctx.next_seed += 1
        runs: List[Tuple[int, str, dict, dict]] = []
        latencies: List[float] = []
        errors: List[str] = []

        def loop() -> None:
            client = self.client(ctx)
            while True:
                try:
                    study_seed = seeds.get_nowait()
                except queue.Empty:
                    return
                try:
                    run_id, record, results, latency = one_run(client, study_seed)
                except ClientError as exc:
                    errors.append(f"seed {study_seed}: {exc}")
                    continue
                runs.append((study_seed, run_id, record, results))
                latencies.append(latency)

        started = time.perf_counter()
        threads = [threading.Thread(target=loop) for _ in range(_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return _Burst(time.perf_counter() - started, runs, latencies, errors)

    def _one_run(self, client: ServiceClient, study_seed: int):
        started = time.perf_counter()
        run = client.submit(self.payload(study_seed))
        record = client.wait(run["id"], poll=_POLL_INTERVAL)
        latency = time.perf_counter() - started
        results = client.results(run["id"]) if record["state"] == "done" else {}
        if results:
            client.figure(run["id"], _FIGURE)
        return run["id"], record, results, latency

    def rep(self, ctx: ServiceContext, index: int) -> Rep:
        started = time.perf_counter()
        burst = self._burst(ctx, self._one_run)
        polls: List[float] = []
        if burst.runs:
            client = self.client(ctx)
            run_id = burst.runs[0][1]
            for _ in range(self.polls):
                began = time.perf_counter()
                client.run(run_id)
                polls.append(time.perf_counter() - began)
        wall = time.perf_counter() - started
        ctx.runs.extend(burst.runs)
        rows = sum(
            results.get("summary", {}).get("subscriber_day_rows", 0)
            for _, _, _, results in burst.runs
        )
        return Rep(
            work=rows,
            outputs=burst,
            phases={
                "wall_s": wall,
                "burst_wall_s": burst.wall_s,
                "submit_to_done_s": (
                    statistics.median(burst.submit_to_done) if burst.submit_to_done else 0.0
                ),
                "poll_p50_ms": 1000.0 * statistics.median(polls) if polls else 0.0,
            },
        )

    def verify(self, ctx: ServiceContext, rep: Rep) -> List[Check]:
        burst: _Burst = rep.outputs
        days = self.span[2]
        checks: List[Check] = [
            ("HTTP request", False, error) for error in burst.errors
        ]
        for study_seed, run_id, record, results in burst.runs:
            done = record["state"] == "done"
            detail = f"run {run_id} (seed {study_seed}) is {record['state']}: {record['error']}"
            if done and results["summary"]["days"] != days:
                done = False
                detail = f"run {run_id}: {results['summary']['days']} days, expected {days}"
            checks.append(("run reaches done", done, detail))
        missing = self.burst - len(burst.runs) - len(burst.errors)
        checks.extend(("run submitted", False, "lost submission") for _ in range(missing))
        return checks

    def final_checks(self, ctx: ServiceContext) -> List[Check]:
        """The first and last run's digest equal an in-process run's."""
        done = [run for run in ctx.runs if run[3]]
        checks: List[Check] = []
        for study_seed, run_id, _, results in done[:1] + done[1:][-1:]:
            config, _ = build_config(self.payload(study_seed))
            digest = study_digest(execute_study(config, workers=1).data)
            same = digest == results["digest"]
            checks.append(
                (
                    "/results digest equals in-process execute_study",
                    same,
                    "" if same else f"run {run_id}: {results['digest']} != {digest}",
                )
            )
        return checks

    def phase_metrics(self, rep: Rep) -> Dict[str, float]:
        return {
            "subscriber_days_per_s": rep.work / rep.phases["wall_s"],
            "runs_per_s": len(rep.outputs.runs) / rep.phases["burst_wall_s"],
            "submit_to_done_s": rep.phases["submit_to_done_s"],
            "poll_p50_ms": rep.phases["poll_p50_ms"],
        }

    # -- traced burst ------------------------------------------------------

    def trace(self, ctx: ServiceContext, tracer: Tracer, untraced: Rep):
        def traced_run(client: ServiceClient, study_seed: int):
            with tracer.span("bench.run", seed=study_seed):
                started = time.perf_counter()
                with tracer.span("service.submit"):
                    run = client.submit(self.payload(study_seed))
                while True:
                    with tracer.span("service.poll_busy"):
                        record = client.run(run["id"])
                    if record["state"] in ("done", "failed", "cancelled"):
                        break
                    time.sleep(_POLL_INTERVAL)
                latency = time.perf_counter() - started
                results: dict = {}
                if record["state"] == "done":
                    with tracer.span("service.results"):
                        results = client.results(run["id"])
                    with tracer.span("service.figure"):
                        client.figure(run["id"], _FIGURE)
            return run["id"], record, results, latency

        burst = self._burst(ctx, traced_run)
        ctx.runs.extend(burst.runs)
        busy = sorted(tracer.durations("service.poll_busy"))
        waits = [
            record["started_at"] - record["created_at"]
            for _, _, record, _ in burst.runs
            if record.get("started_at") is not None
        ]
        values = {
            "service.submit_ms": tracer.median_ms("service.submit"),
            "service.results_ms": tracer.median_ms("service.results"),
            "service.figure_ms": tracer.median_ms("service.figure"),
            "service.poll_busy_p50_ms": 1000.0 * busy[len(busy) // 2] if busy else 0.0,
            "service.poll_busy_p95_ms": 1000.0 * busy[int(0.95 * (len(busy) - 1))] if busy else 0.0,
            "service.http_errors": len(burst.errors),
            "service.queue_wait_ms": 1000.0 * statistics.mean(waits) if waits else 0.0,
        }
        return values, self.verify(ctx, Rep(work=0, outputs=burst))

    def trace_extras(self, ctx: ServiceContext, untraced: Rep):
        """What the server does with a finished run's StudyData."""
        study_seed = untraced.outputs.runs[0][0] if untraced.outputs.runs else ctx.next_seed
        config, _ = build_config(self.payload(study_seed))
        data = execute_study(config, workers=1).data
        started = time.perf_counter()
        study_digest(data)
        digested = time.perf_counter()
        results_payload(data)
        done = time.perf_counter()
        return {
            "service.digest_ms": 1000.0 * (digested - started),
            "service.results_payload_ms": 1000.0 * (done - digested),
        }, []
