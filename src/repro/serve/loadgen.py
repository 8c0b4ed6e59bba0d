"""Deterministic load generator for the simulation service.

:func:`build_schedule` expands a seed into a fully pre-generated
request schedule — every workload, mode, capture length, and
duplicate decision is drawn from one ``random.Random(seed)`` before
any request is sent, so two runs with the same seed issue exactly
the same multiset of requests regardless of thread timing.

Duplicates are modelled with a *hot set*: ``duplicate_ratio`` of the
schedule re-requests one of ``hot_keys`` fixed (workload, mode,
max_uops) triples, and the rest are forced-unique by giving each
request its own capture length (the capture length is part of the
coalescing key, so unique entries can never be served from any cache
tier or coalesced — the honest worst case for the server).

:func:`run_load` drives the schedule closed-loop: ``workers``
threads, each with its own :class:`ServeClient`, pull the next
request from the shared schedule, block until its response, and
record latency + result tier.  The :class:`LoadReport` aggregates
throughput, latency percentiles, per-tier counts, and the server's
own final counters (so dedup is observable as
``executions < requests``).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import Request

#: Small kernels: cheap to simulate, so load tests stress the serving
#: machinery rather than the simulator.
WORKLOADS = ("dijkstra", "crc32", "bitcount", "qsort", "sha")

MODES = ("NoFusion", "Helios")

#: Capture length of every hot-set request.
HOT_MAX_UOPS = 2000

#: Forced-unique requests get max_uops = UNIQUE_BASE + i: long enough
#: to be a real simulation, distinct enough to never collide with the
#: hot set or each other.
UNIQUE_BASE_UOPS = 1500


@dataclass(frozen=True)
class LoadSpec:
    """Parameters of one deterministic load run."""

    requests: int = 200
    duplicate_ratio: float = 0.5
    hot_keys: int = 8
    workers: int = 4
    seed: int = 0
    verb: str = "simulate"


@dataclass
class LoadReport:
    """Aggregated outcome of one load run."""

    requests: int = 0
    ok: int = 0
    errors: dict = field(default_factory=dict)     # code -> count
    tiers: dict = field(default_factory=dict)      # tier -> count
    elapsed_s: float = 0.0
    throughput_rps: float = 0.0
    latency_ms: dict = field(default_factory=dict)  # p50/p90/p99/mean/max
    server: dict = field(default_factory=dict)      # final status payload

    @property
    def executions(self) -> int:
        counters = self.server.get("metrics", {}).get("counters", {})
        return int(counters.get("serve.executions", 0))

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": dict(self.errors),
            "tiers": dict(self.tiers),
            "elapsed_s": round(self.elapsed_s, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "latency_ms": self.latency_ms,
            "executions": self.executions,
            "server": self.server,
        }


def build_schedule(spec: LoadSpec) -> list:
    """The full request schedule for ``spec`` — pure function of it.

    Returns a list of :class:`Request` (ids assigned 1..N in schedule
    order).  Hot keys are drawn first, then each slot independently
    chooses hot (probability ``duplicate_ratio``) or forced-unique.
    """
    rng = random.Random(spec.seed)
    hot = []
    for _ in range(max(1, spec.hot_keys)):
        hot.append((rng.choice(WORKLOADS),
                    rng.choice(MODES),
                    HOT_MAX_UOPS))
    schedule = []
    unique_serial = 0
    for index in range(spec.requests):
        if rng.random() < spec.duplicate_ratio:
            workload, mode, max_uops = rng.choice(hot)
        else:
            workload = rng.choice(WORKLOADS)
            mode = rng.choice(MODES)
            max_uops = UNIQUE_BASE_UOPS + unique_serial
            unique_serial += 1
        schedule.append(Request(type=spec.verb, id=index + 1,
                                workload=workload, mode=mode,
                                max_uops=max_uops))
    return schedule


def _percentile(sorted_values: list, fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = max(0, min(len(sorted_values) - 1,
                       int(fraction * len(sorted_values) + 0.5) - 1))
    return sorted_values[index]


def summarize_latencies(latencies_s: list) -> dict:
    """p50/p90/p99/mean/max in milliseconds (floats, rounded)."""
    if not latencies_s:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0,
                "mean": 0.0, "max": 0.0}
    ordered = sorted(latencies_s)
    mean = sum(ordered) / len(ordered)
    return {
        "p50": round(_percentile(ordered, 0.50) * 1e3, 3),
        "p90": round(_percentile(ordered, 0.90) * 1e3, 3),
        "p99": round(_percentile(ordered, 0.99) * 1e3, 3),
        "mean": round(mean * 1e3, 3),
        "max": round(ordered[-1] * 1e3, 3),
    }


def run_load(spec: LoadSpec, *,
             path: Optional[str] = None,
             host: Optional[str] = None,
             port: int = 0,
             timeout: float = 300.0,
             busy_retries: int = 8) -> LoadReport:
    """Drive one deterministic load run against a live server.

    Closed loop: each worker thread has exactly one request in flight
    at a time.  ``busy_retries`` lets clients ride out admission
    rejections (each retry honours the server's ``retry_after``), so
    a default run loses no requests to backpressure — set it to 0 to
    observe the rejections instead.
    """
    schedule = build_schedule(spec)
    cursor = {"next": 0}
    cursor_lock = threading.Lock()
    record_lock = threading.Lock()
    latencies: list = []
    tiers: dict = {}
    errors: dict = {}
    ok_count = [0]

    def take() -> Optional[Request]:
        with cursor_lock:
            index = cursor["next"]
            if index >= len(schedule):
                return None
            cursor["next"] = index + 1
            return schedule[index]

    def record(ok: bool, tier: str, code: str, latency: float) -> None:
        with record_lock:
            latencies.append(latency)
            if ok:
                ok_count[0] += 1
                tiers[tier] = tiers.get(tier, 0) + 1
            else:
                errors[code] = errors.get(code, 0) + 1

    def worker() -> None:
        client = ServeClient(path=path, host=host, port=port,
                             timeout=timeout,
                             busy_retries=busy_retries)
        try:
            while True:
                request = take()
                if request is None:
                    return
                began = time.monotonic()
                try:
                    response = client.request(request)
                except (ConnectionError, OSError, TimeoutError):
                    record(False, "", "connection",
                           time.monotonic() - began)
                    continue
                latency = time.monotonic() - began
                if response.ok:
                    record(True, response.meta.get("tier", "?"),
                           "", latency)
                else:
                    record(False, "", response.error or "?", latency)
        finally:
            client.close()

    began = time.monotonic()
    threads = [threading.Thread(target=worker, name="loadgen-%d" % i,
                                daemon=True)
               for i in range(max(1, spec.workers))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - began

    report = LoadReport(
        requests=len(schedule),
        ok=ok_count[0],
        errors=errors,
        tiers=tiers,
        elapsed_s=elapsed,
        throughput_rps=(len(schedule) / elapsed) if elapsed else 0.0,
        latency_ms=summarize_latencies(latencies),
    )
    try:
        status_client = ServeClient(path=path, host=host, port=port,
                                    timeout=timeout)
        try:
            report.server = status_client.status()
        finally:
            status_client.close()
    except (ConnectionError, OSError, TimeoutError, ServeError):
        report.server = {}
    return report
