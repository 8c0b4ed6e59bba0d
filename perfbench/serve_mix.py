"""The ``serve-mix`` workload: closed-loop traffic against ``repro serve``.

The server runs as its own process with ``--pool-jobs $(nproc)`` and a
bounded LRU.  ``nproc`` client threads, one connection each, take the
next request of a seeded schedule as soon as their previous request
completes (a closed loop).  The schedule repeats a fixed block of 20
requests, so every seed sends the same mix.  Half of it repeats one of
eight hot keys, the defaults of ``repro loadgen`` (``duplicate_ratio``
0.5, ``hot_keys`` 8); the split of the other half is a chosen one:

* ``H`` (10 per block) — eight hot small-capture keys, executed once
  before timing; served from the LRU;
* ``D`` (6) — twelve default-capture keys that a ``repro experiment``
  run put in the result cache beforehand.  They cycle slower than the
  LRU holds them, so each is read from the disk tier;
* ``U`` (4) — two small-capture keys that are not in any result tier,
  each sent twice in a row.  The first copy is an execution and an LRU
  write; the second reaches the server while the first is in flight
  (another client sends it) and joins it through single-flight
  (``coalesced``).  They cycle through a pool of 48 keys (16 distinct
  captures), long out of the LRU when they come round again, so they
  are executed again, replaying the trace the server captured the first
  time.  The pool is small so that a run goes round it: the server's
  memory then stops growing, and a faster server, which sends more
  requests in a run, does not show as a larger one.

The seed orders the hot, disk and new keys; the block pattern is fixed.
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import threading
import time
from statistics import median
from typing import NamedTuple

import reference
import spans
from common import (
    KERNELS,
    MODES,
    ROOT,
    BenchError,
    Tally,
    calibrate,
    geomean,
    nproc,
    process_peak_rss_mb,
    program_env,
    repro_cmd,
    run_process,
    scale,
    stop_process,
    store_bytes,
    tail_percentile,
)

BLOCK = "HDHUUHDHDHHDHUUHDHDH"
#: The timed loop pauses every WINDOW_S seconds to calibrate host speed.
WINDOW_S = 2.0
LRU_CAPACITY = 16
HOT_KEYS = (
    ("657.xz_1", "Helios", 3000),
    ("631.deepsjeng", "Helios", 3000),
    ("dijkstra", "OracleFusion", 3000),
    ("rijndael", "NoFusion", 3000),
    ("657.xz_1", "NoFusion", 3000),
    ("631.deepsjeng", "OracleFusion", 3000),
    ("dijkstra", "Helios", 3000),
    ("rijndael", "OracleFusion", 3000),
)
DISK_KERNELS = ("dijkstra", "rijndael")
UNIQUE_MODES = ("NoFusion", "Helios", "OracleFusion")
UNIQUE_LENGTHS = (1600, 1616, 1632, 1648)


class Record(NamedTuple):
    """One request of the timed loop."""

    index: int
    kind: str
    key: tuple
    start: int  # ns
    end: int  # ns
    response: object
    error: object
    factor: float = 1.0  # host-speed scale of its window

    @property
    def tier(self) -> str:
        if self.response is None:
            return "error"
        return self.response.meta.get("tier")


def disk_keys() -> list:
    return [(kernel, mode, 0) for kernel in DISK_KERNELS for mode in MODES]


def unique_pool() -> list:
    return [
        (kernel, mode, length)
        for kernel in KERNELS
        for mode in UNIQUE_MODES
        for length in UNIQUE_LENGTHS
    ]


def schedule(seed: int):
    """``item(i) -> (kind, (kernel, mode, max_uops))`` for request ``i``."""
    rng = random.Random(seed)
    pools = {"H": list(HOT_KEYS), "D": disk_keys(), "U": unique_pool()}
    for pool in pools.values():
        rng.shuffle(pool)
    per_block = {kind: BLOCK.count(kind) for kind in pools}

    def item(index: int):
        block, pos = divmod(index, len(BLOCK))
        kind = BLOCK[pos]
        nth = block * per_block[kind] + BLOCK[:pos].count(kind)
        if kind == "U":
            nth //= 2  # each uncached key is sent twice in a row
        pool = pools[kind]
        return kind, pool[nth % len(pool)]

    return item


def start_server(env, spans_out=None, timeout=60.0):
    """Spawn ``repro serve`` on a free localhost port.

    Returns ``(process, port, seconds from spawn to listening)``.
    """
    args = [
        "serve",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--pool-jobs",
        str(nproc()),
        "--lru-capacity",
        str(LRU_CAPACITY),
    ]
    start = time.monotonic()
    proc = subprocess.Popen(
        repro_cmd(args, spans_out),
        env=env,
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else ""
    setup = time.monotonic() - start
    if "listening on " not in line:
        stop_process(proc)
        raise BenchError("repro serve did not start: %r" % line)
    address = line.split("listening on ", 1)[1].split()[0]
    return proc, int(address.rsplit(":", 1)[1]), setup


def _request(index: int, key):
    from repro.serve.protocol import Request

    kernel, mode, max_uops = key
    return Request(
        type="simulate",
        id=index + 1,
        workload=kernel,
        mode=mode,
        max_uops=max_uops,
    )


def _client(port: int):
    from repro.serve.client import ServeClient

    return ServeClient(host="127.0.0.1", port=port, timeout=120.0)


def closed_loop(port, item, seconds, first_index=0, recorder=None):
    """Drive ``nproc`` connections until ``seconds`` pass; each finishes
    the request it has in flight.  Requests are numbered on from
    ``first_index``.  Returns ``(records, wall seconds)``."""
    records = []
    lock = threading.Lock()
    counter = iter(range(first_index, 10**9))
    deadline = time.monotonic() + seconds

    def take():
        with lock:
            if time.monotonic() >= deadline:
                return None
            return next(counter)

    def worker():
        with _client(port) as client:
            while True:
                index = take()
                if index is None:
                    return
                kind, key = item(index)
                request = _request(index, key)
                response = error = None
                start = time.monotonic_ns()
                try:
                    if recorder is None:
                        response = client.request(request)
                    else:
                        span = spans.Span(recorder, "request", req=request.id)
                        with span:
                            response = client.request(request)
                            span.args["tier"] = response.meta.get("tier")
                except (OSError, ValueError) as exc:
                    error = "%s: %s" % (type(exc).__name__, exc)
                end = time.monotonic_ns()
                records.append(
                    Record(index, kind, key, start, end, response, error)
                )

    threads = [threading.Thread(target=worker) for _ in range(nproc())]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(records), time.monotonic() - started


def timed_windows(port, item, seconds, recorder=None):
    """The closed loop cut into windows of ``WINDOW_S`` with a host-speed
    calibration between them (the server idles meanwhile).  Returns
    ``(records, windows)``: each record carries its window's scale
    factor, and each window is ``(wall seconds, factor)``."""
    records, windows = [], []
    before = calibrate()
    left = seconds
    while left > 1e-9:
        span = min(WINDOW_S, left)
        found, wall = closed_loop(port, item, span, len(records), recorder)
        after = calibrate()
        factor = scale(before, after)
        records.extend(record._replace(factor=factor) for record in found)
        windows.append((wall, factor))
        before = after
        left -= span
    return records, windows


def check_response(ref, key, response, error, tally: Tally) -> None:
    ok = (
        error is None
        and response is not None
        and response.ok
        and reference.sim_matches(
            ref, reference.sim_key(*key), response.payload.get("stats")
        )
    )
    detail = error
    if detail is None and response is not None and not response.ok:
        detail = response.error
    tally.check(
        ok,
        "request %s: %s"
        % (reference.sim_key(*key), detail or "payload differs"),
    )


def run_phase(env, item, seconds, ref, tally, spans_out=None, recorder=None):
    """One server lifetime: start, warm the hot keys, drive the closed
    loop, read ``status``, stop.  Returns the phase's measurements."""
    before = calibrate()
    proc, port, setup = start_server(env, spans_out)
    try:
        setup *= scale(before, calibrate())
        with _client(port) as client:
            for offset, key in enumerate(HOT_KEYS):
                response = client.request(_request(10**8 + offset, key))
                check_response(ref, key, response, None, tally)
        records, windows = timed_windows(port, item, seconds, recorder)
        with _client(port) as client:
            status = client.status()
        rss_mb = process_peak_rss_mb(proc.pid)
    finally:
        stop_process(proc)
    for record in records:
        check_response(ref, record.key, record.response, record.error, tally)
    server_spans = []
    if spans_out is not None and os.path.exists(spans_out):
        with open(spans_out, encoding="utf-8") as handle:
            server_spans = json.load(handle)
    return {
        "setup_s": setup,
        "records": records,
        "windows": windows,
        "status": status,
        "peak_rss_mb": rss_mb,
        "server_spans": server_spans,
    }


def phase_metrics(phase) -> dict:
    """Throughput and latency of one phase, as measured and scaled to
    the reference host speed (``work_s``, ``scaled_p50_ms``)."""
    records, windows = phase["records"], phase["windows"]
    wall = sum(w for w, _ in windows)
    scaled_wall = sum(w * f for w, f in windows)
    latencies = [(r.end - r.start) / 1e6 for r in records]
    scaled = [(r.end - r.start) * r.factor / 1e6 for r in records]
    executed_uops = sum(
        r.response.payload["stats"]["uops_committed"]
        for r in records
        if r.tier == "executed" and r.response.ok
    )
    pct, tail, samples = tail_percentile(latencies)
    tiers: dict = {}
    for record in records:
        tiers[record.tier] = tiers.get(record.tier, 0) + 1
    return {
        "requests": len(records),
        "served_rps": len(records) / wall,
        "work_s": scaled_wall * len(BLOCK) / len(records),
        "serve_p50_ms": median(latencies),
        "scaled_p50_ms": median(scaled),
        "scaled_gmean_ms": geomean(scaled),
        "serve_tail_ms": tail,
        "serve_tail_percentile": pct,
        "serve_tail_samples": samples,
        "sim_uops_per_s": executed_uops / wall,
        "host_factor": [round(f, 4) for _, f in windows],
        "tiers": tiers,
    }


def status_metrics(status: dict) -> dict:
    lru = status["lru"]
    counters = status["metrics"]["counters"]
    histograms = status["metrics"]["histograms"]

    def mean(name, unit=1.0):
        return histograms.get(name, {}).get("mean", 0.0) * unit

    lookups = lru["hits"] + lru["misses"]
    return {
        "serve.lru_hit_ratio": lru["hits"] / lookups if lookups else 0.0,
        "serve.coalesced": counters.get("serve.coalesced", 0),
        "serve.executions": counters.get("serve.executions", 0),
        "serve.queue_wait_ms": mean("serve.queue_us", 1e-3),
        "serve.exec_ms": mean("serve.exec_us", 1e-3),
        "serve.batch_size": mean("serve.batch_size"),
        "serve.busy": counters.get("serve.busy", 0),
    }


def request_cover(client_spans, server_spans, records):
    """Intervals covering each client request span: the server-side
    spans of the same request, and for requests the server executed,
    the batch work (preload, scheduler) running while they waited."""
    executed = {
        r.index + 1 for r in records if r.tier in ("executed", "coalesced")
    }
    by_req: dict = {}
    batches = []
    for span in server_spans:
        if span["parent"] is not None:
            continue
        interval = (span["start"], span["end"])
        if span["req"] is not None:
            by_req.setdefault(span["req"], []).append(interval)
        elif span["name"] in ("preload", "scheduler"):
            batches.append(interval)
    cover = {}
    for span in client_spans:
        if span["name"] != "request":
            continue
        intervals = list(by_req.get(span["req"], ()))
        if span["req"] in executed:
            start, end = span["start"], span["end"]
            intervals.extend(b for b in batches if b[1] > start and b[0] < end)
        cover[(span["pid"], span["id"])] = intervals
    return cover


def run(seed, seconds, traced, work, ref) -> dict:
    item = schedule(seed)
    tally = Tally()
    cache_dir = work / "cache"

    # Fill the disk tier the way a user would: an experiment sweep.
    order = list(DISK_KERNELS)
    random.Random(seed).shuffle(order)
    fill_env = program_env(cache_dir, work / "traces-fill")
    args = ["experiment", "fig10", "--workloads", ",".join(order)]
    args += ["--jobs", str(nproc()), "--cache-dir", str(cache_dir)]
    code, _, _, _, _ = run_process(repro_cmd(args), fill_env)
    tally.check(code == 0, "disk-tier fill exited %d" % code)
    for kernel, mode, _ in disk_keys():
        stats = reference.cached_stats(cache_dir, kernel, mode)
        key = reference.sim_key(kernel, mode)
        ok = reference.sim_matches(ref, key, stats)
        tally.check(ok, "fill %s differs" % key)

    # Set-up time: spawn to listening.  The first spawn is untimed (it
    # compiles the server's bytecode); the measured phase adds one more.
    setup = []
    for timed in (False, True, True, True):
        before = calibrate()
        env = program_env(cache_dir, work / "traces-setup")
        proc, _, seconds_to_ready = start_server(env)
        factor = scale(before, calibrate())
        stop_process(proc)
        if timed:
            setup.append(seconds_to_ready * factor)

    untraced_env = program_env(cache_dir, work / "traces-a")
    if not traced:
        phase = run_phase(untraced_env, item, seconds, ref, tally)
    else:
        phase = run_phase(untraced_env, item, seconds / 2, ref, tally)
        recorder = spans.SpanRecorder()
        spans.install_client(recorder)
        spans_out = str(work / "server-spans.json")
        traced_phase = run_phase(
            program_env(cache_dir, work / "traces-b"),
            item,
            seconds / 2,
            ref,
            tally,
            spans_out=spans_out,
            recorder=recorder,
        )
    setup.append(phase["setup_s"])

    measured = phase_metrics(phase)
    e2e = {
        "setup_s": median(setup),
        # The measured server's own peak, not that of the disk-tier fill
        # or the set-up servers, which RUSAGE_CHILDREN would include.
        "peak_rss_mb": phase["peak_rss_mb"],
        "work_s": measured["work_s"],
        "op_gmean_ms": measured["scaled_gmean_ms"],
    }
    info = dict(measured, setup_scaled_samples_s=setup, clients=nproc())
    result = {"e2e": e2e, "info": info, "tally": tally}
    if traced:
        client_spans = recorder.spans
        # The server's cli.main span is its whole lifetime, idle time
        # included: it is no layer's work, so it is left out.
        server_spans = [
            s for s in traced_phase["server_spans"] if s["name"] != "cli.main"
        ]
        collected = client_spans + server_spans
        roots = [
            (s["pid"], s["id"]) for s in client_spans if s["name"] == "request"
        ]
        cover = request_cover(
            client_spans, server_spans, traced_phase["records"]
        )
        layers = spans.summarize(collected, roots, cover)
        traced_metrics = phase_metrics(traced_phase)
        layers.update(status_metrics(traced_phase["status"]))
        trace_bytes, cache_bytes = store_bytes(work / "traces-b", cache_dir)
        layers.update(
            {
                "trace_store.bytes": trace_bytes,
                "result_cache.bytes": cache_bytes,
                "protocol.bytes": sum(
                    (s.get("args") or {}).get("bytes", 0)
                    for s in server_spans
                    if s["name"].startswith("protocol.")
                ),
                "trace.work_s": traced_metrics["work_s"],
                "trace.untraced_work_s": measured["work_s"],
                "trace.overhead_pct": 100.0
                * (traced_metrics["work_s"] / measured["work_s"] - 1.0),
            }
        )
        result["layers"] = layers
        result["spans"] = collected
        result["layer_table"] = spans.layer_table(collected, set(roots), cover)
        info["traced"] = traced_metrics
    return result
