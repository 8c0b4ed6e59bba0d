"""Span recording for the benchmark's traced runs.

A traced run records one span per call into a layer's public function:
name, start, end, parent span and the id of the experiment or request
it belongs to.  Spans are kept in memory and written out when the
process ends.  The wrappers are installed from this file, around the
program's public functions; nothing inside ``src/`` records spans.

Layer self time is a span's duration minus the part of it that its
child spans cover.  Pool workers are forked, so spans recorded inside
them are lost on purpose; the scheduler's ``SweepReport`` carries the
worker-side numbers instead (see ``scheduler`` below).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import threading
import time

#: Id of the innermost open span in the current thread or task.
_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
#: Id of the request the current asyncio task is serving.
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)

#: Span name -> the program module (layer) it is attributed to.
LAYER_OF = {
    "cli.import": "cli",
    "cli.main": "cli",  # its self time counts as unattributed
    "capture": "isa.interp",
    "trace_store.get": "workloads.trace_store",
    "trace_store.put": "workloads.trace_store",
    "oracle": "fusion.oracle",
    "census": "fusion.oracle",
    "legality": "analysis.legality",
    "pipeline": "pipeline.core",
    "result_cache.get": "experiments.cache",
    "result_cache.put": "experiments.cache",
    "sweep": "experiments.engine",
    "preload": "experiments.engine",
    "scheduler": "experiments.faults",
    "render": "experiments.figures",
    "protocol.encode": "serve.protocol",
    "protocol.decode": "serve.protocol",
    "lru.get": "serve.coalesce",
    "lru.put": "serve.coalesce",
}

def now_ns() -> int:
    """System-wide monotonic clock, comparable across processes."""
    return time.monotonic_ns()


class SpanRecorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def add(self, span: dict) -> None:
        with self._lock:
            self.spans.append(span)

    def record(self, name, start_ns, end_ns, parent=None, req=None, **args):
        """Add a span measured by the caller; returns its id."""
        span_id = self.next_id()
        self.add(
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start_ns,
                "end": end_ns,
                "pid": self.pid,
                "tid": threading.get_ident(),
                "req": req,
                "args": args,
            }
        )
        return span_id

    def dump(self, path: str) -> None:
        """Write this process's spans (only from the recording process:
        a forked worker inherits the recorder but never writes it)."""
        if os.getpid() != self.pid:
            return
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


class Span:
    """Context manager recording one span around a block of the
    benchmark's own code (a client request)."""

    def __init__(self, recorder: SpanRecorder, name: str, req=None):
        self.recorder = recorder
        self.name = name
        self.req = req
        self.args: dict = {}

    def __enter__(self) -> "Span":
        self.parent = _CURRENT.get()
        self.id = self.recorder.next_id()
        self._token = _CURRENT.set(self.id)
        self.start = now_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        end = now_ns()
        _CURRENT.reset(self._token)
        self.recorder.add(
            {
                "id": self.id,
                "parent": self.parent,
                "name": self.name,
                "start": self.start,
                "end": end,
                "pid": self.recorder.pid,
                "tid": threading.get_ident(),
                "req": self.req,
                "args": self.args,
            }
        )


def traced(recorder: SpanRecorder, name: str, fn, describe=None):
    """Wrap ``fn`` so every call records one span named ``name``.

    ``describe(args, kwargs, result)`` returns extra span fields (work
    counts such as µ-ops or bytes); it runs after the clock stops.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = _CURRENT.get()
        span_id = recorder.next_id()
        token = _CURRENT.set(span_id)
        start = now_ns()
        result = None
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = now_ns()
            _CURRENT.reset(token)
            extra = {"failed": True} if failed else {}
            if describe is not None and not failed:
                extra.update(describe(args, kwargs, result))
            recorder.add(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "pid": recorder.pid,
                    "tid": threading.get_ident(),
                    "req": _REQUEST.get(),
                    "args": extra,
                }
            )

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every reference a ``repro`` module holds to ``original``
    at ``replacement``: module attributes (``from x import f`` copies)
    and the values of module-level dicts (dispatch tables)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


# -- what each layer's span records ------------------------------------------


def _trace_len(args, kwargs, result):
    return {"uops": len(result)}


def _hit(args, kwargs, result):
    return {"hit": result is not None}


def _legality(args, kwargs, result):
    return {"candidates": result.candidates}


def _pipeline(args, kwargs, result):
    return {"uops": result.uops_committed, "cycles": result.cycles}


def _payload_stats(payload):
    """Core stats of one scheduler payload: a ``SimResult`` (sweeps)
    or its ``to_dict()`` form (the simulation service)."""
    if isinstance(payload, dict):
        return payload.get("stats")
    stats = getattr(payload, "stats", None)
    return stats.to_dict() if stats is not None else None


def _scheduler(args, kwargs, result):
    outcomes, report = result
    # Simulations that ran in pool workers leave no spans here; count
    # their µ-ops and cycles from the outcomes the scheduler returns.
    pool_uops = pool_cycles = 0
    for (ok, payload), job in zip(outcomes, report.jobs):
        stats = _payload_stats(payload) if ok else None
        if stats and job.attempts and job.attempts[-1].where == "pool":
            pool_uops += stats.get("uops_committed", 0)
            pool_cycles += stats.get("cycles", 0)
    attempts = [a for job in report.jobs for a in job.attempts]
    return {
        "jobs": len(report.jobs),
        "workers": report.workers,
        "attempts": len(attempts),
        "retries": sum(max(0, len(job.attempts) - 1) for job in report.jobs),
        "lost": sum(1 for a in attempts if a.outcome == "lost-worker"),
        "job_s": sum(a.duration_s for a in attempts),
        "pool_attempts": sum(1 for a in attempts if a.where == "pool"),
        "pool_job_s": sum(a.duration_s for a in attempts if a.where == "pool"),
        "failed_jobs": len(report.failed_jobs),
        "pool_uops": pool_uops,
        "pool_cycles": pool_cycles,
    }


def _encoded(args, kwargs, result):
    return {"bytes": len(result)}


def _decoded(args, kwargs, result):
    line = args[0] if args else kwargs.get("line", b"")
    return {"bytes": len(line)}


def _decode_request(recorder):
    """Decode wrapper that also tags the serving task with the id of the
    request it decoded, so later spans in that task carry it."""
    from repro.serve import protocol

    original = protocol.decode_request

    @functools.wraps(original)
    def wrapper(line):
        parent = _CURRENT.get()
        start = now_ns()
        request = original(line)
        end = now_ns()
        _REQUEST.set(request.id)
        recorder.record(
            "protocol.decode",
            start,
            end,
            parent=parent,
            req=request.id,
            bytes=len(line),
        )
        return request

    return wrapper


def install(recorder: SpanRecorder, serve: bool = False) -> None:
    """Wrap every layer's public entry points.  The modules holding
    references must be loaded first, so this imports them; the serving
    modules only when ``serve`` is set (other commands never load
    them, and importing them would only slow the traced process)."""
    import repro.cli  # noqa: F401  (loads the modules whose names we rebind)
    from repro.analysis import legality
    from repro.experiments import (
        analysis_suite,
        cache,
        engine,
        faults,
        figures,
        runner,
        tables,
    )
    from repro.fusion import oracle
    from repro.isa import interp
    from repro.pipeline.core import PipelineCore
    from repro.workloads.trace_store import TraceStore

    functions = [
        (interp.run_program, "capture", _trace_len),
        (oracle.oracle_memory_pairs, "oracle", None),
        (oracle.analyze_trace, "census", None),
        (legality.analyze_trace_legality, "legality", _legality),
        (runner.run_suite_with_report, "sweep", None),
        (engine.preload_traces, "preload", None),
        (faults.run_jobs, "scheduler", _scheduler),
        (analysis_suite.legality_census, "render", None),
        (tables.table1, "render", None),
        (tables.table3, "render", None),
    ]
    for name in (
        "figure2",
        "figure3",
        "figure4",
        "figure5",
        "figure8",
        "figure9",
        "figure10",
        "cpi_accounting",
    ):
        functions.append((getattr(figures, name), "render", None))
    methods = [
        (TraceStore, "get", "trace_store.get", _hit),
        (TraceStore, "put", "trace_store.put", None),
        (cache.ResultCache, "get", "result_cache.get", _hit),
        (cache.ResultCache, "put", "result_cache.put", None),
        (PipelineCore, "run", "pipeline", _pipeline),
    ]
    if serve:
        from repro.serve import coalesce, protocol, server  # noqa: F401

        functions.append(
            (protocol.encode_response, "protocol.encode", _encoded)
        )
        _rebind(protocol.decode_request, _decode_request(recorder))
        methods.append((coalesce.LRUTier, "get", "lru.get", _hit))
        methods.append((coalesce.LRUTier, "put", "lru.put", None))
    for original, span, describe in functions:
        _rebind(original, traced(recorder, span, original, describe))
    for cls, attr, span, describe in methods:
        wrapped = traced(recorder, span, getattr(cls, attr), describe)
        setattr(cls, attr, wrapped)


def install_client(recorder: SpanRecorder) -> None:
    """Wrap only the client side of the wire protocol (the benchmark's
    own process, which drives a separate server process)."""
    from repro.serve import protocol

    for original, name, describe in (
        (protocol.encode_request, "protocol.encode", _encoded),
        (protocol.decode_response, "protocol.decode", _decoded),
    ):
        _rebind(original, traced(recorder, name, original, describe))


# -- analysis -------------------------------------------------------------


def _union_ns(intervals, lo, hi) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans, extra_cover=None):
    """Each span's self time in ns: duration minus child coverage.

    Children are spans whose ``parent`` is the span's id in the same
    process.  ``extra_cover`` maps a span's key ``(pid, id)`` to more
    intervals covering it (work done for it in another process or
    thread).
    """
    children = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            children.setdefault(key, []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        key = (span["pid"], span["id"])
        cover = list(children.get(key, ()))
        if extra_cover:
            cover.extend(extra_cover.get(key, ()))
        duration = span["end"] - span["start"]
        result[key] = duration - _union_ns(cover, span["start"], span["end"])
    return result


def chrome_trace(spans) -> dict:
    """Chrome trace JSON (complete ``X`` events) for all spans."""
    origin = min((s["start"] for s in spans), default=0)
    tids = {}
    events = []
    for span in sorted(spans, key=lambda s: (s["start"], -s["end"])):
        tid = tids.setdefault((span["pid"], span["tid"]), len(tids) + 1)
        args = {"id": span["id"], "parent": span["parent"]}
        if span.get("req") is not None:
            args["req"] = span["req"]
        args.update(span.get("args") or {})
        events.append(
            {
                "name": span["name"],
                "cat": LAYER_OF.get(span["name"], "root"),
                "ph": "X",
                "ts": (span["start"] - origin) // 1000,
                "dur": max(1, (span["end"] - span["start"]) // 1000),
                "pid": span["pid"],
                "tid": tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def summarize(spans, roots, extra_cover=None) -> dict:
    """Per-layer metrics of one traced pass.

    ``roots`` are the keys ``(pid, id)`` of the experiment or request
    spans.  The unattributed remainder is the self time left in them
    plus that of ``cli.main``: time inside the CLI's ``main`` that no
    layer's span covers belongs to no named layer.
    Values that spans cannot give (store sizes, the server's own
    counters, the traced-versus-untraced comparison) are added by the
    workload.
    """
    own = self_times(spans, extra_cover)
    by_name: dict = {}
    for span in spans:
        entry = by_name.setdefault(
            span["name"], {"n": 0, "self": 0, "dur": 0, "args": []}
        )
        entry["n"] += 1
        entry["self"] += own[(span["pid"], span["id"])]
        entry["dur"] += span["end"] - span["start"]
        entry["args"].append(span.get("args") or {})

    def get(name):
        return by_name.get(name, {"n": 0, "self": 0, "dur": 0, "args": []})

    def self_s(*names):
        return sum(get(name)["self"] for name in names) / 1e9

    def total(name, field):
        return sum(args.get(field, 0) for args in get(name)["args"])

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def per_call_us(name):
        entry = get(name)
        return entry["dur"] / 1e3 / entry["n"] if entry["n"] else 0.0

    scheduler = get("scheduler")
    pipeline_s = self_s("pipeline") + total("scheduler", "pool_job_s")
    pipeline_uops = total("pipeline", "uops") + total("scheduler", "pool_uops")
    pipeline_cycles = total("pipeline", "cycles") + total(
        "scheduler", "pool_cycles"
    )
    # Worker capacity the scheduler held (workers x wall) minus the time
    # its attempts ran: fork, pickling, and idle workers.
    overhead_ns = 0.0
    for span in spans:
        if span["name"] == "scheduler":
            args = span.get("args") or {}
            wall_ns = span["end"] - span["start"]
            overhead_ns += args.get("workers", 1) * wall_ns
            overhead_ns -= args.get("job_s", 0.0) * 1e9
    keyed = {(span["pid"], span["id"]): span for span in spans}
    root_total = sum(keyed[key]["end"] - keyed[key]["start"] for key in roots)
    unattributed = sum(own[key] for key in roots) + get("cli.main")["self"]
    gets = get("trace_store.get")
    cache_gets = get("result_cache.get")
    return {
        "cli.import_s": get("cli.import")["dur"] / 1e9,
        "cli.main_s": self_s("cli.main"),
        "capture.calls": get("capture")["n"],
        "capture.busy_s": self_s("capture"),
        "capture.uops_per_s": ratio(
            total("capture", "uops"), get("capture")["dur"] / 1e9
        ),
        "trace_store.get_s": self_s("trace_store.get"),
        "trace_store.put_s": self_s("trace_store.put"),
        "trace_store.hit_ratio": ratio(
            total("trace_store.get", "hit"), gets["n"]
        ),
        "oracle.calls": get("oracle")["n"],
        "oracle.busy_s": self_s("oracle"),
        "census.busy_s": self_s("census"),
        "legality.calls": get("legality")["n"],
        "legality.busy_s": self_s("legality"),
        "legality.candidates_per_s": ratio(
            total("legality", "candidates"), get("legality")["dur"] / 1e9
        ),
        "pipeline.runs": get("pipeline")["n"]
        + total("scheduler", "pool_attempts"),
        "pipeline.busy_s": pipeline_s,
        "pipeline.uops_per_s": ratio(pipeline_uops, pipeline_s),
        "pipeline.host_ns_per_cycle": ratio(pipeline_s * 1e9, pipeline_cycles),
        "result_cache.get_s": self_s("result_cache.get"),
        "result_cache.put_s": self_s("result_cache.put"),
        "result_cache.hit_ratio": ratio(
            total("result_cache.get", "hit"), cache_gets["n"]
        ),
        "engine.busy_s": self_s("sweep", "preload"),
        "scheduler.wall_s": scheduler["dur"] / 1e9,
        "scheduler.job_s": total("scheduler", "job_s"),
        "scheduler.overhead_s": overhead_ns / 1e9,
        "scheduler.attempts": total("scheduler", "attempts"),
        "scheduler.retries": total("scheduler", "retries"),
        "scheduler.lost": total("scheduler", "lost"),
        "render.busy_s": self_s("render"),
        "protocol.encode_us": per_call_us("protocol.encode"),
        "protocol.decode_us": per_call_us("protocol.decode"),
        "trace.attributed_pct": 100.0
        * ratio(root_total - unattributed, root_total),
        "trace.unattributed_s": unattributed / 1e9,
    }


def layer_table(spans, roots, extra_cover=None) -> list:
    """``(layer, self seconds)`` rows, largest first, with the
    unattributed remainder (root spans and ``cli.main``, as in
    :func:`summarize`) as its own row."""
    own = self_times(spans, extra_cover)
    rows: dict = {}
    for span in spans:
        key = (span["pid"], span["id"])
        if key in roots or span["name"] == "cli.main":
            layer = "(unattributed)"
        else:
            layer = LAYER_OF.get(span["name"], span["name"])
        rows[layer] = rows.get(layer, 0) + own[key]
    table = [(layer, ns / 1e9) for layer, ns in rows.items()]
    return sorted(table, key=lambda row: -row[1])
