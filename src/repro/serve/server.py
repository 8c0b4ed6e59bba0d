"""The long-running asyncio simulation service.

:class:`SimulationServer` speaks the JSON-lines protocol of
:mod:`repro.serve.protocol` over a unix socket or TCP, and turns
``simulate``/``sample``/``analyze`` requests into fault-isolated
executions through the sweep scheduler
(:func:`repro.experiments.faults.run_jobs`).  The resident process
never simulates anything itself: every execution runs in a killable
worker process (``pool_jobs > 1``) or at worst the supervisor's
in-thread serial path, so a crash, hang, or injected fault degrades
one request to a structured error instead of taking the server down.

Request flow, cheapest tier first::

    LRU hit ─▶ disk-cache hit ─▶ single-flight join ─▶ admission ─▶ queue

* **LRU** — bounded in-memory payload tier (:class:`LRUTier`).
* **disk** — the persistent sweep :class:`ResultCache`; only
  default-capture ``simulate`` results are eligible, the same
  contract the sweep engine keeps.
* **single-flight** — concurrent duplicates of an in-flight key all
  await the leader's result; one execution serves them all.
* **admission** — at most ``queue_limit`` requests may be queued or
  executing; beyond that the server answers ``busy`` with an
  advisory ``retry_after`` instead of buffering unboundedly.

Queued work is drained in batches of up to ``max_batch`` and executed
on a worker thread (the event loop never blocks on a simulation), so
a batch fans out across ``pool_jobs`` worker processes at once.

Every request is metered through a :class:`StatsRegistry`
(``serve.*`` counters plus queue/exec/total latency histograms in
microseconds), reachable live via ``status`` requests and dumpable
to JSON on exit (CLI ``--metrics-json``).
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Optional

from repro.core.results import SimResult
from repro.experiments.cache import ResultCache, cache_enabled_by_default
from repro.experiments.engine import preload_traces
from repro.experiments.faults import (
    OUTCOME_LOST,
    OUTCOME_OK,
    SweepReport,
    run_jobs,
)
from repro.obs.registry import StatsRegistry
from repro.serve import protocol
from repro.serve.coalesce import LRUTier, SingleFlight
from repro.serve.jobs import (
    ServeJob,
    disk_cacheable,
    execute_serve_job,
    job_from_request,
    request_key,
)
from repro.serve.protocol import (
    ProtocolError,
    Request,
    Response,
    error_response,
)

#: Default bound on queued + executing requests.
DEFAULT_QUEUE_LIMIT = 64

#: Default capacity of the in-memory result tier.
DEFAULT_LRU_CAPACITY = 256

#: Default per-executor-cycle batch size.
DEFAULT_MAX_BATCH = 8

#: Fallback ``retry_after`` when no execution has been timed yet.
FALLBACK_RETRY_AFTER = 0.1

#: How long a client that sent an over-limit line may keep streaming
#: the rest of it before the server closes the connection anyway.
DISCARD_TIMEOUT_S = 5.0

# Result tiers reported in Response.meta["tier"].
TIER_LRU = "lru"
TIER_DISK = "disk"
TIER_COALESCED = "coalesced"
TIER_EXECUTED = "executed"


class ExecutionFailed(RuntimeError):
    """A job exhausted its retry budget (or the server shut down)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _WorkItem:
    """One queued execution: the job plus its timing bookkeeping."""

    __slots__ = ("key", "job", "enqueued_at")

    def __init__(self, key: str, job: ServeJob):
        self.key = key
        self.job = job
        self.enqueued_at = time.monotonic()


def _us(seconds: float) -> int:
    return max(0, int(seconds * 1e6))


async def _discard_line(reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
    """Finish an over-limit line before the connection closes.

    Closing a socket whose receive queue still holds the rest of the
    line makes the kernel reset the connection: the client then reads
    ECONNRESET instead of the error response and a clean end of
    stream.  So signal end of stream, then read and drop input up to
    the next newline or EOF, for at most :data:`DISCARD_TIMEOUT_S`.
    """
    if writer.can_write_eof():
        writer.write_eof()

    async def drop() -> None:
        while True:
            chunk = await reader.read(65536)
            if not chunk or b"\n" in chunk:
                return

    try:
        await asyncio.wait_for(drop(), DISCARD_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass


class SimulationServer:
    """Asyncio JSON-lines simulation service.

    Bind to a unix socket (``path=...``) or TCP (``host=...,
    port=...``); exactly one of the two.  Start with :meth:`start`
    from a running event loop (or use :class:`BackgroundServer` to
    host one in a thread); stop with :meth:`stop`.
    """

    def __init__(self, *,
                 path: Optional[str] = None,
                 host: Optional[str] = None,
                 port: int = 0,
                 pool_jobs: int = 1,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 lru_capacity: int = DEFAULT_LRU_CAPACITY,
                 use_disk_cache: Optional[bool] = None,
                 job_timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 backoff_base: Optional[float] = None,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 stats: Optional[StatsRegistry] = None):
        if (path is None) == (host is None):
            raise ValueError("bind to exactly one of path= or host=")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.path = path
        self.host = host
        self.port = port
        self.pool_jobs = max(1, pool_jobs)
        self.queue_limit = queue_limit
        self.job_timeout = job_timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.max_batch = max_batch
        self.stats = stats if stats is not None else StatsRegistry()
        if use_disk_cache is None:
            use_disk_cache = cache_enabled_by_default()
        self._disk = ResultCache() if use_disk_cache else None
        self._lru = LRUTier(lru_capacity)
        self._flight = SingleFlight()
        # Created in start(): on Python 3.9 a Queue binds the event
        # loop current at construction, which here may not be the
        # loop the server will run on.
        self._queue: Optional[asyncio.Queue] = None
        self._pending = 0            # queued + executing work items
        self._draining = False
        self._stopped = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor_task: Optional[asyncio.Task] = None
        self._connections: set = set()
        self._last_report: Optional[SweepReport] = None
        self._exec_seconds_total = 0.0
        self._executions = 0

    # ----------------------------------------------------------- lifecycle --

    async def start(self) -> None:
        """Bind the listening socket and start the executor loop."""
        self._queue = asyncio.Queue()
        limit = protocol.MAX_LINE_BYTES + 1024
        if self.path is not None:
            self._server = await asyncio.start_unix_server(
                self._serve_connection, path=self.path, limit=limit)
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, host=self.host, port=self.port,
                limit=limit)
            # Reflect the kernel-assigned port for port=0 binds.
            sockets = self._server.sockets or []
            if sockets:
                self.port = sockets[0].getsockname()[1]
        self._executor_task = asyncio.ensure_future(self._executor_loop())

    async def stop(self) -> None:
        """Stop listening, cancel the executor, fail in-flight work."""
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        self._connections.clear()
        if self._executor_task is not None:
            self._executor_task.cancel()
            try:
                await self._executor_task
            except asyncio.CancelledError:
                pass
            self._executor_task = None
        self._flight.abort_all(ExecutionFailed(
            protocol.E_SHUTDOWN, "server stopped"))

    async def drain(self) -> dict:
        """Stop admitting work and wait for in-flight work to finish."""
        self._draining = True
        while self._pending > 0:
            await asyncio.sleep(0.005)
        return {"drained": True, "pending": self._pending}

    @property
    def address(self) -> str:
        if self.path is not None:
            return self.path
        return "%s:%d" % (self.host, self.port)

    # ------------------------------------------------------------- metrics --

    def metrics(self) -> dict:
        """JSON-safe snapshot of every serving instrument."""
        return self.stats.as_dict()

    def status_payload(self) -> dict:
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "address": self.address,
            "pool_jobs": self.pool_jobs,
            "queue_limit": self.queue_limit,
            "pending": self._pending,
            "inflight_keys": len(self._flight),
            "draining": self._draining,
            "lru": self._lru.stats(),
            "disk_cache": self._disk is not None,
            "metrics": self.metrics(),
        }

    def _retry_after(self) -> float:
        """Advisory client backoff: expected time for one queue slot.

        Estimated as the mean observed execution latency times the
        queue depth ahead of the client, divided across the worker
        pool — crude, but it scales with actual load instead of being
        a constant the client must second-guess.
        """
        if not self._executions:
            return FALLBACK_RETRY_AFTER
        mean_exec = self._exec_seconds_total / self._executions
        waves = max(1.0, self._pending / float(self.pool_jobs))
        return max(FALLBACK_RETRY_AFTER, round(mean_exec * waves, 3))

    # ---------------------------------------------------------- connection --

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """Serve one client: sequential request/response lines.

        Nothing a client sends may escape this handler — malformed
        lines get structured error responses, an oversized line gets
        one final error then a clean close (line framing cannot be
        resynchronized), and disconnects just end the task.
        """
        self.stats.counter("serve.connections").add()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, error_response(
                        0, "", protocol.E_TOO_LARGE,
                        "line exceeds %d bytes"
                        % protocol.MAX_LINE_BYTES))
                    await _discard_line(reader, writer)
                    break
                if not line:
                    break
                response = await self._handle_line(line)
                if not await self._send(writer, response):
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _send(self, writer: asyncio.StreamWriter,
                    response: Response) -> bool:
        try:
            writer.write(protocol.encode_response(response))
            await writer.drain()
            return True
        except (ConnectionError, OSError):
            return False

    async def _handle_line(self, line: bytes) -> Response:
        started = time.monotonic()
        try:
            request = protocol.decode_request(line)
        except ProtocolError as exc:
            self.stats.counter("serve.protocol_errors").add()
            return error_response(0, "", exc.code, exc.message)
        try:
            response = await self._handle_request(request)
        except ExecutionFailed as exc:
            self.stats.counter("serve.failed").add()
            response = error_response(request.id, request.type,
                                      exc.code, exc.message)
        except Exception as exc:  # never let a bug kill the handler
            self.stats.counter("serve.internal_errors").add()
            response = error_response(
                request.id, request.type, protocol.E_EXECUTION,
                "internal error: %s: %s" % (type(exc).__name__, exc))
        total_us = _us(time.monotonic() - started)
        self.stats.histogram("serve.total_us").observe(total_us)
        if response.ok and response.type in ("simulate", "sample",
                                             "analyze"):
            meta = dict(response.meta)
            meta["total_us"] = total_us
            response = Response(
                id=response.id, ok=True, type=response.type,
                payload=response.payload, meta=meta)
        return response

    # ------------------------------------------------------------ requests --

    async def _handle_request(self, request: Request) -> Response:
        self.stats.counter("serve.requests").add()
        if request.type == "status":
            return Response(id=request.id, ok=True, type="status",
                            payload=self.status_payload())
        if request.type == "drain":
            payload = await self.drain()
            return Response(id=request.id, ok=True, type="drain",
                            payload=payload)
        return await self._handle_work(request)

    async def _handle_work(self, request: Request) -> Response:
        job = job_from_request(request)
        key = request_key(job)

        payload = self._lru.get(key)
        if payload is not None:
            self.stats.counter("serve.lru_hits").add()
            return self._ok(request, payload, TIER_LRU)

        payload = self._disk_get(job)
        if payload is not None:
            self.stats.counter("serve.disk_hits").add()
            self._lru.put(key, payload)
            return self._ok(request, payload, TIER_DISK)

        # A duplicate of an in-flight key always joins — even during
        # drain or under a full queue, coalescing adds no new work.
        if key in self._flight:
            _, future = self._flight.join(key)
            self.stats.counter("serve.coalesced").add()
            payload, meta = await asyncio.shield(future)
            self._count_errors(meta)
            return self._ok(request, payload, TIER_COALESCED, meta)

        if self._draining or self._stopped:
            self.stats.counter("serve.rejected").add()
            return error_response(
                request.id, request.type, protocol.E_DRAINING,
                "server is draining; not admitting new work")

        if self._pending >= self.queue_limit:
            self.stats.counter("serve.busy").add()
            retry_after = self._retry_after()
            return error_response(
                request.id, request.type, protocol.E_BUSY,
                "queue full (%d pending); retry after %.3fs"
                % (self._pending, retry_after), retry_after)

        if self._queue is None:
            raise ExecutionFailed(protocol.E_SHUTDOWN,
                                  "server is not started")
        leader, future = self._flight.join(key)
        assert leader  # no await between the membership check and here
        self._pending += 1
        self._queue.put_nowait(_WorkItem(key, job))
        payload, meta = await asyncio.shield(future)
        self._count_errors(meta)
        return self._ok(request, payload, TIER_EXECUTED, meta)

    def _ok(self, request: Request, payload: dict, tier: str,
            meta: Optional[dict] = None) -> Response:
        merged = {"tier": tier}
        if meta:
            merged.update(meta)
            merged["tier"] = tier
        return Response(id=request.id, ok=True, type=request.type,
                        payload=payload, meta=merged)

    def _count_errors(self, meta: dict) -> None:
        """Raise the stashed failure for this waiter, if any."""
        failure = meta.get("failure")
        if failure is not None:
            raise ExecutionFailed(protocol.E_EXECUTION, failure)

    def _disk_get(self, job: ServeJob) -> Optional[dict]:
        if self._disk is None or not disk_cacheable(job):
            return None
        found = self._disk.get(job.workload, job.config())
        if found is None:
            return None
        return found.to_dict()

    # ------------------------------------------------------------ executor --

    async def _executor_loop(self) -> None:
        """Drain the queue in batches; one batch executes at a time.

        Each batch runs on a worker thread (the event loop stays
        responsive for status/admission) and fans out across the
        process pool inside :func:`run_jobs`.
        """
        loop = asyncio.get_event_loop()
        while True:
            item = await self._queue.get()
            batch = [item]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.stats.histogram("serve.batch_size").observe(len(batch))
            queue_us = [_us(time.monotonic() - it.enqueued_at)
                        for it in batch]
            for waited in queue_us:
                self.stats.histogram("serve.queue_us").observe(waited)
            started = time.monotonic()
            try:
                outcomes, report = await loop.run_in_executor(
                    None, self._run_batch, [it.job for it in batch])
            except asyncio.CancelledError:
                for it in batch:
                    self._flight.fail(it.key, ExecutionFailed(
                        protocol.E_SHUTDOWN, "server stopped"))
                    self._pending -= 1
                raise
            except Exception as exc:  # scheduler infrastructure failed
                for it in batch:
                    self._flight.resolve(it.key, (None, {
                        "failure": "batch execution failed: %s: %s"
                                   % (type(exc).__name__, exc)}))
                    self._pending -= 1
                continue
            elapsed = time.monotonic() - started
            self._settle_batch(batch, outcomes, report, elapsed)

    def _settle_batch(self, batch: list, outcomes: list,
                      report: SweepReport, elapsed: float) -> None:
        per_job_us = _us(elapsed / max(1, len(batch)))
        self._last_report = report
        for index, (item, (ok, result)) in enumerate(
                zip(batch, outcomes)):
            meta: dict[str, Any] = {"exec_us": per_job_us}
            record = report.jobs[index] if index < len(report.jobs) \
                else None
            if record is not None:
                meta["attempts"] = len(record.attempts)
                retries = max(0, len(record.attempts) - 1)
                if retries:
                    self.stats.counter("serve.retries").add(retries)
                lost = sum(1 for a in record.attempts
                           if a.outcome == OUTCOME_LOST)
                if lost:
                    self.stats.counter("serve.worker_lost").add(lost)
                recovered = retries and record.attempts[-1].outcome \
                    == OUTCOME_OK
                if recovered:
                    self.stats.counter("serve.recovered").add()
            self.stats.histogram("serve.exec_us").observe(per_job_us)
            self._exec_seconds_total += elapsed / max(1, len(batch))
            self._executions += 1
            self.stats.counter("serve.executions").add()
            if ok:
                payload = result
                self._lru.put(item.key, payload)
                self._disk_put(item.job, payload)
                self._flight.resolve(item.key, (payload, meta))
            else:
                meta["failure"] = "job failed after %s attempt(s): %s" \
                    % (meta.get("attempts", "?"), result)
                self._flight.resolve(item.key, (None, meta))
            self._pending -= 1

    def _disk_put(self, job: ServeJob, payload: dict) -> None:
        if self._disk is None or not disk_cacheable(job):
            return
        try:
            self._disk.put(job.workload, job.config(),
                           SimResult.from_dict(payload))
        except (ValueError, KeyError, TypeError):
            pass  # malformed payloads never poison the disk tier

    def _run_batch(self, jobs: list) -> tuple:
        """Synchronous batch execution (runs on a worker thread)."""
        preload_traces((job.workload, job.config(), job.max_uops)
                       for job in jobs)
        return run_jobs(
            jobs, execute_serve_job, [job.label() for job in jobs],
            workers=self.pool_jobs, timeout=self.job_timeout,
            retries=self.retries, backoff_base=self.backoff_base,
            force_pool=self.pool_jobs > 1)


class BackgroundServer:
    """Host a :class:`SimulationServer` on a dedicated event loop
    thread — for tests, the load generator's in-process mode, and any
    synchronous embedder.

    Usage::

        with BackgroundServer(path="/tmp/repro.sock") as server:
            ...  # connect ServeClient(s) to server.address
    """

    def __init__(self, **kwargs):
        self.server = SimulationServer(**kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> str:
        return self.server.address

    def start(self, timeout: float = 10.0) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server failed to start within %.1fs"
                               % timeout)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        loop = self._loop
        if loop is None:
            return
        done = threading.Event()

        async def _shutdown() -> None:
            try:
                await self.server.stop()
            finally:
                done.set()
                loop.call_soon(loop.stop)

        asyncio.run_coroutine_threadsafe(_shutdown(), loop)
        done.wait(timeout)
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self._loop = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
