"""Executable job descriptions for the simulation service.

The server turns each admitted request into a :class:`ServeJob` — a
small picklable value object — and batches of jobs are executed
through the fault-tolerant scheduler
(:func:`repro.experiments.faults.run_jobs`) with
:func:`execute_serve_job` as the worker.  Workers return plain
``dict`` payloads (``SimResult.to_dict()`` et al.) rather than rich
objects, so results cross process boundaries cheaply and drop
straight into JSON responses; the server rehydrates a
:class:`~repro.core.results.SimResult` only when persisting to the
disk cache.

:func:`request_key` is the coalescing identity: two requests share a
key exactly when they are guaranteed to produce bit-identical
payloads — same verb, same workload capture, same full
configuration fingerprint, same sampling parameters.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from typing import Optional

from repro.analysis.differential import analyze_workload
from repro.config import FusionMode, ProcessorConfig
from repro.core.simulator import simulate
from repro.experiments.faults import JobFailure, maybe_inject_fault
from repro.sampling.sample import sampled_simulate
from repro.serve.protocol import Request, normalize_mode
from repro.workloads.catalog import build_workload

#: Mode used when a request leaves ``mode`` empty.
DEFAULT_MODE = FusionMode.HELIOS


@dataclass(frozen=True)
class ServeJob:
    """One executable unit of server work (picklable).

    ``mode`` is the canonical :class:`FusionMode` *value*;
    ``max_uops`` of 0 means the catalog's default capture length;
    ``overrides`` are scalar :class:`ProcessorConfig` field overrides.
    """

    type: str
    workload: str
    mode: str
    max_uops: int = 0
    overrides: dict = field(default_factory=dict)
    windows: int = 0
    warmup: int = 0

    def config(self) -> ProcessorConfig:
        """The full processor configuration this job runs under."""
        base = ProcessorConfig(**self.overrides) if self.overrides \
            else ProcessorConfig()
        return dataclasses.replace(base, fusion_mode=FusionMode(self.mode))

    def label(self) -> tuple:
        """(workload, mode) label for the fault scheduler — matches the
        sweep engine's convention, so fault-injection tokens are the
        familiar ``"workload|mode|aN"`` shape."""
        return (self.workload, self.mode)


def job_from_request(request: Request) -> ServeJob:
    """Build the executable job for one validated work request."""
    if request.type not in ("simulate", "sample", "analyze"):
        raise ValueError("request type %r is not executable"
                         % request.type)
    mode = normalize_mode(request.mode) if request.mode \
        else DEFAULT_MODE.value
    return ServeJob(
        type=request.type,
        workload=request.workload,
        mode=mode,
        max_uops=request.max_uops,
        overrides=dict(request.config),
        windows=request.windows,
        warmup=request.warmup,
    )


def request_key(job: ServeJob) -> str:
    """Coalescing identity: equal keys guarantee equal payloads.

    The configuration fingerprint covers every timing-relevant field
    (including the fusion mode), so distinct overrides or modes can
    never collide; the capture length and sampling parameters are
    appended because they change the executed trace, not the config.
    """
    return "%s|%s|%s|u%d|w%d|h%d" % (
        job.type, job.workload, job.config().fingerprint(),
        job.max_uops, job.windows, job.warmup)


def disk_cacheable(job: ServeJob) -> bool:
    """Whether the persistent result cache may serve/store this job.

    The disk tier holds exclusively full-detail default-capture
    simulation results (the same contract the sweep engine keeps), so
    only ``simulate`` jobs at the catalog's default capture length
    qualify.
    """
    return job.type == "simulate" and job.max_uops == 0


def execute_serve_job(job: ServeJob,
                      fault_token: Optional[str] = None) -> tuple:
    """Scheduler worker entry: run one job, never raise.

    Follows the :func:`repro.experiments.faults.run_jobs` worker
    convention — ``worker(job, token) -> (ok, payload)`` with a
    picklable :class:`JobFailure` on the failure path.  Top-level and
    argument-picklable, so the scheduler can ship it to worker
    processes; faults injected via ``REPRO_FAULT_INJECT`` fire here
    exactly as they do for sweep jobs, so a crash surfaces to the
    server as a retried or failed job, never an exception in the
    serving loop.
    """
    try:
        maybe_inject_fault(fault_token)
        return True, _execute(job)
    except Exception as exc:  # noqa: BLE001 — isolate *any* job failure
        return False, JobFailure.from_exception(exc)


def _execute(job: ServeJob) -> dict:
    """Run one job to completion; returns its JSON-safe payload."""
    config = job.config()
    if job.type == "simulate":
        trace = build_workload(job.workload, max_uops=job.max_uops)
        return simulate(trace, config, name=job.workload).to_dict()
    if job.type == "sample":
        kwargs = {}
        if job.windows:
            kwargs["windows"] = job.windows
        if job.warmup:
            kwargs["warmup"] = job.warmup
        trace = build_workload(job.workload, max_uops=job.max_uops)
        estimate = sampled_simulate(trace, config, name=job.workload,
                                    **kwargs)
        return estimate.to_dict()
    if job.type == "analyze":
        report = analyze_workload(
            job.workload, modes=[FusionMode(job.mode)], config=config,
            max_uops=job.max_uops or None)
        return report.to_dict()
    raise ValueError("unexecutable job type %r" % job.type)
