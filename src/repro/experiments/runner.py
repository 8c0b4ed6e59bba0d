"""Cached simulation sweeps over the workload catalog.

Thin module-level façade over :class:`~repro.experiments.engine.
SweepEngine`: results are memoised in-process *and* persisted to the
on-disk cache (``~/.cache/repro`` by default, see
:mod:`repro.experiments.cache`), keyed by workload name plus a stable
fingerprint of the full :class:`~repro.config.ProcessorConfig` — so
custom-config sweeps cache exactly like default-config ones, and the
figure/table generators (which share most of their sweeps) pay for
each simulation at most once *across* processes.

Environment knobs: ``REPRO_JOBS`` (worker processes, default 1),
``REPRO_CACHE_DIR`` (cache directory), ``REPRO_NO_CACHE`` (disable the
persistent layer), plus the fault-tolerance knobs consumed by
:mod:`repro.experiments.faults` (``REPRO_JOB_TIMEOUT``,
``REPRO_JOB_RETRIES``, ``REPRO_JOB_BACKOFF``, ``REPRO_FAULT_INJECT``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import FusionMode, ProcessorConfig
from repro.core.results import SimResult
from repro.experiments.cache import ResultCache
from repro.experiments.engine import SweepEngine
from repro.experiments.faults import SweepReport

#: Process-local memo shared by every engine this module builds, so
#: repeated figure/table calls in one process never re-read the disk.
_MEMO: Dict[str, SimResult] = {}


def _engine(jobs: Optional[int] = None,
            cache_dir: Optional[str] = None,
            use_cache: Optional[bool] = None,
            job_timeout: Optional[float] = None,
            retries: Optional[int] = None) -> SweepEngine:
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return SweepEngine(jobs=jobs, cache=cache, use_cache=use_cache,
                       memo=_MEMO, job_timeout=job_timeout,
                       retries=retries)


def get_result(workload: str, mode: FusionMode,
               config: Optional[ProcessorConfig] = None,
               use_cache: Optional[bool] = None) -> SimResult:
    """Simulate one (workload, mode) pair through the cache stack."""
    return _engine(use_cache=use_cache).result(workload, mode, config)


def get_segmented_result(workload: str, mode: FusionMode,
                         segments: int,
                         warmup: Optional[int] = None,
                         config: Optional[ProcessorConfig] = None,
                         jobs: Optional[int] = None,
                         max_uops: Optional[int] = None,
                         scale_to: Optional[int] = None,
                         job_timeout: Optional[float] = None,
                         retries: Optional[int] = None) -> SimResult:
    """Segment-parallel exact simulation of one (workload, mode).

    Splices K independently-simulated segments back into one
    :class:`SimResult` — bit-exact against serial simulation when
    ``warmup`` is ``None`` (full-prefix warmup), within a warmup-length
    -dependent tolerance otherwise.  Spliced results stay in the
    in-process memo only; the persistent disk cache holds exclusively
    serial full-detail results.
    """
    engine = _engine(jobs=jobs, job_timeout=job_timeout, retries=retries)
    return engine.segmented(
        workload, mode, segments, warmup=warmup, config=config,
        max_uops=max_uops, scale_to=scale_to)


def run_suite_with_report(modes: Iterable[FusionMode],
                          workloads: Optional[List[str]] = None,
                          config: Optional[ProcessorConfig] = None,
                          jobs: Optional[int] = None,
                          cache_dir: Optional[str] = None,
                          use_cache: Optional[bool] = None,
                          job_timeout: Optional[float] = None,
                          retries: Optional[int] = None,
                          ) -> Tuple[Dict[str, Dict[str, SimResult]],
                                     Optional[SweepReport]]:
    """Like :func:`run_suite`, returning ``(results, report)``.

    ``report`` is this sweep's own :class:`SweepReport` (``None`` when
    every job was served from cache and no scheduler ran).  It belongs
    to this call alone, so sweeps running concurrently in one process
    cannot clobber each other's reports.  A failed sweep raises
    :class:`~repro.experiments.engine.SweepJobError`, whose ``report``
    carries the same record.
    """
    engine = _engine(jobs=jobs, cache_dir=cache_dir, use_cache=use_cache,
                     job_timeout=job_timeout, retries=retries)
    results = engine.sweep(modes, workloads=workloads, config=config)
    return results, engine.last_report


def run_suite(modes: Iterable[FusionMode],
              workloads: Optional[List[str]] = None,
              config: Optional[ProcessorConfig] = None,
              jobs: Optional[int] = None,
              cache_dir: Optional[str] = None,
              use_cache: Optional[bool] = None,
              job_timeout: Optional[float] = None,
              retries: Optional[int] = None,
              ) -> Dict[str, Dict[str, SimResult]]:
    """Sweep workloads x modes; returns results[workload][mode.value].

    ``jobs > 1`` fans cache misses across worker processes; the result
    is bit-identical to the sequential (default) run.  ``job_timeout``
    and ``retries`` feed the fault-tolerant scheduler (see
    :mod:`repro.experiments.faults`); :func:`run_suite_with_report`
    also returns the run's execution report.
    """
    results, _ = run_suite_with_report(
        modes, workloads=workloads, config=config, jobs=jobs,
        cache_dir=cache_dir, use_cache=use_cache,
        job_timeout=job_timeout, retries=retries)
    return results


def clear_cache(disk: bool = False) -> None:
    """Drop the in-process memo (and, with ``disk=True``, the
    persistent cache directory's entries too)."""
    _MEMO.clear()
    if disk:
        ResultCache().clear()
