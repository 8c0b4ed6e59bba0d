"""Hot-path profiling (``repro profile``).

Wraps one :meth:`PipelineCore.run` in :mod:`cProfile` and reduces the
flat profile to the two views hot-loop work actually needs:

* **per-stage attribution** — every profiled function is assigned to
  one pipeline stage (Fetch/Decode/Rename/Dispatch/Issue/Commit/...)
  or subsystem (memory hierarchy, predictors, fusion matching), and
  the stage's *total* own-time is reported.  ``tottime`` partitions
  wall-clock exactly, so the stage percentages sum to ~100% with no
  double counting — unlike ``cumtime``, which nests.
* **top functions** — the classic hottest-functions table, for drilling
  into a stage once the attribution names it.

The same run's top-down CPI buckets ride along, so one command answers
both "where do the *seconds* go?" (host profile) and "where do the
*cycles* go?" (simulated machine) — the two questions are routinely
confused and their answers routinely differ.

Profiling is measurement, not simulation: the profiled run is
~2-3x slower than a bare run and its wall-clock numbers must never be
compared against unprofiled timings.  Cycle counts, of course,
are identical — the profiler cannot perturb simulated time.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from typing import Dict, List, Optional, Tuple

from repro.config import FusionMode, ProcessorConfig
from repro.pipeline.core import PipelineCore
from repro.workloads import build_workload

#: core.py method -> pipeline stage.  Helpers are charged to the stage
#: that calls them on the hot path.
_CORE_STAGES = {
    "_fetch": "fetch", "_fetch_stall": "fetch",
    "_decode": "decode", "_admit": "decode", "_admit_single": "decode",
    "_try_helios_fusion": "decode", "_try_oracle_fusion": "decode",
    "_find_aq_head": "decode", "_replay_cached_group": "decode",
    "_rename": "rename", "_unfuse_pending": "rename",
    "_dispatch": "dispatch",
    "_issue": "issue", "_wake_waiters": "issue",
    "_execute_load": "issue", "_execute_store": "issue",
    "_access_fused_pair": "issue", "_check_fused_span": "issue",
    "_fusion_mispredict": "flush", "_flush_from": "flush",
    "_unfuse_inflight": "flush",
    "_commit": "commit", "_account_commit": "commit",
    "_commit_group_ready": "commit", "_maybe_take_interrupt": "commit",
    "_schedule_drain": "commit", "_drain_stores": "commit",
    "_train_uch": "train_uch",
    "_run": "cycle_loop", "run": "cycle_loop",
    "_idle_snapshot": "cycle_loop", "_next_event_cycle": "cycle_loop",
    "_fast_forward": "cycle_loop", "_stall_slot_bucket": "cycle_loop",
}

#: source file substring -> stage/subsystem, for everything outside
#: core.py.  First match wins; order matters.
_FILE_STAGES = [
    ("pipeline/rename.py", "rename"),
    ("pipeline/lsq.py", "lsq"),
    ("pipeline/uop.py", "uop_bookkeeping"),
    ("pipeline/uop_cache.py", "decode"),
    ("memory/", "memory"),
    ("predictors/", "predictors"),
    ("fusion/", "fusion_match"),
]


def _classify(filename: str, funcname: str) -> str:
    if filename.endswith("pipeline/core.py"):
        return _CORE_STAGES.get(funcname, "cycle_loop")
    for fragment, stage in _FILE_STAGES:
        if fragment in filename:
            return stage
    return "other"


def profile_run(workload: str,
                mode: FusionMode = FusionMode.HELIOS,
                max_uops: Optional[int] = None,
                config: Optional[ProcessorConfig] = None,
                top: int = 15) -> Dict:
    """Profile one ``(workload, mode)`` pipeline run.

    Returns a JSON-able payload: run headline numbers, per-stage
    own-time attribution, the ``top`` hottest functions, and the
    simulated top-down CPI buckets.  The live profiler object is
    attached under ``"_profiler"`` (stripped by :func:`render_profile`
    consumers that serialize) so the CLI can dump a ``.pstats`` file.
    """
    base = config or ProcessorConfig()
    full = base.with_mode(mode)
    trace = build_workload(workload, max_uops=max_uops)
    core = PipelineCore(trace, full)

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    stats = core.run()
    profiler.disable()
    run_s = time.perf_counter() - start

    flat = pstats.Stats(profiler)
    stage_time: Dict[str, float] = {}
    stage_calls: Dict[str, int] = {}
    rows: List[Tuple[float, float, int, str]] = []
    total_tt = 0.0
    for (filename, line, funcname), (cc, nc, tt, ct, _callers) \
            in flat.stats.items():
        total_tt += tt
        stage = _classify(filename, funcname)
        stage_time[stage] = stage_time.get(stage, 0.0) + tt
        stage_calls[stage] = stage_calls.get(stage, 0) + nc
        rows.append((tt, ct, nc, "%s (%s:%d)"
                     % (funcname, filename.rsplit("/", 1)[-1], line)))
    rows.sort(reverse=True)

    stages = sorted(stage_time, key=stage_time.get, reverse=True)
    uops = stats.uops_committed
    payload = {
        "workload": workload,
        "mode": mode.value,
        "max_uops": max_uops,
        "uops": len(trace),
        "uops_committed": uops,
        "cycles": stats.cycles,
        "ipc": round(stats.ipc, 4),
        "profiled_run_s": round(run_s, 4),
        "profiled_uops_per_s": round(uops / run_s) if run_s > 0 else None,
        "stages": [
            {
                "stage": stage,
                "tottime_s": round(stage_time[stage], 4),
                "pct": round(100.0 * stage_time[stage] / total_tt, 1)
                if total_tt else 0.0,
                "calls": stage_calls[stage],
            }
            for stage in stages
        ],
        "top_functions": [
            {
                "function": label,
                "ncalls": nc,
                "tottime_s": round(tt, 4),
                "cumtime_s": round(ct, 4),
            }
            for tt, ct, nc, label in rows[:top]
        ],
        "cpi_buckets": dict(stats.cpi_buckets or {}),
        "_profiler": profiler,
    }
    return payload


def render_profile(payload: Dict) -> str:
    """Human-readable report for one :func:`profile_run` payload."""
    lines = []
    lines.append("profile: %s under %s  (%d µ-ops, %d cycles, IPC %.4f)"
                 % (payload["workload"], payload["mode"], payload["uops"],
                    payload["cycles"], payload["ipc"]))
    lines.append("profiled run: %.3f s  (~%s µops/s under the profiler;"
                 " not comparable to unprofiled runs)"
                 % (payload["profiled_run_s"],
                    payload["profiled_uops_per_s"]))
    lines.append("")
    lines.append("host time by pipeline stage (own time, no nesting):")
    for row in payload["stages"]:
        lines.append("  %-16s %7.3f s  %5.1f%%  %9d calls"
                     % (row["stage"], row["tottime_s"], row["pct"],
                        row["calls"]))
    lines.append("")
    lines.append("hottest functions:")
    lines.append("  %9s  %8s  %8s  %s"
                 % ("ncalls", "tottime", "cumtime", "function"))
    for row in payload["top_functions"]:
        lines.append("  %9d  %8.4f  %8.4f  %s"
                     % (row["ncalls"], row["tottime_s"], row["cumtime_s"],
                        row["function"]))
    buckets = payload.get("cpi_buckets") or {}
    if buckets:
        total = sum(buckets.values()) or 1
        lines.append("")
        lines.append("simulated top-down slots (where the *cycles* go):")
        for name, slots in sorted(buckets.items(), key=lambda kv: -kv[1]):
            lines.append("  %-16s %12d  %5.1f%%"
                         % (name, slots, 100.0 * slots / total))
    return "\n".join(lines)


def dump_pstats(payload: Dict, path: str) -> str:
    """Write the raw profile for ``snakeviz``/``pstats`` consumption."""
    payload["_profiler"].dump_stats(path)
    return path


def serializable(payload: Dict) -> Dict:
    """The payload minus the live profiler object (JSON-safe)."""
    return {key: value for key, value in payload.items()
            if not key.startswith("_")}
