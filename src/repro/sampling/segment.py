"""Segment-parallel exact simulation: split, simulate, splice.

A long trace is cut into K contiguous measurement segments.  Each
segment is simulated independently on a sub-trace that *starts before*
the segment (the warmup prefix) and *extends past* it (the drain
horizon), and reports the **delta** of every counter between two
resumable-run stops — one at the segment's start boundary, one at its
end boundary.  Summing the deltas splices the per-segment results back
into whole-trace totals.

Splice contract (verified by the tier-1 suite, documented in
DESIGN §4e):

* **Full warmup** (``warmup=None``: every sub-trace starts at µ-op 0)
  — the splice is **bit-exact**: each segment's machine is, at the
  measurement boundaries, the identical machine the serial run passes
  through, because the sub-trace is a pure prefix of the trace whose
  truncation point lies at least :data:`~repro.pipeline.core.
  DRAIN_HORIZON` µ-ops beyond the segment end — farther than fetch can
  reach before the boundary commits.  Every counter — cycles, CPI
  buckets, fusion censuses — telescopes to the serial totals.
* **Bounded warmup** (``warmup=W``) — sub-traces start W µ-ops before
  the segment, from cold state; results match serial within a
  tolerance that shrinks as W grows.  Exact-prefix warmup costs
  O(K·L) total work (no speedup beyond parallelism over the tail);
  bounded warmup costs O(L + K·W) and is where the wall-clock win is.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import ProcessorConfig
from repro.core.results import SimResult
from repro.isa.trace import Trace
from repro.pipeline.core import DRAIN_HORIZON, CoreStats, PipelineCore

#: CoreStats counter names, minus the nested bucket dict (handled
#: separately in the delta/splice arithmetic).
_INT_FIELDS = tuple(f.name for f in dataclasses.fields(CoreStats)
                    if f.name != "cpi_buckets")


@dataclass(frozen=True)
class SegmentPlan:
    """One segment, in parent-trace µ-op coordinates.

    ``[seg_start, seg_end)`` is the measured region; the sub-trace the
    worker simulates is ``[sub_start, sub_stop)``.
    """

    index: int
    seg_start: int
    seg_end: int
    sub_start: int
    sub_stop: int

    @property
    def measure_from(self) -> int:
        """Segment start in sub-trace coordinates."""
        return self.seg_start - self.sub_start

    @property
    def measure_to(self) -> int:
        """Segment end in sub-trace coordinates."""
        return self.seg_end - self.sub_start


def plan_segments(total: int, segments: int,
                  warmup: Optional[int] = None) -> List[SegmentPlan]:
    """Cut ``total`` µ-ops into up to ``segments`` contiguous plans.

    ``warmup=None`` plans full-prefix (bit-exact) sub-traces; an
    integer plans bounded warmup of that many µ-ops.  Empty segments
    (more segments than µ-ops) are dropped.
    """
    if segments < 1:
        raise ValueError("need at least one segment")
    if warmup is not None and warmup < 0:
        raise ValueError("warmup must be non-negative")
    bounds = [round(i * total / segments) for i in range(segments + 1)]
    plans: List[SegmentPlan] = []
    for i in range(segments):
        b0, b1 = bounds[i], bounds[i + 1]
        if b0 >= b1:
            continue
        sub_start = 0 if warmup is None else max(0, b0 - warmup)
        sub_stop = total if i == segments - 1 \
            else min(total, b1 + DRAIN_HORIZON)
        plans.append(SegmentPlan(index=i, seg_start=b0, seg_end=b1,
                                 sub_start=sub_start, sub_stop=sub_stop))
    return plans


def simulate_segment(sub: Trace, config: ProcessorConfig,
                     measure_from: int, measure_to: int) -> Dict:
    """Simulate one sub-trace; return the measured region's deltas.

    The return value is a plain picklable dict (workers ship it back
    across process boundaries): per-counter deltas, the CPI-bucket
    deltas, and the segment's contributions to the derived-metric
    denominators (memory µ-ops, prediction-needing oracle pairs whose
    head lies in the measured region).
    """
    core = PipelineCore(sub, config)
    if measure_from > 0:
        core.run(until_instructions=measure_from)
    before = core.stats.to_dict()
    core.run(until_instructions=measure_to)
    after = core.stats.to_dict()
    stats_delta = {name: after[name] - before[name]
                   for name in _INT_FIELDS}
    before_buckets = before.get("cpi_buckets") or {}
    stats_delta["cpi_buckets"] = {
        bucket: count - before_buckets.get(bucket, 0)
        for bucket, count in (after.get("cpi_buckets") or {}).items()}
    eligible = sum(1 for head, _tail in core.predictive_pairs
                   if measure_from <= head < measure_to)
    memory_uops = sum(1 for mo in sub.uops[measure_from:measure_to]
                      if mo.is_memory)
    return {"stats": stats_delta, "eligible_pairs": eligible,
            "memory_uops": memory_uops}


def splice(deltas: List[Dict], workload: str,
           config: ProcessorConfig) -> SimResult:
    """Sum per-segment deltas into one whole-trace :class:`SimResult`."""
    totals = {name: 0 for name in _INT_FIELDS}
    buckets: Dict[str, int] = {}
    eligible = 0
    memory_uops = 0
    for delta in deltas:
        for name in _INT_FIELDS:
            totals[name] += delta["stats"][name]
        for bucket, count in delta["stats"]["cpi_buckets"].items():
            buckets[bucket] = buckets.get(bucket, 0) + count
        eligible += delta["eligible_pairs"]
        memory_uops += delta["memory_uops"]
    stats = CoreStats(**totals)
    stats.cpi_buckets = buckets
    return SimResult(
        workload=workload,
        mode=config.fusion_mode,
        stats=stats,
        total_memory_uops=memory_uops,
        eligible_predictive_pairs=eligible,
        commit_width=config.commit_width)


def segmented_simulate(trace: Trace, config: ProcessorConfig,
                       segments: int,
                       warmup: Optional[int] = None,
                       name: Optional[str] = None) -> SimResult:
    """Serial reference driver: plan, simulate each segment, splice.

    The parallel path lives in :mod:`repro.experiments.engine` (segment
    jobs over the multiprocessing sweep pool); this in-process loop is
    the contract's executable definition and what the tier-1 splice
    tests exercise.
    """
    plans = plan_segments(len(trace), segments, warmup)
    deltas = [simulate_segment(
        trace.segment(plan.sub_start, plan.sub_stop), config,
        plan.measure_from, plan.measure_to) for plan in plans]
    return splice(deltas, name or trace.name, config)
