"""Legality-census experiment: the analyzer's view of every workload.

``repro experiment legality`` tabulates, per workload, how many
candidate catalyst windows the static legality analyzer
(:mod:`repro.analysis.legality`) proves fuseable, how many the oracle
actually pairs, and the dominant rejection reason — the quantitative
companion to the paper's Section III census of *why* pairs cannot
fuse (aliasing stores, deadlock dependences, span overflows).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.legality import analyze_trace_legality
from repro.config import ProcessorConfig
from repro.experiments.figures import ExperimentResult, selected_workloads
from repro.fusion.oracle import cached_oracle_pairs
from repro.stats import amean
from repro.workloads import build_workload


def legality_census(workloads: Optional[Sequence[str]] = None,
                    config: Optional[ProcessorConfig] = None,
                    ) -> ExperimentResult:
    """Per-workload legal-pair counts and the dominant rejection."""
    cfg = config or ProcessorConfig()
    rows: List[List] = []
    for name in selected_workloads(workloads):
        trace = build_workload(name)
        report = analyze_trace_legality(
            trace, granularity=cfg.cache_access_granularity,
            max_distance=cfg.max_fusion_distance)
        pairs = cached_oracle_pairs(
            trace, granularity=cfg.cache_access_granularity,
            max_distance=cfg.max_fusion_distance)
        legal = len(report.legal)
        dominant = "-"
        if report.reason_counts:
            reason = max(report.reason_counts,
                         key=lambda r: report.reason_counts[r])
            dominant = "%s (%d)" % (reason.value,
                                    report.reason_counts[reason])
        rows.append([
            name, report.candidates, legal,
            100.0 * legal / report.candidates if report.candidates else 0.0,
            len(pairs), dominant,
        ])
    summary = ["average",
               amean(r[1] for r in rows), amean(r[2] for r in rows),
               amean(r[3] for r in rows), amean(r[4] for r in rows), ""]
    return ExperimentResult(
        name="Legality census: provably-fuseable catalyst windows",
        headers=["workload", "candidates", "legal", "legal%",
                 "oracle pairs", "dominant rejection"],
        rows=rows, summary=summary,
        notes="oracle pairs <= legal by the containment property "
              "(checked by `repro analyze` and the property tests)")
