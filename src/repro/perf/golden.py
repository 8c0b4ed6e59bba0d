"""Golden cycle-count snapshots: the cycle-exactness contract.

A perf refactor of the hot loop is only safe if it is *cycle-exact* —
identical ``cycles`` and identical full stats on every catalog workload
under every fusion mode.  This module computes the snapshot both the
committed golden file (``tests/golden_cycles.json``) and its updater
(``tools/update_golden_cycles.py``) are built from, so any timing
change must arrive as an explicit, reviewable golden-file diff instead
of drifting silently under an optimization.

The snapshot runs every catalog workload at a deliberately small µ-op
budget (:data:`GOLDEN_MAX_UOPS`): large enough to exercise fusion
discovery, flush repair, and the memory hierarchy, small enough that
the full 32 × 6 matrix stays a smoke-test, not a sweep.

Each entry pins two values:

* ``cycles`` — the headline number a timing bug would move; kept as a
  plain integer so a golden diff is human-readable.
* ``stats_sha`` — a short SHA-256 over the *entire* sorted
  :meth:`~repro.pipeline.core.CoreStats.to_dict`, including the
  top-down CPI buckets, so a refactor that keeps ``cycles`` but
  corrupts attribution (or any other counter) still fails loudly.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import FusionMode, ProcessorConfig
from repro.core.simulator import simulate
from repro.workloads import build_workload, workload_names

#: µ-op budget for golden runs.  Small by design (see module docstring);
#: baked into the golden file's meta so a budget change regenerates it.
GOLDEN_MAX_UOPS = 4000

#: Schema version of the golden file; bump when the entry layout changes.
GOLDEN_SCHEMA_VERSION = 1


def stats_sha(stats_dict: Dict) -> str:
    """Short digest of a full ``CoreStats.to_dict()`` payload."""
    payload = json.dumps(stats_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def snapshot_entry(workload: str, mode: FusionMode,
                   max_uops: int = GOLDEN_MAX_UOPS) -> Dict[str, object]:
    """One golden entry: run ``workload`` under ``mode`` and pin it."""
    trace = build_workload(workload, max_uops=max_uops)
    stats = simulate(trace, ProcessorConfig().with_mode(mode)).stats
    return {"cycles": stats.cycles, "stats_sha": stats_sha(stats.to_dict())}


def snapshot_matrix(
    workloads: Optional[Iterable[str]] = None,
    modes: Optional[Iterable[FusionMode]] = None,
    max_uops: int = GOLDEN_MAX_UOPS,
    progress=None,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """The full golden matrix: ``{workload: {mode: entry}}``.

    ``progress`` is an optional callable invoked as
    ``progress(workload, mode_name, entry)`` after each cell — the
    updater uses it to narrate, tests leave it ``None``.
    """
    result: Dict[str, Dict[str, Dict[str, object]]] = {}
    for workload in (workloads or workload_names()):
        per_mode: Dict[str, Dict[str, object]] = {}
        for mode in (modes or FusionMode):
            entry = snapshot_entry(workload, mode, max_uops=max_uops)
            per_mode[mode.value] = entry
            if progress is not None:
                progress(workload, mode.value, entry)
        result[workload] = per_mode
    return result


def golden_document(matrix: Dict) -> Dict:
    """Wrap a matrix in the committed golden-file envelope."""
    return {
        "schema": GOLDEN_SCHEMA_VERSION,
        "max_uops": GOLDEN_MAX_UOPS,
        "config_fingerprint": ProcessorConfig().fingerprint(),
        "snapshots": matrix,
    }


def compare_to_golden(golden: Dict, matrix: Dict) -> List[str]:
    """Human-readable mismatch lines between a golden doc and a fresh run.

    Empty list means cycle-exact.  Covers value drift, missing cells
    (workload/mode dropped from the catalog), and extra cells (added
    without regenerating the golden file).
    """
    problems: List[str] = []
    expected = golden["snapshots"]
    for workload, modes in sorted(expected.items()):
        fresh_modes = matrix.get(workload)
        if fresh_modes is None:
            problems.append("%s: missing from fresh run" % workload)
            continue
        for mode_name, entry in sorted(modes.items()):
            fresh = fresh_modes.get(mode_name)
            if fresh is None:
                problems.append("%s/%s: missing from fresh run"
                                % (workload, mode_name))
            elif fresh["cycles"] != entry["cycles"]:
                problems.append(
                    "%s/%s: cycles %d -> %d"
                    % (workload, mode_name, entry["cycles"], fresh["cycles"]))
            elif fresh["stats_sha"] != entry["stats_sha"]:
                problems.append(
                    "%s/%s: cycles identical (%d) but stats digest drifted "
                    "%s -> %s" % (workload, mode_name, entry["cycles"],
                                  entry["stats_sha"], fresh["stats_sha"]))
    for workload, modes in sorted(matrix.items()):
        golden_modes = expected.get(workload, {})
        for mode_name in sorted(modes):
            if workload not in expected or mode_name not in golden_modes:
                problems.append(
                    "%s/%s: not in golden file (regenerate with "
                    "tools/update_golden_cycles.py)" % (workload, mode_name))
    return problems
