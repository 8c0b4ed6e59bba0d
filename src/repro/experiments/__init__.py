"""Experiment harness: regenerates every table and figure of the
paper's evaluation (see DESIGN.md §5 for the experiment index).

* :mod:`repro.experiments.engine` — parallel sweep engine
  (``multiprocessing`` fan-out over (workload, config) jobs).
* :mod:`repro.experiments.faults` — fault-tolerant job scheduler
  (timeouts, retries, lost-worker recovery) and fault injection.
* :mod:`repro.experiments.cache` — persistent on-disk result cache
  keyed by workload + configuration fingerprint.
* :mod:`repro.experiments.runner` — cached (workload x configuration)
  simulation sweeps (module-level façade over the engine).
* :mod:`repro.experiments.figures` — Figures 2, 3, 4, 5, 8, 9, 10.
* :mod:`repro.experiments.tables` — Tables I, II, III.
"""

from repro.experiments.analysis_suite import legality_census
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.experiments.engine import (
    SweepEngine,
    SweepJobError,
    preload_traces,
)
from repro.experiments.faults import (
    FaultPlan,
    JobFailure,
    SweepReport,
    parse_fault_spec,
    run_jobs,
)
from repro.experiments.figures import (
    cpi_accounting,
    figure2,
    figure3,
    figure4,
    figure5,
    figure8,
    figure9,
    figure10,
)
from repro.experiments.runner import (
    clear_cache,
    get_result,
    get_segmented_result,
    run_suite,
    run_suite_with_report,
)
from repro.experiments.tables import table1, table2, table3

__all__ = [
    "ResultCache", "SweepEngine", "SweepJobError", "default_cache_dir",
    "FaultPlan", "JobFailure", "SweepReport",
    "parse_fault_spec", "run_jobs",
    "cpi_accounting",
    "figure2", "figure3", "figure4", "figure5",
    "figure8", "figure9", "figure10",
    "clear_cache", "get_result", "get_segmented_result",
    "preload_traces",
    "run_suite", "run_suite_with_report",
    "legality_census",
    "table1", "table2", "table3",
]
