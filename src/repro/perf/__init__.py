"""Host-time measurement of the simulator.

* :mod:`repro.perf.profile` — ``repro profile``: one cProfile'd run
  with host time attributed to pipeline stages.
* :mod:`repro.perf.golden` — the golden cycle snapshot that pins
  simulated time while the host code changes.

End-to-end wall-clock numbers come from the benchmark in
``perfbench/`` at the repository root.
"""

from repro.perf.profile import (
    dump_pstats,
    profile_run,
    render_profile,
    serializable,
)

__all__ = [
    "dump_pstats",
    "profile_run",
    "render_profile",
    "serializable",
]
