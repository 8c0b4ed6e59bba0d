#!/usr/bin/env python
"""CI coverage ratchet over a ``coverage.py`` JSON report.

Usage::

    python tools/check_coverage.py [coverage.json]

Reads the JSON report that ``pytest --cov=repro
--cov-report=json:coverage.json`` writes and enforces the ratchet
floor committed in ``tools/coverage_floor.json``: total line coverage
must not drop below the floor.  This is a regression tripwire, not a
target — raise the floor as real coverage grows, never lower it to
make a PR pass.

The tool deliberately imports **nothing** from ``coverage``/
``pytest-cov`` (neither is a runtime dependency of the repo; CI
installs them for the gated job only), so it runs anywhere.  When the
report file is missing the behaviour splits:

* under CI (``$CI`` set, as on every GitHub runner) — hard failure,
  a missing report means the coverage step silently broke;
* locally — a warning and exit 0, so developers without pytest-cov
  installed can still run the whole ``tools/`` gate suite.
"""

from __future__ import annotations

import json
import os
import sys

FLOOR_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "coverage_floor.json")

#: How many of the least-covered files to print for orientation.
WORST_FILES = 5


def load_floor() -> float:
    with open(FLOOR_FILE, "r", encoding="utf-8") as handle:
        return float(json.load(handle)["line_percent_floor"])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    path = argv[0] if argv else "coverage.json"

    try:
        floor = load_floor()
    except (OSError, ValueError, KeyError) as exc:
        print("check_coverage: cannot read floor from %s: %s"
              % (FLOOR_FILE, exc))
        return 2

    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        if os.environ.get("CI"):
            print("check_coverage: FAIL — cannot read %s under CI "
                  "(%s); did the --cov run break?" % (path, exc))
            return 2
        print("check_coverage: no %s (%s) — skipping locally; "
              "install pytest-cov and run `pytest --cov=repro "
              "--cov-report=json:%s` to produce one"
              % (path, exc, path))
        return 0
    except ValueError as exc:
        print("check_coverage: %s is not valid JSON: %s" % (path, exc))
        return 2

    totals = payload.get("totals") or {}
    percent = totals.get("percent_covered")
    if percent is None:
        print("check_coverage: %s has no totals.percent_covered "
              "(not a coverage.py JSON report?)" % path)
        return 2

    covered = totals.get("covered_lines", 0)
    statements = totals.get("num_statements", 0)
    print("check_coverage: total line coverage %.2f%% "
          "(%d/%d lines, floor %.2f%%)"
          % (percent, covered, statements, floor))

    files = payload.get("files") or {}
    ranked = sorted(
        ((info.get("summary", {}).get("percent_covered", 0.0), name)
         for name, info in files.items()),
        key=lambda pair: pair[0])
    for file_percent, name in ranked[:WORST_FILES]:
        print("check_coverage:   least covered: %-50s %6.2f%%"
              % (name, file_percent))

    if percent < floor:
        print("check_coverage: FAIL — coverage fell below the "
              "committed floor (raise tests, not the floor)")
        return 1
    headroom = percent - floor
    if headroom > 5.0:
        print("check_coverage: %.2f%% of headroom — consider "
              "ratcheting the floor up in %s" % (headroom, FLOOR_FILE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
