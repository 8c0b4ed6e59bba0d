"""The committed reference the benchmark checks outputs against.

``reference.json`` holds, for the program at the commit that generated
it:

* ``simulations`` — cycles and ``repro.perf.golden.stats_sha`` of every
  (kernel, mode, capture length) any workload simulates, keyed
  ``kernel|mode|u<max_uops>`` (``u0`` is the catalog's default capture);
* ``experiments`` — a row-order-independent digest of every rendered
  ``repro experiment`` over the reproduce workloads' kernel subset.

A deliberate timing change re-references on purpose, as golden cycles
are re-goldened::

    python3 perfbench/run.py --make-reference
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

from common import (
    EXPERIMENTS,
    KERNELS,
    MODES,
    WORK_ROOT,
    BenchError,
    output_digest,
    program_env,
    repro_cmd,
    run_process,
)

PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "reference.json"
)
SCHEMA = 1


def sim_key(kernel: str, mode: str, max_uops: int = 0) -> str:
    return "%s|%s|u%d" % (kernel, mode, max_uops)


def load() -> dict:
    with open(PATH, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("schema") != SCHEMA:
        raise BenchError(
            "reference %s has schema %r, expected %d"
            % (PATH, data.get("schema"), SCHEMA)
        )
    return data


def sim_entry(stats: dict) -> dict:
    """Reference entry of one simulation's ``CoreStats.to_dict()``."""
    from repro.perf.golden import stats_sha

    return {"cycles": stats["cycles"], "stats_sha": stats_sha(stats)}


def sim_matches(reference: dict, key: str, stats) -> bool:
    """Whether a simulation's stats equal the reference for its key."""
    expected = reference["simulations"].get(key)
    return (
        stats is not None
        and expected is not None
        and sim_entry(stats) == expected
    )


def output_matches(reference: dict, experiment: str, text: str) -> bool:
    return reference["experiments"].get(experiment) == output_digest(text)


def cached_stats(cache_dir, kernel: str, mode: str):
    """Stats of one default-capture result the program stored in
    ``cache_dir``, or ``None`` when it stored none."""
    from repro.config import FusionMode, ProcessorConfig
    from repro.experiments.cache import ResultCache

    config = ProcessorConfig().with_mode(FusionMode(mode))
    found = ResultCache(cache_dir).get(kernel, config)
    return None if found is None else found.stats.to_dict()


def make() -> dict:
    """Regenerate the reference from the program in this checkout."""
    import serve_mix
    from repro.config import FusionMode, ProcessorConfig
    from repro.core.simulator import simulate
    from repro.workloads import build_workload

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=WORK_ROOT)
    try:
        cache_dir = os.path.join(work, "cache")
        trace_dir = os.path.join(work, "traces")
        env = program_env(cache_dir, trace_dir)
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        os.environ["REPRO_TRACE_DIR"] = trace_dir
        experiments = {}
        for experiment in EXPERIMENTS:
            args = ["experiment", experiment, "--workloads", ",".join(KERNELS)]
            args += ["--jobs", "1", "--cache-dir", cache_dir]
            code, out, _, _, _ = run_process(repro_cmd(args), env, 600)
            if code != 0:
                raise BenchError("repro experiment %s failed" % experiment)
            experiments[experiment] = output_digest(out)

        keys = [(k, m, 0) for k in KERNELS for m in MODES]
        keys += list(serve_mix.HOT_KEYS) + serve_mix.unique_pool()
        simulations = {}
        for kernel, mode, max_uops in keys:
            if max_uops:
                trace = build_workload(kernel, max_uops=max_uops)
            else:
                trace = build_workload(kernel)
            config = ProcessorConfig().with_mode(FusionMode(mode))
            stats = simulate(trace, config, name=kernel).stats.to_dict()
            simulations[sim_key(kernel, mode, max_uops)] = sim_entry(stats)
            if not max_uops:
                swept = cached_stats(cache_dir, kernel, mode)
                if swept is None or sim_entry(swept) != sim_entry(stats):
                    raise BenchError(
                        "%s %s: the experiment sweep and simulate() disagree"
                        % (kernel, mode)
                    )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    data = {
        "schema": SCHEMA,
        "regenerate": "python3 perfbench/run.py --make-reference",
        "config_fingerprint": ProcessorConfig().fingerprint(),
        "kernels": list(KERNELS),
        "experiments": experiments,
        "simulations": dict(sorted(simulations.items())),
    }
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return data
