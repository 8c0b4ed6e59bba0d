"""The ``reproduce-cold`` and ``reproduce-warm`` workloads.

Both run every ``repro experiment`` as a user would: one CLI process
per experiment, in a fixed order, with ``--jobs $(nproc)``, over the
kernel subset in the order the seed gives.

* ``reproduce-cold`` starts each pass with an empty trace store and
  result cache, so it captures every trace and simulates every
  (kernel, mode).
* ``reproduce-warm`` fills the stores once, untimed, with the cold
  sweep (``experiment fig10``, whose six modes cover every other
  experiment's sweep), then times passes that simulate nothing.
"""

from __future__ import annotations

import json
import os
import random
import time
from statistics import median

import reference
import spans
from common import (
    EXPERIMENTS,
    KERNELS,
    MODES,
    Tally,
    calibrate,
    cli_setup_seconds,
    geomean,
    nproc,
    peak_rss_mb,
    program_env,
    repro_cmd,
    run_process,
    scale,
    store_bytes,
)


#: Fewest timed passes per run (a cold pass takes about twice a warm one).
MIN_PASSES = {"reproduce-cold": 1, "reproduce-warm": 3}


def kernel_order(seed: int) -> list:
    order = list(KERNELS)
    random.Random(seed).shuffle(order)
    return order


def experiment_args(experiment: str, kernels, cache_dir) -> list:
    return [
        "experiment",
        experiment,
        "--workloads",
        ",".join(kernels),
        "--jobs",
        str(nproc()),
        "--cache-dir",
        str(cache_dir),
    ]


def run_pass(
    kernels, cache_dir, trace_dir, experiments=EXPERIMENTS, spans_dir=None
):
    """One reproduction: each experiment in a fresh process.

    The host speed is calibrated before the first experiment and after
    each one.  Returns ``{"wall_s", "scaled_s", "runs"}`` with one run
    dict per experiment (``name, code, out, start, end, pid, factor``);
    with ``spans_dir`` each process is traced and writes
    ``<spans_dir>/<experiment>.json``.
    """
    env = program_env(cache_dir, trace_dir)
    runs = []
    before = calibrate()
    for experiment in experiments:
        spans_out = None
        if spans_dir is not None:
            spans_out = os.path.join(spans_dir, experiment + ".json")
        args = experiment_args(experiment, kernels, cache_dir)
        cmd = repro_cmd(args, spans_out)
        code, out, start, end, pid = run_process(cmd, env)
        after = calibrate()
        runs.append(
            {
                "name": experiment,
                "code": code,
                "out": out,
                "start": start,
                "end": end,
                "pid": pid,
                "factor": scale(before, after),
            }
        )
        before = after
    wall = sum(r["end"] - r["start"] for r in runs) / 1e9
    scaled = sum((r["end"] - r["start"]) * r["factor"] for r in runs) / 1e9
    return {"wall_s": wall, "scaled_s": scaled, "runs": runs}


def check_outputs(result, ref, tally: Tally) -> None:
    for run in result["runs"]:
        tally.check(
            run["code"] == 0
            and reference.output_matches(ref, run["name"], run["out"]),
            "experiment %s: exit %d or output differs from the reference"
            % (run["name"], run["code"]),
        )


def check_simulations(cache_dir, ref, tally: Tally) -> int:
    """Check every (kernel, mode) result the program cached; returns
    the µ-ops they committed."""
    uops = 0
    for kernel in KERNELS:
        for mode in MODES:
            stats = reference.cached_stats(cache_dir, kernel, mode)
            key = reference.sim_key(kernel, mode)
            ok = reference.sim_matches(ref, key, stats)
            if tally.check(ok, "simulation %s differs" % key):
                uops += stats["uops_committed"]
    return uops


def traced_spans(result, spans_dir):
    """Spans of a traced pass: the benchmark's experiment root spans
    plus every process's own spans, whose top-level spans become the
    root's children.  Returns ``(spans, root keys)``."""
    collected, roots = [], []
    for run in result["runs"]:
        experiment, pid = run["name"], run["pid"]
        roots.append((pid, 0))
        collected.append(
            {
                "id": 0,
                "parent": None,
                "name": "experiment",
                "start": run["start"],
                "end": run["end"],
                "pid": pid,
                "tid": 0,
                "req": experiment,
                "args": {"experiment": experiment},
            }
        )
        path = os.path.join(spans_dir, experiment + ".json")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as handle:
            for span in json.load(handle):
                if span["parent"] is None:
                    span["parent"] = 0
                if span["req"] is None:
                    span["req"] = experiment
                collected.append(span)
    return collected, roots


def run(workload, seed, seconds, traced, work, ref) -> dict:
    cold = workload == "reproduce-cold"
    kernels = kernel_order(seed)
    tally = Tally()
    counter = iter(range(1000))

    def fresh_dirs():
        index = next(counter)
        return work / ("cache-%d" % index), work / ("traces-%d" % index)

    # Set-up samples are spread over the run (two before each pass, two
    # at the end) so their median does not hang on one moment.
    setup_env = program_env(*fresh_dirs())
    cli_setup_seconds(setup_env, spawns=1)  # untimed: compiles bytecode
    setup = []

    fill = filled = None
    if not cold:
        filled = fresh_dirs()
        fill = run_pass(kernels, *filled, experiments=("fig10",))
        check_outputs(fill, ref, tally)
        check_simulations(filled[0], ref, tally)

    def one_pass(spans_dir=None):
        setup.extend(cli_setup_seconds(setup_env, spawns=2))
        cache_dir, trace_dir = fresh_dirs() if cold else filled
        result = run_pass(kernels, cache_dir, trace_dir, spans_dir=spans_dir)
        check_outputs(result, ref, tally)
        if cold:
            result["uops"] = check_simulations(cache_dir, ref, tally)
        else:
            warm = next(r for r in result["runs"] if r["name"] == "fig10")
            tally.check(
                warm["out"] == fill["runs"][0]["out"],
                "warm fig10 differs from the cold fill",
            )
        result["cache_dir"], result["trace_dir"] = cache_dir, trace_dir
        return result

    passes = []
    if traced:
        passes.append(one_pass())
        spans_dir = work / "spans"
        spans_dir.mkdir()
        traced_pass = one_pass(spans_dir)
    else:
        # Host speed on a shared machine drifts by tens of percent over
        # seconds, so every run measures a few passes and reports their
        # median: at least MIN_PASSES, and more while ``seconds`` last.
        started = time.monotonic()
        while (
            len(passes) < MIN_PASSES[workload]
            or time.monotonic() - started < seconds
        ):
            passes.append(one_pass())

    setup.extend(cli_setup_seconds(setup_env, spawns=2))
    walls = [p["wall_s"] for p in passes]
    scaled = [p["scaled_s"] for p in passes]
    runs = [r for p in passes for r in p["runs"]]
    op_ms = [(r["end"] - r["start"]) * r["factor"] / 1e6 for r in runs]
    e2e = {
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "work_s": median(scaled),
        "op_gmean_ms": geomean(op_ms),
    }
    info = {
        "kernels": kernels,
        "reproduce_s": walls,
        "reproduce_scaled_s": scaled,
        "setup_scaled_samples_s": setup,
        "experiment_s": {
            r["name"]: round((r["end"] - r["start"]) / 1e9, 4)
            for r in passes[-1]["runs"]
        },
        "host_factor": [round(r["factor"], 4) for r in runs],
    }
    if cold:
        info["sim_uops_per_s"] = median(
            [p["uops"] / p["wall_s"] for p in passes]
        )
    result = {"e2e": e2e, "info": info, "tally": tally}
    if traced:
        collected, roots = traced_spans(traced_pass, spans_dir)
        layers = spans.summarize(collected, roots)
        trace_bytes, cache_bytes = store_bytes(
            traced_pass["trace_dir"], traced_pass["cache_dir"]
        )
        layers.update(
            {
                "trace_store.bytes": trace_bytes,
                "result_cache.bytes": cache_bytes,
                "protocol.bytes": 0,
                "serve.lru_hit_ratio": 0.0,
                "serve.coalesced": 0,
                "serve.executions": 0,
                "serve.queue_wait_ms": 0.0,
                "serve.exec_ms": 0.0,
                "serve.batch_size": 0.0,
                "serve.busy": 0,
                "trace.work_s": traced_pass["scaled_s"],
                "trace.untraced_work_s": scaled[0],
                "trace.overhead_pct": 100.0
                * (traced_pass["scaled_s"] / scaled[0] - 1.0),
            }
        )
        result["layers"] = layers
        result["spans"] = collected
        result["layer_table"] = spans.layer_table(collected, set(roots))
    return result
