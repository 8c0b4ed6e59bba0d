"""Command-line interface.

::

    python -m repro workloads                 # list the catalog
    python -m repro simulate dijkstra         # all six configurations
    python -m repro simulate 657.xz_1 --mode Helios --fp-kind tage
    python -m repro experiment fig10 --workloads 657.xz_1,605.mcf --jobs 4
    python -m repro experiment fig9 --jobs 8 --job-timeout 120 \\
        --report-json sweep.json              # fault-tolerant sweep
    python -m repro sweep-report sweep.json   # render execution report
    python -m repro cache                     # inspect the result cache
    python -m repro cache clear               # drop every cached result
    python -m repro trace                     # inspect the trace store
    python -m repro trace export dijkstra     # trace -> portable JSON-lines
    python -m repro profile 605.mcf --mode Helios --top 20
    python -m repro debug 657.xz_1 --events-out xz.trace.json
    python -m repro analyze dijkstra          # legality + differential
    python -m repro analyze 657.xz_1 --mode Helios --explain 0x1a4
    python -m repro static all --json static-report.json
    python -m repro static dijkstra --explain 0x10008,0x1000c
    python -m repro storage                   # Table II budget
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.analysis.static.candidates import DEFAULT_PATH_BUDGET
from repro.config import DEFAULT_MAX_UOPS, FusionMode, ProcessorConfig
from repro.core.simulator import ipc_uplift, simulate, simulate_modes
from repro.core.storage import helios_storage_budget
from repro.experiments import (
    ResultCache, SweepJobError, SweepReport, cpi_accounting,
    figure2, figure3, figure4, figure5, figure8, figure9, figure10,
    legality_census, run_suite_with_report,
    table1, table2, table3,
)
from repro.sampling import DEFAULT_WINDOWS as _SAMPLE_DEFAULT_WINDOWS
from repro.workloads import (
    CATALOG, TraceStore, build_workload, ensure_known, workload_names,
)

_EXPERIMENTS = {
    "fig2": figure2, "fig3": figure3, "fig4": figure4, "fig5": figure5,
    "fig8": figure8, "fig9": figure9, "fig10": figure10,
    "table1": table1, "table3": table3, "cpi": cpi_accounting,
    "legality": legality_census,
}

#: The simulation sweep each experiment needs (census-only experiments
#: — fig2/fig4/fig5/table1 — run no pipeline simulations at all).
_EXPERIMENT_MODES = {
    "fig3": (FusionMode.NONE, FusionMode.CSF_SBR, FusionMode.RISCV_PP),
    "fig8": (FusionMode.HELIOS, FusionMode.ORACLE),
    "fig9": (FusionMode.NONE, FusionMode.HELIOS, FusionMode.ORACLE),
    "fig10": (FusionMode.NONE, FusionMode.RISCV, FusionMode.CSF_SBR,
              FusionMode.RISCV_PP, FusionMode.HELIOS, FusionMode.ORACLE),
    "table3": (FusionMode.HELIOS,),
    "cpi": (FusionMode.NONE, FusionMode.HELIOS),
}

_MODES = {mode.value.lower(): mode for mode in FusionMode}


def _parse_mode(text: str) -> FusionMode:
    try:
        return _MODES[text.lower()]
    except KeyError:
        raise SystemExit("unknown mode %r; choose from: %s"
                         % (text, ", ".join(m.value for m in FusionMode))) from None


def _workload_list(arg: Optional[str]) -> Optional[List[str]]:
    if not arg:
        return None
    names = [n.strip() for n in arg.split(",") if n.strip()]
    try:
        return ensure_known(names)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _cmd_workloads(_args) -> int:
    print("%-17s %-8s %7s  %s" % ("name", "suite", "u-ops", "description"))
    for name in workload_names():
        spec = CATALOG[name]
        print("%-17s %-8s %7d  %s" % (name, spec.suite,
                                      len(build_workload(name)),
                                      spec.description))
    return 0


def _known_workload(args) -> str:
    """``args.workload``, or exit if it is not in the catalog."""
    if args.workload not in CATALOG:
        raise SystemExit("unknown workload %r (see `repro workloads`)"
                         % args.workload)
    return args.workload


def _config_from(args) -> ProcessorConfig:
    config = ProcessorConfig()
    if args.fp_kind:
        config = dataclasses.replace(config, fp_kind=args.fp_kind)
    return config


def _trace_for(args):
    """The trace a simulate-family command operates on.

    ``--scale-to N`` builds the iteration-scaled multi-million-µop
    trace; ``--max-uops N`` caps the regular catalog capture; neither
    uses the catalog default (:data:`repro.config.DEFAULT_MAX_UOPS`).
    """
    if args.scale_to:
        from repro.sampling import build_scaled_workload
        return build_scaled_workload(args.workload, args.scale_to)
    return build_workload(args.workload, max_uops=args.max_uops)


def _render_estimate(est) -> str:
    lines = ["sampled estimate: %s, %s" % (est.workload, est.mode)]
    if est.exact:
        lines.append("  trace too short to sample — simulated in full "
                     "detail (exact, %d µ-ops)" % est.total_uops)
    else:
        warm = ("continuous" if est.warmup_uops is None
                else "bounded %d µ-ops" % est.warmup_uops)
        lines.append("  %d µ-ops: exact head %d + %d windows × %d "
                     "measured (warming: %s)"
                     % (est.total_uops, est.head_uops, est.windows,
                        est.window_uops, warm))
    lines.append("  IPC %.4f ± %.2f%%  (95%% CI %.4f – %.4f)"
                 % (est.ipc_estimate, 100 * est.ipc_rel_err,
                    est.ipc_low, est.ipc_high))
    if est.cpi is not None:
        lines.append("  CPI %.4f ± %.4f  (est. %.0f cycles)"
                     % (est.cpi.mean, est.cpi.half_width, est.est_cycles))
    if est.cpi_bucket_shares:
        top = sorted(est.cpi_bucket_shares.items(),
                     key=lambda kv: -kv[1])[:6]
        lines.append("  CPI buckets: " + ", ".join(
            "%s %.1f%%" % (name, 100 * share) for name, share in top))
    return "\n".join(lines)


def _simulate_sampled(args, config: ProcessorConfig) -> int:
    from repro.sampling import sampled_simulate
    if args.sample < 2:
        raise SystemExit("--sample needs at least 2 strata "
                         "(exact head + one detail window)")
    mode = _parse_mode(args.mode) if args.mode else FusionMode.HELIOS
    est = sampled_simulate(_trace_for(args), config.with_mode(mode),
                           windows=args.sample, warmup=args.warmup,
                           name=args.workload)
    print(_render_estimate(est))
    return 0


def _simulate_segmented(args, config: ProcessorConfig) -> int:
    from repro.experiments import get_segmented_result
    if args.segments < 1:
        raise SystemExit("--segments needs at least 1 segment")
    mode = _parse_mode(args.mode) if args.mode else FusionMode.HELIOS
    result = get_segmented_result(
        args.workload, mode, args.segments, warmup=args.warmup,
        config=config, jobs=args.jobs, max_uops=args.max_uops,
        scale_to=args.scale_to, job_timeout=args.job_timeout,
        retries=args.retries)
    print(result.summary())
    warm = ("full-prefix (bit-exact splice)" if args.warmup is None
            else "bounded %d µ-ops (approximate splice)" % args.warmup)
    print("spliced from %d segment(s); warmup: %s"
          % (args.segments, warm))
    return 0


def _cmd_simulate(args) -> int:
    _known_workload(args)
    if args.sample is not None and args.segments is not None:
        raise SystemExit(
            "--sample (approximate, single-process) and --segments "
            "(exact, parallel) are alternative strategies; pick one "
            "(see DESIGN §4e)")
    config = _config_from(args)
    if args.sample is not None:
        return _simulate_sampled(args, config)
    if args.segments is not None:
        return _simulate_segmented(args, config)
    trace = _trace_for(args)
    if args.mode:
        mode = _parse_mode(args.mode)
        if args.fp_kind and mode is not FusionMode.HELIOS:
            raise SystemExit(
                "--fp-kind selects the Helios fusion predictor and has "
                "no effect with --mode %s; drop it or use --mode Helios"
                % mode.value)
        result = simulate(trace, config.with_mode(mode),
                          name=args.workload)
        print(result.summary())
        return 0
    results = simulate_modes(trace, base_config=config, name=args.workload)
    uplift = ipc_uplift(results)
    print("%-15s %8s %9s" % ("configuration", "IPC", "vs base"))
    for name, result in results.items():
        print("%-15s %8.3f %+8.1f%%"
              % (name, result.ipc, 100 * (uplift[name] - 1)))
    return 0


def _cmd_experiment(args) -> int:
    if args.name == "table2":
        if args.fp_kind:
            raise SystemExit("--fp-kind does not affect table2 "
                             "(static storage arithmetic)")
        print(table2().render())
        return 0
    runner = _EXPERIMENTS.get(args.name)
    if runner is None:
        raise SystemExit("unknown experiment %r; choose from: %s, table2"
                         % (args.name, ", ".join(sorted(_EXPERIMENTS))))
    modes = _EXPERIMENT_MODES.get(args.name, ())
    if args.fp_kind and FusionMode.HELIOS not in modes:
        raise SystemExit(
            "--fp-kind selects the Helios fusion predictor, which %r "
            "never simulates; it applies to: %s"
            % (args.name, ", ".join(sorted(
                name for name, sweep in _EXPERIMENT_MODES.items()
                if FusionMode.HELIOS in sweep))))
    config = _config_from(args)
    workloads = _workload_list(args.workloads)
    if modes:
        # Warm the (memo + disk) cache in parallel; the generator below
        # then assembles its rows entirely from cache hits.
        try:
            _, report = run_suite_with_report(
                modes, workloads=workloads, config=config,
                jobs=args.jobs, cache_dir=args.cache_dir,
                use_cache=False if args.no_cache else None,
                job_timeout=args.job_timeout, retries=args.retries)
        except SweepJobError as exc:
            _write_report_json(args.report_json, exc.report)
            print("sweep failed: %s" % exc, file=sys.stderr)
            return 1
        _write_report_json(args.report_json, report)
    print(runner(workloads, config=config).render())
    return 0


def _write_json(path: str, data: dict) -> None:
    """Persist one JSON-safe dict, pretty-printed and key-sorted."""
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_report_json(path: Optional[str],
                       report: Optional[SweepReport]) -> None:
    """Persist a sweep's execution report (``--report-json``)."""
    if not path or report is None:
        return
    _write_json(path, report.to_dict())
    print("wrote sweep execution report to %s" % path)


def _cmd_sweep_report(args) -> int:
    """Render a persisted sweep execution report."""
    import json

    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        report = SweepReport.from_dict(data)
    except OSError as exc:
        raise SystemExit("cannot read %s: %s" % (args.file, exc)) from exc
    except ValueError as exc:
        raise SystemExit("invalid sweep report %s: %s" % (args.file, exc)) from exc
    print(report.render())
    return 1 if report.failed_jobs else 0


def _cmd_cache(args) -> int:
    cache = (ResultCache(args.cache_dir) if args.cache_dir
             else ResultCache())
    if args.action == "clear":
        removed = cache.clear()
        print("removed %d cached result(s) from %s" % (removed, cache.root))
        return 0
    entries = cache.entries()
    print("cache directory: %s" % cache.root)
    print("entries: %d (%.1f KiB)"
          % (len(entries), cache.size_bytes() / 1024.0))
    orphans, quarantined = cache.orphan_tmps(), cache.quarantined()
    if orphans or quarantined:
        print("orphaned tmp files: %d, quarantined corrupt entries: %d "
              "(`repro cache clear` reclaims both)"
              % (len(orphans), len(quarantined)))
    for entry in entries:
        print("  %-20s %-14s %7d B  %s"
              % (entry["workload"], entry["mode"], entry["bytes"],
                 entry["file"]))
    return 0


def _cmd_trace(args) -> int:
    store = (TraceStore(args.trace_dir) if args.trace_dir
             else TraceStore())
    if args.action == "clear":
        removed = store.clear()
        print("removed %d stored trace(s) from %s" % (removed, store.root))
        return 0
    if args.action == "export":
        if not args.workload:
            raise SystemExit("trace export needs a workload name")
        from repro.isa import save_trace
        trace = build_workload(_known_workload(args))
        out = args.out or ("%s.trace.jsonl" % args.workload)
        save_trace(trace, out)
        print("wrote %d µ-ops to %s (portable JSON-lines)"
              % (len(trace), out))
        return 0
    entries = store.entries()
    print("trace store: %s" % store.root)
    print("entries: %d (%.1f KiB)"
          % (len(entries), store.size_bytes() / 1024.0))
    orphans, quarantined = store.orphan_tmps(), store.quarantined()
    if orphans or quarantined:
        print("orphaned tmp files: %d, quarantined corrupt entries: %d "
              "(`repro trace clear` reclaims both)"
              % (len(orphans), len(quarantined)))
    for entry in entries:
        print("  %-20s %8s µ-ops %9d B  %s"
              % (entry["name"], entry["uops"], entry["bytes"],
                 entry["file"]))
    return 0


def _endpoint_from(args) -> dict:
    """Socket/TCP endpoint kwargs shared by serve and loadgen."""
    if args.socket and args.host:
        raise SystemExit("choose one of --socket or --host, not both")
    if args.socket:
        return {"path": args.socket}
    if args.host:
        return {"host": args.host, "port": args.port}
    raise SystemExit("an endpoint is required: --socket PATH or "
                     "--host HOST [--port N]")


def _cmd_serve(args) -> int:
    """Run the long-running simulation service until SIGINT/SIGTERM."""
    import asyncio
    import json
    import signal

    from repro.serve.server import SimulationServer

    server = SimulationServer(
        pool_jobs=args.pool_jobs,
        queue_limit=args.queue_limit,
        lru_capacity=args.lru_capacity,
        use_disk_cache=False if args.no_disk_cache else None,
        job_timeout=args.job_timeout,
        retries=args.retries,
        max_batch=args.max_batch,
        **_endpoint_from(args))

    async def _run() -> None:
        await server.start()
        print("repro serve: listening on %s  (pool_jobs=%d, "
              "queue_limit=%d, lru=%d)"
              % (server.address, server.pool_jobs, server.queue_limit,
                 args.lru_capacity))
        stop = asyncio.Event()
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await stop.wait()
        print("repro serve: draining...")
        await server.drain()
        await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    if args.metrics_json:
        _write_json(args.metrics_json, server.metrics())
        print("repro serve: metrics -> %s" % args.metrics_json)
    return 0


def _cmd_loadgen(args) -> int:
    """Drive a deterministic load run against a live server."""
    from repro.serve.loadgen import LoadSpec, run_load

    requests = 30 if args.quick else args.requests
    spec = LoadSpec(requests=requests,
                    duplicate_ratio=args.duplicate_ratio,
                    hot_keys=args.hot_keys,
                    workers=args.workers,
                    seed=args.seed,
                    verb=args.verb)
    report = run_load(spec, timeout=args.timeout, **_endpoint_from(args))
    data = report.to_dict()
    print("loadgen: %d request(s), %d ok, %.1f req/s over %.2f s"
          % (data["requests"], data["ok"], data["throughput_rps"],
             data["elapsed_s"]))
    print("  latency ms: p50 %(p50).1f  p90 %(p90).1f  p99 %(p99).1f  "
          "max %(max).1f" % data["latency_ms"])
    if data["tiers"]:
        print("  tiers: " + ", ".join(
            "%s=%d" % (tier, count)
            for tier, count in sorted(data["tiers"].items())))
    if data["errors"]:
        print("  errors: " + ", ".join(
            "%s=%d" % (code, count)
            for code, count in sorted(data["errors"].items())))
    if data["executions"]:
        print("  server executions: %d  (dedup saved %d)"
              % (data["executions"],
                 max(0, data["ok"] - data["executions"])))
    if args.json:
        _write_json(args.json, data)
        print("loadgen: report -> %s" % args.json)
    return 0 if data["ok"] == data["requests"] else 1


def _cmd_profile(args) -> int:
    """cProfile one (workload, mode) pipeline run with stage attribution."""
    import json

    from repro.perf import (dump_pstats, profile_run, render_profile,
                            serializable)

    _known_workload(args)
    mode = _parse_mode(args.mode) if args.mode else FusionMode.HELIOS
    payload = profile_run(args.workload, mode=mode,
                          max_uops=args.max_uops,
                          config=_config_from(args), top=args.top)
    # Write artifacts before printing: a downstream `| head` closing
    # the pipe must not cost the files.
    if args.pstats_out:
        dump_pstats(payload, args.pstats_out)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(serializable(payload), handle, indent=2)
    print(render_profile(payload))
    if args.pstats_out:
        print("\nwrote raw profile to %s (snakeviz/pstats-compatible)"
              % args.pstats_out)
    if args.json_out:
        print("wrote profile payload to %s" % args.json_out)
    return 0


def _cmd_debug(args) -> int:
    """Observability deep-dive on one (workload, configuration) run."""
    import json

    from repro.obs import (PipelineObserver, chrome_trace,
                           occupancy_report, validate_chrome_trace)

    trace = build_workload(_known_workload(args), max_uops=args.max_uops)
    mode = _parse_mode(args.mode) if args.mode else FusionMode.HELIOS
    config = _config_from(args).with_mode(mode)
    observer = (PipelineObserver(ring_capacity=args.ring) if args.ring
                else PipelineObserver())
    result = simulate(trace, config, name=args.workload, observer=observer)

    print(result.summary())
    print()
    print(result.cpi_report())
    print()
    print(occupancy_report(observer))
    counts = observer.event_counts()
    print()
    print("pipeline events: %d emitted, %d retained (ring %d), %d dropped"
          % (observer.ring.emitted, len(observer.ring),
             observer.ring.capacity, observer.ring.dropped))
    print("  " + ", ".join("%s %d" % (kind, count)
                           for kind, count in counts.items()))
    if args.events_out:
        payload = chrome_trace(observer.events(), workload=args.workload,
                               mode=mode.value,
                               dropped=observer.ring.dropped)
        validate_chrome_trace(payload)
        with open(args.events_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        print("wrote %d trace events to %s (load in Perfetto / "
              "chrome://tracing)"
              % (len(payload["traceEvents"]), args.events_out))
    return 0


def _cmd_analyze(args) -> int:
    """Fusion-legality report + differential checks for workload(s)."""
    import json

    from repro.analysis import analyze_workload

    names = _workload_list(args.workloads)
    if not names:
        raise SystemExit("analyze needs at least one workload name")
    modes = [_parse_mode(args.mode)] if args.mode else None
    payloads = []
    failed = False
    for index, name in enumerate(names):
        if index:
            print()
        report = analyze_workload(name, modes=modes,
                                  max_uops=args.max_uops,
                                  sanitize=not args.no_sanitize,
                                  static_contract=args.static)
        print(report.render())
        if args.explain is not None:
            print()
            verdicts = report.legality.explain_pc(args.explain)
            if not verdicts:
                print("no fusion candidates at pc 0x%x" % args.explain)
            for verdict in verdicts:
                print("  " + verdict.describe())
        payloads.append(report.to_dict())
        failed = failed or not report.ok
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payloads if len(payloads) > 1 else payloads[0],
                      handle, indent=2)
        print("wrote %s" % args.json)
    return 1 if failed else 0


def _parse_pc_pair(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            "expected two comma-separated PCs, e.g. 0x10008,0x1000c")
    try:
        return tuple(int(p, 0) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("bad PC in %r (hex ok)" % text) from None


def _cmd_static(args) -> int:
    """Static opportunity analysis + the static↔dynamic contract."""
    import json

    from repro.analysis.static.contract import (
        check_workload_contract, render_contract_table)

    if args.workloads.strip().lower() == "all":
        names = list(workload_names())
    else:
        names = _workload_list(args.workloads)
    if not names:
        raise SystemExit("static needs at least one workload name")
    modes = ([m.strip() for m in args.mode.split(",") if m.strip()]
             if args.mode else ["oracle", "helios"])
    for mode in modes:
        if mode.lower() != "oracle":
            _parse_mode(mode)  # fail fast on a typo
    contracts = []
    for name in names:
        contract = check_workload_contract(
            name, modes=modes, max_uops=args.max_uops,
            path_budget=args.path_budget)
        contracts.append(contract)
        if args.verbose or not contract.ok:
            print(contract.render())
            print()
    print(render_contract_table(contracts))
    if args.explain is not None:
        head_pc, tail_pc = args.explain
        for contract in contracts:
            static = contract.static
            print()
            print("%s: static candidates at (0x%x, 0x%x):"
                  % (contract.workload, head_pc, tail_pc))
            exact = [c for c in static.candidates.values()
                     if c.head_pc == head_pc and c.tail_pc == tail_pc]
            listed = exact or static.candidates_at_pc(head_pc)
            if not listed:
                print("  none (no walked path pairs these PCs)")
            for candidate in listed[:20]:
                print("  " + candidate.describe())
    if args.json:
        payloads = [c.to_dict(include_candidates=args.candidates)
                    for c in contracts]
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payloads if len(payloads) > 1 else payloads[0],
                      handle, indent=2)
        print("wrote %s" % args.json)
    return 0 if all(c.ok for c in contracts) else 1


def _cmd_storage(_args) -> int:
    print(helios_storage_budget().report())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Helios instruction-fusion reproduction (MICRO 2022)")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands, declared once.  ``--mode``
    # stays per-command: its meaning differs between them.
    fp_kind = argparse.ArgumentParser(add_help=False)
    fp_kind.add_argument("--fp-kind", choices=["tournament", "tage", "local"],
                         help="fusion predictor organization for Helios")
    max_uops = argparse.ArgumentParser(add_help=False)
    max_uops.add_argument("--max-uops", type=int, default=None, metavar="N",
                          help="dynamic µ-op cap per trace (default %d, "
                               "repro.config.DEFAULT_MAX_UOPS)"
                               % DEFAULT_MAX_UOPS)
    scheduler = argparse.ArgumentParser(add_help=False)
    scheduler.add_argument("--jobs", type=int, default=None, metavar="N",
                           help="worker processes for sweep jobs or "
                                "--segments (default: $REPRO_JOBS or 1)")
    scheduler.add_argument("--job-timeout", type=float, default=None,
                           metavar="S",
                           help="per-job deadline in seconds; a hung "
                                "worker is killed and the job retried "
                                "(default: $REPRO_JOB_TIMEOUT or off)")
    scheduler.add_argument("--retries", type=int, default=None, metavar="N",
                           help="retry budget per failed job, with capped "
                                "deterministic exponential backoff "
                                "(default: $REPRO_JOB_RETRIES or 2)")

    sub.add_parser("workloads", help="list the workload catalog") \
        .set_defaults(func=_cmd_workloads)

    sim = sub.add_parser("simulate", help="simulate one workload",
                         parents=[fp_kind, max_uops, scheduler])
    sim.add_argument("workload")
    sim.add_argument("--mode", help="one configuration (default: all six; "
                                    "--sample/--segments default: Helios)")
    sim.add_argument("--scale-to", type=int, default=None, metavar="N",
                     help="iteration-scale the kernel until its trace "
                          "reaches ~N µ-ops (multi-million-µop runs; "
                          "overrides --max-uops)")
    sim.add_argument("--sample", type=int, nargs="?",
                     const=_SAMPLE_DEFAULT_WINDOWS,
                     default=None, metavar="N",
                     help="sampled simulation: N systematic strata — "
                          "exact head + N-1 detail windows with "
                          "functional warming between them (default "
                          "N=%d); reports IPC/CPI with a 95%%-confidence "
                          "error bar" % _SAMPLE_DEFAULT_WINDOWS)
    sim.add_argument("--warmup", type=int, default=None, metavar="M",
                     help="bounded warmup budget (µ-ops) for "
                          "--sample/--segments; default: continuous/"
                          "full-prefix warming (slower, most accurate; "
                          "bit-exact splice for --segments)")
    sim.add_argument("--segments", type=int, default=None, metavar="K",
                     help="segment-parallel exact simulation: splice K "
                          "independently-simulated segments (bit-exact "
                          "with default full warmup)")
    sim.set_defaults(func=_cmd_simulate)

    exp = sub.add_parser("experiment",
                         help="regenerate a paper table/figure",
                         parents=[fp_kind, scheduler])
    exp.add_argument("name", help="fig2|fig3|fig4|fig5|fig8|fig9|fig10|"
                                  "table1|table2|table3|legality")
    exp.add_argument("--workloads",
                     help="comma-separated subset (default: all 32)")
    exp.add_argument("--cache-dir", metavar="DIR",
                     help="persistent result cache directory "
                          "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    exp.add_argument("--no-cache", action="store_true",
                     help="skip the persistent result cache entirely")
    exp.add_argument("--report-json", metavar="FILE",
                     help="write the sweep execution report (per-job "
                          "attempts, durations, failure classes) here — "
                          "written on failure too")
    exp.set_defaults(func=_cmd_experiment)

    swrep = sub.add_parser(
        "sweep-report",
        help="render a sweep execution report written by "
             "`experiment --report-json`")
    swrep.add_argument("file", help="report JSON file to render")
    swrep.set_defaults(func=_cmd_sweep_report)

    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache")
    cache.add_argument("action", nargs="?", default="info",
                       choices=["info", "clear"])
    cache.add_argument("--cache-dir", metavar="DIR",
                       help="cache directory (default: $REPRO_CACHE_DIR "
                            "or ~/.cache/repro)")
    cache.set_defaults(func=_cmd_cache)

    trace = sub.add_parser(
        "trace", help="inspect/clear the trace store or export a trace")
    trace.add_argument("action", nargs="?", default="info",
                       choices=["info", "clear", "export"])
    trace.add_argument("workload", nargs="?",
                       help="workload to export (action: export)")
    trace.add_argument("--out", metavar="FILE",
                       help="export target (default: <workload>."
                            "trace.jsonl)")
    trace.add_argument("--trace-dir", metavar="DIR",
                       help="trace store directory (default: "
                            "$REPRO_TRACE_DIR or <cache dir>/traces)")
    trace.set_defaults(func=_cmd_trace)

    serve = sub.add_parser(
        "serve", help="long-running simulation service (JSON lines "
                      "over a unix socket or TCP)")
    serve.add_argument("--socket", metavar="PATH",
                       help="bind a unix socket at PATH")
    serve.add_argument("--host", metavar="HOST",
                       help="bind TCP on HOST (with --port)")
    serve.add_argument("--port", type=int, default=0, metavar="N",
                       help="TCP port (default: kernel-assigned)")
    serve.add_argument("--pool-jobs", type=int, default=1, metavar="N",
                       help="worker processes per batch (default 1: "
                            "serial in-supervisor execution)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       metavar="N",
                       help="max queued+executing requests before "
                            "busy responses (default 64)")
    serve.add_argument("--lru-capacity", type=int, default=256,
                       metavar="N",
                       help="in-memory result tier entries (default "
                            "256; 0 disables)")
    serve.add_argument("--no-disk-cache", action="store_true",
                       help="skip the persistent result cache tier")
    serve.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job deadline (pool mode only)")
    serve.add_argument("--retries", type=int, default=None, metavar="N",
                       help="retry budget per failed job")
    serve.add_argument("--max-batch", type=int, default=8, metavar="N",
                       help="max requests per execution batch")
    serve.add_argument("--metrics-json", metavar="FILE",
                       help="dump serving metrics to FILE on exit")
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen", help="deterministic load generator against a "
                        "running `repro serve`")
    loadgen.add_argument("--socket", metavar="PATH",
                         help="connect to a unix socket")
    loadgen.add_argument("--host", metavar="HOST",
                         help="connect via TCP (with --port)")
    loadgen.add_argument("--port", type=int, default=0, metavar="N")
    loadgen.add_argument("--requests", type=int, default=200,
                         metavar="N", help="schedule length")
    loadgen.add_argument("--quick", action="store_true",
                         help="30-request smoke run")
    loadgen.add_argument("--duplicate-ratio", type=float, default=0.5,
                         metavar="R",
                         help="fraction of requests drawn from the "
                              "hot set (default 0.5)")
    loadgen.add_argument("--hot-keys", type=int, default=8, metavar="N",
                         help="distinct hot (workload, mode) keys")
    loadgen.add_argument("--workers", type=int, default=4, metavar="N",
                         help="closed-loop client threads")
    loadgen.add_argument("--seed", type=int, default=0, metavar="N",
                         help="schedule seed (same seed = same "
                              "requests)")
    loadgen.add_argument("--verb", default="simulate",
                         choices=["simulate", "sample", "analyze"],
                         help="request type to issue")
    loadgen.add_argument("--timeout", type=float, default=300.0,
                         metavar="SECONDS", help="per-request timeout")
    loadgen.add_argument("--json", metavar="FILE",
                         help="write the load report to FILE")
    loadgen.set_defaults(func=_cmd_loadgen)

    profile = sub.add_parser(
        "profile", help="cProfile one pipeline run: host time by stage, "
                        "hottest functions, top-down CPI buckets",
        parents=[fp_kind, max_uops])
    profile.add_argument("workload")
    profile.add_argument("--mode", help="configuration (default: Helios)")
    profile.add_argument("--top", type=int, default=15, metavar="N",
                         help="hottest functions to list (default 15)")
    profile.add_argument("--pstats-out", metavar="FILE",
                         help="dump the raw cProfile stats here")
    profile.add_argument("--json-out", metavar="FILE",
                         help="write the JSON payload here")
    profile.set_defaults(func=_cmd_profile)

    debug = sub.add_parser(
        "debug", help="observability deep-dive: top-down CPI breakdown, "
                      "occupancy report, pipeline event trace",
        parents=[fp_kind, max_uops])
    debug.add_argument("workload")
    debug.add_argument("--mode", help="configuration (default: Helios)")
    debug.add_argument("--events-out", metavar="FILE",
                       help="write the Chrome trace-event JSON here "
                            "(loadable in Perfetto)")
    debug.add_argument("--ring", type=int, default=None, metavar="N",
                       help="event ring capacity (default 65536; keeps "
                            "the last N events)")
    debug.set_defaults(func=_cmd_debug)

    analyze = sub.add_parser(
        "analyze", help="fusion-legality report + differential checker: "
                        "prove every committed fused pair legal and the "
                        "committed state bit-exact",
        parents=[max_uops])
    analyze.add_argument("workloads",
                         help="comma-separated workload name(s)")
    analyze.add_argument("--mode",
                         help="one configuration (default: all six)")
    analyze.add_argument("--no-sanitize", action="store_true",
                         help="skip the per-cycle µ-arch sanitizer "
                              "(faster; legality checks still run)")
    analyze.add_argument("--explain", type=lambda s: int(s, 0),
                         metavar="PC", default=None,
                         help="also print per-candidate verdicts for "
                              "fusion heads at this PC (hex ok)")
    analyze.add_argument("--json", metavar="FILE",
                         help="write the machine-readable report here")
    analyze.add_argument("--static", action="store_true",
                         help="also enforce the static opportunity "
                              "contract: every dynamically-legal pair "
                              "must be a static candidate or carry a "
                              "checkable reason class")
    analyze.set_defaults(func=_cmd_analyze)

    static = sub.add_parser(
        "static", help="static fusion-opportunity analyzer: CFG + "
                       "dataflow candidates per PC pair, cross-checked "
                       "against the dynamic oracle and the pipeline",
        parents=[max_uops])
    static.add_argument("workloads",
                        help="comma-separated workload name(s), or 'all'")
    static.add_argument("--mode",
                        help="comma-separated dynamic pair sources: "
                             "'oracle' (greedy oracle's legal set) "
                             "and/or a fusion mode such as 'helios' "
                             "(that pipeline's committed pairs); "
                             "default oracle,helios")
    static.add_argument("--path-budget", type=int,
                        default=DEFAULT_PATH_BUDGET, metavar="N",
                        help="abstract-execution visit budget per "
                             "memory head (default %d)"
                             % DEFAULT_PATH_BUDGET)
    static.add_argument("--explain", type=_parse_pc_pair, metavar="PC,PC",
                        default=None,
                        help="print the static verdict for one "
                             "(head, tail) PC pair (hex ok)")
    static.add_argument("--verbose", action="store_true",
                        help="full per-workload reports, not just the "
                             "summary table")
    static.add_argument("--candidates", action="store_true",
                        help="include every candidate in the --json "
                             "payload")
    static.add_argument("--json", metavar="FILE",
                        help="write the machine-readable report here")
    static.set_defaults(func=_cmd_static)

    sub.add_parser("storage", help="print the Table II storage budget") \
        .set_defaults(func=_cmd_storage)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into e.g. `head`: exit quietly like other CLIs.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
