"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import clear_cache
from repro.experiments.faults import (
    FAULT_INJECT_ENV,
    AttemptRecord,
    JobRecord,
    SweepReport,
)


def test_workloads_listing(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "657.xz_1" in out
    assert "MiBench" in out


def test_simulate_all_modes(capsys):
    assert main(["simulate", "bitcount"]) == 0
    out = capsys.readouterr().out
    assert "NoFusion" in out
    assert "Helios" in out
    assert "vs base" in out


def test_simulate_single_mode(capsys):
    assert main(["simulate", "bitcount", "--mode", "Helios"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out
    assert "coverage" in out


def test_simulate_with_fp_kind(capsys):
    assert main(["simulate", "bitcount", "--mode", "Helios",
                 "--fp-kind", "tage"]) == 0
    assert "IPC" in capsys.readouterr().out


def test_simulate_unknown_workload():
    with pytest.raises(SystemExit, match="unknown workload"):
        main(["simulate", "not-a-workload"])


def test_simulate_unknown_mode():
    with pytest.raises(SystemExit, match="unknown mode"):
        main(["simulate", "bitcount", "--mode", "Banana"])


def test_experiment_table2(capsys):
    assert main(["experiment", "table2"]) == 0
    assert "Table II" in capsys.readouterr().out


def test_experiment_with_subset(capsys):
    assert main(["experiment", "fig2", "--workloads", "bitcount"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "bitcount" in out


def test_experiment_unknown():
    with pytest.raises(SystemExit, match="unknown experiment"):
        main(["experiment", "fig99"])


def test_experiment_unknown_workload():
    with pytest.raises(SystemExit, match="unknown workload"):
        main(["experiment", "fig2", "--workloads", "nope"])


def test_simulate_fp_kind_requires_helios_mode():
    with pytest.raises(SystemExit, match="no effect with --mode NoFusion"):
        main(["simulate", "bitcount", "--mode", "NoFusion",
              "--fp-kind", "tage"])


def test_experiment_fp_kind_threads_config(capsys, tmp_path):
    assert main(["experiment", "table3", "--workloads", "bitcount",
                 "--fp-kind", "tage", "--cache-dir", str(tmp_path)]) == 0
    assert "Table III" in capsys.readouterr().out


def test_experiment_fp_kind_inapplicable():
    # fig2 is a census: it never simulates Helios, so --fp-kind would
    # be silently ignored — error out instead.
    with pytest.raises(SystemExit, match="never simulates"):
        main(["experiment", "fig2", "--workloads", "bitcount",
              "--fp-kind", "tage"])
    with pytest.raises(SystemExit, match="table2"):
        main(["experiment", "table2", "--fp-kind", "tage"])


def test_experiment_parallel_jobs_with_cache(capsys, tmp_path):
    clear_cache()  # cold in-process memo: force the disk path
    argv = ["experiment", "fig3", "--workloads", "bitcount",
            "--jobs", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert "Figure 3" in capsys.readouterr().out
    assert len(list(tmp_path.glob("*.json"))) == 3  # one per mode
    # Re-run served from the persistent cache.
    assert main(argv) == 0
    assert "Figure 3" in capsys.readouterr().out


def test_cache_subcommand_info_and_clear(capsys, tmp_path):
    clear_cache()  # cold in-process memo: force the disk path
    assert main(["experiment", "fig3", "--workloads", "bitcount",
                 "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entries: 3" in out
    assert "bitcount" in out
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert "removed 3" in capsys.readouterr().out
    assert list(tmp_path.glob("*.json")) == []


def test_trace_subcommand_info_and_clear(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
    from repro.workloads import build_workload, clear_trace_memo
    clear_trace_memo()
    build_workload("bitcount", max_uops=2000)
    clear_trace_memo()
    assert main(["trace", "--trace-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entries: 1" in out
    assert "bitcount" in out
    assert main(["trace", "clear", "--trace-dir", str(tmp_path)]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert list(tmp_path.glob("*.trc")) == []


def test_trace_export(capsys, tmp_path):
    out_path = tmp_path / "bitcount.jsonl"
    assert main(["trace", "export", "bitcount",
                 "--out", str(out_path)]) == 0
    assert "portable JSON-lines" in capsys.readouterr().out
    from repro.isa import load_trace
    trace = load_trace(str(out_path))
    assert trace.name == "bitcount"
    assert len(trace) > 0


def test_trace_export_requires_workload():
    with pytest.raises(SystemExit, match="needs a workload"):
        main(["trace", "export"])
    with pytest.raises(SystemExit, match="unknown workload"):
        main(["trace", "export", "nope"])


def test_storage_report(capsys):
    assert main(["storage"]) == 0
    out = capsys.readouterr().out
    assert "fusion_predictor" in out
    assert "grand total" in out


def test_simulate_sampled_tiny_trace_reports_exact(capsys):
    # Natural dijkstra is too short for the default 32-strata plan:
    # the sampler must fall back to full detail and say so.
    assert main(["simulate", "dijkstra", "--sample"]) == 0
    out = capsys.readouterr().out
    assert "sampled estimate" in out
    assert "full detail (exact" in out


def test_simulate_sampled_explicit_windows(capsys):
    assert main(["simulate", "dijkstra", "--sample", "6",
                 "--mode", "Helios"]) == 0
    out = capsys.readouterr().out
    assert "sampled estimate: dijkstra, Helios" in out
    assert "95% CI" in out


def test_simulate_segments_splices(capsys):
    assert main(["simulate", "dijkstra", "--segments", "2",
                 "--mode", "Helios"]) == 0
    out = capsys.readouterr().out
    assert "spliced from 2 segment(s)" in out
    assert "bit-exact" in out


def test_simulate_sample_and_segments_conflict():
    with pytest.raises(SystemExit, match="alternative strategies"):
        main(["simulate", "dijkstra", "--sample", "--segments", "2"])


# ---- fault tolerance surface -------------------------------------------------

def test_experiment_writes_report_json(capsys, tmp_path):
    clear_cache()  # cold in-process memo: force actual execution
    report_file = tmp_path / "sweep.json"
    assert main(["experiment", "cpi", "--workloads", "crc32",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--report-json", str(report_file)]) == 0
    out = capsys.readouterr().out
    assert "wrote sweep execution report to" in out
    payload = json.loads(report_file.read_text())
    assert payload["summary"]["jobs"] == 2      # NoFusion + Helios
    assert payload["summary"]["failed"] == 0
    assert main(["sweep-report", str(report_file)]) == 0
    out = capsys.readouterr().out
    assert "sweep report: 2 job(s)" in out
    assert "crc32" in out and "ok" in out


def test_experiment_writes_report_json_when_sweep_fails(
        capsys, tmp_path, monkeypatch):
    clear_cache()  # cold in-process memo: force actual execution
    # Every pool attempt raises; with no retries nothing degrades to
    # the (injection-immune) serial phase, so the sweep fails.
    monkeypatch.setenv(FAULT_INJECT_ENV, "raise:1.0")
    report_file = tmp_path / "sweep.json"
    assert main(["experiment", "cpi", "--workloads", "crc32",
                 "--jobs", "2", "--retries", "0",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--report-json", str(report_file)]) == 1
    captured = capsys.readouterr()
    assert "sweep failed" in captured.err
    assert "wrote sweep execution report to" in captured.out
    payload = json.loads(report_file.read_text())
    assert payload["summary"]["jobs"] == 2      # NoFusion + Helios
    assert payload["summary"]["failed"] == 2


def test_sweep_report_flags_failed_jobs(capsys, tmp_path):
    report = SweepReport(jobs=[JobRecord(
        workload="crc32", mode="Helios", ok=False,
        attempts=[AttemptRecord(attempt=1, where="pool",
                                outcome="lost-worker", duration_s=0.5,
                                error="WorkerLost: exit code -9",
                                exitcode=-9)])],
        workers=4, timeout_s=30.0, retries=0)
    path = tmp_path / "failed.json"
    path.write_text(json.dumps(report.to_dict()))
    assert main(["sweep-report", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "lost-worker" in out
    assert "WorkerLost" in out


def test_sweep_report_rejects_bad_input(tmp_path):
    with pytest.raises(SystemExit, match="cannot read"):
        main(["sweep-report", str(tmp_path / "missing.json")])
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(SystemExit, match="invalid sweep report"):
        main(["sweep-report", str(bad)])


def test_cache_info_counts_orphans_and_quarantine(capsys, tmp_path):
    (tmp_path / "in-flight.tmp").write_text("x")
    (tmp_path / "bad.json.corrupt").write_text("y")
    assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "orphaned tmp files: 1" in out
    assert "quarantined corrupt entries: 1" in out
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert "removed 2" in capsys.readouterr().out


def test_trace_info_counts_orphans_and_quarantine(capsys, tmp_path):
    (tmp_path / "in-flight.tmp").write_bytes(b"x")
    (tmp_path / "bad.trc.corrupt").write_bytes(b"y")
    assert main(["trace", "--trace-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "orphaned tmp files: 1" in out
    assert "quarantined corrupt entries: 1" in out


def test_simulate_segments_accepts_fault_knobs(capsys):
    assert main(["simulate", "crc32", "--segments", "2",
                 "--job-timeout", "300", "--retries", "1"]) == 0
    assert "spliced from 2 segment(s)" in capsys.readouterr().out


def test_simulate_sample_needs_two_strata():
    with pytest.raises(SystemExit, match="at least 2 strata"):
        main(["simulate", "dijkstra", "--sample", "1"])


def test_simulate_max_uops_caps_trace(capsys):
    assert main(["simulate", "bitcount", "--mode", "NoFusion",
                 "--max-uops", "5000"]) == 0
    out = capsys.readouterr().out
    assert "5000 instructions" in out or "IPC" in out


def test_static_contract_table(capsys):
    assert main(["static", "dijkstra", "--max-uops", "20000"]) == 0
    out = capsys.readouterr().out
    assert "dijkstra" in out
    assert "contract: ok" in out


def test_static_oracle_only_mode(capsys):
    assert main(["static", "bitcount", "--mode", "oracle",
                 "--max-uops", "10000"]) == 0
    out = capsys.readouterr().out
    assert "contract: ok" in out
    # No Helios pipeline run: the committed column shows a dash.
    row = next(line for line in out.splitlines()
               if line.startswith("bitcount"))
    assert " - " in row


def test_static_verbose_and_explain(capsys):
    assert main(["static", "dijkstra", "--max-uops", "10000",
                 "--verbose", "--explain", "0x10008,0x1000c"]) == 0
    out = capsys.readouterr().out
    assert "static candidates:" in out
    assert "0x10008" in out


def test_static_json_report(capsys, tmp_path):
    report_file = tmp_path / "static.json"
    assert main(["static", "bitcount,dijkstra", "--max-uops", "10000",
                 "--candidates", "--json", str(report_file)]) == 0
    payload = json.loads(report_file.read_text())
    assert isinstance(payload, list) and len(payload) == 2
    by_name = {entry["workload"]: entry for entry in payload}
    assert by_name["dijkstra"]["ok"]
    assert "candidates" in by_name["dijkstra"]["static"]


def test_static_unknown_workload():
    with pytest.raises(SystemExit, match="unknown workload"):
        main(["static", "not-a-workload"])


def test_static_unknown_mode():
    with pytest.raises(SystemExit, match="unknown mode"):
        main(["static", "bitcount", "--mode", "banana"])


def test_analyze_with_static_contract(capsys):
    assert main(["analyze", "dijkstra", "--mode", "Helios",
                 "--max-uops", "10000", "--static"]) == 0
    assert "no divergences" in capsys.readouterr().out


# ---- accepted flags ----------------------------------------------------------

#: Every subcommand's arguments as ``{flag or positional: (default,
#: choices, type name, nargs, const)}``, taken from ``build_parser()``
#: while each subcommand still declared its own copy of the shared
#: flags.  Declaring them once must not change what the CLI accepts.
CLI_SNAPSHOT = {
    "analyze": {
        "--explain": (None, None, "function", None, None),
        "--json": (None, None, None, None, None),
        "--max-uops": (None, None, "int", None, None),
        "--mode": (None, None, None, None, None),
        "--no-sanitize": (False, None, None, 0, True),
        "--static": (False, None, None, 0, True),
        "workloads": (None, None, None, None, None),
    },
    "cache": {
        "--cache-dir": (None, None, None, None, None),
        "action": ("info", ("info", "clear"), None, "?", None),
    },
    "debug": {
        "--events-out": (None, None, None, None, None),
        "--fp-kind": (None, ("tournament", "tage", "local"), None, None, None),
        "--max-uops": (None, None, "int", None, None),
        "--mode": (None, None, None, None, None),
        "--ring": (None, None, "int", None, None),
        "workload": (None, None, None, None, None),
    },
    "experiment": {
        "--cache-dir": (None, None, None, None, None),
        "--fp-kind": (None, ("tournament", "tage", "local"), None, None, None),
        "--job-timeout": (None, None, "float", None, None),
        "--jobs": (None, None, "int", None, None),
        "--no-cache": (False, None, None, 0, True),
        "--report-json": (None, None, None, None, None),
        "--retries": (None, None, "int", None, None),
        "--workloads": (None, None, None, None, None),
        "name": (None, None, None, None, None),
    },
    "loadgen": {
        "--duplicate-ratio": (0.5, None, "float", None, None),
        "--host": (None, None, None, None, None),
        "--hot-keys": (8, None, "int", None, None),
        "--json": (None, None, None, None, None),
        "--port": (0, None, "int", None, None),
        "--quick": (False, None, None, 0, True),
        "--requests": (200, None, "int", None, None),
        "--seed": (0, None, "int", None, None),
        "--socket": (None, None, None, None, None),
        "--timeout": (300.0, None, "float", None, None),
        "--verb": ("simulate", ("simulate", "sample", "analyze"), None, None, None),
        "--workers": (4, None, "int", None, None),
    },
    "profile": {
        "--fp-kind": (None, ("tournament", "tage", "local"), None, None, None),
        "--json-out": (None, None, None, None, None),
        "--max-uops": (None, None, "int", None, None),
        "--mode": (None, None, None, None, None),
        "--pstats-out": (None, None, None, None, None),
        "--top": (15, None, "int", None, None),
        "workload": (None, None, None, None, None),
    },
    "serve": {
        "--host": (None, None, None, None, None),
        "--job-timeout": (None, None, "float", None, None),
        "--lru-capacity": (256, None, "int", None, None),
        "--max-batch": (8, None, "int", None, None),
        "--metrics-json": (None, None, None, None, None),
        "--no-disk-cache": (False, None, None, 0, True),
        "--pool-jobs": (1, None, "int", None, None),
        "--port": (0, None, "int", None, None),
        "--queue-limit": (64, None, "int", None, None),
        "--retries": (None, None, "int", None, None),
        "--socket": (None, None, None, None, None),
    },
    "simulate": {
        "--fp-kind": (None, ("tournament", "tage", "local"), None, None, None),
        "--job-timeout": (None, None, "float", None, None),
        "--jobs": (None, None, "int", None, None),
        "--max-uops": (None, None, "int", None, None),
        "--mode": (None, None, None, None, None),
        "--retries": (None, None, "int", None, None),
        "--sample": (None, None, "int", "?", 32),
        "--scale-to": (None, None, "int", None, None),
        "--segments": (None, None, "int", None, None),
        "--warmup": (None, None, "int", None, None),
        "workload": (None, None, None, None, None),
    },
    "static": {
        "--candidates": (False, None, None, 0, True),
        "--explain": (None, None, "_parse_pc_pair", None, None),
        "--json": (None, None, None, None, None),
        "--max-uops": (None, None, "int", None, None),
        "--mode": (None, None, None, None, None),
        "--path-budget": (20000, None, "int", None, None),
        "--verbose": (False, None, None, 0, True),
        "workloads": (None, None, None, None, None),
    },
    "storage": {},
    "sweep-report": {
        "file": (None, None, None, None, None),
    },
    "trace": {
        "--out": (None, None, None, None, None),
        "--trace-dir": (None, None, None, None, None),
        "action": ("info", ("info", "clear", "export"), None, "?", None),
        "workload": (None, None, None, "?", None),
    },
    "workloads": {},
}


def _cli_snapshot():
    parser = build_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    snapshot = {}
    for name, sub in commands.choices.items():
        rows = {}
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            key = "/".join(action.option_strings) or action.dest
            kind = getattr(action.type, "__name__", None)
            rows[key] = (action.default,
                         tuple(action.choices) if action.choices else None,
                         "function" if kind == "<lambda>" else kind,
                         action.nargs, action.const)
        snapshot[name] = rows
    return snapshot


def test_cli_accepts_the_same_flags():
    assert _cli_snapshot() == CLI_SNAPSHOT
