"""The profiling subsystem (`repro profile`) and bench throughput deltas."""

import json

import pstats

import pytest

from repro.config import FusionMode
from repro.perf.harness import _throughput, compare_with_previous, load_bench
from repro.perf.profile import (
    dump_pstats,
    profile_run,
    render_profile,
    serializable,
)


@pytest.fixture(scope="module")
def payload():
    return profile_run("bitcount", mode=FusionMode.HELIOS,
                       max_uops=8000, top=5)


def test_profile_run_headline(payload):
    assert payload["workload"] == "bitcount"
    assert payload["mode"] == "Helios"
    assert payload["uops"] > 0
    assert payload["cycles"] > 0
    assert payload["profiled_run_s"] > 0


def test_profile_cycles_match_unprofiled_run(payload):
    # The profiler may slow the host, never the simulated machine.
    from repro.config import ProcessorConfig
    from repro.pipeline.core import PipelineCore
    from repro.workloads import build_workload

    trace = build_workload("bitcount", max_uops=8000)
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    assert PipelineCore(trace, config).run().cycles == payload["cycles"]


def test_profile_stage_attribution_partitions_time(payload):
    stages = payload["stages"]
    assert stages, "no stages attributed"
    names = {row["stage"] for row in stages}
    # The pipeline stages must be visible in any real run.
    assert {"issue", "commit", "rename"} <= names
    # tottime partitions exactly: percentages sum to ~100.
    assert sum(row["pct"] for row in stages) == pytest.approx(100.0, abs=1.5)


def test_profile_top_functions_and_buckets(payload):
    assert len(payload["top_functions"]) == 5
    assert all(row["tottime_s"] >= 0 for row in payload["top_functions"])
    # The same run's simulated top-down buckets ride along.
    assert sum(payload["cpi_buckets"].values()) > 0


def test_render_profile_text(payload):
    text = render_profile(payload)
    assert "host time by pipeline stage" in text
    assert "hottest functions" in text
    assert "simulated top-down slots" in text
    assert "bitcount" in text


def test_serializable_drops_profiler_and_dumps_pstats(payload, tmp_path):
    clean = serializable(payload)
    assert "_profiler" not in clean
    json.dumps(clean)  # must be JSON-safe
    out = tmp_path / "run.pstats"
    dump_pstats(payload, str(out))
    stats = pstats.Stats(str(out))
    assert stats.total_calls > 0


# -- bench throughput + previous-baseline comparison -------------------------


def _fake_payload(run_s, cycles, uops=1000):
    mode = FusionMode.NONE
    per_workload = {
        "w": {
            "uops": uops,
            "modes": {"NoFusion": {"run_s": run_s, "cycles": cycles,
                                   "ipc": 1.0}},
        }
    }
    payload = {"workloads": per_workload, "timestamp": "t"}
    payload["throughput"] = _throughput(per_workload, [mode])
    return payload


def test_throughput_math():
    payload = _fake_payload(run_s=0.5, cycles=100)
    throughput = payload["throughput"]
    assert throughput["aggregate_uops"] == 1000
    assert throughput["aggregate_uops_per_s"] == 2000
    assert throughput["per_mode_uops_per_s"]["NoFusion"] == 2000


def test_compare_with_previous_speedup_and_cycle_exactness():
    previous = _fake_payload(run_s=1.0, cycles=100)
    current = _fake_payload(run_s=0.5, cycles=100)
    compare_with_previous(current, previous)
    delta = current["vs_previous"]
    assert delta["aggregate_speedup"] == pytest.approx(2.0)
    assert delta["cells_compared"] == 1
    assert delta["cycles_identical"]


def test_compare_with_previous_flags_timing_change():
    previous = _fake_payload(run_s=1.0, cycles=100)
    current = _fake_payload(run_s=0.5, cycles=101)
    compare_with_previous(current, previous)
    delta = current["vs_previous"]
    assert not delta["cycles_identical"]
    assert delta["cycle_mismatches"] == ["w/NoFusion: 100 -> 101"]


def test_compare_with_previous_skips_different_budget():
    previous = _fake_payload(run_s=1.0, cycles=100, uops=500)
    current = _fake_payload(run_s=0.5, cycles=999, uops=1000)
    compare_with_previous(current, previous)
    delta = current["vs_previous"]
    # Different trace budgets: cycles not comparable, nothing flagged.
    assert delta["cells_compared"] == 0
    assert delta["cycles_identical"]


def test_compare_with_previous_reconstructs_old_aggregate():
    # Baselines written before the throughput block still yield a
    # speedup: the aggregate is rebuilt from their per-cell run_s.
    previous = _fake_payload(run_s=1.0, cycles=100)
    del previous["throughput"]
    current = _fake_payload(run_s=0.5, cycles=100)
    compare_with_previous(current, previous)
    delta = current["vs_previous"]
    assert delta["previous_aggregate_uops_per_s"] == 1000
    assert delta["aggregate_speedup"] == pytest.approx(2.0)


def test_compare_with_no_previous():
    current = _fake_payload(run_s=0.5, cycles=100)
    compare_with_previous(current, None)
    assert current["vs_previous"] is None


def test_load_bench_missing_and_corrupt(tmp_path):
    assert load_bench(str(tmp_path / "missing.json")) is None
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert load_bench(str(bad)) is None


def test_cli_profile_smoke(capsys, tmp_path):
    from repro.cli import main

    pstats_out = tmp_path / "prof.pstats"
    json_out = tmp_path / "prof.json"
    assert main(["profile", "bitcount", "--mode", "NoFusion",
                 "--max-uops", "5000", "--top", "3",
                 "--pstats-out", str(pstats_out),
                 "--json-out", str(json_out)]) == 0
    out = capsys.readouterr().out
    assert "host time by pipeline stage" in out
    assert pstats_out.exists()
    payload = json.loads(json_out.read_text())
    assert payload["workload"] == "bitcount"
    assert "_profiler" not in payload
