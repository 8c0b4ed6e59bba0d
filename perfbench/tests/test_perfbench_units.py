"""Fast checks of the benchmark's rules (no workload runs)."""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import common
import pytest
import reference
import serve_mix

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK_JSON = common.ROOT / "BENCHMARK.json"


def test_tail_percentile_keeps_ten_samples_beyond():
    assert common.tail_percentile(range(1, 1001)) == (99.0, 990, 1000)
    assert common.tail_percentile(range(1, 501)) == (95.0, 475, 500)
    pct, value, samples = common.tail_percentile(range(1, 21))
    assert (pct, value, samples) == (50.0, 10, 20)
    assert sum(1 for v in range(1, 21) if v > value) >= 10


def test_tail_percentile_needs_enough_samples():
    assert common.tail_percentile(range(15)) == (None, None, 15)


def test_metric_names_are_well_formed():
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [name for name, _ in common.END_TO_END + common.PER_LAYER]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) * 2 == len(names)


def test_benchmark_json_matches_emitted_metric_lists():
    spec = json.loads(BENCHMARK_JSON.read_text())
    for listed, emitted in (
        (spec["end_to_end"], common.END_TO_END),
        (spec["per_layer"], common.PER_LAYER),
    ):
        assert [(m["name"], m["unit"]) for m in listed] == list(emitted)
    assert {w["name"] for w in spec["workloads"]} == {
        "reproduce-cold",
        "reproduce-warm",
        "serve-mix",
    }


def test_metric_block_refuses_a_missing_metric():
    values = {name: 1.0 for name, _ in common.END_TO_END}
    assert set(common.metric_block(values, common.END_TO_END)) == set(values)
    del values["work_s"]
    with pytest.raises(common.BenchError):
        common.metric_block(values, common.END_TO_END)


def test_schedule_is_seeded_and_keeps_the_block_mix():
    first, again, other = (serve_mix.schedule(s) for s in (3, 3, 4))
    items = [first(i) for i in range(200)]
    assert items == [again(i) for i in range(200)]
    assert items != [other(i) for i in range(200)]
    kinds = "".join(kind for kind, _ in items)
    assert kinds == serve_mix.BLOCK * 10
    keys = {key for _, key in items}
    ref = reference.load()
    assert all(reference.sim_key(*key) in ref["simulations"] for key in keys)


def _payload(key):
    from repro.config import FusionMode, ProcessorConfig
    from repro.core.simulator import simulate
    from repro.workloads import build_workload

    kernel, mode, max_uops = key
    trace = build_workload(kernel, max_uops=max_uops, use_store=False)
    config = ProcessorConfig().with_mode(FusionMode(mode))
    return simulate(trace, config).to_dict()


def test_corrupted_reference_entry_counts_as_failure():
    from repro.serve.protocol import Response

    key = serve_mix.unique_pool()[0]
    response = Response(id=1, ok=True, type="simulate", payload=_payload(key))
    ref = reference.load()

    tally = common.Tally()
    serve_mix.check_response(ref, key, response, None, tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    corrupted = copy.deepcopy(ref)
    corrupted["simulations"][reference.sim_key(*key)]["cycles"] += 1
    serve_mix.check_response(corrupted, key, response, None, tally)
    assert tally.failed == 1 and tally.failed_pct > 0


def test_corrupted_experiment_digest_counts_as_failure():
    import reproduce

    ref = copy.deepcopy(reference.load())
    text = "row b\nrow a\n"
    ref["experiments"]["fig2"] = common.output_digest("row a\nrow b")
    result = {"runs": [{"name": "fig2", "code": 0, "out": text}]}
    tally = common.Tally()
    reproduce.check_outputs(result, ref, tally)
    assert tally.failed == 0
    ref["experiments"]["fig2"] = "0" * 16
    reproduce.check_outputs(result, ref, tally)
    assert tally.failed == 1


@pytest.mark.parametrize("variable", common.FORBIDDEN_ENV)
def test_refuses_to_start_with_a_repro_setting(variable):
    env = dict(os.environ, **{variable: "1"})
    args = ["--workload", "serve-mix", "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(common.ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        common.BENCH_DIR,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    args = ["--workload", "reproduce-cold", "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_new_keys_are_sent_twice_in_a_row():
    item = serve_mix.schedule(9)
    items = [item(i) for i in range(400)]
    pairs = [
        (items[i][1], items[i + 1][1])
        for i in range(len(items) - 1)
        if items[i][0] == "U" and (i == 0 or items[i - 1][0] != "U")
    ]
    assert len(pairs) == 40
    assert all(first == second for first, second in pairs)
    assert len({first for first, _ in pairs}) == 40
    hot = {key for kind, key in items if kind == "H"}
    assert len(hot) == 8 and not hot & {first for first, _ in pairs}


def _span(span_id, parent, name, start, end):
    return {
        "id": span_id,
        "parent": parent,
        "name": name,
        "start": start,
        "end": end,
        "pid": 1,
        "tid": 1,
        "req": None,
        "args": {},
    }


def test_cli_main_self_time_is_unattributed():
    import spans

    collected = [
        _span(0, None, "experiment", 0, 100),
        _span(1, 0, "cli.import", 0, 10),
        _span(2, 0, "cli.main", 10, 90),
        _span(3, 2, "legality", 20, 60),
    ]
    layers = spans.summarize(collected, [(1, 0)])
    # 10 ns of root self time plus 40 ns of cli.main outside legality.
    assert layers["trace.unattributed_s"] == 50e-9
    assert layers["trace.attributed_pct"] == 50.0
    table = dict(spans.layer_table(collected, {(1, 0)}))
    assert table["(unattributed)"] == 50e-9
    assert table["analysis.legality"] == 40e-9
