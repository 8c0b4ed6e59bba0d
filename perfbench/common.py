"""Shared pieces of the benchmark: paths, run hygiene, program
processes, statistics and the metric lists.

The program is driven from outside: ``repro`` CLI subprocesses, a
``repro serve`` process and calls into public functions of the
package under ``src/`` of the same checkout.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for every run (gitignored); removed per run.
WORK_ROOT = ROOT / ".perfbench"

#: Settings that would silently change what a run measures.
FORBIDDEN_ENV = (
    "REPRO_JOBS",
    "REPRO_FAULT_INJECT",
    "REPRO_TRACE_EVENTS",
    "REPRO_SANITIZE",
    "REPRO_NO_CACHE",
    "REPRO_NO_TRACE_STORE",
)

#: Every ``repro experiment`` (table2 is static arithmetic and is left out).
EXPERIMENTS = (
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig8",
    "fig9",
    "fig10",
    "table1",
    "table3",
    "cpi",
    "legality",
)

#: Kernel subset of the reproduce workloads, one per catalog trait:
#: store-bound, pointer-chase + branchy, DBR pairs, 0% predictor coverage.
KERNELS = ("657.xz_1", "631.deepsjeng", "dijkstra", "rijndael")

#: The fusion modes, by their ``FusionMode`` values.
MODES = (
    "NoFusion",
    "RISCVFusion",
    "CSF-SBR",
    "RISCVFusion++",
    "Helios",
    "OracleFusion",
)

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_s", "s"),
    ("op_gmean_ms", "ms"),
)

PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
    ("capture.calls", "count"),
    ("capture.busy_s", "s"),
    ("capture.uops_per_s", "1/s"),
    ("trace_store.get_s", "s"),
    ("trace_store.put_s", "s"),
    ("trace_store.hit_ratio", "ratio"),
    ("trace_store.bytes", "bytes"),
    ("oracle.calls", "count"),
    ("oracle.busy_s", "s"),
    ("census.busy_s", "s"),
    ("legality.calls", "count"),
    ("legality.busy_s", "s"),
    ("legality.candidates_per_s", "1/s"),
    ("pipeline.runs", "count"),
    ("pipeline.busy_s", "s"),
    ("pipeline.uops_per_s", "1/s"),
    ("pipeline.host_ns_per_cycle", "ns"),
    ("result_cache.get_s", "s"),
    ("result_cache.put_s", "s"),
    ("result_cache.hit_ratio", "ratio"),
    ("result_cache.bytes", "bytes"),
    ("engine.busy_s", "s"),
    ("scheduler.wall_s", "s"),
    ("scheduler.job_s", "s"),
    ("scheduler.overhead_s", "s"),
    ("scheduler.attempts", "count"),
    ("scheduler.retries", "count"),
    ("scheduler.lost", "count"),
    ("render.busy_s", "s"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.bytes", "bytes"),
    ("serve.lru_hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.executions", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.busy", "count"),
    ("trace.work_s", "s"),
    ("trace.untraced_work_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_pct", "%"),
    ("trace.unattributed_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad environment)."""


def check_environment() -> None:
    """Refuse to run where the results would not mean what they say."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError("program sources not found under %s" % SRC)
    set_vars = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if set_vars:
        raise BenchError("refusing to run with %s set" % ", ".join(set_vars))


def import_program() -> None:
    """Make this checkout's ``repro`` package importable here."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC not in where.parents:
        raise BenchError("imported repro from %s, not from %s" % (where, SRC))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def program_env(cache_dir, trace_dir) -> dict:
    """Environment of every program process: this checkout's sources and
    the run's own stores, never the user's ``~/.cache/repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_TRACE_DIR"] = str(trace_dir)
    return env


def repro_cmd(args, spans_out=None) -> list:
    """Command line of one ``repro`` invocation, traced or not."""
    if spans_out is None:
        return [sys.executable, "-m", "repro", *args]
    return [
        sys.executable,
        str(BENCH_DIR / "traced_repro.py"),
        "--spans-out",
        str(spans_out),
        "--",
        *args,
    ]


def run_process(cmd, env, timeout=150.0):
    """Run one program process to completion.

    Returns ``(returncode, stdout, start_ns, end_ns, pid)``; a process
    that outlives ``timeout`` is killed and reported with code -9.
    """
    start = time.monotonic_ns()
    proc = subprocess.Popen(
        cmd,
        env=env,
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        proc.returncode = -9
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    end = time.monotonic_ns()
    if proc.returncode != 0:
        sys.stderr.write(
            "perfbench: %s exited %d\n%s"
            % (" ".join(cmd[-6:]), proc.returncode, err[-2000:])
        )
    return proc.returncode, out, start, end, proc.pid


def stop_process(proc, timeout=30.0) -> None:
    """SIGTERM, wait, then SIGKILL: never leave a program process behind."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


#: Host speed at which scaled times equal wall times: the calibration
#: loop below takes this long (a quiet host of the development VM).
REF_CAL_S = 0.050


#: Processes that run the calibration loop, one per CPU; made on first use.
_CALIBRATION_POOL = None


def _calibration_loop(_index) -> float:
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now.

    Run between program processes, never beside them.  The host is a
    shared VM whose speed drifts by up to 2x over minutes (this loop
    took 41-84 ms on the development VM), so every timing is also
    reported scaled to ``REF_CAL_S`` with the calibrations taken just
    before and after it.  The loop runs in ``nproc`` processes at once
    and their mean is returned: the program keeps every CPU busy, and
    on the development VM this tracked cold passes twice as closely as
    one loop did (interquartile range 4.6% of the median against 8.0%
    over ten passes timed with both).
    """
    global _CALIBRATION_POOL
    if _CALIBRATION_POOL is None:
        context = multiprocessing.get_context("fork")
        _CALIBRATION_POOL = context.Pool(nproc())
    times = _CALIBRATION_POOL.map(_calibration_loop, range(nproc()), 1)
    return statistics.fmean(times)


def stop_calibration() -> None:
    """End the calibration processes and wait for them."""
    global _CALIBRATION_POOL
    if _CALIBRATION_POOL is not None:
        _CALIBRATION_POOL.terminate()
        _CALIBRATION_POOL.join()
        _CALIBRATION_POOL = None


def scale(before: float, after: float) -> float:
    """Factor converting wall time measured between two calibrations
    into time at the reference host speed."""
    return REF_CAL_S / ((before + after) / 2.0)


def cli_setup_seconds(env, spawns=2) -> list:
    """Spawn-to-ready times of the CLI, scaled to the reference speed:
    ``repro --help`` imports the whole command surface and parses its
    arguments, then exits."""
    times = []
    before = calibrate()
    for _ in range(spawns):
        code, _, start, end, _ = run_process(
            repro_cmd(["--help"]), env, timeout=60
        )
        if code != 0:
            raise BenchError("repro --help failed (exit %d)" % code)
        times.append((end - start) / 1e9)
    factor = scale(before, calibrate())
    return [t * factor for t in times]


def peak_rss_mb() -> float:
    """Peak resident memory of the largest program process waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of one running process (``VmHWM``)."""
    try:
        with open("/proc/%d/status" % pid, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    raise BenchError("cannot read the peak memory of process %d" % pid)


def geomean(values) -> float:
    """Typical size of values that span orders of magnitude (0.2 s to
    5 s experiments; sub-millisecond hits to 200 ms executions): every
    value counts, so it does not jump between clusters as a median of
    few samples does."""
    return math.exp(statistics.fmean(math.log(v) for v in values))


def tail_percentile(values, min_beyond=10):
    """Latency at the highest percentile with >= ``min_beyond`` samples
    beyond it; returns ``(percentile, value, samples)``.

    Candidates are 99.9, 99, 95, 90, 75 and 50.  A percentile's value
    is the sample at rank ``ceil(p/100 * n)``; the samples beyond it
    are the ``n - rank`` above that rank.  Fewer than ``min_beyond + 1``
    samples give ``(None, None, n)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= min_beyond:
            return pct, ordered[rank - 1], n
    return None, None, n


def output_digest(text: str) -> str:
    """Digest of a rendered experiment, independent of row order (the
    kernel order of a run comes from its seed)."""
    lines = sorted(line.rstrip() for line in text.splitlines())
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def store_bytes(trace_dir, cache_dir) -> tuple:
    """Sizes of a run's trace store and result cache, as the program
    itself counts them."""
    from repro.experiments.cache import ResultCache
    from repro.workloads.trace_store import TraceStore

    return (
        TraceStore(trace_dir).size_bytes(),
        ResultCache(cache_dir).size_bytes(),
    )


def metric_block(values: dict, names) -> dict:
    """The result's ``metrics`` object: exactly ``names``, each with its
    unit.  A missing value is a benchmark bug, not a zero."""
    missing = [name for name, _ in names if name not in values]
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    return {
        name: {"value": values[name], "unit": unit} for name, unit in names
    }


class Tally:
    """Attempted and failed operations of one run, with what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    @property
    def failed_pct(self) -> float:
        return 100.0 * self.failed / self.attempted if self.attempted else 0.0
