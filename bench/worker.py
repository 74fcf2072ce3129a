"""One workload in one fresh process: set-up, timed task list, checks, trace.

Started by bench/run.py as

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

It imports `stardeform.cli`, runs the workload's fixed warm-up task and
prints `ready` (run.py times set-up from process start to that line).
With --setup-only it checks the warm-up output and exits.  Otherwise it runs
the seeded task list one task at a time (closed loop, one client), then
checks every output and prints one JSON line with the raw measurements.

verify-* tasks call `stardeform.cli.main(argv)` in this process with stdout
captured; cli-tables tasks run `python -m stardeform.cli` in a child process,
one at a time.  With TRACE=1 the same task list runs once untraced and once
traced, followed by the kernel probes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# One CPU for the worker and its CLI children: the calibration samples then
# run where the tasks run, and numpy's BLAS sizes its thread pool to one.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import stardeform.cli  # noqa: E402  (set-up includes this import)

import calib  # noqa: E402
import probes  # noqa: E402
import tasks as T  # noqa: E402
import tracer  # noqa: E402

# Seconds one cycle of each workload takes on the reference machine (2-core
# x86-64 VM, Python 3.11).  A run executes about seconds / cycle whole
# cycles, rounded to whole blocks of stratified draws (tasks.BLOCK_CYCLES), so
# the task list, and with it every count, depends only on the seed and
# --seconds, and a faster program finishes the same work sooner.
CYCLE_SECONDS = {"verify-exact": 6.5, "verify-numeric": 0.8, "cli-tables": 4.5}
# A run stops early (and reports fewer tasks) past this multiple of --seconds.
SAFETY_FACTOR = 3.0
CHILD_TIMEOUT_S = 60.0

CLI_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_inproc(argv: list):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = stardeform.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = "exception"
    return rc, out.getvalue(), err.getvalue()


def run_cli(argv: list):
    """`python -m stardeform.cli argv` in a fresh child process."""
    try:
        p = subprocess.run([sys.executable, "-m", "stardeform.cli", *argv], capture_output=True,
                           text=True, env=CLI_ENV, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", "", ""
    return p.returncode, p.stdout, p.stderr


def run_cli_traced(argv: list, summary: dict):
    """`stardeform argv` in a child that traces itself and reports over a pipe."""
    rfd, wfd = os.pipe()
    try:
        p = subprocess.Popen([sys.executable, str(ROOT / "bench" / "tracer.py"), str(wfd),
                              *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, env=CLI_ENV, cwd=ROOT, pass_fds=(wfd,))
    finally:
        os.close(wfd)
    with os.fdopen(rfd) as fh:
        try:
            out, err = p.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            return "timeout", "", ""
        tracer.merge(summary, json.loads(fh.read() or "{}"))
    return p.returncode, out, err


def run_pass(task_list: list, runner, deadline: float, cals=None) -> list:
    """Run tasks in order; each result is (task, rc, stdout, stderr, latency
    seconds).  With a cals list, a calibration sample is taken before each
    task, outside its latency."""
    results = []
    cal_per_task = -(-calib.SAMPLES_PER_RUN // len(task_list))
    for task in task_list:
        if time.perf_counter() > deadline:
            break
        if cals is not None:
            cals.extend(calib.calibrate() for _ in range(cal_per_task))
        t0 = time.perf_counter()
        rc, out, err = runner(task)
        results.append((task, rc, out, err, time.perf_counter() - t0))
    return results


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-tables" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    workload, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), \
        sys.argv[4] == "1"
    setup_only = "--setup-only" in sys.argv[5:]
    in_process = workload != "cli-tables"
    if in_process:
        def runner(task):
            return run_inproc(task["argv"])
    else:
        def runner(task):
            return run_cli(task["argv"])

    warm = T.WARMUP[workload]
    warm_result = (warm, *runner(warm))
    print("ready", flush=True)

    golden = T.load_golden()
    warm_status = T.check(*warm_result, golden)
    if setup_only:
        if warm_status != T.OK:
            print(f"warm-up task failed: {warm_status}", file=sys.stderr)
            return 1
        return 0

    block = T.BLOCK_CYCLES[workload]
    n_blocks = max(1, round(seconds / CYCLE_SECONDS[workload] / block))
    if trace:
        n_blocks = max(1, n_blocks // 2)
    n_cycles = block * n_blocks
    task_list = [t for cycle in T.make_cycles(workload, seed, n_cycles) for t in cycle]
    deadline = time.perf_counter() + SAFETY_FACTOR * seconds

    cals = []
    results = run_pass(task_list, runner, deadline, cals)
    report = {"task_hash": T.task_list_hash(task_list), "planned": len(task_list), "cals": cals,
              "latencies": [r[4] for r in results], "peak_rss_mb": peak_rss_mb(workload)}

    checked = [warm_result] + [r[:4] for r in results]
    if trace:
        summary: dict = {}
        tr = tracer.Tracer()
        if in_process:
            tr.install()
            task_ids = itertools.count()

            def traced_runner(task):
                tr.task = next(task_ids)
                return run_inproc(task["argv"])
        else:
            def traced_runner(task):
                return run_cli_traced(task["argv"], summary)
        try:
            traced = run_pass(task_list[:len(results)], traced_runner,
                              time.perf_counter() + SAFETY_FACTOR * seconds)
        finally:
            tr.uninstall()
        if in_process:
            summary = tr.summary()
        checked += [r[:4] for r in traced]
        report.update(trace_summary=summary, traced_latencies=[r[4] for r in traced],
                      probes=probes.probes())

    statuses = [T.check(*r, golden) for r in checked]
    wrong = sorted({f"{r[0]['argv'][:2]}: {s}" for r, s in zip(checked, statuses)
                    if s not in (T.OK, T.KNOWN_DEFECT)})
    timed_statuses = statuses[1:1 + len(results)]
    report.update(attempted=len(results), failed=sum(s != T.OK for s in timed_statuses),
                  known_defects=sum(s == T.KNOWN_DEFECT for s in timed_statuses),
                  wrong=wrong, correct=not wrong)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
