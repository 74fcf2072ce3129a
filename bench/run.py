"""stardeform benchmark: one workload per call, end-to-end or traced.

    python3 bench/run.py --workload verify-exact --seed 1 --seconds 30 --trace 0

Run from the repository root (the library is imported from ./src; nothing
needs installing).  Workloads:

  verify-exact    `stardeform verify {core,halfseries,vertex}` in-process
  verify-numeric  `stardeform verify {starexp,special,theta,dist,residue}` in-process
  cli-tables      fresh `python -m stardeform.cli` processes: tables, eval, theta, ...

The workload runs in a fresh worker process (bench/worker.py); this script
times its set-up, collects its raw measurements, prints a readable report and,
as the last line of stdout, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the task list untraced
and traced and reports the per-layer metrics (span calls and self time, module
self time, CLI import time, tracing overhead, kernel probes).  See
bench/README.md for the metrics, the workloads and what should move what.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import calib  # noqa: E402
from tasks import WORKLOADS  # noqa: E402
from tracer import SPANS, module_of  # noqa: E402

SETUP_RUNS = 5          # fresh processes whose set-up time is measured; median reported
IMPORT_PROBE_RUNS = 5   # pairs of `python -c pass` / `python -c "import stardeform.cli"`
RUN_TIMEOUT_S = 170.0   # the whole call, every child included

END_TO_END_UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms",
                    "task_tail_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _worker_cmd(args, setup_only: bool) -> list:
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace)]
    return cmd + (["--setup-only"] if setup_only else [])


def run_worker(args, setup_only: bool, deadline: float) -> tuple:
    """Start a worker; returns (seconds from start to its `ready` line, its report)."""
    t0 = time.perf_counter()
    # own session, so a timeout can stop the worker's CLI child with it
    p = subprocess.Popen(_worker_cmd(args, setup_only), stdout=subprocess.PIPE, text=True,
                         cwd=ROOT, start_new_session=True)
    try:
        ready, _, _ = select.select([p.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = p.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker did not get ready: {line.strip()!r}")
        out, _ = p.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except (subprocess.TimeoutExpired, BenchError):
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise
    if p.returncode != 0:
        raise BenchError(f"worker exited with {p.returncode}")
    return setup, (None if setup_only else json.loads(out.strip().splitlines()[-1]))


def import_ms(deadline: float) -> float:
    """Median time of `import stardeform.cli` in a fresh interpreter, minus bare start-up."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times: dict = {"pass": [], "import stardeform.cli": []}
    for _ in range(IMPORT_PROBE_RUNS):
        for code in times:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT,
                           timeout=max(1.0, deadline - time.perf_counter()))
            times[code].append(time.perf_counter() - t0)
    return 1000 * (statistics.median(times["import stardeform.cli"])
                   - statistics.median(times["pass"]))


def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with >= 10 samples above."""
    lat = sorted(latencies)
    idx = max(0, len(lat) - 11)
    return lat[idx], 100.0 * (idx + 1) / len(lat), len(lat) - idx - 1


def end_to_end(rep: dict, setups: list) -> dict:
    """Metrics in reference-machine units: times divided by the speed factor
    the worker sampled during its run (see calib.py)."""
    lat = rep["latencies"]
    speed = calib.factor(rep["cals"])
    tail_v, _, _ = tail(lat)
    return {"setup_s": statistics.median(setups) / speed,
            "tasks_per_s": speed * len(lat) / sum(lat),
            "task_p50_ms": 1000 * statistics.median(lat) / speed,
            "task_tail_ms": 1000 * tail_v / speed,
            "peak_rss_mb": rep["peak_rss_mb"]}


def per_layer(rep: dict, cli_import_ms: float) -> tuple:
    """{name: (value, unit)}; timings raw, not scaled by the speed factor."""
    summary = rep["trace_summary"]
    out = {}
    modules: dict = {}
    for span in SPANS:
        calls, self_ns = summary.get(span, (0, 0))
        out[f"{span}.calls"] = (calls, "count")
        out[f"{span}.self_ms"] = (self_ns / 1e6, "ms")
        modules[module_of(span)] = modules.get(module_of(span), 0) + self_ns / 1e6
    for mod, ms in modules.items():
        out[f"{mod}.self_ms"] = (ms, "ms")
    out["cli.import_ms"] = (cli_import_ms, "ms")
    traced = rep["traced_latencies"]
    untraced = rep["latencies"][:len(traced)]
    out["trace_overhead_frac"] = (1 - sum(untraced) / sum(traced), "ratio")
    for name, us in rep["probes"].items():
        out[name] = (us, "us")
    return out


def report_header(args, rep: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"tasks {rep['attempted']} of {rep['planned']} planned  "
          f"task_list_sha256 {rep['task_hash']}")
    failed, n = rep["failed"], rep["attempted"]
    known = rep["known_defects"]
    print(f"  failed_frac {failed / n:.4f}  ({failed} of {n} tasks failed"
          + (f", {known} of them the known `table laguerre` defect)" if known else ")"))
    for line in rep["wrong"]:
        print(f"  WRONG {line}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "stardeform" / "cli.py").is_file():
        print(f"no stardeform sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    try:
        if args.trace:
            cli_import = import_ms(deadline)
            _, rep = run_worker(args, False, deadline)
            metrics = per_layer(rep, cli_import)
        else:
            setups = [run_worker(args, True, deadline)[0] for _ in range(SETUP_RUNS - 1)]
            setup, rep = run_worker(args, False, deadline)
            setups.append(setup)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(rep, setups).items()}
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    correct = rep["correct"]
    report_header(args, rep)
    if args.trace:
        silent = [s for s, (_, _, wl) in SPANS.items()
                  if wl == args.workload and metrics[f"{s}.calls"][0] == 0]
        if silent:
            correct = False
            print(f"spans with no calls on {args.workload}: {silent}", file=sys.stderr)
    else:
        lat = rep["latencies"]
        tail_v, pct, beyond = tail(lat)
        print(f"  timings below are in reference-machine units: raw times divided by the host "
              f"speed factor {calib.factor(rep['cals']):.4f} (median of {len(rep['cals'])} "
              f"calibration samples)")
        print(f"  raw: tasks_per_s {len(lat) / sum(lat):.4f}, task_p50_ms "
              f"{1000 * statistics.median(lat):.2f}, task_tail_ms {1000 * tail_v:.2f}, "
              f"setup_s {', '.join(f'{s:.4f}' for s in setups)}")
        print(f"  task_tail_ms is p{pct:.1f}: {beyond} of {len(lat)} samples beyond it")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": rep["attempted"], "failed": rep["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
