"""Benchmark of the csns coupled solver.

Run from the root of a csns checkout:

    python3 perfbench/run.py --workload coupled2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seconds 20      # every workload, one at a time

Each workload runs in a fresh Python process (workload.py) that imports csns
from the checkout's src/ directory, one process at a time.  With --trace 0
the last line of standard output is a JSON object holding the end-to-end
metrics (steps_per_s, setup_s, peak_rss_mb); with --trace 1 it holds the
per-layer metrics instead.  The exit code is 1 when a correctness check
failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("coupled2d", "fluid3d", "small_io")
# one invocation must end within 180 s, including the child's set-up and
# its last round after the measuring time
INVOCATION_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    cap = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = cap
    return env


def run_workload(root, name, seed, seconds, trace, deadline):
    """Run one workload in its own process; returns the result object."""
    runs = root / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=runs))
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--src", str(root / "src"),
           "--out", str(scratch)]
    try:
        spawned = clock()
        proc = subprocess.run(cmd, cwd=root, env=child_env(root / "src"),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{name}: workload did not finish in time")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            runs.rmdir()
        except OSError:  # another run still holds files there
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name}: workload process exited "
                         f"{proc.returncode}")
    child = json.loads(lines[-1])
    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in child["metrics"].items()}
    if not trace:
        metrics["setup_s"] = {"value": child["setup_done"] - spawned,
                              "unit": "s"}
        metrics = {k: metrics[k]
                   for k in ("steps_per_s", "setup_s", "peak_rss_mb")}
    for line in child["bad_checks"]:
        print(f"{name}: FAILED {line}", file=sys.stderr)
    for layer in child.get("absent", []):
        print(f"{name}: absent {layer}", file=sys.stderr)
    for layer, share, calls in child.get("split", []):
        print(f"{name}: {layer:<36} {100 * share:5.1f}% of traced self "
              f"time, {calls} calls", file=sys.stderr)
    return {"correct": not child["bad_checks"],
            "attempted": child["attempted"], "failed": child["failed"],
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = clock()

    root = HERE.parent
    if not (root / "src" / "csns" / "__init__.py").is_file():
        print(f"no csns sources under {root / 'src'}; run from the root "
              f"of a csns checkout", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 60:
        print("--seconds must lie in [1, 60]", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for i, name in enumerate(names):
        deadline = start + INVOCATION_LIMIT_S * (i + 1)
        results[name] = run_workload(root, name, args.seed, args.seconds,
                                     args.trace, deadline)
        for metric, m in results[name]["metrics"].items():
            print(f"{name:<10} {metric:<48} {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m
                        for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
