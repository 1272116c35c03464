"""Write a BENCH_<tag>.json record from perfbench/run.py result lines.

perfbench/run.py ends its output with one JSON line.  Collect those lines,
one file per side of a comparison, with the runs of the two sides
alternating, for instance:

    for i in 1 2 3 4 5 6 7 8 9 10; do
      (cd ../base && python3 perfbench/run.py --workload fluid3d \\
          --seconds 30 --trace 0 --seed 5 | tail -1) >> base.jsonl
      python3 perfbench/run.py --workload fluid3d --seconds 30 --trace 0 \\
          --seed 5 | tail -1 >> change.jsonl
    done
    python3 scripts/bench_record.py --tag lanes --workload fluid3d \\
        --seed 5 --seconds 30 --side parent=base.jsonl@../base \\
        --side change=change.jsonl@.

Each --side names the file of its result lines and the checkout that made
them.  The record holds every line, the median and quartiles of each
end-to-end metric per side, the number of pairs the last side won against
the first (the better direction comes from BENCHMARK.json), and what the
runs ran on: per side, the git commit of its checkout and whether that work
tree had changes; the Python and numpy versions, and the number of CPUs the
process may use.  Records of several workloads go into one file: each call
adds or replaces its workload.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def read_lines(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
    if not runs:
        raise SystemExit(f"{path}: no result lines")
    return runs


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(sides, better):
    """Per metric: quartiles of each side, and pairs won by the last side."""
    out = {}
    for metric, direction in better.items():
        values = {name: [r["metrics"][metric]["value"] for r in runs]
                  for name, runs in sides}
        pairs = list(zip(values[sides[0][0]], values[sides[-1][0]]))
        wins = sum((b > a) if direction == "higher" else (b < a)
                   for a, b in pairs)
        out[metric] = {"better": direction,
                       **{name: quartiles(v) for name, v in values.items()},
                       "pairs": len(pairs), "wins": wins}
    return out


def git(checkout, *args):
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                          text=True, check=True).stdout.strip()


def commit_of(checkout):
    """The commit a checkout is at and whether its tracked files differ."""
    return {"git_sha": git(checkout, "rev-parse", "HEAD"),
            "work_tree_changed": bool(git(checkout, "status", "--porcelain",
                                          "--untracked-files=no"))}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--side", action="append", required=True,
                        metavar="NAME=FILE@CHECKOUT",
                        help="result lines of one side, in run order, and "
                             "the checkout that ran them")
    args = parser.parse_args()

    sides, commits = [], {}
    for spec in args.side:
        name, sep, rest = spec.partition("=")
        path, at, checkout = rest.rpartition("@")
        if not (sep and at):
            parser.error(f"--side {spec}: expected NAME=FILE@CHECKOUT")
        sides.append((name, read_lines(path)))
        commits[name] = commit_of(checkout)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    path = ROOT / f"BENCH_{args.tag}.json"
    record = json.loads(path.read_text()) if path.exists() else {
        "tag": args.tag, "workloads": {}}
    record.update(python=platform.python_version(), numpy=np.__version__,
                  usable_cpus=len(os.sched_getaffinity(0)))
    record["workloads"][args.workload] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seconds {args.seconds} --trace 0 --seed {args.seed}",
        "sides": [name for name, _ in sides],
        "commits": commits,
        "summary": summary(sides, better),
        "runs": {name: runs for name, runs in sides},
    }
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
