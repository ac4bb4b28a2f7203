#!/usr/bin/env python3
"""Append simulator-speed rows to the perf trajectory, BENCH_trajectory.json.

For each of the four serving workloads, run bench/serving/run.py five
times at seed 1 for the benchmark's 20 s and append one row: the commit,
the workload, the median ``sim_req_per_wall_s`` over the runs, and a
fingerprint of the modeled end-to-end metrics (every metric except the
wall-clock ones, ``sim_req_per_wall_s``, ``setup_s`` and
``peak_rss_mb``). Two rows with the same fingerprint modeled the same
serving run, so a speed change between them is simulator speed alone.

Usage: tools/record_perf.py [--checkout DIR]

--checkout measures another checkout (for example a clone of the parent
commit) with that checkout's run.py, and still appends to this
repository's trajectory. Seed, run length and run count are fixed so
that every row compares with every other. Runs of one workload go back
to back; the host drifts 10-20%, so compare medians, and use
bench/serving/compare.py with interleaved runs to claim a gain.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.json"
WORKLOADS = ["chat", "longctx", "prefix", "fleet"]
WALL_METRICS = {"sim_req_per_wall_s", "setup_s", "peak_rss_mb"}
SEED = 1
SECONDS = 20  # the benchmark's run length
RUNS = 5


def commit_of(checkout: pathlib.Path) -> str:
    """Short hash of HEAD, with +dirty when tracked files other than
    the trajectory itself changed."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    commit = git("rev-parse", "--short", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no", "--", ".",
           f":!{TRAJECTORY.name}"):
        commit += "+dirty"
    return commit


def modeled_hash(metrics: dict) -> str:
    """Fingerprint of the modeled metrics: name -> exact value."""
    modeled = {name: entry["value"] for name, entry in metrics.items()
               if name not in WALL_METRICS}
    text = json.dumps(modeled, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_once(checkout: pathlib.Path, workload: str) -> dict:
    """One run.py invocation; returns its metrics."""
    cmd = [sys.executable, str(checkout / "bench" / "serving" / "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result.get("correct", False):
        sys.exit(f"{workload} seed {SEED}: the run reports incorrect")
    return result["metrics"]


def record(checkout: pathlib.Path, workload: str) -> dict:
    speeds = []
    hashes = set()
    for _ in range(RUNS):
        metrics = run_once(checkout, workload)
        speeds.append(metrics["sim_req_per_wall_s"]["value"])
        hashes.add(modeled_hash(metrics))
    if len(hashes) != 1:
        sys.exit(f"{workload}: modeled metrics differ between runs of "
                 f"one commit ({sorted(hashes)})")
    return {
        "commit": commit_of(checkout),
        "workload": workload,
        "seed": SEED,
        "seconds": SECONDS,
        "runs": RUNS,
        "sim_req_per_wall_s": round(statistics.median(speeds), 1),
        "modeled_hash": hashes.pop(),
        "host": f"{os.cpu_count()} cpu {platform.machine()}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checkout", type=pathlib.Path, default=ROOT,
                        help="checkout to measure (default: this one)")
    args = parser.parse_args()

    rows = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    for workload in WORKLOADS:
        row = record(args.checkout.resolve(), workload)
        rows.append(row)
        print(json.dumps(row))
        # Rewrite after every row: an interrupted recording keeps the
        # rows it finished.
        TRAJECTORY.write_text(
            "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
