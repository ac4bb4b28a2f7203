#!/usr/bin/env python3
"""Self-checks of bench_serving, run by ctest (see CMakeLists.txt).

    check.py determinism BENCH_SERVING
        The same seed twice gives identical modeled metrics and inputs; a
        different seed gives different inputs.
    check.py trace BENCH_SERVING
        The traced run prints every per-layer metric, and its trace file
        parses, every span's parent exists, and no span's children cover
        more than the span itself (self time is never negative).
"""

import json
import subprocess
import sys
from collections import defaultdict

# End-to-end metrics measured on the wall clock; all others are modeled.
WALL_METRICS = {"sim_req_per_wall_s", "setup_s", "peak_rss_mb"}


def run(exe, *args):
    proc = subprocess.run([exe, "--quick", *args], capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n"
                 f"{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprint = next(l for l in lines if l.startswith("input fingerprint"))
    return result, fingerprint


def determinism(exe):
    base = ("--workload", "chat", "--seconds", "0")
    first, inputs1 = run(exe, *base, "--seed", "1")
    again, inputs2 = run(exe, *base, "--seed", "1")
    _, other_inputs = run(exe, *base, "--seed", "2")
    modeled = lambda r: {k: v["value"] for k, v in r["metrics"].items()
                         if k not in WALL_METRICS}
    if modeled(first) != modeled(again) or inputs1 != inputs2:
        sys.exit("same seed, different modeled metrics or inputs")
    if inputs1 == other_inputs:
        sys.exit("seeds 1 and 2 generated the same inputs")
    print(f"ok: {len(modeled(first))} modeled metrics repeat; "
          f"seeds 1 and 2 differ")


def check_trace_file(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    if not spans:
        sys.exit("trace holds no spans")
    by_id = {e["args"]["span_id"]: e for e in spans}
    children = defaultdict(float)
    counts = defaultdict(int)
    for e in spans:
        parent = e["args"]["parent"]
        if parent == 0:
            continue
        if parent not in by_id:
            sys.exit(f"span {e['args']['span_id']} ({e['name']}) has a "
                     f"missing parent {parent}")
        children[parent] += e["dur"]
        counts[parent] += 1
    for span_id, covered in children.items():
        parent = by_id[span_id]
        # Durations are printed to 1 ns; allow that rounding per child.
        if covered > parent["dur"] + 0.001 * (counts[span_id] + 1):
            sys.exit(f"span {span_id} ({parent['name']}) has negative "
                     f"self time: {parent['dur']} us < children "
                     f"{covered} us")
    return len(spans)


def trace(exe):
    for workload in ("chat", "fleet"):
        path = f"trace_{workload}.json"
        result, _ = run(exe, "--workload", workload, "--seed", "1",
                        "--seconds", "0", "--trace", path)
        metrics = result["metrics"]
        for name in ("trace.overhead_frac", "engine.iter_ms_p99.ref",
                     "kv.util_peak.top", "serving.arrival_wall_us_p50"):
            if name not in metrics:
                sys.exit(f"{workload}: traced run lacks {name}")
        print(f"ok: {workload}: {len(metrics)} per-layer metrics, "
              f"{check_trace_file(path)} spans")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("determinism", "trace"):
        sys.exit(__doc__)
    {"determinism": determinism, "trace": trace}[sys.argv[1]](sys.argv[2])
