#!/usr/bin/env python3
"""Build bench_serving from this checkout, then run one workload.

    python3 bench/serving/run.py --workload chat --seed 1 --seconds 20 --trace 0

The build is a CMake package of its own (bench/serving/CMakeLists.txt)
under $CARGO_TARGET_DIR/serving, default .bench_build/serving at the
checkout root; later runs only re-check it. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.

--trace 1 runs the traced replay: per-layer metrics instead of the
end-to-end ones, and a Chrome trace (open it in https://ui.perfetto.dev)
written next to the build as trace_<workload>_seed<seed>.json.
BENCH_serving_<workload>.json lands in --json-dir (default: the build
directory).
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# Every run, build included, must end well inside three minutes.
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "serving"


def build(bdir):
    """Configure once, then rebuild incrementally; a lock serializes
    concurrent runs sharing the build directory."""
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "--target",
                      "bench_serving", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                return None
    return bdir / "bench_serving"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["chat", "longctx", "prefix", "fleet"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="ref and top rungs at a tenth of the size")
    parser.add_argument("--json-dir", type=Path,
                        help="where BENCH_serving_<workload>.json goes")
    args = parser.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    if exe is None or not exe.exists():
        print("bench_serving failed to build", file=sys.stderr)
        return 1

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace",
                str(bdir / f"trace_{args.workload}_seed{args.seed}.json")]
    if args.quick:
        cmd.append("--quick")
    json_dir = args.json_dir or bdir
    json_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, VATTN_BENCH_JSON_DIR=str(json_dir))
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"bench_serving exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
