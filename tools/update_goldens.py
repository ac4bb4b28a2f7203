#!/usr/bin/env python3
"""Regenerate the byte-for-byte bench goldens in tests/golden/.

Each golden bench is run at smoke size (VATTN_BENCH_SMOKE=1); its
stdout is written to ``tests/golden/<bench>.stdout`` and its JSON
report to ``tests/golden/BENCH_<name>.json``. The ``golden_<bench>``
ctest cases (registered in bench/CMakeLists.txt, checked by
tests/golden/compare_golden.cmake) compare fresh runs against these
files, so a change that moves a modeled number fails tier-1 until the
goldens are regenerated here and the move is explained.

Usage: tools/update_goldens.py [--build DIR] [BENCH ...]

With no BENCH arguments, every bench that already has a ``.stdout``
golden is regenerated. Build the bench targets first (Release).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


def regenerate(build: pathlib.Path, bench: str) -> None:
    binary = build / "bench" / bench
    if not binary.is_file():
        sys.exit(f"{binary} not found: build the bench targets first")
    env = dict(os.environ,
               VATTN_BENCH_SMOKE="1",
               VATTN_BENCH_JSON_DIR=str(GOLDEN_DIR))
    with open(GOLDEN_DIR / f"{bench}.stdout", "wb") as out:
        subprocess.run([str(binary)], stdout=out, env=env, check=True)
    json_name = bench.removeprefix("bench_")
    if not (GOLDEN_DIR / f"BENCH_{json_name}.json").is_file():
        sys.exit(f"{bench} wrote no BENCH_{json_name}.json")
    print(f"updated {bench}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--build",
        type=pathlib.Path,
        default=ROOT / "build",
        help="CMake build tree holding bench/ (default: build/)",
    )
    parser.add_argument(
        "benches",
        nargs="*",
        help="bench binary names (default: every existing golden)",
    )
    args = parser.parse_args()
    benches = args.benches or sorted(
        path.stem for path in GOLDEN_DIR.glob("bench_*.stdout"))
    if not benches:
        sys.exit("no goldens found; name the benches to generate")
    for bench in benches:
        regenerate(args.build, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
