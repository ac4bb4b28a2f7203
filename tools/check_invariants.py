#!/usr/bin/env python3
"""Project-convention lint for the vAttention reproduction.

Machine-checks the conventions the simulator's correctness leans on:

  1. naming   — fields of type TimeNs end in `_ns`; integer fields
                whose name mentions bytes end in `bytes` (ratios may
                start with `bytes_per_`); double fields whose name
                mentions bytes are bandwidths and end in `_bytes_per_s`
                (the perf specs — GPU links, PCIe, NCCL collectives —
                all quote rates in bytes/second); fields whose name
                mentions a deadline are absolute-or-relative times and
                end in `_ns` (an SLO compared against the virtual
                clock in the wrong unit silently admits everything);
                double fields whose name contains `_per_` are rates
                and end in `_per_s` (per-second is the project's one
                rate denominator — `_per_second`, `_per_sec` spellings
                drift into unit confusion). Mixed units inside one
                struct are how latency/capacity accounting bugs start.
  2. sim-time — simulation code (src/) never reads wall clocks or
                libc randomness: `std::chrono` clocks, std::rand and
                friends are forbidden there. Determinism comes from
                SimClock and common/rng.hh only.
  3. memory   — no naked `new` in src/; ownership goes through
                std::unique_ptr / std::make_unique or containers.
  4. hot path — src/ never calls std::this_thread (sleep_for/yield
                wait on the wall clock; the event-driven core jumps
                virtual time instead), and heap allocation via
                make_unique/make_shared in src/serving/ must carry an
                `alloc-ok` annotation (same line or the line above)
                naming why it is off the per-iteration path. The
                allocation-regression tests enforce the steady state
                at runtime; the annotation keeps new call sites
                deliberate at review time. src/serving/ and src/sim/
                never create threads (`std::thread`/`std::jthread`):
                replicas run on the one single-threaded event loop,
                and core::BackgroundWorker is the only thread owner in
                src/.

Usage: tools/check_invariants.py [--root DIR]
Exits non-zero and prints file:line diagnostics on violations.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# Field declaration of type TimeNs: the name must end `_ns` (members
# keep their trailing underscore). Headers only — locals in .cc files
# legitimately use short names (`cost`, `start`).
TIMENS_FIELD_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?TimeNs\s+(\w+)\s*(?:=[^;]*)?;"
)

# Integer field whose name mentions bytes: must *end* in `bytes`
# (e.g. budget_bytes, swap_out_bytes) or be a `bytes_per_*` ratio.
BYTES_FIELD_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?(?:u64|i64|u32|i32)\s+"
    r"(\w*bytes\w*)\s*(?:=[^;]*)?;"
)

# Floating-point field whose name mentions bytes: a bandwidth, and
# must end `_bytes_per_s` (gpu_spec / pcie_spec / nccl_spec quote
# every link rate in bytes per second).
BANDWIDTH_FIELD_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?double\s+"
    r"(\w*bytes\w*)\s*(?:=[^;]*)?;"
)

# Deadline fields are times and must carry the `_ns` unit, whatever
# their declared type (a TimeNs deadline is caught by the TimeNs rule
# too; an i64/u64 one only here).
DEADLINE_FIELD_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?(?:TimeNs|u64|i64|u32|i32|int)\s+"
    r"(\w*deadline\w*)\s*(?:=[^;]*)?;"
)

# Rate fields: a numeric field with a time denominator must quote it
# as `_per_s` — the project's single rate spelling (`_per_second`,
# `_per_sec`, `_per_minute` drift into unit confusion). Per-item
# ratios (`_per_token`, `_per_worker`) are not rates and pass.
RATE_FIELD_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?(?:double|float|u64|i64)\s+"
    r"(\w*_per_(?:s|sec|second|seconds|min|minute|ms|us|ns)_?)"
    r"\s*(?:=[^;]*)?;"
)

# Sliding-window extents are token counts: an integer field whose
# name mentions `window` must end in `_tokens` (window_tokens, never
# window_size / window_len). Time-typed windows (TimeNs window_ns)
# are covered by the TimeNs rule instead.
WINDOW_FIELD_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?(?:u64|i64|u32|i32|int)\s+"
    r"(\w*window\w*)\s*(?:=[^;]*)?;"
)

# Wall-clock / libc-randomness reads that break simulation determinism.
WALL_CLOCK_RE = re.compile(r"std::chrono")
LIBC_RAND_RE = re.compile(r"(?:std::|\b)s?rand\s*\(")

# Naked allocation. `new` as an English word in comments is stripped
# before matching.
NAKED_NEW_RE = re.compile(r"\bnew\b\s*(?:\(|[A-Za-z_:])")

# Wall-clock waiting: sleep_for/sleep_until/yield spin the host
# scheduler, which simulation code must never do (idle time is jumped
# over on the virtual clock).
THIS_THREAD_RE = re.compile(r"std::this_thread")

# Thread creation in the serving and simulation layers: every replica
# is stepped on the caller's thread (ServingCluster's event loop), so
# a worker thread there is a second driver creeping back in.
THREAD_RE = re.compile(r"\bstd::j?thread\b")

# Heap allocation in the serving layer: fine at construction, a perf
# bug inside the per-iteration hot path. Call sites declare which with
# an `alloc-ok` comment.
ALLOC_CALL_RE = re.compile(r"\bmake_(?:unique|shared)\s*<")

BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
LINE_COMMENT_RE = re.compile(r"//[^\n]*")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string literals, preserving line
    numbers so diagnostics stay accurate."""

    def blank(match: re.Match[str]) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = STRING_RE.sub(blank, text)
    text = BLOCK_COMMENT_RE.sub(blank, text)
    return LINE_COMMENT_RE.sub(blank, text)


def check_file(path: pathlib.Path, root: pathlib.Path) -> list[str]:
    raw = path.read_text(encoding="utf-8")
    code = strip_comments_and_strings(raw)
    rel = path.relative_to(root)
    problems: list[str] = []
    raw_lines = raw.splitlines()
    in_serving = rel.parts[:2] == ("src", "serving")
    threadless = in_serving or rel.parts[:2] == ("src", "sim")

    for lineno, line in enumerate(code.splitlines(), start=1):
        where = f"{rel}:{lineno}"

        if path.suffix == ".hh":
            m = TIMENS_FIELD_RE.match(line)
            if m and not m.group(1).rstrip("_").endswith("_ns"):
                problems.append(
                    f"{where}: TimeNs field `{m.group(1)}` must end in"
                    " `_ns` (time fields carry their unit)"
                )
            m = BYTES_FIELD_RE.match(line)
            if m:
                name = m.group(1).rstrip("_")
                if not (name.endswith("bytes")
                        or name.startswith("bytes_per_")):
                    problems.append(
                        f"{where}: byte-quantity field `{m.group(1)}`"
                        " must end in `bytes` (sizes carry their unit)"
                    )
            m = BANDWIDTH_FIELD_RE.match(line)
            if m and not m.group(1).rstrip("_").endswith("_bytes_per_s"):
                problems.append(
                    f"{where}: bandwidth field `{m.group(1)}` must end"
                    " in `_bytes_per_s` (link rates carry their unit)"
                )
            m = WINDOW_FIELD_RE.match(line)
            if m and not m.group(1).rstrip("_").endswith("_tokens"):
                problems.append(
                    f"{where}: window field `{m.group(1)}` must end in"
                    " `_tokens` (window extents are token counts)"
                )
            m = DEADLINE_FIELD_RE.match(line)
            if m and not m.group(1).rstrip("_").endswith("_ns"):
                problems.append(
                    f"{where}: deadline field `{m.group(1)}` must end"
                    " in `_ns` (SLO deadlines compare against the"
                    " virtual clock)"
                )
            m = RATE_FIELD_RE.match(line)
            if m and not m.group(1).rstrip("_").endswith("_per_s"):
                problems.append(
                    f"{where}: rate field `{m.group(1)}` must end in"
                    " `_per_s` (per-second is the one rate"
                    " denominator)"
                )

        if WALL_CLOCK_RE.search(line):
            problems.append(
                f"{where}: std::chrono in simulation code — simulated"
                " time comes from common/sim_clock.hh only"
            )
        if LIBC_RAND_RE.search(line):
            problems.append(
                f"{where}: libc randomness in simulation code — use"
                " the seeded generators in common/rng.hh"
            )
        if NAKED_NEW_RE.search(line):
            problems.append(
                f"{where}: naked `new` — own memory via"
                " std::unique_ptr / std::make_unique or a container"
            )
        if THIS_THREAD_RE.search(line):
            problems.append(
                f"{where}: std::this_thread in simulation code —"
                " never wait on the wall clock; jump virtual time on"
                " the event queue instead"
            )
        if threadless and THREAD_RE.search(line):
            problems.append(
                f"{where}: std::thread in src/{rel.parts[1]}/ — replicas"
                " are stepped on the single-threaded event loop; only"
                " core::BackgroundWorker owns threads"
            )
        if in_serving and ALLOC_CALL_RE.search(line):
            annotated = any(
                "alloc-ok" in raw_lines[i]
                for i in (lineno - 2, lineno - 1)
                if 0 <= i < len(raw_lines)
            )
            if not annotated:
                problems.append(
                    f"{where}: heap allocation in src/serving/ without"
                    " an `alloc-ok` annotation — hoist it off the"
                    " per-iteration path or mark the call site"
                    " `// alloc-ok: <why>`"
                )

    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout containing this"
        " script)",
    )
    args = parser.parse_args()

    src = args.root / "src"
    if not src.is_dir():
        print(f"check_invariants: no src/ under {args.root}",
              file=sys.stderr)
        return 2

    problems: list[str] = []
    for path in sorted(src.rglob("*")):
        if path.suffix in {".hh", ".cc"}:
            problems.extend(check_file(path, args.root))

    # bench_util.hh is shared infrastructure every benchmark links:
    # hold it to the same conventions as src/.
    bench_util = args.root / "bench" / "bench_util.hh"
    if bench_util.is_file():
        problems.extend(check_file(bench_util, args.root))

    for problem in problems:
        print(problem)
    if problems:
        print(f"check_invariants: {len(problems)} violation(s)",
              file=sys.stderr)
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
