#!/usr/bin/env python3
"""Profile-guided-optimization lane for the sos workspace.

Four stages, each a plain cargo/rustc invocation:

  1. build the workspace release binaries with `-Cprofile-generate`,
  2. run `bench_baseline` (the committed perf workload set) plus the
     routing and congestion ablation binaries (`ablation_routing`,
     `fig4a`) so the instrumented binaries write `.profraw` counters
     covering the batched route-evaluation and congestion kernels,
  3. merge the counters with `llvm-profdata` into one `.profdata`,
  4. rebuild with `-Cprofile-use` and verify the optimized binary is
     *observationally identical* to a plain release build: the
     deterministic replay workload (`ext_faults --quick`) and the
     delivery counts inside the fresh `BENCH_trials` JSON must match
     byte for byte.  PGO may only move time, never results.

The script needs `llvm-profdata` (rustup: `rustup component add
llvm-tools`, or any system LLVM).  When the tool is absent the script
prints how to get it and exits 0 (skip), so the lane is safe to call
from environments without LLVM tooling; pass `--strict` to turn that
skip into a failure (CI does).

Usage:
  python3 scripts/pgo.py [--strict] [--target-dir DIR] [--keep]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# Workloads whose *results* (not timings) must survive PGO unchanged.
REPLAY_BIN = "ext_faults"
BENCH_BIN = "bench_baseline"
# Extra profiling-only workloads: the routing-policy ablation and the
# pure-congestion one-burst figure, so the merged profile covers the
# batched route-evaluation kernel and the congestion phase, not just
# the bench_baseline mix.
PROFILE_BINS = ("ablation_routing", "fig4a")
# Result-bearing keys inside a BENCH_trials workload row.  Timing keys
# (before/after/speedup/phases) legitimately change under PGO; these
# must not.  `build_reused` is deliberately absent: with more than one
# worker it counts which worker claimed which trial (a memo hit needs
# the same worker to see the same trial index twice), so two identical
# runs can differ without any result changing.
RESULT_KEYS = ("name", "trials", "threads")


def run(cmd: list[str], *, env: dict[str, str] | None = None,
        capture: bool = False) -> subprocess.CompletedProcess:
    print(f"+ {' '.join(cmd)}", flush=True)
    return subprocess.run(
        cmd, cwd=REPO, env=env, check=True,
        stdout=subprocess.PIPE if capture else None)


def find_llvm_profdata() -> str | None:
    """Locate llvm-profdata: the rustc sysroot first, then PATH.

    The sysroot copy (rustup component `llvm-tools`) is built from the
    same LLVM as rustc and is the only one guaranteed to read rustc's
    `.profraw` format; a system LLVM on PATH is a best-effort fallback
    that may reject the profiles even at a matching major version.
    """
    try:
        sysroot = subprocess.run(
            ["rustc", "--print", "sysroot"], check=True,
            stdout=subprocess.PIPE, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sysroot = None
    if sysroot:
        for candidate in Path(sysroot).glob(
                "lib/rustlib/*/bin/llvm-profdata"):
            return str(candidate)
    return shutil.which("llvm-profdata")


def cargo_build(target_dir: Path, rustflags: str) -> Path:
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = str(target_dir)
    env["RUSTFLAGS"] = rustflags
    cmd = ["cargo", "build", "--release", "-p", "sos-bench",
           "--bin", BENCH_BIN, "--bin", REPLAY_BIN]
    for b in PROFILE_BINS:
        cmd += ["--bin", b]
    run(cmd, env=env)
    return target_dir / "release"


def result_view(bench_json: Path) -> str:
    """Project a BENCH_trials document onto its result-bearing fields.

    Timings differ run to run (that is the point of PGO); trial and
    thread counts are fixed by the workloads and must not.
    """
    doc = json.loads(bench_json.read_text())
    rows = [{k: w[k] for k in RESULT_KEYS if k in w}
            for w in doc.get("workloads", [])]
    return json.dumps(rows, sort_keys=True, indent=1)


def run_workloads(bindir: Path, tag: str, scratch: Path) -> tuple[bytes, str]:
    """Run the verification workloads; return (replay stdout, results)."""
    replay = run([str(bindir / REPLAY_BIN), "--quick"], capture=True)
    bench_out = scratch / f"BENCH_trials.{tag}.json"
    run([str(bindir / BENCH_BIN), "--out", str(bench_out)])
    return replay.stdout, result_view(bench_out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--strict", action="store_true",
                    help="fail (exit 2) instead of skipping when "
                         "llvm-profdata is unavailable")
    ap.add_argument("--target-dir", default=None,
                    help="cargo target dir for the PGO builds "
                         "(default: target/pgo under the repo)")
    ap.add_argument("--keep", action="store_true",
                    help="keep the scratch profile directory")
    args = ap.parse_args()

    profdata_tool = find_llvm_profdata()
    if profdata_tool is None:
        msg = ("pgo: llvm-profdata not found (PATH or rustc sysroot); "
               "install with `rustup component add llvm-tools`")
        if args.strict:
            print(msg, file=sys.stderr)
            return 2
        print(f"{msg} — skipping the PGO lane")
        return 0

    target_dir = Path(args.target_dir) if args.target_dir \
        else REPO / "target" / "pgo"
    scratch = Path(tempfile.mkdtemp(prefix="sos-pgo-"))
    profraw_dir = scratch / "profraw"
    profraw_dir.mkdir()
    profdata = scratch / "merged.profdata"

    try:
        # Stage 0: the plain release reference the PGO build must match.
        plain_dir = cargo_build(target_dir / "plain", "")
        plain_replay, plain_results = run_workloads(
            plain_dir, "plain", scratch)

        # Stage 1+2: instrumented build, then profile the bench workloads
        # plus the routing/congestion ablations (output discarded — only
        # their execution profile matters here).
        gen_dir = cargo_build(
            target_dir / "gen", f"-Cprofile-generate={profraw_dir}")
        run([str(gen_dir / BENCH_BIN), "--out",
             str(scratch / "BENCH_trials.profiled.json")])
        for b in PROFILE_BINS:
            run([str(gen_dir / b)], capture=True)
        raws = sorted(profraw_dir.glob("*.profraw"))
        if not raws:
            print("pgo: instrumented run produced no .profraw files",
                  file=sys.stderr)
            return 2

        # Stage 3: merge counters.  A PATH llvm-profdata from a
        # different LLVM build can reject rustc's profraw format; that
        # is an environment gap, not a PGO failure, so treat it like a
        # missing tool unless --strict.
        try:
            run([profdata_tool, "merge", "-o", str(profdata)]
                + [str(r) for r in raws])
        except subprocess.CalledProcessError:
            msg = (f"pgo: {profdata_tool} cannot merge rustc's .profraw "
                   "files (LLVM build mismatch); install the matching "
                   "tool with `rustup component add llvm-tools`")
            if args.strict:
                print(msg, file=sys.stderr)
                return 2
            print(f"{msg} — skipping the PGO lane")
            return 0

        # Stage 4: optimized build, then the identity check.
        use_dir = cargo_build(
            target_dir / "use", f"-Cprofile-use={profdata}")
        pgo_replay, pgo_results = run_workloads(use_dir, "pgo", scratch)

        if pgo_replay != plain_replay:
            print("pgo: ext_faults replay output differs from the plain "
                  "release build — PGO changed results", file=sys.stderr)
            return 1
        if pgo_results != plain_results:
            print("pgo: bench workload results differ from the plain "
                  "release build — PGO changed results", file=sys.stderr)
            print(f"plain:\n{plain_results}\npgo:\n{pgo_results}",
                  file=sys.stderr)
            return 1

        print("pgo: optimized binary is byte-identical on the replay and "
              f"bench workloads ({len(raws)} profile(s) merged)")
        print(f"pgo: optimized binaries left in {use_dir}")
        return 0
    finally:
        if args.keep:
            print(f"pgo: scratch kept at {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
