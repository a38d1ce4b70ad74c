#!/usr/bin/env python3
"""Profile-guided-optimization lane for the sos workspace.

Four stages, each a plain cargo/rustc invocation:

  1. build the `full_report` and `sos` release binaries with
     `-Cprofile-generate`,
  2. run `full_report` (every paper figure and extension) plus the
     routing and congestion sections (`sos figure ablation-routing`,
     `sos figure fig4a`) so the instrumented binaries write `.profraw`
     counters covering the whole report, the batched route-evaluation
     kernel and the congestion phase,
  3. merge the counters with `llvm-profdata` into one `.profdata`,
  4. rebuild with `-Cprofile-use` and verify the optimized binaries are
     *observationally identical* to a plain release build: every file
     `full_report` writes (except `manifest.json`, which holds timings)
     and the deterministic replay output (`sos figure ext-faults` at
     30 trials × 40 routes) must match byte for byte.  PGO may only
     move time, never results.

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
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# Workloads whose *results* (not timings) must survive PGO unchanged.
CLI_BIN = "sos"
REPLAY_ARGS = ("figure", "ext-faults", "--trials", "30", "--routes", "40")
REPORT_BIN = "full_report"
# Extra profiling-only workloads: the routing-policy ablation and the
# pure-congestion one-burst figure, so the merged profile weighs the
# batched route-evaluation kernel and the congestion phase beyond their
# share of the report.
PROFILE_ARGS = (("figure", "ablation-routing"), ("figure", "fig4a"))


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
    run(["cargo", "build", "--release", "-p", "sos-bench", "-p", "sos-cli",
         "--bin", REPORT_BIN, "--bin", CLI_BIN], env=env)
    return target_dir / "release"


def run_report(bindir: Path, out_dir: Path) -> None:
    """Run `full_report` into `out_dir`, without a sweep cache, so every
    sweep is executed."""
    run([str(bindir / REPORT_BIN), str(out_dir)])


def differing_files(a: Path, b: Path) -> list[str]:
    """Names of the files that are in only one of two `full_report`
    output directories or whose bytes differ, `manifest.json` aside."""
    names = {p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}
    names.discard("manifest.json")  # timings, not results
    return sorted(n for n in names
                  if not (a / n).is_file() or not (b / n).is_file()
                  or (a / n).read_bytes() != (b / n).read_bytes())


def run_workloads(bindir: Path, tag: str, scratch: Path) -> tuple[bytes, Path]:
    """Run the verification workloads; return (replay stdout, report dir)."""
    replay = run([str(bindir / CLI_BIN), *REPLAY_ARGS], capture=True)
    report_dir = scratch / f"report.{tag}"
    run_report(bindir, report_dir)
    return replay.stdout, report_dir


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
        plain_replay, plain_report = run_workloads(
            plain_dir, "plain", scratch)

        # Stage 1+2: instrumented build, then profile the report plus
        # the routing/congestion ablations (output discarded — only
        # their execution profile matters here).
        gen_dir = cargo_build(
            target_dir / "gen", f"-Cprofile-generate={profraw_dir}")
        run_report(gen_dir, scratch / "report.profiled")
        for profile_args in PROFILE_ARGS:
            run([str(gen_dir / CLI_BIN), *profile_args], capture=True)
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
        pgo_replay, pgo_report = run_workloads(use_dir, "pgo", scratch)

        if pgo_replay != plain_replay:
            print("pgo: ext-faults replay output differs from the plain "
                  "release build — PGO changed results", file=sys.stderr)
            return 1
        differing = differing_files(plain_report, pgo_report)
        if differing:
            print("pgo: full_report output differs from the plain release "
                  f"build in {', '.join(differing)} — PGO changed results",
                  file=sys.stderr)
            return 1

        print("pgo: optimized binaries are byte-identical on the replay "
              f"and full_report outputs ({len(raws)} profile(s) merged)")
        print(f"pgo: optimized binaries left in {use_dir}")
        return 0
    finally:
        if args.keep:
            print(f"pgo: scratch kept at {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
