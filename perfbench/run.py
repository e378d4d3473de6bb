#!/usr/bin/env python3
"""Build and run the call-plane benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload sector_io --seed 1 --seconds 30 --trace 0

The first run configures and compiles perfbench/ (the repository's src/
tree plus callplane_bench.cpp) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only
rebuild what changed.  Build output goes to stderr; the benchmark's report,
ending in one JSON line, goes to stdout.  The exit code is the benchmark's
(0 only when every result checked out), or 1 when the build fails.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> bool:
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main() -> int:
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(out / "callplane_bench")] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
