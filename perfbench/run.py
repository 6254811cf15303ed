#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <train-wide|serve-matvec|socket-train> \
        --seed <n> --seconds <s> --trace <0|1>

The Rust program in this directory does the measuring; this wrapper builds it
in release mode (offline, into $CARGO_TARGET_DIR or .bench_build) and passes
the arguments through. The last line of standard output is the result JSON.
Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env={**os.environ, "CARGO_TARGET_DIR": target},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "avcc-perfbench")
    args = sys.argv[1:] + ["--trace-out", os.path.join(target, "perfbench-traces")]
    return subprocess.run([binary] + args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
