#!/usr/bin/env python3
"""Build the c3rs benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cg-ckpt --seed 1 --seconds 15 --trace 0

Cargo's build output goes to standard error. Standard output is the
benchmark's own: the run set-up, a metric table, and as the last line one
JSON object with the keys correct, attempted, failed and metrics. The
build honours CARGO_TARGET_DIR and falls back to perfbench/target.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# One run measures for at most 60 s plus set-up; anything longer is a hang.
RUN_TIMEOUT_S = 170


def main():
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
