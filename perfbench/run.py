#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds `perfbench/Cargo.toml` in release mode -- the repo's
crates are path dependencies, and the `ktiler_serve` / `ktiler_gateway`
programs are compiled from their sources in `crates/bench` -- and then
replaces itself with the `perfbench` binary, passing every argument on.
Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. `CARGO_TARGET_DIR` is honoured; without it the
build lands in `perfbench/target`. A failed build exits non-zero and
prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])
    return 1  # not reached: execv replaces the process or raises


if __name__ == "__main__":
    sys.exit(main())
