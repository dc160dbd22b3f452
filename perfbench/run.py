#!/usr/bin/env python3
"""Build the benchmark and the schedtaskd daemon, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sim-fig7|fleet-hot|fleet-miss \
        --seed N --seconds S --trace 0|1

Builds go to $CARGO_TARGET_DIR (default .bench_build). The last line of
standard output is the result JSON; build output goes to standard error.
"""

import os
import subprocess
import sys


def main() -> int:
    for needed in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--offline", "--release", "--quiet",
         "-p", "schedtask-serve", "--bin", "schedtaskd"],
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    binary = os.path.join(target, "release", "perfbench")
    daemon = os.path.join(target, "release", "schedtaskd")
    sys.stdout.flush()
    os.execv(binary, [binary, *sys.argv[1:], "--daemon", daemon])
    return 1


if __name__ == "__main__":
    sys.exit(main())
