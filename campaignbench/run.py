#!/usr/bin/env python3
"""Build and run the campaign benchmark.

Run from the root of a checkout:

    python3 campaignbench/run.py --workload scenario-serial --seed 1 --seconds 30 --trace 0
    python3 campaignbench/run.py --workload all --seed 1 --trace 1
    python3 campaignbench/run.py --describe

It builds the benchmark package and the `dynring` CLI (the supervised
runs spawn it) in release mode, offline, into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the benchmark binary with the given
arguments. Build output goes to standard error; the benchmark's last
line of standard output is its JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench_dir = "campaignbench"
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "--bin", "dynring"],
    ]
    for cmd in builds:
        if not os.path.isfile(cmd[cmd.index("--manifest-path") + 1]):
            print(f"error: {cmd[cmd.index('--manifest-path') + 1]} is missing; "
                  "run from the root of a dynring checkout", file=sys.stderr)
            return 2
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"error: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    bench = os.path.join(target, "release", "campaignbench")
    return subprocess.run([bench] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
