#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fig7_burst --seed 1 --seconds 10 --trace 0

Builds the benchmark crate and the `dgmc-node` binary in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark with the
given arguments. Build output goes to standard error; the benchmark's last
line of standard output is its JSON result. Exits non-zero, printing no
result, when the build fails, for instance outside a full checkout.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    builds = [
        cargo + ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cargo
        + ["--manifest-path", os.path.join(ROOT, "Cargo.toml")]
        + ["-p", "dgmc-node", "--bin", "dgmc-node"],
    ]
    for cmd in builds:
        try:
            built = subprocess.run(cmd, env=env, stdout=sys.stderr)
        except OSError as e:
            print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
            return 1
        if built.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "dgmc-perfbench"),
        *sys.argv[1:],
        "--out",
        os.path.join(target, "perfbench-out"),
        "--node-bin",
        os.path.join(release, "dgmc-node"),
    ]
    return subprocess.run(bench, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
