#!/usr/bin/env python3
"""Build and run the PaSE benchmark of record.

    python3 perfbench/run.py --workload <plan-cold|plan-frontier|serve-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the release `pase` CLI (the server
that `serve-mixed` spawns) and the benchmark package into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark.
The last stdout line is the JSON result; build output goes to stderr.
Traced runs also write their spans as a Chrome trace under
`<target dir>/perfbench-traces/`.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--locked", "-q", "-p", "pase-cli"],
        ["cargo", "build", "--release", "--locked", "-q",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        # Build output must not reach stdout, whose last line is the result.
        result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "pase-perfbench"),
        *sys.argv[1:],
        "--pase", os.path.join(release, "pase"),
        "--out", os.path.join(target_dir, "perfbench-traces"),
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
