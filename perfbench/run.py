#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <train-inproc|job-uds|plan> \
        --seed N --seconds S --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. The exit
code is the benchmark's: 0 when every correctness gate held.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "perfbench", "-p", "mepipe-train", "--bins",
    ]
    if subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--worker", os.path.join(release, "mepipe-worker")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
