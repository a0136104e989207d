#!/usr/bin/env python3
"""Builds and runs the fair-perfbench benchmark.

usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds, in release mode and offline, the
repository's `reproduce` and `fair-serve` binaries and the benchmark crate
next to this file (into $CARGO_TARGET_DIR, default `.bench_build`), then
runs one workload. The benchmark's own output goes to stderr; the last
line of stdout is the JSON result. Exits non-zero, printing no result, if
the build or the run fails. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo_build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail(f"{ROOT} is not a checkout of the repository (no Cargo.toml)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo_build(["-p", "fair-bench", "--bin", "reproduce", "--bin", "fair-serve"], env)
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env)
    bin_dir = os.path.join(target, "release")
    cmd = [os.path.join(bin_dir, "fair-perfbench"), "run"] + sys.argv[1:]
    cmd += ["--root", ROOT, "--bin-dir", bin_dir]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = [l for l in done.stdout.decode().splitlines() if l.strip()]
    if done.returncode != 0 or not lines:
        fail(f"run failed with exit code {done.returncode}")
    # Tables the suite prints go to stderr; the result is the last line.
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])


if __name__ == "__main__":
    main()
