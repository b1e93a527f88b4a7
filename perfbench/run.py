#!/usr/bin/env python3
"""Builds the `sdd` binary and the benchmark, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`). Build output
goes to stderr; the benchmark's standard output is passed through, so its
last line is the result object. Exits nonzero, printing no result, when
either build fails or the benchmark does not finish within its deadline.
"""

import os
import signal
import subprocess
import sys

# The benchmark must exit within 180 s; leave room to reap it.
DEADLINE_S = 170


def build(args, root, env):
    """Runs one cargo build; returns True when it succeeded."""
    command = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    try:
        done = subprocess.run(command, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        print(f"run.py: {' '.join(command)}: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env["CARGO_TARGET_DIR"] = target

    manifest = os.path.join(root, "Cargo.toml")
    if not os.path.isfile(manifest):
        print("run.py: no Cargo.toml at the repository root; nothing to benchmark", file=sys.stderr)
        return 1
    if not build(["--manifest-path", manifest, "--bin", "sdd"], root, env):
        return 1
    if not build(["--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")], root, env):
        return 1

    binary = os.path.join(target, "release", "perfbench")
    sdd = os.path.join(target, "release", "sdd")
    command = [binary, "--sdd", sdd] + sys.argv[1:]
    # A session of its own, so a timeout can stop the benchmark and any
    # server it started together.
    child = subprocess.Popen(command, cwd=root, env=env, start_new_session=True)
    try:
        return child.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {DEADLINE_S} s; stopping it", file=sys.stderr)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
