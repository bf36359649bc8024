#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ilp_fig5 --seed 1 --seconds 25 --trace 0

Builds the `perfbench` package in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), then runs it with the given arguments plus the
toolchain version and source commit, which it records beside the metrics.
The last line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def capture(cmd, env):
    """First line of `cmd`'s standard output, or "unknown" if it fails."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.splitlines()
    return lines[0].strip() if out.returncode == 0 and lines else "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Keep git from looking above the checkout for a repository.
    git_env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    commit = capture(["git", "rev-parse", "HEAD"], git_env)
    rustc = capture(["rustc", "--version"], env)
    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, *sys.argv[1:], "--rustc", rustc, "--commit", commit,
           "--spans-dir", os.path.join(target, "perfbench-spans")]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run did not finish: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
