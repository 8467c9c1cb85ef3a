#!/usr/bin/env python3
"""Build and run the CrowdPlanner serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hot-reuse --seed 1 --seconds 20 --trace 0

The Go program is built from source into .bench_build/ with its build cache,
module cache and home directory kept there too, so a run reads and writes
nothing outside the checkout. Build output goes to standard error; the
program's standard output, whose last line is the JSON result, passes
through unchanged. The exit code is the build's when it fails, else the
program's.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "home", ".config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOENV="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["HOME"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        return built.returncode
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True
    )
    env["PERFBENCH_COMMIT"] = commit.stdout.strip() if commit.returncode == 0 else ""
    args = sys.argv[1:] + ["--scratch", os.path.join(build, "run")]
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
