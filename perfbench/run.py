#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload smallbank-hot --seed 1 --seconds 20 --trace 0

The Go program is built from source into the build directory
($CARGO_TARGET_DIR, else .bench_build under the repository root), with
the Go build cache kept there too, so nothing outside the checkout is
written. All arguments are passed to the program; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOMODCACHE=os.path.join(build, "go-mod"),
        GOPATH=os.path.join(build, "go-path"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--out", os.path.join(build, "perfbench-out")]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
