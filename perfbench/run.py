#!/usr/bin/env python3
"""Build the perfbench package and run one benchmark workload.

    python3 perfbench/run.py --workload <spec-plain|spec-observed> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The package is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build); build output goes to stderr.
The benchmark's stdout passes through unchanged: every metric by name and
unit, then one JSON object on the last line. The exit code is the
benchmark's own, nonzero when a build or an output check failed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, "run"] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
