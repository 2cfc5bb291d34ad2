#!/usr/bin/env python3
"""Build and run the layeredsg Store benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload point-read --seed 1 --seconds 10 --trace 0

The launcher builds the Go program in perfbench/ (a module of its own that
replaces `layeredsg` with the checkout root) into the build directory, then
runs it with the same arguments from the checkout root. The build directory
is $CARGO_TARGET_DIR when set, else .bench_build; the Go build and module
caches, the WAL and the dumps all live under it, so nothing outside the
checkout is written. The program's last line of standard output is the
result object; the launcher prints nothing after it and exits with the
program's exit code.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go_dir = os.path.join(build_dir, "go")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(go_dir, "cache"),
        GOMODCACHE=os.path.join(go_dir, "mod"),
        GOTMPDIR=os.path.join(go_dir, "tmp"),
        XDG_CONFIG_HOME=os.path.join(go_dir, "config"),
        XDG_CACHE_HOME=os.path.join(go_dir, "xdg-cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build_dir, "perfbench", "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=bench_dir,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=840,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_DATA"] = os.path.join(build_dir, "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
