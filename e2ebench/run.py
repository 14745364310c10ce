#!/usr/bin/env python3
"""Builds the e2ebench package from source and runs one workload.

Usage, from the repository root:

    python3 e2ebench/run.py --workload crypto_single --seed 1 --seconds 10 --trace 0

Every argument is passed on to the e2ebench binary (see src/main.cpp).  The
build goes to $CARGO_TARGET_DIR/e2ebench when that variable is set, else to
.bench_build/e2ebench; the benchmark's scratch files go to .bench_work/.
Both paths are relative to the repository root.  Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.  Exits
non-zero without a result line when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run that has not finished by then is stuck; the contract allows 180 s.
RUN_TIMEOUT_S = 175


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2ebench")
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "e2ebench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 2
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s, killed",
              file=sys.stderr)
        proc.kill()
        proc.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
