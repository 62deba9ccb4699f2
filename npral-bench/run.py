#!/usr/bin/env python3
"""Build and run npral-bench from the root of a checkout.

    python3 npral-bench/run.py --workload tight-fuzz --seed 1 --seconds 20 --trace 0

Configures and builds npral-bench/ (which compiles the repository's
libraries from src/) into .bench_build/npral-bench/build, then runs the
benchmark with the given arguments. The last line of standard output is
the benchmark's JSON result; the exit code is the benchmark's. A failed
build exits non-zero without printing a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "npral-bench", "build")
BINARY = os.path.join(BUILD, "npral-bench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target", "npral-bench"]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("npral-bench: build failed (log: %s)\n" % log_path)
                return False
    return True


def main():
    if not build():
        return 1
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("npral-bench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    out = proc.stdout.rstrip("\n")
    lines = out.split("\n") if out else []
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out + "\nnpral-bench: no result line (exit %d)\n" % proc.returncode)
        return proc.returncode or 1
    print(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
