#!/usr/bin/env python3
"""Build and run the DSE benchmark from the root of a repository checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the repository's libraries
from src/) into .bench_build/perfbench on first use, then runs one workload
in a fresh process. The benchmark's last stdout line is its JSON result;
build output goes to stderr. Result and trace files land in .bench_out/.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

WORKLOADS = ("cold_sweep", "contention_replay", "warm_service")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def source_id(root):
    """Commit when the checkout is a git repository, else a digest of the
    sources the benchmark builds (src/ and perfbench/)."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def build(root):
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build", "perfbench")
    # A configure that failed leaves a cache but no build system behind.
    if not os.path.exists(os.path.join(out, "Makefile")):
        cfg = subprocess.run(["cmake", "-S", src, "-B", out,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return None
    bld = subprocess.run(["cmake", "--build", out, "--target", "dsebench",
                          "-j", BUILD_JOBS],
                         stdout=sys.stderr, stderr=sys.stderr)
    if bld.returncode != 0:
        return None
    return os.path.join(out, "dsebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in [1, 120]")

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(root, ".bench_out"),
           "--source", source_id(root),
           # CLOCK_MONOTONIC at spawn: setup_s runs from here.
           "--t-spawn", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
