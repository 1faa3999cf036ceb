#!/usr/bin/env python3
"""The CONCORD benchmark: builds the program and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The first call builds the `concord`
library and `concordd` with the repository's own CMake build, then the
benchmark program in perfbench/ against them (under $CARGO_TARGET_DIR, default
.bench_build). Each run works in a fresh directory under the build
directory and removes it afterwards; the last line of stdout is the
result object. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
LIB_BUILD = os.path.join(BUILD, "concord")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
WORKLOADS = ("dop_commit", "review_scan", "cross_shard_commit", "socket_commit")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds both trees; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", LIB_BUILD,
                      "-DCONCORD_BUILD_BENCHMARKS=OFF",
                      "-DCONCORD_BUILD_EXAMPLES=OFF"])
    steps.append(["cmake", "--build", LIB_BUILD, "-j4",
                  "--target", "concord", "concordd"])
    if not os.path.exists(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BENCH_BUILD, "-DCONCORD_BUILD_DIR=" + LIB_BUILD])
    steps.append(["cmake", "--build", BENCH_BUILD, "-j4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("build failed: %s\n" % " ".join(step))
                return False
    return True


def run_bench(args):
    run_dir = os.path.join(BUILD, "runs", "%s-%d-%d" % (args.workload, args.seed,
                                                        os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    command = [os.path.join(BENCH_BUILD, "concord_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--concordd", os.path.join(LIB_BUILD, "concordd")]
    # Its own process group, so that every process it starts can be stopped.
    proc = subprocess.Popen(command, cwd=run_dir, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the output checks' planted-fault test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return subprocess.call([os.path.join(BENCH_BUILD, "perfbench_selftest")])
    return run_bench(args)


if __name__ == "__main__":
    sys.exit(main())
