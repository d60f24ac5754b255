#!/usr/bin/env python3
"""Builds and runs the SoundBoost end-to-end benchmark.

    python3 sbbench/run.py --workload fleet-x500 --seed 1 --seconds 20 --trace 0

Run from the root of a SoundBoost checkout.  The first call configures and
builds `sbbench` (the libraries under src/ plus the program in this directory)
into .bench_build/; later calls only rebuild what changed.  The benchmark's
last stdout line is one JSON object with the keys correct, attempted, failed
and metrics.  `--trace 1` runs the traced per-layer pass under SB_TRACE=1.
Checkpoints go to a per-run directory under .bench_build/tmp that is removed
on exit.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "sbbench")
BINARY = os.path.join(BUILD, "sbbench")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no SoundBoost sources under {ROOT}/src; run from a checkout")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "sbbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["fleet-x500", "eval-octo"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--size", default="full", choices=["full", "tiny"])
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 3

    env = dict(os.environ)
    # No process-wide switch from the caller's environment leaks into a run:
    # the worker count is pinned by the benchmark, tracing follows --trace.
    for var in ("SB_THREADS", "SB_TRACE", "SB_RECORDER", "SB_TELEMETRY",
                "SB_PRECISION", "SB_SIMD"):
        env.pop(var, None)
    if args.trace:
        env["SB_TRACE"] = "1"
    env.setdefault("SB_LOG_LEVEL", "warn")

    tmp = os.path.join(BUILD_ROOT, "tmp", f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--tmp-dir", tmp]
    sys.stdout.flush()
    child = subprocess.Popen(cmd, env=env)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
