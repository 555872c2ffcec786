#!/usr/bin/env python3
"""Repository benchmark: builds the dpss library and the benchmark program
from source, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 25 --trace 0

Run from the repository root. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}: every end-to-end metric
with --trace 0, every per-layer metric with --trace 1. The line before it is
the machine descriptor. The full record (descriptor, details, result) is also
written to <build>/perfbench-results/. The build goes to $CARGO_TARGET_DIR
when set, else .bench_build. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ("serve_read", "serve_durable_write", "embed_mixed")
BUILD_TYPE = "Release"


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds the benchmark program; returns its path or None."""
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(here, "..", "CMakeLists.txt")):
        log("the repository sources are not next to perfbench/")
        return None
    bdir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", here, "-B", bdir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", bdir, "--target", "dpss_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build step failed: " + " ".join(cmd))
            return None
    binary = os.path.join(bdir, "dpss_perfbench")
    return binary if os.path.isfile(binary) else None


def fs_type(path):
    """Filesystem type of the mount holding `path` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3:
                    mnt = parts[1]
                    if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                            and len(mnt) > len(best):
                        best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # an exported tree, not a git checkout
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (perfbench/selftest.py)")
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)
    if binary is None:
        return 2
    # Write back the build's output and earlier runs' files first, so the
    # durable workload's fsyncs do not queue behind them.
    os.sync()
    workdir = os.path.join(build_root, "perfbench-work")
    outdir = os.path.join(build_root, "perfbench-results")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--outdir", outdir]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        log("the benchmark did not finish in time")
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log("the benchmark printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 4

    descriptor = {
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "durable_dir_fs": fs_type(workdir),
        "build_type": BUILD_TYPE,
        "git_commit": git_commit(),
    }
    details = {}
    for line in lines[:-1]:
        if line.startswith("details: "):
            details = json.loads(line[len("details: "):])
    descriptor["backend"] = details.get("backend", "unknown")
    result = json.loads(lines[-1])
    os.makedirs(outdir, exist_ok=True)
    record = os.path.join(outdir, "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump({"descriptor": descriptor, "details": details,
                   "result": result}, f, indent=1)

    print("\n".join(lines[:-1]))
    print("descriptor: " + json.dumps(descriptor, sort_keys=True))
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
