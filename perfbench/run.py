#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
library and the benchmark binary with CMake under .bench_build/ (or under
$CARGO_TARGET_DIR when set), then runs the unit test of the benchmark's own
arithmetic; later calls reuse the build. Build logs go to stderr; stdout
carries the benchmark's report, whose last line is the result JSON object.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(out):
    jobs = str(os.cpu_count() or 1)
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    test = subprocess.run([str(out / "perfbench_stats_test")], stdout=sys.stderr)
    if test.returncode != 0:
        log("the benchmark's arithmetic test failed")
        return False
    return True


def source_id():
    """The git commit when the checkout is a repository, else a hash of the
    library and benchmark sources (for checkouts without a .git directory)."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "source-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    workdir = out / f"work-{args.workload}-{os.getpid()}"
    cmd = [str(out / "hipads_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        log(f"workload exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
