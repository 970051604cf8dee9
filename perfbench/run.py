#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign|sweep|served \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test      # the benchmark's own arithmetic
    python3 perfbench/run.py --write-golden   # regenerate perfbench/golden.txt

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles ../src. It is built in $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), Release. Build output goes to stderr;
stdout carries the benchmark's report, whose last line is the JSON
result. Exits non-zero, without a result line, when the build or the
run fails.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configure (once) and build; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "simulator.hpp")):
        fail("no simulator sources under " + os.path.join(ROOT, "src"))
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", out, "-j", jobs()])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("build step failed: " + " ".join(step))
    return out


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    head = done.stdout.strip()
    return head if done.returncode == 0 and head else "unavailable"


def source_digest():
    """sha256 over the simulator and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def run(argv):
    """Run argv in ROOT, passing stdout through; returns its exit code."""
    child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    return child.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["campaign", "sweep", "served"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()

    out = build()
    if args.self_test:
        sys.exit(run([os.path.join(out, "perfbench_selftest")]))
    binary = os.path.join(out, "perfbench")
    golden = os.path.join(BENCH_DIR, "golden.txt")
    if args.write_golden:
        sys.exit(run([binary, "--write-golden", golden]))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    sys.exit(run([binary, "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--golden", golden,
                  "--out-dir", os.path.join(ROOT, ".perfbench_out"),
                  "--git-commit", git_commit(),
                  "--source-digest", source_digest()]))


if __name__ == "__main__":
    main()
