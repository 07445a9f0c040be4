#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see lynbench/README.md).

    python3 lynbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library and the `lynbench` driver in Release mode under `.bench_build/`
(or under $CARGO_TARGET_DIR when set); later runs rebuild incrementally.
The driver's last stdout line is the JSON result; traced runs also write
their spans to `<build dir>/traces/`. The exit code is the driver's:
0 ok, 1 trajectory mismatch or failed operation, 2 refused or usage error.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"lynbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit when the checkout is a git work tree, else a digest of
    the library and benchmark sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("src", "lynbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs,
                 "--target", "lynbench"]):
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out", 1)
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return os.path.join(build_dir, "lynbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # Option defaults read LYNCEUS_* variables: a run with one set would
    # measure another program.
    foreign = sorted(k for k in os.environ if k.startswith("LYNCEUS_"))
    if foreign:
        fail("refusing to measure with " + ", ".join(foreign) + " set")
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "types.hpp")):
        fail("library sources not found next to lynbench/", 1)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "lynbench")
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(), "--trace-dir", trace_dir]
    # Its own process group, so a timeout stops the driver and the child
    # it forks together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run timed out", 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
