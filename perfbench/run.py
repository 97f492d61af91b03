#!/usr/bin/env python3
"""Builds the mural benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_single --seed 1 --seconds 10 --trace 0

mural_perfbench is compiled from perfbench/CMakeLists.txt into
.bench_build/perfbench (incremental after the first run).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; see perfbench/README.md for every metric.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("paper_single", "lookup_mix", "ingest_mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over the engine and benchmark sources, so a run names the code
    it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(root, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    env = dict(os.environ)
    # Never let git walk above the checkout into an unrelated repository.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(root)
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "mural_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=root).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    build(root, build_dir)

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "mural_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.relpath(out_dir, root),
           "--commit", git_commit(root),
           "--source-digest", source_digest(root)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("mural_perfbench exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
