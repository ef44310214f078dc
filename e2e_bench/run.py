#!/usr/bin/env python3
"""Build and run the WOLT end-to-end benchmark.

Run from the repository root:

    python3 e2e_bench/run.py --workload building-mobile --seed 1 --seconds 30 --trace 0

Workloads: building-mobile, fleet-chaos, sweep-static. The first run
configures and builds the library and the runner in Release under
.bench_build/e2e_bench; later runs only rebuild what changed. Build output
goes to stderr. The runner's stdout is passed through: metrics by name and
unit, then one JSON result line. Any failed build or check exits non-zero
without a result line. See e2e_bench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e_bench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
WORKLOADS = ("building-mobile", "fleet-chaos", "sweep-static")


def build():
    """Configure (once) and build the Release runner; returns its path."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "wolt_e2e")


def src_digest():
    """sha256 over the library sources, so a run names the code it timed."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout when it is a git work tree; 'none' otherwise."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2e_bench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", OUT_DIR, "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print(f"e2e_bench: runner exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("e2e_bench: runner printed no result line", file=sys.stderr)
        return 1
    if not result.get("correct") or result.get("failed"):
        print("e2e_bench: runner reported a failed run", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
