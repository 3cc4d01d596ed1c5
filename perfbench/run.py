#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload scan-warm --seed 1 --seconds 10 --trace 0

The binary is built in Release mode under .bench_build/perfbench and its
databases live under .bench_work; both sit in the current directory. The
last line of standard output is the result object described in
perfbench/README.md. Exits non-zero, without a result, when the engine
sources are missing, the build fails, or the run fails, and non-zero after
the result when an answer failed the check.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ENGINE_SRC = os.path.normpath(os.path.join(HERE, "..", "src"))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("scan-warm", "probe-cold", "ingest-mixed")
RUN_TIMEOUT_S = 170


def clean_env():
    """The caller's environment without the engine's STACCATO_* knobs."""
    return {k: v for k, v in os.environ.items() if not k.startswith("STACCATO_")}


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git-" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in (ENGINE_SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ENGINE_SRC, "rdbms", "staccato_db.h")):
        sys.exit("perfbench: engine sources not found at %s" % ENGINE_SRC)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=clean_env()).returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))
    return BINARY


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work", WORK_DIR, "--source-id", source_id()]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, env=clean_env(),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
