#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Configures and builds perfbench/ (which
compiles the library from src/) into $CARGO_TARGET_DIR, default
.bench_build, then runs one workload. The last line of standard output is
the run's JSON result; the line before the metrics stamps the result with
the git sha (when the checkout is a git repository), a digest of the
sources and the build type. Exits non-zero, without a result, when the
build fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_TYPE = "Release"
WORKLOADS = ("fleet-steady", "fleet-faults", "gateway-open", "tensor-exec")
# A run measures for --seconds and then drains; anything far beyond that
# is a hang.
RUN_GRACE_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, cwd):
    """Runs a build step with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(root, build_dir):
    cache = build_dir / "CMakeCache.txt"
    if cache.exists():
        # A build tree configured for another checkout cannot be reused.
        home = next((line.split("=", 1)[1].strip() for line in cache.read_text().splitlines()
                     if line.startswith("CMAKE_HOME_DIRECTORY:")), "")
        if Path(home).resolve() != (root / "perfbench").resolve():
            shutil.rmtree(build_dir)
    if not cache.exists():
        if run_quiet(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], root) != 0:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    if run_quiet(["cmake", "--build", str(build_dir), "-j", jobs], root) != 0:
        fail("build failed")
    binary = build_dir / "perfbench"
    if not binary.exists():
        fail("build produced no perfbench binary")
    return binary


def provenance(root):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return f"provenance: git_sha={sha} source_sha256={digest.hexdigest()[:16]} build_type={BUILD_TYPE}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        fail(f"no library sources under {root / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir = build_dir / "perfbench"
    binary = build(root, build_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    print(provenance(root), flush=True)
    try:
        # run() waits for the child and kills it if the timeout expires.
        completed = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                                   timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {args.seconds + RUN_GRACE_S:.0f} s")
    sys.stdout.write(completed.stdout)
    sys.stdout.flush()
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
