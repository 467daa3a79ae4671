#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the repository root:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every workload, one process
    python3 perfbench/run.py --self-test

Builds the library and the benchmark from source into $CARGO_TARGET_DIR
(default .bench_build) under the repository root, runs the benchmark's
self-tests, then the measured run. Build output and progress go to stderr;
the last line of stdout is the result JSON. Exits non-zero when the build,
a self-test or an output check fails.
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
BINARY = "landmark_perfbench"
# A run measures for --seconds; this bounds everything around it.
RUN_SLACK_S = 110


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails loudly."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"command failed ({result.returncode}): {' '.join(cmd)}")


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT} (CMakeLists.txt and src/ "
             "must sit next to perfbench/)")
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    run_quiet(["cmake", "--build", str(out), "--target", BINARY,
               "-j", str(jobs)])
    return out / BINARY


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def source_digest():
    """Identifies the measured code when there is no git commit to name."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    binary = build(out)
    self_test = subprocess.run([str(binary), "--self-test"],
                               stdout=sys.stderr, stderr=sys.stderr,
                               timeout=60)
    if self_test.returncode != 0 or args.self_test:
        sys.exit(self_test.returncode)

    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--digests", str(HERE / "digests.txt"),
           "--out-dir", str(results),
           "--commit", git_commit(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    workloads = 3 if args.workload == "all" else 1
    try:
        result = subprocess.run(
            cmd, timeout=workloads * (args.seconds + RUN_SLACK_S))
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
