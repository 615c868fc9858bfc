#!/usr/bin/env python3
"""Build and run the StarCDN trace-replay benchmark.

    python3 perfbench/run.py --workload day_variants --seed 1 --trace 0
    python3 perfbench/run.py --workload all

Builds the simulator library and the benchmark program from source into
.bench_build/ (Release), then runs it. The program prints a report
and, as its last line, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 gives the end-to-end metrics, --trace 1 the
per-layer ones. --workload all runs every workload in turn.

Exits non-zero, without a result line, when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "starcdn_perfbench"
WORKLOADS = ["day_variants", "capacity_sweep", "cluster_inproc"]
# A run stops starting replays after two minutes; this only guards a hang.
RUN_TIMEOUT_S = 175


def git_sha():
    """Commit of the checkout, read from .git without running git, which
    would search the directories above the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = any((BUILD_DIR / f).exists()
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "starcdn_perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def run(workload, args):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 2
    print("perfbench: git %s; Release; workload model unvalidated against the "
          "paper's traces; TCP cluster replay not run" % git_sha())
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        status = run(workload, args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
