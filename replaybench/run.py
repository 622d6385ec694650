#!/usr/bin/env python3
"""Replay benchmark entry point.

Builds the benchmark binary (and the repository libraries it links) into
.bench_build/replaybench under the repository root, runs one workload, and
prints the binary's JSON result as the last line of stdout:

    python3 replaybench/run.py --workload steady --seed 1 --seconds 15 --trace 0

With --record it instead rewrites reference.tsv, the output digests the
benchmark checks every replay of a recorded seed against:

    python3 replaybench/run.py --record

Exits non-zero without printing a result when the build or the replay fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "replaybench")
BINARY = os.path.join(BUILD, "replay_bench")
REFERENCE = os.path.join(HERE, "reference.tsv")
WORKLOADS = ["steady", "backlog", "facility", "governed"]
RECORD_SEEDS = range(0, 32)
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; False on any failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "replay_bench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode:
                break
        else:
            return True
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-30:]))
    return False


def run_binary(args):
    proc = subprocess.run([BINARY] + args + ["--reference", REFERENCE,
                                             "--work-dir", os.path.join(BUILD, "work")],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def measure(opts):
    rc, out = run_binary(["--workload", opts.workload, "--seed", str(opts.seed),
                          "--seconds", str(opts.seconds), "--trace", str(opts.trace)])
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        sys.stderr.write(f"replay_bench exited with {rc}\n")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("replay_bench printed a malformed result\n")
        return 1
    print(json.dumps(result))
    return 0


def record():
    rows = []
    for workload in WORKLOADS:
        for seed in RECORD_SEEDS:
            rc, out = run_binary(["--workload", workload, "--seed", str(seed), "--digest"])
            if rc != 0:
                sys.stderr.write(f"{workload} seed {seed}: replay failed\n")
                return 1
            rows.append(out.strip())
    with open(REFERENCE, "w") as f:
        f.write("# <workload> <trace seed> <digest>: FNV-1a 64 of the summary CSV +\n"
                "# per-job report of a full-size replay. Run seed s replays trace seeds\n"
                "# 1000s, 1000s+1, 1000s+2. Rewrite with: python3 replaybench/run.py --record\n")
        f.write("\n".join(rows) + "\n")
    print(f"recorded {len(rows)} digests in {REFERENCE}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.tsv instead of measuring")
    opts = parser.parse_args()
    if not opts.record and not opts.workload:
        parser.error("--workload is required")
    if not build():
        sys.stderr.write("replaybench: build failed\n")
        return 1
    return record() if opts.record else measure(opts)


if __name__ == "__main__":
    sys.exit(main())
