#!/usr/bin/env python3
"""Smoke test for the replay benchmark.

Runs every workload at a tenth of its size: two plain replays whose output
digests must match, then one timed and one traced run whose output checks
must all pass and whose results must name every metric BENCHMARK.json
declares. Exits 1 on the first problem.

    python3 replaybench/smoke.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def metric_names(section):
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[section]}


def fail(msg):
    print(f"FAIL {msg}")
    sys.exit(1)


def main():
    if not bench.build():
        fail("build")
    expected = {0: metric_names("end_to_end"), 1: metric_names("per_layer")}
    for workload in bench.WORKLOADS:
        tiny = ["--workload", workload, "--seed", "3", "--size", "tiny"]
        digests = []
        for _ in range(2):
            rc, out = bench.run_binary(tiny + ["--digest"])
            if rc != 0:
                fail(f"{workload}: tiny replay failed its output checks")
            digests.append(out.strip())
        if digests[0] != digests[1]:
            fail(f"{workload}: two replays of one seed differ: {digests}")
        for trace in (0, 1):
            rc, out = bench.run_binary(tiny + ["--seconds", "0", "--trace", str(trace)])
            result = json.loads(out.strip().splitlines()[-1]) if rc == 0 and out.strip() else {}
            if not result.get("correct") or result.get("failed") != 0:
                fail(f"{workload} --trace {trace}: {result or 'no result'}")
            missing = expected[trace] - set(result["metrics"])
            if missing:
                fail(f"{workload} --trace {trace}: missing metrics {sorted(missing)}")
        print(f"ok {workload}: {digests[0]}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
