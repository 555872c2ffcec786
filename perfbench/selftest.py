#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload run.py defines (serve_durable_write too, which
BENCHMARK.json leaves out) untraced and traced for one second each, with a
few thousand items instead of the full sizes, and fails unless each run
exits 0, passes its output checks and prints exactly the metrics
BENCHMARK.json names, with their units (serve_durable_write also prints
restart_s). Takes under a minute after the build.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import WORKLOADS  # noqa: E402

# End-to-end metrics of workloads that BENCHMARK.json leaves out: only the
# durable workload has something to recover after a restart.
EXTRA = {"serve_durable_write": {"restart_s": "s"}}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=600)
            where = "%s trace=%d" % (workload, trace)
            before = len(problems)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (where, proc.returncode))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if result.get("correct") is not True:
                problems.append("%s: an output check failed" % where)
            if not isinstance(result.get("attempted"), int) or \
                    result["attempted"] < 1:
                problems.append("%s: attempted must be >= 1" % where)
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            want = dict(expected[trace])
            if trace == 0:
                want.update(EXTRA.get(workload, {}))
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                problems.append("%s: metrics or units differ from "
                                "BENCHMARK.json: missing %s, extra %s"
                                % (where, missing, extra))
            for name, v in result.get("metrics", {}).items():
                if not isinstance(v.get("value"), (int, float)):
                    problems.append("%s: %s has no numeric value" % (where, name))
            print("selftest: %-32s %s" % (
                where, "ok" if len(problems) == before else "FAILED"),
                flush=True)
    for p in problems:
        print("selftest: FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
