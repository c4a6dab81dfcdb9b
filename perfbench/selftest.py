#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it makes three
short traced runs through run.py: two with seed 1, one with seed 2.  The
two seed-1 runs must agree bit for bit on the answers digest, on every
quality metric (ok_share, preserved_pct, optimal_share, flexibility_pct)
and on every per-layer count; no run may report a mismatch (a repeated
or replayed op answering differently).  Seed 2 must produce a different
digest, i.e. different inputs.  Exits 0 when all checks pass, 1 otherwise.
"""

import json
import subprocess
import sys

WORKLOADS = ["ec-round", "serve"]
# Enough ops to exercise every path while keeping each run short.
SHORT_OPS = {"ec-round": 10, "serve": 22}
QUALITY = ["ok_share", "preserved_pct", "optimal_share", "flexibility_pct"]
SEED_A, SEED_B = 1, 2
# Times vary by nature; everything else in the detail line is a count.
TIMING_SUFFIXES = ("_ms", "_s")
TIMING = {"ops_per_s", "peak_rss_mb", "trace.overhead_pct", "trace.coverage_pct"}


def detail(workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1", "--ops", str(SHORT_OPS[workload])]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d failed:\n%s" % (workload, seed, out.stderr[-2000:]))
    for line in out.stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    raise RuntimeError("%s seed %d printed no detail line" % (workload, seed))


def counts(d):
    skip = {"seed", "workload", "digest", "host_loop_ms"}
    return {k: v for k, v in d.items()
            if k not in skip and k not in QUALITY and k not in TIMING
            and not k.endswith(TIMING_SUFFIXES)}


def check(workload):
    a1, a2, b = detail(workload, SEED_A), detail(workload, SEED_A), detail(workload, SEED_B)
    problems = []
    if a1["digest"] != a2["digest"]:
        problems.append("answers digest differs between same-seed runs")
    for k in QUALITY:
        if a1[k] != a2[k]:
            problems.append("%s differs: %r vs %r" % (k, a1[k], a2[k]))
    c1, c2 = counts(a1), counts(a2)
    for k in sorted(set(c1) | set(c2)):
        if c1.get(k) != c2.get(k):
            problems.append("count %s differs: %r vs %r" % (k, c1.get(k), c2.get(k)))
    for d in (a1, a2, b):
        if d["mismatches"] != 0:
            problems.append("seed %d: %d executions answered differently"
                            % (d["seed"], d["mismatches"]))
    if a1["digest"] == b["digest"]:
        problems.append("seeds %d and %d gave the same answers digest" % (SEED_A, SEED_B))
    return problems


def main():
    failed = False
    for w in WORKLOADS:
        try:
            problems = check(w)
        except RuntimeError as e:
            problems = [str(e)]
        print("%-12s %s" % (w, "ok" if not problems else "FAIL"))
        for p in problems:
            print("    " + p)
        failed = failed or bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
