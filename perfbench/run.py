#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build is `dune build --profile
release` of bin/ecsat.exe and perfbench/ecbench.exe (the dune cache is
disabled, so nothing is written outside the checkout).  The benchmark's
stdout passes through unchanged; its last line is the JSON result.  Any
failure (no sources, failed build, wrong answer, timeout) exits non-zero
without printing a result.
"""

import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "ecbench.exe")
ECSAT = os.path.join("_build", "default", "bin", "ecsat.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a checkout of the program: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "./bin/ecsat.exe", "./perfbench/ecbench.exe"]
    try:
        # The build's own output goes to stderr: stdout carries only the
        # benchmark's report.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (exit %d)" % done.returncode)


def main():
    build()
    cmd = [os.path.join(ROOT, EXE)] + sys.argv[1:] + ["--ecsat", os.path.join(ROOT, ECSAT)]
    # Own process group, so a timeout also stops the `ecsat serve`
    # children of the serve workload.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        # Forward the diagnostics but never a result line.
        sys.stderr.buffer.write(out)
        fail("benchmark failed (exit %d)" % proc.returncode)
    sys.stdout.buffer.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
