#!/usr/bin/env python3
"""Build fbsgw and the perfbench load generator from this checkout, then
run one benchmark invocation.

Run from the repository root:

    python3 perfbench/run.py --workload echo-small --seed 1 --seconds 10 --trace 0

--workload all runs echo-small, echo-bulk and flood in turn.

Everything the build and the run write goes under .bench_build/ in the
checkout (Go build cache included). The last line of standard output is
the run's JSON result; the human-readable table goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["echo-small", "echo-bulk", "flood"]


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOENV="off",
        # The go command keeps telemetry under the user config directory.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    return env


def build(env):
    """Builds both binaries; returns their paths or None on failure."""
    bindir = os.path.join(BUILD, "bin")
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    gw = os.path.join(bindir, "fbsgw")
    pb = os.path.join(bindir, "perfbench")
    steps = [
        (["go", "build", "-o", gw, "./cmd/fbsgw"], ROOT),
        (["go", "build", "-o", pb, "."], HERE),
    ]
    for cmd, cwd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return gw, pb


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = go_env()
    bins = build(env)
    if bins is None:
        return 2
    gw, pb = bins

    # With two or more CPUs, the load generator and the gateway each get
    # one of their own, so the scheduler's placement of the two processes
    # does not vary from run to run.
    pin = []
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2 and shutil.which("taskset"):
        os.sched_setaffinity(0, {cpus[0]})
        pin = ["-gateway-cpu", str(cpus[1])]
    status = 0
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [pb, "-fbsgw", gw, "-workload", w, "-seed", str(args.seed),
               "-seconds", str(args.seconds), "-trace", str(args.trace),
               "-out", os.path.join(BUILD, "run")] + pin
        status = subprocess.run(cmd, cwd=ROOT).returncode or status
    return status


if __name__ == "__main__":
    sys.exit(main())
