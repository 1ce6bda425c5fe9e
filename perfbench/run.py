#!/usr/bin/env python3
"""Build radiobcastd, labeler and the perfbench harness from the source
tree this file sits in, then run the harness.

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke            # every workload, both modes, tiny inputs

Everything the build and the runs write (Go build cache, binaries,
stores, traces) goes under .bench_build/ at the root of the tree. The
last line of standard output is the harness's JSON result.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        # Keeps the go command's config and telemetry files in the tree.
        HOME=os.path.join(BUILD, "home"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "home", ".config"),
    )
    return env


def build():
    for f in ("go.mod", os.path.join("cmd", "radiobcastd"), os.path.join("cmd", "labeler")):
        if not os.path.exists(os.path.join(ROOT, f)):
            sys.exit("run.py: %s not found: not a radiobcast source tree" % f)
    os.makedirs(BIN, exist_ok=True)
    env = go_env()
    steps = [
        (["go", "build", "-o", os.path.join(BIN, "radiobcastd"), "./cmd/radiobcastd"], ROOT),
        (["go", "build", "-o", os.path.join(BIN, "labeler"), "./cmd/labeler"], ROOT),
        (["go", "build", "-o", os.path.join(BIN, "perfbench"), "."], os.path.join(ROOT, "perfbench")),
    ]
    for cmd, cwd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("run.py: %s failed" % " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run every workload in both modes on tiny inputs")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")

    build()
    harness = [os.path.join(BIN, "perfbench"), "-root", ROOT, "-bin", BIN, "-out", os.path.join(BUILD, "run")]
    if args.smoke:
        for trace in (0, 1):
            r = subprocess.run(harness + ["-smoke", "-workload", args.workload or "all", "-seed", str(args.seed),
                                          "-seconds", "0", "-trace", str(trace)])
            if r.returncode != 0:
                sys.exit(r.returncode)
        return
    r = subprocess.run(harness + ["-workload", args.workload, "-seed", str(args.seed),
                                  "-seconds", str(args.seconds), "-trace", str(args.trace)])
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
