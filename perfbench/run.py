#!/usr/bin/env python3
"""Build smem from source and run one perfbench workload.

Usage, from the root of an smem checkout:

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: serve-cold, serve-warm, paper, or all (the three in turn).
--trace 0 measures the end-to-end metrics; --trace 1 is the separate
traced run that reports the per-layer metrics and writes a Chrome trace
under .perfbench/.  The last line of stdout is the run's JSON result
(one line per workload with `all`).  The exit status is nonzero when a
build, verdict, claim or daemon drain failed.

The build goes to .bench_build/ (release profile, dune cache off);
generated corpora, verdict stores and traces go to .perfbench/.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
WORK = ".perfbench"
GOLDEN = "test/golden/verdicts.expected"
WORKLOADS = ["serve-cold", "serve-warm", "paper"]
SOURCES = ["dune-project", "bin/smem.ml", "lib", GOLDEN]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    missing = [p for p in SOURCES if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail(f"not an smem source checkout (missing {', '.join(missing)})")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD, "./bin/smem.exe", "./perfbench/bin/main.exe"]
    try:
        status = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
    except FileNotFoundError:
        fail("dune is not installed")
    if status != 0:
        fail(f"build failed (dune exit {status})")


def run(workload, args):
    cmd = [os.path.join(BUILD, "default", "perfbench", "bin", "main.exe"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--smem", os.path.join(BUILD, "default", "bin", "smem.exe"),
           "--work", WORK, "--golden", GOLDEN]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    statuses = [run(w, args) for w in workloads]
    sys.exit(max(statuses))


if __name__ == "__main__":
    main()
