#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source and measures one
workload.

    python3 perfbench/run.py --workload paper_suite|sim_memory|launch_flood \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/. With --trace 0 the
last stdout line holds the end-to-end metrics of BENCHMARK.json; with
--trace 1 it holds the per-layer metrics, from one untraced process and
one traced process (GPC_PROF=summary,counters). The line before it is the
host fingerprint. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "gpcbench")

# Simulator threads per workload (GPC_SIM_THREADS, never above nproc). The
# serve worker count and in-flight window are constants in launch_flood.cpp.
SIM_THREADS = {"paper_suite": 2, "sim_memory": 1, "launch_flood": 1}
SERVE_WORKERS = 2
SERVE_WINDOW = 4

# Knobs that change what is measured. The benchmark refuses to run with any
# of them set; GPC_PROF is set by this script for the traced process only.
REFUSED_ENV = [
    "GPC_SIM_DISPATCH", "GPC_SIM_FASTPATH", "GPC_SIM_COHORT", "GPC_FAULT",
    "GPC_RETRY", "GPC_DEGRADE", "GPC_WATCHDOG", "GPC_AIWC",
    "GPC_SIM_SANITIZE", "GPC_SERVE", "GPC_VIRT", "GPC_PROF",
]

# Headroom over --seconds for one process; a --trace 1 run starts two.
CHILD_SLACK_S = 60


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "gpcbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0 or not os.path.exists(BINARY):
        fail("build failed")


def cmake_cache(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest():
    """sha256 over the simulator and benchmark sources: the code identity
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def fingerprint(workload):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.*)$", f.read(), re.M)
            cpu = m.group(1) if m else ""
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = ""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": version or compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_sha": sha or "not a git checkout",
        "source_sha256": source_digest(),
        "GPC_SIM_THREADS": SIM_THREADS[workload],
        "serve_workers": SERVE_WORKERS if workload == "launch_flood" else 0,
        "serve_window": SERVE_WINDOW if workload == "launch_flood" else 0,
        "cpus": sorted(os.sched_getaffinity(0)),
    }


def run_child(args, mode, traced):
    env = dict(os.environ)
    env["GPC_SIM_THREADS"] = str(SIM_THREADS[args.workload])
    if traced:
        env["GPC_PROF"] = "summary,counters"
    # The traced process writes counters.jsonl into its working directory.
    cwd = os.path.join(BUILD, "run-" + mode)
    os.makedirs(cwd, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--expected", os.path.join(HERE, "expected")]
    try:
        p = subprocess.run(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=args.seconds + CHILD_SLACK_S)
    except subprocess.TimeoutExpired:
        fail(mode + " process timed out")
    sys.stderr.write(p.stderr[-4000:] if traced else p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("%s process exited %d" % (mode, p.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SIM_THREADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    refused = [k for k in REFUSED_ENV if os.environ.get(k)]
    if refused:
        fail("refusing to run with %s set: it changes what is measured"
             % ", ".join(refused))
    if SIM_THREADS[args.workload] > (os.cpu_count() or 1):
        fail("%s needs %d simulator threads, the host has %s CPUs"
             % (args.workload, SIM_THREADS[args.workload], os.cpu_count()))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    if args.trace:
        untraced = run_child(args, "layers", traced=False)
        traced = run_child(args, "traced", traced=True)
        children = [untraced, traced]
        got = dict(untraced["metrics"])
        got.update(traced["metrics"])
        got["trace.overhead_s"] = (traced["metrics"]["trace.wall_s"] -
                                   untraced["metrics"]["trace.untraced_wall_s"])
        wanted = spec["per_layer"]
        # A layer the workload does not exercise reads 0 (the bypass case).
        defaults = {m["name"]: 0.0 for m in wanted}
    else:
        children = [run_child(args, "e2e", traced=False)]
        got = children[0]["metrics"]
        wanted = spec["end_to_end"]
        defaults = {}

    names = {m["name"] for m in wanted}
    unknown = sorted(set(got) - names)
    missing = sorted(names - set(got) - set(defaults))
    if unknown or missing:
        fail("metric mismatch: unknown %s, missing %s" % (unknown, missing))
    metrics = {m["name"]: {"value": got.get(m["name"], defaults.get(m["name"])),
                           "unit": m["unit"]} for m in wanted}

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for c in children:
        for e in c["errors"]:
            print("perfbench: FAILED " + e, file=sys.stderr)
    print(json.dumps({"fingerprint": fingerprint(args.workload)}))
    print(json.dumps({"correct": failed == 0, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
