#!/usr/bin/env python3
"""Product-path benchmark: builds dqbench from this checkout and runs one
workload in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--workload all` runs the four workloads one after another, each in its
own process, and prints each one's result line.
The build goes to .bench_build/perfbench and workload scratch files (flow
inputs, checkpoints, span files) to .bench_build/work/NAME, both inside the
checkout. Every line dqbench prints passes through; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and the
metrics BENCHMARK.json lists: its `end_to_end` metrics with --trace 0, its
`per_layer` metrics with --trace 1 (0 for a layer the workload does not
exercise). Exits nonzero when the build fails, a metric is missing, or an
output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("serve_ndjson", "serve_paced", "campaign_cold", "sim_scale")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds dqbench; progress goes to stderr."""
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [["cmake", "--build", BUILD, "--target", "dqbench", "-j", "4"]]
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        steps.insert(0, configure)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "dqbench")


def run_workload(exe, workload, args, wanted):
    """Runs one workload; prints its lines and result, returns the exit code."""
    work_dir = os.path.join(WORK, workload)
    os.makedirs(work_dir, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % workload)

    result = None
    for line in done.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail("dqbench exited %d without a result" % done.returncode)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail("workload %s did not report %s" % (workload, m["name"]))
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s reported in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    out = {"correct": bool(result["correct"]) and done.returncode == 0,
           "attempted": int(result["attempted"]),
           "failed": int(result["failed"]),
           "metrics": metrics}
    print(json.dumps(out))
    sys.stdout.flush()
    return 0 if out["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    exe = build()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(exe, name, args, wanted) for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
