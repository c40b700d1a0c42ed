#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload zk-closed --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/bench.exe with dune, runs it
in a fresh process, checks its outputs (checks.py) and prints, as the last
line of stdout, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are BENCHMARK.json's end_to_end list;
with --trace 1 they are its per_layer list, measured by a traced run, plus
the tracing overhead against an untraced run made just before it.

The line before the result records the host and run parameters. A copy of
everything, and the traced run's spans, go to .perfbench/ in the current
directory.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402

WORKLOADS = ("zk-closed", "cs-open-read", "faultspace")
OUT = ".perfbench"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    try:
        r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                           stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def bench(args, trace):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if trace:
        cmd += ["--trace", "--spans",
                os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("bench.exe timed out")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"bench.exe exited with {r.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError as e:
        fail(f"run from the repository root: {e}")
    build()
    os.makedirs(OUT, exist_ok=True)

    raw = bench(args, trace=False)
    if args.trace:
        untraced = raw["e2e"]["ops_per_s"]
        raw = bench(args, trace=True)
        values = dict(raw["layer"])
        values["trace.overhead_pct"] = \
            100.0 * (untraced - raw["e2e"]["ops_per_s"]) / untraced
        listed = spec["per_layer"]
    else:
        values = raw["e2e"]
        listed = spec["end_to_end"]

    names = {m["name"] for m in listed}
    unknown = sorted(set(values) - names)
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {unknown}")
    if not args.trace and set(values) != names:
        fail(f"end-to-end metrics not measured: {sorted(names - set(values))}")
    failures, misses = checks.check(raw)
    for name, value in values.items():
        if value is None:  # bench.exe writes a NaN as null
            failures.append(f"{name} was not measured")
            values[name] = 0.0
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    for msg in misses:
        print(f"counted in coverage/specificity: {msg}", file=sys.stderr)
    # Per-layer metrics a workload does not exercise read 0 (README.md).
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in listed}
    result = {"correct": not failures, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    record = {"env": raw["env"], "workload": args.workload, "trace": args.trace,
              "detected_by": raw["checks"].get("detected_by"),
              "check_failures": failures, "misses": misses, "result": result}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"env": raw["env"]}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
