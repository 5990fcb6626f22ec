#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload ycsb-b --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run compiles the program's
libraries and the benchmark (perfbench/CMakeLists.txt, RelWithDebInfo) into
$CARGO_TARGET_DIR, default .bench_build; later runs reuse the build.

The benchmark prints a human-readable report: each oracle's verdict, every
metric by name and unit, and the run's provenance. Its last line is one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the metrics are the end_to_end ones named in BENCHMARK.json, with --trace 1
the per_layer ones. A traced run also writes its spans as Chrome trace-event
JSON to .bench_out/trace-<workload>.json and prints its overhead against the
last untraced run of the same workload. Every full result is kept in
.bench_out/<workload>-trace<0|1>.json.

Exits 1 when the build fails, the program sources are missing, an oracle
finds a wrong output, or a metric named in BENCHMARK.json is not produced.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def pick(record, section, specs, required):
    """The metrics named in `specs`, taken from the record's `section`."""
    out = {}
    for spec in specs:
        got = record[section].get(spec["name"])
        if got is None:
            if required:
                fail("metric %s missing from %s" % (spec["name"], section))
            continue
        if got["unit"] != spec["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (spec["name"], got["unit"], spec["unit"]))
        out[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def overhead(record, out_dir, workload):
    """Traced minus untraced, per end-to-end metric, as a share of untraced."""
    path = os.path.join(out_dir, "%s-trace0.json" % workload)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        base = json.load(f)["end_to_end"]
    shares = {}
    for name, m in record["end_to_end"].items():
        b = base.get(name, {}).get("value")
        if b:
            shares[name] = (m["value"] - b) / b
    return shares


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        record = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("no result from the benchmark (exit code %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    listed = args.workload in {w["name"] for w in spec["workloads"]}
    if args.trace:
        metrics = pick(record, "per_layer", spec["per_layer"], listed)
        shares = overhead(record, out_dir, args.workload)
        record["trace_overhead"] = shares
        if shares is None:
            print("trace overhead: no untraced run of %s to compare with" % args.workload)
        for name, share in sorted((shares or {}).items()):
            print("trace overhead %-28s %+8.1f%%" % (name, 100 * share))
    else:
        metrics = pick(record, "end_to_end", spec["end_to_end"], listed)
    if not listed:
        print("note: %s is not a BENCHMARK.json workload" % args.workload)
    with open(os.path.join(out_dir, "%s-trace%d.json" % (args.workload, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print("provenance: " + json.dumps(record["provenance"]))

    if record["attempted"] < 1:
        fail("the run attempted no ops")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if record["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
