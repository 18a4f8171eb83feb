#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds this directory as its own CMake project (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs the workload in its own process.  --trace 0 reports the
end-to-end metrics of one untraced run.  --trace 1 makes an untraced run and
then a traced run of the same seed, and reports the traced run's per-layer
metrics plus trace.overhead_frac.

Stdout ends with a "validity:" line (threads, nproc, build flags, seed,
generator lag, backlog, failed_frac), an "extra:" line with every measured
metric BENCHMARK.json does not declare, and last the result record.  A failed
build, a refused run or a timeout exits non-zero without a result record; a
failed answer check prints the record with "correct": false and exits 1.
See README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
# Both runs of a traced invocation end within this many seconds.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures on first use, then brings the perfbench binary up to date."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "--parallel", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def workload_env():
    """The caller's environment minus what would retune a run: OpenMP
    settings and the library's own switches (telemetry arming, failpoints,
    spin ceilings)."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("OMP_", "GOMP_", "AFFOREST_"))}


def run(binary, args, trace, deadline):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=workload_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("run timed out")
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise BenchError(f"run exited {proc.returncode} without a record")
    record = json.loads(lines[-1])
    if record["refusal"]:
        raise BenchError("run refused: " + record["refusal"])
    if proc.returncode not in (0, 1):
        raise BenchError(f"run exited {proc.returncode}")
    return proc.returncode, record


def pick(record, declared):
    """The declared metrics from a run record, each checked for its unit."""
    out = {}
    for m in declared:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise BenchError(f"run did not report {m['name']} in {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload}")
    binary = build()
    deadline = time.monotonic() + DEADLINE_S
    codes, records = [], []
    for trace in ([False, True] if args.trace else [False]):
        code, record = run(binary, args, trace, deadline)
        codes.append(code)
        records.append(record)

    print("validity: " + json.dumps(records[0]["info"], sort_keys=True))
    if args.trace:
        untraced, traced = records
        traced["metrics"]["trace.overhead_frac"] = {
            "value": traced["metrics"]["latency_p50_ms"]["value"] /
            untraced["metrics"]["latency_p50_ms"]["value"] - 1,
            "unit": "ratio"}
        metrics = pick(traced, spec["per_layer"])
    else:
        metrics = pick(records[0], spec["end_to_end"])
    # Everything measured but not declared: workload-specific layer metrics
    # and figures too unsteady to carry a bound (README.md).
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    extra = {k: v["value"] for k, v in records[-1]["metrics"].items()
             if k not in declared}
    print("extra: " + json.dumps(extra, sort_keys=True))

    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and all(c == 0 for c in codes)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
