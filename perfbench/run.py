#!/usr/bin/env python3
"""Builds and runs one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The program is compiled from the
checkout's sources into $CARGO_TARGET_DIR (default .bench_build), the
benchmark's arithmetic tests run, and then the perfbench binary measures
the workload. Its tables go to standard output; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`, where the
metrics are BENCHMARK.json's `end_to_end` set (--trace 0) or its
`per_layer` set (--trace 1). The exit code is nonzero when the build, a
correctness check or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds perfbench; build chatter goes to stderr."""
    src = os.path.join(ROOT, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", src, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    test = os.path.join(build_dir, "perfbench_math_test")
    if subprocess.run([test, "--gtest_brief=1"], stdout=sys.stderr,
                      stderr=sys.stderr).returncode:
        fail("the benchmark's arithmetic tests failed")


def run(binary, args):
    """Runs the benchmark in its own process group, so that a timeout or a
    signal to this script also stops the shard processes it started;
    returns (exit code, stdout)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the group
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)  # no-op when absolute
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir)

    work_dir = os.path.join(build_root, "work",
                            f"{args.workload}-{os.getpid()}")
    code, out = run(os.path.join(build_dir, "perfbench"), [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work_dir,
        "--shard-server", os.path.join(build_dir, "shard_server"),
        "--trace-dir", os.path.join(build_root, "traces"),
    ])
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("the benchmark printed no result")
    if code != 0 or not result["correct"]:
        fail(f"correctness check failed (exit code {code})")
    if result["failed"]:
        fail(f"{result['failed']} of {result['attempted']} ops failed")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} was not measured")
        if got["value"] is None:
            fail(f"metric {m['name']} is not a finite number")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} is in {got['unit']}, not {m['unit']}")
        if m in spec["end_to_end"] and not got["supported"]:
            fail(f"too few samples for {m['name']} ({got['samples']})")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
