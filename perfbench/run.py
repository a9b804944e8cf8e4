#!/usr/bin/env python3
"""Runs the KOR benchmark: builds `kor` and the harness from source, then
plays one workload (or all of them) and relays the harness's report.

    python3 perfbench/run.py --workload hot-targets --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, seed 1

The last stdout line of a workload run is its JSON result; the lines
before it are the human report. The exit code is non-zero when a build,
a run or an answer check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hot-targets", "diverse-targets"]
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


def default_seconds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return int(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 40


def build(env):
    """Builds the server binary and the harness; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no Cargo.toml at the repository root; nothing to build")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "kor"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "harness", "Cargo.toml")],
    ):
        # Cargo's own output goes to stderr: stdout carries the report.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "kor"), os.path.join(release, "kor-perfbench")


def run_one(harness, kor, workload, seed, seconds, trace):
    out = os.path.join(ROOT, ".bench_out", f"{workload}-s{seed}-t{trace}")
    cmd = [harness, "--kor", kor, "--out", out, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # Own process group, so a timeout also stops the servers it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be a whole number")
    seconds = args.seconds if args.seconds is not None else default_seconds()
    if seconds < 1:
        ap.error("--seconds must be at least 1")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    kor, harness = build(env)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        code = run_one(harness, kor, workload, args.seed, seconds, args.trace)
        if code != 0:
            print(f"perfbench: {workload} exited with {code}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
