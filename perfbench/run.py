#!/usr/bin/env python3
"""Runs one perfbench workload against groomd and prints its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `upsr-groom` (the repository's workspace) and the perfbench binary
(its own package in this directory) in release mode into
$CARGO_TARGET_DIR (default: .bench_build), then runs the binary. Its
lines are passed through; the last line printed is one JSON
object with `correct`, `attempted`, `failed` and `metrics`, where the
metrics are BENCHMARK.json's `end_to_end` list (--trace 0) or its
`per_layer` list (--trace 1). The traced run's spans are written to
$CARGO_TARGET_DIR/perfbench/. Exits non-zero if the build, a reply check,
or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; stop the binary (and the groomd it started)
# shortly before that.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build(env):
    manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(manifest) or not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no repository sources next to {HERE}: cannot build groomd")
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "grooming-cli", "--bin", "upsr-groom"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for command in commands:
        # Cargo's own output goes to stderr; stdout carries only results.
        if subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(command)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)

    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(release, "upsr-groom"),
    ]
    if args.trace:
        spans_dir = os.path.join(target, "perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, f"spans-{args.workload}-seed{args.seed}.tsv")]
    # Its own process group, so a timeout also stops the groomd it started.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"perfbench exited with {proc.returncode} without a result")

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            fail(f"perfbench did not report {spec['name']} in {spec['unit']}")
        metrics[spec["name"]] = got
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
