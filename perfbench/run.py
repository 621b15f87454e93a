#!/usr/bin/env python3
"""Runs one somrm benchmark workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness (a Cargo package of its own, next to this file) into
$CARGO_TARGET_DIR (default: .bench_build), then starts the workload in a
process of its own, so peak RSS belongs to that workload alone. A traced
run (--trace 1) first starts a calibration process (STREAM triad and FMA
peak) and reports the per-layer metrics; an untraced run reports the
end-to-end metrics. Metrics are named in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every child must end well inside the three minutes a run may take.
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, env):
    """Runs one harness process; returns its last stdout line as JSON."""
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True
        )
    except subprocess.TimeoutExpired:
        fail(f"{cmd[1]} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{' '.join(map(str, cmd[1:]))} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{cmd[1]} printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    # The kernel variant is pinned in the harness; the environment must
    # not switch it.
    env.pop("SOMRM_KERNEL", None)
    # With glibc's default per-thread malloc arenas, the serve workload's
    # peak RSS depended on which arena each short-lived server thread
    # landed in (25.7 to 31.9 MB for the same bursts); with one arena it
    # repeats to within 2%.
    env["MALLOC_ARENA_MAX"] = "1"
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("building the harness failed")
    exe = target / "release" / "somrm-perfbench"

    calibration = run_child([exe, "calibrate"], env) if args.trace else None
    result = run_child(
        [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work", str(target / "perfbench-work")],
        env,
    )
    measured = dict(result["metrics"])
    info = dict(result["info"])
    if calibration:
        measured.update(calibration["metrics"])
        info.update(calibration["info"])
        if "linalg.kernel.gbps" in measured:
            measured["linalg.kernel.bw_frac"] = {
                "value": measured["linalg.kernel.gbps"]["value"]
                / calibration["metrics"]["machine.triad_gbps"]["value"],
                "unit": "frac",
            }

    metrics = {}
    not_run = []
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"workload {args.workload} did not report {m['name']}")
            # A layer this workload does not exercise did no work.
            got = {"value": 0.0, "unit": m["unit"]}
            not_run.append(m["name"])
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {got['unit']}, declared in {m['unit']}")
        metrics[m["name"]] = got
    if not_run:
        info["not_exercised"] = ",".join(not_run)

    print("# info " + json.dumps(info, sort_keys=True))
    runs = [result] + ([calibration] if calibration else [])
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(int(r["attempted"]) for r in runs),
        "failed": sum(int(r["failed"]) for r in runs),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
