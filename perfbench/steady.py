#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10]

Runs every workload in two sets of --runs untraced runs (set A with seeds
1..N, set B with seeds 1001..1000+N) and prints, per workload and end-to-end
metric, each set's median and quartiles, the spread (q3 - q1) / median, and
whether the sets agree within the metric's bound:

  - the spread of each set is within the bound (setup_s is exempt: one cold
    set-up per run is noisy, only its median is held to the bound);
  - set B's median differs from set A's by at most the bound, in either
    direction;
  - the share of failed operations is exactly the same in both sets.

Then one traced run per workload reports the tracing overhead: the traced run's throughput and median latency against set A's
medians. Raw results go to <build dir>/steady-runs.json. Exits 1 when any
check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, trace):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    started = time.time()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit("%s seed %d trace %d: exit %d" % (workload, seed, trace, done.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = time.time() - started
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def change(base, new):
    return (new - base) / base if base else float("inf")


def main():
    parser = argparse.ArgumentParser(description="steadiness check for BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    # Build once up front so the first timed run does not pay for it.
    subprocess.run(spec["command"] + ["--self-test"], cwd=ROOT, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)

    sets = {"A": 1, "B": 1001}
    raw = {w: {s: [] for s in sets} for w in workloads}
    for name, base in sets.items():
        for workload in workloads:
            for i in range(args.runs):
                result = run_once(spec, workload, base + i, 0)
                raw[workload][name].append(result)
                print("set %s %-20s seed %4d  %5.1f s  correct=%s attempted=%d failed=%d" % (
                    name, workload, base + i, result["wall_s"], result["correct"],
                    result["attempted"], result["failed"]), file=sys.stderr, flush=True)

    ok = True
    for workload in workloads:
        print("\n== %s (%d runs per set)" % (workload, args.runs))
        print("%-24s %3s %14s %14s %14s %8s %7s  %s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound", "verdict"))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = {}
            for s in sets:
                values = [r["metrics"][name]["value"] for r in raw[workload][s]]
                q1, median, q3 = quartiles(values)
                medians[s] = median
                spread = (q3 - q1) / median if median else float("inf")
                verdict = "ok"
                if name != "setup_s" and spread > bound:
                    verdict, ok = "SPREAD", False
                print("%-24s %3s %14.6g %14.6g %14.6g %7.1f%% %6.0f%%  %s" % (
                    name, s, q1, median, q3, 100 * spread, 100 * bound, verdict))
            drift = change(medians["A"], medians["B"])
            verdict = "ok" if abs(drift) <= bound else "DRIFT"
            ok = ok and verdict == "ok"
            print("%-24s     B median against A %+.1f%% (bound +-%.0f%%)  %s" % (
                "", 100 * drift, 100 * bound, verdict))
        shares = {}
        for s in sets:
            attempted = sum(r["attempted"] for r in raw[workload][s])
            failed = sum(r["failed"] for r in raw[workload][s])
            shares[s] = (failed, attempted)
        same = shares["A"][0] * shares["B"][1] == shares["B"][0] * shares["A"][1]
        ok = ok and same and all(r["correct"] for s in sets for r in raw[workload][s])
        print("failed/attempted: A %d/%d, B %d/%d  %s" % (
            shares["A"][0], shares["A"][1], shares["B"][0], shares["B"][1],
            "ok" if same else "DIFFERENT"))

    print("\n== tracing overhead (one traced run, seed 1, against set A medians)")
    for workload in workloads:
        traced = run_once(spec, workload, 1, 1)
        raw[workload]["traced"] = [traced]
        base_ops = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in raw[workload]["A"])
        base_p50 = statistics.median(r["metrics"]["op_p50_us"]["value"] for r in raw[workload]["A"])
        ops = traced["metrics"]["traced.ops_per_s"]["value"]
        p50 = traced["metrics"]["traced.op_p50_us"]["value"]
        ok = ok and traced["correct"]
        print("%-20s ops_per_s %.6g traced vs %.6g (%+.1f%%), op_p50_us %.6g vs %.6g (%+.1f%%)" % (
            workload, ops, base_ops, 100 * (ops / base_ops - 1), p50, base_p50,
            100 * (p50 / base_p50 - 1)))

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                       "perfbench", "steady-runs.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(raw, f, indent=1)
    print("\nraw results: %s\nverdict: %s" % (out, "STEADY" if ok else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
