#!/usr/bin/env python3
"""Steadiness check: runs the benchmark in sets of runs of one build and
compares them against the bounds in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/steadiness.py [--runs 10] [--sets 2]
                                    [--workloads heat_ooc,cluster_overlap]

Every run gets its own seed and runs for run_seconds. For each workload
and end-to-end metric it prints, per set, the median and the spread
(distance between the first and third quartile from
statistics.quantiles(n=4), as a share of the median).
A metric is
  * unresolved  when a set's spread exceeds the metric's bound;
  * worse       when the last set's median is worse than the first set's by
                more than the bound;
  * ok          otherwise.
Simulated-clock metrics (unit sim_ms) must read identically in every run.
Exit code 1 when a run fails, a metric is worse, or a simulated value moves.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return result if result.get("correct") else None


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    failed = False
    seed = 1
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            values = {m["name"]: [] for m in bench["end_to_end"]}
            for _ in range(args.runs):
                result = run_once(workload, seed, bench["run_seconds"])
                if result is None:
                    print("%s seed %d: run failed" % (workload, seed))
                    failed = True
                else:
                    for name in values:
                        values[name].append(
                            result["metrics"][name]["value"])
                seed += 1
            sets.append(values)
        print("\n%s (%d set(s) of %d runs)" % (workload, args.sets, args.runs))
        print("  %-22s %8s  %-34s %s" % ("metric", "bound", "median (spread) per set",
                                        "status"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [s[name] for s in sets if s[name]]
            if len(per_set) != len(sets):
                failed = True
                continue
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (medians[-1] - medians[0]) / medians[0]
            if m["unit"] == "sim_ms":
                status = ("ok (exact)"
                          if len({x for v in per_set for x in v}) == 1
                          else "MOVED")
                failed |= status == "MOVED"
            elif any(s > bound for s in spreads):
                status = "unresolved"
            elif worse_by > bound:
                status = "worse by %.1f%%" % (100 * worse_by)
                failed = True
            else:
                status = "ok"
            cells = " ".join("%.6g (%.1f%%)" % (md, 100 * sp)
                             for md, sp in zip(medians, spreads))
            print("  %-22s %8.3f  %-34s %s" % (name, bound, cells, status))
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
