#!/usr/bin/env python3
"""Compares two sets of ledger records (written by run.py --out).

    python3 perfledger/compare.py --base a1.json a2.json ... \
        --new b1.json b2.json ...

For each workload it prints every metric's median on both sides and the
change as a share of the base median. An end-to-end metric that got
worse by more than its BENCHMARK.json bound is a regression (exit 1).

Records are refused (exit 2) unless every one comes from a Release build
on the same number of CPUs, and both sides ran each workload with the same
programs, scales, threads and dist workers: thread scaling and timings
from different hosts or builds are not comparable.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SAME_CONFIG = ("programs", "threads", "partitions", "dist_workers",
               "pagerank_steps", "trace")


def load(paths):
    records = []
    for path in paths:
        record = json.loads(Path(path).read_text())
        record["path"] = path
        records.append(record)
    return records


def refuse(message):
    print(f"compare: refused: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)

    cpus = {r["meta"]["num_cpus"] for r in base + new}
    if len(cpus) != 1:
        refuse(f"records come from hosts with different num_cpus {cpus}")
    for r in base + new:
        if r["meta"]["build_type"] != "Release":
            refuse(f"{r['path']} is a {r['meta']['build_type']} build")

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["per_layer"]}
    better.update({name: m["better"] for name, m in bounds.items()})

    regressions = 0
    workloads = sorted({r["meta"]["workload"] for r in base + new})
    for workload in workloads:
        sides = [[r for r in rs if r["meta"]["workload"] == workload]
                 for rs in (base, new)]
        if not all(sides):
            print(f"{workload}: only on one side, skipped")
            continue
        for key in SAME_CONFIG:
            if len({json.dumps(r["meta"][key]) for r in sides[0] + sides[1]}) != 1:
                refuse(f"{workload}: records differ in {key}")
        print(f"{workload} ({len(sides[0])} base, {len(sides[1])} new "
              f"records)")
        names = sorted(set.intersection(
            *(set(r["result"]["metrics"]) for r in sides[0] + sides[1])))
        for name in names:
            b, n = (statistics.median(r["result"]["metrics"][name]["value"]
                                      for r in side) for side in sides)
            change = (n - b) / b if b else 0.0
            worse = change if better.get(name) == "lower" else -change
            verdict = ""
            if name in bounds:
                regressed = worse > bounds[name]["bound"]
                regressions += regressed
                verdict = "REGRESSION" if regressed else "ok"
            print(f"  {name:32} base {b:<12.6g} new {n:<12.6g} "
                  f"{change:+8.1%} {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
