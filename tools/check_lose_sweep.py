#!/usr/bin/env python3
"""Checks that lineage recovery never changes a program's output.

For each program, runs it once clean with a Chrome trace, to learn how
many stage ids it uses, then once per `--lose S:P:I` directive for
every stage id S, lost partition P in {0, 1} and input index I in
{0, 1}. Each lossy run must exit 0 and print exactly the clean run's
stdout. At least one run per program must have rebuilt a partition (the
profile's recomputed_partitions), or its sweep tested nothing.

Usage:
  check_lose_sweep.py <diablo_run> <scratch dir> \
      -- <program> [program args...] [-- <program> [program args...] ...]

Prints "OK: ..." and exits 0 on success, 1 on any check failure.
"""

import json
import os
import subprocess
import sys


def run(cmd):
    return subprocess.run(cmd, capture_output=True, text=True)


def sweep(runner, scratch, program_args):
    """Runs one program's sweep; returns (failures, runs, stages, rebuilt)."""
    base = [runner] + program_args
    name = os.path.basename(program_args[0])
    trace = os.path.join(scratch, f"{name}.clean_trace.json")
    profile = os.path.join(scratch, f"{name}.lossy_profile.json")
    clean = run(base + [f"--trace-out={trace}"])
    if clean.returncode != 0:
        return [f"{name} clean run: exit {clean.returncode}, stderr "
                f"{clean.stderr.strip()!r}"], 0, 0, 0
    with open(trace) as f:
        events = json.load(f)["traceEvents"]
    stages = 1 + max(e["args"]["stage"] for e in events
                     if "stage" in e.get("args", {}))
    failures = []
    runs = 0
    rebuilt = 0
    for stage in range(stages):
        for partition in (0, 1):
            for index in (0, 1):
                lose = f"{stage}:{partition}:{index}"
                proc = run(base + ["--lose", lose, f"--profile-out={profile}"])
                runs += 1
                if proc.returncode != 0 or proc.stdout != clean.stdout:
                    same = proc.stdout == clean.stdout
                    failures.append(
                        f"{name} --lose {lose}: exit {proc.returncode}, "
                        f"stdout {'identical' if same else 'differs'}, "
                        f"stderr {proc.stderr.strip()!r}")
                    continue
                with open(profile) as f:
                    rebuilt += json.load(f)["totals"]["recomputed_partitions"]
    if rebuilt == 0:
        failures.append(f"{name}: no run rebuilt a partition")
    return failures, runs, stages, rebuilt


def main():
    if len(sys.argv) < 5 or sys.argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    runner, scratch = sys.argv[1], sys.argv[2]
    os.makedirs(scratch, exist_ok=True)
    programs = []
    for arg in sys.argv[3:]:
        if arg == "--":
            programs.append([])
        else:
            programs[-1].append(arg)
    failures = []
    summary = []
    for program_args in programs:
        fails, runs, stages, rebuilt = sweep(runner, scratch, program_args)
        failures += fails
        summary.append(f"{os.path.basename(program_args[0])}: {runs} runs "
                       f"over {stages} stages, {rebuilt} partitions rebuilt")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("OK: every lossy run identical to its clean run (" +
          "; ".join(summary) + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
