#!/usr/bin/env python3
"""Runs one workload of the DIABLO end-to-end, per-layer ledger.

    python3 perfledger/run.py --workload table2_flat --seed 1 \
        --seconds 10 --trace 0 [--out record.json]

Steps:
  1. Builds perfledger/ (a Release build of the repository's libraries and
     the ledger binary) into .bench_build/perfledger.
  2. Computes the reference-interpreter outputs of the workload's programs
     for the seed, in a separate process, so neither its time nor its
     memory is charged to the measured process. Outputs are kept per
     (program, scale, seed) for the lifetime of the binary.
  3. Runs the measured process: --trace 0 reports the end-to-end metrics,
     --trace 1 the per-layer ones (perfledger/spec.json lists both, with
     the workloads). Its last stdout line, the result JSON, is printed
     last here too, after it is checked against BENCHMARK.json and
     spec.json.

--out also writes the result with the run metadata (num_cpus, threads,
dist workers, build type, compiler, seed) for perfledger/compare.py.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfledger"
BINARY = BUILD / "perfledger"
# A run must finish within 180 s of wall time after the build.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 840
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print(f"perfledger: {message}", file=sys.stderr)
    sys.exit(code)


def run_step(cmd, timeout, capture=False):
    """Runs `cmd` in its own process group, killing the whole group (the
    dist backend forks workers) if it overruns."""
    proc = subprocess.Popen(
        [str(c) for c in cmd], cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{Path(cmd[0]).name} {cmd[1]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"{' '.join(str(c) for c in cmd[:2])} exited with "
             f"{proc.returncode}")
    return out


def build():
    for needed in ("src/CMakeLists.txt", "bench/workloads/programs.cc"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found: perfledger/ must sit in a DIABLO "
                 f"checkout", code=2)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release", *generator], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", BUILD, "--parallel", jobs], BUILD_TIMEOUT_S)


def reference_dir():
    """Reference outputs live under the digest of the binary that made
    them; outputs of earlier builds are dropped."""
    digest = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    parent = BUILD / "reference"
    parent.mkdir(exist_ok=True)
    for old in parent.iterdir():
        if old.name != digest:
            shutil.rmtree(old, ignore_errors=True)
    path = parent / digest
    path.mkdir(exist_ok=True)
    return path


def check(meta, result, trace):
    """Checks the binary's output against BENCHMARK.json and spec.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
    if {m["name"]: (m["unit"], m["better"]) for m in spec[key]} != listed:
        fail(f"spec.json and BENCHMARK.json disagree on the {key} metrics")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != {name: unit for name, (unit, _) in listed.items()}:
        fail(f"reported metrics or units differ from BENCHMARK.json {key}")
    workload = spec["workloads"][meta["workload"]]
    for field in ("partitions", "threads", "dist_workers"):
        if workload[field] != meta[field]:
            fail(f"spec.json {meta['workload']}.{field} disagrees with "
                 f"perfledger.cc")
    programs = [[p["program"], p["scale"]] for p in workload["programs"]]
    if programs != meta["programs"]:
        fail(f"spec.json {meta['workload']}.programs disagree with "
             f"perfledger.cc")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write result + metadata here")
    args = parser.parse_args()

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    refs = reference_dir()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--reference-dir", refs]
    run_step([BINARY, "reference", *common], deadline - time.monotonic())
    measure = [BINARY, "measure", *common, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.out:
        measure += ["--record", Path(args.out).resolve()]
    lines = run_step(measure, deadline - time.monotonic(),
                     capture=True).splitlines()
    if len(lines) < 2 or not lines[0].startswith("meta "):
        fail("the measured process printed no metadata or no result")
    meta = json.loads(lines[0][len("meta "):])
    result = json.loads(lines[-1])
    check(meta, result, args.trace)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
