#!/usr/bin/env python3
"""Checks that diablo_run and diablo_lint reject bad numeric flags.

Each size or count flag must be an integer in its documented range:
--partitions, --workers, --tile-rows, --tile-cols and --max-attempts at
least 1, and --broadcast-mb at least 0 and small enough that N MB fits
in int64. Each fault rate (--fail-rate, --straggler-rate, --corrupt-rate,
--chaos-kill-rate) must be a finite probability in [0, 1]. diablo_lint's
--max-domain must be an integer of at least 2 and --bytes-per-slot one of
at least 1, both fitting in int. A --scalar value or CSV cell shaped like a
number must fit an int64 or a finite double, and the colon-separated
--kill, --lose, --chaos-kill and --dist-stall fields must be ints in
[0, INT_MAX]. A bad value must fail with exit code 1,
one `<tool>: <flag> ...` line on stderr and nothing on stdout. The same
program with in-range values must still run (or lint).

Usage:
  check_numeric_flags.py <diablo_run> <diablo_lint> <program>
                         [program args...]

Prints "OK: ..." and exits 0 on success, 1 on any check failure.
"""

import os
import subprocess
import sys
import tempfile

BAD = [
    ("--partitions", "0"),
    ("--partitions", "-3"),
    ("--partitions", "xyz"),
    ("--partitions", "4x"),
    ("--partitions", "99999999999"),
    ("--workers", "0"),
    ("--workers", "xyz"),
    ("--workers", "-1"),
    ("--broadcast-mb", "-5"),
    ("--broadcast-mb", "abc"),
    ("--broadcast-mb", "9223372036854775807"),
    ("--broadcast-mb", "99999999999999999999"),
    ("--tile-rows", "0"),
    ("--tile-rows", "-8"),
    ("--tile-rows", ""),
    ("--tile-cols", "0"),
    ("--tile-cols", "1.5"),
    ("--max-attempts", "0"),
    ("--max-attempts", "-3"),
    ("--fail-rate", "nan"),
    ("--fail-rate", "-1"),
    ("--fail-rate", "2"),
    ("--fail-rate", "inf"),
    ("--straggler-rate", "5"),
    ("--corrupt-rate", "1.5"),
    ("--chaos-kill-rate", "-0.5"),
    ("--scalar", "n=99999999999999999999"),
    ("--scalar", "n=-99999999999999999999"),
    ("--scalar", "x=1e999"),
    ("--kill", "4294967296:0"),
    ("--kill", "-1:0"),
    ("--kill", "0:x"),
    ("--lose", "0:99999999999:0"),
    ("--chaos-kill", "4294967296:0"),
    ("--dist-stall", "0:4294967296"),
]

LINT_BAD = [
    ("--max-domain", "5abc"),
    ("--max-domain", "4294967298"),
    ("--max-domain", "1"),
    ("--max-domain", ""),
    ("--bytes-per-slot", "0"),
    ("--bytes-per-slot", "16x"),
    ("--bytes-per-slot", "-4"),
]

LINT_GOOD = [
    ("--max-domain", "2"),
    ("--max-domain", "4"),
    ("--bytes-per-slot", "1"),
    ("--bytes-per-slot", "24"),
]

GOOD = [
    ("--partitions", "3"),
    ("--workers", "1"),
    ("--broadcast-mb", "0"),
    ("--broadcast-mb", "16"),
    ("--tile-rows", "4"),
    ("--tile-cols", "4"),
    ("--max-attempts", "1"),
    ("--fail-rate", "0"),
    ("--fail-rate", "0.1"),
    ("--straggler-rate", "1"),
    ("--corrupt-rate", "0.002"),
    ("--scalar", "n=9223372036854775807"),
    ("--scalar", "n=-9223372036854775808"),
    ("--scalar", "x=1e-999"),
    ("--kill", "0:0"),
]


def check(tool, base, bad, good, failures):
    for flag, value in bad:
        proc = subprocess.run(base + [flag, value], capture_output=True,
                              text=True)
        err = proc.stderr.strip()
        if (proc.returncode != 1 or proc.stdout != "" or
                not err.startswith(f"{tool}: {flag} expects")):
            failures.append(f"{tool} {flag} {value!r}: exit "
                            f"{proc.returncode}, stdout {proc.stdout!r}, "
                            f"stderr {err!r}")
    for flag, value in good:
        proc = subprocess.run(base + [flag, value], capture_output=True,
                              text=True)
        if proc.returncode != 0:
            failures.append(f"{tool} {flag} {value!r} (valid): exit "
                            f"{proc.returncode}, stderr "
                            f"{proc.stderr.strip()!r}")


def check_csv_cell(run, program, failures):
    """An out-of-range CSV cell dies naming its file and line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.csv")
        with open(path, "w") as f:
            f.write("0,1\n1,99999999999999999999\n")
        proc = subprocess.run([run, program, "--vector", f"V={path}"],
                              capture_output=True, text=True)
        err = proc.stderr.strip()
        if (proc.returncode != 1 or proc.stdout != "" or "\n" in err or
                not err.startswith(f"diablo_run: {path}:2: expects")):
            failures.append(f"diablo_run bad CSV cell: exit "
                            f"{proc.returncode}, stdout {proc.stdout!r}, "
                            f"stderr {err!r}")


def main():
    if len(sys.argv) < 4:
        print(__doc__, file=sys.stderr)
        return 1
    run, lint, program = sys.argv[1:4]
    failures = []
    check("diablo_run", [run, program] + sys.argv[4:], BAD, GOOD, failures)
    check("diablo_lint", [lint, program], LINT_BAD, LINT_GOOD, failures)
    check_csv_cell(run, program, failures)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if failures:
        return 1
    print(f"OK: {len(BAD) + len(LINT_BAD) + 1} bad numeric flags rejected, "
          f"{len(GOOD) + len(LINT_GOOD)} valid ones accepted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
