#!/usr/bin/env python3
"""Checks that diablo_run rejects out-of-range or malformed numeric flags.

Each size or count flag must be an integer in its documented range:
--partitions, --workers, --tile-rows, --tile-cols and --max-attempts at
least 1, and --broadcast-mb at least 0 and small enough that N MB fits
in int64. Each fault rate (--fail-rate, --straggler-rate, --corrupt-rate,
--chaos-kill-rate) must be a finite probability in [0, 1]. A bad
value must fail with exit code 1, one `diablo_run: <flag> ...` line on
stderr and nothing on stdout. The same program with in-range values must
still run.

Usage:
  check_numeric_flags.py <diablo_run> <program> [program args...]

Prints "OK: ..." and exits 0 on success, 1 on any check failure.
"""

import subprocess
import sys

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
]


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 1
    base = sys.argv[1:]
    failures = []
    for flag, value in BAD:
        proc = subprocess.run(base + [flag, value], capture_output=True,
                              text=True)
        err = proc.stderr.strip()
        if (proc.returncode != 1 or proc.stdout != "" or
                not err.startswith(f"diablo_run: {flag} expects")):
            failures.append(f"{flag} {value!r}: exit {proc.returncode}, "
                            f"stdout {proc.stdout!r}, stderr {err!r}")
    for flag, value in GOOD:
        proc = subprocess.run(base + [flag, value], capture_output=True,
                              text=True)
        if proc.returncode != 0:
            failures.append(f"{flag} {value!r} (valid): exit "
                            f"{proc.returncode}, stderr "
                            f"{proc.stderr.strip()!r}")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if failures:
        return 1
    print(f"OK: {len(BAD)} bad numeric flags rejected, "
          f"{len(GOOD)} valid ones accepted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
