"""Run a command and fail when its peak resident set exceeds a bound.

    python scripts/peak_rss.py --max-mb MB -- COMMAND [ARG ...]

Prints the child's wall time and peak RSS (ru_maxrss of the reaped child,
in MiB) and exits 1 when the child fails or its peak exceeds MB.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-mb", type=float, required=True)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        ap.error("no command given")
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss / 1024  # KiB on Linux
    print(f"exit {code}, wall {wall:.2f} s, peak RSS {peak:.1f} MiB (bound {args.max_mb:g})")
    if code:
        return 1
    return 0 if peak <= args.max_mb else 1


if __name__ == "__main__":
    sys.exit(main())
