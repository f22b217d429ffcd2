"""Count the kernel lines that one engine refinement runs per round.

    python scripts/kernel_lines.py INPUT [--order ascending|descending] [--prune]

Parses the automaton in INPUT (the NFA text format), builds the engine on
it as `copar sort` does (ascending letter order, no pruning, unless told
otherwise) and runs copar.partition.run_refinement under a sys.settrace
line counter that counts only lines of copar/_kernels.py. Prints the
rounds, the kernel lines, the lines per round and each kernel function's
lines per round as one JSON object.

The count is deterministic: host load does not move it, so a kernel edit
can quote it next to its timings. It needs the pure-Python backend; with
numba installed the kernels are compiled and no line of them is traced.
Every line of the round counts once each time it runs, the heads of
loops once per pass, as CPython reports line events.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from copar import _kernels as K
from copar.automaton import parse_automaton
from copar.partition import init_refinement, run_refinement


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("input", help="automaton in the NFA text format")
    ap.add_argument("--order", choices=("ascending", "descending"), default="ascending")
    ap.add_argument("--prune", action="store_true", help="run a pruning refinement (DFAs)")
    args = ap.parse_args()
    if K.HAVE_NUMBA:
        ap.error("numba compiles the kernels, so no kernel line can be traced")
    with open(args.input, encoding="utf-8") as fh:
        a = parse_automaton(fh.read())
    ref = init_refinement(a, args.order, prune=args.prune)

    kernel_file = K.run_full.__code__.co_filename
    lines: Counter[str] = Counter()

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_name] += 1
        return local

    def calls(frame, event, arg):
        # trace line events only inside the kernels' frames
        return local if frame.f_code.co_filename == kernel_file else None

    sys.settrace(calls)
    try:
        run_refinement(ref)
    finally:
        sys.settrace(None)
    rounds, total = ref.rounds, sum(lines.values())
    per_round = {f: round(k / rounds, 1) for f, k in sorted(lines.items())} if rounds else {}
    print(json.dumps({"n": a.n, "m": a.m, "rounds": rounds, "kernel_lines": total,
                      "lines_per_round": round(total / rounds, 1) if rounds else None,
                      "by_function": per_round}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
