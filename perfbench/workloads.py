"""Benchmark workloads: seeded input automata for the copar CLI.

Run as a script, it generates one workload's input from a seed and writes
it in the NFA text format, --repeat times and then again until --seconds
have passed (at most MAX_REPEATS times in all). A short host-speed probe
runs before the first set-up and after each one. It prints, as one JSON
line, the time of each set-up, its ratio to the mean of the probes around
it, and the input's size:

    python3 perfbench/workloads.py WORKLOAD SEED OUT [--smoke] [--repeat K] [--seconds S]

Importing this module loads no part of copar, so run.py can read the
workload table without growing its own memory image.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from dataclasses import dataclass


MAX_REPEATS = 30
# steps of the host-speed probe run between set-ups
SETUP_PROBE_STEPS = 50_000


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # copar CLI subcommand
    n: int  # states at full size
    smoke_n: int  # states in the smoke mode
    quasi_wheeler: bool  # every seed must give QUASI_WHEELER: true
    singletons: bool  # every part of the result is a single state


# Sizes are scaled down from the 3-6 s CLI runs of the first probes so that
# one measured run holds ten or more CLI children; see perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("wheeler-sort", "sort", 50_000, 300, True, False),
        Workload("nfa-sort", "sort", 12_000, 300, False, False),
        Workload("dfa-colex", "colex", 8_000, 300, False, False),
        Workload("sturmian-sort", "sort", 12_000, 300, True, True),
    )
}


def standard_word(length: int, digits) -> list[int]:
    """Length-`length` prefix of the standard Sturmian word over {0, 1}
    with directive digits `digits` (an iterator of positive integers).

    Standard words follow s_-1 = 1, s_0 = 0, s_k = s_(k-1)^d_k s_(k-2); all
    ones gives the Fibonacci word.
    """
    prev, cur = [1], [0]
    while len(cur) < length:
        prev, cur = cur, cur * next(digits) + prev
    return cur[:length]


def sturmian_prefix(length: int, seed: int) -> list[int]:
    """Standard Sturmian prefix whose directive digits the seed draws from 1..3."""
    rng = random.Random(seed)
    return standard_word(length, iter(lambda: rng.randint(1, 3), None))


def probe(steps: int) -> float:
    """Host-speed probe: seconds taken by a fixed loop over numpy scalars,
    the kind of code the pure-Python kernels run. Shares no code with copar."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.arange(4096, dtype=np.int64)
    b = np.zeros(4096, dtype=np.int64)
    x = 0
    for i in range(steps):
        j = int(a[i & 4095])
        x += (j * 3) & 255
        if i & 7 == 0:
            b[(i >> 3) & 4095] = x & 1023
            sorted([j, x, i])
    return time.perf_counter() - t0


def generate(name: str, n: int, seed: int):
    """The workload's input automaton with n states, drawn from seed."""
    from copar.automaton import path_dfa
    from copar.generators import gen_random_dfa, gen_random_nfa, gen_wheeler_nfa

    if name == "wheeler-sort":
        return gen_wheeler_nfa(n, 3 * (n - 1), 3, seed)
    if name == "nfa-sort":
        return gen_random_nfa(n, 3, seed, m=3 * (n - 1))
    if name == "dfa-colex":
        return gen_random_dfa(n, 4, seed, m=2 * n)
    if name == "sturmian-sort":
        return path_dfa(sturmian_prefix(n - 1, seed))
    raise ValueError(f"unknown workload {name!r}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("out", help="path of the input file to write")
    ap.add_argument("--smoke", action="store_true", help="tiny input")
    ap.add_argument("--repeat", type=int, default=1, help="set-ups to time at least")
    ap.add_argument("--seconds", type=float, default=0.0, help="time to spend on set-ups at least")
    args = ap.parse_args()
    from copar.automaton import serialize_automaton
    import copar.generators  # noqa: F401  (imported here, so no set-up pays for it)

    w = WORKLOADS[args.workload]
    n = w.smoke_n if args.smoke else w.n
    times: list[float] = []
    ratios: list[float] = []
    before = probe(SETUP_PROBE_STEPS)
    while len(times) < args.repeat or (sum(times) < args.seconds and len(times) < MAX_REPEATS):
        t0 = time.perf_counter()
        a = generate(w.name, n, args.seed)
        text = serialize_automaton(a, comment=f"{w.name} seed {args.seed}")
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        times.append(time.perf_counter() - t0)
        after = probe(SETUP_PROBE_STEPS)
        ratios.append(2 * times[-1] / (before + after))
        before = after
    print(json.dumps({"setup_s": times, "setup_rel": ratios, "n": a.n, "m": a.m,
                      "source": a.source, "bytes": len(text.encode())}))


if __name__ == "__main__":
    main()
