"""Scaling benchmarks for the refinement engine.

Times cover init_refinement plus run_refinement only; generating the input
automata is excluded. One warm-up run precedes the timed trials so compiled
kernels are already built.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from copar.generators import gen_random_dfa, gen_wheeler_nfa
from copar.partition import init_refinement, run_refinement

OPS = ("sort", "prune")


@dataclass(frozen=True)
class BenchRow:
    n: int
    m: int
    op: str
    median_ms: float
    max_splitters: int


def _input_for(op: str, n: int, seed: int):
    if op == "sort":
        return gen_wheeler_nfa(n, 3 * (n - 1), 3, seed), "ascending", False
    if op == "prune":
        return gen_random_dfa(n, 4, seed, m=2 * n), "ascending", True
    raise ValueError(f"unknown op {op!r}: choose from {OPS}")


def bench_scaling(
    sizes: list[int], trials: int = 3, ops: tuple[str, ...] = OPS, seed: int = 1729
) -> list[BenchRow]:
    """Median engine time per (size, op), plus the splitter-count bound hit."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for op in ops:
        for n in sizes:
            a, order, prune = _input_for(op, n, seed)
            ref = init_refinement(a, order, prune=prune)
            run_refinement(ref)  # warm-up
            times = []
            for _ in range(trials):
                t0 = time.perf_counter()
                ref = init_refinement(a, order, prune=prune)
                run_refinement(ref)
                times.append((time.perf_counter() - t0) * 1000.0)
            rows.append(
                BenchRow(
                    n=n,
                    m=a.m,
                    op=op,
                    median_ms=statistics.median(times),
                    max_splitters=ref.max_splitter_count,
                )
            )
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    lines = ["n,m,op,median_ms,max_splitters"]
    lines.extend(
        f"{r.n},{r.m},{r.op},{r.median_ms:.3f},{r.max_splitters}" for r in rows
    )
    return "\n".join(lines) + "\n"
