"""Traced run of one `copar sort` or `copar colex` call, in-process.

    python3 perfbench/trace.py sort|colex INPUT OUTPUT

Wraps the function of each layer in a span where its callers look it up,
then runs the CLI itself, `copar.cli.main([command, INPUT, "-o", OUTPUT])`,
so the traced run follows the CLI's own path. Prints one JSON line with the
spans and counts. Calls made inside another layer (the prunings inside
`colex_order`, `validate` inside `require_clean`) get spans of their own,
nested under the caller's.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Spans kept in memory: name, start, end and the id of the parent span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._deferred: list[tuple] = []
        self.parsed = None  # the automaton the traced run parsed

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def finish(self) -> None:
        """Record the counts of every wrapped call made so far."""
        for count, result, args in self._deferred:
            count(self, result, *args)
        self._deferred.clear()

    def wrap(self, owners: list, attr: str, name, count=None) -> None:
        """Replace `attr` in every owner (module or class) with a spanned call.

        `name` is a span name or a function of the call's arguments giving
        one; `count(tracer, result, *args)` records counts at the boundary,
        run by finish() so that counting adds nothing to the spans.
        A missing attribute raises, so a renamed layer stops the benchmark.
        """
        for owner in owners:
            setattr(owner, attr, self._traced(getattr(owner, attr), name, count))

    def _traced(self, fn, name, count):
        def traced(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name(*args)):
                result = fn(*args, **kwargs)
            if count is not None:
                self._deferred.append((count, result, args))
            return result

        return traced


def _count_parse(tr: Tracer, a, *_args) -> None:
    tr.add("automaton.n", a.n)
    tr.add("automaton.m", a.m)
    tr.parsed = a


def _count_refine(tr: Tracer, _result, ref, *_args) -> None:
    tr.add("kernels.rounds", ref.rounds)
    tr.counts["kernels.max_splitter_count"] = max(
        tr.counts.get("kernels.max_splitter_count", 0), ref.max_splitter_count)


def _count_pruning(tr: Tracer, p, _a, direction) -> None:
    tr.add(f"prune.{direction}_rounds", p.rounds)
    tr.add(f"prune.{direction}_deleted", len(p.deleted_edges()))


def instrument(tr: Tracer) -> None:
    """Wrap each layer's function in the modules whose code calls it on the
    `sort` and `colex` paths (cli, refine, prune, colex)."""
    from copar import cli, colex, partition, prune, refine

    tr.wrap([cli], "_read", "cli.read_s")
    tr.wrap([cli], "_write", "cli.write_s")
    tr.wrap([cli], "parse_automaton", "automaton.parse_s", _count_parse)
    tr.wrap([refine], "validate", "automaton.validate_s")
    tr.wrap([refine, prune], "init_refinement", "partition.init_s")
    tr.wrap([refine, prune], "run_refinement", "kernels.refine_s", _count_refine)
    tr.wrap([partition.Refinement], "snapshot_partition", "partition.snapshot_s",
            lambda t, p, *_: t.add("kernels.parts", p.k))
    tr.wrap([refine], "quotient", "automaton.quotient_s",
            lambda t, q, *_: t.add("automaton.quotient_m", q.m))
    tr.wrap([refine], "_identity_wheeler_check", "refine.wheeler_check_s")
    tr.wrap([cli], "serialize_ordered_partition", "automaton.serialize_s")
    tr.wrap([colex], "refine_with_pruning", lambda _a, d: f"prune.{d}_s", _count_pruning)
    tr.wrap([colex], "build_merged_graph", "colex.merged_s")
    tr.wrap([colex], "suffix_doubling_ranks", "colex.doubling_s",
            lambda t, table, *_: t.add("colex.doubling_rounds", table.rounds))
    tr.wrap([colex], "min_chain_partition", "colex.chains_s",
            lambda t, chains, *_: t.add("colex.width", len(chains)))
    tr.wrap([cli], "serialize_colex", "colex.serialize_s")


def main() -> None:
    command, src, dst = sys.argv[1:]
    from copar import cli
    from copar.automaton import Automaton

    tr = Tracer()
    instrument(tr)
    with tr.span("trace.total_s"):
        status = cli.main([command, src, "-o", dst])
    if status != 0:
        raise SystemExit(f"copar {command} exited with {status}")
    tr.finish()
    # in_labels caches its result inside Refinement.__init__, so it is timed
    # apart from the pipeline, on a fresh copy of the parsed automaton
    a = tr.parsed
    fresh = Automaton(a.n, a.sigma, a.source, (a.esrc, a.edst, a.elab))
    with tr.span("automaton.in_labels_s"):
        fresh.in_labels()
    print(json.dumps({"spans": tr.spans, "counts": tr.counts}))


if __name__ == "__main__":
    main()
