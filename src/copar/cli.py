"""Command-line interface.

Subcommands: sort (Wheeler preorder of an NFA), prune (inf/sup pruning of a
DFA), colex (smallest-width co-lex order of a DFA), check (oracle checks of
an order or partition against an automaton), gen (seeded inputs), bench
(engine scaling). Exit codes: 0 success, 1 validation or contract error,
out of memory, engine invariant breach or kernel compile failure, 2 check
failed, 3 parse or I/O error. Exits 1 and 3 explain themselves on stderr,
never in a traceback.
"""

from __future__ import annotations

import argparse
import sys

from copar._kernels import KernelCompileError
from copar.automaton import (
    ParseError,
    ValidationError,
    make_input_consistent,
    parse_automaton,
    parse_order,
    parse_ordered_partition,
    serialize_automaton,
    serialize_ordered_partition,
)
from copar.colex import colex_order, serialize_colex
from copar.prune import refine_with_pruning, serialize_pruned
from copar.refine import refine_all, wheeler_preorder

DEFAULT_SEED = 1729


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_sort(args: argparse.Namespace) -> int:
    a = parse_automaton(_read(args.input))
    res = wheeler_preorder(a)
    flag = "true" if res.quasi_wheeler else "false"
    _write(args.output, serialize_ordered_partition(res.partition) + f"QUASI_WHEELER: {flag}\n")
    if args.emit_quotient:
        _write(args.emit_quotient, serialize_automaton(res.quotient, comment="forward-stable quotient"))
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    a = parse_automaton(_read(args.input))
    _write(args.output, serialize_pruned(refine_with_pruning(a, args.mode)))
    return 0


def _cmd_colex(args: argparse.Namespace) -> int:
    a = parse_automaton(_read(args.input))
    head = ""
    if args.make_ic:
        a, mapping = make_input_consistent(a)
        head = "".join(f"# ic {i} <- {orig}\n" for i, orig in enumerate(mapping))
    _write(args.output, head + serialize_colex(colex_order(a)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from copar.oracle import check_wheeler_order

    a = parse_automaton(_read(args.input))
    if args.order:
        order = parse_order(_read(args.order))
        res = check_wheeler_order(a, order)
        if res:
            print("PASS: order satisfies the Wheeler axioms")
            return 0
        print(f"FAIL: {res.kind} {res.witness}")
        return 2
    text = _read(args.partition)
    lines = [ln for ln in text.splitlines() if not ln.startswith("QUASI_WHEELER:")]
    claimed = parse_ordered_partition("\n".join(lines) + "\n")
    if claimed == refine_all(a):
        print("PASS: partition matches the refinement output")
        return 0
    print("FAIL: partition differs from the refinement output")
    return 2


def _cmd_gen(args: argparse.Namespace) -> int:
    from copar.generators import gen_random_dfa, gen_wheeler_nfa

    if args.wheeler:
        m = args.m if args.m is not None else min(2 * (args.n - 1), (args.sigma + 1) * (args.n - 1))
        a = gen_wheeler_nfa(args.n, m, args.sigma, args.seed)
    else:
        a = gen_random_dfa(args.n, args.sigma, args.seed, m=args.m)
    _write(args.output, serialize_automaton(a, comment=f"seed {args.seed}"))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from copar.bench import OPS, bench_scaling, rows_to_csv

    sizes = [int(s) for s in args.sizes.split(",") if s]
    ops = tuple(s for s in args.ops.split(",") if s) if args.ops is not None else OPS
    _write(args.output, rows_to_csv(bench_scaling(sizes, args.trials, ops, args.seed)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="copar", description=__doc__.strip().splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def io(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="automaton file in the NFA format, or - for stdin")
        p.add_argument("-o", "--output", default=None, help="output file (default: stdout)")

    p = sub.add_parser("sort", help="ordered partition and quasi-Wheeler flag of an NFA")
    io(p)
    p.add_argument("--emit-quotient", metavar="PATH", help="also write the quotient automaton")
    p.set_defaults(func=_cmd_sort)

    p = sub.add_parser("prune", help="kept-in-edge automaton of a DFA, inf or sup side")
    io(p)
    p.add_argument("--mode", choices=("inf", "sup"), required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("colex", help="co-lex rank intervals and minimum chain partition of a DFA")
    io(p)
    p.add_argument("--make-ic", action="store_true", help="split states by in-letter first")
    p.set_defaults(func=_cmd_colex)

    p = sub.add_parser("check", help="check an order or a partition against an automaton")
    io(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--order", metavar="FILE", help="total order in the ORDER format")
    g.add_argument("--partition", metavar="FILE", help="ordered partition in the ORDPART format")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="generate a seeded input automaton")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--wheeler", action="store_true", help="NFA that is Wheeler under the identity order")
    kind.add_argument("--dfa", action="store_true", help="random input-consistent DFA")
    p.add_argument("-n", type=int, required=True, help="number of states")
    p.add_argument("-m", type=int, default=None, help="number of edges")
    p.add_argument("--sigma", type=int, default=2, help="alphabet size (default 2)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="engine scaling benchmark, CSV output")
    p.add_argument("--sizes", default="1000,2000,4000", help="comma-separated state counts")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--ops", default=None, help="comma-separated from sort,prune (default: all)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_bench)
    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        for d in exc.diagnostics:
            print(f"validation: {d}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except KernelCompileError as exc:
        # numba's messages span many lines: the failing step, the code, the frames
        print(f"error: kernel compilation failed: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
