"""Full refinement runs: coarsest forward-stable partition, Wheeler preorder.

refine_all always runs the partition refinement engine. wheeler_preorder,
the path of `copar sort`, takes a numpy path instead on the pure-Python
backend when run_refinement is not wrapped (a tracer must see the engine
run); numba's break-even is unmeasured, so there the engine runs.
- A tree (a path or a trie: every state but the source has one in-edge)
  is ranked by prefix doubling. Two states of a tree are
  backward-bisimilar exactly when they read the same string, so the
  classes of equal reaching strings are the coarsest forward-stable
  partition; their quotient is a deterministic trie, so the flag is true,
  and then the engine's part order is the co-lex one.
- Any other input takes ordered Moore rounds (_moore_partition), which
  hand it to the engine unless they reach the coarsest forward-stable
  partition in a Wheeler order: the quotient's only one, so the engine's.
Both paths give the engine's bytes, and the result's rounds and
max_splitter_count read 0 on them. The engine, the stepping API and
refine_all (which criterion 7 and `copar check --partition` run) do not
change.

The engine, copar.partition, loads only when it runs: init_refinement and
run_refinement are bound here on first use (PEP 562), by the engine path
or by an attribute lookup such as a tracer's, whose wrappers stay bound.
So a sort that takes a numpy path loads no engine, and run_refinement is
wrapped exactly when it is bound here to anything but
partition.run_refinement. copar._kernels loads with this module, since
HAVE_NUMBA picks the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from copar import _bind, _lazy_getattr, _wrapped
from copar._kernels import HAVE_NUMBA
from copar.automaton import (
    Automaton,
    Diagnostic,
    OrderedPartition,
    ValidationError,
    _dense_rank,
    doubling_ranks,
    quotient,
    sorted_runs,
    validate,
)

if TYPE_CHECKING:
    from copar.partition import init_refinement, run_refinement

_ENGINE = dict.fromkeys(("init_refinement", "run_refinement"), "partition")
__getattr__ = _lazy_getattr(globals(), _ENGINE)

# Moore rounds, the last of which finds no split, before the engine takes
# over. Each costs O(m + n log n) however little it splits: about 0.05 s at
# n = 10^6 (m = 3 * 10^6), where the engine's init, run and snapshot take
# 0.33-0.40 s, so eight rounds cost about what the engine saves. Wheeler
# NFAs from gen_wheeler_nfa settle in 2 to 4 rounds, 3 at n = 5 * 10^4 and
# at n = 10^6.
MAX_MOORE_ROUNDS = 8


@dataclass
class WheelerPreorder:
    """Result of sorting an NFA: the preorder, its quotient and the Wheeler flag.

    The quotient's state order (identity) is the candidate Wheeler order;
    quasi_wheeler reports whether it satisfies the Wheeler axioms, with the
    first violation when it does not. rounds and max_splitter_count are the
    engine's; both are 0 when prefix doubling or Moore rounds sorted the
    input and no engine ran.
    """

    partition: OrderedPartition
    quotient: Automaton
    quasi_wheeler: bool
    violation: tuple | None
    rounds: int
    max_splitter_count: int


def require_clean(a: Automaton) -> None:
    """Raise ValidationError unless validate(a) is silent.

    A clean automaton has n <= m + 1 and sigma <= m, since every state but
    the source needs an in-edge and every letter labels an edge. A header
    beyond either is refused in O(m), before validate allocates per state
    or per letter, naming the smallest state or letter that is missed.
    """
    if a.n > a.m + 1:
        v = _first_missing(np.append(a.edst, a.source), a.m + 2)
        message = f"state is unreachable from the source; {a.m} edges cannot reach {a.n - 1} states"
        raise ValidationError([Diagnostic("unreachable", v, message)])
    if a.sigma > a.m:
        c = _first_missing(a.elab, a.m + 1)
        message = f"letter labels no edge; {a.m} edges cannot use {a.sigma} letters"
        raise ValidationError([Diagnostic("unused-letter", c, message)])
    diagnostics = validate(a)
    if diagnostics:
        raise ValidationError(diagnostics)


def require_dfa(a: Automaton) -> None:
    """Raise ValidationError for an unclean automaton and ValueError for a
    nondeterministic one."""
    require_clean(a)
    if not a.is_deterministic():
        raise ValueError("DFA required: pruning is defined for deterministic automata only")


def _first_missing(values: np.ndarray, k: int) -> int:
    """Smallest of 0..k-1 not among values; exists when len(values) < k."""
    seen = np.zeros(k, dtype=bool)
    seen[values[values < k]] = True
    return int(np.flatnonzero(~seen)[0])


def refine_all(a: Automaton) -> OrderedPartition:
    """Coarsest forward-stable refinement of the in-letter partition, ordered.

    Deterministic: identical inputs give identical outputs. The input must
    pass validate(). The initial blocks put the source first, then the
    states of each letter in ascending order.
    """
    require_clean(a)
    _bind(globals(), _ENGINE, "partition")
    ref = init_refinement(a)
    run_refinement(ref)
    return ref.snapshot_partition()


def wheeler_preorder(a: Automaton) -> WheelerPreorder:
    """Sort an NFA: Wheeler preorder, quotient automaton and quasi-Wheeler flag.

    Trees take _tree_partition and other inputs _moore_partition where the
    module docstring says. A clean input has no edge into the source and an
    in-edge into every other state, so a.m == a.n - 1 is the whole test for
    a tree.
    """
    require_clean(a)
    p = None
    if not HAVE_NUMBA and not _wrapped(globals(), _ENGINE, "run_refinement"):
        p = _tree_partition(a) if a.m == a.n - 1 else _moore_partition(a)
    rounds = max_splitter_count = 0
    if p is None:
        _bind(globals(), _ENGINE, "partition")
        ref = init_refinement(a, "ascending")
        run_refinement(ref)
        p = ref.snapshot_partition()
        rounds, max_splitter_count = ref.rounds, ref.max_splitter_count
        del ref  # free the engine's arrays before the quotient sorts the edges
    q = quotient(a, p)
    ok, violation = _identity_wheeler_check(q)
    return WheelerPreorder(
        partition=p,
        quotient=q,
        quasi_wheeler=ok,
        violation=violation,
        rounds=rounds,
        max_splitter_count=max_splitter_count,
    )


def _tree_partition(a: Automaton) -> OrderedPartition:
    """The states of the tree a grouped by reaching string, in co-lex order.

    Each state walks back to its parent and the source loops on letter -1,
    so doubling_ranks compares the reaching strings read backward, padded
    with a letter below every other: O(n log^2 n), at most ceil(log2 n)
    rounds.
    """
    phi = np.empty(a.n, dtype=np.int64)
    phi[a.edst] = a.esrc
    phi[a.source] = a.source
    return _by_rank(doubling_ranks(a.in_labels(), phi)[0])


def _by_rank(rank: np.ndarray) -> OrderedPartition:
    """The partition into classes of the dense rank, in rank order."""
    starts = np.concatenate(([0], np.cumsum(np.bincount(rank))))
    return OrderedPartition.from_arrays(np.argsort(rank, kind="stable"), starts)


def _moore_partition(a: Automaton) -> OrderedPartition | None:
    """The coarsest forward-stable partition of the clean non-tree a in its
    Wheeler order, by ordered Moore rounds; None where the engine must run.

    Round 0 is the engine's initial partition: rank = in-letter + 1, the
    source alone in rank 0, k = sigma + 1 classes. Each later round
    dense-ranks (rank, lo, hi), where lo and hi are a state's least and
    greatest in-neighbour rank, so classes keep their order and split in
    the order of their in-neighbours; the rounds stop once the class count
    stays the same. Every split they make, the engine's also makes, so each
    round is coarser than or equal to the coarsest forward-stable
    partition, and a forward-stable fixpoint is that partition.

    None (fall back to the engine) when:
    - after a round, two consecutive new classes of one letter have hi of
      the earlier above lo of the later: each round's order is refined by
      the next, so the final order could not be Wheeler;
    - MAX_MOORE_ROUNDS rounds do not settle;
    - the fixpoint is not forward-stable (_forward_stable).

    A fixpoint that passes is the engine's output. Its part sets are the
    engine's, and the last round's check is the target-order axiom on its
    quotient, so its order is a Wheeler order of that quotient. The engine
    orders the parts of a quasi-Wheeler input in a Wheeler order too (the
    paper's result), and the quotient has at most one. Take two Wheeler
    orders and let R hold the same-letter pairs of classes that they rank
    differently. The in-neighbours of an R-related pair are themselves
    R-related or equal, since each order's axioms order them as it orders
    the pair. So the classes of R's equivalence closure form a stable
    partition of the quotient, which is coarser than the discrete one
    unless R is empty; but the quotient of the coarsest forward-stable
    partition has no stable partition other than the discrete one.
    """
    n, src, dst = a.n, a.esrc, a.edst
    lam = a.in_labels()
    rank, k = lam + 1, a.sigma + 1
    for _ in range(MAX_MOORE_ROUNDS):
        src_rank = rank[src]
        lo = np.full(n, k, dtype=np.int64)
        np.minimum.at(lo, dst, src_rank)
        hi = np.zeros(n, dtype=np.int64)
        np.maximum.at(hi, dst, src_rank)
        # (rank, lo, hi) packs below base**3; where that passes int64,
        # (rank, lo) is ranked first
        base = k + 1
        key = rank * base
        key += lo
        if base**3 >= 2**63:
            key, _ = _dense_rank(key)
        key *= base
        key += hi
        new_rank, new_k = _dense_rank(key, base**3)
        del key
        rep = np.empty(new_k, dtype=np.int64)
        rep[new_rank] = np.arange(n)
        letter = lam[rep]
        if np.any((letter[1:] == letter[:-1]) & (hi[rep[:-1]] > lo[rep[1:]])):
            return None
        if new_k == k:
            return _by_rank(rank) if _forward_stable(a, rank, k, src_rank) else None
        rank, k = new_rank, new_k
    return None


def _forward_stable(a: Automaton, rank: np.ndarray, k: int, src_rank: np.ndarray) -> bool:
    """Whether the partition into classes of rank (0..k-1) is forward-stable:
    every class P has an in-edge from class B into all of its states or
    into none. The distinct (source class, target state) pairs number the
    sum of |P| over the distinct (source class, target class P) pairs
    exactly then. Each count sorts one packed int64 key in place; the
    first is built on src_rank, rank[a.esrc], which it overwrites.
    """
    key = src_rank
    key *= a.n
    key += a.edst
    key.sort()
    pairs = 1 + int(np.count_nonzero(key[1:] != key[:-1]))
    np.take(rank, a.esrc, out=key)
    key *= k
    key += rank[a.edst]
    key.sort()
    new = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    sizes = np.bincount(rank)
    return pairs == int(sizes[key[new] % k].sum())


def _identity_wheeler_check(a: Automaton) -> tuple[bool, tuple | None]:
    """Check the Wheeler axioms for the identity order of a, vectorized.

    Returns (True, None) or (False, first violation). Independent of the
    plain-Python oracle checker on purpose; tests compare the two.
    """
    if a.source != 0:
        return False, ("source-not-first", (int(a.source),))
    lam = a.in_labels()
    conflicted = a.edst[a.elab != lam[a.edst]]
    if conflicted.size:
        return False, ("in-label-conflict", (int(conflicted.min()),))
    drop = np.flatnonzero(lam[1:] < lam[:-1])
    if drop.size:
        i = int(drop[0])
        return False, ("letter-order", (i, i + 1))
    # group the edges by (letter, source); up to the first violation each
    # group's largest target is the largest of its letter so far, so
    # comparing consecutive groups of a letter finds that violation
    order, new = sorted_runs(a.elab, a.esrc)
    starts = np.flatnonzero(new)
    first = order[starts]
    lab, src = a.elab[first], a.esrc[first]
    dst = a.edst[order]
    gmin = np.minimum.reduceat(dst, starts)
    gmax = np.maximum.reduceat(dst, starts)
    bad = np.flatnonzero((lab[1:] == lab[:-1]) & (gmin[1:] < gmax[:-1]))
    if bad.size:
        g = int(bad[0]) + 1
        c = int(lab[g])
        # the witness is the letter's first group reaching that largest target
        j = int(np.searchsorted(lab, c))
        j += int(np.flatnonzero(gmax[j:g] == gmax[g - 1])[0])
        witness_early = (int(src[j]), int(gmax[j]))
        witness_late = (int(src[g]), int(gmin[g]))
        return False, ("target-order", (witness_early, witness_late, c))
    return True, None
