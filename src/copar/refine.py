"""Full refinement runs: coarsest forward-stable partition, Wheeler preorder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from copar.automaton import (
    Automaton,
    Diagnostic,
    OrderedPartition,
    ValidationError,
    quotient,
    sorted_runs,
    validate,
)
from copar.partition import init_refinement, run_refinement


@dataclass
class WheelerPreorder:
    """Result of sorting an NFA: the preorder, its quotient and the Wheeler flag.

    The quotient's state order (identity) is the candidate Wheeler order;
    quasi_wheeler reports whether it satisfies the Wheeler axioms, with the
    first violation when it does not.
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
    ref = init_refinement(a)
    run_refinement(ref)
    return ref.snapshot_partition()


def wheeler_preorder(a: Automaton) -> WheelerPreorder:
    """Sort an NFA: Wheeler preorder, quotient automaton and quasi-Wheeler flag."""
    require_clean(a)
    ref = init_refinement(a, "ascending")
    run_refinement(ref)
    partition = ref.snapshot_partition()
    rounds, max_splitter_count = ref.rounds, ref.max_splitter_count
    del ref  # free the engine's arrays before the quotient sorts the edges
    q = quotient(a, partition)
    ok, violation = _identity_wheeler_check(q)
    return WheelerPreorder(
        partition=partition,
        quotient=q,
        quasi_wheeler=ok,
        violation=violation,
        rounds=rounds,
        max_splitter_count=max_splitter_count,
    )


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
