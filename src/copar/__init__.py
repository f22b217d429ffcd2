"""Ordered partition refinement for automata.

Computes Wheeler preorders of NFAs and smallest-width co-lex orders (with
minimum chain partitions) of DFAs in near-linear time, alongside brute-force
oracles and input generators that make every claim checkable at desk scale.
"""

from copar.automaton import (
    Automaton,
    Diagnostic,
    DuplicateEdgeWarning,
    OrderedPartition,
    ParseError,
    ValidationError,
    make_input_consistent,
    parse_automaton,
    parse_order,
    parse_ordered_partition,
    path_dfa,
    quotient,
    reverse_automaton,
    serialize_automaton,
    serialize_order,
    serialize_ordered_partition,
    validate,
)
from copar.colex import ColexResult, MergedGraph, RankTable, colex_order
from copar.partition import Refinement, init_refinement
from copar.prune import PrunedAutomaton, backward_walk, refine_with_pruning
from copar.refine import WheelerPreorder, refine_all, wheeler_preorder

__all__ = [
    "Automaton",
    "ColexResult",
    "Diagnostic",
    "DuplicateEdgeWarning",
    "MergedGraph",
    "OrderedPartition",
    "ParseError",
    "PrunedAutomaton",
    "RankTable",
    "Refinement",
    "ValidationError",
    "WheelerPreorder",
    "backward_walk",
    "colex_order",
    "gen_random_dfa",
    "gen_random_nfa",
    "gen_wheeler_nfa",
    "init_refinement",
    "make_input_consistent",
    "parse_automaton",
    "parse_order",
    "parse_ordered_partition",
    "path_dfa",
    "quotient",
    "refine_all",
    "refine_with_pruning",
    "reverse_automaton",
    "serialize_automaton",
    "serialize_order",
    "serialize_ordered_partition",
    "validate",
    "wheeler_preorder",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # the generators load on first use (PEP 562), so no CLI run imports them
    if name in ("gen_random_dfa", "gen_random_nfa", "gen_wheeler_nfa"):
        from copar import generators

        return getattr(generators, name)
    raise AttributeError(f"module 'copar' has no attribute {name!r}")
