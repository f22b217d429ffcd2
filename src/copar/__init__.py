"""Ordered partition refinement for automata.

Computes Wheeler preorders of NFAs and smallest-width co-lex orders (with
minimum chain partitions) of DFAs in near-linear time, alongside brute-force
oracles and input generators that make every claim checkable at desk scale.
"""

__version__ = "0.1.0"

# the module of each public name; the modules load on first use (PEP 562),
# so `import copar` loads no numpy and the CLI can set up the environment
# numpy reads before numpy loads
_HOMES = {
    **dict.fromkeys(
        (
            "Automaton",
            "Diagnostic",
            "DuplicateEdgeWarning",
            "OrderedPartition",
            "ParseError",
            "ValidationError",
            "make_input_consistent",
            "parse_automaton",
            "parse_order",
            "parse_ordered_partition",
            "path_dfa",
            "quotient",
            "reverse_automaton",
            "serialize_automaton",
            "serialize_order",
            "serialize_ordered_partition",
            "validate",
        ),
        "automaton",
    ),
    **dict.fromkeys(("ColexResult", "MergedGraph", "RankTable", "colex_order"), "colex"),
    **dict.fromkeys(("gen_random_dfa", "gen_random_nfa", "gen_wheeler_nfa"), "generators"),
    **dict.fromkeys(("Refinement", "init_refinement"), "partition"),
    **dict.fromkeys(("PrunedAutomaton", "backward_walk", "refine_with_pruning"), "prune"),
    **dict.fromkeys(("WheelerPreorder", "refine_all", "wheeler_preorder"), "refine"),
}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    from importlib import import_module

    if name not in _HOMES:
        raise AttributeError(f"module 'copar' has no attribute {name!r}")
    value = getattr(import_module(f"copar.{_HOMES[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
