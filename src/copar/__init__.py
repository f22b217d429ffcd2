"""Ordered partition refinement for automata.

Computes Wheeler preorders of NFAs and smallest-width co-lex orders (with
minimum chain partitions) of DFAs in near-linear time, alongside brute-force
oracles and input generators that make every claim checkable at desk scale.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

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


def _bind(namespace: dict, homes: dict[str, str], module: str) -> None:
    """Load copar.<module> and bind in namespace, a module's globals, each
    name that homes maps to it, keeping a name already bound there: a
    wrapper a tracer or a test has set."""
    mod = _import_module(f"copar.{module}")
    for name, home in homes.items():
        if home == module:
            namespace.setdefault(name, getattr(mod, name))


def _lazy_getattr(namespace: dict, homes: dict[str, str]):
    """A module __getattr__ (PEP 562) that binds the names of homes, each
    mapped to the copar module defining it, on first use; later lookups
    find them in namespace and skip it."""

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        _bind(namespace, homes, homes[name])
        return namespace[name]

    return __getattr__


def _wrapped(namespace: dict, homes: dict[str, str], name: str) -> bool:
    """Whether namespace binds name to something other than the function of
    its home module: a wrapper, which must see the call. An unbound name is
    not wrapped."""
    value = namespace.get(name)
    return value is not None and value is not getattr(_import_module(f"copar.{homes[name]}"), name)


__getattr__ = _lazy_getattr(globals(), _HOMES)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
