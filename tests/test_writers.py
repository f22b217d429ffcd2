"""The numpy integer writer behind every output format, against the
f-string writers it replaced, and pinned digests of `copar gen` outputs."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copar import cli
from copar.automaton import (
    Automaton,
    OrderedPartition,
    _int_text,
    serialize_automaton,
    serialize_order,
    serialize_ordered_partition,
)
from copar.colex import ColexResult, serialize_colex

# --- the reference writers: one Python str per value ---


def ref_serialize_automaton(a: Automaton, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"NFA {a.n} {a.m} {a.source} {a.sigma}")
    lines.extend(f"{u} {v} {c}" for u, v, c in a.sorted_edges())
    return "\n".join(lines) + "\n"


def ref_serialize_ordered_partition(p: OrderedPartition) -> str:
    ids = [str(v) for v in p.members.tolist()]
    s = p.starts.tolist()
    lines = [f"ORDPART {p.k}"]
    lines.extend(f"{i}: " + " ".join(ids[s[i] : s[i + 1]]) for i in range(p.k))
    return "\n".join(lines) + "\n"


def ref_serialize_colex(res: ColexResult) -> str:
    lines = [f"RANKS {len(res.inf_rank)}"]
    lines.extend(
        f"{v} {i} {s}" for v, (i, s) in enumerate(zip(res.inf_rank.tolist(), res.sup_rank.tolist()))
    )
    lines.append(f"CHAINS {len(res.chains)}")
    lines.extend(" ".join(str(v) for v in chain) for chain in res.chains)
    return "\n".join(lines) + "\n"


def ref_serialize_order(order) -> str:
    ids = " ".join(str(v) for v in order)
    return f"ORDER {len(order)}\n{ids}\n"


# digit-count edges, and ids around 2**62 and the int64 limit
EDGE_VALUES = [0, 9, 10, 99, 100, 999, 1000, 2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1]


def ints(limit: int):
    """Values in 0..limit-1, often on a digit-count edge."""
    edges = [v for v in EDGE_VALUES if v < limit] + [limit - 1]
    return st.one_of(st.sampled_from(edges), st.integers(0, limit - 1))


@given(st.lists(st.tuples(st.just(-1) | ints(2**63), st.sampled_from(" \n:\t")), max_size=40))
def test_int_text_matches_str(pairs):
    values = np.array([v for v, _ in pairs], dtype=np.int64)
    seps = np.array([ord(c) for _, c in pairs], dtype=np.uint8)
    expected = "".join(("" if v == -1 else str(v)) + c for v, c in pairs)
    assert _int_text(values, seps) == expected
    if len(pairs) % 3 == 0:  # as rows of three, one separator per column
        rows = values.reshape(-1, 3)
        cols = np.frombuffer(b" :\n", dtype=np.uint8)
        assert _int_text(rows, cols) == "".join(
            ("" if v == -1 else str(v)) + " :\n"[i % 3] for i, v in enumerate(values.tolist())
        )


def test_int_text_refuses_values_below_minus_one():
    with pytest.raises(ValueError):
        _int_text(np.array([3, -2]), ord(" "))
    with pytest.raises(ValueError):
        serialize_order([1, -1, 0])


@st.composite
def automata(draw):
    n = draw(st.sampled_from([1, 2, 10, 11, 100, 101, 2**62, 2**62 + 2, 2**63 - 1]))
    sigma = draw(st.sampled_from([1, 3, 10, 2**62 + 1, 2**63 - 1]))
    rows = draw(st.lists(st.tuples(ints(n), ints(n), ints(sigma)), unique=True, max_size=25))
    return Automaton(n, sigma, draw(ints(n)), rows)


@settings(max_examples=200, deadline=None)
@given(automata(), st.sampled_from([None, "", "seed 7", "forward-stable quotient"]))
def test_serialize_automaton_matches_the_reference(a, comment):
    assert serialize_automaton(a, comment) == ref_serialize_automaton(a, comment)


@st.composite
def partitions(draw):
    n = draw(st.integers(1, 60))
    perm = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    if draw(st.booleans()):  # every part a single state
        cuts = list(range(1, n))
    bounds = [0, *cuts, n]
    return OrderedPartition(perm[lo:hi] for lo, hi in zip(bounds, bounds[1:]))


@settings(max_examples=200, deadline=None)
@given(partitions())
def test_serialize_ordered_partition_matches_the_reference(p):
    assert serialize_ordered_partition(p) == ref_serialize_ordered_partition(p)


def test_serialize_ordered_partition_at_one_part_and_many_digits():
    for parts in ([[0]], [range(1001)], [[v] for v in range(101)]):
        p = OrderedPartition(parts)
        assert serialize_ordered_partition(p) == ref_serialize_ordered_partition(p)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(ints(2**63), ints(2**63)), max_size=20),
    st.lists(st.lists(ints(2**63), max_size=6), max_size=6),
)
def test_serialize_colex_matches_the_reference(ranks, chains):
    inf = np.array([i for i, _ in ranks], dtype=np.int64)
    sup = np.array([s for _, s in ranks], dtype=np.int64)
    res = ColexResult(inf_rank=inf, sup_rank=sup, chains=chains, width=len(chains), rounds=0)
    assert serialize_colex(res) == ref_serialize_colex(res)


@given(st.lists(ints(2**63), max_size=30))
def test_serialize_order_matches_the_reference(order):
    assert serialize_order(order) == ref_serialize_order(order)


# sha256 of `copar gen` outputs at n = 10**5, as the reference writers above
# wrote them
GEN_DIGESTS = {
    ("--wheeler", 7): "d84977ccecb74978e84fb1c85a96065850f6d9418e425bea031341d13288e3aa",
    ("--dfa", 7): "0eceabf50d5cfcc3cf90d04ec8d8c916899c88124814b492467eba4d86cb350a",
    ("--wheeler", 1729): "3d0344bfab237e37c4e4eab882fa9c5f94cb5c814b9c8cf39c16ddc71b814673",
    ("--dfa", 1729): "2ee3186fbcd09efade97b4e4f180c59fb0d3f85b10795c0c14b646f5baf6bad4",
}


@pytest.mark.parametrize("kind,seed", sorted(GEN_DIGESTS))
def test_gen_outputs_keep_their_digests(kind, seed, tmp_path):
    out = tmp_path / "gen.nfa"
    assert cli.main(["gen", kind, "-n", "100000", "--seed", str(seed), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_DIGESTS[kind, seed]
