"""Output checks that share no code with copar.

Each check reads the CLI's text output and returns a list of findings; an
empty list means the output passed. They test properties every correct
answer has, at any size, without recomputing the answer.
"""

from __future__ import annotations


def check_sort(text: str, n: int, source: int, quasi_wheeler: bool, singletons: bool) -> list[str]:
    """ORDPART output of `copar sort`: the parts list their states in
    ascending order and cover 0..n-1 exactly once, the source's part comes
    first and is a singleton, and the flag line is last (and true when
    `quasi_wheeler`); with `singletons` every part has one state."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("ORDPART "):
        return ["missing ORDPART header"]
    k = int(lines[0].split()[1])
    flag = lines[-1]
    if flag not in ("QUASI_WHEELER: true", "QUASI_WHEELER: false"):
        return [f"last line is {flag!r}, not the QUASI_WHEELER flag"]
    body = lines[1:-1]
    out = []
    if len(body) != k:
        out.append(f"header says {k} parts, found {len(body)}")
    seen = bytearray(n)
    parts = []
    for i, line in enumerate(body):
        head, _, members = line.partition(":")
        if head != str(i):
            return [f"part line {i} is numbered {head!r}"]
        part = [int(v) for v in members.split()]
        if not part:
            return [f"part {i} is empty"]
        if any(u >= v for u, v in zip(part, part[1:])):
            return [f"part {i} does not list its states in ascending order"]
        for v in part:
            if not 0 <= v < n or seen[v]:
                return [f"state {v} out of range or in two parts"]
            seen[v] = 1
        parts.append(part)
    if sum(seen) != n:
        out.append(f"parts cover {sum(seen)} of {n} states")
    if parts and parts[0] != [source]:
        out.append(f"first part is {parts[0][:5]}, not the source {source} alone")
    if quasi_wheeler and flag != "QUASI_WHEELER: true":
        out.append("expected QUASI_WHEELER: true")
    if singletons and len(parts) != n:
        out.append(f"expected {n} singleton parts, found {len(parts)} parts")
    return out


def check_colex(text: str, n: int, source: int) -> list[str]:
    """RANKS/CHAINS output of `copar colex`: inf <= sup for every state, the
    source ranks 0/0, the chains cover each state once, each chain rises
    under sup[u] <= inf[v], and CHAINS equals the chain count."""
    lines = text.splitlines()
    if not lines or lines[0] != f"RANKS {n}":
        return [f"first line is not 'RANKS {n}'"]
    if len(lines) < n + 2 or not lines[n + 1].startswith("CHAINS "):
        return ["missing CHAINS header after the rank lines"]
    inf = [0] * n
    sup = [0] * n
    for v, line in enumerate(lines[1 : n + 1]):
        fields = [int(f) for f in line.split()]
        if len(fields) != 3 or fields[0] != v:
            return [f"rank line {v} reads {line!r}"]
        inf[v], sup[v] = fields[1], fields[2]
    out = []
    bad = [v for v in range(n) if inf[v] > sup[v]]
    if bad:
        out.append(f"{len(bad)} states have inf > sup, first {bad[0]}")
    if inf[source] != 0 or sup[source] != 0:
        out.append(f"source ranks {inf[source]}/{sup[source]}, not 0/0")
    p = int(lines[n + 1].split()[1])
    chains = [[int(v) for v in line.split()] for line in lines[n + 2 :]]
    if len(chains) != p:
        out.append(f"CHAINS says {p}, found {len(chains)} chains")
    seen = bytearray(n)
    for chain in chains:
        for v in chain:
            if not 0 <= v < n or seen[v]:
                return out + [f"state {v} out of range or in two chains"]
            seen[v] = 1
        for u, v in zip(chain, chain[1:]):
            if sup[u] > inf[v]:
                return out + [f"chain does not rise from {u} to {v}"]
    if sum(seen) != n:
        out.append(f"chains cover {sum(seen)} of {n} states")
    return out
