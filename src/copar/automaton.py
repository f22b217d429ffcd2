"""Automaton data type, file formats, validation and basic constructions.

States are 0..n-1, letters 0..sigma-1, with a designated source state. The
text format is a header ``NFA <n> <m> <source> <sigma>`` followed by m edge
lines ``<from> <to> <letter>``; ``#`` starts a comment anywhere on a line.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np


class ParseError(ValueError):
    """Raised on malformed input text; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ValueError):
    """Raised when an operation requires a clean automaton but validate() found problems."""

    def __init__(self, diagnostics: list[Diagnostic]):
        text = "; ".join(str(d) for d in diagnostics)
        super().__init__(f"automaton failed validation: {text}")
        self.diagnostics = diagnostics


class DuplicateEdgeWarning(UserWarning):
    """Emitted when parsing drops duplicate edge lines."""


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: a machine-readable code, its subject and a message."""

    code: str
    subject: int
    message: str

    def __str__(self) -> str:
        return f"{self.code}({self.subject}): {self.message}"


class Automaton:
    """Edge-labeled automaton with a source state.

    Edges are stored as three parallel int64 arrays (esrc, edst, elab) in
    construction order; arrays passed in are copied, so the caller keeps
    its own. Duplicate edges are rejected; use parse_automaton to
    deduplicate text input with a warning instead.
    """

    __slots__ = ("n", "sigma", "source", "esrc", "edst", "elab", "_lam", "_out")

    def __init__(
        self,
        n: int,
        sigma: int,
        source: int,
        edges: Iterable[tuple[int, int, int]] | tuple[np.ndarray, np.ndarray, np.ndarray],
    ):
        if isinstance(edges, tuple) and len(edges) == 3 and isinstance(edges[0], np.ndarray):
            cols = [np.array(col, dtype=np.int64) for col in edges]  # the caller keeps its arrays
        else:
            rows = list(edges)
            cols = [np.fromiter((r[i] for r in rows), np.int64, len(rows)) for i in range(3)]
        self._set(n, sigma, source, *cols)

    @classmethod
    def _adopt(cls, n: int, sigma: int, source: int, *cols: np.ndarray) -> Automaton:
        """The automaton on int64 edge columns built for it, kept without a copy."""
        a = cls.__new__(cls)
        a._set(n, sigma, source, *cols)
        return a

    def _set(self, n: int, sigma: int, source: int, esrc: np.ndarray, edst: np.ndarray, elab: np.ndarray) -> None:
        """Check the header and the int64 edge columns; hold them."""
        if n < 1:
            raise ValueError(f"need at least one state, got n={n}")
        if sigma < 0:
            raise ValueError(f"alphabet size must be >= 0, got {sigma}")
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range for n={n}")
        if not (len(esrc) == len(edst) == len(elab)):
            raise ValueError("edge arrays must have equal length")
        if len(esrc):
            if esrc.min() < 0 or esrc.max() >= n or edst.min() < 0 or edst.max() >= n:
                raise ValueError("edge endpoint out of range")
            if elab.min() < 0 or elab.max() >= sigma:
                raise ValueError("edge letter out of range")
            # rows in strictly increasing order (quotient's, or canonical text)
            # are distinct without a sort; a repeated row starts no run
            if not _rows_increase(esrc, edst, elab) and not sorted_runs(esrc, edst, elab)[1].all():
                raise ValueError("duplicate edges are not allowed")
        self.n = int(n)
        self.sigma = int(sigma)
        self.source = int(source)
        self.esrc = esrc
        self.edst = edst
        self.elab = elab
        self._lam: np.ndarray | None = None
        self._out: list[list[tuple[int, int]]] | None = None

    @property
    def m(self) -> int:
        return len(self.esrc)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield edges (from, to, letter) in storage order."""
        for i in range(self.m):
            yield int(self.esrc[i]), int(self.edst[i]), int(self.elab[i])

    def _canonical_order(self) -> np.ndarray:
        """Row indices sorting the edges by (from, to, letter)."""
        return np.lexsort((self.elab, self.edst, self.esrc))

    def sorted_edges(self) -> list[tuple[int, int, int]]:
        """Edges sorted by (from, to, letter); the canonical order."""
        o = self._canonical_order()
        return list(zip(*(c[o].tolist() for c in (self.esrc, self.edst, self.elab))))

    def in_labels(self) -> np.ndarray:
        """Per-state in-letter; -1 for states with no in-edges.

        For states whose in-edges carry several distinct letters (flagged by
        validate) this reports the smallest such letter.
        """
        if self._lam is None:
            # one unbuffered pass over the edges; letters stay below
            # sigma, so the start value marks the states with no in-edge
            none = np.iinfo(np.int64).max
            lam = np.full(self.n, none, dtype=np.int64)
            np.minimum.at(lam, self.edst, self.elab)
            lam[lam == none] = -1
            self._lam = lam
        return self._lam

    def out_map(self) -> list[list[tuple[int, int]]]:
        """Adjacency out_map()[u] = [(v, letter), ...] in storage order."""
        if self._out is None:
            out: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for u, v, a in self.edges():
                out[u].append((v, a))
            self._out = out
        return self._out

    def is_deterministic(self) -> bool:
        """True when no state has two out-edges with the same letter."""
        return bool(sorted_runs(self.esrc, self.elab)[1].all())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Automaton):
            return NotImplemented
        if self is other:
            return True
        header = (self.n, self.sigma, self.source, self.m)
        if header != (other.n, other.sigma, other.source, other.m):
            return False
        # edges are distinct, so equal edge sets sort to equal columns
        i = self._canonical_order()
        j = other._canonical_order()
        return all(
            np.array_equal(x[i], y[j])
            for x, y in ((self.esrc, other.esrc), (self.edst, other.edst), (self.elab, other.elab))
        )

    def __repr__(self) -> str:
        return f"Automaton(n={self.n}, m={self.m}, source={self.source}, sigma={self.sigma})"


def sorted_runs(*cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of equal-length columns, the first column most significant.

    Returns (order, new): the stable np.lexsort order of the rows, and a
    mask over the sorted rows that is True on the first row and wherever a
    row differs from the row before it. order[new] holds one row per
    distinct value, in sorted order. Nothing is packed into one key, so no
    product of columns can wrap around int64.
    """
    order = np.lexsort(cols[::-1])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for col in cols:
        c = col[order]
        new[1:] |= c[1:] != c[:-1]
    return order, new


def _dense_rank(key: np.ndarray, bound: int | None = None) -> tuple[np.ndarray, int]:
    """Dense rank of each entry of key among its distinct values, and their
    number. A dense rank does not depend on how equal keys are ordered, so
    numpy's default (unstable) argsort serves. Keys known to lie below a
    bound no larger than key.size are ranked by counting instead, in O(size).
    """
    if bound is not None and bound <= key.size:
        seen = np.zeros(bound, dtype=bool)
        seen[key] = True
        dense = np.cumsum(seen) - 1
        return dense[key], int(dense[-1]) + 1
    order = np.argsort(key)
    k = key[order]
    new = np.ones(k.size, dtype=bool)
    np.not_equal(k[1:], k[:-1], out=new[1:])
    rank = np.empty(k.size, dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank, int(np.count_nonzero(new))


def doubling_ranks(letters: np.ndarray, phi: np.ndarray, extra_rounds: int = 0) -> tuple[np.ndarray, int]:
    """Dense ranks of the nodes of the functional graph phi by their backward
    walks, and the rounds run; prefix doubling (Manber and Myers, SIAM J.
    Comput. 1993).

    Node x's walk spells letters[x], letters[phi[x]], ...; walks compare
    lexicographically. Round zero ranks by letter alone; each round then
    compares twice as many letters by pairing every node's rank with the
    rank at the end of its current hop and re-ranking densely.
    ceil(log2(size)) rounds saturate, but they stop after the first that
    adds no distinct rank: if walks of length 2L split no class of length
    L, by Moore's argument no longer walk does. extra_rounds = k > 0 runs
    all k + ceil(log2(size)).

    A round ranks the pair (rank, rank at the hop's end) as the one int64
    key rank * classes + rank[hop]. Both halves are dense ranks below
    classes <= size, so the key is below size**2 and exact for any size
    under 3 * 10**9.
    """
    if extra_rounds < 0:
        raise ValueError(f"extra_rounds must be at least 0, got {extra_rounds}")
    rank, classes = _dense_rank(letters)
    phik = phi.astype(np.int64)
    rounds = 0
    for rounds in range(1, (int(letters.size) - 1).bit_length() + extra_rounds + 1):
        before = classes
        rank, classes = _dense_rank(rank * classes + rank[phik])
        if classes == before and not extra_rounds:
            break
        phik = phik[phik]
    return rank, rounds


def _rows_increase(*cols: np.ndarray) -> bool:
    """True when every row is lexicographically greater than the row before
    it, the first column most significant: an O(m) test for sorted, distinct
    rows."""
    greater = np.zeros(len(cols[0]) - 1, dtype=bool)
    equal = np.ones(len(cols[0]) - 1, dtype=bool)
    for col in cols:
        prev, cur = col[:-1], col[1:]
        greater |= equal & (cur > prev)
        equal &= cur == prev
    return bool(greater.all())


def csr(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjacency of rows grouped by keys in 0..n-1: (rows, start, degree).

    rows lists the row ids stably sorted by key; the rows of key v are
    rows[start[v] : start[v] + degree[v]].
    """
    rows = np.argsort(keys, kind="stable")
    degree = np.bincount(keys, minlength=n)
    return rows, np.cumsum(degree) - degree, degree


def _strip_comment(line: str) -> str:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def parse_automaton(text: str) -> Automaton:
    """Parse the NFA text format.

    Duplicate edge lines are dropped with a DuplicateEdgeWarning. Malformed
    input raises ParseError with the offending 1-based line number.

    A well-formed body (ASCII digits and whitespace only, three fields on
    each non-blank line, no duplicate edge) is checked and converted in
    numpy, in blocks of whole lines of about PARSE_BLOCK characters, each
    by one np.fromstring call whose values go straight into the
    automaton's three columns. So the parse's memory beyond those columns
    scales with a block, not with the text. Anything else is parsed again
    line by line, which gives the errors and warnings their line numbers.
    """
    a = _parse_vectorized(text)
    return a if a is not None else _parse_lines(text)


def _parse_header(lineno: int, fields: list[str]) -> tuple[int, int, int, int]:
    """(n, m, source, sigma) of a header line split into fields."""
    if fields[0] != "NFA":
        raise ParseError(lineno, f"expected 'NFA' header, got {fields[0]!r}")
    if len(fields) != 5:
        raise ParseError(lineno, "header needs exactly 'NFA <n> <m> <source> <sigma>'")
    try:
        n, m, source, sigma = (int(f) for f in fields[1:])
    except ValueError:
        raise ParseError(lineno, "header fields must be integers") from None
    if n < 1:
        raise ParseError(lineno, f"need at least one state, got n={n}")
    if m < 0 or sigma < 0:
        raise ParseError(lineno, "edge count and alphabet size must be >= 0")
    if max(n, sigma) > np.iinfo(np.int64).max:
        raise ParseError(lineno, "state count and alphabet size must fit in int64")
    if not 0 <= source < n:
        raise ParseError(lineno, f"source {source} out of range for n={n}")
    return n, m, source, sigma


# characters other than "\n" on which str.splitlines breaks a line
_LINE_BREAKS = re.compile("[\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
# longer digit runs may not fit in int64
_MAX_DIGITS = 18
# _parse_vectorized reads the body in blocks of about this many characters,
# each ending on a "\n", and reachable_mask expands a BFS level in slices of
# at most this many edges, so their temporaries scale with a block.
PARSE_BLOCK = 1 << 16


def _parse_vectorized(text: str) -> Automaton | None:
    """The automaton of a well-formed text, or None to make the caller parse it
    line by line (on any input it might not read as _parse_lines does)."""
    pos = 0
    while True:  # find the header, splitting lines on "\n" only
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        line = text[pos:end].removesuffix("\r")
        if _LINE_BREAKS.search(line):
            return None
        fields = _strip_comment(line).split()
        pos = end + 1
        if fields:
            break
        if end == len(text):
            return None
    try:
        n, m, source, sigma = _parse_header(0, fields)
    except ParseError:
        return None
    size = len(text)
    if 6 * m - 1 > size - pos:
        return None  # too short for m edge lines: keeps cols below 4 bytes a character
    cols = np.empty((3, m), dtype=np.int64)  # esrc, edst, elab: each block's rows go here
    k = 0  # edge rows read so far
    lo = pos
    while lo < size:
        hi = size if size - lo <= PARSE_BLOCK else text.rfind("\n", lo, lo + PARSE_BLOCK) + 1
        if hi <= lo:  # a line longer than a block
            hi = text.find("\n", lo + PARSE_BLOCK) + 1 or size
        block = _block_values(text[lo:hi], 3 * (m - k))
        if block is None:
            return None
        rows = block.reshape(-1, 3).T
        cols[:, k : k + rows.shape[1]] = rows
        k += rows.shape[1]
        lo = hi
    if k != m:
        return None
    try:  # an endpoint or letter out of range, or a duplicate edge
        return Automaton._adopt(n, sigma, source, *cols)
    except ValueError:
        return None


def _block_values(chunk: str, room: int) -> np.ndarray | None:
    """The at most room integers of whole body lines, or None when the lines
    might not read as _parse_lines reads them."""
    if not chunk.isascii():
        return None
    raw = chunk.encode("ascii")
    if raw.translate(None, b"0123456789 \t\r\n"):
        return None  # a byte other than a digit, space, tab, CR or LF
    if b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"):
        return None  # a lone "\r" ends a line for str.splitlines
    b = np.frombuffer(raw, dtype=np.uint8)
    digit = np.zeros(b.size + 2, dtype=bool)
    np.greater_equal(b, ord("0"), out=digit[1:-1])  # only digits pass >= "0"
    # digit runs: run i is raw[bounds[2i] : bounds[2i + 1]]
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    if bounds.size % 6 or bounds.size > 2 * room:
        return None
    if not bounds.size:
        return bounds
    if int((bounds[1::2] - bounds[0::2]).max()) > _MAX_DIGITS:
        return None
    # three runs per non-blank line: each triple of runs ends before the
    # first "\n" after its first run, and that "\n" is a later one for
    # every later triple
    breaks = np.flatnonzero(b == 10)
    line = np.searchsorted(breaks, bounds[0::6])
    if np.any(line[1:] == line[:-1]) or np.any(bounds[5::6] > np.append(breaks, b.size)[line]):
        return None
    vals = np.fromstring(raw, dtype=np.int64, sep=" ")
    return vals if vals.size * 2 == bounds.size else None


def _parse_lines(text: str) -> Automaton:
    """parse_automaton one line at a time, for any input."""
    header: tuple[int, int, int, int] | None = None
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    dupes = 0
    expected_m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        fields = line.split()
        if header is None:
            header = _parse_header(lineno, fields)
            expected_m = header[1]
            continue
        if len(edges) + dupes >= expected_m:
            raise ParseError(lineno, f"more than the declared {expected_m} edges")
        if len(fields) != 3:
            raise ParseError(lineno, "edge line needs exactly '<from> <to> <letter>'")
        try:
            u, v, a = (int(f) for f in fields)
        except ValueError:
            raise ParseError(lineno, "edge fields must be integers") from None
        n, _, _, sigma = header
        if not 0 <= u < n or not 0 <= v < n:
            raise ParseError(lineno, f"edge endpoint out of range for n={n}")
        if not 0 <= a < sigma:
            raise ParseError(lineno, f"letter {a} out of range for sigma={sigma}")
        if (u, v, a) in seen:
            dupes += 1
            warnings.warn(
                f"line {lineno}: duplicate edge ({u}, {v}, {a}) dropped",
                DuplicateEdgeWarning,
                stacklevel=3,
            )
            continue
        seen.add((u, v, a))
        edges.append((u, v, a))
    if header is None:
        raise ParseError(1, "empty input: missing 'NFA' header")
    n, expected_m, source, sigma = header
    if len(edges) + dupes != expected_m:
        raise ParseError(
            len(text.splitlines()) + 1,
            f"declared {expected_m} edges but found {len(edges) + dupes}",
        )
    return Automaton(n, sigma, source, edges)


# 10**1 .. 10**18: a value v >= 0 has 1 + searchsorted(_POWERS, v, "right") digits
_POWERS = 10 ** np.arange(1, 19, dtype=np.int64)
# separators of the three values of an edge line or a RANKS line
_ROW_SEPS = np.array([ord(" "), ord(" "), ord("\n")], dtype=np.uint8)


def _int_text(values: np.ndarray, seps: np.ndarray | int) -> str:
    """Each value in decimal, followed by its separator byte.

    values is an int64 array of any shape and seps broadcasts to it; the
    text follows values in C order. A value of -1 writes its separator
    alone. Each value gets a row of a byte grid: its digits right-aligned,
    one numpy pass per digit position, then its separator. Dropping the
    leading zeros leaves the text, so no value becomes a Python str; values
    reach 2**63 - 1.
    """
    values = np.asarray(values, dtype=np.int64)
    flat = values.ravel()
    if flat.size and flat.min() < -1:
        raise ValueError("only values >= 0, or -1 for none, can be written")
    width = 1 + int(np.searchsorted(_POWERS, flat.max(), side="right")) if flat.size else 1
    grid = np.empty((flat.size, width + 1), dtype=np.uint8)
    keep = np.empty(grid.shape, dtype=bool)
    grid[:, width] = np.broadcast_to(seps, values.shape).ravel()
    keep[:, width] = True
    # below 10**9 every value fits int32, whose division is faster
    rest = flat.astype(np.int32) if width < 10 else flat
    for col in range(width - 1, -1, -1):
        quot = rest // 10
        grid[:, col] = rest - 10 * quot + ord("0")
        keep[:, col] = rest > 0  # a leading zero is dropped
        rest = quot
    keep[:, width - 1] = flat >= 0  # 0 keeps its one digit, -1 none
    return str(grid[keep].data, "ascii")


def _lines_text(members: np.ndarray, starts: np.ndarray, numbered: bool = False) -> str:
    """Line i lists members[starts[i] : starts[i + 1]], space-separated, after
    an "i: " label when numbered; each line ends in a newline."""
    members = np.asarray(members, dtype=np.int64)
    if members.size and members.min() < 0:
        raise ValueError("only values >= 0 can be written")
    sizes = np.diff(starts)
    lead = 2 if numbered else 0  # the label, then a blank before ": "
    # a line without members or label is one blank before its "\n"
    width = np.maximum(sizes + lead, 1)
    ends = np.cumsum(width)
    begins = ends - width
    values = np.full(ends.size and int(ends[-1]), -1, dtype=np.int64)
    seps = np.full(values.size, ord(" "), dtype=np.uint8)
    values[np.arange(members.size) + np.repeat(begins + lead - starts[:-1], sizes)] = members
    if numbered:
        values[begins] = np.arange(sizes.size)
        seps[begins] = ord(":")
    seps[ends - 1] = ord("\n")
    return _int_text(values, seps)


def serialize_automaton(a: Automaton, comment: str | None = None) -> str:
    """Render the NFA text format with edges sorted by (from, to, letter)."""
    head = f"# {comment}\n" if comment else ""
    cols = (a.esrc, a.edst, a.elab)
    if a.m and not _rows_increase(*cols):
        o = a._canonical_order()
        cols = tuple(c[o] for c in cols)
    edges = np.stack(cols, axis=1)
    return head + f"NFA {a.n} {a.m} {a.source} {a.sigma}\n" + _int_text(edges, _ROW_SEPS)


# A BFS level of at most this many states and out-edges is scanned in plain
# Python. One vectorized level step costs about 12-19 us whatever its
# size, a plain-Python edge about 0.35 us (2 cores, Python 3.11, numpy 2.4):
# they break even between 32 and 64 edges.
SMALL_LEVEL_EDGES = 48


def reachable_mask(a: Automaton) -> np.ndarray:
    """Boolean mask of states reachable from the source.

    When every state but the source has exactly one in-edge and the source
    none (m = n - 1), each state points at its parent and the source at
    itself. Squaring that map b = (n - 1).bit_length() times sends each
    state 2**b > n - 1 steps up, so a state is reachable iff it lands on
    the source: O(n log n) work in O(log n) numpy passes. A state on a
    detached cycle never lands there.

    Any other graph takes a BFS in O(n + m) over the edges grouped by
    source: where they lie if they already are, else a copy. A level of at
    most SMALL_LEVEL_EDGES states and out-edges is scanned in plain Python
    over memoryviews, so a deep, thin automaton makes no numpy call per
    level; a larger one is expanded by numpy in slices of at most
    PARSE_BLOCK edges.
    """
    n = a.n
    visited = np.zeros(n, dtype=bool)
    visited[a.source] = True
    if a.m == n - 1:
        indeg = np.bincount(a.edst, minlength=n)
        if indeg[a.source] == 0 and np.count_nonzero(indeg == 1) == n - 1:
            parent = np.empty(n, dtype=np.int64)
            parent[a.edst] = a.esrc
            parent[a.source] = a.source
            for _ in range((n - 1).bit_length()):
                parent = parent[parent]
            return parent == a.source
    if np.all(a.esrc[1:] >= a.esrc[:-1]):
        deg = np.bincount(a.esrc, minlength=n)
        ptr, dst_by_src = np.cumsum(deg) - deg, a.edst
    else:
        rows, ptr, deg = csr(a.esrc, n)
        dst_by_src = a.edst[rows]
    slot = np.empty(n, dtype=np.int64)
    seen, lo, hi, dst = (memoryview(x) for x in (visited, ptr, ptr + deg, dst_by_src))
    frontier: list[int] | np.ndarray = [a.source]
    edges = hi[a.source] - lo[a.source]  # out-edges of the frontier
    while len(frontier):
        if edges <= SMALL_LEVEL_EDGES and len(frontier) <= SMALL_LEVEL_EDGES:
            level = []
            edges = 0
            for u in frontier:
                for i in range(lo[u], hi[u]):
                    v = dst[i]
                    if not seen[v]:
                        seen[v] = True
                        level.append(v)
                        edges += hi[v] - lo[v]
            frontier = level
            continue
        frontier = np.asarray(frontier, dtype=np.int64)
        # the level's out-edge e leaves frontier[i] when
        # ends[i] - counts[i] <= e < ends[i], and is dst_by_src[shift[i] + e]
        counts = deg[frontier]
        ends = np.cumsum(counts)
        shift = ptr[frontier] - (ends - counts)
        level = [frontier[:0]]
        for first in range(0, edges, PARSE_BLOCK):
            last = min(first + PARSE_BLOCK, edges)
            i, j = np.searchsorted(ends, (first, last - 1), side="right") + (0, 1)
            take = np.minimum(ends[i:j], last) - np.maximum(ends[i:j] - counts[i:j], first)
            targets = dst_by_src[np.repeat(shift[i:j], take) + np.arange(first, last)]
            targets = targets[~visited[targets]]
            at = np.arange(targets.size)  # dedupe without a sort: one write to a slot sticks
            slot[targets] = at
            level.append(targets[slot[targets] == at])
            visited[level[-1]] = True
        frontier = np.concatenate(level)
        edges = int(deg[frontier].sum())
        if frontier.size <= SMALL_LEVEL_EDGES:
            frontier = frontier.tolist()
    return visited


def validate(a: Automaton) -> list[Diagnostic]:
    """Check the working assumptions; returns an empty list for a clean automaton.

    Findings: states unreachable from the source, in-edges of the source,
    states whose in-edges carry more than one letter, and declared letters
    that label no edge.
    """
    out: list[Diagnostic] = []
    visited = reachable_mask(a)
    for v in np.flatnonzero(~visited):
        out.append(Diagnostic("unreachable", int(v), "state is unreachable from the source"))
    if a.m:
        if bool(np.any(a.edst == a.source)):
            out.append(Diagnostic("source-in-edge", a.source, "source state has an in-edge"))
        # in_labels holds each state's smallest in-letter, and the engine
        # reads it from the cache; only a conflict needs the pairs grouped
        if bool(np.any(a.elab != a.in_labels()[a.edst])):
            order, new = sorted_runs(a.edst, a.elab)
            pair_dst, pair_lab = a.edst[order[new]], a.elab[order[new]]
            # each state's distinct letters are one run of the sorted pairs
            lo = np.flatnonzero(np.r_[True, pair_dst[1:] != pair_dst[:-1]])
            hi = np.r_[lo[1:], pair_dst.size]
            for i in np.flatnonzero(hi - lo > 1):
                letters = ",".join(str(c) for c in pair_lab[lo[i] : hi[i]].tolist())
                out.append(
                    Diagnostic(
                        "in-label-conflict",
                        int(pair_dst[lo[i]]),
                        f"in-edges carry distinct letters {{{letters}}}",
                    )
                )
    used = np.zeros(a.sigma, dtype=bool)
    used[a.elab] = True
    for c in np.flatnonzero(~used):
        out.append(Diagnostic("unused-letter", int(c), "letter labels no edge"))
    out.sort(key=lambda d: (d.code, d.subject))
    return out


def make_input_consistent(a: Automaton) -> tuple[Automaton, list[int]]:
    """Split states by incoming letter so every state has a unique in-letter.

    Returns the rewritten automaton plus a mapping from each new state to the
    original state it copies. The construction preserves the recognized
    string set and determinism; each state gains at most one copy per letter,
    so the result has at most sigma * n states. An already consistent
    automaton comes back unchanged with the identity mapping.
    """
    # copy 0 is the start copy of the source, with no in-letter; copy 1 + i
    # is the i-th distinct (target, letter) pair in sorted order
    order, new_pair = sorted_runs(a.edst, a.elab)
    pair_state = a.edst[order[new_pair]]
    into = np.empty(a.m, dtype=np.int64)  # copy id entered by each edge
    into[order] = np.cumsum(new_pair)
    # every copy of an edge's source gets the edge: the copies of u are the
    # pairs lo..hi-1 of u, plus the start copy when u is the source
    lo = np.searchsorted(pair_state, a.esrc, side="left")
    hi = np.searchsorted(pair_state, a.esrc, side="right")
    count = hi - lo
    edge = np.repeat(np.arange(a.m), count)
    # the k-th row made from edge e leaves copy 1 + lo[e] + k
    src = 1 + np.arange(edge.size) + np.repeat(lo - (np.cumsum(count) - count), count)
    from_start = np.flatnonzero(a.esrc == a.source)
    src = np.concatenate((src, np.zeros(from_start.size, dtype=np.int64)))
    edge = np.concatenate((edge, from_start))
    dst, lab = into[edge], a.elab[edge]
    # distinct input edges give distinct rows, so sorting is all that
    # sorted(set(...)) would do
    rows = np.lexsort((lab, dst, src))
    ic = Automaton._adopt(1 + pair_state.size, a.sigma, 0, src[rows], dst[rows], lab[rows])
    return ic, [a.source] + pair_state.tolist()


def reverse_automaton(a: Automaton) -> Automaton:
    """Flip every edge; letters stay put.

    The result usually breaks the input-consistency assumptions (it is meant
    for oracles that run on the reversed automaton), so it is exempt from
    validate() expectations. The source field is carried over unchanged and
    has no particular meaning on the reversal.
    """
    return Automaton(a.n, a.sigma, a.source, (a.edst, a.esrc, a.elab))


def quotient(a: Automaton, p: OrderedPartition) -> Automaton:
    """Collapse each part of p to one state, keeping p's part order as the state order.

    The part holding the source must be a singleton. Class i of the result is
    part i of p; parallel edges collapse.

    With k parts, each edge packs into the one int64 key
    (class of its source * k + class of its target) * sigma + letter, below
    k**2 * sigma: one sort and a new-run mask find the distinct rows, which
    the key decodes into in sorted order. That is exact while k**2 * sigma
    < 2**63, as for any clean input with m under 2 * 10**6 (k <= m + 1 and
    sigma <= m); a larger one groups the three columns with sorted_runs.
    """
    if p.n != a.n:
        raise ValueError(f"partition covers {p.n} states, automaton has {a.n}")
    cls = p.as_class_array()
    source_cls = int(cls[a.source])
    if p.starts[source_cls + 1] - p.starts[source_cls] != 1:
        raise ValueError("source class must be a singleton")
    k, sigma = p.k, max(a.sigma, 1)
    if k * k * sigma > np.iinfo(np.int64).max:
        src, dst = cls[a.esrc], cls[a.edst]
        order, new = sorted_runs(src, dst, a.elab)
        rows = order[new]
        return Automaton._adopt(k, a.sigma, source_cls, src[rows], dst[rows], a.elab[rows])
    # in place, so at most two arrays of m rows are alive: out of place,
    # the temporaries raised nfa-sort's peak RSS by about 0.5 MB
    key = cls[a.esrc]
    key *= k
    key += cls[a.edst]
    key *= sigma
    key += a.elab
    key.sort()
    new = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    pair, lab = np.divmod(key[new], sigma)
    src, dst = np.divmod(pair, k)
    return Automaton._adopt(k, a.sigma, source_cls, src, dst, lab)


def path_dfa(s: Sequence[int]) -> Automaton:
    """Build the path automaton of a string: state i reads prefix s[:i].

    Letters are remapped monotonically onto 0..k-1 (k = distinct letters of
    s) so the result uses every declared letter; monotone remaps preserve all
    co-lex comparisons.
    """
    distinct = sorted(set(int(c) for c in s))
    if any(c < 0 for c in distinct):
        raise ValueError("letters must be >= 0")
    remap = {c: i for i, c in enumerate(distinct)}
    edges = [(i, i + 1, remap[int(c)]) for i, c in enumerate(s)]
    return Automaton(len(s) + 1, len(distinct), 0, edges)


class OrderedPartition:
    """An ordered list of disjoint state sets covering 0..n-1.

    Part order is semantically meaningful (candidate state order); state ids
    inside each part are kept sorted ascending. The parts live in two
    read-only int64 arrays: members lists the states part by part, and part
    i is members[starts[i] : starts[i + 1]] (starts has k + 1 entries, the
    last one n). parts, the same as a list of lists, is built on first use.
    n and k count the states and the parts.
    """

    def __init__(self, parts: Iterable[Iterable[int]]):
        lists = [[int(v) for v in part] for part in parts]
        try:
            members = np.array([v for part in lists for v in part], dtype=np.int64)
        except OverflowError:
            raise ValueError("parts must partition the states 0..n-1") from None
        self._set(members, np.cumsum([0] + [len(part) for part in lists]))

    @classmethod
    def from_arrays(cls, members: np.ndarray, starts: np.ndarray) -> OrderedPartition:
        """The partition whose part i holds members[starts[i] : starts[i + 1]]."""
        p = cls.__new__(cls)
        p._set(np.array(members, dtype=np.int64), np.array(starts, dtype=np.int64))
        return p

    def _set(self, members: np.ndarray, starts: np.ndarray) -> None:
        """Check, sort inside parts and freeze arrays that no caller shares."""
        sizes = np.diff(starts)
        if np.any(sizes <= 0):
            raise ValueError(f"part {int(np.argmax(sizes <= 0))} is empty")
        n = members.size
        if starts[0] != 0 or starts[-1] != n or (n and (members.min() < 0 or members.max() >= n)):
            raise ValueError("parts must partition the states 0..n-1")
        seen = np.zeros(n, dtype=bool)
        seen[members] = True  # n ids in 0..n-1 cover them all only if distinct
        if not seen.all():
            raise ValueError("parts must partition the states 0..n-1")
        drop = members[1:] < members[:-1]
        drop[starts[1:-1] - 1] = False  # a part may start below its predecessor's end
        if drop.any():
            # sort by part index, then by id, as the one key part * n + id
            # (below n**2, exact in int64 for n under 3 * 10**9)
            members = np.sort(np.repeat(np.arange(sizes.size), sizes) * n + members) % n
        members.flags.writeable = starts.flags.writeable = False
        self.members, self.starts = members, starts
        self.n, self.k = n, sizes.size

    @cached_property
    def parts(self) -> list[list[int]]:
        """The parts in order, each a sorted list of state ids."""
        ids, s = self.members.tolist(), self.starts.tolist()
        return [ids[lo:hi] for lo, hi in zip(s, s[1:])]

    def as_sets(self) -> set[frozenset[int]]:
        """The unordered partition (for comparisons that ignore part order)."""
        return {frozenset(part) for part in self.parts}

    def as_class_array(self) -> np.ndarray:
        """as_class_array()[v] = index of v's part; the preorder as positions."""
        cls = np.empty(self.n, dtype=np.int64)
        cls[self.members] = np.repeat(np.arange(self.k, dtype=np.int64), np.diff(self.starts))
        return cls

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderedPartition):
            return NotImplemented
        return np.array_equal(self.starts, other.starts) and np.array_equal(
            self.members, other.members
        )

    def __repr__(self) -> str:
        return f"OrderedPartition(parts={self.parts!r})"


def serialize_ordered_partition(p: OrderedPartition) -> str:
    """Render the ORDPART format: header then one 'index: members' line per part."""
    return f"ORDPART {p.k}\n" + _lines_text(p.members, p.starts, numbered=True)


def parse_ordered_partition(text: str) -> OrderedPartition:
    """Parse the ORDPART format; raises ParseError on malformed input."""
    k: int | None = None
    parts: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        fields = line.split()
        if k is None:
            if fields[0] != "ORDPART" or len(fields) != 2:
                raise ParseError(lineno, "expected 'ORDPART <k>' header")
            try:
                k = int(fields[1])
            except ValueError:
                raise ParseError(lineno, "part count must be an integer") from None
            if k < 1:
                raise ParseError(lineno, f"need at least one part, got {k}")
            continue
        if len(parts) >= k:
            raise ParseError(lineno, f"more than the declared {k} parts")
        if not fields[0].endswith(":"):
            raise ParseError(lineno, "part line must start with '<index>:'")
        try:
            idx = int(fields[0][:-1])
            members = [int(f) for f in fields[1:]]
        except ValueError:
            raise ParseError(lineno, "part line fields must be integers") from None
        if idx != len(parts):
            raise ParseError(lineno, f"expected part index {len(parts)}, got {idx}")
        if not members:
            raise ParseError(lineno, "part has no members")
        parts.append(members)
    if k is None:
        raise ParseError(1, "empty input: missing 'ORDPART' header")
    if len(parts) != k:
        raise ParseError(len(text.splitlines()) + 1, f"declared {k} parts but found {len(parts)}")
    try:
        return OrderedPartition(parts)
    except ValueError as exc:
        raise ParseError(len(text.splitlines()) + 1, str(exc)) from None


def serialize_order(order: Sequence[int]) -> str:
    """Render a total state order as 'ORDER <n>' plus the ids smallest-first."""
    return f"ORDER {len(order)}\n" + _lines_text(order, np.array([0, len(order)]))


def parse_order(text: str) -> list[int]:
    """Parse the ORDER format into a permutation of 0..n-1."""
    n: int | None = None
    ids: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        fields = line.split()
        if n is None:
            if fields[0] != "ORDER" or len(fields) != 2:
                raise ParseError(lineno, "expected 'ORDER <n>' header")
            try:
                n = int(fields[1])
            except ValueError:
                raise ParseError(lineno, "state count must be an integer") from None
            if n < 1:
                raise ParseError(lineno, f"need at least one state, got {n}")
            continue
        try:
            ids.extend(int(f) for f in fields)
        except ValueError:
            raise ParseError(lineno, "order entries must be integers") from None
        if len(ids) > n:
            raise ParseError(lineno, f"more than the declared {n} states")
    if n is None:
        raise ParseError(1, "empty input: missing 'ORDER' header")
    if len(ids) != n or sorted(ids) != list(range(n)):
        raise ParseError(
            len(text.splitlines()) + 1, f"entries must be a permutation of 0..{n - 1}"
        )
    return ids
