"""Core graph type, text formats, and elementary degree/cycle invariants.

Graphs are finite, simple, and undirected, with vertices labeled 0..n-1.
A graph is its sorted adjacency rows; its edge set is derived on request.
The edge-list text format is the canonical interchange format; graph6 and
DOT are provided as conveniences.  All degree statistics are exact
rationals so that downstream preservation checks can compare exactly.
"""

import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice, repeat
from operator import eq, lt
from typing import Iterable, Iterator, NamedTuple, Sequence


class GraphFormatError(ValueError):
    """Malformed graph text (edge list or graph6)."""


class Frozen:
    """Base of the validated value types: immutable, with equality, hash and
    repr on the fields named in `_fields`.

    A subclass checks its arguments in __init__ and stores each field once
    with object.__setattr__; every later assignment raises AttributeError.
    Copies and pickles are rebuilt through __init__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Graph(Frozen):
    """Simple undirected graph on the vertex set {0, ..., n-1}.

    The value is the sorted adjacency: one tuple of neighbours per vertex,
    strictly ascending, so the graph is hashable and immutable and all
    operations on it are pure.  Equality and hash are on (n, adjacency).
    The edge set is built on each read of `edges`; the connectivity is
    derived once, on first use, and cached in the instance dict.
    """

    _fields = ("n", "adjacency")
    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, adjacency: Iterable[Sequence[int]]) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        rows = tuple(map(tuple, adjacency))
        if len(rows) != n:
            raise ValueError(f"{len(rows)} adjacency rows for n={n}")
        for u, row in enumerate(rows):
            if row and not (0 <= row[0] and row[-1] < n and u not in row and all(map(lt, row, row[1:]))):
                raise ValueError(f"row {u} is not strictly ascending in 0..{n - 1} without {u}: {row}")
        # With every row ascending, the rows are symmetric iff the transpose,
        # which comes out ascending too, is the rows again.
        transpose: list[list[int]] = [[] for _ in rows]
        for u, row in enumerate(rows):
            for v in row:
                transpose[v].append(u)
        if not all(map(eq, map(tuple, transpose), rows)):
            raise ValueError("adjacency is not symmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", rows)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph from (u, v) pairs in any orientation; a repeated pair counts once."""
        rows: list[list[int]] = [[] for _ in range(n)]
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e} out of range for n={n}")
            rows[u].append(v)
            rows[v].append(u)
        return cls(n, [sorted(set(row)) for row in rows])

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(map(len, self.adjacency)) // 2

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The (u, v) pairs with u < v, as a new set on each read."""
        return frozenset(_sorted_edges(self))

    @cached_property
    def connected(self) -> bool:
        """True iff every vertex is reachable from vertex 0 (true for n <= 1)."""
        return reaches_all(self.adjacency)

    def degrees(self) -> list[int]:
        return list(map(len, self.adjacency))

    def relabel(self, image: Sequence[int]) -> "Graph":
        """Apply a vertex bijection v -> image[v] to the rows."""
        if sorted(image) != list(range(self.n)):
            raise ValueError("image is not a bijection on 0..n-1")
        rows: list[Sequence[int]] = [()] * self.n
        for u, row in enumerate(self.adjacency):
            rows[image[u]] = sorted(map(image.__getitem__, row))
        return Graph(self.n, rows)


def _sorted_edges(graph: Graph) -> Iterator[tuple[int, int]]:
    """Each edge once as (u, v) with u < v, in ascending order."""
    for u, row in enumerate(graph.adjacency):
        yield from zip(repeat(u), row[bisect_right(row, u) :])


class DegreeStats(NamedTuple):
    """Exact degree statistics of a graph.

    degree_variance is the population variance of the degree sequence and
    vanishes exactly when the graph is regular.
    """

    min_degree: int
    max_degree: int
    average_degree: Fraction
    degree_variance: Fraction


def frac_str(x: Fraction) -> str:
    """Exact text "p/q" of a fraction, as every report prints one (1 is "1/1")."""
    return f"{x.numerator}/{x.denominator}"


# A nonempty line of a text, as str.splitlines cuts them.
_LINE = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]+")


def _significant(lines: Iterable[str]) -> Iterator[str]:
    """The lines that are neither blank nor a comment (first non-blank character '#')."""
    return (ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#"))


def _edge_list_header(text: str) -> tuple[int, int]:
    """(n, m) from the first significant line of an edge list, n > 0 and m >= 0
    in plain decimal (int() also reads "3_0", "+3" and non-ASCII digits); the
    lines are cut one at a time, so no list of them exists yet.  The text is
    ASCII but for the line breaks that _LINE cuts at."""
    if not text.isascii():
        at = next((i for i, ch in enumerate(text) if not ch.isascii() and ch not in "\x85\u2028\u2029"), None)
        if at is not None:
            raise GraphFormatError(f"edge list must be ASCII, got {text[at]!r} at offset {at}")
    line = next(_significant(map(re.Match.group, _LINE.finditer(text))), None)
    if line is None:
        raise GraphFormatError("empty input")
    header = line.split()
    if len(header) != 2:
        raise GraphFormatError(f"header must be 'n m', got {line!r}")
    try:
        if "_" in line or "+" in line:
            raise ValueError(line)
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"header must contain integers, got {line!r}") from exc
    if n <= 0:
        raise GraphFormatError(f"vertex count must be positive, got {n}")
    if m < 0:
        raise GraphFormatError(f"edge count must be nonnegative, got {m}")
    return n, m


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list format.

    First significant line is "n m"; then exactly m lines "u v" with
    0 <= u < v < n, in plain decimal.  Blank lines and '#' comments are ignored.
    """
    n, m = _edge_list_header(text)
    lines = list(_significant(text.splitlines()))
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    # One scan of the text spares the edge lines their own "_" and "+" checks.
    plain = "_" not in text and "+" not in text
    labels = list(range(n))  # one int object per vertex, shared by the rows
    rows: list[list[int]] = [[] for _ in labels]
    for ln in islice(lines, 1, None):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"edge line must be 'u v', got {ln!r}")
        try:
            if not plain and ("_" in ln or "+" in ln):
                raise ValueError(ln)
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"edge line must contain integers, got {ln!r}") from exc
        if u == v:
            raise GraphFormatError(f"loop {u} {v} not allowed")
        if u > v:
            raise GraphFormatError(f"edge endpoints must satisfy u < v, got {ln!r}")
        if not (0 <= u < v < n):
            raise GraphFormatError(f"edge {u} {v} out of range for n={n}")
        rows[u].append(labels[v])
        rows[v].append(labels[u])
    del lines  # the line strings outweigh the rows: free them before Graph copies the rows
    for u, row in enumerate(rows):
        row.sort()
        if any(map(eq, row, row[1:])):
            # Rows before u hold no repeat, so each repeat here is a larger neighbour.
            v = next(v for v, w in zip(row, row[1:]) if v == w)
            raise GraphFormatError(f"duplicate edge {u} {v}")
    return Graph(n, rows)


def serialize_edge_list(graph: Graph) -> str:
    """Serialize to the canonical edge-list format (sorted edges, LF newlines)."""
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in _sorted_edges(graph))
    return "\n".join(lines) + "\n"


def _g6_encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return chr(126) + chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise GraphFormatError(f"vertex count {n} too large for graph6")


def _graph6_header(text: str) -> tuple[int, str]:
    """(n, body) of a graph6 string after an optional '>>graph6<<' header: n > 0
    from the size field, one byte or "~" and 3 or "~~" and 6, each in "?".."~"
    (McKay, graph6 and sparse6 formats), and the characters after it."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :].strip()
    if not s:
        raise GraphFormatError("empty graph6 string")
    n, end = ord(s[0]) - 63, 1
    if n == 63:
        start, end = (2, 8) if s[1:2] == "~" else (1, 4)
        if len(s) < end:
            raise GraphFormatError("truncated graph6 size field")
        n = 0
        for ch in s[start:end]:
            value = ord(ch) - 63
            if not 0 <= value <= 63:
                raise GraphFormatError(f"invalid byte {ch!r} in graph6 size field {s[:end]!r}")
            n = (n << 6) | value
    elif not 0 <= n <= 62:
        raise GraphFormatError("invalid graph6 size byte")
    if n == 0:
        raise GraphFormatError("graph6 with zero vertices rejected")
    return n, s[end:]


def to_graph6(graph: Graph) -> str:
    """Encode in graph6 format (upper triangle, column-major bit order)."""
    n = graph.n
    out = [_g6_encode_n(n)]
    bits = bytearray(-(-n * (n - 1) // 12) * 6)
    for v, row in enumerate(graph.adjacency):
        base = v * (v - 1) // 2
        for u in row[: bisect_left(row, v)]:
            bits[base + u] = 1
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = (value << 1) | b
        out.append(chr(value + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (optional '>>graph6<<' header allowed)."""
    n, body = _graph6_header(text)
    if "\n" in body or "\r" in body:
        raise GraphFormatError("graph6 text holds more than one graph; one graph per file is read")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphFormatError(f"graph6 body length {len(body)}, expected {need}")
    bits: list[int] = []
    for ch in body:
        value = ord(ch) - 63
        if not 0 <= value <= 63:
            raise GraphFormatError(f"invalid graph6 byte {ch!r}")
        bits.extend((value >> s_) & 1 for s_ in (5, 4, 3, 2, 1, 0))
    # Column v holds v's smaller neighbours, ascending; v is larger than
    # every neighbour appended to a row before it, so the rows stay sorted.
    labels = list(range(n))
    rows: list[list[int]] = [[] for _ in labels]
    k = 0
    for v in range(1, n):
        rows[v] = list(compress(labels, bits[k : k + v]))
        for u in rows[v]:
            rows[u].append(v)
        k += v
    return Graph(n, rows)


_DOT_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
)


def to_dot(graph: Graph, coloring: Sequence[Sequence[int]] | None = None) -> str:
    """Deterministic DOT output; cells of the optional coloring share a fill color.

    The palette cycles after 12 cells.  Vertices are emitted ascending and
    edges in lexicographic order, so output is byte-stable.
    """
    lines = ["graph {"]
    if coloring is None:
        lines.extend(f"  {v};" for v in range(graph.n))
    else:
        seen = sorted(v for cell in coloring for v in cell)
        if seen != list(range(graph.n)) or any(not cell for cell in coloring):
            raise ValueError("coloring is not a partition of the vertex set")
        color_of = {}
        for i, cell in enumerate(coloring):
            for v in cell:
                color_of[v] = _DOT_PALETTE[i % len(_DOT_PALETTE)]
        lines.append("  node [style=filled];")
        lines.extend(f'  {v} [fillcolor="{color_of[v]}"];' for v in range(graph.n))
    lines.extend(f"  {u} -- {v};" for u, v in _sorted_edges(graph))
    lines.append("}")
    return "\n".join(lines) + "\n"


def reaches_all(rows: Sequence[Iterable[int]]) -> bool:
    """True iff every index is reachable from 0 along the rows, rows[i]
    holding the heads of i's arcs (true for no rows).  Where every arc has
    one back, as in a graph, that is connectivity."""
    if not rows:
        return True
    seen = [False] * len(rows)
    seen[0] = True
    todo, count = [0], 1
    while todo:
        for w in rows[todo.pop()]:
            if not seen[w]:
                seen[w] = True
                count += 1
                todo.append(w)
    return count == len(rows)


def is_connected(graph: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (true for n <= 1)."""
    return graph.connected


def degree_stats(graph: Graph) -> DegreeStats:
    """Exact min/max/average degree and degree variance."""
    if graph.n == 0:
        raise ValueError("degree statistics undefined for the empty graph")
    deg = graph.degrees()
    n = graph.n
    m1 = Fraction(sum(deg), n)
    m2 = Fraction(sum(d * d for d in deg), n)
    return DegreeStats(
        min_degree=min(deg),
        max_degree=max(deg),
        average_degree=m1,
        degree_variance=m2 - m1 * m1,
    )


def edge_vertex_ratio(graph: Graph) -> Fraction:
    """Edges over vertices; equals half the average degree, exactly."""
    if graph.n == 0:
        raise ValueError("edge-vertex ratio undefined for the empty graph")
    return Fraction(graph.m, graph.n)


def density(graph: Graph) -> Fraction:
    """Fraction of all possible edges present, in [0, 1]."""
    if graph.n < 2:
        raise ValueError("density requires at least two vertices")
    return Fraction(2 * graph.m, graph.n * (graph.n - 1))


def cyclomatic_number(graph: Graph) -> int:
    """Independent cycle count e - n + 1 of a connected graph."""
    if not is_connected(graph):
        raise ValueError("cyclomatic number defined here for connected graphs only")
    return graph.m - graph.n + 1
