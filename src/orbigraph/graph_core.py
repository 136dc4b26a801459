"""Core graph type, text formats, and elementary degree/cycle invariants.

Graphs are finite, simple, and undirected, with vertices labeled 0..n-1.
The edge-list text format is the canonical interchange format; graph6 and
DOT are provided as conveniences.  All degree statistics are exact
rationals so that downstream preservation checks can compare exactly.
"""

from collections import deque
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence


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

    Edges are stored as a frozenset of (u, v) pairs with u < v, so the
    value is hashable and immutable; all operations on it are pure.
    Equality and hash are on (n, edges) alone: the adjacency and the
    connectivity are derived from them once, on first use, and cached in
    the instance dict.
    """

    _fields = ("n", "edges")
    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        for e in edges:
            u, v = e
            if not (0 <= u < v < n):
                raise ValueError(f"edge {e} out of range for n={n} (need 0 <= u < v < n)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph from arbitrary (u, v) pairs, normalizing endpoint order."""
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            normalized.add((min(u, v), max(u, v)))
        return cls(n, frozenset(normalized))

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbour tuples, each sorted ascending; built once per graph."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @cached_property
    def connected(self) -> bool:
        """True iff every vertex is reachable from vertex 0 (true for n <= 1)."""
        if self.n <= 1:
            return True
        adj = self.adjacency
        seen = [False] * self.n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    queue.append(w)
        return count == self.n

    def degrees(self) -> list[int]:
        return list(map(len, self.adjacency))

    def relabel(self, image: Sequence[int]) -> "Graph":
        """Apply a vertex bijection v -> image[v] to the edge set."""
        if sorted(image) != list(range(self.n)):
            raise ValueError("image is not a bijection on 0..n-1")
        return Graph.from_edges(self.n, ((image[u], image[v]) for u, v in self.edges))


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


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list format.

    First significant line is "n m"; then exactly m lines "u v" with
    0 <= u < v < n.  Lines starting with '#' and blank lines are ignored.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise GraphFormatError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError(f"header must contain integers, got {lines[0]!r}") from exc
    if n <= 0:
        raise GraphFormatError(f"vertex count must be positive, got {n}")
    if m < 0:
        raise GraphFormatError(f"edge count must be nonnegative, got {m}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"edge line must be 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"edge line must contain integers, got {ln!r}") from exc
        if u == v:
            raise GraphFormatError(f"loop {u} {v} not allowed")
        if u > v:
            raise GraphFormatError(f"edge endpoints must satisfy u < v, got {ln!r}")
        if not (0 <= u < v < n):
            raise GraphFormatError(f"edge {u} {v} out of range for n={n}")
        if (u, v) in edges:
            raise GraphFormatError(f"duplicate edge {u} {v}")
        edges.add((u, v))
    return Graph(n, frozenset(edges))


def serialize_edge_list(graph: Graph) -> str:
    """Serialize to the canonical edge-list format (sorted edges, LF newlines)."""
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"


def _g6_encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return chr(126) + chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise GraphFormatError(f"vertex count {n} too large for graph6")


def _g6_decode_n(data: str) -> tuple[int, int]:
    """Return (n, number of characters consumed)."""
    if not data:
        raise GraphFormatError("empty graph6 string")
    c0 = ord(data[0]) - 63
    if c0 != 63:
        if not 0 <= c0 <= 62:
            raise GraphFormatError("invalid graph6 size byte")
        return c0, 1
    if len(data) >= 2 and ord(data[1]) - 63 == 63:
        chars = data[2:8]
        if len(chars) < 6:
            raise GraphFormatError("truncated graph6 size field")
        n = 0
        for ch in chars:
            n = (n << 6) | (ord(ch) - 63)
        return n, 8
    chars = data[1:4]
    if len(chars) < 3:
        raise GraphFormatError("truncated graph6 size field")
    n = 0
    for ch in chars:
        n = (n << 6) | (ord(ch) - 63)
    return n, 4


def to_graph6(graph: Graph) -> str:
    """Encode in graph6 format (upper triangle, column-major bit order)."""
    n = graph.n
    out = [_g6_encode_n(n)]
    bits: list[int] = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if (u, v) in graph.edges else 0)
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = (value << 1) | b
        out.append(chr(value + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (optional '>>graph6<<' header allowed)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :].strip()
    n, consumed = _g6_decode_n(s)
    if n == 0:
        raise GraphFormatError("graph6 with zero vertices rejected")
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[consumed:]
    if len(body) != need:
        raise GraphFormatError(f"graph6 body length {len(body)}, expected {need}")
    bits: list[int] = []
    for ch in body:
        value = ord(ch) - 63
        if not 0 <= value <= 63:
            raise GraphFormatError(f"invalid graph6 byte {ch!r}")
        bits.extend((value >> s_) & 1 for s_ in (5, 4, 3, 2, 1, 0))
    edges = set()
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.add((u, v))
            k += 1
    return Graph(n, frozenset(edges))


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
    lines.extend(f"  {u} -- {v};" for u, v in sorted(graph.edges))
    lines.append("}")
    return "\n".join(lines) + "\n"


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
