"""Core graph type, text formats, and elementary degree/cycle invariants.

Graphs are finite, simple, and undirected, with vertices labeled 0..n-1.
A graph is its sorted adjacency rows; its edge set is derived on request.
The edge-list text format is the canonical interchange format; graph6 and
DOT are provided as conveniences.  Each parser reads its text in one pass,
which also finds the first fault of a faulty text.  All degree statistics
are exact rationals, Ratio values, so that downstream preservation checks
can compare exactly; Ratio is this module's own small type, since
fractions.Fraction costs every run the import of decimal and numbers.
"""

import math
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import chain, compress, repeat
from operator import eq, ge, gt, le, lt


class GraphFormatError(ValueError):
    """Malformed graph text (edge list or graph6)."""


class Frozen:
    """Base of the value types: immutable, with equality, hash and repr on
    the fields named in `_fields`.

    A plain record, such as DegreeStats, declares `__slots__ = _fields` and
    any defaults in `_defaults`, and takes its fields by position or name
    through the __init__ here.  A validated type, such as Graph, checks its
    arguments in its own __init__ and stores each field once with
    object.__setattr__.  Either way every later assignment raises
    AttributeError, and copies and pickles are rebuilt through __init__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        cls, fields = type(self).__name__, self._fields
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args) :]):
            raise TypeError(f"{cls} takes the fields {', '.join(fields)}, each once")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        for name in fields:
            if name not in values:
                raise TypeError(f"{cls} is missing field {name!r}")
            object.__setattr__(self, name, values[name])

    def _asdict(self) -> dict:
        """The fields by name, in field order."""
        return dict(zip(self._fields, self._key()))

    def _replace(self, **changes):
        """A copy with the given fields changed, made through __init__."""
        return type(self)(**{**self._asdict(), **changes})

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


def _exact(x) -> tuple[int, int] | None:
    """(numerator, denominator) of an exact rational, as a Ratio, an int and a
    fractions.Fraction all give them, or None for any other value."""
    try:
        return x.numerator, x.denominator
    except AttributeError:
        return None


def _arithmetic(combine):
    """The Ratio operator whose result is Ratio(*combine(a, b, p, q)) for
    self = a/b and an exact rational other = p/q."""

    def method(self, other):
        if (pair := _exact(other)) is None:
            return NotImplemented
        return Ratio(*combine(self.numerator, self.denominator, *pair))

    return method


def _comparison(op):
    """The Ratio comparison op, exact; a nan or infinite float compares as
    0.0 does with it, as Fraction has it."""

    def compare(self, other):
        if isinstance(other, float):
            if not math.isfinite(other):
                return op(0.0, other)
            pair = other.as_integer_ratio()
        elif (pair := _exact(other)) is None:
            return NotImplemented
        p, q = pair
        return op(self.numerator * q, p * self.denominator)

    return compare


class Ratio(Frozen):
    """An exact rational numerator/denominator in lowest terms, denominator > 0.

    It equals and hashes as the int or fractions.Fraction of the same value
    does, and compares exactly with a float, as Fraction does.  +, -, *
    and / with an int, a Ratio or a Fraction, and ** by an int, give a Ratio;
    float() is correctly rounded, and str() is "p/q", or "p" when q is 1.
    """

    __slots__ = _fields = ("numerator", "denominator")
    numerator: int
    denominator: int

    def __init__(self, numerator: int, denominator: int = 1) -> None:
        if denominator == 0:
            raise ZeroDivisionError(f"Ratio({numerator}, 0)")
        g = math.gcd(numerator, denominator)
        if denominator < 0:
            g = -g
        object.__setattr__(self, "numerator", numerator // g)
        object.__setattr__(self, "denominator", denominator // g)

    __add__ = __radd__ = _arithmetic(lambda a, b, p, q: (a * q + p * b, b * q))
    __sub__ = _arithmetic(lambda a, b, p, q: (a * q - p * b, b * q))
    __rsub__ = _arithmetic(lambda a, b, p, q: (p * b - a * q, b * q))
    __mul__ = __rmul__ = _arithmetic(lambda a, b, p, q: (a * p, b * q))
    __truediv__ = _arithmetic(lambda a, b, p, q: (a * q, b * p))
    __rtruediv__ = _arithmetic(lambda a, b, p, q: (p * b, q * a))
    __eq__, __lt__, __le__, __gt__, __ge__ = map(_comparison, (eq, lt, le, gt, ge))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return Ratio(self.denominator**-exponent, self.numerator**-exponent)
        return Ratio(self.numerator**exponent, self.denominator**exponent)

    def __hash__(self) -> int:
        # The hash of Fraction, and so of an int when the denominator is 1.
        try:
            inverse = pow(self.denominator, -1, sys.hash_info.modulus)
        except ValueError:  # the denominator is a multiple of the modulus
            value = sys.hash_info.inf
        else:
            value = hash(hash(abs(self.numerator)) * inverse)
        value = value if self.numerator >= 0 else -value
        return -2 if value == -1 else value

    def __bool__(self) -> bool:
        return self.numerator != 0

    def __float__(self) -> float:
        return self.numerator / self.denominator

    def __str__(self) -> str:
        return str(self.numerator) if self.denominator == 1 else f"{self.numerator}/{self.denominator}"


class Graph(Frozen):
    """Simple undirected graph on the vertex set {0, ..., n-1}, n >= 1.

    The value is the sorted adjacency: one tuple of neighbours per vertex,
    strictly ascending, so the graph is hashable and immutable and all
    operations on it are pure; n and every label are ints, else ValueError.
    Equality and hash are on (n, adjacency).  The edge set is built on each
    read of `edges`; the connectivity and the hash are derived once, on
    first use, and cached in the instance dict, so a cache keyed by the
    graph hashes its rows once.
    """

    _fields = ("n", "adjacency")
    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, adjacency: Iterable[Sequence[int]]) -> None:
        _check_order(n)
        rows = tuple(map(tuple, adjacency))
        if len(rows) != n:
            raise ValueError(f"{len(rows)} adjacency rows for n={n}")
        # With every row ascending, the rows are symmetric iff the transpose,
        # which comes out ascending too, is the rows again.  A label that is
        # not an int raises TypeError in a comparison or as an index.
        transpose: list[list[int]] = [[] for _ in rows]
        try:
            for u, row in enumerate(rows):
                if row and not (0 <= row[0] and row[-1] < n and u not in row and all(map(lt, row, row[1:]))):
                    raise ValueError(f"row {u} is not strictly ascending in 0..{n - 1} without {u}: {row}")
            for u, row in enumerate(rows):
                for v in row:
                    transpose[v].append(u)
        except TypeError:
            raise ValueError(f"row {u} holds a label that is not an int: {row}") from None
        # The transpose, of enumerate's ints, is stored, so a bool label becomes
        # its int; its lists become tuples one at a time, to hold one copy.
        for u, row in enumerate(rows):
            transpose[u] = column = tuple(transpose[u])
            if column != row:
                raise ValueError("adjacency is not symmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", tuple(transpose))

    @classmethod
    def _parsed(cls, n: int, rows: tuple[tuple[int, ...], ...]) -> "Graph":
        """The graph of n rows that a parser built and so knows to be
        ascending, in range, without loops and symmetric: nothing is checked."""
        graph = cls.__new__(cls)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "adjacency", rows)
        return graph

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph from (u, v) pairs in any orientation; a repeated pair counts once."""
        _check_order(n)
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
        """True iff every vertex is reachable from vertex 0 (true for n = 1)."""
        return reaches_all(self.adjacency)

    @cached_property
    def _hash(self) -> int:
        return hash(self._key())

    def __hash__(self) -> int:
        return self._hash

    def degrees(self) -> list[int]:
        return list(map(len, self.adjacency))

    def relabel(self, image: Sequence[int]) -> "Graph":
        """Apply a vertex bijection v -> image[v], each image an int, to the rows."""
        if set(map(type, image)) != {int} or sorted(image) != list(range(self.n)):
            raise ValueError("image is not a bijection of ints on 0..n-1")
        rows: list[Sequence[int]] = [()] * self.n
        for u, row in enumerate(self.adjacency):
            rows[image[u]] = sorted(map(image.__getitem__, row))
        return Graph(self.n, rows)


def _check_order(n) -> None:
    """ValueError unless n is a vertex count: an int (not a bool) of at least 1."""
    if type(n) is not int or n < 1:
        raise ValueError(f"vertex count must be a positive int, got {n!r}")


def _sorted_edges(graph: Graph) -> Iterator[tuple[int, int]]:
    """Each edge once as (u, v) with u < v, in ascending order."""
    for u, row in enumerate(graph.adjacency):
        yield from zip(repeat(u), row[bisect_right(row, u) :])


class DegreeStats(Frozen):
    """Exact degree statistics of a graph.

    degree_variance is the population variance of the degree sequence and
    vanishes exactly when the graph is regular.
    """

    __slots__ = _fields = ("min_degree", "max_degree", "average_degree", "degree_variance")
    min_degree: int
    max_degree: int
    average_degree: Ratio
    degree_variance: Ratio


def frac_str(x: Ratio) -> str:
    """Exact text "p/q" of a ratio, as every report prints one (1 is "1/1")."""
    return f"{x.numerator}/{x.denominator}"


def _significant(line: str) -> bool:
    """True iff the line is neither blank nor a comment (first non-blank character '#')."""
    return bool(line.strip()) and not line.lstrip().startswith("#")


def _slices(text: str, start: int, size: int) -> Iterator[str]:
    """The text from offset start in slices of at least size characters,
    each cut just after a "\\n" or at the end, so no line, "\\r\\n" included,
    spans two slices: their lines are the text's lines, and a parser reads
    the text once, a slice at a time, without a list of all its lines."""
    while start < len(text):
        end = text.find("\n", start + size) + 1 or len(text)
        yield text[start:end]
        start = end


def _header(text: str) -> tuple[int, int, int]:
    """(n, m, end) from the first significant line of an edge list, n > 0 and
    m >= 0 in plain decimal (int() also reads "3_0", "+3" and non-ASCII
    digits), end the offset just past that line's break.  The lines are cut a
    few hundred characters at a time, so no list of all of them is made.  The
    text is ASCII but for the line breaks \\x85, \\u2028 and \\u2029."""
    if not text.isascii():
        at = next((i for i, ch in enumerate(text) if not ch.isascii() and ch not in "\x85\u2028\u2029"), None)
        if at is not None:
            raise GraphFormatError(f"edge list must be ASCII, got {text[at]!r} at offset {at}")
    end = 0
    for line in chain.from_iterable(map(str.splitlines, _slices(text, 0, 256), repeat(True))):
        end += len(line)
        if _significant(line):
            break
    else:
        raise GraphFormatError("empty input")
    line = line.splitlines()[0]  # without its line break
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
    return n, m, end


def _edge_list_header(text: str) -> tuple[int, int]:
    """(n, m) from the first significant line of an edge list, as _header reads it."""
    return _header(text)[:2]


# The edge lines are read in slices of about this many characters.
_SLICE = 1 << 16


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list format.

    First significant line is "n m"; then exactly m lines "u v" with
    0 <= u < v < n, in plain decimal.  Blank lines and '#' comments are ignored.

    The text is read once, in the slices of _slices, each split into lines
    and tokens, checked and read by C-level passes, and its tokens freed
    before the next slice is cut.  A slice those checks refuse is checked
    a line at a time for its first fault, and each slice after it only
    counted.  The messages come in this order: the edge-line count, then
    the first faulty edge line, then the first duplicate edge.
    """
    n, m, end = _header(text)
    labels = list(range(n))  # one int object per vertex, shared by the rows
    rows: list = [[] for _ in labels]
    count, fault = 0, None
    for piece in _slices(text, end, _SLICE):
        if "#" in piece:
            piece = "\n".join(filter(_significant, piece.splitlines()))
        # Two tokens on every nonblank line.  Each line's list is freed at
        # once, so no container outlives its allocation to load the collector.
        if fault is None and set(map(len, map(str.split, piece.splitlines()))) <= {0, 2}:
            tokens = piece.split()  # every line break is whitespace too
            if not tokens:
                continue
            # ASCII decimal digits only, as _line_fault has it, so int() cannot
            # fail; tokens that are not leave no edges, which refuses the slice.
            ints = list(map(int, tokens)) if "".join(tokens).isdecimal() else []
            del tokens
            us, vs = ints[::2], ints[1::2]
            del ints
            if us and all(map(lt, us, vs)) and max(vs) < n:
                count += len(us)
                # list.append returns None, so any() runs every append and stops at none.
                any(map(list.append, map(rows.__getitem__, us), map(labels.__getitem__, vs)))
                any(map(list.append, map(rows.__getitem__, vs), map(labels.__getitem__, us)))
                continue
            del us, vs
        # Here every nonblank line is significant.  Each refusal above is a
        # fault of some line, so next() finds one.
        lines = list(filter(str.strip, piece.splitlines()))
        count += len(lines)
        if fault is None:
            fault = next(filter(None, map(_line_fault, lines, repeat(n))))
    if count != m:
        raise GraphFormatError(f"expected {m} edge lines, found {count}")
    if fault is not None:
        raise GraphFormatError(fault)
    for u, row in enumerate(rows):
        row.sort()
        if any(map(eq, row, row[1:])):
            # Rows before u hold no repeat, so each repeat here is a larger neighbour.
            v = next(v for v, w in zip(row, row[1:]) if v == w)
            raise GraphFormatError(f"duplicate edge {u} {v}")
        rows[u] = tuple(row)
    return Graph._parsed(n, tuple(rows))


def _line_fault(line: str, n: int) -> str | None:
    """The message of the first fault of one significant edge line, checked
    in this order: two tokens, integers (ASCII decimal digits only, so no
    sign, "_" or "+"), no loop, u < v, v < n; None for a valid edge."""
    parts = line.split()
    if len(parts) != 2:
        return f"edge line must be 'u v', got {line!r}"
    if not "".join(parts).isdecimal():
        return f"edge line must contain integers, got {line!r}"
    u, v = map(int, parts)
    if u == v:
        return f"loop {u} {v} not allowed"
    if u > v:
        return f"edge endpoints must satisfy u < v, got {line!r}"
    if v >= n:
        return f"edge {u} {v} out of range for n={n}"
    return None


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
    # Each byte "?".."~" becomes its six bits as "0"/"1", then as bytes 0/1;
    # any other byte stays one character, which shortens the text.
    bits = body.translate({c: format(c - 63, "06b") for c in range(63, 127)})
    if len(bits) != 6 * len(body):
        raise GraphFormatError(f"invalid graph6 byte {next(ch for ch in body if not '?' <= ch <= '~')!r}")
    bits = bits.encode().translate(bytes.maketrans(b"01", b"\0\1"))
    # Column v holds v's smaller neighbours, ascending; v is larger than
    # every neighbour appended to a row before it, so the rows stay sorted.
    labels = list(range(n))
    rows: list = [[] for _ in labels]
    k = 0
    for v in range(1, n):
        rows[v] = column = list(compress(labels, bits[k : k + v]))
        # list.append returns None, so any() runs every append and stops at none.
        any(map(list.append, map(rows.__getitem__, column), repeat(labels[v])))
        k += v
    for u, row in enumerate(rows):
        rows[u] = tuple(row)
    return Graph._parsed(n, tuple(rows))


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
    holding the heads of i's arcs, given at least one row (true for one).
    Where every arc has one back, as in a graph, that is connectivity."""
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
    """True iff every vertex is reachable from vertex 0 (true for n = 1)."""
    return graph.connected


def degree_stats(graph: Graph) -> DegreeStats:
    """Exact min/max/average degree and degree variance."""
    deg = graph.degrees()
    n = graph.n
    m1 = Ratio(sum(deg), n)
    m2 = Ratio(sum(d * d for d in deg), n)
    return DegreeStats(
        min_degree=min(deg),
        max_degree=max(deg),
        average_degree=m1,
        degree_variance=m2 - m1 * m1,
    )


def edge_vertex_ratio(graph: Graph) -> Ratio:
    """Edges over vertices; equals half the average degree, exactly."""
    return Ratio(graph.m, graph.n)


def density(graph: Graph) -> Ratio:
    """Fraction of all possible edges present, in [0, 1]."""
    if graph.n < 2:
        raise ValueError("density requires at least two vertices")
    return Ratio(2 * graph.m, graph.n * (graph.n - 1))


def cyclomatic_number(graph: Graph) -> int:
    """Independent cycle count e - n + 1 of a connected graph."""
    if not is_connected(graph):
        raise ValueError("cyclomatic number defined here for connected graphs only")
    return graph.m - graph.n + 1
