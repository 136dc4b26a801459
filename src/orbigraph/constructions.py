"""Graph products, rooted loads, and the named parametric families.

Every constructor uses a fixed, documented vertex labeling so outputs are
byte-stable across runs:

  * cartesian/strong product of G and F: (u, a) -> u * |F| + a;
  * corona G (.) F: G keeps 0..n-1, copy i of F occupies the next |F| slots;
  * vertex loading: the support keeps its labels, fresh load vertices are
    appended block by block in support order.
"""

import math
from collections.abc import Callable, Sequence

from .graph_core import Frozen, Graph


class RootedGraph(Frozen):
    """Graph with a distinguished root vertex (for vertex loading)."""

    __slots__ = _fields = ("graph", "root")
    graph: Graph
    root: int

    def __init__(self, graph: Graph, root: int) -> None:
        if type(root) is not int or not 0 <= root < graph.n:
            raise ValueError(f"root {root!r} out of range: a root is an int in 0..{graph.n - 1}")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "root", root)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(q: int) -> Graph:
    """K_{1,q} with the center labeled 0."""
    if q < 1:
        raise ValueError(f"star needs q >= 1, got {q}")
    return Graph.from_edges(q + 1, [(0, i) for i in range(1, q + 1)])


def cartesian_product(g: Graph, f: Graph) -> Graph:
    """Box product: (u,a) ~ (v,b) iff u=v and a~b, or a=b and u~v."""
    nf = f.n
    f_edges = f.edges
    edges: list[tuple[int, int]] = []
    for u in range(g.n):
        edges.extend((u * nf + a, u * nf + b) for a, b in f_edges)
    for u, v in g.edges:
        edges.extend((u * nf + a, v * nf + a) for a in range(nf))
    return Graph.from_edges(g.n * f.n, edges)


def strong_product(g: Graph, f: Graph) -> Graph:
    """Cartesian edges plus the crossed edges (u,a)~(v,b) for u~v and a~b."""
    nf = f.n
    f_edges = f.edges
    edges = [(u, v) for u, v in cartesian_product(g, f).edges]
    for u, v in g.edges:
        for a, b in f_edges:
            edges.append((u * nf + a, v * nf + b))
            edges.append((u * nf + b, v * nf + a))
    return Graph.from_edges(g.n * f.n, edges)


def corona(g: Graph, f: Graph) -> Graph:
    """Join vertex i of g to every vertex of a private copy of f."""
    f_edges = f.edges
    edges = list(g.edges)
    for i in range(g.n):
        base = g.n + i * f.n
        edges.extend((base + a, base + b) for a, b in f_edges)
        edges.extend((i, base + a) for a in range(f.n))
    return Graph.from_edges(g.n + g.n * f.n, edges)


def prism(g: Graph) -> Graph:
    return cartesian_product(g, complete(2))


def strong_prism(g: Graph) -> Graph:
    return strong_product(g, complete(2))


def minimal_corona(g: Graph) -> Graph:
    return corona(g, complete(1))


def starlike_load(q: int, m: int) -> RootedGraph:
    """q paths of length m glued at a common end vertex, rooted there.

    1 + q*m vertices; branch j occupies 1 + j*m .. 1 + (j+1)*m - 1 walking
    away from the root.
    """
    if q < 1 or m < 1:
        raise ValueError(f"starlike load needs q, m >= 1, got q={q}, m={m}")
    edges = []
    for j in range(q):
        first = 1 + j * m
        edges.append((0, first))
        edges.extend((first + t, first + t + 1) for t in range(m - 1))
    return RootedGraph(Graph.from_edges(1 + q * m, edges), root=0)


def vertex_load(g: Graph, load: RootedGraph) -> Graph:
    """Glue a private copy of the load at each support vertex, root on vertex.

    Support keeps labels 0..n-1; the copy at vertex v occupies the block
    n + v*(|L|-1) .., with the load's non-root vertices taken ascending.
    """
    lg = load.graph
    others = [w for w in range(lg.n) if w != load.root]
    lg_edges = lg.edges
    edges = list(g.edges)
    block = len(others)
    for v in range(g.n):
        base = g.n + v * block
        mapping = {load.root: v}
        for k, w in enumerate(others):
            mapping[w] = base + k
        edges.extend((mapping[a], mapping[b]) for a, b in lg_edges)
    return Graph.from_edges(g.n + g.n * block, edges)


def circular_ladder(n: int) -> Graph:
    """Prism over the n-cycle (2n vertices, 3-regular)."""
    return prism(cycle(n))


def moebius_ladder(n: int) -> Graph:
    """2n-cycle plus the n long diagonals i ~ i+n (3-regular)."""
    if n < 3:
        raise ValueError(f"Moebius ladder needs n >= 3, got {n}")
    edges = [(i, (i + 1) % (2 * n)) for i in range(2 * n)]
    edges.extend((i, i + n) for i in range(n))
    return Graph.from_edges(2 * n, edges)


def crossed_prism(n: int) -> Graph:
    """Two n-cycles with rungs crossed over consecutive index pairs.

    Needs even n >= 4: for even i, u_i ~ w_{i+1} and u_{i+1} ~ w_i, with
    u_i = i and w_i = n + i.  3-regular and vertex-transitive.
    """
    if n < 4 or n % 2:
        raise ValueError(f"crossed prism needs even n >= 4, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges.extend((n + i, n + (i + 1) % n) for i in range(n))
    for i in range(0, n, 2):
        edges.append((i, n + (i + 1) % n))
        edges.append(((i + 1) % n, n + i))
    return Graph.from_edges(2 * n, edges)


def antiprism(n: int) -> Graph:
    """Two n-cycles joined by u_i ~ w_i and u_i ~ w_{i+1} (4-regular)."""
    if n < 3:
        raise ValueError(f"antiprism needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges.extend((n + i, n + (i + 1) % n) for i in range(n))
    for i in range(n):
        edges.append((i, n + i))
        edges.append((i, n + (i + 1) % n))
    return Graph.from_edges(2 * n, edges)


def torus(dims: Sequence[int]) -> Graph:
    """Cartesian product of cycles C_{dims[0]} box ... box C_{dims[-1]}."""
    if not dims:
        raise ValueError("torus needs at least one dimension")
    if any(s < 3 for s in dims):
        raise ValueError(f"torus dimensions must all be >= 3, got {tuple(dims)}")
    g = cycle(dims[0])
    for s in dims[1:]:
        g = cartesian_product(g, cycle(s))
    return g


def cycle_with_cliques(n: int, p: int, q: int) -> Graph:
    """q copies of K_p coalesced (glued at one vertex) at each vertex of C_n.

    The cycle keeps labels 0..n-1; each glued clique contributes p-1 fresh
    vertices adjacent to each other and to its cycle vertex.  p = 2 gives
    the generalized sun with q rays per cycle vertex.
    """
    if n < 3 or p < 1 or q < 1:
        raise ValueError(f"need n >= 3 and p, q >= 1, got n={n}, p={p}, q={q}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    nxt = n
    for v in range(n):
        for _ in range(q):
            fresh = list(range(nxt, nxt + p - 1))
            nxt += p - 1
            edges.extend((v, w) for w in fresh)
            edges.extend((a, b) for i, a in enumerate(fresh) for b in fresh[i + 1 :])
    return Graph.from_edges(nxt, edges)


def generalized_sun(n: int, q: int) -> Graph:
    """Cycle C_n with q pendant rays at each vertex (q = 1 is the sun graph)."""
    return cycle_with_cliques(n, 2, q)


def sun(n: int) -> Graph:
    """Minimal corona of the n-cycle: one pendant per cycle vertex, 2n vertices."""
    return generalized_sun(n, 1)


def disjoint_cliques(q: int, p: int) -> Graph:
    """q disjoint copies of K_p (used as the corona ingredient)."""
    if q < 1 or p < 1:
        raise ValueError(f"need q, p >= 1, got q={q}, p={p}")
    edges = []
    for j in range(q):
        base = j * p
        edges.extend((base + a, base + b) for a in range(p) for b in range(a + 1, p))
    return Graph.from_edges(q * p, edges)


def loaded_torus(dims: Sequence[int], q: int, m: int) -> Graph:
    """Torus over dims with a starlike load of q branches of length m per vertex."""
    return vertex_load(torus(dims), starlike_load(q, m))


# Each family's constructor, the names of its parameters and its order in
# closed form, so that a member can be refused by size before anything is built.
_FAMILIES: dict[str, tuple[Callable[..., Graph], tuple[str, ...], Callable[..., int]]] = {
    "cycle": (cycle, ("n",), lambda n: n),
    "path": (path, ("n",), lambda n: n),
    "complete": (complete, ("n",), lambda n: n),
    "star": (star, ("q",), lambda q: q + 1),
    "circular-ladder": (circular_ladder, ("n",), lambda n: 2 * n),
    "moebius-ladder": (moebius_ladder, ("n",), lambda n: 2 * n),
    "crossed-prism": (crossed_prism, ("n",), lambda n: 2 * n),
    "antiprism": (antiprism, ("n",), lambda n: 2 * n),
    "torus": (torus, ("dims",), lambda dims: math.prod(dims)),
    "sun": (sun, ("n",), lambda n: 2 * n),
    "generalized-sun": (generalized_sun, ("n", "q"), lambda n, q: n * (1 + q)),
    "cycle-with-cliques": (cycle_with_cliques, ("n", "p", "q"), lambda n, p, q: n * (1 + q * (p - 1))),
    "loaded-torus": (loaded_torus, ("dims", "q", "m"), lambda dims, q, m: math.prod(dims) * (1 + q * m)),
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def _call(name: str, params: dict, column: int):
    """Column 0 (the constructor) or 2 (the order) of the family's row, called
    on params; ValueError for an unknown name, for parameters other than the
    row's, or for one below 1."""
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(family_names())}")
    row = _FAMILIES[name]
    try:
        if set(params) != set(row[1]):  # a call with them would raise TypeError: do not make it
            raise TypeError(f"takes {', '.join(row[1])}; got {', '.join(params) or 'none'}")
        # Every parameter and every entry of dims has a minimum of at least 1;
        # below it, a closed-form order can still come out positive.
        low = [f"{k}={v}" for k, v in params.items() if min(v if k == "dims" else (v,), default=1) < 1]
        if low:
            raise ValueError(f"family {name!r} needs parameters >= 1, got {', '.join(low)}")
        return row[column](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for family {name!r}: {exc}") from exc


def family(name: str, **params) -> Graph:
    """Build a named family member, e.g. family("torus", dims=(3, 4))."""
    return _call(name, params, 0)


def family_order(name: str, **params) -> int:
    """The number of vertices family(name, **params) has, without building it.

    Parameters the constructor would refuse are checked only for their names
    and for values below 1.
    """
    return _call(name, params, 2)
