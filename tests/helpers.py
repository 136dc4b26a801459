"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from collections import deque
from fractions import Fraction
from functools import reduce
from itertools import combinations, compress, islice
from math import factorial
from operator import add, mul, truediv
from pathlib import Path
from typing import NamedTuple, Sequence

import hypothesis.strategies as st

import orbigraph
from orbigraph import constructions as cons
from orbigraph.aut import AutGroup, Partition, _join, _root, automorphism_group, orbit_partition
from orbigraph.cli import _write_json
from orbigraph.graph_core import Graph, GraphFormatError, _edge_list_header, _graph6_header, _significant, is_connected
from orbigraph.orbital import DivisorMatrix, divisor_matrix
from orbigraph.spectral import _Envelope


def child_env() -> dict:
    """The environment of a child Python that imports these sources."""
    src = str(Path(orbigraph.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_child(code: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """A fresh Python running code with args as sys.argv[1:], text output captured."""
    argv = [sys.executable, *flags, "-c", code, *args]
    return subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=120)


def line_scan(text: str) -> Graph:
    """parse_edge_list one line at a time, with a list of all significant
    lines, checked in the order of its messages: the edge-line count, then
    each edge line, then duplicates.  An integer is ASCII decimal digits.
    The reference that parse_edge_list is tested against."""
    n, m = _edge_list_header(text)
    lines = list(filter(_significant, text.splitlines()))
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    rows: list[list[int]] = [[] for _ in range(n)]
    for ln in islice(lines, 1, None):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"edge line must be 'u v', got {ln!r}")
        if not all(re.fullmatch("[0-9]+", part) for part in parts):
            raise GraphFormatError(f"edge line must contain integers, got {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise GraphFormatError(f"loop {u} {v} not allowed")
        if u > v:
            raise GraphFormatError(f"edge endpoints must satisfy u < v, got {ln!r}")
        if not (0 <= u < v < n):
            raise GraphFormatError(f"edge {u} {v} out of range for n={n}")
        rows[u].append(v)
        rows[v].append(u)
    for u, row in enumerate(rows):
        row.sort()
        # Rows before u hold no repeat, so each repeat here is a larger neighbour.
        v = next((v for v, w in zip(row, row[1:]) if v == w), None)
        if v is not None:
            raise GraphFormatError(f"duplicate edge {u} {v}")
    return Graph(n, rows)


def graph6_bit_list(text: str) -> Graph:
    """parse_graph6 with one list item per bit of the body, checked in the
    order of its messages: more than one graph, the body length, then each
    byte.  The reference that parse_graph6 is tested against."""
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
        bits.extend((value >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    # Column v holds v's smaller neighbours, upper triangle in column-major order.
    rows: list[list[int]] = [[] for _ in range(n)]
    k = 0
    for v in range(1, n):
        for u in compress(range(v), bits[k : k + v]):
            rows[u].append(v)
            rows[v].append(u)
        k += v
    return Graph(n, [sorted(row) for row in rows])


# The graphs of the benchmark's families workload and the terms of its
# sequences: every orbit divisor matrix there has at most 13 cells.
FAMILY_GRAPHS = {
    "cycle_with_cliques(50,3,2)": cons.cycle_with_cliques(50, 3, 2),
    "generalized_sun(60,2)": cons.generalized_sun(60, 2),
    "loaded_torus((8,8),2,3)": cons.loaded_torus((8, 8), 2, 3),
    "loaded_torus((6,8),2,3)": cons.loaded_torus((6, 8), 2, 3),
    "torus((20,25))": cons.torus((20, 25)),
    "corona(cycle(20),disjoint_cliques(2,3))": cons.corona(cons.cycle(20), cons.disjoint_cliques(2, 3)),
    "crossed_prism(200)": cons.crossed_prism(200),
}
FAMILY_SEQUENCES = {
    "generalized-sun": {"family": "generalized-sun", "p": 3, "q": 2, "start": 20},
    "loaded-multi-torus-m3": {"family": "loaded-multi-torus", "q": 2, "m": 3, "r": 2,
                              "schedule": [[3, 4], [4, 4], [4, 5], [5, 5], [5, 6]]},
    "corona-family": {"family": "corona-family", "p": 3, "q": 2, "base": {"family": "cycles", "start": 12}},
    "loaded-multi-torus-m12": {"family": "loaded-multi-torus", "q": 1, "m": 12, "r": 1, "schedule": [3, 4, 5, 6, 7]},
}


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q}: vertices 0..p-1 on one side, p..p+q-1 on the other."""
    return Graph.from_edges(p + q, [(a, b) for a in range(p) for b in range(p, p + q)])


def tied_star() -> Graph:
    """Hub adjacent to all four other vertices, plus one rim edge (0-4).

    Orbits {0,4}, {2,3}, {1}; same orbit size distribution as the path P5
    but a different divisor matrix.
    """
    return Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (1, 3), (1, 4)])


def rigid_cubic(seed: int, n: int) -> Graph:
    """A connected cubic graph on n vertices with a trivial automorphism group,
    from random perfect matchings of 3n half-edges; a sample is kept only if
    certified_rigid proves it rigid.  ValueError unless n is even and at
    least 12: a cubic graph has an even order, and none of order below 12
    is rigid, so sampling would never end."""
    if n % 2 or n < 12:
        raise ValueError(f"no rigid cubic graph has {n} vertices")
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            graph = Graph.from_edges(n, pairs)
            if is_connected(graph) and certified_rigid(graph):
                return graph


def pendant_trees() -> Graph:
    """rigid_cubic(5, 20) with two pendant trees: a path 20-21-22 hung at
    vertex 0, and at vertex 10 a branch 23 that carries the leaf 24 and the
    path 25-26.  Rigid, and _fold changes it: its search ends at a single
    leaf of the folded quotient."""
    edges = [*rigid_cubic(5, 20).edges, (0, 20), (20, 21), (21, 22), (10, 23), (23, 24), (23, 25), (25, 26)]
    return Graph.from_edges(27, edges)


def two_hamiltonian_cycles(rng: random.Random, n: int) -> Graph:
    """The union of two Hamiltonian cycles on range(n), each a shuffle by
    rng in turn: degrees 2 to 4, and for most seeds rigid."""
    edges = set()
    for _ in range(2):
        cycle = list(range(n))
        rng.shuffle(cycle)
        edges.update(zip(cycle, cycle[1:] + cycle[:1]))
    return Graph.from_edges(n, edges)


def relabelled(graph: Graph, seed: int) -> Graph:
    """graph under the seeded random permutation random.Random(seed).sample."""
    return graph.relabel(random.Random(seed).sample(range(graph.n), graph.n))


def spider(legs: Sequence[int]) -> Graph:
    """Paths of the given lengths glued at a common end vertex 0."""
    edges, n = [], 1
    for length in legs:
        edges += [(0 if t == 0 else n + t - 1, n + t) for t in range(length)]
        n += length
    return Graph.from_edges(n, edges)


def frucht() -> Graph:
    """The Frucht graph: cubic, 12 vertices, trivial automorphism group;
    LCF notation [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2]."""
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    return Graph.from_edges(12, [(i, (i + 1) % 12) for i in range(12)] + [(i, (i + s) % 12) for i, s in enumerate(lcf)])


def cfi_graph(base_edges: Sequence[tuple[int, int]], twist: Sequence[int] = (), by_gadget: bool = False) -> Graph:
    """The Cai-Fuerer-Immerman graph over a base graph given by its edges
    (Cai, Fuerer & Immerman, Combinatorica 12, 1992).

    A base vertex v with incident edges e_1 < ... < e_d becomes 2^(d-1)
    middle vertices, one per even subset S of its edges, then an end pair
    (e, 0), (e, 1) per incident edge; the middle vertex of S is adjacent to
    (e, 1) for e in S and (e, 0) otherwise.  A base edge joins its two end
    pairs straight, (u, e, i) - (v, e, i), or crossed if its index is in
    `twist`.  Over a connected base, graphs whose twists have the same
    parity are isomorphic and the two parities are not.  Vertices are
    numbered slot by slot: the j-th vertex of every base vertex, in base
    vertex order, comes before the (j+1)-th of any; or, `by_gadget`, base
    vertex by base vertex, so that over a cubic base on 0..k-1 the j-th
    vertex of v is 10v + j.
    """
    incident: dict[int, list[int]] = {}
    for i, (u, v) in enumerate(base_edges):
        incident.setdefault(u, []).append(i)
        incident.setdefault(v, []).append(i)
    end: dict[tuple[int, int], int] = {}  # (base vertex, edge) -> the slot of (e, 0)
    edges = []  # between (base vertex, slot) pairs
    for v, own in incident.items():
        subsets = [S for k in range(0, len(own) + 1, 2) for S in combinations(own, k)]
        for j, e in enumerate(own):
            end[v, e] = len(subsets) + 2 * j
        for m, S in enumerate(subsets):
            edges += [((v, m), (v, end[v, e] + (e in S))) for e in own]
    crossed = set(twist)
    for i, (u, v) in enumerate(base_edges):
        for side in (0, 1):
            edges.append(((u, end[u, i] + side), (v, end[v, i] + (side ^ (i in crossed)))))
    slots = sorted({key for edge in edges for key in edge}, key=None if by_gadget else lambda key: (key[1], key[0]))
    index = {key: i for i, key in enumerate(slots)}
    return Graph.from_edges(len(slots), [(index[a], index[b]) for a, b in edges])


def certified_rigid(graph: Graph) -> bool:
    """True only if graph provably has a trivial automorphism group (test
    oracle, independent of orbigraph.aut).

    Each vertex starts coloured by its BFS level-size profile, an invariant
    every automorphism preserves; if colour refinement from there ends with
    every vertex in its own colour, every automorphism fixes every vertex.
    False means "not certified", not "has a symmetry".
    """
    profiles = []
    for v in range(graph.n):
        sizes, seen, layer = [], {v}, [v]
        while layer:
            sizes.append(len(layer))
            next_layer = []
            for u in layer:
                for w in graph.adjacency[u]:
                    if w not in seen:
                        seen.add(w)
                        next_layer.append(w)
            layer = next_layer
        profiles.append(tuple(sizes))
    return len(naive_equitable_refinement(graph, partition_by(profiles))) == graph.n


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): outer cycle 0..n-1, spokes i -- n+i, and inner edges
    n+i -- n+(i+k mod n); cubic for 1 <= k < n/2."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return Graph.from_edges(2 * n, edges)


def paley(q: int) -> Graph:
    """The Paley graph of a prime q = 1 (mod 4): vertices 0..q-1, x ~ y iff
    y - x is a nonzero square mod q.  Its automorphisms are the maps
    x -> ax + b with a a nonzero square, so its group order is q(q-1)/2."""
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(q, [(x, y) for x in range(q) for y in range(x + 1, q) if y - x in squares])


def triangular(k: int) -> Graph:
    """T(k), the line graph of K_k: two pairs are adjacent iff they meet.
    Two pairs meet in at most one point, so each edge lies in one point's clique."""
    pairs = list(combinations(range(k), 2))
    index = {p: i for i, p in enumerate(pairs)}
    return Graph.from_edges(len(pairs), [e for x in range(k) for e in combinations([index[p] for p in pairs if x in p], 2)])


def all_graphs(n: int):
    """Every labeled graph on 0..n-1."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, (p for i, p in enumerate(pairs) if mask >> i & 1))


def all_connected_graphs(n: int):
    return (g for g in all_graphs(n) if is_connected(g))


def dense_image(generator, n: int) -> tuple[int, ...]:
    """The image of each of 0..n-1 under a generator given as its
    (v, image of v) pairs over the moved v."""
    image = list(range(n))
    for v, w in generator:
        image[v] = w
    return tuple(image)


def preserves_edges(generator, graph: Graph) -> bool:
    """True iff the generator, in sparse form, maps every edge of graph onto an edge."""
    img = dense_image(generator, graph.n)
    edges = graph.edges
    return all((min(img[u], img[v]), max(img[u], img[v])) in edges for u, v in edges)


def generated_group(generators, n: int) -> set[tuple[int, ...]]:
    """Every element of the group the generators generate, as dense images:
    the closure of the identity under composition with each generator."""
    dense = [dense_image(g, n) for g in generators]
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        step = []
        for p in frontier:
            for g in dense:
                q = tuple(g[v] for v in p)
                if q not in seen:
                    seen.add(q)
                    step.append(q)
        frontier = step
    return seen


def check_generator_form(group: AutGroup, graph: Graph) -> None:
    """Assert that every generator is in sparse form (moved points ascending,
    none mapped to itself, images a permutation of the moved points) and an
    automorphism of graph."""
    for gen in group.generators:
        moved = [v for v, _ in gen]
        assert moved == sorted(set(moved)) and sorted(w for _, w in gen) == moved, gen
        assert all(v != w for v, w in gen), gen
        assert preserves_edges(gen, graph), gen


def check_generators(group: AutGroup, graph: Graph) -> None:
    """check_generator_form, and that the generators generate exactly
    group.order elements, each of which is listed."""
    check_generator_form(group, graph)
    assert len(generated_group(group.generators, graph.n)) == group.order


def _brute_force_automorphisms(graph: Graph):
    """Every edge-preserving permutation, by enumerating all n! of them."""
    from itertools import permutations

    edges = graph.edges
    for img in permutations(range(graph.n)):
        if all(((img[u], img[v]) if img[u] < img[v] else (img[v], img[u])) in edges for u, v in edges):
            yield img


def brute_force_group_order(graph: Graph) -> int:
    """Count edge-preserving permutations directly (test oracle, n <= 8)."""
    assert graph.n <= 8
    return sum(1 for _ in _brute_force_automorphisms(graph))


def brute_force_orbits(graph: Graph) -> Partition:
    """Orbit partition from every automorphism (test oracle, n <= 8), canonical order."""
    assert 1 <= graph.n <= 8
    orbit = list(range(graph.n))
    for img in _brute_force_automorphisms(graph):
        for v in range(graph.n):
            orbit[v] = min(orbit[v], img[v])
    return partition_by(orbit)


def naive_equitable_refinement(graph: Graph, seed: Partition) -> Partition:
    """Coarsest equitable refinement by whole-partition rounds (test oracle).

    Each round recolours every vertex by its colour and the multiset of its
    neighbours' colours, until the number of colours stops growing.
    """
    adj = graph.adjacency
    colour = seed.cell_index()
    while True:
        keys = [(colour[v], tuple(sorted(colour[w] for w in adj[v]))) for v in range(graph.n)]
        ids = {key: i for i, key in enumerate(sorted(set(keys)))}
        if len(ids) == len(set(colour)):
            break
        colour = [ids[key] for key in keys]
    return partition_by(colour)


def dense_singleton_map(first_leaf: Sequence[int], node) -> dict[int, int] | None:
    """The candidate that a search node's singletons give, from a scan of
    all n positions against the first leaf; the reference for
    _AutSearch._singleton_map."""
    cell_of, clen = node.cell_of, node.clen
    image = {}
    for a, b in zip(first_leaf, node.lab):
        if a != b:
            c = cell_of[b]
            if clen[c] == 1:
                image[a] = b
            elif cell_of[a] != c:
                return None
    return image


def bfs_profile_split(adj: Sequence[Sequence[int]], cell: Sequence[int]) -> list[list[int]] | None:
    """The cell split by its members' distance-layer profiles, from a plain
    BFS of each member's whole ball; the reference for aut._profile_split
    without its budget.

    Entry d of a member's profile is the size of layer d, the arcs out of
    layer d-1 into layer d beyond one per vertex of layer d, and the arcs
    out of layer d-1 into layer d-1; the last entry is that of the first
    empty layer.  The cell splits at the first entry where the members
    differ, fragments in ascending entry order; None if they never do.
    """
    profiles = []
    for v in cell:
        distance, layers = {v: 0}, [[v]]
        while layers[-1]:
            layer = []
            for u in layers[-1]:
                for w in adj[u]:
                    if w not in distance:
                        distance[w] = len(layers)
                        layer.append(w)
            layers.append(layer)
        profile = []
        for d in range(1, len(layers)):
            heads = [distance[w] for u in layers[d - 1] for w in adj[u]]
            profile.append((len(layers[d]), heads.count(d) - len(layers[d]), heads.count(d - 1)))
        profiles.append(profile)
    for d in range(max(map(len, profiles))):
        entries = [profile[d] if d < len(profile) else None for profile in profiles]
        if len(set(entries)) > 1:
            fragments: dict = {}
            for v, entry in zip(cell, entries):
                fragments.setdefault(entry, []).append(v)
            return [fragments[entry] for entry in sorted(fragments)]
    return None


def partition_by(colour) -> Partition:
    """Partition of 0..n-1 grouping vertices of equal colour[v], canonical order."""
    cells: dict = {}
    for v, c in enumerate(colour):
        cells.setdefault(c, []).append(v)
    return Partition.from_cells(cells.values()).canonical()


def tree_symmetry(tree: Graph, root: int | None = None) -> tuple[int, list[tuple]]:
    """|Aut| of a tree and an orbit key for each vertex, counted bottom-up
    (test oracle, after the tree isomorphism test of Aho, Hopcroft & Ullman).

    The tree hangs from root, or else from its centre: the one or two
    vertices left when leaves are stripped layer by layer.  Each rooted
    subtree's code is the sorted tuple of its children's codes, equal for
    isomorphic subtrees of any trees, and |Aut| is the product
    over vertices of k! for every k children with one code, times 2 when the
    two centres have equal codes.  Two vertices share an orbit iff the codes
    on their paths down from the root (from their own centre) agree.  With a
    root given, the order and keys are those of the automorphisms fixing it.
    """
    adj, n = tree.adjacency, tree.n
    assert is_connected(tree) and len(tree.edges) == n - 1
    if root is not None:
        tops = [root]
    else:
        degree = [len(row) for row in adj]
        tops, left = [v for v in range(n) if degree[v] <= 1], n
        while left > 2:
            left -= len(tops)
            stripped = []
            for v in tops:
                for w in adj[v]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        stripped.append(w)
            tops = stripped
    parent = [-1] * n
    order = list(tops)
    seen = set(tops)
    for v in order:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                order.append(w)
    children: list[list[int]] = [[] for _ in range(n)]
    for v in order:
        if parent[v] >= 0:
            children[parent[v]].append(v)
    code: list[tuple] = [()] * n
    size = 1
    for v in reversed(order):
        code[v] = tuple(sorted(code[c] for c in children[v]))
        for c in set(code[v]):
            size *= factorial(code[v].count(c))
    if len(tops) == 2 and code[tops[0]] == code[tops[1]]:
        size *= 2
    keys: list[tuple] = [()] * n
    for v in order:
        keys[v] = (keys[parent[v]] if parent[v] >= 0 else ()) + (code[v],)
    return size, keys


@st.composite
def trees(draw, max_n: int = 40):
    """A random tree: vertex i hangs from one of the `span` vertices before it
    (a path for span 1), or copies of a random tree hang from a new root,
    once or on both ends of an edge; labels shuffled."""
    if draw(st.booleans()):
        n = draw(st.integers(1, max_n))
        span = draw(st.integers(1, max(1, n - 1)))
        edges = [(i, draw(st.integers(max(0, i - span), i - 1))) for i in range(1, n)]
    else:
        k = draw(st.integers(1, 6))
        branch = [(i, draw(st.integers(0, i - 1))) for i in range(1, k)]
        copies = draw(st.integers(1, 4))
        edges = [(0, 1 + c * k) for c in range(copies)]
        edges += [(1 + c * k + a, 1 + c * k + b) for c in range(copies) for a, b in branch]
        n = 1 + copies * k
        if draw(st.booleans()):
            edges += [(n + a, n + b) for a, b in edges] + [(0, n)]
            n *= 2
    image = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(image[a], image[b]) for a, b in edges])


def is_isomorphism(phi, a, b) -> bool:
    """Whether phi maps the coloured digraph a onto b, each given as
    (colour, rows), colours and arcs with their weights."""
    (colour_a, rows_a), (colour_b, rows_b) = a, b
    return sorted(phi) == list(range(len(rows_b))) and all(
        colour_b[phi[v]] == colour_a[v] and tuple(sorted(phi[w] for w in rows_a[v])) == rows_b[phi[v]]
        for v in range(len(rows_a))
    )


def dense(dm: DivisorMatrix) -> tuple[tuple[int, ...], ...]:
    """The ell x ell entries of a divisor matrix as a tuple of dense rows."""
    entries = [[0] * dm.ell for _ in range(dm.ell)]
    for i, row in enumerate(dm.rows):
        for j, x in row:
            entries[i][j] = x
    return tuple(map(tuple, entries))


def written(obj) -> str:
    """What the CLI's JSON writer writes for obj, its writes joined."""
    writes: list[str] = []
    _write_json(obj, writes.append)
    return "".join(writes)


def json_form(dm: DivisorMatrix) -> dict:
    """The JSON dict the CLI prints for a divisor matrix, read back."""
    return json.loads(written(dm))


def from_dense(entries, sizes) -> DivisorMatrix:
    """The divisor matrix with these dense rows and cell sizes; every nonzero
    entry, negative ones included, becomes a (column, entry) pair."""
    rows = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in entries)
    return DivisorMatrix(len(rows), rows, tuple(sizes))


def dense_divisor_matrix(graph: Graph, partition: Partition) -> tuple[tuple[int, ...], ...]:
    """Dense rows of the divisor matrix of an equitable partition (test oracle).

    Counts each vertex's neighbours per cell in a list of ell zeros and
    compares whole lists; raises the ValueError of orbital.divisor_matrix,
    naming the first column where two vertices of a cell differ.
    """
    adj = graph.adjacency
    idx = partition.cell_index()
    ell = len(partition.cells)
    rows = []
    for i, cell in enumerate(partition.cells):
        ref = None
        for u in cell:
            counts = [0] * ell
            for w in adj[u]:
                counts[idx[w]] += 1
            if ref is None:
                ref = counts
            elif counts != ref:
                j = next(k for k in range(ell) if counts[k] != ref[k])
                raise ValueError(
                    f"partition not equitable: vertices {cell[0]} and {u} of cell {i} "
                    f"have {ref[j]} vs {counts[j]} neighbors in cell {j}"
                )
        rows.append(tuple(ref))
    return tuple(rows)


def _cell_keys(dm: DivisorMatrix) -> list[tuple]:
    """Per-cell invariants preserved by any valid cell pairing."""
    total = sum(dm.sizes)
    entries = dense(dm)
    cols = list(zip(*entries))
    return [
        (Fraction(dm.sizes[i], total), sum(entries[i]), tuple(sorted(entries[i])), tuple(sorted(cols[i])))
        for i in range(dm.ell)
    ]


def _find_witness(sg: DivisorMatrix, sh: DivisorMatrix) -> tuple[int, ...] | None:
    """Permutation pi with B_g[pi[i]][pi[j]] == B_h[i][j] and equal relative
    sizes, or None (test oracle: backtracking over cell pairings with
    invariant pruning, exponential in the cell count)."""
    ell = sg.ell
    keys_g = _cell_keys(sg)
    keys_h = _cell_keys(sh)
    if sorted(keys_g) != sorted(keys_h):
        return None
    bg, bh = dense(sg), dense(sh)
    candidates = [sorted(a for a in range(ell) if keys_g[a] == keys_h[i]) for i in range(ell)]
    assignment: list[int] = []
    used = [False] * ell

    def extend(i: int) -> bool:
        if i == ell:
            return True
        for a in candidates[i]:
            if used[a]:
                continue
            ok = all(
                bg[assignment[j]][a] == bh[j][i] and bg[a][assignment[j]] == bh[i][j]
                for j in range(i)
            )
            if ok and bg[a][a] == bh[i][i]:
                assignment.append(a)
                used[a] = True
                if extend(i + 1):
                    return True
                assignment.pop()
                used[a] = False
        return False

    return tuple(assignment) if extend(0) else None


def equalizes(witness, sg: DivisorMatrix, sh: DivisorMatrix) -> bool:
    """True iff witness relabels sh's cells onto sg's with equal entries and relative sizes."""
    ng, nh = sum(sg.sizes), sum(sh.sizes)
    bg, bh = dense(sg), dense(sh)
    return sorted(witness) == list(range(sh.ell)) == list(range(sg.ell)) and all(
        bg[witness[i]][witness[j]] == bh[i][j]
        and Fraction(sg.sizes[witness[i]], ng) == Fraction(sh.sizes[i], nh)
        for i in range(sh.ell)
        for j in range(sh.ell)
    )


def refines(fine: Partition, coarser: Partition) -> bool:
    """True iff every cell of fine is contained in one cell of coarser."""
    idx = coarser.cell_index()
    return all(len({idx[v] for v in cell}) == 1 for cell in fine.cells)


def is_edge_transitive(graph: Graph) -> bool:
    """True iff Aut(graph) acts transitively on the (unordered) edge set."""
    if graph.m == 0:
        raise ValueError("edge transitivity undefined for edgeless graphs")
    group = automorphism_group(graph)
    parent = {e: e for e in graph.edges}
    for g in group.generators:
        image = dict(g)
        for u, a in g:
            # An edge with both ends fixed maps onto itself.
            for v in graph.adjacency[u]:
                b = image.get(v, v)
                _join(parent, ((u, v) if u < v else (v, u)), ((a, b) if a < b else (b, a)))
    return len({_root(parent, e) for e in parent}) == 1


def omega_from_divisor(entries: Sequence[Sequence[int]]) -> tuple[Fraction, ...]:
    """Recover relative cell sizes from divisor-matrix entries alone.

    Size ratios between adjacent cells follow from the edge-count balance
    sizes[i] * entries[i][j] == sizes[j] * entries[j][i]; ratios along a BFS
    tree over the cell graph determine everything, and every non-tree arc
    is checked for consistency.  Returned in cell order, unsorted.
    """
    ell = len(entries)
    if ell == 0:
        raise ValueError("empty matrix")
    rows = [tuple(row) for row in entries]
    for i, row in enumerate(rows):
        if len(row) != ell:
            raise ValueError(f"row {i} has length {len(row)}, expected {ell}")
        if any((not isinstance(x, int)) or x < 0 for x in row):
            raise ValueError(f"row {i} must contain nonnegative integers")
    for i in range(ell):
        for j in range(i + 1, ell):
            if (rows[i][j] > 0) != (rows[j][i] > 0):
                raise ValueError(
                    f"inconsistent matrix: entry ({i},{j})={rows[i][j]} but ({j},{i})={rows[j][i]}"
                )
    ratio: list[Fraction | None] = [None] * ell
    ratio[0] = Fraction(1)
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in range(ell):
            if v != u and rows[u][v] > 0 and ratio[v] is None:
                # sizes[v]/sizes[u] = entries[u][v]/entries[v][u]
                ratio[v] = ratio[u] * Fraction(rows[u][v], rows[v][u])
                queue.append(v)
    if any(r is None for r in ratio):
        missing = [i for i, r in enumerate(ratio) if r is None]
        raise ValueError(f"matrix is not strongly connected: cells {missing} unreachable from 0")
    for i in range(ell):
        for j in range(ell):
            if i != j and rows[i][j] > 0 and ratio[i] * rows[i][j] != ratio[j] * rows[j][i]:
                raise ValueError(
                    f"inconsistent size ratios along arc ({i},{j}): "
                    "matrix cannot come from an orbit partition"
                )
    total = sum(ratio, Fraction(0))
    return tuple(r / total for r in ratio)


def bisection_top(kernel, sums) -> float:
    """rho of an envelope kernel's matrix by plain bisection on its M-matrix
    test (test oracle): from the row-sum bracket until no float lies strictly
    between the ends, the upper end always a shift that factors."""
    lo, hi = float(min(sums)), float(max(sums))
    while lo < (mid := (lo + hi) / 2) < hi:
        if kernel.factor(mid) is None:
            lo = mid
        else:
            hi = mid
    return hi


class ReferenceEnvelope(_Envelope):
    """The envelope kernel with every row run through the general row loop
    (test oracle): _Envelope runs rows of width one and updates of one
    product as scalars, and must give these results bit for bit.  Every sum
    runs left to right from 0.0, as _Envelope's do on every Python.  top and
    pinned are _Envelope's, and run on these loops."""

    def factor(self, shift: float) -> tuple[list[list[float]], list[float]] | None:
        low, piv = [], []
        for f, band, m_kk, updates in zip(self.first, self.band, self.diag, self.updates):
            g = band[:]
            for i, a, j, b in updates:
                g[i] -= reduce(add, map(mul, g[a:i], low[j][b:]), 0.0)
            row = list(map(truediv, g, piv[f:]))
            d = shift - m_kk - reduce(add, map(mul, g, row), 0.0)
            if not d > 0.0:
                return None
            low.append(row)
            piv.append(d)
        return low, piv

    def solve(self, factor: tuple[list[list[float]], list[float]], b: list[float]) -> list[float]:
        low, piv = factor
        z = [b[c] for c in self.order]
        for k, f in enumerate(self.first):
            if f < k:
                z[k] -= reduce(add, map(mul, low[k], z[f:k]), 0.0)
        z = list(map(truediv, z, piv))
        for k in range(len(z) - 1, 0, -1):
            f, zk = self.first[k], z[k]
            z[f:k] = [x - l * zk for x, l in zip(z[f:k], low[k])]
        x = [0.0] * len(self.rows)
        for c, v in zip(self.order, z):
            x[c] = v
        return x


class OrbitConstancyReport(NamedTuple):
    """In-orbit spread of the principal eigenvector and the quotient residual."""

    cell_spreads: tuple[float, ...]
    max_spread: float
    quotient_residual: float
    ok: bool


def check_orbit_constancy(
    graph: Graph, partition: Partition | None = None, tol: float = 1e-9
) -> OrbitConstancyReport:
    """Verify the principal eigenvector is constant on each orbit cell and
    that the per-cell constants form an eigenvector of the divisor matrix.

    The eigenvector comes from a dense eigh of A, independent of the orbit
    partition and of the divisor solve in spectral_radius_adjacency, so its
    constancy on orbit cells is a genuine check of the equitable-partition
    lemma that spectral relies on.  It always imports numpy.
    """
    import numpy as np

    if partition is None:
        partition = orbit_partition(graph)
    dm = divisor_matrix(graph, partition)
    a = np.zeros((graph.n, graph.n))
    edges = np.array(list(graph.edges), dtype=np.intp).reshape(-1, 2)
    a[edges[:, 0], edges[:, 1]] = a[edges[:, 1], edges[:, 0]] = 1.0
    values, vectors = np.linalg.eigh(a)
    x = vectors[:, -1] / vectors[:, -1].sum()
    spreads = tuple(float(np.ptp(x[list(cell)])) for cell in partition.cells)
    alpha = np.array([x[list(cell)].mean() for cell in partition.cells])
    b = np.zeros((dm.ell, dm.ell))
    for i, row in enumerate(dm.rows):
        for j, count in row:
            b[i, j] = count
    residual = float(np.max(np.abs(b @ alpha - values[-1] * alpha)))
    max_spread = max(spreads)
    return OrbitConstancyReport(
        cell_spreads=spreads,
        max_spread=max_spread,
        quotient_residual=residual,
        ok=max_spread < tol and residual < tol,
    )


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 7):
    """Random graph, connected or not: a random edge mask on n vertices."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 7):
    """Random connected graph: a graph of graphs() patched with a spanning path."""
    g = draw(graphs(min_n, max_n))
    if not is_connected(g):
        edges = set(g.edges)
        order = draw(st.permutations(range(g.n)))
        for a, b in zip(order, order[1:]):
            edges.add((min(a, b), max(a, b)))
        g = Graph.from_edges(g.n, edges)
    return g


@st.composite
def partitions(draw, n: int):
    """Random Partition of 0..n-1: the classes of a random colouring, in a random order."""
    colour = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return Partition(tuple(draw(st.permutations(partition_by(colour).cells))))


@st.composite
def vertex_permutations(draw, n: int):
    return tuple(draw(st.permutations(range(n))))
