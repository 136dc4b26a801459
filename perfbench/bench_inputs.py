"""Seeded, stdlib-only input generation for the orbigraph benchmark.

Every generator takes its randomness from ``random.Random`` seeded with a
string derived from the benchmark seed, so the same seed always yields
byte-identical edge-list files, independent of PYTHONHASHSEED.
"""

from __future__ import annotations

import random
from collections import deque
from pathlib import Path
from typing import Iterable, Sequence


def write_edge_list(path: Path, n: int, edges: Iterable[tuple[int, int]]) -> None:
    """The edge-list format the CLI reads: header "n m", then sorted "u v" lines, u < v."""
    pairs = sorted((min(u, v), max(u, v)) for u, v in edges)
    text = "".join([f"{n} {len(pairs)}\n", *(f"{u} {v}\n" for u, v in pairs)])
    path.write_bytes(text.encode("ascii"))


def read_edge_list(path: Path) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a file written by write_edge_list."""
    lines = path.read_text(encoding="ascii").split("\n")
    n = int(lines[0].split()[0])
    return n, [(int(u), int(v)) for u, v in (ln.split() for ln in lines[1:] if ln)]


def adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _bfs_levels(adj: Sequence[Sequence[int]], root: int) -> list[int]:
    """Distance from root to every vertex (-1 when unreachable)."""
    dist = [-1] * len(adj)
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _is_connected(adj: Sequence[Sequence[int]]) -> bool:
    return min(_bfs_levels(adj, 0)) >= 0


def _stable_colouring(adj: Sequence[Sequence[int]], colours: list[int]) -> list[int]:
    """Colour refinement with colours named by the rank of their signature.

    Ranks of sorted signatures are label-invariant, so the result is an
    isomorphism-invariant colouring whenever the start colouring is one.
    """
    count = len(set(colours))
    while True:
        sigs = [(colours[v], tuple(sorted(colours[w] for w in adj[v]))) for v in range(len(adj))]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colours = [rank[s] for s in sigs]
        if len(rank) == count:
            return colours
        count = len(rank)


def certified_rigid(adj: Sequence[Sequence[int]]) -> bool:
    """True only if the graph provably has a trivial automorphism group.

    Each vertex starts coloured by its BFS level-size profile, an invariant
    every automorphism preserves; if colour refinement from there ends with
    every vertex in its own colour, every automorphism fixes every vertex.
    False means "not certified", not "has a symmetry".
    """
    profiles = []
    for v in range(len(adj)):
        dist = _bfs_levels(adj, v)
        sizes = [0] * (max(dist) + 1)
        for d in dist:
            sizes[d] += 1
        profiles.append(tuple(sizes))
    rank = {p: i for i, p in enumerate(sorted(set(profiles)))}
    colours = _stable_colouring(adj, [rank[p] for p in profiles])
    return len(set(colours)) == len(adj)


def random_cubic_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform pairing model for 3-regular graphs on n vertices (n even).

    A pairing is resampled when it has a loop or a repeated edge, when the
    graph is disconnected, or when its rigidity cannot be certified, so the
    result is a connected simple cubic graph with a trivial automorphism group.
    """
    if n < 8 or n % 2:
        raise ValueError(f"random cubic graph needs even n >= 8, got {n}")
    points = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = points[i], points[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                break
            edges.add((min(u, v), max(u, v)))
        else:
            adj = adjacency(n, edges)
            if _is_connected(adj) and certified_rigid(adj):
                return sorted(edges)


def cubic_graph(seed: int, n: int) -> list[tuple[int, int]]:
    return random_cubic_edges(n, random.Random(f"orbigraph-bench:{seed}:cubic:{n}"))


def relabelling(seed: int, n: int) -> list[int]:
    """Seeded permutation: vertex v of the original becomes image[v]."""
    image = list(range(n))
    random.Random(f"orbigraph-bench:{seed}:relabel:{n}").shuffle(image)
    return image


def relabel_edges(edges: Iterable[tuple[int, int]], image: Sequence[int]) -> list[tuple[int, int]]:
    return sorted((min(image[u], image[v]), max(image[u], image[v])) for u, v in edges)
