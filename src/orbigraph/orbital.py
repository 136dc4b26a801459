"""Orbit divisor matrices, distribution vectors, entropy, and similarity.

Two connected graphs count as orbitally similar when their orbit divisor
matrices can be made entrywise equal by relabeling the cells of one of
them.  That is an isomorphism of the cell digraphs: cell i is a vertex
coloured by its relative size and B_ii, and each other cell j is listed
B_ij times in i's row, an arc of weight B_ij.  The one IR engine of aut
decides it exactly, for any number of cells.
All matrix comparisons are exact integer equality; the only float anywhere
in this module is the entropy value.
"""

import math
from collections import deque
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import NamedTuple, Sequence

from .aut import ColouredDigraph, Partition, isomorphism, orbit_partition
from .graph_core import Graph, is_connected


class DivisorMatrix(NamedTuple):
    """Per-cell neighbor counts over an equitable partition, with cell sizes.

    B_ij is the number of neighbors every vertex of cell i has in cell j.
    The matrix is held as sparse rows: rows[i] has a (j, B_ij) pair for
    every positive B_ij, in ascending j, so a rigid graph with ell = n
    cells costs O(m), not O(ell**2).  Row sums are the common cell degrees.
    The JSON form (as_dict, from_dict) is the flat row-major list of all
    ell**2 entries.
    """

    ell: int
    rows: tuple[tuple[tuple[int, int], ...], ...]
    sizes: tuple[int, ...]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(map(itemgetter(1), row)) for row in self.rows)

    def as_dict(self) -> dict:
        ell = self.ell
        flat = [0] * ell**2
        for i, row in enumerate(self.rows):
            for j, x in row:
                flat[i * ell + j] = x
        return {"ell": ell, "entries": flat, "sizes": list(self.sizes)}

    @classmethod
    def from_dict(cls, data: dict) -> "DivisorMatrix":
        """The matrix of an as_dict record; ValueError unless ell >= 1, there
        are ell**2 non-negative int entries and ell positive int sizes."""
        ell, flat, sizes = data["ell"], data["entries"], data["sizes"]
        if type(ell) is not int or ell < 1:
            raise ValueError(f"divisor matrix needs an int ell >= 1, got {ell!r}")
        if len(flat) != ell**2 or len(sizes) != ell:
            raise ValueError(
                f"divisor matrix with ell = {ell} needs {ell**2} entries and {ell} sizes, "
                f"got {len(flat)} and {len(sizes)}"
            )
        if not all(type(x) is int and x >= 0 for x in flat):
            raise ValueError("divisor matrix entries must be non-negative ints")
        if not all(type(s) is int and s > 0 for s in sizes):
            raise ValueError("divisor matrix sizes must be positive ints")
        rows = tuple(
            tuple((j, flat[base + j]) for j in compress(range(ell), flat[base : base + ell]))
            for base in range(0, ell**2, ell)
        )
        return cls(ell, rows, tuple(sizes))


class OrbitProfile(NamedTuple):
    """Orbit distribution vector (descending, exact) and its base-2 entropy."""

    omega: tuple[Fraction, ...]
    entropy: float


class SimilarityVerdict(NamedTuple):
    """Outcome of an orbital-similarity test between two connected graphs.

    When similar, witness maps the second graph's cell index i to the first
    graph's cell index witness[i] such that the relabeled matrices agree
    entrywise; common_matrix carries the shared entries with the first
    graph's cell sizes in matched order.
    """

    similar: bool
    witness: tuple[int, ...] | None = None
    common_matrix: DivisorMatrix | None = None

    def as_dict(self) -> dict:
        return {
            "similar": self.similar,
            "witness": list(self.witness) if self.witness is not None else None,
            "common_matrix": self.common_matrix.as_dict() if self.common_matrix else None,
        }


def divisor_matrix(graph: Graph, partition: Partition) -> DivisorMatrix:
    """Divisor (quotient) matrix of an equitable partition of a connected graph.

    Every vertex of a cell must have the same number of neighbors in each
    other cell; the first offending pair is reported otherwise.
    """
    if not is_connected(graph):
        raise ValueError("divisor matrix defined here for connected graphs only")
    if partition.n != graph.n:
        raise ValueError(f"partition covers {partition.n} vertices, graph has {graph.n}")
    adj = graph.adjacency
    idx = partition.cell_index()
    rows: list[tuple[tuple[int, int], ...]] = []
    for i, cell in enumerate(partition.cells):
        counts_ref: dict[int, int] | None = None
        for u in cell:
            counts: dict[int, int] = {}
            for c in map(idx.__getitem__, adj[u]):
                counts[c] = counts.get(c, 0) + 1
            if counts_ref is None:
                counts_ref = counts
            elif counts != counts_ref:
                j = min(k for k in counts.keys() | counts_ref.keys() if counts.get(k) != counts_ref.get(k))
                raise ValueError(
                    f"partition not equitable: vertices {cell[0]} and {u} of cell {i} "
                    f"have {counts_ref.get(j, 0)} vs {counts.get(j, 0)} neighbors in cell {j}"
                )
        rows.append(tuple(sorted(counts_ref.items())))
    return DivisorMatrix(len(rows), tuple(rows), tuple(len(c) for c in partition.cells))


def orbit_divisor_matrix(graph: Graph) -> DivisorMatrix:
    """Divisor matrix of the orbit partition, cells in canonical order."""
    return divisor_matrix(graph, orbit_partition(graph))


def entropy_of(omega: Sequence[Fraction]) -> float:
    """Base-2 entropy of a probability vector with positive rational parts."""
    if not omega:
        raise ValueError("empty distribution vector")
    if any(w <= 0 for w in omega):
        raise ValueError("distribution components must be positive")
    if sum(omega, Fraction(0)) != 1:
        raise ValueError("distribution components must sum to 1")
    # the trailing +0.0 turns -0.0 into 0.0 for single-cell vectors
    return -math.fsum(float(w) * math.log2(float(w)) for w in omega) + 0.0


def orbit_profile(graph: Graph) -> OrbitProfile:
    """Orbit distribution vector (relative orbit sizes, descending) and entropy."""
    if not is_connected(graph):
        raise ValueError("orbit profile defined here for connected graphs only")
    cells = orbit_partition(graph).cells
    omega = tuple(sorted((Fraction(len(c), graph.n) for c in cells), reverse=True))
    return OrbitProfile(omega, entropy_of(omega))


def _cell_digraph(dm: DivisorMatrix) -> ColouredDigraph:
    """Cells as vertices coloured (omega_i, B_ii), with j listed B_ij times in i's row for each j != i."""
    n = sum(dm.sizes)
    colour: list[tuple[Fraction, int]] = []
    adj: list[tuple[int, ...]] = []
    for i, (row, s) in enumerate(zip(dm.rows, dm.sizes)):
        loops, out = 0, []
        for j, x in row:
            if j == i:
                loops = x
            else:
                out += [j] * x
        colour.append((Fraction(s, n), loops))
        adj.append(tuple(out))
    return ColouredDigraph(colour, adj)


def orbitally_similar(g: Graph, h: Graph) -> SimilarityVerdict:
    """Decide whether two connected graphs have equal orbit divisor matrices
    under some relabeling of cells, returning a witness when they do."""
    for graph in (g, h):
        if not is_connected(graph):
            raise ValueError("orbital similarity defined for connected graphs only")
    sg = orbit_divisor_matrix(g)
    sh = orbit_divisor_matrix(h)
    witness = isomorphism(_cell_digraph(sh), _cell_digraph(sg))
    if witness is None:
        return SimilarityVerdict(similar=False)
    common = DivisorMatrix(sh.ell, sh.rows, tuple(sg.sizes[witness[i]] for i in range(sh.ell)))
    return SimilarityVerdict(similar=True, witness=witness, common_matrix=common)


def orbitally_homothetic(g: Graph, h: Graph) -> bool:
    """True iff the two connected graphs have equal orbit distribution vectors."""
    for graph in (g, h):
        if not is_connected(graph):
            raise ValueError("orbital homothety defined for connected graphs only")
    return orbit_profile(g).omega == orbit_profile(h).omega


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
