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
from fractions import Fraction
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
    The JSON form (as_dict) is the flat row-major list of all ell**2 entries.
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


def similar_divisors(sg: DivisorMatrix, sh: DivisorMatrix) -> SimilarityVerdict:
    """Decide whether two divisor matrices are entrywise equal, with equal
    relative cell sizes, under some relabeling of cells, returning a
    witness when they are."""
    witness = isomorphism(_cell_digraph(sh), _cell_digraph(sg))
    if witness is None:
        return SimilarityVerdict(similar=False)
    common = DivisorMatrix(sh.ell, sh.rows, tuple(sg.sizes[witness[i]] for i in range(sh.ell)))
    return SimilarityVerdict(similar=True, witness=witness, common_matrix=common)


def orbitally_similar(g: Graph, h: Graph) -> SimilarityVerdict:
    """Decide whether two connected graphs have equal orbit divisor matrices
    under some relabeling of cells, returning a witness when they do."""
    for graph in (g, h):
        if not is_connected(graph):
            raise ValueError("orbital similarity defined for connected graphs only")
    return similar_divisors(orbit_divisor_matrix(g), orbit_divisor_matrix(h))
