"""Orbit divisor matrices, distribution vectors, entropy, and similarity.

Two connected graphs count as orbitally similar when their orbit divisor
matrices can be made entrywise equal by relabeling the cells of one of
them; the search over cell relabelings is exhaustive with invariant
pruning, which is instant for the small cell counts this library targets.
All matrix comparisons are exact integer equality; the only float anywhere
in this module is the entropy value.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .aut import Partition, orbit_partition
from .graph_core import Graph, is_connected

_MAX_CELLS = 12


@dataclass(frozen=True)
class DivisorMatrix:
    """Per-cell neighbor counts over an equitable partition, with cell sizes.

    entries[i][j] is the number of neighbors every vertex of cell i has in
    cell j; row sums are the common cell degrees.
    """

    ell: int
    entries: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)

    def as_dict(self) -> dict:
        return {
            "ell": self.ell,
            "entries": [x for row in self.entries for x in row],
            "sizes": list(self.sizes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DivisorMatrix":
        ell = data["ell"]
        flat = data["entries"]
        rows = tuple(tuple(flat[i * ell : (i + 1) * ell]) for i in range(ell))
        return cls(ell, rows, tuple(data["sizes"]))


@dataclass(frozen=True)
class OrbitProfile:
    """Orbit distribution vector (descending, exact) and its base-2 entropy."""

    omega: tuple[Fraction, ...]
    entropy: float

    def as_dict(self) -> dict:
        return {"omega": [_frac_str(w) for w in self.omega], "entropy": self.entropy}


@dataclass(frozen=True)
class SimilarityVerdict:
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


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def divisor_matrix(graph: Graph, partition: Partition) -> DivisorMatrix:
    """Divisor (quotient) matrix of an equitable partition of a connected graph.

    Every vertex of a cell must have the same number of neighbors in each
    other cell; the first offending pair is reported otherwise.
    """
    if not is_connected(graph):
        raise ValueError("divisor matrix defined here for connected graphs only")
    if partition.n != graph.n:
        raise ValueError(f"partition covers {partition.n} vertices, graph has {graph.n}")
    adj = graph.adjacency()
    idx = partition.cell_index()
    ell = len(partition.cells)
    rows: list[tuple[int, ...]] = []
    for i, cell in enumerate(partition.cells):
        counts_ref: list[int] | None = None
        ref_vertex = cell[0]
        for u in cell:
            counts = [0] * ell
            for w in adj[u]:
                counts[idx[w]] += 1
            if counts_ref is None:
                counts_ref = counts
            elif counts != counts_ref:
                j = next(k for k in range(ell) if counts[k] != counts_ref[k])
                raise ValueError(
                    f"partition not equitable: vertices {ref_vertex} and {u} of cell {i} "
                    f"have {counts_ref[j]} vs {counts[j]} neighbors in cell {j}"
                )
        rows.append(tuple(counts_ref if counts_ref is not None else [0] * ell))
    return DivisorMatrix(ell, tuple(rows), tuple(len(c) for c in partition.cells))


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


def _relative_sizes(sizes: Sequence[int]) -> list[Fraction]:
    total = sum(sizes)
    return [Fraction(s, total) for s in sizes]


def _cell_keys(dm: DivisorMatrix) -> list[tuple]:
    """Per-cell invariants preserved by any valid cell pairing."""
    omega = _relative_sizes(dm.sizes)
    cols = list(zip(*dm.entries))
    return [
        (omega[i], sum(dm.entries[i]), tuple(sorted(dm.entries[i])), tuple(sorted(cols[i])))
        for i in range(dm.ell)
    ]


def _find_witness(sg: DivisorMatrix, sh: DivisorMatrix) -> tuple[int, ...] | None:
    """Permutation pi with sg.entries[pi[i]][pi[j]] == sh.entries[i][j], or None."""
    ell = sg.ell
    keys_g = _cell_keys(sg)
    keys_h = _cell_keys(sh)
    if sorted(keys_g) != sorted(keys_h):
        return None
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
                sg.entries[assignment[j]][a] == sh.entries[j][i]
                and sg.entries[a][assignment[j]] == sh.entries[i][j]
                for j in range(i)
            )
            if ok and sg.entries[a][a] == sh.entries[i][i]:
                assignment.append(a)
                used[a] = True
                if extend(i + 1):
                    return True
                assignment.pop()
                used[a] = False
        return False

    if extend(0):
        return tuple(assignment)
    return None


def orbitally_similar(g: Graph, h: Graph) -> SimilarityVerdict:
    """Decide whether two connected graphs have equal orbit divisor matrices
    under some relabeling of cells, returning a witness when they do."""
    for graph in (g, h):
        if not is_connected(graph):
            raise ValueError("orbital similarity defined for connected graphs only")
    sg = orbit_divisor_matrix(g)
    sh = orbit_divisor_matrix(h)
    if sg.ell != sh.ell:
        return SimilarityVerdict(similar=False)
    if sg.ell > _MAX_CELLS:
        raise ValueError(f"cell count {sg.ell} exceeds the similarity search cap {_MAX_CELLS}")
    witness = _find_witness(sg, sh)
    if witness is None:
        return SimilarityVerdict(similar=False)
    common = DivisorMatrix(sh.ell, sh.entries, tuple(sg.sizes[witness[i]] for i in range(sh.ell)))
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
