"""Orbit divisor matrices, distribution vectors, entropy, and similarity.

Two connected graphs count as orbitally similar when their orbit divisor
matrices can be made entrywise equal by relabeling the cells of one of
them.  That is an isomorphism of the cell digraphs: cell i is a vertex
coloured by its relative size and B_ii, and each other cell j is listed
B_ij times in i's row, an arc of weight B_ij.  The one IR engine of aut
decides it exactly, for any number of cells.
All matrix comparisons are exact integer equality; the only float anywhere
in this module is the entropy value.

Cell sizes stay ints from the orbit partition to the report.  A relative
size s/n becomes a Ratio only at the public boundary, one per distinct
size: OrbitProfile.omega repeats it for every cell of that size.  A cell
digraph colours each cell by that Ratio and B_ii, so its colours depend
on its own matrix alone, and they order and tie across two matrices as the
relative sizes do.  The entropy is -sum of w log2 w over
the cells, w = s/n: the int quotient s/n is float(Ratio(s, n)) bit for
bit, as both are correctly rounded, so the value is the one entropy_of gives
for omega.
"""

import math
from collections import Counter
from collections.abc import Sequence
from itertools import repeat
from operator import itemgetter, lt

from .aut import ColouredDigraph, Partition, automorphism_group, isomorphism, orbit_partition
from .graph_core import Frozen, Graph, Ratio, is_connected, reaches_all


class DivisorMatrix(Frozen):
    """Per-cell neighbor counts over an equitable partition, with cell sizes.

    B_ij is the number of neighbors every vertex of cell i has in cell j.
    The matrix is held as sparse rows: rows[i] has a (j, B_ij) pair for
    every positive B_ij, in ascending j, so a rigid graph with ell = n
    cells costs O(m), not O(ell**2).  Row sums are the common cell degrees.
    Reports carry the matrix itself; the CLI's JSON writer prints it as
    {"ell", "entries", "sizes"}, entries being all ell**2 entries row-major,
    one dense row at a time from the sparse rows.
    """

    __slots__ = _fields = ("ell", "rows", "sizes")
    ell: int
    rows: tuple[tuple[tuple[int, int], ...], ...]
    sizes: tuple[int, ...]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(map(sum, map(map, repeat(itemgetter(1)), self.rows)))


def _check_divisor_matrix(dm: DivisorMatrix) -> None:
    """ValueError unless dm is a divisor matrix as a connected graph's are:
    ell >= 1 rows and cell sizes, all ints; rows of (column, entry) pairs
    in strictly ascending columns 0..ell-1 with no zero entry; nonnegative
    entries and positive sizes; irreducible, by one search for the cells
    that reach cell 0 along the support, which is symmetric when B is
    symmetrizable; and symmetrizable, s_i B_ij = s_j B_ji.  Every matrix
    divisor_matrix builds is one.
    """
    ell, rows, sizes = dm.ell, dm.rows, dm.sizes
    if not (isinstance(ell, int) and ell >= 1 and len(rows) == ell == len(sizes)):
        raise ValueError(f"divisor matrix of ell = {ell!r} has {len(rows)} rows and {len(sizes)} cell sizes")
    if not (all(isinstance(s, int) for s in sizes) and all(isinstance(v, int) for row in rows for pair in row for v in pair)):
        raise ValueError("divisor matrix needs int columns, entries and cell sizes")
    for i, row in enumerate(rows):
        columns = [j for j, _ in row]
        ascending = not row or (0 <= columns[0] and columns[-1] < ell and all(map(lt, columns, columns[1:])))
        if not (ascending and all(x for _, x in row)):
            raise ValueError(
                f"row {i} of the divisor matrix is not (column, entry) pairs"
                f" in strictly ascending columns 0..{ell - 1} without zero entries"
            )
    if any(x < 0 for row in rows for _, x in row) or min(sizes) <= 0:
        raise ValueError("divisor matrix needs nonnegative entries and positive cell sizes")
    into: list[list[int]] = [[] for _ in range(ell)]
    for i, row in enumerate(rows):
        for j, _ in row:
            into[j].append(i)
    if not reaches_all(into):
        raise ValueError("divisor matrix is reducible")
    entry = [dict(row) for row in rows]
    for i, row in enumerate(rows):
        for j, x in row:
            if sizes[i] * x != sizes[j] * entry[j].get(i, 0):
                raise ValueError("divisor matrix is not symmetrizable: s_i B_ij != s_j B_ji for some i, j")


class OrbitProfile(Frozen):
    """Orbit distribution vector (descending, exact) and its base-2 entropy."""

    __slots__ = _fields = ("omega", "entropy")
    omega: tuple[Ratio, ...]
    entropy: float


class SimilarityVerdict(Frozen):
    """Outcome of an orbital-similarity test between two connected graphs.

    When similar, witness maps the second graph's cell index i to the first
    graph's cell index witness[i] such that the relabeled matrices agree
    entrywise; common_matrix carries the shared entries with the first
    graph's cell sizes in matched order.
    """

    __slots__ = _fields = ("similar", "witness", "common_matrix")
    _defaults = {"witness": None, "common_matrix": None}
    similar: bool
    witness: tuple[int, ...] | None
    common_matrix: DivisorMatrix | None

    def as_dict(self) -> dict:
        return {
            "similar": self.similar,
            "witness": list(self.witness) if self.witness is not None else None,
            "common_matrix": self.common_matrix,
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
        # Each member's neighbour cells, sorted, against the first member's:
        # equal lists are equal counts, so only the first row is counted.
        first = sorted(map(idx.__getitem__, adj[cell[0]]))
        for u in cell[1:]:
            if sorted(map(idx.__getitem__, adj[u])) != first:
                ref, counts = Counter(first), Counter(map(idx.__getitem__, adj[u]))
                j = min(k for k in ref.keys() | counts.keys() if ref[k] != counts[k])
                raise ValueError(
                    f"partition not equitable: vertices {cell[0]} and {u} of cell {i} "
                    f"have {ref[j]} vs {counts[j]} neighbors in cell {j}"
                )
        counts: dict[int, int] = {}
        for c in first:
            counts[c] = counts.get(c, 0) + 1
        rows.append(tuple(counts.items()))
    return DivisorMatrix(len(rows), tuple(rows), tuple(map(len, partition.cells)))


def orbit_divisor_matrix(graph: Graph) -> DivisorMatrix:
    """Divisor matrix of the orbit partition, cells in canonical order."""
    return divisor_matrix(graph, orbit_partition(graph))


def entropy_of(omega: Sequence[Ratio]) -> float:
    """Base-2 entropy of a probability vector with positive rational parts."""
    if not omega:
        raise ValueError("empty distribution vector")
    if any(w <= 0 for w in omega):
        raise ValueError("distribution components must be positive")
    if sum(omega, Ratio(0)) != 1:
        raise ValueError("distribution components must sum to 1")
    # the trailing +0.0 turns -0.0 into 0.0 for single-cell vectors
    return -math.fsum(float(w) * math.log2(float(w)) for w in omega) + 0.0


def orbit_profile(graph: Graph) -> OrbitProfile:
    """Orbit distribution vector (relative orbit sizes, descending) and entropy."""
    if not is_connected(graph):
        raise ValueError("orbit profile defined here for connected graphs only")
    n = graph.n
    sizes = sorted(map(len, orbit_partition(graph).cells), reverse=True)
    ratios = {s: Ratio(s, n) for s in set(sizes)}
    # entropy_of's float terms, each computed once per distinct size
    terms = {s: s / n * math.log2(s / n) for s in ratios}
    entropy = -math.fsum(map(terms.__getitem__, sizes)) + 0.0
    return OrbitProfile(tuple(map(ratios.__getitem__, sizes)), entropy)


def _cell_digraph(dm: DivisorMatrix) -> ColouredDigraph:
    """The matrix's cells as vertices coloured (s/n, B_ii), s/n the cell's
    relative size as a Ratio, with j listed B_ij times in i's row for
    each j != i."""
    n = sum(dm.sizes)
    ratios = {s: Ratio(s, n) for s in set(dm.sizes)}
    colour: list[tuple[Ratio, int]] = []
    adj: list[tuple[int, ...]] = []
    for i, (row, s) in enumerate(zip(dm.rows, dm.sizes)):
        loops, out = 0, []
        for j, x in row:
            if j == i:
                loops = x
            else:
                out += [j] * x
        colour.append((ratios[s], loops))
        adj.append(tuple(out))
    return ColouredDigraph(colour, adj)


def similar_divisors(sg: DivisorMatrix, sh: DivisorMatrix) -> SimilarityVerdict:
    """Decide whether two divisor matrices are entrywise equal, with equal
    relative cell sizes, under some relabeling of cells, returning a
    witness when they are.  ValueError unless both are divisor matrices as
    a connected graph's are: ints, irreducible and symmetrizable, which
    makes their cell digraphs meet the reverse-arc rule of ColouredDigraph."""
    _check_divisor_matrix(sg)
    _check_divisor_matrix(sh)
    witness = isomorphism(_cell_digraph(sh), _cell_digraph(sg))
    if witness is None:
        return SimilarityVerdict(similar=False)
    common = DivisorMatrix(sh.ell, sh.rows, tuple(map(sg.sizes.__getitem__, witness)))
    return SimilarityVerdict(similar=True, witness=witness, common_matrix=common)


def orbitally_similar(g: Graph, h: Graph) -> SimilarityVerdict:
    """Decide whether two connected graphs have equal orbit divisor matrices
    under some relabeling of cells, returning a witness when they do.

    When both automorphism groups carry a leaf (AutGroup.leaf: the search
    found no generator and ended at its discrete root, with or without
    folded pendant trees) and the graphs have one order, both groups are
    trivial, every orbit is one vertex and cell i of a divisor matrix is
    vertex i.  The one candidate isomorphism maps the p-th vertex of h's
    leaf to the p-th of g's, as both leaf orders are canonical; if it
    carries every row of h onto the row of its image in g, it is the only
    witness and h's matrix is the common one, and if not, the graphs are not
    similar.  Every other pair goes to similar_divisors.
    """
    for graph in (g, h):
        if not is_connected(graph):
            raise ValueError("orbital similarity defined for connected graphs only")
    leaf_g, leaf_h = automorphism_group(g).leaf, automorphism_group(h).leaf
    if leaf_g is not None and leaf_h is not None and g.n == h.n:
        witness = [0] * h.n
        for u, v in zip(leaf_h, leaf_g):
            witness[u] = v
        rows, at = g.adjacency, witness.__getitem__
        if all(tuple(sorted(map(at, row))) == rows[v] for row, v in zip(h.adjacency, witness)):
            return SimilarityVerdict(similar=True, witness=tuple(witness), common_matrix=orbit_divisor_matrix(h))
        return SimilarityVerdict(similar=False)
    return similar_divisors(orbit_divisor_matrix(g), orbit_divisor_matrix(h))
