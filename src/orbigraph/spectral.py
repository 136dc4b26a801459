"""Spectral radius and principal eigenvector, by adjacency and by divisor matrix.

One direct solve gives both spectral routes.  The divisor matrix B of an
equitable partition, built by orbital.divisor_matrix, has cell sizes S with
s_i B_ij = s_j B_ji, so S^(1/2) B S^(-1/2) is symmetric, and one
np.linalg.eigh of it gives the largest eigenvalue rho(B) and its
eigenvector u.  By the equitable-partition lemma (Godsil & Royle, Algebraic
Graph Theory, 9.3) alpha = S^(-1/2) u, repeated on every vertex of its cell,
is an eigenvector of the adjacency matrix A for the same eigenvalue, so
rho(A) = rho(B) and the principal eigenvector is constant on orbits.

eigh resolves u only to about 1e-16 of its largest entry, and a Perron
vector can fall over hundreds of orders of magnitude (a clique with a long
pendant path).  So u only picks the cell r of its largest entry; with u_r
fixed to 1 the other entries come from one linear solve with rho(B).  Its
matrix, rho I minus S^(1/2) B S^(-1/2) without row and column r, is a
nonsingular M-matrix, and the solution keeps even the smallest entries to
a few units of rounding on such graphs, where u loses them entirely.

The lift x is certified on A in O(m) from the edge list, never a dense A:
for a positive x the Collatz-Wielandt quotients bracket the Perron root,
min_i (Ax)_i / x_i <= rho(A) <= max_i (Ax)_i / x_i (Collatz 1942; Wielandt
1950).  The bracket must be narrower than CERTIFICATE_TOL * max(1, rho)
and hold both reported radii, widened by that much, or CertificateError is
raised.  The adjacency radius is the Rayleigh quotient of x on A.

check_orbit_constancy is the independent route: it takes the principal
eigenvector from a dense eigh of A, which knows nothing of the orbits, so
its constancy on orbit cells is a genuine check of the lemma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aut import Partition, orbit_partition
from .graph_core import Graph, is_connected
from .orbital import DivisorMatrix, divisor_matrix

CERTIFICATE_TOL = 1e-10


class CertificateError(RuntimeError):
    """The Collatz-Wielandt bracket on A did not certify the computed Perron pair."""


@dataclass(frozen=True)
class PerronData:
    """Spectral radius with the normalized positive eigenvector.

    rho is the Rayleigh quotient of vector on A and rho_divisor the largest
    eigenvalue of divisor, the divisor matrix that was solved; bracket is
    the Collatz-Wielandt interval (lo, hi) on A that certified both.  vector
    sums to 1 and is constant on every cell; orbit_values holds the per-cell
    constants and gamma is the largest over the smallest component.
    """

    rho: float
    rho_divisor: float
    vector: tuple[float, ...]
    gamma: float
    orbit_values: tuple[float, ...]
    bracket: tuple[float, float]
    divisor: DivisorMatrix


@dataclass(frozen=True)
class OrbitConstancyReport:
    """In-orbit spread of the principal eigenvector and the quotient residual."""

    cell_spreads: tuple[float, ...]
    max_spread: float
    quotient_residual: float
    ok: bool


def _edge_array(graph: Graph) -> np.ndarray:
    return np.array(list(graph.edges), dtype=np.intp).reshape(-1, 2)


def _symmetrized(dm: DivisorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """S^(1/2) B S^(-1/2) for the divisor matrix B with cell sizes S, and sqrt(S).

    It is computed in place as S^(-1/2) t S^(-1/2) from t = S B, which counts
    the edges from cell i to cell j (integers, exact in float64); ValueError
    unless t is symmetric.
    """
    sizes = np.array(dm.sizes, dtype=float)
    m = np.array(dm.entries, dtype=float).reshape(dm.ell, dm.ell)
    m *= sizes[:, None]
    if (m != m.T).any():
        raise ValueError("divisor matrix is not symmetrizable: s_i B_ij != s_j B_ji for some i, j")
    root = np.sqrt(sizes)
    m /= root[:, None]
    m /= root
    return m, root


def _top_eigenpair(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the symmetric m with its eigenvector, signed so
    that its entries sum to a positive value."""
    values, vectors = np.linalg.eigh(m)
    u = vectors[:, -1]
    return float(values[-1]), u if u.sum() > 0 else -u


def spectral_radius_adjacency(graph: Graph, partition: Partition | None = None) -> PerronData:
    """Certified Perron data of a connected graph from one divisor solve.

    The divisor matrix of partition (the orbit partition when not supplied)
    comes from orbital.divisor_matrix, which raises ValueError before any
    solve when the partition is not equitable.  It is solved, and its
    eigenvector lifted to the vertices and certified on A (see the module
    docstring); the matrix is returned as PerronData.divisor.
    """
    if not is_connected(graph):
        raise ValueError("spectral radius defined here for connected graphs only")
    if graph.n == 0:
        raise ValueError("empty graph")
    if partition is None:
        partition = orbit_partition(graph)
    dm = divisor_matrix(graph, partition)
    ell = dm.ell
    m, root = _symmetrized(dm)
    rho_divisor, u = _top_eigenpair(m)
    # u only picks r (see the module docstring); with w_r = 1 the other
    # entries solve (rho I - m') w' = m[:, r], m' being m without row and
    # column r.
    r = int(np.argmax(u))
    keep = np.flatnonzero(np.arange(ell) != r)
    system = m[np.ix_(keep, keep)]
    system *= -1.0
    system.flat[::ell] += rho_divisor
    w = np.ones(ell)
    w[keep] = np.linalg.solve(system, m[keep, r])
    alpha = w / root
    alpha /= alpha @ root**2
    x = alpha[np.array(partition.cell_index(), dtype=np.intp)]
    edges = _edge_array(graph)
    src, dst = np.concatenate((edges, edges[:, ::-1])).T
    y = np.bincount(src, weights=x[dst], minlength=graph.n)
    rho = float(x @ y / (x @ x))
    if not (x > 0).all():
        raise CertificateError("lifted eigenvector is not positive")
    quotients = y / x
    lo, hi = float(quotients.min()), float(quotients.max())
    tol = CERTIFICATE_TOL * max(1.0, rho)
    if hi - lo > tol or min(rho, rho_divisor) < lo - tol or max(rho, rho_divisor) > hi + tol:
        raise CertificateError(
            f"Collatz-Wielandt bracket [{lo!r}, {hi!r}] does not certify rho = {rho_divisor!r}"
        )
    return PerronData(
        rho=rho,
        rho_divisor=rho_divisor,
        vector=tuple(x.tolist()),
        gamma=float(x.max() / x.min()),
        orbit_values=tuple(alpha.tolist()),
        bracket=(lo, hi),
        divisor=dm,
    )


def spectral_radius_divisor(dm: DivisorMatrix) -> float:
    """Largest eigenvalue of an irreducible nonnegative divisor matrix.

    The matrix must be symmetrizable, s_i B_ij = s_j B_ji, as the divisor
    matrix of every equitable partition is; ValueError otherwise.
    """
    b = np.array(dm.entries, dtype=np.int64).reshape(dm.ell, dm.ell)
    if (b < 0).any() or min(dm.sizes) <= 0:
        raise ValueError("divisor matrix needs nonnegative entries and positive cell sizes")
    # Breadth-first search for the cells that reach cell 0 along the support
    # of B; for a symmetrizable B the support is symmetric, so this one
    # search decides irreducibility.
    seen = frontier = np.arange(dm.ell) == 0
    while frontier.any():
        frontier = b[:, frontier].any(axis=1) & ~seen
        seen = seen | frontier
    if not seen.all():
        raise ValueError("divisor matrix is reducible; spectral radius not computed")
    return _top_eigenpair(_symmetrized(dm)[0])[0]


def principal_ratio(graph: Graph) -> float:
    """Largest over smallest component of the principal eigenvector (>= 1)."""
    return spectral_radius_adjacency(graph).gamma


def check_orbit_constancy(
    graph: Graph, partition: Partition | None = None, tol: float = 1e-9
) -> OrbitConstancyReport:
    """Verify the principal eigenvector is constant on each orbit cell and
    that the per-cell constants form an eigenvector of the divisor matrix.

    The eigenvector comes from a dense eigh of A, independent of the orbit
    partition and of the divisor solve in spectral_radius_adjacency.
    """
    if partition is None:
        partition = orbit_partition(graph)
    dm = divisor_matrix(graph, partition)
    a = np.zeros((graph.n, graph.n))
    edges = _edge_array(graph)
    a[edges[:, 0], edges[:, 1]] = a[edges[:, 1], edges[:, 0]] = 1.0
    values, vectors = np.linalg.eigh(a)
    x = vectors[:, -1] / vectors[:, -1].sum()
    spreads = tuple(float(np.ptp(x[list(cell)])) for cell in partition.cells)
    alpha = np.array([x[list(cell)].mean() for cell in partition.cells])
    residual = float(np.max(np.abs(np.array(dm.entries, dtype=float) @ alpha - values[-1] * alpha)))
    max_spread = max(spreads)
    return OrbitConstancyReport(
        cell_spreads=spreads,
        max_spread=max_spread,
        quotient_residual=residual,
        ok=max_spread < tol and residual < tol,
    )
