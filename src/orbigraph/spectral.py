"""Spectral radius and principal eigenvector, by adjacency and by divisor matrix.

One direct solve gives both spectral routes.  The divisor matrix B of an
equitable partition, built by orbital.divisor_matrix, has cell sizes S with
s_i B_ij = s_j B_ji, so S^(1/2) B S^(-1/2) is symmetric, and its largest
eigenvalue rho(B) comes with an eigenvector u.  By the equitable-partition
lemma (Godsil & Royle, Algebraic Graph Theory, 9.3) alpha = S^(-1/2) u,
repeated on every vertex of its cell, is an eigenvector of the adjacency
matrix A for the same eigenvalue, so rho(A) = rho(B) and the principal
eigenvector is constant on orbits.

u is resolved only to about 1e-16 of its largest entry, and a Perron
vector can fall over hundreds of orders of magnitude (a clique with a long
pendant path).  So u only picks the cell r of its largest entry; with u_r
fixed to 1 the other entries come from one linear solve with rho(B).  Its
matrix, rho I minus S^(1/2) B S^(-1/2) without row and column r, is a
nonsingular M-matrix, and the solution keeps even the smallest entries to
a few units of rounding on such graphs, where u loses them entirely.

Two kernels do the eigenpair and the linear solve, chosen by the number of
cells ell; everything else is one code path.  Up to SMALL_ELL cells they
are pure Python: cyclic Jacobi, which is accurate on small symmetric
matrices (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1992), and
Gaussian elimination, which needs no pivoting on an M-matrix.  Above it
they are LAPACK's eigh and solve, and only then is numpy imported: its
import is over half of the CLI's start-up (about 0.13-0.15 s of 0.23 s on
a 2-vCPU Xeon VM with Python 3.11 and numpy 2.4), while the paper's
self-similar families keep the same few cells however large the graph.
SMALL_ELL = 20 is where ten pure-Python solves cost about that import on
that machine: 0.11-0.13 s at ell = 20, 0.19-0.27 s at 24 and 0.04 s at 13,
against 2 ms through LAPACK.  A five-term sequence makes five, one per
analyze_term.

The lift x is certified on A in O(m) from the edge list, never a dense A:
for a positive x the Collatz-Wielandt quotients bracket the Perron root,
min_i (Ax)_i / x_i <= rho(A) <= max_i (Ax)_i / x_i (Collatz 1942; Wielandt
1950).  The bracket must be narrower than CERTIFICATE_TOL * max(1, rho)
and hold both reported radii, widened by that much, or CertificateError is
raised, whichever kernel solved.  The adjacency radius is the Rayleigh
quotient of x on A.

check_orbit_constancy is the independent route: it takes the principal
eigenvector from a dense eigh of A, which knows nothing of the orbits, so
its constancy on orbit cells is a genuine check of the lemma.  It always
imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from operator import mul

from .aut import Partition, orbit_partition
from .graph_core import Graph, is_connected
from .orbital import DivisorMatrix, divisor_matrix

CERTIFICATE_TOL = 1e-10
SMALL_ELL = 20
# Entries of u within this relative distance of its largest count as tied
# for the pivot cell; both kernels resolve u far more finely.
PIVOT_TIE = 1e-9


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


def _symmetrized(dm: DivisorMatrix) -> tuple[list[dict[int, float]], list[float]]:
    """S^(1/2) B S^(-1/2) for the divisor matrix B with cell sizes S, and sqrt(S).

    The matrix comes as sparse rows {column: entry}, computed as
    S^(-1/2) t S^(-1/2) from t = S B, which counts the edges from cell i to
    cell j (exact integers); ValueError unless t is symmetric.
    """
    sizes, entries = dm.sizes, dm.entries
    root = [math.sqrt(s) for s in sizes]
    rows = []
    for i, row in enumerate(entries):
        sym = {}
        for j in compress(range(dm.ell), row):
            t = sizes[i] * row[j]
            if t != sizes[j] * entries[j][i]:
                raise ValueError("divisor matrix is not symmetrizable: s_i B_ij != s_j B_ji for some i, j")
            sym[j] = t / root[i] / root[j]
        rows.append(sym)
    return rows, root


def _numpy_dense(rows: list[dict[int, float]]):
    """numpy and the dense array of the sparse rows; numpy is imported here only."""
    import numpy as np

    m = np.zeros((len(rows), len(rows)))
    for i, row in enumerate(rows):
        m[i, list(row)] = list(row.values())
    return np, m


def _jacobi_top(a: list[list[float]]) -> tuple[float, list[float]]:
    """Largest eigenvalue of the symmetric a with its eigenvector, by cyclic Jacobi.

    a is overwritten.  Each sweep rotates every nonzero off-diagonal entry
    to zero (Rutishauser's formulas), until the off-diagonal Frobenius norm
    is below 1e-14 of the whole; the diagonal then holds the eigenvalues to
    about the square of that over the gap.
    """
    n = len(a)
    vt = [[float(i == j) for j in range(n)] for i in range(n)]
    total = sum(x * x for row in a for x in row)
    for _ in range(100):
        if sum(a[p][q] ** 2 for p in range(n) for q in range(p + 1, n)) <= 1e-28 * total:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                rp, rq = a[p], a[q]
                apq, app, aqq = rp[q], rp[p], rq[q]
                if apq == 0.0:
                    continue
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                new_p = [c * x - s * y for x, y in zip(rp, rq)]
                new_q = [s * x + c * y for x, y in zip(rp, rq)]
                a[p], a[q] = new_p, new_q
                for row, x, y in zip(a, new_p, new_q):
                    row[p] = x
                    row[q] = y
                new_p[p], new_q[q] = app - t * apq, aqq + t * apq
                new_p[q] = new_q[p] = 0.0
                vp, vq = vt[p], vt[q]
                vt[p] = [c * x - s * y for x, y in zip(vp, vq)]
                vt[q] = [s * x + c * y for x, y in zip(vp, vq)]
    k = max(range(n), key=lambda i: a[i][i])
    u = vt[k]
    return a[k][k], u if sum(u) > 0 else [-x for x in u]


def _top_eigenpair(rows: list[dict[int, float]]) -> tuple[float, list[float]]:
    """Largest eigenvalue of the symmetric matrix with its eigenvector, signed
    so that its entries sum to a positive value: cyclic Jacobi up to
    SMALL_ELL rows, LAPACK's eigh above."""
    ell = len(rows)
    if ell <= SMALL_ELL:
        return _jacobi_top([[row.get(j, 0.0) for j in range(ell)] for row in rows])
    np, m = _numpy_dense(rows)
    values, vectors = np.linalg.eigh(m)
    u = vectors[:, -1]
    return float(values[-1]), (u if u.sum() > 0 else -u).tolist()


def _gauss_solve(a: list[list[float]], b: list[float]) -> list[float]:
    """Solve a w = b by Gaussian elimination without pivoting, in place.

    Meant for a nonsingular M-matrix, which elimination keeps one, so no
    pivot vanishes and the off-diagonal updates never cancel.
    """
    n = len(b)
    for k in range(n):
        ak, pivot = a[k], a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f:
                ai = a[i]
                for j in range(k + 1, n):
                    ai[j] -= f * ak[j]
                b[i] -= f * b[k]
    w = [0.0] * n
    for k in range(n - 1, -1, -1):
        ak = a[k]
        w[k] = (b[k] - sum(ak[j] * w[j] for j in range(k + 1, n))) / ak[k]
    return w


def _pinned_solve(rows: list[dict[int, float]], r: int, rho: float) -> list[float]:
    """The eigenvector w of the symmetric matrix m for rho with w_r = 1.

    The other entries solve (rho I - m') w' = m[:, r], m' being m without
    row and column r: by elimination up to SMALL_ELL rows, LAPACK above.
    """
    ell = len(rows)
    keep = [i for i in range(ell) if i != r]
    rhs = [rows[i].get(r, 0.0) for i in keep]
    if ell <= SMALL_ELL:
        system = [[(rho if i == j else 0.0) - rows[i].get(j, 0.0) for j in keep] for i in keep]
        w = _gauss_solve(system, rhs)
    else:
        np, m = _numpy_dense(rows)
        system = m[np.ix_(keep, keep)]
        system *= -1.0
        system.flat[::ell] += rho
        w = np.linalg.solve(system, rhs).tolist()
    w.insert(r, 1.0)
    return w


def _divisor_perron(dm: DivisorMatrix) -> tuple[float, int, list[float]]:
    """rho(B), the pivot cell r and the per-cell constants alpha of the lift.

    u only picks r (see the module docstring): the first cell whose entry
    is within PIVOT_TIE of the largest, so that both kernels pick the same
    one.  alpha = S^(-1/2) w is scaled so that the lift sums to 1.
    """
    rows, root = _symmetrized(dm)
    rho_divisor, u = _top_eigenpair(rows)
    top = max(u)
    r = next(i for i, x in enumerate(u) if x >= top - PIVOT_TIE * abs(top))
    w = _pinned_solve(rows, r, rho_divisor)
    alpha = [x / s for x, s in zip(w, root)]
    total = math.fsum(map(mul, alpha, dm.sizes))
    return rho_divisor, r, [x / total for x in alpha]


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
    rho_divisor, _, alpha = _divisor_perron(dm)
    x = [alpha[c] for c in partition.cell_index()]
    if not all(v > 0.0 for v in x):
        raise CertificateError("lifted eigenvector is not positive")
    y = [0.0] * graph.n
    for u, v in graph.edges:
        y[u] += x[v]
        y[v] += x[u]
    rho = math.fsum(map(mul, x, y)) / math.fsum(map(mul, x, x))
    quotients = [a / b for a, b in zip(y, x)]
    lo, hi = min(quotients), max(quotients)
    tol = CERTIFICATE_TOL * max(1.0, rho)
    if hi - lo > tol or min(rho, rho_divisor) < lo - tol or max(rho, rho_divisor) > hi + tol:
        raise CertificateError(
            f"Collatz-Wielandt bracket [{lo!r}, {hi!r}] does not certify rho = {rho_divisor!r}"
        )
    return PerronData(
        rho=rho,
        rho_divisor=rho_divisor,
        vector=tuple(x),
        gamma=max(x) / min(x),
        orbit_values=tuple(alpha),
        bracket=(lo, hi),
        divisor=dm,
    )


def spectral_radius_divisor(dm: DivisorMatrix) -> float:
    """Largest eigenvalue of an irreducible nonnegative divisor matrix.

    The matrix must be symmetrizable, s_i B_ij = s_j B_ji, as the divisor
    matrix of every equitable partition is; ValueError otherwise.
    """
    if min(map(min, dm.entries)) < 0 or min(dm.sizes) <= 0:
        raise ValueError("divisor matrix needs nonnegative entries and positive cell sizes")
    # Search for the cells that reach cell 0 along the support of B; for a
    # symmetrizable B the support is symmetric, so this one search decides
    # irreducibility.
    into: list[list[int]] = [[] for _ in range(dm.ell)]
    for i, row in enumerate(dm.entries):
        for j in compress(range(dm.ell), row):
            into[j].append(i)
    seen, stack = {0}, [0]
    while stack:
        for i in into[stack.pop()]:
            if i not in seen:
                seen.add(i)
                stack.append(i)
    if len(seen) < dm.ell:
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
    residual = float(np.max(np.abs(np.array(dm.entries, dtype=float) @ alpha - values[-1] * alpha)))
    max_spread = max(spreads)
    return OrbitConstancyReport(
        cell_spreads=spreads,
        max_spread=max_spread,
        quotient_residual=residual,
        ok=max_spread < tol and residual < tol,
    )
