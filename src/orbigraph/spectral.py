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
a few units of rounding on such graphs, where u loses them entirely.  A
Perron vector that spans more than the float range, as on K_50 with a
pendant path of 200 vertices, still rounds to 0, and CertificateError says so.

Every row sum of B is a vertex degree, and the least and the largest row
sum bracket rho(B) (Collatz-Wielandt with x = 1).  _divisor_top, the one
top solve of both spectral routes, decides that bracket first, before any
kernel is chosen: when it is closed, every row sum equal as on every
regular graph, rho(B) is that row sum, the Perron vector is constant, no
pivot cell is picked, and nothing is symmetrized, factored, solved or
imported.

On an open bracket the cells are taken in reverse Cuthill-McKee order
(Cuthill & McKee 1969; George 1971), and _kernel chooses one of two kernels
by the size of the matrix's envelope in that order, computed once; the
kernel finds rho(B) and makes the pinned solve, and the pivot rule, the
lift and the certificate are one code path.  The pure-Python kernel
factors shift I - M = L D L^T, M being S^(1/2) B S^(-1/2), in envelope
(skyline) storage: row k is held from its first nonzero to the diagonal,
fill-in stays inside, and one factorization costs about sum_k w_k^2 / 2
multiply-adds for row widths w_k, so a path-like quotient of bandwidth b
costs O(ell b^2).  A row of width one, a chain row, is one scalar
recurrence, L_k,k-1 = b_k / D_k-1 and D_k = shift - m_kk - b_k L_k,k-1,
and each sweep of a solve does one multiply-subtract on it, where a wider
row slices, maps and sums lists.  These are the wider row's float
operations in its order, since sum() of one product is 0.0 plus that
product, so the results are the same bit for bit.  Every row of the
quotient of a path, a prism or a ladder in this order is a chain row but
the first, of width 0: spectral_radius_adjacency takes 2.0 ms on path(300),
whose quotient has 150 cells, and 21 ms on path(2000) (2-vCPU VM, Python
3.11.7, best of 75 runs).  shift I - M is a nonsingular M-matrix, all
its pivots positive, exactly when shift > rho (Sylvester's law of
inertia), and a factorization stops at the first pivot that is not
positive.  Noda iteration (Noda, Numer. Math. 17, 1971) first narrows the
row-sum bracket: at an upper end h that factors, y = (h I - M)^(-1) x is
positive, since the inverse of a nonsingular M-matrix is, and
M y = h y - x, so the quotients h - x_i / y_i are the Collatz-Wielandt
quotients of y and bracket rho.  h moves down to the largest of them, x
to y, while that shift factors, which takes a few factorizations where
bisection from the row-sum bracket took about 54.  The lower end is then
tested, and stepped down while it factors, since rounding can put that
quotient a few floats above the least shift that factors.  Bisection on
the M-matrix test, as LAPACK's dstebz does for tridiagonal matrices,
ends the bracket where no float lies strictly between its ends, so rho is
the float plain bisection finds.  At the upper end one solve of
(shift I - M) x = 1 gives x > 0, and x, dominated by u, picks r.

When sum_k w_k^2 is above ENVELOPE_WORK, LAPACK runs instead, on a dense
matrix built once, and only then is numpy imported: eigvalsh gives rho,
and one solve of (s I - M) x = 1, s a few floats above rho, gives the x
that picks r, with no eigenvector matrix and no eigh workspace; at most
two dense ell x ell arrays are held.  On random irregular graphs with one
cell per vertex (2-vCPU Xeon VM, Python 3.11, numpy 2.4, one BLAS thread),
at sum_k w_k^2 of 29,000-48,000 the envelope kernel takes 21-63 ms and
LAPACK, its import included, 75-99 ms; they meet at about 55,000-70,000,
and at 82,000 the envelope kernel takes 152-164 ms.  ENVELOPE_WORK stays
at 40,000, set before Noda iteration: moving it changes which kernel runs
near it, and so the last bits of rho.  Irregular rigid graphs of a few
hundred vertices are well above it (a rigid cubic graph on 150 vertices
with one edge subdivided has 100,424).
The benchmark's path-like quotients of up to 200 cells have sum_k w_k^2 at
most 1,566, and a path of 2000 vertices 999.

The lift x is certified on A in O(m) from the adjacency rows, never a dense A:
for a positive x the Collatz-Wielandt quotients bracket the Perron root,
min_i (Ax)_i / x_i <= rho(A) <= max_i (Ax)_i / x_i (Collatz 1942; Wielandt
1950).  The bracket must be narrower than CERTIFICATE_TOL * max(1, rho)
and hold both reported radii, widened by that much, or CertificateError is
raised, whichever kernel solved.  The adjacency radius is the Rayleigh
quotient of x on A; on a closed bracket that is the quotient of the
unscaled constant vector, 2m / n, so a regular graph gives its degree
exactly, where the lift's entries 1/n would round it.

analyze_term ends the per-graph analysis (graph_core, aut, orbital,
spectral): every sequence term carries its TermRecord, and the CLI's
analyze command reports the same record for one graph.
"""

import math
from operator import mul, truediv

from .aut import Partition, automorphism_group, orbit_partition
from .graph_core import (
    Frozen, Graph, Ratio, cyclomatic_number, degree_stats, density, edge_vertex_ratio, frac_str, is_connected,
)
from .orbital import DivisorMatrix, _check_divisor_matrix, divisor_matrix, orbit_profile

CERTIFICATE_TOL = 1e-10
ENVELOPE_WORK = 40_000
# Entries of u within this relative distance of its largest count as tied
# for the pivot cell; both kernels resolve u far more finely.
PIVOT_TIE = 1e-9


class CertificateError(RuntimeError):
    """The Collatz-Wielandt bracket on A did not certify the computed Perron pair."""


class PerronData(Frozen):
    """Spectral radius with the normalized positive eigenvector.

    rho is the Rayleigh quotient of vector on A and rho_divisor the largest
    eigenvalue of divisor, the divisor matrix that was solved; bracket is
    the Collatz-Wielandt interval (lo, hi) on A that certified both.  vector
    sums to 1 and is constant on every cell; orbit_values holds the per-cell
    constants and gamma is the largest over the smallest component.
    """

    __slots__ = _fields = ("rho", "rho_divisor", "vector", "gamma", "orbit_values", "bracket", "divisor")
    rho: float
    rho_divisor: float
    vector: tuple[float, ...]
    gamma: float
    orbit_values: tuple[float, ...]
    bracket: tuple[float, float]
    divisor: DivisorMatrix


def _symmetrized(dm: DivisorMatrix) -> list[dict[int, float]]:
    """S^(1/2) B S^(-1/2) for the divisor matrix B with cell sizes S.

    The matrix comes as sparse rows {column: entry}, in the column order of
    dm.rows, computed as S^(-1/2) t S^(-1/2) from t = S B, which counts the
    edges from cell i to cell j (exact integers) and is symmetric, as dm
    comes from divisor_matrix or has passed its check.  O(m) in the
    nonzeros of B.
    """
    sizes = dm.sizes
    root = [math.sqrt(s) for s in sizes]
    return [{j: sizes[i] * x / root[i] / root[j] for j, x in row} for i, row in enumerate(dm.rows)]


def _rcm_order(rows: list[dict[int, float]]) -> list[int]:
    """The cells in reverse Cuthill-McKee order, which keeps the envelope narrow.

    Breadth-first from a cell of least degree, each cell's new neighbours
    in ascending degree, reversed (Cuthill & McKee 1969; George 1971).  The
    matrix must be irreducible, as every divisor matrix solved here is.
    """
    degree = list(map(len, rows))
    order = [min(range(len(rows)), key=degree.__getitem__)]
    seen = [False] * len(rows)
    seen[order[0]] = True
    for c in order:  # order grows as the search goes
        fresh = [j for j in rows[c] if not seen[j]]
        fresh.sort(key=degree.__getitem__)
        for j in fresh:
            seen[j] = True
        order += fresh
    return order[::-1]


def _envelope_starts(rows: list[dict[int, float]], order: list[int]) -> list[int]:
    """For each row k of the matrix in that order, the column of its first
    nonzero left of the diagonal, or k when there is none."""
    position = dict(zip(order, range(len(order)))).get
    starts = []
    for k, c in enumerate(order):
        f = k
        for j in rows[c]:
            if (p := position(j, k)) < f:
                f = p
        starts.append(f)
    return starts


class _Envelope:
    """The pure-Python kernel: LDL^T of shift I - m in envelope storage.

    Row k of m, cells taken in `order`, is held from column first[k] to the
    diagonal; elimination fills in only inside that envelope, so one
    factorization costs about sum((k - first[k])**2) / 2 multiply-adds.
    """

    def __init__(self, rows: list[dict[int, float]], order: list[int], first: list[int]) -> None:
        self.rows, self.order, self.first = rows, order, first
        position = dict(zip(order, range(len(order)))).get
        self.band, self.diag, self.updates = [], [], []
        for k, (c, f) in enumerate(zip(order, first)):
            band = [0.0] * (k - f)
            for j, x in rows[c].items():
                if (p := position(j, k)) < k:
                    band[p - f] = -x
            self.band.append(band)
            self.diag.append(rows[c].get(c, 0.0))
            # Column j of row k, past its first, takes sum_t g_t L_jt over the
            # columns t < j held by both rows; (j - f, t - f, j, t - first[j]),
            # with t the later first column, places the two slices.
            updates = []
            for j in range(f + 1, k):
                if (t := max(f, first[j])) < j:
                    updates.append((j - f, t - f, j, t - first[j]))
            self.updates.append(updates)

    def factor(self, shift: float) -> tuple[list[list[float]], list[float]] | None:
        """The rows of L left of the diagonal and the pivots D of
        shift I - m = L D L^T, or None at the first pivot that is not positive."""
        low, piv = [], []
        for f, band, m_kk, updates in zip(self.first, self.band, self.diag, self.updates):
            if len(band) == 1:
                # A chain row (see the module docstring).
                b = band[0]
                r = b / piv[-1]
                d = shift - m_kk - b * r
                row = [r]
            else:
                # g = (L D)[k, f:k], column by column: A_kj less sum_t g_t L_jt.
                g = band[:] if updates else band
                for i, a, j, b in updates:
                    if i - a == 1:
                        # One product, as in a chain row: sum() gives 0.0 plus it.
                        g[i] -= g[a] * low[j][b] + 0.0
                    else:
                        g[i] -= sum(map(mul, g[a:i], low[j][b:]))
                row = list(map(truediv, g, piv[f:]))
                d = shift - m_kk - sum(map(mul, g, row))
            if not d > 0.0:
                return None
            low.append(row)
            piv.append(d)
        return low, piv

    def solve(self, factor: tuple[list[list[float]], list[float]], b: list[float]) -> list[float]:
        """x with L D L^T x = b, both indexed by cell."""
        low, piv = factor
        z = [b[c] for c in self.order]
        for k, f in enumerate(self.first):
            if f == k - 1:
                # sum() of one product is 0.0 plus it, which turns -0.0 into 0.0.
                z[k] -= low[k][0] * z[f] + 0.0
            elif f < k:
                z[k] -= sum(map(mul, low[k], z[f:k]))
        z = list(map(truediv, z, piv))
        for k in range(len(z) - 1, 0, -1):
            f, zk = self.first[k], z[k]
            if f == k - 1:
                z[f] -= low[k][0] * zk
            else:
                for i, l in enumerate(low[k], f):
                    z[i] -= l * zk
        x = [0.0] * len(self.rows)
        for c, v in zip(self.order, z):
            x[c] = v
        return x

    def top(self, sums: tuple[int, ...]) -> tuple[float, list[float]]:
        """rho(m) by Noda iteration and bisection on the M-matrix test, and a
        positive vector whose largest entry picks the pivot cell (see the
        module docstring)."""
        sums_lo = lo = float(min(sums))
        hi = float(max(sums))
        factor = self.factor(hi)
        if factor is None:
            raise CertificateError(f"{hi!r} I minus the divisor matrix is not a nonsingular M-matrix")
        x = [1.0] * len(self.rows)
        while min(y := self.solve(factor, x)) > 0.0:
            # m y = hi y - x, so hi - x_i / y_i are the Collatz-Wielandt
            # quotients of y; lo stays below hi.
            ratios = list(map(truediv, x, y))
            lo = max(lo, min(hi - max(ratios), math.nextafter(hi, 0.0)))
            shift = hi - min(ratios)
            if not lo < shift < hi or (trial := self.factor(shift)) is None:
                break
            scale = max(y)
            hi, factor, x = shift, trial, [v / scale for v in y]
        # Rounding can put the quotient bound lo a few floats above the
        # least shift that factors: step down until a shift fails.
        step = hi - lo
        while lo > sums_lo and (trial := self.factor(lo)) is not None:
            hi, factor, lo, step = lo, trial, max(sums_lo, lo - step), 2 * step
        while lo < (mid := (lo + hi) / 2) < hi:
            trial = self.factor(mid)
            if trial is None:
                lo = mid
            else:
                hi, factor = mid, trial
        return hi, self.solve(factor, [1.0] * len(self.rows))

    def pinned(self, r: int, rho: float) -> list[float]:
        """The eigenvector w of m for rho with w_r = 1: the other entries
        solve (rho I - m') w' = m[:, r], m' being m without row and column r."""
        order = [c for c in self.order if c != r]
        reduced = type(self)(self.rows, order, _envelope_starts(self.rows, order))
        factor = reduced.factor(rho)
        if factor is None:
            raise CertificateError(f"{rho!r} I minus the divisor matrix without cell {r} is not positive definite")
        w = reduced.solve(factor, [row.get(r, 0.0) for row in self.rows])
        w[r] = 1.0
        return w


class _Lapack:
    """The LAPACK kernel: the dense matrix is built once, and numpy imported,
    here only; beside it, only the copy that eigvalsh or a solve factors."""

    def __init__(self, rows: list[dict[int, float]]) -> None:
        import numpy as np

        self.np, self.m = np, np.zeros((len(rows), len(rows)))
        for i, row in enumerate(rows):
            self.m[i, list(row)] = list(row.values())

    def top(self, sums: tuple[int, ...]) -> tuple[float, list[float]]:
        """rho(m) from eigvalsh, and x with (s I - m) x = 1 for a shift s a
        few floats above it, signed so that its entries sum to a positive
        value: the Perron vector dominates x, as it would u (sums are not
        needed).  m is shifted in place for the solve and restored exactly:
        negation is exact, and the saved diagonal is put back."""
        np, m = self.np, self.m
        rho = float(np.linalg.eigvalsh(m)[-1])
        diagonal = m.diagonal().copy()
        np.negative(m, out=m)
        m.flat[:: len(m) + 1] += rho + 8 * math.ulp(rho)
        x = np.linalg.solve(m, np.ones(len(m)))
        np.negative(m, out=m)
        m.flat[:: len(m) + 1] = diagonal
        return rho, (x if x.sum() > 0 else -x).tolist()

    def pinned(self, r: int, rho: float) -> list[float]:
        """As _Envelope.pinned; the kernel's last call, as it drops m once copied."""
        np, ell = self.np, len(self.m)
        keep = [i for i in range(ell) if i != r]
        column, system = self.m[keep, r], self.m[np.ix_(keep, keep)]
        del self.m
        system *= -1.0
        system.flat[::ell] += rho
        w = np.linalg.solve(system, column).tolist()
        w.insert(r, 1.0)
        return w


def _kernel(rows: list[dict[int, float]], order: list[int]) -> _Envelope | _Lapack:
    """The kernel for the symmetric matrix m with sparse rows `rows`: the
    envelope one while sum((k - first[k])**2) over its rows in `order` is at
    most ENVELOPE_WORK, LAPACK above."""
    first = _envelope_starts(rows, order)
    if sum((k - f) ** 2 for k, f in enumerate(first)) <= ENVELOPE_WORK:
        return _Envelope(rows, order, first)
    return _Lapack(rows)


def _divisor_top(dm: DivisorMatrix) -> tuple[float, list[float], _Envelope | _Lapack | None]:
    """rho(B), the top eigenvector u of _symmetrized(dm) and the kernel that
    found them; on a closed row-sum bracket the row sum, no u and no kernel."""
    sums = dm.row_sums()
    if min(sums) == max(sums):
        return float(sums[0]), [], None
    rows = _symmetrized(dm)
    kernel = _kernel(rows, _rcm_order(rows))
    return (*kernel.top(sums), kernel)


def _divisor_perron(dm: DivisorMatrix) -> tuple[float, int | None, list[float]]:
    """rho(B), the pivot cell r and the per-cell constants alpha of the lift.

    On a closed row-sum bracket alpha is constant and r is None.  Else the
    kernel of _kernel solves _symmetrized(dm), and u only picks r (see the
    module docstring): the first cell whose entry is within PIVOT_TIE of
    the largest, so that both kernels pick the same one.  The eigenvector
    w with w_r = 1 is the kernel's pinned solve, and alpha = S^(-1/2) w is
    scaled so that the lift sums to 1.
    """
    rho_divisor, u, kernel = _divisor_top(dm)
    if kernel is None:
        return rho_divisor, None, [1.0 / sum(dm.sizes)] * dm.ell
    top = max(u)
    r = next(i for i, x in enumerate(u) if x >= top - PIVOT_TIE * abs(top))
    w = kernel.pinned(r, rho_divisor)
    alpha = [x / math.sqrt(s) for x, s in zip(w, dm.sizes)]
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
    rho_divisor, pivot, alpha = _divisor_perron(dm)
    x = [alpha[c] for c in partition.cell_index()]
    if not all(v > 0.0 for v in x):
        beyond = "the Perron vector spans more than the float range: its smallest entries round to 0"
        raise CertificateError(beyond if min(x) == 0.0 else "lifted eigenvector is not positive")
    # (A x)_u as an exact sum rounded once: no order of the terms, so no
    # vertex label, moves the printed rho.
    y = [math.fsum(map(x.__getitem__, row)) for row in graph.adjacency]
    if pivot is None:
        # A closed row-sum bracket: x is constant, and the quotient of the
        # unscaled constant vector, 2m / n, gives a regular graph's degree
        # exactly: 1/n rounds.
        rho = sum(map(len, graph.adjacency)) / graph.n
    else:
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

    The matrix must be one that a connected graph could have: int entries
    and cell sizes, and symmetrizable, s_i B_ij = s_j B_ji, as the divisor
    matrix of every equitable partition is; ValueError otherwise.
    """
    _check_divisor_matrix(dm)
    return _divisor_top(dm)[0]


class TermRecord(Frozen):
    """All per-graph quantities of one connected graph.

    density is None below two vertices, where it is undefined.
    """

    __slots__ = _fields = (
        "order", "size", "orbits", "group_order", "divisor", "omega", "entropy", "rho_adjacency", "rho_divisor",
        "principal_ratio", "min_degree", "max_degree", "average_degree", "degree_variance", "edge_vertex_ratio",
        "density", "cyclomatic_number",
    )
    order: int
    size: int
    orbits: tuple[tuple[int, ...], ...]
    group_order: int
    divisor: DivisorMatrix
    omega: tuple[Ratio, ...]
    entropy: float
    rho_adjacency: float
    rho_divisor: float
    principal_ratio: float
    min_degree: int
    max_degree: int
    average_degree: Ratio
    degree_variance: Ratio
    edge_vertex_ratio: Ratio
    density: Ratio | None
    cyclomatic_number: int

    def as_dict(self) -> dict:
        """The analyze report: every field, in field order, ratios as "p/q",
        and the divisor matrix itself, which the CLI's JSON writer expands."""
        report = self._asdict()
        report["orbits"] = list(map(list, self.orbits))
        report["omega"] = list(map(frac_str, self.omega))
        for key in ("average_degree", "degree_variance", "edge_vertex_ratio", "density"):
            report[key] = None if report[key] is None else frac_str(report[key])
        return report


def analyze_term(graph: Graph) -> TermRecord:
    """Compute the full per-graph record of a connected graph."""
    group = automorphism_group(graph)
    profile = orbit_profile(graph)
    perron = spectral_radius_adjacency(graph, partition=group.orbits)
    stats = degree_stats(graph)
    return TermRecord(
        order=graph.n,
        size=graph.m,
        orbits=group.orbits.cells,
        group_order=group.order,
        divisor=perron.divisor,
        omega=profile.omega,
        entropy=profile.entropy,
        rho_adjacency=perron.rho,
        rho_divisor=perron.rho_divisor,
        principal_ratio=perron.gamma,
        min_degree=stats.min_degree,
        max_degree=stats.max_degree,
        average_degree=stats.average_degree,
        degree_variance=stats.degree_variance,
        edge_vertex_ratio=edge_vertex_ratio(graph),
        density=density(graph) if graph.n >= 2 else None,
        cyclomatic_number=cyclomatic_number(graph),
    )
