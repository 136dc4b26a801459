import ast
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ReferenceEnvelope,
    bisection_top,
    check_orbit_constancy,
    connected_graphs,
    dense,
    from_dense,
    rigid_cubic,
    tied_star,
)
from orbigraph import constructions as cons
from orbigraph import spectral
from orbigraph.aut import Partition, orbit_partition, unit_partition
from orbigraph.constructions import cartesian_product, complete, cycle, cycle_with_cliques, loaded_torus, path, star
from orbigraph.graph_core import Graph, degree_stats, is_connected
from orbigraph.orbital import divisor_matrix, orbit_divisor_matrix
from orbigraph.sequences import SequenceSpec, generate
from orbigraph.spectral import analyze_term, spectral_radius_adjacency, spectral_radius_divisor


def rho_dense_oracle(graph: Graph) -> float:
    """Independent route: dense symmetric eigensolver on the adjacency matrix."""
    a = np.zeros((graph.n, graph.n))
    for u, v in graph.edges:
        a[u, v] = a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


def path_closed_form(n: int) -> tuple[float, float]:
    """rho(P_n) = 2cos(pi/(n+1)); the Perron vector is sin(k pi/(n+1)), k = 1..n."""
    theta = math.pi / (n + 1)
    return 2 * math.cos(theta), math.sin(math.ceil(n / 2) * theta) / math.sin(theta)


def assert_certified(data) -> None:
    """The bracket is narrow and holds both radii, and so does every
    Collatz-Wielandt quotient (B alpha)_i / alpha_i of the divisor matrix
    at the orbit values: the equitable-partition lemma checked on B."""
    lo, hi = data.bracket
    tol = 1e-10 * max(1.0, data.rho)
    assert hi - lo <= tol
    assert lo - tol <= data.rho <= hi + tol and lo - tol <= data.rho_divisor <= hi + tol
    alpha = data.orbit_values
    assert len(alpha) == data.divisor.ell
    for row, a in zip(data.divisor.rows, alpha):
        assert lo - tol <= math.fsum(x * alpha[j] for j, x in row) / a <= hi + tol


def rho_charpoly_oracle(entries) -> float:
    """Largest real root of the characteristic polynomial, ell <= 3 only."""
    ell = len(entries)
    m = [list(map(int, row)) for row in entries]
    if ell == 1:
        return float(m[0][0])
    if ell == 2:
        tr = m[0][0] + m[1][1]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        return (tr + math.sqrt(tr * tr - 4 * det)) / 2
    a, b, c = m[0], m[1], m[2]
    trace = a[0] + b[1] + c[2]
    minors = (
        b[1] * c[2] - b[2] * c[1] + a[0] * c[2] - a[2] * c[0] + a[0] * b[1] - a[1] * b[0]
    )
    det = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    roots = np.roots([1.0, -trace, minors, -det])
    return float(max(r.real for r in roots if abs(r.imag) < 1e-9))


class TestAdjacencyRadius:
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_cycles(self, n):
        assert spectral_radius_adjacency(cycle(n)).rho == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_complete(self, n):
        assert spectral_radius_adjacency(complete(n)).rho == pytest.approx(n - 1, abs=1e-9)

    @pytest.mark.parametrize("n", [100, 300, 600])
    def test_complete_is_within_two_ulps_of_n_minus_1(self, n):
        rho = spectral_radius_adjacency(complete(n)).rho
        assert abs(rho - (n - 1)) <= 2 * math.ulp(n - 1), rho

    def test_regular_graphs_give_their_degree_exactly(self):
        # On a closed row-sum bracket rho is the Rayleigh quotient of the
        # unscaled constant vector: from the lift 1/n it was
        # 5.999999999999999 for K7, 10.000000000000002 for K11 and
        # 2.9999999999999996 for the prism over C7.
        for n in range(1, 200):
            assert spectral_radius_adjacency(complete(n)).rho == n - 1, n
        for g in (cons.circular_ladder(7), cons.moebius_ladder(35), cons.crossed_prism(14), rigid_cubic(5, 150)):
            assert spectral_radius_adjacency(g).rho == 3.0

    def test_path5_closed_form(self):
        assert spectral_radius_adjacency(path(5)).rho == pytest.approx(
            2 * math.cos(math.pi / 6), abs=1e-9
        )

    def test_single_vertex(self):
        data = spectral_radius_adjacency(Graph.from_edges(1, ()))
        assert data.rho == 0.0 and data.vector == (1.0,) and data.gamma == 1.0

    def test_vector_normalized_positive(self):
        data = spectral_radius_adjacency(tied_star())
        assert sum(data.vector) == pytest.approx(1.0, abs=1e-12)
        assert all(t > 0 for t in data.vector)

    def test_residual_small(self):
        g = tied_star()
        data = spectral_radius_adjacency(g)
        a = np.zeros((5, 5))
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1.0
        x = np.array(data.vector)
        assert float(np.max(np.abs(a @ x - data.rho * x))) < 1e-11

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius_adjacency(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_empty_rejected(self):
        # The empty graph counts as connected, and is refused after that check.
        with pytest.raises(ValueError, match="^empty graph$"):
            spectral_radius_adjacency(Graph(0, ()))

    def test_solves_the_divisor_matrix_it_returns(self):
        g = tied_star()
        assert spectral_radius_adjacency(g).divisor == orbit_divisor_matrix(g)
        equitable = spectral_radius_adjacency(cycle(6), unit_partition(6))
        assert equitable.divisor == from_dense(((2,),), (6,))
        assert equitable.rho == pytest.approx(2.0, abs=1e-12)

    def test_non_equitable_partition_rejected_before_the_solve(self):
        with pytest.raises(ValueError, match="not equitable"):
            spectral_radius_adjacency(path(5), unit_partition(5))

    @pytest.mark.parametrize("n", [2, 3, 50, 400, 2000])
    def test_path_closed_forms(self, n):
        rho, gamma = path_closed_form(n)
        data = spectral_radius_adjacency(path(n))
        assert data.rho == pytest.approx(rho, rel=1e-9)
        assert data.rho_divisor == pytest.approx(rho, rel=1e-9)
        assert data.gamma == pytest.approx(gamma, rel=1e-9)
        assert_certified(data)

    def test_cartesian_product_adds_rho_and_multiplies_gamma(self):
        (rho5, gamma5), (rho80, gamma80) = path_closed_form(5), path_closed_form(80)
        data = spectral_radius_adjacency(cartesian_product(path(5), path(80)))
        assert data.rho == pytest.approx(rho5 + rho80, rel=1e-9)
        assert data.gamma == pytest.approx(gamma5 * gamma80, rel=1e-9)
        assert_certified(data)

    @pytest.mark.parametrize("q", [2, 5, 17])
    def test_star_bipartite(self, q):
        data = spectral_radius_adjacency(star(q))
        assert data.rho == pytest.approx(math.sqrt(q), rel=1e-12)
        assert data.gamma == pytest.approx(math.sqrt(q), rel=1e-12)
        assert_certified(data)

    def test_complete_bipartite_3_4(self):
        g = Graph.from_edges(7, [(a, b) for a in range(3) for b in range(3, 7)])
        data = spectral_radius_adjacency(g)
        assert data.rho == pytest.approx(math.sqrt(12), rel=1e-12)
        assert data.gamma == pytest.approx(2 / math.sqrt(3), rel=1e-12)
        assert_certified(data)

    def test_clique_with_long_pendant_path(self):
        # K_10 with a 40-edge path hung on vertex 9: the Perron vector falls
        # by about 1e-38 along the path.  Walking back from its end, the
        # ratios x_(k-1) / x_k are c_1 = rho and c_k = rho - 1 / c_(k-1).
        k, length = 10, 40
        edges = [(i, j) for i in range(k) for j in range(i)]
        edges += [(k - 1 + i, k + i) for i in range(length)]
        g = Graph.from_edges(k + length, edges)
        data = spectral_radius_adjacency(g)
        assert data.rho == pytest.approx(rho_dense_oracle(g), rel=1e-12)
        c, ratio = data.rho, data.rho
        for _ in range(length - 1):
            c = data.rho - 1 / c
            ratio *= c
        assert data.vector[k - 1] / data.vector[-1] == pytest.approx(ratio, rel=1e-9)
        assert data.gamma > 1e37
        assert_certified(data)


class TestDivisorRadius:
    def test_complete_bipartite_periodic(self):
        dm = from_dense(((0, 4), (3, 0)), (3, 4))
        assert spectral_radius_divisor(dm) == pytest.approx(math.sqrt(12), rel=1e-12)

    def test_scalar(self):
        assert spectral_radius_divisor(from_dense(((2,),), (5,))) == 2.0

    def test_two_by_two_sun_matrix(self):
        dm = from_dense(((0, 1), (1, 2)), (4, 4))
        assert spectral_radius_divisor(dm) == pytest.approx(1 + math.sqrt(2), abs=1e-9)

    def test_tied_star_cross_oracle(self):
        g = tied_star()
        dm = orbit_divisor_matrix(g)
        rho_div = spectral_radius_divisor(dm)
        assert rho_div == pytest.approx(spectral_radius_adjacency(g).rho, abs=1e-9)
        assert rho_div == pytest.approx(rho_charpoly_oracle(dense(dm)), abs=1e-9)

    # The benchmark's path and prism matrices, whose rows are chain rows,
    # follow the two first graphs.
    @pytest.mark.parametrize(
        "graph",
        [tied_star(), cartesian_product(path(5), path(80)), path(300), path(400), cons.prism(path(150))],
    )
    def test_open_bracket_symmetrizes_once_and_makes_no_pinned_solve(self, graph, monkeypatch):
        # rho is the kernel's top alone, the value _divisor_perron returns
        # and analyze prints.
        dm = orbit_divisor_matrix(graph)
        assert min(dm.row_sums()) < max(dm.row_sums())
        expected = spectral._divisor_perron(dm)[0]
        assert expected == analyze_term(graph).rho_divisor
        symmetrized, calls = spectral._symmetrized, []
        monkeypatch.setattr(spectral, "_symmetrized", lambda dm: calls.append(dm) or symmetrized(dm))
        for kernel in (spectral._Envelope, spectral._Lapack):
            monkeypatch.setattr(kernel, "pinned", None)
        assert spectral_radius_divisor(dm) == expected
        assert len(calls) == 1

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="^divisor matrix needs nonnegative entries and positive cell sizes$"):
            spectral_radius_divisor(from_dense(((0, 1), (-1, 2)), (1, 1)))

    def test_reducible_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            spectral_radius_divisor(from_dense(((1, 0), (0, 2)), (1, 1)))
        with pytest.raises(ValueError, match="reducible"):
            spectral_radius_divisor(from_dense(((0, 1), (0, 1)), (1, 1)))

    @pytest.mark.parametrize(
        "dm",
        [
            from_dense(((0, 2), (1, 0)), (1, 1)),
            from_dense(((0, 1), (1, 0)), (1, 2)),
            from_dense(((0, 1, 0), (0, 0, 1), (1, 0, 0)), (1, 1, 1)),
        ],
    )
    def test_not_symmetrizable_rejected(self, dm):
        with pytest.raises(ValueError, match="not symmetrizable"):
            spectral_radius_divisor(dm)


class TestPrincipalRatio:
    def test_vertex_transitive_is_one(self):
        assert spectral_radius_adjacency(cycle(6)).gamma == pytest.approx(1.0, abs=1e-12)

    def test_path3_sqrt2(self):
        assert spectral_radius_adjacency(path(3)).gamma == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_isomorphism_invariant(self):
        g = path(5)
        h = g.relabel([4, 2, 0, 1, 3])
        assert spectral_radius_adjacency(g).gamma == pytest.approx(spectral_radius_adjacency(h).gamma, abs=1e-9)


@pytest.mark.parametrize("k, length", [(5, 1), (5, 5), (5, 50), (5, 300), (5, 500), (10, 100), (3, 400)])
def test_a_pendant_path_falls_as_its_closed_form(k, length):
    # K_k with a path of `length` vertices hung at vertex 0: along the path
    # x_j is proportional to sinh((length + 1 - j) theta) with 2 cosh theta = rho,
    # so x_0 / x_end = sinh((length + 1) theta) / sinh theta.
    edges = [*combinations(range(k), 2), (0, k), *((v, v + 1) for v in range(k, k + length - 1))]
    data = spectral_radius_adjacency(Graph.from_edges(k + length, edges))
    theta = math.acosh(data.rho / 2)
    ratio = data.vector[0] / data.vector[k + length - 1]
    assert ratio == pytest.approx(math.sinh((length + 1) * theta) / math.sinh(theta), rel=1e-11)


@pytest.mark.parametrize("m, k", [(30, 3), (120, 4), (400, 3), (600, 3)])
def test_loaded_cycles_have_their_closed_form_perron_data(m, k):
    # The paper's loaded cycles: a k-cycle with a pendant path of m vertices
    # at each vertex.  Along a path x_j is proportional to sinh((m + 1 - j) theta),
    # with 2 cosh theta = rho and sinh((m + 2) theta) = 2 sinh((m + 1) theta).
    # For m >= 30, e^theta = 2 to double precision, so rho = 5/2 and the
    # principal ratio is sinh((m + 1) theta) / sinh theta = (2^(m+2) - 2^-m) / 3,
    # for any k; at m = 600 it is about 5.5e180.
    term = analyze_term(loaded_torus((k,), 1, m))
    assert term.order == k * (m + 1)
    assert abs(term.rho_adjacency - 2.5) <= 1e-12
    exact = (Fraction(2) ** (m + 2) - Fraction(1, 2**m)) / 3
    assert abs(Fraction(term.principal_ratio) - exact) <= Fraction(1, 10**12) * exact


class TestOrbitConstancy:
    def test_path5(self):
        report = check_orbit_constancy(path(5))
        assert report.ok and report.max_spread < 1e-9

    def test_cycle6_single_cell(self):
        report = check_orbit_constancy(cycle(6))
        assert report.ok and len(report.cell_spreads) == 1

    def test_generalized_sun_quotient_residual(self):
        report = check_orbit_constancy(cycle_with_cliques(5, 2, 3))
        assert report.ok and report.quotient_residual < 1e-9

    def test_non_orbit_partition_flagged(self):
        # the unit partition of a non-regular graph is not even equitable
        with pytest.raises(ValueError):
            check_orbit_constancy(path(5), unit_partition(5))


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_n=2, max_n=7))
def test_lemma_agreement_and_degree_sandwich(g):
    data = spectral_radius_adjacency(g)
    rho_div = spectral_radius_divisor(orbit_divisor_matrix(g))
    assert abs(data.rho - rho_div) < 1e-9
    assert data.rho == pytest.approx(rho_dense_oracle(g), abs=1e-9)
    stats = degree_stats(g)
    assert stats.min_degree - 1e-9 <= data.rho <= stats.max_degree + 1e-9
    assert data.gamma >= 1.0 - 1e-12


@settings(max_examples=40, deadline=None)
@given(connected_graphs(min_n=2, max_n=7))
def test_orbit_constancy_property(g):
    report = check_orbit_constancy(g, orbit_partition(g))
    assert report.ok


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


# The benchmark's slow-mixing graphs: path-like quotients of 75 to 200 cells.
SLOW_MIXING_GRAPHS = {
    "path(300)": path(300),
    "path(400)": path(400),
    "prism(path(150))": cons.prism(path(150)),
    "cartesian_product(path(5),path(80))": cartesian_product(path(5), path(80)),
}


def irregular_dense(seed: int, n: int = 20) -> Graph:
    """A connected graph on n vertices with edge density about 1/2 and
    unequal degrees, so that its discrete quotient takes the bisection."""
    rng = random.Random(seed)
    while True:
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < 0.5])
        if is_connected(g) and len(set(g.degrees())) > 1:
            return g


def discrete_partition(n: int) -> Partition:
    """Every vertex its own cell (ell = n), equitable on every graph."""
    return Partition(tuple((v,) for v in range(n)))


def chorded_cycle(n: int) -> Graph:
    """The n-cycle with the chord 0-3; the reflection swapping 0 and 3 is an automorphism."""
    return Graph.from_edges(n, [*cycle(n).edges, (0, 3)])


def complete_minus_edge(n: int) -> Graph:
    """K_n less the edge 0-1."""
    return Graph.from_edges(n, complete(n).edges - {(0, 1)})


# ENVELOPE_WORK values that route every solve through the envelope kernel
# and through LAPACK.
KERNELS = (10**9, -1)


def assert_kernels_agree(graph: Graph, partition: Partition) -> None:
    """The envelope kernel against LAPACK on the same symmetrized matrix.

    ENVELOPE_WORK above every envelope's work sends each solve through the
    pure-Python kernel, and -1 sends it through LAPACK; both results must be
    certified.
    """
    dm = divisor_matrix(graph, partition)
    results = []
    for work in KERNELS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "ENVELOPE_WORK", work)
            rho_divisor, pivot, _ = spectral._divisor_perron(dm)
            data = spectral_radius_adjacency(graph, partition)
        assert data.rho_divisor == rho_divisor
        assert_certified(data)
        results.append((pivot, data))
    (pivot_py, py), (pivot_np, lapack) = results
    assert pivot_py == pivot_np
    assert py.rho_divisor == pytest.approx(lapack.rho_divisor, rel=1e-12, abs=1e-300)
    assert py.vector == pytest.approx(lapack.vector, rel=1e-12, abs=1e-300)


class TestKernelsAgree:
    @pytest.mark.parametrize("name", FAMILY_GRAPHS)
    def test_family_graphs(self, name):
        graph = FAMILY_GRAPHS[name]
        assert_kernels_agree(graph, orbit_partition(graph))

    @pytest.mark.parametrize("name", FAMILY_SEQUENCES)
    def test_family_sequences(self, name):
        for graph in generate(SequenceSpec.from_dict(FAMILY_SEQUENCES[name]), 5):
            assert_kernels_agree(graph, orbit_partition(graph))

    @pytest.mark.parametrize(
        "graph",
        [path(6), cycle(7), complete(5), star(4), tied_star(), cartesian_product(path(3), cycle(4)), cons.crossed_prism(8),
         chorded_cycle(7), complete_minus_edge(5), cons.prism(path(8))],
        ids=["P6", "C7", "K5", "star4", "tied-star", "P3xC4", "crossed-prism8", "C7+chord", "K5-e", "ladder8"],
    )
    def test_discrete_partitions(self, graph):
        # C7, K5 and crossed-prism8 are regular and reach no kernel; C7+chord,
        # K5-e and ladder8 are their irregular twins, on which both kernels
        # run and several entries of u tie with the largest.
        assert_kernels_agree(graph, discrete_partition(graph.n))

    @pytest.mark.parametrize("name", SLOW_MIXING_GRAPHS)
    def test_slow_mixing_graphs(self, name):
        graph = SLOW_MIXING_GRAPHS[name]
        assert_kernels_agree(graph, orbit_partition(graph))

    @pytest.mark.parametrize("seed", range(4))
    def test_irregular_dense_discrete_partitions(self, seed):
        graph = irregular_dense(seed)
        assert_kernels_agree(graph, discrete_partition(graph.n))

    def test_pivot_ties_pick_the_first_cell(self):
        # K5 less the edge 0-1: vertices 2, 3 and 4 tie for the largest entry of u.
        dm = divisor_matrix(complete_minus_edge(5), discrete_partition(5))
        for work in KERNELS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spectral, "ENVELOPE_WORK", work)
                assert spectral._divisor_perron(dm)[1] == 2


def test_envelope_kernel_on_path_2000_matches_the_closed_form(monkeypatch):
    # 1000 orbit cells; bisection from the row-sum bracket [1, 2].
    monkeypatch.setattr(spectral, "ENVELOPE_WORK", KERNELS[0])
    n = 2000
    theta = math.pi / (n + 1)
    sines = [math.sin(k * theta) for k in range(1, n + 1)]
    total = math.fsum(sines)
    data = spectral_radius_adjacency(path(n))
    assert data.rho_divisor == pytest.approx(2 * math.cos(theta), rel=1e-15)
    assert data.vector == pytest.approx([x / total for x in sines], rel=1e-10)
    assert_certified(data)


def test_envelope_kernel_refuses_a_matrix_that_never_factors():
    # rho = 2 lies above the whole bracket [0, 1], and -1 I minus the matrix
    # without cell 0 has the pivot -1.
    kernel = spectral._Envelope([{1: 2.0}, {0: 2.0}], [0, 1], [0, 0])
    with pytest.raises(spectral.CertificateError, match="not a nonsingular M-matrix"):
        kernel.top((0, 1))
    with pytest.raises(spectral.CertificateError, match="not positive definite"):
        kernel.pinned(0, -1.0)


@st.composite
def banded_matrices(draw, max_ell: int = 12) -> list[dict[int, float]]:
    """A symmetric matrix with nonnegative entries, as sparse rows, whose row
    k has width w_k in 0..3 in index order: its first entry left of the
    diagonal is in column k - w_k, and each column between holds an entry
    or not.  Some entries held are 0.0, whose negation in the band is -0.0."""
    ell = draw(st.integers(1, max_ell))
    rows: list[dict[int, float]] = [{} for _ in range(ell)]
    for k in range(ell):
        if width := draw(st.integers(0, min(k, 3))):
            for j in [k - width, *(j for j in range(k - width + 1, k) if draw(st.booleans()))]:
                rows[k][j] = rows[j][k] = draw(st.one_of(st.just(0.0), st.floats(0.0625, 4.0)))
        if draw(st.booleans()):
            rows[k][k] = draw(st.floats(0.0, 4.0))
    return rows


def _bits(value):
    """value with every float as its hex form, so that == also tells -0.0 from 0.0."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def _outcome(call, *args):
    """call(*args) as _bits gives it, or the message of the CertificateError it raised."""
    try:
        return _bits(call(*args))
    except spectral.CertificateError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(banded_matrices(), st.data())
def test_chain_rows_match_the_general_row_loop_bit_for_bit(rows, data):
    # _Envelope runs rows of width one, and the one-product updates of wider
    # rows, as scalars; factor, solve, top and pinned must equal the general
    # row loop's results float for float, signed zeros included, on rows of
    # width 0, 1 and 2-3 mixed.
    ell = len(rows)
    order = list(range(ell))
    first = spectral._envelope_starts(rows, order)
    kernel, reference = spectral._Envelope(rows, order, first), ReferenceEnvelope(rows, order, first)
    sums = [math.fsum(row.values()) for row in rows]
    shift = data.draw(st.floats(min(sums) - 1.0, max(sums) + 1.0))
    assert _bits(kernel.factor(shift)) == _bits(reference.factor(shift))
    # rho is at most the largest row sum, so this shift factors.
    safe = max(sums) + 1.0
    signed = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-2.0, 2.0))
    b = data.draw(st.lists(signed, min_size=ell, max_size=ell))
    assert _bits(kernel.solve(kernel.factor(safe), b)) == _bits(reference.solve(reference.factor(safe), b))
    assert _outcome(kernel.top, sums) == _outcome(reference.top, sums)
    r = data.draw(st.integers(0, ell - 1))
    rho = data.draw(st.floats(min(sums) - 1.0, safe))
    assert _outcome(kernel.pinned, r, rho) == _outcome(reference.pinned, r, rho)


def test_a_chain_row_keeps_the_sign_of_zero():
    # Row 1 is a chain row, and its forward sweep subtracts -0.0 from -0.0:
    # the general loop's sum() makes that -0.0 - 0.0 = -0.0.
    rows = [{1: 1.0}, {0: 1.0}]
    kernel, reference = spectral._Envelope(rows, [0, 1], [0, 0]), ReferenceEnvelope(rows, [0, 1], [0, 0])
    x = kernel.solve(kernel.factor(3.0), [0.0, -0.0])
    assert _bits(x) == _bits(reference.solve(reference.factor(3.0), [0.0, -0.0])) == [(0.0).hex(), (-0.0).hex()]


@pytest.mark.parametrize(
    "graph", [*SLOW_MIXING_GRAPHS.values(), path(2000)], ids=[*SLOW_MIXING_GRAPHS, "path(2000)"]
)
def test_chain_rows_match_the_general_row_loop_on_slow_mixing_graphs(graph):
    dm = divisor_matrix(graph, orbit_partition(graph))
    rows = spectral._symmetrized(dm)
    order = spectral._rcm_order(rows)
    first = spectral._envelope_starts(rows, order)
    kernel, reference = spectral._Envelope(rows, order, first), ReferenceEnvelope(rows, order, first)
    rho, u = kernel.top(dm.row_sums())
    assert _bits((rho, u)) == _bits(reference.top(dm.row_sums()))
    r = u.index(max(u))
    assert _bits(kernel.pinned(r, rho)) == _bits(reference.pinned(r, rho))


def test_lapack_top_restores_its_matrix_exactly():
    # top shifts the matrix in place for its solve, and pinned reads it after.
    for graph, partition in ((path(6), orbit_partition(path(6))), (irregular_dense(0), discrete_partition(20))):
        dm = divisor_matrix(graph, partition)
        kernel = spectral._Lapack(spectral._symmetrized(dm))
        before = kernel.m.copy()
        kernel.top(dm.row_sums())
        assert np.array_equal(kernel.m, before) and np.array_equal(np.signbit(kernel.m), np.signbit(before))


def _numpy_imports(node: ast.AST, where: str | None):
    """The innermost enclosing class (None outside every class) of each
    import of numpy under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import) and any(alias.name.partition(".")[0] == "numpy" for alias in child.names) or (
            isinstance(child, ast.ImportFrom) and (child.module or "").partition(".")[0] == "numpy"
        ):
            yield where
        yield from _numpy_imports(child, child.name if isinstance(child, ast.ClassDef) else where)


def test_the_sources_import_numpy_once_in_the_lapack_kernel():
    # numpy stays off the CLI's start-up: only the dense kernel imports it.
    src = Path(spectral.__file__).resolve().parents[1]
    hits = [(file.relative_to(src).as_posix(), where) for file in sorted(src.rglob("*.py"))
            for where in _numpy_imports(ast.parse(file.read_text(encoding="utf-8")), None)]
    assert hits == [("orbigraph/spectral.py", "_Lapack")]


@settings(max_examples=80, deadline=None)
@given(connected_graphs(min_n=1, max_n=8))
def test_kernels_agree_on_connected_graphs(g):
    assert_kernels_agree(g, orbit_partition(g))
    assert_kernels_agree(g, discrete_partition(g.n))


def assert_top_is_the_bisection_float(graph: Graph, partition: Partition, most: int | None = None) -> None:
    """_Envelope.top gives the float of plain bisection, in at most `most`
    factorizations when given; a closed row-sum bracket reaches no kernel."""
    dm = divisor_matrix(graph, partition)
    sums = dm.row_sums()
    if min(sums) == max(sums):
        return
    rows = spectral._symmetrized(dm)
    order = spectral._rcm_order(rows)
    kernel = spectral._Envelope(rows, order, spectral._envelope_starts(rows, order))
    calls = []
    factor = kernel.factor
    kernel.factor = lambda shift: calls.append(shift) or factor(shift)
    rho, _ = kernel.top(sums)
    assert rho == bisection_top(spectral._Envelope(rows, order, kernel.first), sums)
    if most is not None:
        assert len(calls) <= most


@pytest.mark.parametrize("name", SLOW_MIXING_GRAPHS)
def test_noda_top_on_slow_mixing_graphs(name):
    # Plain bisection from the row-sum bracket takes about 54 factorizations.
    graph = SLOW_MIXING_GRAPHS[name]
    assert_top_is_the_bisection_float(graph, orbit_partition(graph), most=15)


def test_noda_top_on_p5_and_path_2000():
    assert_top_is_the_bisection_float(path(5), orbit_partition(path(5)))
    assert_top_is_the_bisection_float(path(2000), orbit_partition(path(2000)), most=25)


@settings(max_examples=80, deadline=None)
@given(connected_graphs(min_n=1, max_n=8))
def test_noda_top_on_connected_graphs(g):
    assert_top_is_the_bisection_float(g, orbit_partition(g))
    assert_top_is_the_bisection_float(g, discrete_partition(g.n))


def complete_bipartite(n: int) -> Graph:
    return Graph.from_edges(2 * n, [(a, n + b) for a in range(n) for b in range(n)])


def assert_closed_bracket(graph: Graph) -> None:
    """On a connected k-regular graph every row sum of the divisor matrix is
    k, so rho = k and the Perron vector is constant, with no kernel run."""
    (k,) = set(graph.degrees())

    def no_kernel(*args):
        raise AssertionError("a closed row-sum bracket reached a kernel")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_kernel", no_kernel)
        for partition in (orbit_partition(graph), discrete_partition(graph.n)):
            data = spectral_radius_adjacency(graph, partition)
            assert data.rho_divisor == k and spectral_radius_divisor(data.divisor) == k
            assert data.gamma == 1.0
            assert len(set(data.vector)) == 1 and len(set(data.orbit_values)) == 1
            assert_certified(data)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_n=1, max_n=8).filter(lambda g: len(set(g.degrees())) == 1))
def test_regular_graphs_have_a_closed_bracket(g):
    assert_closed_bracket(g)


@pytest.mark.parametrize(
    "graph",
    [cycle(3), cycle(10), complete(1), complete(2), complete(6), complete_bipartite(3), complete_bipartite(5),
     cons.crossed_prism(8), cons.torus((3, 4)), rigid_cubic(5, 150)],
    ids=["C3", "C10", "K1", "K2", "K6", "K3,3", "K5,5", "crossed-prism8", "torus3x4", "rigid-cubic150"],
)
def test_regular_families_have_a_closed_bracket(graph):
    assert_closed_bracket(graph)


def test_a_closed_bracket_symmetrizes_nothing(monkeypatch):
    # Equal row sums decide rho before the matrix is symmetrized; input from
    # outside is still checked (test_not_symmetrizable_rejected).
    def refused(dm):
        raise AssertionError("symmetrized on a closed bracket")

    monkeypatch.setattr(spectral, "_symmetrized", refused)
    assert spectral_radius_adjacency(rigid_cubic(5, 150)).rho == 3.0
    assert spectral_radius_adjacency(cycle(10)).rho_divisor == 2.0
