import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings

from helpers import (
    _find_witness,
    all_connected_graphs,
    cfi_graph,
    connected_graphs,
    dense,
    dense_divisor_matrix,
    equalizes,
    frucht,
    from_dense,
    is_isomorphism,
    json_form,
    omega_from_divisor,
    pendant_trees,
    relabelled,
    rigid_cubic,
    spider,
    tied_star,
    vertex_permutations,
)
from orbigraph.aut import (
    Partition,
    _isomorphism,
    automorphism_group,
    equitable_refinement,
    orbit_partition,
    unit_partition,
)
from orbigraph.constructions import complete, cycle, generalized_sun, loaded_torus, path, star, strong_prism
from orbigraph import orbital
from orbigraph.graph_core import Graph, Ratio
from orbigraph.sequences import analyze_term
from orbigraph.spectral import spectral_radius_divisor
from orbigraph.orbital import (
    DivisorMatrix,
    SimilarityVerdict,
    _cell_digraph,
    divisor_matrix,
    entropy_of,
    orbit_divisor_matrix,
    orbit_profile,
    orbitally_similar,
    similar_divisors,
)

F = Fraction

SPATH = ((0, 1, 0), (1, 0, 1), (0, 2, 0))
STIED = ((1, 0, 1), (0, 0, 1), (2, 2, 0))


class TestDivisorMatrix:
    def test_path5(self):
        dm = orbit_divisor_matrix(path(5))
        assert dense(dm) == SPATH
        assert dm.sizes == (2, 2, 1)

    def test_vertex_transitive_scalar(self):
        dm = divisor_matrix(cycle(8), unit_partition(8))
        assert dense(dm) == ((2,),)

    def test_tied_star(self):
        g = tied_star()
        assert orbit_partition(g).cells == ((0, 4), (2, 3), (1,))
        assert dense(orbit_divisor_matrix(g)) == STIED

    def test_row_sums_are_degrees(self):
        dm = orbit_divisor_matrix(star(4))
        assert dm.row_sums() == (1, 4)

    def test_not_equitable_reported(self):
        with pytest.raises(ValueError, match="not equitable"):
            divisor_matrix(path(5), unit_partition(5))

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            divisor_matrix(g, unit_partition(4))

    def test_wrong_vertex_count(self):
        with pytest.raises(ValueError):
            divisor_matrix(path(5), unit_partition(4))

    def test_json_round_trip(self):
        dm = orbit_divisor_matrix(path(5))
        record = json_form(dm)
        flat, ell = record["entries"], record["ell"]
        assert from_dense([flat[i : i + ell] for i in range(0, ell**2, ell)], record["sizes"]) == dm

    def test_rows_hold_the_positive_entries_in_column_order(self):
        dm = orbit_divisor_matrix(path(5))
        assert dm.rows == (((1, 1),), ((0, 1), (2, 1)), ((1, 2),))
        assert dm == orbit_divisor_matrix(path(5)) == from_dense(SPATH, (2, 2, 1))
        assert json_form(dm)["entries"] == [0, 1, 0, 1, 0, 1, 0, 2, 0]

    def test_fields_cannot_be_assigned(self):
        dm = orbit_divisor_matrix(path(5))
        with pytest.raises(AttributeError):
            dm.ell = 2
        assert dm.ell == 3


class TestEntropy:
    def test_half_quarter_quarter(self):
        assert entropy_of((F(2, 4), F(1, 4), F(1, 4))) == pytest.approx(1.5, abs=1e-12)

    def test_single_cell(self):
        assert entropy_of((F(1),)) == 0.0

    def test_two_fifths_value(self):
        assert entropy_of((F(8, 20), F(8, 20), F(4, 20))) == pytest.approx(1.5219, abs=5e-5)

    def test_equal_vectors_bit_identical(self):
        a = entropy_of((F(2, 5), F(2, 5), F(1, 5)))
        b = entropy_of((F(4, 10), F(4, 10), F(2, 10)))
        assert a == b

    def test_rejects_non_probability(self):
        with pytest.raises(ValueError):
            entropy_of((F(1, 2), F(1, 4)))
        with pytest.raises(ValueError):
            entropy_of((F(3, 2), F(-1, 2)))
        with pytest.raises(ValueError):
            entropy_of(())
        # a component must be an exact rational: no float, str or bool
        for omega in ([0.5, 0.5], ["a"], [True], [F(1, 2), 0.5]):
            with pytest.raises(ValueError, match="not an exact rational"):
                entropy_of(omega)


class TestOrbitProfile:
    def test_path5(self):
        prof = orbit_profile(path(5))
        assert prof.omega == (F(2, 5), F(2, 5), F(1, 5))
        assert prof.entropy == pytest.approx(1.5219, abs=5e-5)

    def test_vertex_transitive(self):
        prof = orbit_profile(cycle(11))
        assert prof.omega == (F(1),)
        assert prof.entropy == 0.0

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            orbit_profile(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_is_entropy_of_omega_on_the_graph_atlas(self):
        nx = pytest.importorskip("networkx")
        for g in nx.graph_atlas_g():
            if g.number_of_nodes() and nx.is_connected(g):
                graph = Graph.from_edges(g.number_of_nodes(), g.edges())
                _check_profile(orbit_profile(graph), orbit_partition(graph).cells, graph.n)

    def test_is_entropy_of_omega_on_mixed_cell_sizes(self, monkeypatch):
        # Random partitions stand in for the orbits of a path, so that many
        # distinct sizes, and many repeats of each, reach the arithmetic.
        rng = random.Random(2501)
        for _ in range(200):
            sizes = [rng.choice((1, 1, 2, 3, 5, 8, 13)) for _ in range(rng.randint(1, 40))]
            n = sum(sizes)
            members = rng.sample(range(n), n)
            cells = [members[sum(sizes[:i]) : sum(sizes[: i + 1])] for i in range(len(sizes))]
            monkeypatch.setattr(orbital, "orbit_partition", lambda graph: Partition.from_cells(cells))
            _check_profile(orbit_profile(path(n)), cells, n)

    @pytest.mark.parametrize("graph", [rigid_cubic(11, 300), spider((1, 1, 2, 2, 2, 3)), loaded_torus((4, 6), 3, 2)])
    def test_analyze_term_makes_one_fraction_per_distinct_orbit_size(self, graph, monkeypatch):
        made = []

        def counted(*args):
            made.append(args)
            return Ratio(*args)

        monkeypatch.setattr(orbital, "Ratio", counted)
        record = analyze_term(graph)
        assert 0 < len(made) <= len(set(map(len, record.orbits)))


def _check_profile(profile, cells, n: int) -> None:
    """profile is (omega, entropy_of(omega)) for these cells, the entropy bit for bit."""
    omega = tuple(sorted((F(len(cell), n) for cell in cells), reverse=True))
    assert (profile.omega, profile.entropy) == (omega, entropy_of(omega))
    assert profile.entropy.hex() == entropy_of(omega).hex()


class TestSimilarity:
    def test_cycles_similar(self):
        verdict = orbitally_similar(cycle(4), cycle(8))
        assert verdict.similar
        assert dense(verdict.common_matrix) == ((2,),)

    def test_path_vs_tied_star_dissimilar(self):
        assert not orbitally_similar(path(5), tied_star()).similar

    def test_reflexive_identity_witness(self):
        g = tied_star()
        verdict = orbitally_similar(g, g)
        assert verdict.similar and verdict.witness == (0, 1, 2)

    def test_strong_prisms_of_similar_bases(self):
        verdict = orbitally_similar(strong_prism(cycle(4)), strong_prism(cycle(8)))
        assert verdict.similar
        assert dense(verdict.common_matrix) == ((5,),)

    def test_witness_equalizes_matrices(self):
        g, h = generalized_sun(3, 1), generalized_sun(5, 1)
        verdict = orbitally_similar(g, h)
        assert verdict.similar
        bg = dense(orbit_divisor_matrix(g))
        bh = dense(orbit_divisor_matrix(h))
        pi = verdict.witness
        for i in range(len(bh)):
            for j in range(len(bh)):
                assert bg[pi[i]][pi[j]] == bh[i][j]

    def test_symmetric(self):
        assert orbitally_similar(tied_star(), path(5)).similar == orbitally_similar(
            path(5), tied_star()
        ).similar

    def test_thirteen_cells_identity_witness(self):
        verdict = orbitally_similar(path(25), path(25))
        assert verdict.similar
        assert verdict.witness == tuple(range(13))

    def test_rigid_graph_against_its_relabelling(self):
        # A spider with legs of 1, 2, 3, 4 and 5 edges: 16 vertices, no
        # automorphism but the identity, so its orbits are its 16 vertices
        # in order and the only witness is the inverse relabelling.
        edges, v = [], 1
        for length in range(1, 6):
            edges.append((0, v))
            edges.extend((w, w + 1) for w in range(v, v + length - 1))
            v += length
        g = Graph.from_edges(16, edges)
        image = [(7 * u + 3) % 16 for u in range(16)]
        verdict = orbitally_similar(g, g.relabel(image))
        inverse = [0] * 16
        for u, w in enumerate(image):
            inverse[w] = u
        assert verdict.similar
        assert verdict.witness == tuple(inverse)

    def test_agrees_with_backtracking_oracle(self):
        # One connected graph per distinct orbit divisor matrix on n <= 5
        # (67 matrices); every ordered pair with equal cell counts.
        reps: dict[DivisorMatrix, Graph] = {}
        for n in range(1, 6):
            for g in all_connected_graphs(n):
                reps.setdefault(orbit_divisor_matrix(g), g)
        similar = 0
        for sg, g in reps.items():
            for sh, h in reps.items():
                if sg.ell == sh.ell:
                    verdict = orbitally_similar(g, h)
                    assert verdict.similar == (_find_witness(sg, sh) is not None)
                    if verdict.similar:
                        similar += 1
                        assert equalizes(verdict.witness, sg, sh)
        assert similar > len(reps)

    def test_cfi_graph_and_its_twist(self):
        # The CFI graph over the Frucht graph and its one-edge twist are not
        # isomorphic, but colour refinement cannot tell them apart, and both
        # have 48 orbits with the same divisor matrix.
        base = sorted(frucht().edges)
        g, h = cfi_graph(base), cfi_graph(base, twist=(0,))
        verdict = orbitally_similar(g, h)
        assert verdict.similar and len(verdict.witness) == 48
        assert equalizes(verdict.witness, orbit_divisor_matrix(g), orbit_divisor_matrix(h))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            orbitally_similar(Graph.from_edges(4, [(0, 1), (2, 3)]), path(4))


def _homothetic(g: Graph, h: Graph) -> bool:
    """Orbital homothety as the compare command decides it: equal orbit distribution vectors."""
    return orbit_profile(g).omega == orbit_profile(h).omega


def _searched_verdict(g: Graph, h: Graph):
    """The verdict of the cell digraph search, which orbitally_similar must match."""
    return similar_divisors(orbit_divisor_matrix(g), orbit_divisor_matrix(h))


@pytest.fixture
def isomorphism_calls(monkeypatch):
    """Counts the calls of the union search made through orbital."""
    calls = [0]
    search = orbital._isomorphism

    def counted(a, b):
        calls[0] += 1
        return search(a, b)

    monkeypatch.setattr(orbital, "_isomorphism", counted)
    return calls


class TestSingleLeafShortcut:
    """orbitally_similar decides a pair of graphs whose searches ended at a
    single leaf from the two leaves; it must give the search's verdict,
    witness and common matrix on every pair."""

    @pytest.mark.parametrize("n", [20, 50, 200])
    def test_rigid_relabellings(self, n):
        for seed in range(4):
            g = rigid_cubic(seed, n)
            h = relabelled(g, 1000 + seed)
            verdict = orbitally_similar(g, h)
            assert verdict.similar and h.relabel(verdict.witness) == g
            assert verdict == _searched_verdict(g, h)

    def test_non_isomorphic_rigid_pairs(self):
        graphs = [rigid_cubic(seed, n) for n in (20, 50) for seed in range(3)]
        for g in graphs:
            for h in graphs:
                if g != h:
                    verdict = orbitally_similar(g, h)
                    assert not verdict.similar
                    assert verdict == _searched_verdict(g, h)

    def test_pendant_trees_under_relabellings(self):
        g = pendant_trees()
        for seed in range(40):
            h = relabelled(g, seed)
            verdict = orbitally_similar(g, h)
            assert verdict.similar and h.relabel(verdict.witness) == g
            assert verdict == _searched_verdict(g, h)

    def test_asymmetric_graphs_of_the_atlas(self):
        nx = pytest.importorskip("networkx")
        graphs = []
        for a in nx.graph_atlas_g():
            if a.number_of_nodes() and nx.is_connected(a):
                g = Graph.from_edges(a.number_of_nodes(), a.edges())
                if orbit_divisor_matrix(g).ell == g.n:
                    graphs.append(g)
        # 153 graphs, each with a leaf, folded or not (83 unfolded)
        assert len(graphs) == 153 and all(automorphism_group(g).leaf is not None for g in graphs)
        degrees = [sorted(map(len, g.adjacency)) for g in graphs]
        for i, g in enumerate(graphs):
            # every other graph whose degrees do not tell it from g
            pairs = [(g, relabelled(g, i))] + [(g, h) for j, h in enumerate(graphs) if j != i and degrees[j] == degrees[i]]
            for a, b in pairs:
                assert orbitally_similar(a, b) == _searched_verdict(a, b)

    def test_an_unfolded_rigid_pair_searches_nothing_more(self, isomorphism_calls):
        g = rigid_cubic(3, 50)
        assert automorphism_group(g).leaf is not None
        assert orbitally_similar(g, relabelled(g, 3)).similar
        assert isomorphism_calls[0] == 0

    def test_a_failed_leaf_map_answers_dissimilar(self, isomorphism_calls):
        # Both leaf orders are canonical, so any isomorphism would be the
        # leaf map; when it fails, no search of the cell digraphs is needed.
        g, h = rigid_cubic(0, 50), rigid_cubic(1, 50)
        assert automorphism_group(g).leaf is not None and automorphism_group(h).leaf is not None
        assert orbitally_similar(g, h) == SimilarityVerdict(similar=False)
        assert isomorphism_calls[0] == 0

    def test_a_folded_rigid_pair_takes_the_leaf_map(self, isomorphism_calls):
        # _fold's names do not depend on the labels, so the leaves of folded
        # quotients are canonical too.
        g, h = pendant_trees(), relabelled(pendant_trees(), 5)
        assert automorphism_group(g).leaf is not None and automorphism_group(h).leaf is not None
        verdict = orbitally_similar(g, h)
        assert isomorphism_calls[0] == 0
        assert verdict.similar and h.relabel(verdict.witness) == g
        assert verdict == _searched_verdict(g, h)

    @pytest.mark.parametrize("pair", [(cycle(4), cycle(8)), (cycle(5), cycle(10))], ids=["twins", "symmetric"])
    def test_symmetric_pairs_are_searched(self, pair, isomorphism_calls):
        assert all(automorphism_group(g).leaf is None for g in pair)
        assert orbitally_similar(*pair).similar
        assert isomorphism_calls[0] >= 1


class TestHomothety:
    def test_path_vs_tied_star(self):
        assert _homothetic(path(5), tied_star())

    def test_single_orbit_graphs(self):
        assert _homothetic(complete(3), cycle(10))

    def test_path_vs_star(self):
        assert not _homothetic(path(5), star(4))


class TestOmegaFromDivisor:
    def test_worked_example(self):
        assert omega_from_divisor([[2, 1, 0], [3, 0, 1], [0, 1, 0]]) == (F(3, 5), F(1, 5), F(1, 5))

    def test_scalar(self):
        assert omega_from_divisor([[7]]) == (F(1),)

    def test_path5(self):
        assert omega_from_divisor(SPATH) == (F(2, 5), F(2, 5), F(1, 5))

    def test_not_strongly_connected(self):
        with pytest.raises(ValueError, match="strongly connected"):
            omega_from_divisor([[1, 0], [0, 2]])

    def test_one_sided_arc(self):
        with pytest.raises(ValueError, match="inconsistent"):
            omega_from_divisor([[0, 1], [0, 0]])

    def test_inconsistent_cycle_ratios(self):
        with pytest.raises(ValueError, match="inconsistent size ratios"):
            omega_from_divisor([[0, 1, 1], [2, 0, 1], [1, 1, 0]])

    def test_rejects_negative_and_ragged(self):
        with pytest.raises(ValueError):
            omega_from_divisor([[0, -1], [1, 0]])
        with pytest.raises(ValueError):
            omega_from_divisor([[0, 1], [1]])


@settings(max_examples=80, deadline=None)
@given(connected_graphs(max_n=7))
def test_edge_count_balance(g):
    dm = orbit_divisor_matrix(g)
    entries = dense(dm)
    for i in range(dm.ell):
        for j in range(dm.ell):
            assert dm.sizes[i] * entries[i][j] == dm.sizes[j] * entries[j][i]
    # row sums are the per-cell degrees
    deg = g.degrees()
    for i, cell in enumerate(orbit_partition(g).cells):
        assert sum(entries[i]) == deg[cell[0]]


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=7))
def test_omega_recovery_matches_profile(g):
    dm = orbit_divisor_matrix(g)
    recovered = omega_from_divisor(dense(dm))
    assert sorted(recovered, reverse=True) == list(orbit_profile(g).omega)
    assert recovered == tuple(F(s, g.n) for s in dm.sizes)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(min_n=2, max_n=6), vertex_permutations(6))
def test_isomorphic_graphs_similar_same_order(g, perm):
    image = [p for p in perm if p < g.n]
    h = g.relabel(image)
    verdict = orbitally_similar(g, h)
    assert verdict.similar
    assert g.n == h.n
    assert _homothetic(g, h)
    assert orbit_profile(g).entropy == orbit_profile(h).entropy


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=7), vertex_permutations(7))
def test_cell_relabelling_found(g, perm):
    sg = orbit_divisor_matrix(g)
    image = [p for p in perm if p < sg.ell]
    inverse = [image.index(i) for i in range(sg.ell)]
    entries = dense(sg)
    sh = from_dense(
        tuple(tuple(entries[inverse[i]][inverse[j]] for j in range(sg.ell)) for i in range(sg.ell)),
        tuple(sg.sizes[inverse[i]] for i in range(sg.ell)),
    )
    witness = _isomorphism(_cell_digraph(sh), _cell_digraph(sg))
    assert witness is not None and equalizes(witness, sg, sh)


def test_similar_divisors_refuses_a_reducible_matrix():
    # Two cells with no arc between them: a connected graph's divisor matrix
    # is irreducible, and this one is not.
    dm = from_dense(((1, 0), (0, 1)), (2, 2))
    with pytest.raises(ValueError, match="^divisor matrix is reducible$"):
        similar_divisors(dm, dm)


def _random_dense_divisor(rng: random.Random, ell: int) -> tuple[list[list[int]], list[int]]:
    """Dense entries and sizes of a random symmetrizable matrix: sizes from
    {1, 2, 3, 6}, s_i B_ij = s_j B_ji a multiple of lcm(s_i, s_j)."""
    sizes = [rng.choice((1, 2, 3, 6)) for _ in range(ell)]
    entries = [[0] * ell for _ in range(ell)]
    for i in range(ell):
        entries[i][i] = rng.randrange(3)
        for j in range(i + 1, ell):
            edges = math.lcm(sizes[i], sizes[j]) * rng.randrange(3)
            entries[i][j], entries[j][i] = edges // sizes[i], edges // sizes[j]
    return entries, sizes


def _irreducible(entries) -> bool:
    """Every cell reaches every other along the nonzero entries (dense closure)."""
    ell = len(entries)
    reach = [{j for j in range(ell) if entries[i][j]} | {i} for i in range(ell)]
    for k in range(ell):
        for i in range(ell):
            if k in reach[i]:
                reach[i] |= reach[k]
    return all(len(r) == ell for r in reach)


def test_similar_divisors_agrees_with_brute_force_or_refuses():
    # Random pairs with ell <= 4: half of them a relabelling of the first
    # matrix with all sizes scaled, and in half B_01 of one matrix bumped by
    # one, so that s_0 B_01 != s_1 B_10.  A symmetrizable irreducible pair
    # is answered as the permutation oracle answers; every other is refused.
    rng = random.Random(2024)
    answered = refused = 0
    for _ in range(2000):
        ell = rng.randint(1, 4)
        bg, sizes_g = _random_dense_divisor(rng, ell)
        if rng.random() < 0.5:
            image = rng.sample(range(ell), ell)
            scale = rng.choice((1, 2, 3))
            bh = [[bg[image[i]][image[j]] for j in range(ell)] for i in range(ell)]
            sizes_h = [scale * sizes_g[image[i]] for i in range(ell)]
        else:
            bh, sizes_h = _random_dense_divisor(rng, ell)
        bumped = ell >= 2 and rng.random() < 0.5
        if bumped:
            rng.choice((bg, bh))[0][1] += 1
        sg, sh = from_dense(bg, sizes_g), from_dense(bh, sizes_h)
        if bumped or not (_irreducible(bg) and _irreducible(bh)):
            with pytest.raises(ValueError):
                similar_divisors(sg, sh)
            refused += 1
            continue
        verdict = similar_divisors(sg, sh)
        assert verdict.similar == any(equalizes(p, sg, sh) for p in itertools.permutations(range(ell)))
        if verdict.similar:
            assert equalizes(verdict.witness, sg, sh) and verdict.common_matrix.rows == sh.rows
        answered += 1
    assert answered > 800 and refused > 800


_STAR = DivisorMatrix(2, (((1, 2),), ((0, 1),)), (1, 2))  # K_{1,2}: centre, then leaves

MALFORMED = {
    "column at ell": DivisorMatrix(2, (((1, 2),), ((0, 1), (2, 1))), (1, 2)),
    "negative column": DivisorMatrix(2, (((-1, 2),), ((0, 1),)), (1, 2)),
    "sizes shorter than ell": DivisorMatrix(2, _STAR.rows, (1,)),
    "two rows for ell 3": DivisorMatrix(3, _STAR.rows, (1, 2, 2)),
    "no cell": DivisorMatrix(0, (), ()),
    "zero sizes": DivisorMatrix(2, _STAR.rows, (0, 0)),
    "one zero size": DivisorMatrix(2, _STAR.rows, (1, 0)),
    "float entries": DivisorMatrix(2, (((1, 1.5),), ((0, 1.5),)), (1, 1)),
    "float sizes": DivisorMatrix(2, _STAR.rows, (1.0, 2.0)),
    "unsorted row": DivisorMatrix(3, (((2, 1), (1, 1)), ((0, 1),), ((0, 1),)), (1, 1, 1)),
    "repeated column": DivisorMatrix(2, (((1, 1), (1, 1)), ((0, 1),)), (1, 2)),
    "explicit zero entry": DivisorMatrix(2, (((0, 0), (1, 2)), ((0, 1),)), (1, 2)),
    "negative entry": from_dense(((0, 1), (-1, 2)), (1, 1)),
    "reducible": from_dense(((1, 0), (0, 1)), (2, 2)),
    "one-way arc": from_dense(((0, 1), (0, 1)), (1, 1)),
    "not symmetrizable": from_dense(((0, 2), (1, 0)), (1, 1)),
    "directed triangle": from_dense(((0, 1, 0), (0, 0, 1), (1, 0, 0)), (1, 1, 1)),
}


@pytest.mark.parametrize("dm", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_divisor_matrices_are_refused_by_both_public_functions(dm):
    for call in (
        lambda: similar_divisors(dm, dm),
        lambda: similar_divisors(_STAR, dm),
        lambda: similar_divisors(dm, _STAR),
        lambda: spectral_radius_divisor(dm),
    ):
        with pytest.raises(ValueError):
            call()


def test_similarity_implies_homothety_implies_entropy():
    pairs = [(cycle(3), cycle(10)), (path(5), path(7)), (star(3), star(5))]
    for g, h in pairs:
        if orbitally_similar(g, h).similar:
            assert _homothetic(g, h)
        if _homothetic(g, h):
            assert orbit_profile(g).entropy == pytest.approx(
                orbit_profile(h).entropy, abs=1e-12
            )


def _degree_sorted_connected_graphs(max_n: int):
    """Every connected graph on 1..max_n vertices up to isomorphism, in each
    of its labellings whose degrees do not increase with the label."""
    for n in range(1, max_n + 1):
        for g in all_connected_graphs(n):
            degrees = g.degrees()
            if degrees == sorted(degrees, reverse=True):
                yield g


def _matches_dense_oracle(g: Graph, p: Partition) -> bool:
    """divisor_matrix agrees with the dense oracle: the same matrix, or the
    same ValueError message; True when the partition is equitable."""
    try:
        expected = from_dense(dense_divisor_matrix(g, p), map(len, p.cells))
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            divisor_matrix(g, p)
        assert str(info.value) == str(exc)
        return False
    assert divisor_matrix(g, p) == expected
    return True


def test_sparse_rows_match_the_dense_oracle():
    for g in _degree_sorted_connected_graphs(6):
        assert _matches_dense_oracle(g, orbit_partition(g))
        assert _matches_dense_oracle(g, equitable_refinement(g))


def test_non_equitable_partitions_raise_the_dense_oracle_message():
    # Cells of equal label residues, listed with the largest residue first,
    # so that two vertices of a cell often differ in more than one column.
    equitable = rejected = 0
    for g in _degree_sorted_connected_graphs(6):
        for k in (1, 2, 3):
            cells = [[v for v in range(g.n) if v % k == r] for r in reversed(range(min(k, g.n)))]
            if _matches_dense_oracle(g, Partition.from_cells(cells)):
                equitable += 1
            else:
                rejected += 1
    assert equitable and rejected


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=7), connected_graphs(max_n=7))
def test_cell_digraph_colours_cells_by_relative_size_and_loops(g, h):
    # A cell's colour is (s/n, B_ii) of its own matrix: exact fractions, so
    # colours of two digraphs order and tie as the relative sizes do.
    matrices = [orbit_divisor_matrix(spider((1, 1, 2, 2, 2, 3))), orbit_divisor_matrix(loaded_torus((4, 6), 3, 2))]
    matrices += [orbit_divisor_matrix(g), orbit_divisor_matrix(h)]
    for dm in matrices:
        exact = [(F(s, sum(dm.sizes)), dict(row).get(i, 0)) for i, (row, s) in enumerate(zip(dm.rows, dm.sizes))]
        assert list(_cell_digraph(dm)[0]) == exact


def test_discrete_partition_of_a_long_cycle_stays_small():
    # One cell per vertex: ell = n = 2000, but only 2n nonzero entries.
    g = cycle(2000)
    p = Partition.from_cells([v] for v in range(g.n))
    tracemalloc.start()
    try:
        _, rows = _cell_digraph(divisor_matrix(g, p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, rows)) == 2 * g.n
    assert peak < 4 * 2**20


def test_divisor_with_explicit_alternative_order():
    # relabeling the two equal-size orbits of the path permutes the matrix
    cells = [[1, 3], [0, 4], [2]]
    dm = divisor_matrix(path(5), Partition.from_cells(cells))
    assert dense(dm) == ((0, 1, 1), (1, 0, 0), (2, 0, 0))


def _relabelled(dm: DivisorMatrix, image) -> DivisorMatrix:
    """The divisor matrix with cell i renamed image[i]."""
    inverse = [image.index(i) for i in range(dm.ell)]
    entries = dense(dm)
    return from_dense(
        tuple(tuple(entries[inverse[i]][inverse[j]] for j in range(dm.ell)) for i in range(dm.ell)),
        tuple(dm.sizes[inverse[i]] for i in range(dm.ell)),
    )


@pytest.mark.parametrize(
    "graph",
    [
        spider((1, 2, 2, 3)),
        spider((1, 1, 2, 2, 3, 3, 4)),
        spider((2, 5, 5, 7)),
        loaded_torus((5, 5), 2, 3),
        loaded_torus((4, 6), 3, 2),
        loaded_torus((6, 6), 1, 4),
    ],
)
def test_witnesses_on_the_cell_digraphs_of_spiders_and_loaded_tori(graph):
    # These cell digraphs are trees or carry pendant paths, with arc weights
    # and B_ii in the colours, so the pendant fold runs on both sides of the
    # union.
    sg = orbit_divisor_matrix(graph)
    for seed in range(4):
        image = random.Random(seed).sample(range(sg.ell), sg.ell)
        sh = _relabelled(sg, image)
        verdict = similar_divisors(sg, sh)
        assert verdict.similar and equalizes(verdict.witness, sg, sh)
        a, b = _cell_digraph(sh), _cell_digraph(sg)
        phi = _isomorphism(a, b)
        assert phi is not None and is_isomorphism(phi, a, b)
        assert is_isomorphism(_isomorphism(b, b), b, b)
