import copy
import functools
import itertools
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_connected_graphs,
    all_graphs,
    brute_force_group_order,
    brute_force_orbits,
    check_generators,
    connected_graphs,
    generalized_petersen,
    is_edge_transitive,
    naive_equitable_refinement,
    partition_by,
    preserves_edges,
    refines,
    rigid_cubic,
    vertex_permutations,
)
from orbigraph.aut import (
    ColouredDigraph,
    Partition,
    _Cells,
    automorphism_group,
    equitable_refinement,
    isomorphism,
    orbit_partition,
    unit_partition,
)
from orbigraph.constructions import (
    cartesian_product,
    circular_ladder,
    complete,
    corona,
    crossed_prism,
    cycle,
    cycle_with_cliques,
    disjoint_cliques,
    generalized_sun,
    loaded_torus,
    moebius_ladder,
    path,
    prism,
    star,
    torus,
)
from orbigraph.graph_core import Graph


class TestPartitionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition(((0, 1), (1, 2)))  # overlap
        with pytest.raises(ValueError):
            Partition(((0, 2),))  # not dense
        with pytest.raises(ValueError):
            Partition(((1, 0),))  # unsorted cell

    def test_cells_cannot_be_assigned(self):
        p = Partition(((0, 1),))
        with pytest.raises(AttributeError):
            p.cells = ((0,), (1,))
        assert p.cells == ((0, 1),)

    def test_copies_and_pickles_are_equal(self):
        p = Partition(((0, 2), (1,)))
        assert copy.deepcopy(p) == p and pickle.loads(pickle.dumps(p)) == p

    def test_canonical_order(self):
        p = Partition.from_cells([[2], [1, 3], [0, 4]])
        assert p.canonical().cells == ((0, 4), (1, 3), (2,))

    def test_refines(self):
        fine = Partition.from_cells([[0], [1], [2, 3]])
        coarse = Partition.from_cells([[0, 1], [2, 3]])
        assert refines(fine, coarse)
        assert not refines(coarse, fine)


class TestPermutationType:
    """Generators as the (v, image of v) pairs of the moved v."""

    def test_preserves_edges(self):
        assert preserves_edges(((0, 4), (1, 3), (3, 1), (4, 0)), path(5))
        assert not preserves_edges(((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)), path(5))

    def test_total_support_stays_linear_at_the_cap(self):
        # 1,200 of the 1,202 generators are twin swaps moving 2 or 4 vertices;
        # as dense images they would hold 2,404,000 entries
        g = cycle_with_cliques(400, 3, 2)
        assert sum(len(gen) for gen in automorphism_group(g).generators) <= 4 * g.n

    def test_complete_graph_search_holds_no_per_arc_data(self):
        # The engine reads arc weights from the adjacency rows; a dict of
        # the 2m = 639,200 arcs of K_800 alone would take tens of MB.
        g = complete(800)
        g.adjacency
        tracemalloc.start()
        try:
            group = automorphism_group.__wrapped__(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert group.order == math.factorial(800)
        assert peak < 4 * 2**20


class TestEquitableRefinement:
    def test_regular_graph_single_cell(self):
        assert equitable_refinement(cycle(6)).cells == ((0, 1, 2, 3, 4, 5),)

    def test_path5_hand_refinement(self):
        assert equitable_refinement(path(5)).cells == ((0, 4), (1, 3), (2,))

    def test_star_degree_split(self):
        assert equitable_refinement(star(3)).cells == ((1, 2, 3), (0,))

    def test_seed_respected(self):
        seed = Partition.from_cells([[0], [1, 2, 3, 4, 5]])
        refined = equitable_refinement(cycle(6), seed)
        # individualizing one cycle vertex splits the rest by distance
        assert refined.cells == ((1, 5), (2, 4), (0,), (3,))

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            equitable_refinement(cycle(6), unit_partition(5))


class TestAutomorphismGroup:
    def test_path5(self):
        group = automorphism_group(path(5))
        assert group.order == 2
        assert group.orbits.cells == ((0, 4), (1, 3), (2,))

    def test_cycle4_dihedral(self):
        group = automorphism_group(cycle(4))
        assert group.order == brute_force_group_order(cycle(4)) == 8
        assert len(group.orbits) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_graph_full_symmetric(self, n):
        # all vertices are closed twins in K_n and open twins in its complement
        assert automorphism_group(complete(n)).order == math.factorial(n)
        assert automorphism_group(Graph.from_edges(n, ())).order == math.factorial(n)

    def test_asymmetric_tree_seven_vertices(self):
        # spider with legs of lengths 1, 2, 3: the smallest asymmetric tree
        spider = Graph.from_edges(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        assert brute_force_group_order(spider) == 1
        group = automorphism_group(spider)
        assert group.order == 1
        assert len(group.orbits) == 7

    def test_asymmetric_six_vertex_graph(self):
        found = None
        for g in all_connected_graphs(6):
            if brute_force_group_order(g) == 1:
                found = g
                break
        assert found is not None
        group = automorphism_group(found)
        assert group.order == 1
        assert len(group.orbits) == 6

    def test_leaf_with_equal_trace_but_no_automorphism(self):
        # two branches of the search end in leaves with equal traces that no
        # automorphism maps onto each other; only the leaf edge check tells
        g = Graph.from_edges(
            8, [(0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 7), (2, 4), (2, 6), (2, 7), (3, 4), (3, 7), (4, 5)]
        )
        group = automorphism_group(g)
        assert group.order == brute_force_group_order(g) == 4
        assert group.orbits == brute_force_orbits(g)

    def test_candidate_failing_the_arc_check_drops_its_subtree(self):
        # Beside a Petersen graph, the two leaves of the graph above that no
        # automorphism relates become nodes whose only non-singleton cell is
        # the Petersen graph, the same on both, so the map between their
        # singletons is tested there, fails, and the search must go on.
        g8 = [(0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 7), (2, 4), (2, 6), (2, 7), (3, 4), (3, 7), (4, 5)]
        petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
        petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        g = Graph.from_edges(18, g8 + [(8 + a, 8 + b) for a, b in petersen])
        group = automorphism_group(g)
        assert group.order == 4 * 120
        assert group.orbits.cells == (tuple(range(8, 18)), (0, 2, 4, 7), (1, 5), (3, 6))
        for gen in group.generators:
            assert preserves_edges(gen, g)

    def test_generators_are_automorphisms(self):
        g = circular_ladder(4)
        for gen in automorphism_group(g).generators:
            assert preserves_edges(gen, g)

    def test_equal_graphs_share_the_cached_group(self):
        g = cycle(7)
        assert automorphism_group(g) is automorphism_group(Graph.from_edges(g.n, g.edges))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            automorphism_group(Graph.from_edges(0, ()))


class TestOrbitPartition:
    def test_cycle_single_orbit(self):
        assert orbit_partition(cycle(7)).cells == (tuple(range(7)),)

    def test_path5(self):
        assert orbit_partition(path(5)).cells == ((0, 4), (1, 3), (2,))

    def test_star_center_apart(self):
        assert orbit_partition(star(4)).cells == ((1, 2, 3, 4), (0,))


class TestBruteForce:
    def test_path4(self):
        assert brute_force_orbits(path(4)).cells == ((0, 3), (1, 2))

    def test_cycle5(self):
        assert brute_force_orbits(cycle(5)).cells == (tuple(range(5)),)

    def test_path3(self):
        assert brute_force_orbits(path(3)).cells == ((0, 2), (1,))


class TestTransitivity:
    def test_vertex_transitive(self):
        assert len(orbit_partition(cycle(9))) == 1
        assert len(orbit_partition(path(5))) != 1
        assert len(orbit_partition(moebius_ladder(5))) == 1

    def test_edge_transitive(self):
        assert is_edge_transitive(circular_ladder(4))
        assert not is_edge_transitive(circular_ladder(3))
        assert is_edge_transitive(star(3))

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            is_edge_transitive(Graph.from_edges(1, ()))


def complete_bipartite(p: int, q: int) -> Graph:
    return Graph.from_edges(p + q, [(a, b) for a in range(p) for b in range(p, p + q)])


class TestClosedForms:
    @pytest.mark.parametrize("q", range(2, 7))
    def test_star(self, q):
        assert automorphism_group(star(q)).order == math.factorial(q)

    def test_complete_bipartite(self):
        assert automorphism_group(complete_bipartite(3, 4)).order == math.factorial(3) * math.factorial(4)

    def test_square_torus(self):
        assert automorphism_group(torus((4, 4))).order == 384

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycle(self, n):
        assert automorphism_group(cycle(n)).order == 2 * n

    @pytest.mark.parametrize("d", range(2, 7))
    def test_hypercube(self, d):
        cube = functools.reduce(lambda g, _: prism(g), range(d - 1), path(2))
        assert automorphism_group(cube).order == 2**d * math.factorial(d)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_circular_ladder(self, n):
        # the ladder over C_4 is the 3-cube
        assert automorphism_group(circular_ladder(n)).order == (48 if n == 4 else 4 * n)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_moebius_ladder(self, n):
        # the Moebius ladder over 3 rungs is K_{3,3}
        assert automorphism_group(moebius_ladder(n)).order == (72 if n == 3 else 4 * n)

    @pytest.mark.parametrize("n", (8, 10, 12, 50, 200, 1000))
    def test_crossed_prism(self, n):
        # a 500-level base at n = 1000, where a recursive search overflowed the stack
        assert automorphism_group(crossed_prism(n)).order == n * 2 ** (n // 2)

    @pytest.mark.parametrize("n", (3, 4, 7, 30, 400))
    def test_cycle_with_cliques(self, n):
        # at n = 400 the triangles at a cycle vertex are twins of the first quotient
        assert automorphism_group(cycle_with_cliques(n, 3, 2)).order == 2 * n * 8**n

    @pytest.mark.parametrize("a", (5, 6, 7, 20))
    def test_loaded_torus(self, a):
        # C_a x C_a has 8a^2 automorphisms for a >= 5; each of the a^2
        # loads swaps its two branches
        assert automorphism_group(loaded_torus((a, a), 2, 2)).order == 8 * a * a * 2 ** (a * a)

    @pytest.mark.parametrize("n", (3, 4, 7, 30))
    def test_generalized_sun(self, n):
        assert automorphism_group(generalized_sun(n, 2)).order == 2 * n * 2**n

    @pytest.mark.parametrize("n", (3, 4, 7, 30))
    def test_corona_with_two_triangles(self, n):
        assert automorphism_group(corona(cycle(n), disjoint_cliques(2, 3))).order == 2 * n * 72**n

    def test_generalized_petersen(self):
        # Frucht, Graver & Watkins (1971): |Aut GP(n, k)| is 4n when
        # k^2 = +-1 (mod n), else 2n, but for seven exceptions; GP(n, k) is
        # vertex-transitive exactly then or for an exception, and otherwise
        # its outer and inner cycles are two orbits that refinement cannot
        # separate, so the root cell holds both.
        exceptions = {(4, 1): 48, (5, 2): 120, (8, 3): 96, (10, 2): 120, (10, 3): 240, (12, 5): 144, (24, 5): 288}
        for n in range(3, 40):
            for k in range(1, (n + 1) // 2):
                g = generalized_petersen(n, k)
                group = automorphism_group(g)
                unit_square = k * k % n in (1, n - 1)
                assert group.order == exceptions.get((n, k), 4 * n if unit_square else 2 * n), (n, k)
                assert len(group.orbits) == (1 if unit_square or (n, k) in exceptions else 2), (n, k)
                check_generators(group, g)

    def test_twin_generators_generate_the_whole_group(self):
        # edge transitivity needs more than the right order: the generators
        # lifted from twin classes must move every edge onto every other
        assert is_edge_transitive(complete(5))
        assert is_edge_transitive(star(5))
        assert is_edge_transitive(complete_bipartite(3, 3))
        assert not is_edge_transitive(path(4))


def test_exhaustive_oracle_n5():
    # all labelled graphs, disconnected and edgeless ones included, where
    # the twin quotient collapses most or all of the graph
    for g in (g for n in range(1, 6) for g in all_graphs(n)):
        group = automorphism_group(g)
        assert group.orbits == brute_force_orbits(g)
        assert group.order == brute_force_group_order(g)
        check_generators(group, g)


@settings(max_examples=80, deadline=None)
@given(connected_graphs(max_n=9), st.data())
def test_refinement_matches_naive_rounds(g, data):
    seed = partition_by(data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n)))
    assert equitable_refinement(g, seed) == naive_equitable_refinement(g, seed)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=7), st.data())
def test_relabel_invariance(g, data):
    image = data.draw(vertex_permutations(g.n))
    group = automorphism_group(g)
    relabelled = automorphism_group(g.relabel(image))
    assert relabelled.order == group.order
    assert relabelled.orbits == Partition.from_cells([[image[v] for v in cell] for cell in group.orbits.cells]).canonical()


@settings(max_examples=120, deadline=None)
@given(connected_graphs(max_n=7))
def test_orbits_match_brute_force(g):
    assert orbit_partition(g) == brute_force_orbits(g)


@settings(max_examples=80, deadline=None)
@given(connected_graphs(max_n=7))
def test_group_properties(g):
    group = automorphism_group(g)
    assert group.order == brute_force_group_order(g)
    assert refines(group.orbits, equitable_refinement(g))
    check_generators(group, g)
    deg = g.degrees()
    for cell in group.orbits.cells:
        assert len({deg[v] for v in cell}) == 1


def _isomorphism(g: Graph, h: Graph):
    return isomorphism(ColouredDigraph.from_graph(g), ColouredDigraph.from_graph(h))


def test_isomorphism_exhaustive_n4():
    graphs = [g for n in range(1, 5) for g in all_connected_graphs(n)]
    for g in graphs:
        for h in graphs:
            phi = _isomorphism(g, h)
            relabellings = [] if g.n != h.n else itertools.permutations(range(g.n))
            assert (phi is not None) == any(g.relabel(p) == h for p in relabellings)
            if phi is not None:
                assert g.relabel(phi) == h


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=9), vertex_permutations(9))
def test_isomorphism_finds_a_relabelling(g, perm):
    h = g.relabel([p for p in perm if p < g.n])
    phi = _isomorphism(g, h)
    assert phi is not None and g.relabel(phi) == h


def test_isomorphism_of_regular_graphs_refinement_cannot_separate():
    # Each pair is regular with equal order, so colour refinement leaves one
    # cell and only the search decides: the triangular prism and K3,3, and
    # the Shrikhande graph and the 4x4 rook's graph, both srg(16, 6, 2, 2).
    prism = circular_ladder(3)
    k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    steps = [(1, 0), (0, 1), (1, 1)]
    shrikhande = Graph.from_edges(
        16, [(4 * x + y, 4 * ((x + dx) % 4) + (y + dy) % 4) for x in range(4) for y in range(4) for dx, dy in steps]
    )
    rook = cartesian_product(complete(4), complete(4))
    assert _isomorphism(prism, k33) is None
    assert _isomorphism(shrikhande, rook) is None
    for g in (prism, k33, shrikhande, rook):
        h = g.relabel([(5 * v + 1) % g.n for v in range(g.n)])
        phi = _isomorphism(g, h)
        assert phi is not None and g.relabel(phi) == h


def test_isomorphism_agrees_with_networkx_on_the_graph_atlas():
    nx = pytest.importorskip("networkx")
    groups: dict[tuple, list] = {}
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() and nx.is_connected(g):
            groups.setdefault(tuple(sorted(d for _, d in g.degree())), []).append(g)
    rng = random.Random(2501)
    pairs = 0
    for group in groups.values():
        graphs = [Graph.from_edges(g.number_of_nodes(), g.edges()) for g in group]
        for i, j in itertools.combinations(range(len(group)), 2):
            phi = _isomorphism(graphs[i], graphs[j])
            assert (phi is not None) == nx.is_isomorphic(group[i], group[j])
            assert phi is None or graphs[i].relabel(phi) == graphs[j]
            pairs += 1
        for g in graphs:
            image = rng.sample(range(g.n), g.n)
            phi = _isomorphism(g, g.relabel(image))
            assert phi is not None and g.relabel(phi) == g.relabel(image)
    assert sum(map(len, groups.values())) == 996 and pairs == 3125


def test_isomorphism_of_generalized_petersen_graphs():
    # Steimle & Staton (2009): GP(n, k) and GP(n, j) are isomorphic iff
    # j = +-k or kj = +-1 (mod n).  Non-transitive ones have a root cell of
    # two orbits on each side.
    pairs = 0
    for n in range(5, 30):
        for k in range(1, (n + 1) // 2):
            for j in range(k, (n + 1) // 2):
                g, h = generalized_petersen(n, k), generalized_petersen(n, j)
                phi = _isomorphism(g, h)
                assert (phi is not None) == (j in (k, n - k) or k * j % n in (1, n - 1)), (n, k, j)
                assert phi is None or g.relabel(phi) == h
                pairs += 1
    assert pairs == 1013


@pytest.mark.parametrize("seed, n", [(1, 100), (7, 300)])
def test_rigid_regular_graph_is_not_refined_once_per_root_candidate(monkeypatch, seed, n):
    # Refinement cannot split a regular graph's root cell, and a rigid graph
    # gives orbit pruning nothing, so without the distance-profile split
    # every one of the n - 1 root candidates would be refined and refuted.
    refine, calls = _Cells.refine, []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return refine(self, *args, **kwargs)

    monkeypatch.setattr(_Cells, "refine", counted)
    graph = rigid_cubic(seed, n)
    group = automorphism_group.__wrapped__(graph)
    assert group.order == 1 and len(group.orbits) == n
    assert len(calls) <= 6
    image = random.Random(seed).sample(range(n), n)
    inverse = [0] * n
    for v, w in enumerate(image):
        inverse[w] = v
    calls.clear()
    assert _isomorphism(graph.relabel(image), graph) == tuple(inverse)
    assert len(calls) <= 10


def test_isomorphism_of_single_vertices_is_a_twin_swap():
    assert _isomorphism(complete(1), complete(1)) == (0,)


def test_isomorphism_when_the_root_cell_holds_no_vertex_of_b():
    # P4 and the star K1,3: one colour, three edges each.  The star's leaves
    # are twins, and the root's target cell holds the two ends of the path,
    # so in the first order it has no vertex of b, and in the second only
    # vertices of b.
    assert _isomorphism(path(4), star(3)) is None
    assert _isomorphism(star(3), path(4)) is None
