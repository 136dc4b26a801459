import copy
import functools
import itertools
import json
import math
import pickle
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    FAMILY_GRAPHS,
    FAMILY_SEQUENCES,
    all_connected_graphs,
    all_graphs,
    bfs_profile_split,
    brute_force_group_order,
    brute_force_orbits,
    certified_rigid,
    cfi_graph,
    check_generator_form,
    check_generators,
    complete_bipartite,
    connected_graphs,
    dense_singleton_map,
    frucht,
    generalized_petersen,
    is_edge_transitive,
    naive_equitable_refinement,
    paley,
    partition_by,
    pendant_trees,
    preserves_edges,
    refines,
    relabelled,
    rigid_cubic,
    spider,
    tied_star,
    tree_symmetry,
    trees,
    triangular,
    two_hamiltonian_cycles,
    vertex_permutations,
)
from orbigraph import aut, cli
from orbigraph.aut import (
    Partition,
    _AutSearch,
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
from orbigraph.graph_core import Graph, serialize_edge_list
from orbigraph.orbital import orbit_divisor_matrix, similar_divisors


def _uncached_group(graph: Graph):
    """automorphism_group(graph) from a search of its own, past the cache."""
    return automorphism_group.__wrapped__(graph)


class TestPartitionType:
    def test_validation(self):
        with pytest.raises(ValueError, match="not disjoint"):
            Partition(((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="not disjoint"):
            Partition(((0, 2), (2,)))  # overlapping and not covering 1
        with pytest.raises(ValueError, match="do not cover"):
            Partition(((0, 2),))
        with pytest.raises(ValueError, match="do not cover"):
            Partition(((1,), (2, 3)))
        with pytest.raises(ValueError, match="not sorted"):
            Partition(((1, 0),))
        with pytest.raises(ValueError, match="not sorted"):
            Partition(((0,), (1, 3, 2)))
        with pytest.raises(ValueError, match="empty cell"):
            Partition(((0, 1), ()))
        assert Partition(()).n == 0

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
            group = _uncached_group(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert group.order == math.factorial(800)
        assert peak < 4 * 2**20

    def test_deep_first_path_holds_one_partition(self):
        # crossed_prism(400)'s first path has 200 levels, and the search
        # below its first level 200 more; a partition kept per level of
        # either peaked at 6.2 MB traced.
        g = crossed_prism(400)
        g.adjacency
        tracemalloc.start()
        try:
            group = _uncached_group(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert group.order == 400 * 2**200
        assert peak < 2.5 * 2**20


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
        # The empty graph is refused where it would be made, before the search.
        with pytest.raises(ValueError, match="^vertex count must be a positive int, got 0$"):
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

    @pytest.mark.parametrize("q", (5, 13, 17))
    def test_paley(self, q):
        # Paley(5) is C_5; every Paley graph is vertex-transitive
        graph = paley(q)
        group = automorphism_group(graph)
        assert graph.m == q * (q - 1) // 4
        assert (group.order, len(group.orbits.cells)) == (q * (q - 1) // 2, 1)
        assert q != 5 or graph.adjacency == cycle(5).adjacency

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


def test_isomorphism_exhaustive_n4():
    graphs = [g for n in range(1, 5) for g in all_connected_graphs(n)]
    for g in graphs:
        for h in graphs:
            phi = isomorphism(g, h)
            relabellings = [] if g.n != h.n else itertools.permutations(range(g.n))
            assert (phi is not None) == any(g.relabel(p) == h for p in relabellings)
            if phi is not None:
                assert g.relabel(phi) == h


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=9), vertex_permutations(9))
def test_isomorphism_finds_a_relabelling(g, perm):
    h = g.relabel([p for p in perm if p < g.n])
    phi = isomorphism(g, h)
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
    assert isomorphism(prism, k33) is None
    assert isomorphism(shrikhande, rook) is None
    for g in (prism, k33, shrikhande, rook):
        h = g.relabel([(5 * v + 1) % g.n for v in range(g.n)])
        phi = isomorphism(g, h)
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
            phi = isomorphism(graphs[i], graphs[j])
            assert (phi is not None) == nx.is_isomorphic(group[i], group[j])
            assert phi is None or graphs[i].relabel(phi) == graphs[j]
            pairs += 1
        for g in graphs:
            image = rng.sample(range(g.n), g.n)
            phi = isomorphism(g, g.relabel(image))
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
                phi = isomorphism(g, h)
                assert (phi is not None) == (j in (k, n - k) or k * j % n in (1, n - 1)), (n, k, j)
                assert phi is None or g.relabel(phi) == h
                pairs += 1
    assert pairs == 1013


def _count_refinements(monkeypatch, bound: float = math.inf) -> list[int]:
    """Count every refinement and every trace event it makes, the one that
    departs from its reference trace included, as [refinements, events], by
    wrapping _Cells.refine; fail at once at the first refinement past `bound`."""
    refine, counts = _Cells.refine, [0, 0]

    def counted(self, *args):
        counts[0] += 1
        if counts[0] > bound:
            raise AssertionError(f"more than {bound} refinements")
        events = refine(self, *args)
        counts[1] += len(events)
        return events

    monkeypatch.setattr(_Cells, "refine", counted)
    return counts


@pytest.mark.parametrize("seed, n", [(1, 100), (7, 300)])
def test_rigid_regular_graph_is_not_refined_once_per_root_candidate(monkeypatch, seed, n):
    # Refinement cannot split a regular graph's root cell, and a rigid graph
    # gives orbit pruning nothing, so without the distance-profile split
    # every one of the n - 1 root candidates would be refined and refuted.
    # Distance profiles split the refined root before the first path, after
    # scanning a few times the graph's arcs, and refining the split root
    # ends discrete: the search makes 2 refinements and yields about n
    # events, where refining the whole first path before the split doubles
    # that (560 events on rigid_cubic(7, 300)).  Isomorphism splits the
    # root of the union the same way: 4 refinements and about 3n events.
    counts = _count_refinements(monkeypatch)
    graph = rigid_cubic(seed, n)
    group = _uncached_group(graph)
    assert group.order == 1 and len(group.orbits) == n
    assert counts[0] <= 4 and counts[1] <= 1.2 * n
    image = random.Random(seed).sample(range(n), n)
    inverse = [0] * n
    for v, w in enumerate(image):
        inverse[w] = v
    counts[:] = [0, 0]
    assert isomorphism(graph.relabel(image), graph) == tuple(inverse)
    assert counts[0] <= 6 and counts[1] <= 3.3 * n


def test_rigid_cubic_refuses_an_order_with_no_rigid_cubic_graph():
    # A cubic graph has an even order, and none of order below 12 is rigid,
    # so sampling for one would never end.
    for n in (10, 13):
        with pytest.raises(ValueError, match=f"^no rigid cubic graph has {n} vertices$"):
            rigid_cubic(0, n)
    graph = rigid_cubic(0, 12)
    assert graph.n == 12 and set(graph.degrees()) == {3} and certified_rigid(graph)


@pytest.mark.parametrize("k", [12, 20, 40, 60])
def test_cfi_graph_group_is_its_cycle_space(k):
    # A CFI graph over a rigid connected cubic base (the Frucht graph for
    # k = 12, else a seeded random one): its automorphisms fix every gadget
    # and flip the end pairs along an element of the base's cycle space, so
    # |Aut| = 2^beta with beta = m - k + 1.  Each base vertex gives 4
    # orbits: its 4 middle vertices, and each of its 3 end pairs.
    base = sorted((frucht() if k == 12 else rigid_cubic(11, k)).edges)
    graph = cfi_graph(base)
    group = automorphism_group(graph)
    assert graph.n == 10 * k
    assert group.order == 2 ** (len(base) - k + 1)
    assert len(group.orbits) == 4 * k
    # check_generators lists the generated group element by element.
    if k <= 20:
        check_generators(group, graph)
    else:
        check_generator_form(group, graph)


def test_cfi_graph_root_is_split_before_the_first_path_descends(monkeypatch):
    # The base is rigid, so distance profiles split the refined root within
    # the budget, and the first path starts from the split root: 262
    # refinements and 3,683 events.  Searching the whole first path from
    # the unsplit root, and its deeper levels, took 579 refinements and
    # 7,914 events on this graph.
    counts = _count_refinements(monkeypatch)
    group = _uncached_group(cfi_graph(sorted(rigid_cubic(11, 40).edges)))
    assert group.order == 2**21
    assert counts[0] <= 450 and counts[1] <= 6000


def test_a_search_builds_no_partition_per_node(monkeypatch):
    # Every child is made and undone in the one partition that the first
    # path walked down, so a search builds its root and, if distance
    # profiles split it, the split root.  Copying each child built 300 on
    # crossed_prism(200), 242 on this CFI graph and 556 in its isomorphism
    # with a relabelling.
    init, built = _Cells.__init__, []
    monkeypatch.setattr(_Cells, "__init__", lambda self, *args: built.append(self) or init(self, *args))
    cfi = cfi_graph(sorted(rigid_cubic(11, 40).edges))
    searches = {
        "crossed_prism(200)": lambda: _uncached_group(crossed_prism(200)).order == 200 * 2**100,
        "CFI": lambda: _uncached_group(cfi).order == 2**21,
        "CFI relabelled": lambda: isomorphism(relabelled(cfi, 1), cfi) is not None,
    }
    made = {}
    for name, search in searches.items():
        built.clear()
        assert search(), name
        made[name] = len(built)
    assert max(made.values()) <= 2, made


@pytest.mark.parametrize(
    "generator", [((0, 2), (1, 2), (2, 0)), ((0, 1), (1, 0), (2, 2))], ids=["two points to one image", "a fixed point listed"]
)
def test_a_generator_that_permutes_no_moved_points_is_refused(monkeypatch, generator):
    run = _AutSearch.run
    monkeypatch.setattr(_AutSearch, "run", lambda self: (run(self), self.generators.append(generator)))
    message = f"generator {generator} is not a permutation of its moved points"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _uncached_group(path(3))


@pytest.mark.parametrize("seed, k", [(11, 30), (3, 30), (5, 40), (11, 50)])
def test_cfi_search_cost_hardly_depends_on_the_numbering(monkeypatch, seed, k):
    # The root is split by distance profile before the first path, and
    # whether and how it splits depends on no label, so the refinement
    # counts over the slot numbering, the gadget numbering and three
    # relabellings stay within a factor of 1.15 (at most 1.091 here).
    # Splitting only once a root candidate was refuted made it 1.325: the
    # gadget numbering's first candidate, a middle vertex of the base
    # vertex's own gadget, was refuted only after the deeper levels.
    counts = _count_refinements(monkeypatch)
    edges = sorted(rigid_cubic(seed, k).edges)
    graph = cfi_graph(edges)
    made = []
    for g in (graph, cfi_graph(edges, by_gadget=True), *(relabelled(graph, s) for s in range(3))):
        counts[0] = 0
        assert _uncached_group(g).order == 2 ** (k // 2 + 1)
        made.append(counts[0])
    assert max(made) <= 1.15 * min(made), made


def test_generalized_petersen_corpus_searches_no_level_twice(monkeypatch):
    # The 361 GP(n, k) with 3 <= n < 40.  The root cell of a non-transitive
    # one holds two orbits, which distance profiles split before the first
    # path within the budget, so no level is searched twice: 2,614
    # refinements, where splitting once a root candidate was refuted made
    # 2,896 and restarting the search after it 4,306.
    _count_refinements(monkeypatch, bound=3200)
    for n in range(3, 40):
        for k in range(1, (n + 1) // 2):
            _uncached_group(generalized_petersen(n, k))


def _marked_first_layer(v, row):
    """Step 1 of v's profile as _profile_split's marking loop takes a step:
    layer 0 is v alone, a head seen for the first time joins the new layer,
    a head seen again is an extra arc, and v itself an arc inside layer 0."""
    mark = {v: "last"}
    new, extra, inside = [], 0, 0
    for w in row:
        if w not in mark:
            mark[w] = "new"
            new.append(w)
        elif mark[w] == "new":
            extra += 1
        else:
            inside += 1
    return (len(new), extra, inside), new


@given(st.integers(0, 6).flatmap(lambda v: st.tuples(st.just(v), st.lists(st.integers(0, 6).filter(v.__ne__), max_size=24))))
def test_first_layer_equals_the_marking_loop(case):
    # Multigraph rows: heads repeat, but v is never among them, as no input
    # of the search has a loop.
    v, row = case
    entry, layer = _marked_first_layer(v, row)
    assert aut._first_entry(tuple(row)) == entry
    assert aut._first_layer(tuple(row)) == layer


@st.composite
def _multigraph_rows(draw):
    """Rows of a multigraph on 2..10 vertices with a cell of it: u -> v exists
    iff v -> u does, but the two multiplicities may differ, as in twin
    quotients and cell digraphs, and no vertex has a loop.  Half the examples
    are simple graphs whose cell lies in one degree class, as a refined
    root's does, so that step 1 does not split it and later steps are met."""
    n = draw(st.integers(2, 10))
    simple = draw(st.booleans())
    rows = [[] for _ in range(n)]
    for u, v in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            rows[u] += [v] * (1 if simple else draw(st.integers(1, 3)))
            rows[v] += [u] * (1 if simple else draw(st.integers(1, 3)))
    members = list(range(n))
    classes = [c for d in range(n) if len(c := [v for v in members if len(rows[v]) == d]) > 1]
    if simple and classes:
        members = draw(st.sampled_from(classes))
    rows = [tuple(draw(st.permutations(row))) for row in rows]
    cell = draw(st.permutations(members))[: draw(st.integers(2, len(members)))]
    return rows, list(cell)


@settings(max_examples=300, deadline=None)
@given(_multigraph_rows())
def test_profile_split_equals_the_per_member_bfs(case):
    rows, cell = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(aut, "PROFILE_WORK", 10**9)
        assert aut._profile_split(rows, cell) == bfs_profile_split(rows, cell)


def _counted(adjacency):
    """The rows as a list that counts the arcs of every row read from it, and the count."""
    scanned = [0]

    class Rows(list):
        def __getitem__(self, v):
            row = super().__getitem__(v)
            scanned[0] += len(row)
            return row

    return Rows(adjacency), scanned


def test_profile_split_stops_at_its_budget():
    # The outer and inner cycles of GP(1000, 33) differ only in distance
    # profiles of radius about 29: splitting its refined root scans 6.18 M
    # arcs, 1,030 times the graph's.  Within the budget the root does not
    # split, and the search finds the group without it.
    graph = generalized_petersen(1000, 33)
    rows, scanned = _counted(graph.adjacency)
    root = _Cells.from_cells(graph.n, [range(graph.n)])
    root.refine(graph.adjacency, root.starts())
    assert root.ncells == 1
    assert aut._profile_split(rows, root.lab) is None
    assert 0 < scanned[0] <= aut.PROFILE_WORK * 2 * graph.m
    group = _uncached_group(graph)
    assert group.order == 2000 and len(group.orbits) == 2


def test_profile_split_refuses_its_first_step_over_budget():
    # The wheel W_100: hub 0 and a rim cycle 1..100, 400 arcs.  The rim is
    # the one non-singleton cell, and its 100 members times the widest row
    # (the hub's 100) pass 16 x 400 before any row is read.
    graph = Graph.from_edges(101, [(0, v) for v in range(1, 101)] + [(v, v % 100 + 1) for v in range(1, 101)])
    rows, scanned = _counted(graph.adjacency)
    root = _Cells.from_cells(graph.n, [range(graph.n)])
    root.refine(graph.adjacency, root.starts())
    assert sorted(map(len, root.cells())) == [1, 100]
    assert aut._profile_split(rows, _target_cell(root)) is None
    assert scanned[0] == 0
    group = _uncached_group(graph)
    assert group.order == 200 and len(group.orbits) == 2


def _target_cell(root: _Cells) -> list[int]:
    c = root.target()
    return root.lab[c : c + root.clen[c]]


def _refined_root(graph: Graph) -> _Cells:
    root = _Cells.from_cells(graph.n, [range(graph.n)])
    root.refine(graph.adjacency, root.starts())
    return root


@pytest.mark.parametrize(
    "graph, cells",
    [(prism(path(150)), 75), (cartesian_product(path(5), path(80)), 120)],
    ids=["prism(path(150))", "P5 x P80"],
)
def test_root_split_profiles_the_target_cell_only(monkeypatch, graph, cells):
    # Every cell of these refined roots is an orbit already.  Only the
    # target cell's members, the root candidates, are profiled, not the
    # 300 and 400 members of all the non-singleton cells.
    root = _refined_root(graph)
    assert root.ncells == cells
    received, split = [], aut._profile_split
    monkeypatch.setattr(aut, "_profile_split", lambda adj, cell: received.append(list(cell)) or split(adj, cell))
    group = _uncached_group(graph)
    assert received == [_target_cell(root)]
    assert len(received[0]) == min(len(cell) for cell in root.cells() if len(cell) > 1)
    assert group.order == 4 and len(group.orbits) == cells


def _subdivided(graph: Graph) -> Graph:
    """graph with every edge split by a new vertex: a rigid cubic graph's
    subdivision is rigid, and refinement leaves its root two cells, the
    old vertices and the new."""
    edges = [e for i, (u, v) in enumerate(sorted(graph.edges)) for e in ((u, graph.n + i), (graph.n + i, v))]
    return Graph.from_edges(graph.n + graph.m, edges)


def _two_hamiltonian_cycles(seed: int) -> Graph:
    """two_hamiltonian_cycles on n = 8..150 vertices, n drawn first by the same Random(seed)."""
    rng = random.Random(seed)
    return two_hamiltonian_cycles(rng, rng.randint(8, 150))


def _with_pendants(graph: Graph, hosts: tuple[int, ...]) -> Graph:
    return Graph.from_edges(graph.n + len(hosts), [*graph.edges, *((v, graph.n + i) for i, v in enumerate(hosts))])


# Irregular graphs with n <= 8 whose refined root has two or more
# non-singleton cells, so the target cell is one of several.
SMALL_ROOTS = {
    "P6": path(6),
    "P7": path(7),
    "P8": path(8),
    "P2 x P3": cartesian_product(path(2), path(3)),
    "P2 x P4": cartesian_product(path(2), path(4)),
    "spider(1,2,2)": spider((1, 2, 2)),
    "spider(1,1,2,2)": spider((1, 1, 2, 2)),
    "spider(2,2,3)": spider((2, 2, 3)),
    "tied_star": tied_star(),
}


@pytest.mark.parametrize("graph", SMALL_ROOTS.values(), ids=SMALL_ROOTS)
def test_target_cell_split_keeps_order_and_orbits(graph):
    assert sum(len(cell) > 1 for cell in _refined_root(graph).cells()) >= 2
    group = _uncached_group(graph)
    assert group.order == brute_force_group_order(graph)
    assert group.orbits == brute_force_orbits(graph)


# Rigid graphs whose search ends at a single leaf with the target cell
# split: rigid cubic graphs with one and two pendant vertices, the
# pendant trees, seeded irregular graphs, and subdivided rigid cubic
# graphs, whose root has two non-singleton cells.
SINGLE_LEAVES = {
    **{f"rigid_cubic({s}, {n}) + 1 pendant": _with_pendants(rigid_cubic(s, n), (0,)) for s, n in ((0, 20), (1, 50))},
    **{f"rigid_cubic({s}, {n}) + 2 pendants": _with_pendants(rigid_cubic(s, n), (0, n // 2)) for s, n in ((0, 20), (2, 100))},
    "pendant_trees": pendant_trees(),
    **{f"two Hamiltonian cycles, seed {seed}": _two_hamiltonian_cycles(seed) for seed in (1, 2, 3, 5, 9, 11)},
    **{f"subdivided rigid_cubic({s}, {n})": _subdivided(rigid_cubic(s, n)) for s, n in ((3, 12), (0, 20), (2, 100))},
}


@pytest.mark.parametrize("graph", SINGLE_LEAVES.values(), ids=SINGLE_LEAVES)
def test_target_cell_split_keeps_the_single_leaf(graph):
    assert certified_rigid(graph)
    group = _uncached_group(graph)
    assert group.order == 1 and group.leaf is not None and sorted(group.leaf) == list(range(graph.n))


def _interleaved_double(graph: Graph) -> Graph:
    """Two copies of graph, each without its first edge (a, b), joined by
    a0-b1 and a1-b0, with vertex v of copy c numbered 2v + c."""
    (a, b), *edges = sorted(graph.edges)
    pairs = [(2 * u + c, 2 * v + c) for u, v in edges for c in (0, 1)]
    return Graph.from_edges(2 * graph.n, [*pairs, (2 * a, 2 * b + 1), (2 * a + 1, 2 * b)])


def test_the_root_split_leaves_only_the_base_orbit_in_the_root_cell(monkeypatch):
    # The swap of the two copies is the only automorphism but the identity.
    # Distance profiles split the refined root, one cell of 600 vertices,
    # and refining the split root ends at the orbits {2v, 2v + 1}.  So the
    # root level tries one candidate, the base vertex's image under the
    # swap: 4 refinements, where refuting the root cell's other members one
    # by one made about 300.
    counts = _count_refinements(monkeypatch)
    group = _uncached_group(_interleaved_double(rigid_cubic(11, 300)))
    assert group.order == 2
    assert counts[0] <= 10


def test_isomorphism_of_a_cfi_pair_prunes_by_the_automorphisms_of_both(monkeypatch):
    # The CFI graphs over the Frucht graph with and without a twisted edge
    # (120 vertices each) are not isomorphic.  The search of their union
    # finds the automorphisms of both before it tries the root's candidates
    # in the second one, and prunes their subtrees by orbits: 132
    # refinements, where searching those subtrees with no automorphism known
    # took more than 50,000 and about 18 s.
    base = sorted(frucht().edges)
    _count_refinements(monkeypatch, bound=2000)
    assert isomorphism(cfi_graph(base), cfi_graph(base, twist=[0])) is None


# A connected cubic base with the order of its group.  The automorphisms of
# the CFI graph over it flip end pairs along an element of the base's cycle
# space, and every automorphism of the base lifts, gadget by gadget, so
# |Aut| = 2^beta |Aut(base)| with beta = m - n + 1 of the base (for the
# first three also counted by networkx's VF2 matcher).
CFI_BASES = {
    "K4": (complete(4), 24),
    "K3,3": (moebius_ladder(3), 72),
    "cube": (circular_ladder(4), 48),
    "Petersen": (generalized_petersen(5, 2), 120),
    "Frucht": (frucht(), 1),
}


@pytest.mark.parametrize("name", CFI_BASES)
def test_cfi_graphs_over_small_bases(name):
    # An arc-transitive base gives two orbits, the middle vertices and the
    # end vertices; the rigid Frucht graph gives four per base vertex.  Over
    # a connected base, the graphs whose twists differ in parity are not
    # isomorphic, and a relabelling is.
    base, base_order = CFI_BASES[name]
    edges = sorted(base.edges)
    graph = cfi_graph(edges)
    group = _uncached_group(graph)
    assert group.order == 2 ** (len(edges) - base.n + 1) * base_order
    assert len(group.orbits) == (4 * base.n if base_order == 1 else 2)
    check_generator_form(group, graph)
    for i in range(len(edges)):
        assert isomorphism(graph, cfi_graph(edges, twist=[i])) is None
    for seed in range(3):
        h = relabelled(graph, seed)
        phi = isomorphism(graph, h)
        assert phi is not None and graph.relabel(phi) == h


def _with_legs(graph: Graph, legs: int, length: int) -> Graph:
    """graph with `legs` pendant paths of `length` edges hung at every vertex."""
    edges, n = list(graph.edges), graph.n
    for v in range(graph.n):
        for _ in range(legs):
            edges += [(v if t == 0 else n + t - 1, n + t) for t in range(length)]
            n += length
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("legs, length", [(0, 0), (2, 1), (1, 2)])
def test_orbit_pruning_keeps_the_group(monkeypatch, seed, legs, length):
    # The CFI graph over rigid_cubic(seed, 40), relabelled by seed 1, is one
    # whose search skips children by orbit.  Two leaves at every vertex are
    # twins, and their quotient vertex then folds; a path of two edges folds
    # in two layers.  Either way the search runs on a quotient of the CFI
    # graph and lifts its generators through blocks.  The group is 2^beta
    # times the twin swaps, and equals the one found with no child skipped.
    base = rigid_cubic(seed, 40)
    graph = _with_legs(relabelled(cfi_graph(sorted(base.edges)), 1), legs, length)
    other_orbits, skipped = aut._other_orbits, [0]

    def counted(cell, gens):
        kept = other_orbits(cell, gens)
        skipped[0] += len(cell) - 1 - len(kept)
        return kept

    monkeypatch.setattr(aut, "_other_orbits", counted)
    group = _uncached_group(graph)
    assert skipped[0] > 0
    assert group.order == 2**21 * (2**400 if legs == 2 else 1)
    assert len(group.orbits) == 160 * (1 + length)
    check_generator_form(group, graph)
    monkeypatch.setattr(aut, "_other_orbits", lambda cell, gens: cell[:0:-1])
    unpruned = _uncached_group(graph)
    assert (unpruned.order, unpruned.orbits) == (group.order, group.orbits)


@pytest.mark.parametrize(
    "graph, order",
    [
        (pendant_trees(), 1),
        # the legs of each length permute: 2! * 3!
        (spider((1, 1, 2, 2, 2, 3)), 12),
        (cycle_with_cliques(7, 3, 2), 2 * 7 * 8**7),
        # Aut(C5 x C6) = D5 x D6, and each load swaps its two branches
        (loaded_torus((5, 6), 2, 2), 120 * 2**30),
    ],
)
def test_twins_and_folds_under_relabellings(graph, order):
    # Relabelled, each graph has the same order, and its orbits are the
    # images of the first graph's.
    assert certified_rigid(graph) == (order == 1)
    group = _uncached_group(graph)
    assert group.order == order
    check_generator_form(group, graph)
    for seed in range(3):
        image = random.Random(seed).sample(range(graph.n), graph.n)
        other = _uncached_group(graph.relabel(image))
        assert other.order == order
        assert other.orbits == Partition.from_cells([[image[v] for v in cell] for cell in group.orbits.cells]).canonical()


# The paper's families at the benchmark's sizes -> (group order, orbit sizes),
# from their constructions.  Twin rounds, folds and several search levels
# all add generators here, far past the n <= 8 of the brute-force oracles.
FAMILY_FORMS = {
    # the dihedral group of the cycle; at each cycle vertex its two
    # triangles swap, and so do the two other vertices of each: 2 * 2 * 2
    "cycle_with_cliques(50,3,2)": (2 * 50 * 8**50, [200, 50]),
    # the dihedral group of the cycle, and each vertex's two rays swap
    "generalized_sun(60,2)": (2 * 60 * 2**60, [120, 60]),
    # Aut(C8 x C8) has order 8 * 8^2, and each load swaps its 2 branches
    "loaded_torus((8,8),2,3)": (8 * 64 * 2**64, [128, 128, 128, 64]),
    # Aut(C6 x C8) = D6 x D8
    "loaded_torus((6,8),2,3)": (12 * 16 * 2**48, [96, 96, 96, 48]),
    # Aut(C20 x C25) = D20 x D25
    "torus((20,25))": (2000, [500]),
    # the dihedral group of C20, and Aut(2 K3) = 2 * 3! * 3! = 72 per copy
    "corona(cycle(20),disjoint_cliques(2,3))": (40 * 72**20, [120, 20]),
    # the dihedral group of its 100 four-cycles, and a swap of the two
    # cycles' vertices at each of the 100 junctions between them
    "crossed_prism(200)": (200 * 2**100, [400]),
}


@pytest.mark.parametrize("name", FAMILY_FORMS)
def test_families_match_their_closed_forms(name):
    order, sizes = FAMILY_FORMS[name]
    graph = FAMILY_GRAPHS[name]
    group = automorphism_group(graph)
    assert group.order == order
    assert list(map(len, group.orbits.cells)) == sizes
    check_generator_form(group, graph)


@pytest.mark.parametrize(
    "graph",
    [
        crossed_prism(12),
        crossed_prism(50),
        generalized_petersen(10, 3),
        generalized_petersen(12, 5),
        cfi_graph(sorted(frucht().edges)),
        # dense and symmetric: first paths of 5 and 6 levels
        triangular(6),
        cartesian_product(complete(4), complete(4)),
    ],
)
def test_singleton_map_matches_the_scan_of_every_position(graph, monkeypatch):
    # Every node that the search checks for a sparse automorphism gets the
    # same candidate, or the same refutation, from the dense scan, at every
    # level: the first-path node's cells are read off the node through the
    # first leaf's positions.
    singleton_map, results = _AutSearch._singleton_map, []

    def checked(self, node):
        image = singleton_map(self, node)
        assert image == dense_singleton_map(self.first_leaf, node)
        results.append(image is not None)
        return image

    monkeypatch.setattr(_AutSearch, "_singleton_map", checked)
    group = _uncached_group(graph)
    check_generator_form(group, graph)
    assert any(results)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_target_is_the_first_cell_of_minimum_size_above_one(sizes, rng):
    # On a random ordered partition, target() is the start of the first cell
    # of the smallest size above 1, or -1 when every cell is a singleton.
    n = sum(sizes)
    vertices = rng.sample(range(n), n)
    cells, starts = [], []
    for size in sizes:
        starts.append(sum(map(len, cells)))
        cells.append(vertices[starts[-1] : starts[-1] + size])
    sizes_above_one = [size for size in sizes if size > 1]
    expected = starts[sizes.index(min(sizes_above_one))] if sizes_above_one else -1
    assert _Cells.from_cells(n, cells).target() == expected


def test_unsplit_root_refines_each_node_once(monkeypatch):
    # A vertex-transitive graph's root does not split, and every node is
    # refined once: the 20 x 25 torus takes 13 refinements, the root, the
    # first path's 3 levels and 9 candidates; refining the first root
    # candidate beside the first path's first level and again on its turn
    # would make 14.
    counts = _count_refinements(monkeypatch)
    group = _uncached_group(torus((20, 25)))
    assert group.order == 4 * 20 * 25
    assert counts[0] <= 13


@pytest.mark.parametrize("seed, n", [(0, 20), (1, 50), (2, 300)])
def test_single_leaf_is_a_canonical_order(seed, n):
    # The root of a rigid cubic graph ends discrete once split by distance
    # profile; its order follows any relabelling of the graph.
    graph = rigid_cubic(seed, n)
    image = random.Random(seed).sample(range(n), n)
    leaf, other = automorphism_group(graph).leaf, automorphism_group(graph.relabel(image)).leaf
    assert sorted(leaf) == list(range(n))
    assert other == tuple(image[v] for v in leaf)


def test_single_leaf_only_without_twins_or_symmetry(monkeypatch):
    assert automorphism_group(complete(1)).leaf == (0,)
    assert automorphism_group(frucht()).leaf is not None
    # a rigid graph whose pendant trees fold ends at a leaf of its quotient,
    # which lists every vertex
    leaf = automorphism_group(pendant_trees()).leaf
    assert sorted(leaf) == list(range(27))
    for graph in (star(3), cycle(4), cycle(5), complete(2), generalized_petersen(5, 2), spider((2, 2, 3))):
        assert automorphism_group(graph).leaf is None
    # the leaf is cached with the group, and cache_clear drops both
    runs = []
    monkeypatch.setattr(_AutSearch, "run", lambda self, run=_AutSearch.run: runs.append(run(self)))
    automorphism_group.cache_clear()
    assert automorphism_group.cache_info().currsize == 0
    assert automorphism_group(pendant_trees()).leaf == leaf
    assert automorphism_group(pendant_trees()).leaf == leaf
    assert len(runs) == 1


def _leaf_map(g: Graph, h: Graph) -> list[int] | None:
    """The map from the p-th vertex of g's leaf to the p-th of h's, or None
    if neither graph has a leaf; fails if only one of them has one."""
    leaf_g, leaf_h = automorphism_group(g).leaf, automorphism_group(h).leaf
    assert (leaf_g is None) == (leaf_h is None)
    if leaf_g is None:
        return None
    phi = [0] * g.n
    for u, v in zip(leaf_g, leaf_h):
        phi[u] = v
    return phi


def test_folded_single_leaf_is_a_canonical_order():
    # _fold names its signatures by layer in sorted order, so the leaf of
    # the folded quotient follows every relabelling: all 174 seeds map
    # right, where numbering in queue order mapped 73 of them wrongly.
    g = pendant_trees()
    wrong = [seed for seed in range(174) if g.relabel(_leaf_map(g, h := relabelled(g, seed))) != h]
    assert wrong == []


def test_single_leaves_map_relabellings_n5():
    # Every connected labelled graph with n <= 5 against one relabelling:
    # both have a leaf or neither does, and the leaf map is an isomorphism.
    leaves = 0
    for n in range(1, 6):
        for i, g in enumerate(all_connected_graphs(n)):
            h = relabelled(g, i)
            if (phi := _leaf_map(g, h)) is not None:
                assert g.relabel(phi) == h
                leaves += 1
    assert leaves > 0


def test_isomorphism_of_single_vertices_is_a_twin_swap():
    assert isomorphism(complete(1), complete(1)) == (0,)


def test_isomorphism_when_the_root_cell_holds_no_vertex_of_b():
    # P4 and the star K1,3: one colour, three edges each.  The star's leaves
    # are twins, and the root's target cell holds the two ends of the path,
    # so in the first order it has no vertex of b, and in the second only
    # vertices of b.
    assert isomorphism(path(4), star(3)) is None
    assert isomorphism(star(3), path(4)) is None


def test_isomorphism_refuses_disconnected_digraphs():
    # The union search's swap need not move all of a disconnected side, so
    # 2K2 against itself would get None; it is refused instead, on either side.
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    p4 = path(4)
    for a, b in ((two_k2, two_k2), (two_k2, p4), (p4, two_k2)):
        with pytest.raises(ValueError, match="^isomorphism decided for connected graphs only$"):
            isomorphism(a, b)


@settings(max_examples=150, deadline=None)
@given(trees())
def test_trees_match_the_bottom_up_count(tree):
    # Pendant trees are folded before the search, so a tree's whole group
    # comes from twin classes; the oracle counts it from the tree's centre.
    order, keys = tree_symmetry(tree)
    group = automorphism_group(tree)
    assert group.order == order
    assert group.orbits == partition_by(keys)
    assert all(preserves_edges(g, tree) for g in group.generators)
    if order <= 5000:
        check_generators(group, tree)


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 7), st.lists(trees(max_n=8), min_size=2, max_size=2), st.data())
def test_trees_glued_on_a_cycle_match_the_bottom_up_count(k, pool, data):
    # Each cycle vertex i carries a copy of pool[kind[i]] glued at the tree's
    # vertex 0.  The cycle is the only one, so an automorphism is a dihedral
    # map d of it that keeps each tree's rooted code, with any root-fixing
    # automorphism of each tree: |Aut| = #d * prod of the rooted orders.
    kind = data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    rooted = [tree_symmetry(tree, root=0) for tree in pool]
    edges, where, n = [(i, (i + 1) % k) for i in range(k)], [], k
    for i in range(k):
        tree = pool[kind[i]]
        label = [i] + list(range(n, n + tree.n - 1))
        edges += [(label[a], label[b]) for a, b in tree.edges]
        where += [(i, u, label[u]) for u in range(tree.n)]
        n += tree.n - 1
    code = [rooted[kind[i]][1][0] for i in range(k)]
    maps = [[(s + sign * i) % k for i in range(k)] for s in range(k) for sign in (1, -1)]
    maps = [d for d in maps if all(code[d[i]] == code[i] for i in range(k))]
    keys: list = [None] * n
    for i, u, v in where:
        keys[v] = (min(d[i] for d in maps), rooted[kind[i]][1][u])
    graph = Graph.from_edges(n, edges)
    group = automorphism_group(graph)
    assert group.order == len(maps) * math.prod(rooted[kind[i]][0] for i in range(k))
    assert group.orbits == partition_by(keys)
    assert all(preserves_edges(g, graph) for g in group.generators)


@pytest.mark.parametrize("d", range(1, 11))
def test_complete_binary_tree(d):
    # Each of the 2^(d-1) - 1 inner vertices swaps its two subtrees; the
    # orbits are the d levels.
    n = 2**d - 1
    group = automorphism_group(Graph.from_edges(n, [(i, (i - 1) // 2) for i in range(1, n)]))
    assert group.order == 2 ** (2 ** (d - 1) - 1)
    assert len(group.orbits) == d


@pytest.mark.parametrize("a", (5, 6, 8))
@pytest.mark.parametrize("q, m", [(1, 1), (1, 4), (2, 1), (2, 3), (3, 2)])
def test_loaded_torus_closed_form(a, q, m):
    # C_a x C_a has 8a^2 automorphisms for a >= 5, and each of the a^2
    # starlike loads permutes its q equal branches.
    group = automorphism_group(loaded_torus((a, a), q, m))
    assert group.order == 8 * a * a * math.factorial(q) ** (a * a)
    assert len(group.orbits) == 1 + m


@pytest.mark.parametrize("dims, q, m", [((8, 8), 2, 3), ((20, 20), 2, 2)])
def test_loaded_torus_is_searched_on_its_base(monkeypatch, dims, q, m):
    # The loads fold into the torus vertices before the search; with each
    # branch searched instead, the first path is 68 levels deep on the 8 x 8
    # torus and the search makes 373 refinements, 2,365 on the 20 x 20 one.
    counts = _count_refinements(monkeypatch)
    group = _uncached_group(loaded_torus(dims, q, m))
    assert group.order == 8 * dims[0] * dims[1] * math.factorial(q) ** (dims[0] * dims[1])
    assert counts[0] <= 20


def test_path_at_the_cap_folds_without_recursion():
    # A path of 2000 vertices folds into its two centre vertices, 1,000
    # levels of pendant vertices each, which are then closed twins.
    group = automorphism_group(path(2000))
    assert group.order == 2 and len(group.orbits) == 1000


def _brute_force_digraph_group(colour, adj) -> tuple[int, Partition]:
    n = len(adj)
    count, orbit = 0, list(range(n))
    for p in itertools.permutations(range(n)):
        if all(colour[p[v]] == colour[v] and tuple(sorted(p[w] for w in adj[v])) == adj[p[v]] for v in range(n)):
            count += 1
            for v in range(n):
                orbit[v] = min(orbit[v], p[v])
    return count, partition_by(orbit)


@st.composite
def weighted_digraphs(draw, max_n: int = 6):
    """A coloured digraph with symmetric arc weights and no loops, as
    (colour, rows): a random spanning forest plus a few more arcs, in two
    colours."""
    n = draw(st.integers(1, max_n))
    weight: dict[tuple[int, int], int] = {}
    for v in range(1, n):
        if draw(st.integers(0, 4)):
            u = draw(st.integers(0, v - 1))
            weight[u, v] = weight[v, u] = draw(st.integers(1, 2))
    for _ in range(draw(st.integers(0, 2))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            weight[u, v] = weight[v, u] = draw(st.integers(1, 2))
    colour = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    adj = tuple(tuple(sorted(w for (u, w), x in weight.items() if u == v for _ in range(x))) for v in range(n))
    return colour, adj


@settings(max_examples=300, deadline=None)
@given(weighted_digraphs())
# 0 and 4 are open twins; once they are one vertex, 2 and 5 differ only in
# 5's colour, which the quotient must keep.
@example(((0, 0, 0, 0, 0, 1), ((1, 3), (0, 2, 2, 4, 5, 5), (1, 1), (0, 4), (1, 3), (1, 1))))
def test_weighted_digraphs_match_brute_force(digraph):
    # Colours and weights reach the twin quotient and the pendant fold: a
    # twin class must not become a twin of a class of another colour, and a
    # pendant vertex's signature carries both weights.
    colour, adj = digraph
    search = _AutSearch(colour, adj)
    search.run()
    order, orbits = _brute_force_digraph_group(colour, adj)
    assert search.order == order
    assert Partition.from_cells(search.orbit_cells()).canonical() == orbits
    for g in search.generators:
        image = dict(g)
        assert all(
            colour[image.get(v, v)] == colour[v]
            and tuple(sorted(image.get(w, w) for w in adj[v])) == adj[image.get(v, v)]
            for v in range(len(adj))
        )


def _state(node: _Cells) -> tuple:
    """A node as the search reads it: its cells as sets at their starts,
    each vertex's cell and each cell's length.  clen off a cell's start is
    stale, and nothing reads the order of the vertices within a cell."""
    starts = node.starts()
    return node.ncells, starts, list(map(set, node.cells())), node.cell_of[:], [node.clen[c] for c in starts]


def _first_path(colour, adj) -> tuple[_Cells, list[tuple[_Cells, list, int]]]:
    """The refined root walked down the first path in place: the node at
    its leaf, and per level a copy of the node before it, its trace and its
    target."""
    colours: dict = {}
    for v, c in enumerate(colour):
        colours.setdefault(c, []).append(v)
    node = _Cells.from_cells(len(adj), [colours[key] for key in sorted(colours)])
    node.refine(adj, node.starts())
    levels = []
    while (c := node.target()) >= 0:
        kept = _Cells(node.lab[:], node.pos[:], node.cell_of[:], node.clen[:], node.ncells)
        levels.append((kept, node.refine(adj, [node.individualize(min(node.lab[c : c + node.clen[c]]))]), c))
    return node, levels


def _undo_the_first_path(colour, adj) -> int:
    """Walk the first path down in place, then undo it level by level and
    check each level against its copy; return the number of levels."""
    node, levels = _first_path(colour, adj)
    leaf = node.lab[:], node.pos[:]
    for kept, trace, c in reversed(levels):
        node.undo(trace, c)
        assert _state(node) == _state(kept)
        # undo moves no vertex: each cell keeps the leaf's order
        assert (node.lab, node.pos) == leaf
    return len(levels)


def _undo_every_child(colour, adj) -> set[str]:
    """Walk the first path down, then up: at each level make every child of
    its target cell against the level's trace, undo the events the
    refinement returned, and check the node against its state before;
    return the kinds of refinement seen."""
    node, levels = _first_path(colour, adj)
    kinds = set()
    for _, ref, c in reversed(levels):
        node.undo(ref, c)
        before = _state(node)
        for u in sorted(node.lab[c : c + node.clen[c]]):
            events = node.refine(adj, [node.individualize(u)], ref)
            k = len(events)
            assert (events is ref) == (events == ref)
            if events is ref:
                kinds.add("match")
            elif events == ref[:k]:
                kinds.add("short")  # ended before ref did
            else:
                # stopped right after its first event that departs from ref
                assert events[:-1] == ref[: k - 1]
                kinds.add("more" if k > len(ref) else "departs")
            node.undo(events, c)
            assert _state(node) == before
    return kinds


def _rook(k: int) -> tuple[tuple, tuple]:
    """The k x k rook's graph as a coloured digraph: vertex (i, j) is
    i * k + j, arcs along a row have weight 2 and along a column weight 1,
    and the diagonal has a colour of its own."""
    def row(v: int) -> tuple[int, ...]:
        i, j = divmod(v, k)
        along = [i * k + b for b in range(k) if b != j] * 2 + [a * k + j for a in range(k) if a != i]
        return tuple(sorted(along))

    return tuple(int(v // k == v % k) for v in range(k * k)), tuple(map(row, range(k * k)))


def _one_colour(graph: Graph) -> tuple[tuple, tuple]:
    """The graph as the search takes it: (colour, rows), all of one colour."""
    return (0,) * graph.n, graph.adjacency


@pytest.mark.parametrize(
    "digraph, levels",
    [
        (_one_colour(cfi_graph(sorted(frucht().edges))), 7),
        (_one_colour(crossed_prism(12)), 6),
        (_rook(4), 3),
    ],
    ids=["CFI(Frucht)", "crossed_prism(12)", "rook(4), coloured diagonal"],
)
def test_undo_restores_every_level_of_the_first_path(digraph, levels):
    assert _undo_the_first_path(*digraph) == levels


@settings(max_examples=300, deadline=None)
@given(st.one_of(connected_graphs(max_n=12).map(_one_colour), weighted_digraphs(max_n=9)))
def test_undo_restores_every_level_of_random_first_paths(digraph):
    _undo_the_first_path(*digraph)
    _undo_every_child(*digraph)


@pytest.mark.parametrize(
    "digraph, kinds",
    [
        (_one_colour(rigid_cubic(7, 30)), {"match", "departs"}),
        (_one_colour(cfi_graph(sorted(frucht().edges))), {"match", "departs"}),
        # Degree 4 in one colour, the arcs 0-4 and 1-3 doubled.  At the
        # root, individualizing 2, whose arcs all have weight 1, splits
        # nothing, short of the first path, and every other vertex matches.
        (((0,) * 5, ((2, 3, 4, 4), (2, 3, 3, 4), (0, 1, 3, 4), (0, 1, 1, 2), (0, 0, 1, 2))), {"match", "short"}),
        # 0 has an arc of weight 1 to every other vertex, and the arcs 1-2
        # and 3-4 are doubled.  At the root, individualizing 0 splits
        # nothing, and 1 splits {2, 3, 4}, one event past the first path's
        # none; below 0, every child matches.
        (((0,) * 5, ((1, 2, 3, 4), (0, 2, 2, 3), (0, 1, 1, 4), (0, 1, 4, 4), (0, 2, 3, 3))), {"match", "more"}),
    ],
    ids=["rigid_cubic(7, 30)", "CFI(Frucht)", "one colour, short", "one colour, more"],
)
def test_undo_takes_back_exactly_the_events_a_refinement_made(digraph, kinds):
    # A child refined against its level's trace stops right after its
    # first event that departs from it, an event past its end included, or
    # ends short of it; undoing the events it returned gives back the node.
    assert _undo_every_child(*digraph) == kinds


def test_try_leaves_its_node_with_the_cells_it_was_given(monkeypatch):
    # CFI(Frucht)'s search finds automorphisms at a candidate and two or
    # more levels below one, and refutes candidates at once and after
    # descending; the search of its union with a twisted copy finds no swap.
    try_, refine, last, seen = _AutSearch._try, _Cells.refine, [None], set()

    def traced(self, adj, splitters, ref=None):
        last[0] = ref
        return refine(self, adj, splitters, ref)

    def checked(self, node, v, level):
        before = _state(node)
        found = try_(self, node, v, level)
        assert _state(node) == before
        # the level of the last child refined, counted from the candidate's
        depth = next(i for i, trace in enumerate(self.first_traces) if trace is last[0]) + 2 - level
        seen.add((found, depth >= 2))
        return found

    monkeypatch.setattr(_Cells, "refine", traced)
    monkeypatch.setattr(_AutSearch, "_try", checked)
    base = sorted(frucht().edges)
    assert _uncached_group(cfi_graph(base)).order == 2**7
    assert isomorphism(cfi_graph(base), cfi_graph(base, twist=[0])) is None
    assert seen == {(True, False), (True, True), (False, False), (False, True)}


def _assert_search_contract(colour, rows) -> None:
    """The input contract of _AutSearch: every row sorted, with no loop,
    and the reverse-arc rule: the weight back is a function of the two
    colours and the weight forth, and nonzero exactly when that is."""
    back: dict = {}
    for u, row in enumerate(rows):
        assert list(row) == sorted(row) and u not in row
        for v in set(row):
            weight = rows[v].count(u)
            assert weight > 0 and back.setdefault((colour[u], colour[v], row.count(v)), weight) == weight


def test_every_search_the_program_makes_meets_the_engine_contract(monkeypatch, tmp_path):
    # The engine assumes what a Graph and a checked divisor matrix give it:
    # sorted rows without loops and the reverse-arc rule, which its fold and
    # twin quotient keep.  This records every input and quotient of the
    # searches made by the benchmark's families analyses, its loaded-torus
    # compare and the four family sequences, and by similar_divisors on
    # weighted cell digraphs of spiders and loaded tori, and checks them.
    init, seen = _AutSearch.__init__, []

    def recorded(self, colour, adj):
        init(self, colour, adj)
        seen.extend([(colour, adj), (self.colour, self.adj)])

    monkeypatch.setattr(_AutSearch, "__init__", recorded)
    automorphism_group.cache_clear()
    files = {}
    for name, graph in FAMILY_GRAPHS.items():
        files[name] = tmp_path / f"{len(files)}.edges"
        files[name].write_text(serialize_edge_list(graph), encoding="ascii")
    runs = [["analyze", "--json", str(path)] for name, path in files.items() if name != "loaded_torus((6,8),2,3)"]
    runs.append(["compare", "--json", str(files["loaded_torus((6,8),2,3)"]), str(files["loaded_torus((8,8),2,3)"])])
    for i, spec in enumerate(FAMILY_SEQUENCES.values()):
        (path := tmp_path / f"{i}.json").write_text(json.dumps(spec), encoding="ascii")
        runs.append(["sequence", "--json", "--count", "5", str(path)])
    for argv in runs:
        assert cli.main(argv) == cli.EXIT_OK, argv
    spiders = [spider((1, 2, 2, 3)), spider((1, 1, 2, 2, 3, 3, 4)), spider((2, 5, 5, 7))]
    for graph in (*spiders, loaded_torus((5, 5), 2, 3), loaded_torus((4, 6), 3, 2), loaded_torus((6, 6), 1, 4)):
        dm = orbit_divisor_matrix(graph)
        assert similar_divisors(dm, dm).similar
    for colour, rows in seen:
        _assert_search_contract(colour, rows)
    # Some inputs carry several colours and arcs of weight above 1.
    assert any(len(set(colour)) > 1 and any(len(set(row)) < len(row) for row in rows) for colour, rows in seen)
