from fractions import Fraction

import pytest
from hypothesis import given, settings

from helpers import connected_graphs
from orbigraph.constructions import complete, cycle, path, star
from orbigraph.graph_core import (
    Graph,
    GraphFormatError,
    cyclomatic_number,
    degree_stats,
    density,
    edge_vertex_ratio,
    is_connected,
    parse_edge_list,
    parse_graph6,
    serialize_edge_list,
    to_dot,
    to_graph6,
)


class TestParseEdgeList:
    def test_path5(self):
        g = parse_edge_list("5 4\n0 1\n1 2\n2 3\n3 4")
        assert g == path(5)

    def test_single_vertex(self):
        g = parse_edge_list("1 0")
        assert g.n == 1 and g.m == 0

    def test_triangle(self):
        assert parse_edge_list("3 3\n0 1\n1 2\n0 2") == complete(3)

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# a triangle\n3 3\n\n0 1\n# middle\n1 2\n0 2\n")
        assert g == complete(3)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3",
            "3 1\n0 1 2",
            "3 1\nx y",
            "3 1\n0 3",  # vertex out of range
            "3 1\n1 1",  # loop
            "3 2\n0 1\n0 1",  # duplicate
            "3 2\n0 1",  # m mismatch
            "3 1\n1 0",  # u > v
            "0 0",  # empty graph rejected
            "-1 0",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(GraphFormatError):
            parse_edge_list(text)


class TestGraphType:
    def test_edge_range_validated(self):
        bad_row = "is not strictly ascending"
        for rows, message in (
            (((1,), (0,)), "2 adjacency rows for n=3"),
            (((1,), (0, 3), ()), bad_row),  # neighbour out of range
            (((-1,), (), ()), bad_row),  # negative neighbour
            (((0, 1), (0,), ()), bad_row),  # loop
            (((1, 2), (2, 0), (0, 1)), bad_row),  # unsorted row
            (((1, 1), (0, 0), ()), bad_row),  # repeated neighbour
            (((1, 2), (0,), ()), "not symmetric"),  # 0 ~ 2 but not 2 ~ 0
        ):
            with pytest.raises(ValueError, match=message):
                Graph(3, rows)
        for pair in ((0, 3), (-1, 1)):
            with pytest.raises(ValueError, match="out of range"):
                Graph.from_edges(3, [pair])

    def test_from_edges_normalizes(self):
        g = Graph.from_edges(3, [(2, 0), (0, 1)])
        assert g.edges == frozenset({(0, 2), (0, 1)})
        assert g.adjacency == ((1, 2), (0,), (0,)) and g.m == 2

    def test_from_edges_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_relabel(self):
        g = path(3).relabel([2, 1, 0])
        assert g == path(3)
        with pytest.raises(ValueError):
            path(3).relabel([0, 0, 1])


class TestConnectivity:
    def test_cycle_connected(self):
        assert is_connected(cycle(4))

    def test_two_disjoint_edges(self):
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(Graph.from_edges(1, ()))

    def test_adjacency_and_connectivity_are_cached_outside_equality(self):
        g = Graph.from_edges(4, [(2, 0), (0, 1), (3, 0)])
        fresh = Graph.from_edges(4, g.edges)
        assert g.adjacency == ((1, 2, 3), (0,), (0,), (0,))
        assert g.edges == frozenset({(0, 1), (0, 2), (0, 3)}) and "edges" not in vars(g)
        assert is_connected(g) and "connected" in vars(g)
        assert g == fresh and hash(g) == hash(fresh) and "connected" not in vars(fresh)

    def test_fields_cannot_be_assigned(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 3
        with pytest.raises(AttributeError):
            g.adjacency = ()
        assert (g.n, g.adjacency) == (2, ((1,), (0,)))


class TestDegreeStats:
    def test_cycle_regular(self):
        s = degree_stats(cycle(5))
        assert (s.min_degree, s.max_degree) == (2, 2)
        assert s.average_degree == 2
        assert s.degree_variance == 0

    def test_path5_by_hand(self):
        # degrees (1,2,2,2,1): mean 8/5, variance (2*(1-8/5)^2 + 3*(2-8/5)^2)/5
        s = degree_stats(path(5))
        assert s.min_degree == 1 and s.max_degree == 2
        assert s.average_degree == Fraction(8, 5)
        assert s.degree_variance == Fraction(6, 25)
        # mean square degree (1 + 4 + 4 + 4 + 1)/5 = 14/5
        assert s.degree_variance + s.average_degree**2 == Fraction(14, 5)

    def test_complete(self):
        s = degree_stats(complete(4))
        assert s.average_degree == 3
        assert edge_vertex_ratio(complete(4)) == Fraction(3, 2)

    def test_variance_identity(self):
        s = degree_stats(star(3))
        deg = star(3).degrees()
        assert s.degree_variance == Fraction(sum(d * d for d in deg), 4) - Fraction(sum(deg), 4) ** 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            degree_stats(Graph.from_edges(0, ()))


class TestRatios:
    def test_edge_vertex_ratio(self):
        assert edge_vertex_ratio(cycle(9)) == 1
        assert edge_vertex_ratio(path(5)) == Fraction(4, 5)
        assert edge_vertex_ratio(complete(5)) == 2

    def test_density(self):
        assert density(complete(6)) == 1
        assert density(path(5)) == Fraction(2, 5)
        assert density(cycle(6)) == Fraction(2, 5)
        with pytest.raises(ValueError):
            density(Graph.from_edges(1, ()))

    def test_cyclomatic(self):
        assert cyclomatic_number(path(5)) == 0
        assert cyclomatic_number(cycle(7)) == 1
        assert cyclomatic_number(complete(4)) == 3
        with pytest.raises(ValueError):
            cyclomatic_number(Graph.from_edges(4, [(0, 1), (2, 3)]))


@settings(max_examples=80, deadline=None)
@given(connected_graphs(max_n=7))
def test_degree_sum_and_density_identities(g):
    assert 2 * g.m == sum(g.degrees())
    assert edge_vertex_ratio(g) == degree_stats(g).average_degree / 2
    if g.n >= 2:
        assert density(g) == edge_vertex_ratio(g) * Fraction(2, g.n - 1)
    assert cyclomatic_number(g) >= 0


@settings(max_examples=80, deadline=None)
@given(connected_graphs(max_n=8))
def test_round_trips(g):
    assert parse_edge_list(serialize_edge_list(g)) == g
    assert parse_graph6(to_graph6(g)) == g


class TestGraph6:
    def test_known_strings(self):
        assert to_graph6(complete(2)) == "A_"
        assert to_graph6(complete(4)) == "C~"
        assert to_graph6(cycle(5)) == "Dhc"
        assert parse_graph6("Dhc") == cycle(5)

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<A_\n") == complete(2)

    def test_large_n_encoding(self):
        g = Graph.from_edges(80, [(i, i + 1) for i in range(79)])
        assert parse_graph6(to_graph6(g)) == g

    def test_bad_body(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("D")  # truncated


class TestDot:
    def test_single_vertex(self):
        assert to_dot(Graph.from_edges(1, ())) == "graph {\n  0;\n}\n"

    def test_two_color_classes(self):
        out = to_dot(path(3), [[0, 2], [1]])
        assert out.count("fillcolor") == 3
        colors = {line.split('"')[1] for line in out.splitlines() if "fillcolor" in line}
        assert len(colors) == 2

    def test_single_orbit_single_color(self):
        out = to_dot(cycle(4), [[0, 1, 2, 3]])
        colors = {line.split('"')[1] for line in out.splitlines() if "fillcolor" in line}
        assert len(colors) == 1

    def test_deterministic(self):
        assert to_dot(cycle(6)) == to_dot(cycle(6))

    def test_bad_coloring(self):
        with pytest.raises(ValueError):
            to_dot(path(3), [[0, 1]])
        with pytest.raises(ValueError):
            to_dot(path(3), [[0, 1], [1, 2]])
