import math
import operator
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import connected_graphs, graph6_bit_list, graphs, line_scan, partitions
from orbigraph.aut import Partition, automorphism_group, equitable_refinement, isomorphism
from orbigraph import graph_core
from orbigraph.constructions import RootedGraph, complete, cycle, path, star
from orbigraph.orbital import divisor_matrix, orbit_divisor_matrix, orbit_profile, orbitally_similar
from orbigraph.spectral import analyze_term, spectral_radius_adjacency
from orbigraph.graph_core import (
    DegreeStats,
    Frozen,
    Graph,
    GraphFormatError,
    Ratio,
    _edge_list_header,
    _g6_encode_n,
    _graph6_header,
    cyclomatic_number,
    degree_stats,
    density,
    edge_vertex_ratio,
    is_connected,
    parse_edge_list,
    parse_graph6,
    reaches_all,
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

    @pytest.mark.parametrize(
        "text, message",
        [
            # int() reads "3_0" as 30 and "+3" as 3; the format's integers are plain decimal
            ("3_0 2\n0 1\n1 2", "header must contain integers, got '3_0 2'"),
            ("+3 2\n0 1\n1 2", "header must contain integers, got '+3 2'"),
            ("11 1\n0 1_0", "edge line must contain integers, got '0 1_0'"),
            ("3 2\n0 1\n+1 2", "edge line must contain integers, got '+1 2'"),
            # int() reads "-0" as 0; a sign is no part of an edge line's integers
            ("3 2\n-0 1\n0 2", "edge line must contain integers, got '-0 1'"),
            ("3 2\n0 -1\n0 2", "edge line must contain integers, got '0 -1'"),
            ("3 -2", "edge count must be nonnegative, got -2"),
        ],
    )
    def test_integers_are_plain_decimal(self, text, message):
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
            parse_edge_list(text)

    def test_underscores_and_plus_signs_in_comments_are_ignored(self):
        assert parse_edge_list("# a_b +c\n3 2\n0 1\n  # 1_2\n1 2\n") == path(3)

    @pytest.mark.parametrize(
        "text, message",
        [
            # int() reads the Arabic-Indic three and one and the fullwidth two as 3, 1 and 2
            ("\u0663 2\n0 1\n\u0661 \uff12\n", "edge list must be ASCII, got '\u0663' at offset 0"),
            ("3 2\n0 1\n\u0661 2\n", "edge list must be ASCII, got '\u0661' at offset 8"),
            ("# caf\u00e9\n3 2\n0 1\n1 2\n", "edge list must be ASCII, got '\u00e9' at offset 5"),
        ],
    )
    def test_non_ascii_text_is_refused(self, text, message):
        for read in (_edge_list_header, parse_edge_list):
            with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
                read(text)

    @pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"])
    def test_header_reader_cuts_lines_as_the_parser_does(self, sep):
        text = sep.join(["# a comment", "", " \t", "  # an indented comment", "3 2", "0 1", "1 2", ""])
        assert _edge_list_header(text) == (3, 2)
        assert parse_edge_list(text) == path(3)


# Line breaks the parser cuts at, and lines it skips.
_BREAKS = ("\n", "\r\n", "\r", "\v", "\x1c", "\x85", "\u2028")
_SKIPPED = ("", "  \t", "# a comment", "  # 1_2 +3", "#" + "x" * 300)


def _token_fault(token: str, n: int, rng) -> str:
    """token as a non-plain or out-of-range integer, or not an integer."""
    return rng.choice(("+" + token, token[:1] + "_" + token[1:] + "0", "-" + token, str(n + rng.randint(0, 3)), "x"))


@st.composite
def mutated_edge_lists(draw) -> str:
    """The edge list of a random graph with random line breaks, skipped
    lines and, usually, a few faults: one or three tokens on a line, a pair
    split over two lines, a token that is not a plain decimal in range,
    u >= v, a repeated edge or a wrong m."""
    g = draw(connected_graphs(max_n=8))
    rng = draw(st.randoms(use_true_random=False))
    header, *edges = serialize_edge_list(g).splitlines()
    lines = [header, *edges]
    for _ in range(draw(st.integers(0, 2))):
        k = rng.randrange(len(lines))
        if k == 0:
            n, m = header.split()
            lines[0] = f"{n} {int(m) + rng.choice((-1, 1))}"
            continue
        if len(lines[k].split()) != 2:  # a fault made already
            continue
        u, v = lines[k].split()
        fault = rng.randrange(6)
        if fault == 0:
            lines[k] = rng.choice((u, f"{u} {v} {v}"))
        elif fault == 1:
            lines[k : k + 1] = [u, v]
        elif fault == 2:
            lines[k] = f"{_token_fault(u, g.n, rng)} {v}" if rng.random() < 0.5 else f"{u} {_token_fault(v, g.n, rng)}"
        elif fault == 3:
            lines[k] = rng.choice((f"{v} {u}", f"{u} {u}"))
        else:
            lines.insert(k, lines[k])
    for _ in range(draw(st.integers(0, 6))):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(_SKIPPED))
    text = "".join(line + rng.choice(_BREAKS) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\n\r\v\x1c\x85\u2028")


def _outcome(parse, text: str) -> Graph | str:
    try:
        return parse(text)
    except GraphFormatError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(mutated_edge_lists())
@example("3 2\n-0 1\n0 2")
def test_bulk_parse_agrees_with_the_line_scan(text):
    expected = _outcome(line_scan, text)
    # Small slices put slice boundaries inside the text, and a fault in an
    # early slice leaves later slices to be only counted.
    for size in (1, 5, 16, graph_core._SLICE):
        with mock.patch.object(graph_core, "_SLICE", size):
            assert _outcome(parse_edge_list, text) == expected, size


def test_a_faulty_edge_list_is_read_in_the_memory_of_a_valid_one():
    # K_300 has 44,850 edge lines; a loop as the last of them is found
    # only after every slice before it is read.
    valid = serialize_edge_list(complete(300))
    faulty = valid.rsplit("\n", 2)[0] + "\n299 299\n"
    peaks, outcomes = [], []
    for text in (valid, faulty):
        tracemalloc.start()
        try:
            outcomes.append(_outcome(parse_edge_list, text))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert outcomes == [complete(300), "loop 299 299 not allowed"]
    assert peaks[1] <= 1.25 * peaks[0], peaks


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

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError, match="^vertex count must be a positive int, got -1$"):
            Graph(-1, ())

    def test_frozen_fields(self):
        g = path(2)
        with pytest.raises(AttributeError, match="^cannot assign to field 'n'$"):
            g.n = 3
        with pytest.raises(AttributeError, match="^cannot delete field 'n'$"):
            del g.n
        assert repr(g) == "Graph(n=2, adjacency=((1,), (0,)))"
        # Another class is not equal, even with the same fields.
        assert g != ((1,), (0,)) and g.__eq__(2) is NotImplemented

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


class _Pair(Frozen):
    __slots__ = _fields = ("first", "second")
    _defaults = {"second": None}


def test_plain_records_take_fields_by_position_or_name():
    assert _Pair(1, 2) == _Pair(first=1, second=2) == _Pair(1, second=2) != _Pair(1)
    assert _Pair(1).second is None and repr(_Pair(1, 2)) == "_Pair(first=1, second=2)"
    assert _Pair(1)._replace(second=3) == _Pair(1, 3) and _Pair(1, 2)._asdict() == {"first": 1, "second": 2}
    # A record is not a tuple: it neither equals nor unpacks as one.
    assert _Pair(1, 2) != (1, 2) and not isinstance(_Pair(1, 2), tuple)
    with pytest.raises(TypeError):
        first, second = _Pair(1, 2)
    for args, kwargs in (((), {}), ((1, 2, 3), {}), ((1,), {"first": 1}), ((1,), {"third": 3})):
        with pytest.raises(TypeError, match="_Pair"):
            _Pair(*args, **kwargs)
    with pytest.raises(AttributeError, match="^cannot assign to field 'first'$"):
        _Pair(1).first = 2
    stats = degree_stats(path(3))
    assert stats == DegreeStats(1, 2, Ratio(4, 3), Ratio(2, 9)) and hash(stats) == hash(DegreeStats(**stats._asdict()))


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

    def test_hash_is_the_rows_hash_computed_once(self, monkeypatch):
        # automorphism_group's cache hashes its graph on every lookup, and
        # hashing K2000's rows took 16.9 ms of a 17.8 ms lookup.
        g = Graph.from_edges(4, [(2, 0), (0, 1), (3, 0)])
        keys = []
        key = Graph._key
        monkeypatch.setattr(Graph, "_key", lambda self: keys.append(self) or key(self))
        assert hash(g) == hash((g.n, g.adjacency)) and len(keys) == 1 and "_hash" in vars(g)
        assert hash(g) == hash(g) and len(keys) == 1

    def test_fields_cannot_be_assigned(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 3
        with pytest.raises(AttributeError):
            g.adjacency = ()
        assert (g.n, g.adjacency) == (2, ((1,), (0,)))


# Values each record refuses when made, with the message it raises: no
# analysis sees an empty graph or a label, vertex count or member that is
# not an int.
_COUNT = "vertex count must be a positive int, got "
REFUSALS = [
    ("graph_n_0", lambda: Graph(0, ()), _COUNT + "0"),
    ("from_edges_n_0", lambda: Graph.from_edges(0, ()), _COUNT + "0"),
    ("graph_n_negative", lambda: Graph(-1, ()), _COUNT + "-1"),
    ("graph_n_float", lambda: Graph(2.0, ((1,), (0,))), _COUNT + "2.0"),
    ("from_edges_n_float", lambda: Graph.from_edges(2.0, [(0, 1)]), _COUNT + "2.0"),
    ("graph_n_bool", lambda: Graph(True, ((),)), _COUNT + "True"),
    ("graph_float_labels", lambda: Graph(2, ((1.0,), (0.0,))), "row 0 holds a label that is not an int: (1.0,)"),
    ("graph_str_label", lambda: Graph(2, (("1",), (0,))), "row 0 holds a label that is not an int: ('1',)"),
    ("partition_float_member", lambda: Partition(((0.0, 1),)), "cell member 0.0 is not an int"),
    ("partition_bool_members", lambda: Partition(((False, True),)), "cell member False is not an int"),
    ("relabel_float_image", lambda: path(2).relabel([1.0, 0.0]), "image is not a bijection of ints on 0..n-1"),
    ("rooted_graph_float_root", lambda: RootedGraph(path(2), 0.0), "root 0.0 out of range: a root is an int in 0..1"),
]


@pytest.mark.parametrize("build, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_records_refuse_what_the_analysis_cannot_take(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_accepted_records_never_crash_the_analysis(data):
    # Every public analysis of graphs and a partition that were made, of
    # any sizes, connected or not, returns or raises ValueError.
    g, h = data.draw(graphs()), data.draw(graphs())
    p = data.draw(partitions(g.n))
    for call, *args in (
        (automorphism_group, g), (orbit_profile, g), (orbit_divisor_matrix, g), (analyze_term, g),
        (divisor_matrix, g, p), (divisor_matrix, h, p), (spectral_radius_adjacency, g),
        (spectral_radius_adjacency, g, p), (spectral_radius_adjacency, h, p), (orbitally_similar, g, h),
        (isomorphism, g, h), (equitable_refinement, g, p), (equitable_refinement, h, p),
        (degree_stats, g), (edge_vertex_ratio, g), (density, g), (cyclomatic_number, g),
    ):
        try:
            call(*args)
        except ValueError:
            pass


def _union_find_connected(n: int, arcs) -> bool:
    """Whether the arcs, taken as undirected edges, join all n vertices (oracle)."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in arcs:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) <= 1


def _reached_from_0(rows) -> set[int]:
    """The indices reached from 0, grown until no arc adds one (oracle)."""
    reached = {0}
    while more := {w for u in reached for w in rows[u]} - reached:
        reached |= more
    return reached


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reaches_all_agrees_with_union_find_and_closure(data):
    # The same random arcs as one-way rows and as symmetric rows.
    n = data.draw(st.integers(1, 8))
    arcs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14))
    one_way: list[list[int]] = [[] for _ in range(n)]
    both: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        one_way[u].append(v)
        both[u].append(v)
        both[v].append(u)
    assert reaches_all(both) == _union_find_connected(n, arcs)
    assert reaches_all(one_way) == (len(_reached_from_0(one_way)) == n)


@settings(max_examples=80, deadline=None)
@given(connected_graphs(max_n=8))
def test_connected_and_isomorphism_agree_with_reaches_all(g):
    # Fresh graphs, so that no connectivity is cached before it is asked for.
    fresh, apart = Graph(g.n, g.adjacency), Graph(g.n + 1, [*g.adjacency, ()])
    assert reaches_all(g.adjacency) and fresh.connected
    assert not reaches_all(apart.adjacency) and not apart.connected
    assert isomorphism(g, g) is not None
    with pytest.raises(ValueError, match="connected graphs only"):
        isomorphism(apart, g)


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
        with pytest.raises(ValueError, match="^vertex count must be a positive int, got 0$"):
            degree_stats(Graph.from_edges(0, ()))


_INTEGERS = st.one_of(st.integers(-60, 60), st.integers(-(10**30), 10**30))
_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from((0.0, -0.0, 0.5, -2.0, 1 / 3)))


def _same(r, f: Fraction) -> bool:
    """r is the Ratio of f's value, in f's lowest terms."""
    return type(r) is Ratio and (r.numerator, r.denominator) == (f.numerator, f.denominator)


def _results(op, *args):
    """op(*args), or ZeroDivisionError if it raises that."""
    try:
        return op(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=400, deadline=None)
@given(_INTEGERS, _INTEGERS.filter(bool), _INTEGERS, _INTEGERS.filter(bool), st.integers(-60, 60), _FLOATS,
       st.integers(-5, 5))
def test_ratio_agrees_with_fraction(p, q, s, t, k, x, e):
    a, b, ra, rb = Fraction(p, q), Fraction(s, t), Ratio(p, q), Ratio(s, t)
    assert _same(ra, a) and ra.denominator > 0
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for left, right, fleft, fright in ((ra, rb, a, b), (ra, k, a, k), (k, ra, k, a), (ra, b, a, b)):
            got, want = _results(op, left, right), _results(op, fleft, fright)
            assert got is want is ZeroDivisionError or _same(got, want), (op, left, right)
    got, want = _results(operator.pow, ra, e), _results(operator.pow, a, e)
    assert got is want is ZeroDivisionError or _same(got, want)
    for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
        for left, right, fleft, fright in ((ra, rb, a, b), (ra, k, a, k), (k, ra, k, a), (ra, x, a, x), (x, ra, x, a),
                                           (ra, b, a, b), (b, ra, b, a)):
            assert op(left, right) is op(fleft, fright), (op, left, right)
    assert hash(ra) == hash(a) and str(ra) == str(a) and float(ra) == float(a) and bool(ra) is bool(a)
    assert _same(sum((ra, rb, ra), Ratio(0)), sum((a, b, a), Fraction(0)))
    assert ra == a and a == ra and {ra: 1}[a] == 1
    if q == 1:
        assert ra == p and hash(ra) == hash(p)


def test_ratio_of_zero_denominator_is_a_zero_division():
    for p in (0, 1, -3):
        with pytest.raises(ZeroDivisionError):
            Ratio(p, 0)
    with pytest.raises(ZeroDivisionError):
        Ratio(1, 2) / 0
    with pytest.raises(ZeroDivisionError):
        Ratio(0) ** -1


def test_ratio_is_exact_where_floats_are_not():
    assert Ratio(1, 10) + Ratio(2, 10) == Ratio(3, 10) and 0.1 + 0.2 != 0.3
    assert Ratio(1, 3) != 1 / 3 and Ratio(1, 2) == 0.5 and Ratio(1, 2) < math.inf and not Ratio(1, 2) < math.nan
    # CPython's hash is never -1, so -1 hashes to -2, as Fraction(-1) does.
    assert hash(Ratio(-1)) == hash(Fraction(-1)) == hash(-1) == -2


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


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=8))
@example(Graph(2, ((True,), (False,))))  # bool labels are stored as ints
def test_round_trips(g):
    # Every Graph there is, connected or not, reads back from both writers.
    assert {type(v) for row in g.adjacency for v in row} <= {int}
    assert parse_edge_list(serialize_edge_list(g)) == g
    assert parse_graph6(to_graph6(g)) == g


@st.composite
def mutated_graph6(draw) -> str:
    """The graph6 text of a random graph on up to 80 vertices, so with a
    size field of 1 or 4 bytes, with or without the ">>graph6<<" header and
    a final line break, and often a fault: bytes outside "?".."~" at two
    random offsets, a body one byte short or long, or a second line."""
    rng = draw(st.randoms(use_true_random=False))
    n, p = draw(st.integers(1, 80)), rng.random()
    text = to_graph6(Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    fault = draw(st.integers(0, 4))
    if fault == 1:
        for at in rng.sample(range(len(text)), min(len(text), 2)):
            text = text[:at] + rng.choice("\x00 !0>\x7f\x80\u00e9") + text[at + 1 :]
    elif fault == 2:
        text = text[:-1] if rng.random() < 0.5 else text + rng.choice("?~")
    elif fault == 3:
        text += rng.choice(("\n", "\r\n")) + text
    return (">>graph6<<" if draw(st.booleans()) else "") + text + rng.choice(("", "\n"))


@settings(max_examples=300, deadline=None)
@given(mutated_graph6())
@example("Dh0")  # "0" lies below "?"
def test_graph6_decode_agrees_with_the_bit_list(text):
    assert _outcome(parse_graph6, text) == _outcome(graph6_bit_list, text)


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

    @pytest.mark.parametrize(
        "n, field",
        [(62, "}"), (63, "~??~"), (258047, "~}~~"), (258048, "~~???~??"), (68719476735, "~~~~~~~~")],
    )
    def test_size_fields(self, n, field):
        # one character up to 62, "~" and 3 up to 258,047, "~~" and 6 above
        assert _g6_encode_n(n) == field
        assert _graph6_header(field + "?") == (n, "?")

    def test_size_above_the_8_character_field(self):
        with pytest.raises(GraphFormatError, match="vertex count 68719476736 too large for graph6"):
            _g6_encode_n(68719476736)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty graph6 string"),
            (">>graph6<<\n", "empty graph6 string"),
            ("!", "invalid graph6 size byte"),
            ("\x7f", "invalid graph6 size byte"),
            ("~?@", "truncated graph6 size field"),
            ("~~??@??", "truncated graph6 size field"),
            ("?", "graph6 with zero vertices rejected"),
            ("C!", "invalid graph6 byte '!'"),
            ("C\x7f", "invalid graph6 byte '\\x7f'"),
            # every byte of a long size field lies in "?".."~" too
            ("~!!!", "invalid byte '!' in graph6 size field '~!!!'"),
            ("~?\x7f?", "invalid byte '\\x7f' in graph6 size field '~?\\x7f?'"),
            ("~~!!!!!!", "invalid byte '!' in graph6 size field '~~!!!!!!'"),
            # graph6 allows one graph per line; the reader takes one per text
            ("A_\nA_", "graph6 text holds more than one graph; one graph per file is read"),
            ("A_\r\nA_\r\n", "graph6 text holds more than one graph; one graph per file is read"),
            (">>graph6<<C~\nC~\n", "graph6 text holds more than one graph; one graph per file is read"),
        ],
    )
    def test_malformed_strings(self, text, message):
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
            parse_graph6(text)


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
