import re

import pytest

from orbigraph import constructions as cons
from orbigraph.constructions import RootedGraph, family, family_names, family_order, path
from orbigraph.graph_core import Graph, is_connected

# (family, parameters, order, size, common degree or None if not regular)
SHAPES = [
    ("cycle", {"n": 7}, 7, 7, 2),
    ("path", {"n": 6}, 6, 5, None),
    ("complete", {"n": 5}, 5, 10, 4),
    ("star", {"q": 4}, 5, 4, None),
    ("circular-ladder", {"n": 5}, 10, 15, 3),
    ("moebius-ladder", {"n": 5}, 10, 15, 3),
    ("crossed-prism", {"n": 8}, 16, 24, 3),
    ("antiprism", {"n": 5}, 10, 20, 4),
    ("torus", {"dims": (3, 4, 5)}, 60, 3 * 60, 6),
    ("sun", {"n": 6}, 12, 12, None),
    ("generalized-sun", {"n": 5, "q": 3}, 5 * 4, 5 * 4, None),
    # each of the n*q glued K_4 adds 3 vertices and 6 edges
    ("cycle-with-cliques", {"n": 6, "p": 4, "q": 2}, 6 + 12 * 3, 6 + 12 * 6, None),
    # each of the 12 torus vertices carries 2 branches of 3 vertices and 3 edges
    ("loaded-torus", {"dims": (3, 4), "q": 2, "m": 3}, 12 * 7, 2 * 12 + 12 * 6, None),
]


def test_every_family_has_a_shape():
    assert sorted(name for name, *_ in SHAPES) == sorted(family_names())


@pytest.mark.parametrize("name, params, order, size, degree", SHAPES, ids=[s[0] for s in SHAPES])
def test_order_size_and_regularity(name, params, order, size, degree):
    g = family(name, **params)
    assert (g.n, g.m) == (order, size)
    assert family_order(name, **params) == order
    assert is_connected(g)
    degrees = set(g.degrees())
    if degree is None:
        assert len(degrees) > 1
    else:
        assert degrees == {degree}


@pytest.mark.parametrize("root", [-1, 3])
def test_rooted_graph_rejects_a_root_out_of_range(root):
    with pytest.raises(ValueError, match=f"root {root} out of range"):
        RootedGraph(path(3), root)


EMPTY = Graph.from_edges(0, ())

# Each constructor's argument check, with the message it raises.
ARGUMENT_ERRORS = [
    ("path", lambda: cons.path(0), "path needs n >= 1, got 0"),
    ("complete", lambda: cons.complete(0), "complete graph needs n >= 1, got 0"),
    ("star", lambda: cons.star(0), "star needs q >= 1, got 0"),
    ("cartesian_product", lambda: cons.cartesian_product(path(2), EMPTY), "products need nonempty factors"),
    ("strong_product", lambda: cons.strong_product(EMPTY, path(2)), "products need nonempty factors"),
    ("corona", lambda: cons.corona(EMPTY, path(2)), "corona needs a nonempty left factor"),
    ("starlike_load", lambda: cons.starlike_load(2, 0), "starlike load needs q, m >= 1, got q=2, m=0"),
    (
        "vertex_load",
        lambda: cons.vertex_load(EMPTY, cons.starlike_load(1, 1)),
        "vertex loading needs a nonempty support",
    ),
    ("moebius_ladder", lambda: cons.moebius_ladder(2), "Moebius ladder needs n >= 3, got 2"),
    ("crossed_prism", lambda: cons.crossed_prism(5), "crossed prism needs even n >= 4, got 5"),
    ("antiprism", lambda: cons.antiprism(2), "antiprism needs n >= 3, got 2"),
    ("torus_empty", lambda: cons.torus(()), "torus needs at least one dimension"),
    ("torus_small", lambda: cons.torus([3, 2]), "torus dimensions must all be >= 3, got (3, 2)"),
    (
        "cycle_with_cliques",
        lambda: cons.cycle_with_cliques(3, 0, 1),
        "need n >= 3 and p, q >= 1, got n=3, p=0, q=1",
    ),
    ("disjoint_cliques", lambda: cons.disjoint_cliques(0, 2), "need q, p >= 1, got q=0, p=2"),
    ("family", lambda: family("nosuch", n=3), f"unknown family 'nosuch'; known: {', '.join(family_names())}"),
    # parameter names are checked against the catalogue row, before the constructor is called
    (
        "family_params",
        lambda: family("cycle-with-cliques", n=3, q=2),
        "bad parameters for family 'cycle-with-cliques': takes n, p, q; got n, q",
    ),
    ("family_order_params", lambda: family_order("star"), "bad parameters for family 'star': takes q; got none"),
]


@pytest.mark.parametrize("build, message", [e[1:] for e in ARGUMENT_ERRORS], ids=[e[0] for e in ARGUMENT_ERRORS])
def test_argument_errors(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
