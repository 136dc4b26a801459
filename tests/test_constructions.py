import pytest

from orbigraph.constructions import RootedGraph, family, family_names, family_order, path
from orbigraph.graph_core import is_connected

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
