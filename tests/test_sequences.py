import random

import pytest

from helpers import from_dense, rigid_cubic
from orbigraph import constructions as cons
from orbigraph import sequences
from orbigraph.constructions import complete, crossed_prism, cycle, cycle_with_cliques, loaded_torus, path
from orbigraph.graph_core import Graph
from orbigraph.orbital import orbitally_similar
from orbigraph.sequences import SequenceSpec, analyze_term, generate, preservation_report, verify_self_similar


def _cycles(count):
    return generate(SequenceSpec.from_dict({"family": "cycles"}), count)


def _check(report, name):
    return next(c for c in report.preservation if c.name == name)


# One spec per family, plus a nested one, with the graphs its first three
# terms must be, built directly from the constructions.
FAMILY_CASES = {
    "cycles": ({"family": "cycles", "start": 5}, lambda k: cons.cycle(5 + k)),
    "circular-ladders": ({"family": "circular-ladders", "start": 4}, lambda k: cons.circular_ladder(4 + k)),
    "moebius-ladders": ({"family": "moebius-ladders"}, lambda k: cons.moebius_ladder(3 + k)),
    "crossed-prisms": ({"family": "crossed-prisms", "start": 6}, lambda k: cons.crossed_prism(6 + 2 * k)),
    "antiprisms": ({"family": "antiprisms"}, lambda k: cons.antiprism(3 + k)),
    "complete-graphs": ({"family": "complete-graphs", "start": 4}, lambda k: cons.complete(4 + k)),
    "torus-fixed": ({"family": "torus-fixed", "m": 4}, lambda k: cons.torus((3 + k, 4))),
    "torus-schedule": (
        {"family": "torus-schedule", "schedule": [7, [3, 4], [3, 5]]},
        lambda k: cons.torus([(7,), (3, 4), (3, 5)][k]),
    ),
    "loaded-multi-torus": (
        {"family": "loaded-multi-torus", "q": 2, "m": 1, "r": 2, "schedule": [[3, 3], [3, 4], [4, 4]]},
        lambda k: cons.loaded_torus([(3, 3), (3, 4), (4, 4)][k], 2, 1),
    ),
    "generalized-sun": (
        {"family": "generalized-sun", "p": 3, "q": 2, "start": 4}, lambda k: cons.cycle_with_cliques(4 + k, 3, 2),
    ),
    "corona-family": (
        {"family": "corona-family", "p": 2, "q": 3, "base": {"family": "cycles"}},
        lambda k: cons.corona(cons.cycle(3 + k), cons.disjoint_cliques(3, 2)),
    ),
    "iterated-prism": (
        {"family": "iterated-prism", "r": 2, "base": {"family": "cycles", "start": 4}},
        lambda k: cons.prism(cons.prism(cons.cycle(4 + k))),
    ),
    "derived": (
        {"family": "derived", "op": "minimal-corona", "base": {"family": "antiprisms"}},
        lambda k: cons.minimal_corona(cons.antiprism(3 + k)),
    ),
    "subsequence": (
        {"family": "subsequence", "indices": [0, 2, 5], "base": {"family": "moebius-ladders"}},
        lambda k: cons.moebius_ladder(3 + [0, 2, 5][k]),
    ),
    "subsequence-derived-torus-fixed": (
        {"family": "subsequence", "indices": [1, 2, 4],
         "base": {"family": "derived", "op": "strong-prism", "base": {"family": "torus-fixed", "m": 3}}},
        lambda k: cons.strong_prism(cons.torus((3 + [1, 2, 4][k], 3))),
    ),
}


@pytest.mark.parametrize("case", FAMILY_CASES, ids=str)
def test_every_family_generates_its_constructions(case):
    spec, build = FAMILY_CASES[case]
    assert generate(SequenceSpec.from_dict(spec), 3) == [build(k) for k in range(3)]


@pytest.mark.parametrize("case", FAMILY_CASES, ids=str)
def test_order_from_the_spec_is_the_built_order(case):
    spec = SequenceSpec.from_dict(FAMILY_CASES[case][0])
    assert [spec.order(k) for k in range(3)] == [g.n for g in generate(spec, 3)]


def test_subsequence_builds_only_the_base_terms_it_names(monkeypatch):
    built = []
    from_edges = Graph.from_edges
    monkeypatch.setattr(Graph, "from_edges", lambda n, edges: built.append(n) or from_edges(n, edges))
    spec = SequenceSpec.from_dict({"family": "subsequence", "indices": [0, 600], "base": {"family": "cycles"}})
    assert [g.n for g in generate(spec, 2)] == [3, 603]
    assert built == [3, 603]


def test_cycles_preserve_every_invariant():
    report = preservation_report(_cycles(4))
    assert report.ok and report.verdict.seed_status == "not-checked"


def test_rho_paths_flags_a_wrong_divisor_matrix(monkeypatch):
    analyze = sequences.analyze_term

    def wrong_divisor_for_term_one(graph):
        record = analyze(graph)
        if graph.n == 4:
            record = record._replace(divisor=from_dense(((3,),), (4,)))
        return record

    monkeypatch.setattr(sequences, "analyze_term", wrong_divisor_for_term_one)
    check = _check(preservation_report(_cycles(3)), "rho_paths_agree")
    assert not check.passed
    assert check.detail.startswith("term 1: divisor matrix gives 3.0")


def test_term_record_fields_cannot_be_assigned():
    record = analyze_term(cycle(5))
    with pytest.raises(AttributeError):
        record.order = 6
    assert record.order == 5


def test_every_term_is_compared_with_the_first():
    terms = [cycle(3), cycle(4), path(5)]
    verdict = verify_self_similar(terms)
    assert not verdict.self_similar
    assert verdict.failing_pair == (0, 2)


def test_seed_is_checked_by_isomorphism():
    terms = _cycles(3)
    relabelled = terms[0].relabel([2, 0, 1])
    assert verify_self_similar(terms, seed=relabelled).seed_status == "verified"
    big = generate(SequenceSpec.from_dict({"family": "cycles", "start": 12}), 2)
    assert verify_self_similar(big, seed=big[0].relabel([(5 * v) % 12 for v in range(12)])).seed_status == "verified"
    failed = verify_self_similar(big, seed=path(12))
    assert not failed.self_similar and failed.seed_status == "failed"


def test_density_is_null_below_two_vertices():
    report = preservation_report([complete(1), complete(2), complete(3)])
    assert report.as_dict()["terms"][0]["density"] is None
    check = _check(report, "density_decreasing")
    assert not check.passed
    assert check.detail == "term 0 has no density (fewer than two vertices)"


@pytest.mark.parametrize(
    "graph",
    [cycle_with_cliques(10, 3, 2), loaded_torus((4, 4), 2, 3), crossed_prism(20), path(30), rigid_cubic(5, 20)],
    ids=["cycle_with_cliques", "loaded_torus", "crossed_prism", "path", "rigid_cubic"],
)
def test_analysis_is_invariant_under_relabelling(graph):
    image = random.Random(13).sample(range(graph.n), graph.n)
    relabelled = graph.relabel(image)
    a, b = analyze_term(graph), analyze_term(relabelled)
    exact = ("group_order", "omega", "min_degree", "max_degree", "average_degree", "degree_variance",
             "edge_vertex_ratio", "density", "cyclomatic_number")
    for name in exact:
        assert getattr(a, name) == getattr(b, name), name
    for name in ("entropy", "rho_adjacency", "rho_divisor", "principal_ratio"):
        assert abs(getattr(a, name) - getattr(b, name)) <= 1e-9, name
    assert orbitally_similar(graph, relabelled).similar


@pytest.mark.parametrize(
    "spec, k",
    [
        ({"family": "generalized-sun", "p": 3, "q": 2, "start": 20}, 4),
        ({"family": "loaded-multi-torus", "q": 2, "m": 3, "r": 2,
          "schedule": [[3, 4], [4, 4], [4, 5], [5, 5], [5, 6]]}, 3),
        ({"family": "corona-family", "p": 3, "q": 2, "base": {"family": "cycles", "start": 12}}, 1),
    ],
    ids=["generalized-sun", "loaded-multi-torus", "corona-family"],
)
def test_printed_rho_does_not_depend_on_vertex_labels(spec, k):
    graph = generate(SequenceSpec.from_dict(spec), k + 1)[k]
    rho = analyze_term(graph).rho_adjacency
    for seed in range(25):
        image = list(range(graph.n))
        random.Random(seed).shuffle(image)
        assert analyze_term(graph.relabel(image)).rho_adjacency == rho, seed
