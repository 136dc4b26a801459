import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rigid_cubic
from orbigraph import constructions as cons
from orbigraph import orbital, sequences, spectral
from orbigraph.constructions import complete, crossed_prism, cycle, cycle_with_cliques, loaded_torus, path
from orbigraph.graph_core import Graph, Ratio
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


def _schedules(width):
    """Four torus schedule entries of width components each (width None: 1 or
    2, a single one written as an integer), in strictly increasing products."""
    entries = st.lists(st.integers(3, 6), min_size=width or 1, max_size=width or 2)
    return (
        st.lists(entries, min_size=4, max_size=4, unique_by=math.prod)
        .map(lambda es: sorted(es, key=math.prod))
        .map(lambda es: [e[0] if width is None and len(e) == 1 else e for e in es])
    )


def _dims(entry):
    return (entry,) if isinstance(entry, int) else tuple(entry)


_STARTS = st.integers(3, 7)
_SMALL = st.integers(1, 3)

# The ten sequence rows that wrap a catalogue family: their spec parameters,
# drawn small, and the catalogue family and parameters of term k.
CATALOGUE_ROWS = {
    "cycles": (st.fixed_dictionaries({"start": _STARTS}), "cycle", lambda p, k: {"n": p["start"] + k}),
    "circular-ladders": (
        st.fixed_dictionaries({"start": _STARTS}), "circular-ladder", lambda p, k: {"n": p["start"] + k}
    ),
    "moebius-ladders": (
        st.fixed_dictionaries({"start": _STARTS}), "moebius-ladder", lambda p, k: {"n": p["start"] + k}
    ),
    "crossed-prisms": (
        st.fixed_dictionaries({"start": st.integers(2, 4).map(lambda h: 2 * h)}),
        "crossed-prism",
        lambda p, k: {"n": p["start"] + 2 * k},
    ),
    "antiprisms": (st.fixed_dictionaries({"start": _STARTS}), "antiprism", lambda p, k: {"n": p["start"] + k}),
    "complete-graphs": (st.fixed_dictionaries({"start": _STARTS}), "complete", lambda p, k: {"n": p["start"] + k}),
    "torus-fixed": (
        st.fixed_dictionaries({"start": _STARTS, "m": st.integers(3, 5)}),
        "torus",
        lambda p, k: {"dims": (p["start"] + k, p["m"])},
    ),
    "torus-schedule": (
        st.fixed_dictionaries({"schedule": _schedules(None)}), "torus", lambda p, k: {"dims": _dims(p["schedule"][k])}
    ),
    "loaded-multi-torus": (
        st.integers(1, 2).flatmap(
            lambda r: st.fixed_dictionaries({"q": _SMALL, "m": _SMALL, "r": st.just(r), "schedule": _schedules(r)})
        ),
        "loaded-torus",
        lambda p, k: {"dims": _dims(p["schedule"][k]), "q": p["q"], "m": p["m"]},
    ),
    "generalized-sun": (
        st.fixed_dictionaries({"start": _STARTS, "p": _SMALL, "q": _SMALL}),
        "cycle-with-cliques",
        lambda p, k: {"n": p["start"] + k, "p": p["p"], "q": p["q"]},
    ),
}


def test_every_row_without_a_base_wraps_a_catalogue_family():
    assert set(CATALOGUE_ROWS) == {name for name, row in sequences._FAMILIES.items() if not row.base}


@pytest.mark.parametrize("name", CATALOGUE_ROWS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_catalogue_rows_take_term_and_order_from_the_catalogue(name, data):
    params, family, member = CATALOGUE_ROWS[name]
    p = data.draw(params)
    spec = SequenceSpec(name, p)
    for k in range(4):
        term = spec.term(k)
        assert spec.order(k) == term.n == cons.family_order(family, **member(p, k))
        assert term == cons.family(family, **member(p, k))


def test_equal_specs_hash_equal():
    a = SequenceSpec.from_dict({"family": "loaded-multi-torus", "q": 2, "m": 1, "r": 2, "schedule": [[3, 3], [3, 4]]})
    b = SequenceSpec.from_dict({"schedule": ((3, 3), (3, 4)), "r": 2, "m": 1, "q": 2, "family": "loaded-multi-torus"})
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    cycles = SequenceSpec.from_dict({"family": "cycles", "start": 5})
    assert hash(cycles) == hash(SequenceSpec("cycles", {"start": 5}))
    assert cycles != SequenceSpec.from_dict({"family": "cycles"})


def test_spec_parameters_are_read_only():
    params = {"schedule": [7, [3, 4]]}
    spec = SequenceSpec("torus-schedule", params)
    params["schedule"].append([3, 5])
    assert spec.params["schedule"] == (7, (3, 4))
    cycles = SequenceSpec.from_dict({"family": "cycles"})
    with pytest.raises(TypeError):
        cycles.params["start"] = 2
    assert cycles.order(0) == 3


def test_copies_and_pickles_rebuild_through_init(monkeypatch):
    spec = SequenceSpec.from_dict(FAMILY_CASES["subsequence-derived-torus-fixed"][0])
    made = []
    init = SequenceSpec.__init__
    monkeypatch.setattr(SequenceSpec, "__init__", lambda self, *args: made.append(args[0]) or init(self, *args))
    for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert twin == spec and hash(twin) == hash(spec)
        with pytest.raises(TypeError):
            twin.params["indices"] = (0,)
    assert made.count("subsequence") == 3


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
    # The check reads the radii the certificate bracketed, so a divisor
    # matrix whose Perron root moved shows as its rho_divisor.
    analyze = sequences.analyze_term

    def wrong_divisor_root_for_term_one(graph):
        record = analyze(graph)
        if graph.n == 4:
            record = record._replace(rho_divisor=3.0)
        return record

    monkeypatch.setattr(sequences, "analyze_term", wrong_divisor_root_for_term_one)
    check = _check(preservation_report(_cycles(3)), "rho_paths_agree")
    assert check.passed is False
    assert check.detail == "term 1: divisor matrix gives 3.0, adjacency 2.0"


@pytest.mark.parametrize(
    "values, passed",
    [
        # The m = 20 loaded cycles' principal ratios, 1.4e-15 apart relative to their size.
        ([1398101.333328415, 1398101.333328413], True),
        ([0.0, 1e-9], True),
        ([0.0, 2e-9], False),
        ([1e12, 1e12 * (1 + 1e-8)], False),
        ([Ratio(1, 3), Ratio(1, 3) + Ratio(1, 10**20)], False),
        ([Ratio(7, 2), Ratio(14, 4)], True),
        ([3, 3, 4], False),
    ],
)
def test_constant_check_scales_floats_and_keeps_exact_values_exact(values, passed):
    # Floats agree within FLOAT_TOL times the first value's size, never
    # below FLOAT_TOL; ints and Ratios only when equal.
    assert sequences._constant_check("x", values).passed is passed


def test_term_record_fields_cannot_be_assigned():
    record = analyze_term(cycle(5))
    with pytest.raises(AttributeError):
        record.order = 6
    assert record.order == 5
    assert list(record.as_dict()) == list(record._fields)


def test_every_term_is_compared_with_the_first():
    terms = [cycle(3), cycle(4), path(5)]
    verdict = verify_self_similar(terms)
    assert not verdict.self_similar
    assert verdict.failing_pair == (0, 2)


def test_preservation_report_builds_each_divisor_matrix_once(monkeypatch):
    # Every divisor matrix comes from orbital.divisor_matrix, which spectral
    # imports under its own name; count the calls through both.
    builds = []
    build = orbital.divisor_matrix

    def counted(graph, partition):
        builds.append(graph.n)
        return build(graph, partition)

    monkeypatch.setattr(orbital, "divisor_matrix", counted)
    monkeypatch.setattr(spectral, "divisor_matrix", counted)
    spec = SequenceSpec.from_dict({"family": "generalized-sun", "p": 3, "q": 2, "start": 4})
    report = preservation_report(generate(spec, 5))
    assert report.ok
    assert builds == [5 * n for n in range(4, 9)]


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


def test_orders_must_increase():
    verdict = verify_self_similar([cycle(5), cycle(4)])
    assert not verdict.self_similar
    assert verdict.failing_pair == (0, 1)
    assert verdict.reason == "orders not strictly increasing: 5 then 4"


@pytest.mark.parametrize(
    "terms, message",
    [
        ([cycle(3)], "need at least two graphs"),
        ([cycle(3), Graph.from_edges(4, [(0, 1), (2, 3)])], "term 1 is disconnected"),
    ],
    ids=["one_term", "disconnected"],
)
def test_terms_are_checked(terms, message):
    for check in (verify_self_similar, preservation_report):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check(terms)


@pytest.mark.parametrize(
    "terms, detail",
    [
        # c1 = 3 and K_5 has 10 - 5 + 1 = 6, where the law asks 1 + 2 * 5/4
        ([complete(4), complete(5)], "term 1: c-1 = 5 != (c1-1)*|G_k|/n = 5/2"),
        # the law holds for a repeated term, which does not grow
        ([complete(4), complete(4)], "term 1: cyclomatic number not increasing"),
    ],
    ids=["scaling_law", "not_increasing"],
)
def test_cyclomatic_check_failures(terms, detail):
    check = _check(preservation_report(terms), "cyclomatic")
    assert not check.passed
    assert check.detail == detail
