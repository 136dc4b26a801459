"""The at-cap corpus's table is well formed, keeps the bounds of the CI
steps it replaced, and its runner fails a row on each kind of wrong answer."""

import pytest

import at_cap
from at_cap import INPUTS, PROBE_REF_S, ROWS, Input, Row, run_corpus
from orbigraph.constructions import cycle
from orbigraph.graph_core import serialize_edge_list

ROW = {row.name: row for row in ROWS}

# The rows that carry each replaced CI step, and the rows bounded since,
# with the time bound (seconds) and peak-RSS bound (MB, or None when there
# is none) that they must keep.
MOVED = [
    # analyze a path at the 2000-vertex cap within 60 s; and it imports no numpy
    ("analyze path(2000)", 60, None),
    # analyze of a rigid cubic graph at the cap imports no numpy, within 60 s;
    # its table analyze within 20 s; under 100 MB peak RSS
    ("analyze cubic(11, 2000)", 20, 100),
    ("analyze cubic(11, 2000), table", 20, None),
    # compare it with its relabelling (20 s, 100 MB), and with another rigid cubic graph (20 s)
    ("compare cubic(11, 2000) relabelled", 20, 100),
    ("compare cubic(11, 2000) cubic(12, 2000)", 20, None),
    # the paper's families at the cap within 60 s each; the loaded torus within 10 s
    ("analyze cycle_with_cliques(400, 3, 2)", 60, None),
    ("analyze loaded_torus((20, 20), 2, 2)", 10, None),
    ("analyze crossed_prism(1000)", 60, None),
    ("sequence generalized-sun from 340, 2 terms", 60, None),
    # the rigid graph with pendant trees against its relabelling within 20 s
    ("compare pendant trees relabelled", 20, None),
    # CFI graphs within 20 s, and the twisted compare within 40 s
    ("analyze CFI(rigid_cubic(11, 150))", 20, None),
    ("analyze CFI(cubic(11, 200))", 20, None),
    ("compare CFI(cubic(11, 200)) twisted", 40, None),
    ("analyze CFI(cubic(11, 200)) by gadget", 20, None),
    ("analyze GP(1000, 33)", 10, None),
    ("analyze T(63)", 30, None),
    ("analyze K44 x K44", 30, None),
    # refusals, each within 10 s
    ("generate path(10^8)", 10, None),
    ("generate torus 1000^3", 10, None),
    ("sequence malformed spec", 10, None),
    ("sequence over-cap term", 10, None),
    ("analyze graph6 size byte outside ?..~", 10, None),
    ("analyze edge list headed 3_0 2", 10, None),
    # a 40-term generalized-sun sequence within 60 s and under 150 MB
    ("sequence generalized-sun from 300, 40 terms", 60, 150),
    # K_2000 from graph6 (60 s, 250 MB) and from its edge list (60 s, 450 MB)
    ("analyze K2000, graph6", 60, 250),
    ("analyze K2000, edge list", 60, 450),
    # the near-regular rigid graph within 60 s and under 115 MB
    ("analyze near-regular rigid graph", 60, 115),
    # the IR search keeps one partition per search path: a partition per
    # level read 49 MB on crossed_prism(1000) and 24-25 MB on CFI
    ("analyze crossed_prism(1000)", 60, 30),
    ("compare crossed_prism(1000) relabelled", 60, 30),
    ("analyze CFI(cubic(11, 200))", 20, 22),
    ("compare CFI(cubic(11, 200)) relabelled", 60, 22),
]


def test_rows_and_inputs_are_named_once():
    assert len(ROW) == len(ROWS)
    assert len({name for name, _ in INPUTS}) == len(INPUTS)


def test_every_input_is_used_and_every_file_argument_declared():
    declared = {name for name, _ in INPUTS}
    used = set()
    for row in ROWS:
        for before, arg in zip(("",) + row.argv, row.argv):
            if arg.endswith((".edges", ".g6", ".json")) and before != "--out":
                assert arg in declared, (row.name, arg)
                used.add(arg)
    assert used == declared


@pytest.mark.parametrize("name, seconds, rss_mb", MOVED)
def test_moved_steps_keep_their_bounds(name, seconds, rss_mb):
    row = ROW[name]
    assert row.seconds <= seconds
    assert rss_mb is None or row.rss_mb is not None and row.rss_mb <= rss_mb


def test_rows_state_what_replaced_steps_checked():
    assert not ROW["analyze path(2000)"].numpy and not ROW["analyze cubic(11, 2000)"].numpy
    assert ROW["analyze near-regular rigid graph"].numpy
    # one graph read from graph6 and from its edge list prints one record
    for name in ("analyze K2000, edge list", "analyze Paley(1997), edge list"):
        assert ROW[name].same_stdout_as in ROW
    assert ROW["analyze K2000, graph6"].order is not None


def test_answer_facts_are_only_declared_for_json_rows():
    for row in ROWS:
        facts = (row.order, row.orbits, row.rho, row.similar, row.witness)
        if any(fact is not None for fact in facts) or row.same_graph:
            assert "--json" in row.argv, row.name


C5 = (Input("c5.edges", lambda: serialize_edge_list(cycle(5))),)
ARGV = ("analyze", "--json", "c5.edges")
# Each row over C_5 and the failure the runner must report, None for the right row.
CASES = {
    Row("right", ARGV, 60, rss_mb=1000, order=10, orbits=1, rho=2.0): None,
    Row("wrong group order", ARGV, 60, order=5): "group_order is not the closed form",
    Row("wrong rho", ARGV, 60, rho=2.0 + 1e-9): "rho is not the closed form",
    Row("wrong exit", ARGV, 60, exit=3): "exit 0, expected 3",
    Row("time bound below start-up", ARGV, 0.001): "a run took",
    Row("RSS bound below start-up", ARGV, 60, rss_mb=1): "peak RSS",
    Row("numpy declared", ARGV, 60, numpy=True): "numpy not imported",
}


@pytest.fixture(scope="module")
def entries():
    return {entry["name"]: entry for entry in run_corpus(tuple(CASES), C5)}


@pytest.mark.parametrize("row, failure", CASES.items(), ids=[row.name for row in CASES])
def test_runner_fails_each_wrong_answer(entries, row, failure):
    entry = entries[row.name]
    assert len(entry["failures"]) == (failure is not None), entry["failures"]
    assert all(f.startswith(failure) for f in entry["failures"])
    assert entry["exit"] == 0 and entry["peak_rss_mb"] > 1


def test_runner_times_the_right_row(entries):
    entry = entries["right"]
    assert 0 < entry["wall_s"] < 60 and entry["argv"] == list(ARGV)
    assert 0 < entry["scaled_s"]
    # a row whose check run fails has no timed run to scale
    assert entries["wrong exit"]["scaled_s"] is None


def test_runner_scales_each_timed_run_by_the_probes_around_it(monkeypatch):
    # Probes at half the reference time scale every run to twice its wall
    # time; one probe runs before the first timed run and one after each.
    probes = []
    monkeypatch.setattr(at_cap, "run_probe", lambda scratch, timeout: probes.append(timeout) or PROBE_REF_S / 2)
    right = next(row for row in CASES if row.name == "right")
    [entry] = run_corpus((right,), C5)
    assert len(probes) == at_cap.RUNS + 1
    assert entry["scaled_s"] == pytest.approx(2 * entry["wall_s"], abs=2e-4)
