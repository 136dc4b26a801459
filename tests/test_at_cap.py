"""The at-cap corpus's table is well formed, keeps the bounds of the CI
steps it replaced, and its runner fails a row on each kind of wrong answer."""

import pytest

import at_cap
from at_cap import INPUTS, ROWS, Input, Row, run_corpus
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
    # the IR search keeps one partition per search: a partition per
    # level read 49 MB on crossed_prism(1000) and 24-25 MB on CFI
    ("analyze crossed_prism(1000)", 60, 30),
    ("compare crossed_prism(1000) relabelled", 60, 30),
    ("analyze CFI(cubic(11, 200))", 20, 22),
    ("compare CFI(cubic(11, 200)) relabelled", 60, 22),
    # graph6 decoded with a list item per bit read 93 MB on K2000, and its
    # edge list ending in a loop, parsed twice, 309 MB
    ("analyze K2000, graph6", 60, 100),
    ("analyze Paley(1997), graph6", 30, 100),
    ("compare Paley(1997) relabelled", 60, 100),
    ("analyze K2000 edge list ending in a loop", 10, 100),
    ("analyze K2000 graph6 ending in a byte outside ?..~", 10, 100),
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
RIGHT = Row("right", ARGV, 60, rss_mb=1000, order=10, orbits=1, rho=2.0)
CASES = {
    RIGHT: None,
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


def _later_runs(monkeypatch, change) -> list[tuple[str, ...]]:
    """Pass every run but a row's first through change; returns the argv of
    each run as it is made."""
    launch, argvs = at_cap._launch, []

    def launched(argv, workdir, limit):
        argvs.append(argv)
        run = launch(argv, workdir, limit)
        return run if len(argvs) == 1 else change(run)

    monkeypatch.setattr(at_cap, "_launch", launched)
    return argvs


def test_runner_times_the_right_row(monkeypatch):
    argvs = _later_runs(monkeypatch, lambda run: run)
    [entry] = run_corpus((RIGHT,), C5)
    assert entry["failures"] == [] and 0 < entry["wall_s"] < 60 and entry["argv"] == list(ARGV)
    # one kind of run: every run of the row is under -X importtime
    assert len(argvs) == at_cap.RUNS and all(argv[:2] == ("-X", "importtime") for argv in argvs)


@pytest.mark.parametrize(
    "change, failure",
    [
        (lambda run: run._replace(stdout=run.stdout + b"\n"), "stdout differs from the first run's"),
        (lambda run: run._replace(stderr=run.stderr + "import time:       100 |        100 | numpy\n"), "numpy imported"),
        (lambda run: run._replace(wall_s=100.0), "a run took 100.00 s, above 60 s"),
    ],
    ids=["stdout", "numpy", "time bound"],
)
def test_a_row_fails_and_stops_at_a_later_run_that_differs(monkeypatch, change, failure):
    argvs = _later_runs(monkeypatch, change)
    [entry] = run_corpus((RIGHT,), C5)
    assert entry["failures"] == [failure] and len(argvs) == 2
