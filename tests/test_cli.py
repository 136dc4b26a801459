import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from datetime import datetime, timedelta
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dense, rigid_cubic, tied_star, written
from orbigraph import __version__
from orbigraph import constructions as cons
from orbigraph import spectral
from orbigraph.cli import (
    EXIT_DISCONNECTED,
    EXIT_DISSIMILAR,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_VERIFY,
    _WRITE_SIZE,
    _matrix_row,
    _write_json,
    main,
)
from orbigraph.constructions import cartesian_product, cycle, cycle_with_cliques, path, prism, torus
from orbigraph.graph_core import Graph, serialize_edge_list, to_graph6
from orbigraph.orbital import DivisorMatrix


@pytest.mark.parametrize("work", [10**9, -1], ids=["pure-python", "lapack"])
def test_certificate_failure_exits_with_resource_code(work, tmp_path, monkeypatch, capsys):
    # ENVELOPE_WORK sends the solve through the envelope kernel, then through
    # LAPACK, so the perturbed eigenvalue reaches the certificate through both.
    graph_file = tmp_path / "path.edges"
    graph_file.write_text(serialize_edge_list(path(42)), encoding="ascii")
    monkeypatch.setattr(spectral, "ENVELOPE_WORK", work)
    solve = spectral._top_eigenpair

    def perturbed(*args):
        rho, u, kernel = solve(*args)
        return rho * (1 + 1e-6), u, kernel

    monkeypatch.setattr(spectral, "_top_eigenpair", perturbed)
    assert main(["analyze", "--json", str(graph_file)]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Collatz-Wielandt bracket")


def _write(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(serialize_edge_list(graph), encoding="ascii")
    return str(path)


def test_compare_exit_codes(tmp_path, capsys):
    c4, c8 = _write(tmp_path, "c4", cycle(4)), _write(tmp_path, "c8", cycle(8))
    p5, star = _write(tmp_path, "p5", path(5)), _write(tmp_path, "star", tied_star())
    split = tmp_path / "split"
    split.write_text("4 2\n0 1\n2 3\n", encoding="ascii")
    assert main(["compare", c4, c8]) == EXIT_OK
    assert main(["compare", p5, star]) == EXIT_DISSIMILAR
    assert main(["compare", c4, str(split)]) == EXIT_DISCONNECTED
    assert main(["compare", c4, str(tmp_path / "missing")]) == EXIT_PARSE
    assert "cannot read" in capsys.readouterr().err


def _spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="ascii")
    return str(path)


def test_sequence_with_thirteen_orbits_verifies(tmp_path, capsys):
    spec = {"family": "loaded-multi-torus", "q": 1, "m": 12, "r": 1, "schedule": [3, 4, 5, 6, 7]}
    assert main(["sequence", "--json", "--count", "5", _spec(tmp_path, spec)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and [t["divisor"]["ell"] for t in report["terms"]] == [13] * 5


def test_sequence_of_complete_graphs_fails_verification(tmp_path, capsys):
    assert main(["sequence", _spec(tmp_path, {"family": "complete-graphs"})]) == EXIT_VERIFY
    assert "terms 0 and 1 not orbitally similar" in capsys.readouterr().err


def test_sequence_unknown_family_is_a_parse_error(tmp_path, capsys):
    assert main(["sequence", _spec(tmp_path, {"family": "no-such-family"})]) == EXIT_PARSE
    assert "unknown family" in capsys.readouterr().err


def test_generate_to_stdout_file_and_graph6(tmp_path, capsys):
    assert main(["generate", "cycle", "--n", "5"]) == EXIT_OK
    assert capsys.readouterr().out == serialize_edge_list(cycle(5))
    out = tmp_path / "c5.edges"
    assert main(["generate", "cycle", "--n", "5", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote cycle: order 5, size 5 -> {out}\n"
    assert out.read_text(encoding="ascii") == serialize_edge_list(cycle(5))
    assert main(["generate", "torus", "--dims", "3,4", "--format", "graph6"]) == EXIT_OK
    assert capsys.readouterr().out == to_graph6(torus((3, 4))) + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cycle", "--n", "2"], "cycle needs n >= 3"),
        (["cycle"], "cycle() missing 1 required positional argument: 'n'"),
        (["torus", "--dims", "3,x"], "bad --dims '3,x'"),
        (["torus", "--dims", "3,4", "--n", "5"], "torus() got an unexpected keyword argument 'n'"),
        (["path", "--n", "100000000", "--p", "3"], "path() got an unexpected keyword argument 'p'"),
        # the closed-form orders of these are positive and above the cap
        (["loaded-torus", "--dims", "3,3", "--q", "-100", "--m", "-100"], "got q=-100, m=-100"),
        (["cycle-with-cliques", "--n", "3", "--p", "0", "--q", "-100000"], "got p=0, q=-100000"),
    ],
)
def test_generate_parameter_errors(argv, message, capsys):
    assert main(["generate", *argv]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize(
    "argv, order",
    [
        (["path", "--n", "100000000"], 100000000),
        (["torus", "--dims", "1000,1000,1000"], 10**9),
        (["loaded-torus", "--dims", "20,20", "--q", "2", "--m", "3"], 2800),
        (["cycle-with-cliques", "--n", "401", "--p", "3", "--q", "2"], 2005),
    ],
)
def test_generate_refuses_an_over_cap_member_before_building(argv, order, tmp_path, monkeypatch, capsys):
    def build(*args, **kwargs):
        raise AssertionError("an over-cap member was built")

    monkeypatch.setattr(cons, "family", build)
    out = tmp_path / "g.edges"
    assert main(["generate", *argv, "--out", str(out)]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == "" and f"member has {order} vertices, above the supported cap 2000" in captured.err
    assert not out.exists()


def test_generate_at_the_cap_builds(tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert main(["generate", "loaded-torus", "--dims", "20,20", "--q", "2", "--m", "2", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote loaded-torus: order 2000, size 2400 -> {out}\n"


def test_demo_table1_matches_its_references(capsys):
    assert main(["demo", "table1"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 8
    for row in rows:
        computed, reference = row.split()[-2:]
        assert computed == reference


def test_unknown_demo_is_a_parse_error(capsys):
    assert main(["demo", "nope"]) == EXIT_PARSE
    assert "unknown demo 'nope'" in capsys.readouterr().err


def test_analyze_error_exits(tmp_path, capsys):
    malformed = tmp_path / "bad.edges"
    malformed.write_text("3 2\n0 1\n", encoding="ascii")
    split = tmp_path / "split.edges"
    split.write_text("4 2\n0 1\n2 3\n", encoding="ascii")
    assert main(["analyze", str(malformed)]) == EXIT_PARSE
    assert main(["analyze", str(split)]) == EXIT_DISCONNECTED
    assert main(["analyze", _write(tmp_path, "p2001", path(2001))]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "disconnected" in captured.err and "above the supported cap 2000" in captured.err


def test_group_order_past_the_int_string_limit(tmp_path, capsys):
    # |Aut(star(1999))| = 1999! has 5,733 digits; str() of an int refuses more
    # than 4,300 by default, and the text of a Decimal has no such limit.
    expected = str(Decimal(math.factorial(1999)))
    graph = _write(tmp_path, "star", cons.star(1999))
    assert main(["analyze", "--json", graph]) == EXIT_OK
    assert f'\n  "group_order": {expected},\n' in capsys.readouterr().out
    assert main(["analyze", graph]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert f"group order        {expected}" in rows


def test_compare_above_the_cap_is_a_resource_error(tmp_path, capsys):
    small, large = _write(tmp_path, "p5", path(5)), _write(tmp_path, "p2001", path(2001))
    for a, b in ((large, small), (small, large)):
        assert main(["compare", a, b]) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "graph has 2001 vertices, above the supported cap 2000" in captured.err


@pytest.mark.parametrize("header", ["2001 0", "3000 0"])
def test_vertex_cap_is_checked_before_connectivity(header, tmp_path, capsys):
    # An edgeless graph above the cap is also disconnected; the cap decides
    # first, before any adjacency list is built.
    big = tmp_path / "big.edges"
    big.write_text(header + "\n", encoding="ascii")
    small = _write(tmp_path, "p5", path(5))
    n = header.split()[0]
    for argv in (["analyze", str(big)], ["compare", str(big), small], ["compare", small, str(big)]):
        assert main(argv) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: graph has {n} vertices, above the supported cap 2000" in captured.err
        assert "disconnected" not in captured.err


def test_vertex_cap_is_checked_on_the_header_before_any_row_is_built(tmp_path, capsys):
    # Building and checking rows for a million vertices takes over 100 MB.
    big = tmp_path / "big.edges"
    big.write_text("1000000 0\n", encoding="ascii")
    small = _write(tmp_path, "p5", path(5))
    for argv in (["analyze", str(big)], ["compare", str(big), small], ["compare", small, str(big)]):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_RESOURCE
        assert peak < 5 * 2**20, peak
        assert "graph has 1000000 vertices, above the supported cap 2000" in capsys.readouterr().err


def test_graph6_vertex_cap_is_checked_on_the_header(tmp_path, capsys):
    # The body of a 2001-vertex graph6 is missing; the header alone decides.
    big = tmp_path / "big.g6"
    big.write_text(to_graph6(path(2001))[:4] + "\n", encoding="ascii")
    assert main(["analyze", "--format", "graph6", str(big)]) == EXIT_RESOURCE
    assert "graph has 2001 vertices, above the supported cap 2000" in capsys.readouterr().err


def test_sequence_term_above_the_cap_is_a_resource_error(tmp_path, capsys):
    spec = _spec(tmp_path, {"family": "cycles", "start": 2001})
    assert main(["sequence", "--count", "2", spec]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: term 0 has 2001 vertices, above the supported cap 2000" in captured.err


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "generalized-sun", "p": 3, "q": 2, "start": 20},
        {"family": "loaded-multi-torus", "q": 2, "m": 3, "r": 2,
         "schedule": [[3, 4], [4, 4], [4, 5], [5, 5], [5, 6]]},
        {"family": "corona-family", "p": 3, "q": 2, "base": {"family": "cycles", "start": 12}},
        {"family": "cycles", "start": 1996},
    ],
    ids=["generalized-sun", "loaded-multi-torus-m3", "corona-family", "cycles-to-the-cap"],
)
def test_sequences_below_the_cap_verify(spec, tmp_path, capsys):
    # The benchmark's sequence specs (test_sequence_with_thirteen_orbits_verifies
    # has its m=12 one), and cycles whose last term sits at the cap.
    assert main(["sequence", "--count", "5", _spec(tmp_path, spec)]) == EXIT_OK
    assert "self-similar: True" in capsys.readouterr().out


def _child_env() -> dict:
    """The environment of a child Python that imports these sources."""
    src = str(Path(spectral.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, "-c", code, *args]
    return subprocess.run(argv, env=_child_env(), capture_output=True, text=True, timeout=120)


_CHILD = """
import sys
from orbigraph import cli
try:
    cli.main(["--version"])
except SystemExit as exc:
    assert exc.code == 0
codes = [cli.main(argv.split("|")) for argv in sys.argv[1:]]
print(codes, "numpy" in sys.modules)
"""


_START_UP = """
import sys
before = set(sys.modules)
from orbigraph import cli
try:
    cli.main(["--version"])
except SystemExit as exc:
    assert exc.code == 0
codes = [cli.main(argv.split("|")) for argv in sys.argv[1:]]
unused = {"argparse", "gettext", "json", "textwrap", "dataclasses", "inspect", "datetime", "numpy"}
print(codes, sorted(unused & (set(sys.modules) - before)))
"""


def test_version_analyze_and_compare_import_no_argparse_gettext_json_textwrap_dataclasses_inspect_datetime_or_numpy(
    tmp_path,
):
    c6, c12 = _write(tmp_path, "c6", cycle(6)), _write(tmp_path, "c12", cycle(12))
    child = _run_child(_START_UP, f"analyze|--json|{c6}", f"compare|--json|{c6}|{c12}")
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "[0, 0] []"


def _meta_runs(tmp_path):
    c4, c8 = _write(tmp_path, "c4", cycle(4)), _write(tmp_path, "c8", cycle(8))
    spec = _spec(tmp_path, {"family": "cycles", "start": 4})
    return [["analyze", "--json", c4], ["compare", "--json", c4, c8], ["sequence", "--json", "--count", "3", spec]]


def test_meta_names_the_tool_and_a_utc_time(tmp_path, capsys):
    for argv in _meta_runs(tmp_path):
        assert main([*argv, "--meta"]) == EXIT_OK
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert meta["tool"] == f"orbigraph {__version__}"
        assert datetime.fromisoformat(meta["generated_at"]).utcoffset() == timedelta(0)


def test_without_meta_there_is_no_meta_key(tmp_path, capsys):
    for argv in _meta_runs(tmp_path):
        assert main(argv) == EXIT_OK
        assert "meta" not in json.loads(capsys.readouterr().out)


def test_cli_on_small_quotients_imports_no_numpy(tmp_path):
    c4, c8 = _write(tmp_path, "c4", cycle(4)), _write(tmp_path, "c8", cycle(8))
    sun = _write(tmp_path, "sun", cycle_with_cliques(10, 3, 2))
    out = str(tmp_path / "t.edges")
    argvs = [f"compare|{c4}|{c8}", f"analyze|--json|{sun}", f"generate|torus|--dims|3,4|--out|{out}", "demo|table1"]
    child = _run_child(_CHILD, *argvs)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"


def test_cli_on_path_like_graphs_imports_no_numpy(tmp_path):
    # The benchmark's slow-mixing graphs and a path at the vertex cap:
    # quotients of 75 to 1000 cells, all solved by the envelope kernel.
    graphs = [path(300), path(400), prism(path(150)), cartesian_product(path(5), path(80)), path(2000)]
    files = [_write(tmp_path, f"g{i}", graph) for i, graph in enumerate(graphs)]
    child = _run_child(_CHILD, *(f"analyze|--json|{f}" for f in files))
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] False"


def test_cli_above_the_envelope_threshold_imports_numpy(tmp_path):
    # A rigid cubic graph on 150 vertices with one edge subdivided: one orbit
    # per vertex, row sums 2 and 3, and envelope work 100,424, above
    # ENVELOPE_WORK, so LAPACK solves it.
    cubic = rigid_cubic(5, 150)
    u, v = min(cubic.edges)
    subdivided = Graph.from_edges(151, [*(cubic.edges - {(u, v)}), (u, 150), (v, 150)])
    graph = _write(tmp_path, "subdivided", subdivided)
    child = _run_child(_CHILD, f"analyze|--json|{graph}")
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "[0] True"


def test_cli_on_regular_graphs_imports_no_numpy(tmp_path):
    # Rigid cubic graphs have one orbit per vertex and envelope work far
    # above ENVELOPE_WORK, but every row sum of their divisor matrix is 3.
    graphs = [rigid_cubic(5, 150), rigid_cubic(6, 300), rigid_cubic(7, 500)]
    files = [_write(tmp_path, f"cubic{i}", graph) for i, graph in enumerate(graphs)]
    child = _run_child(_CHILD, *(f"analyze|--json|{f}" for f in files))
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "[0, 0, 0] False"


def test_sequence_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{family: cycles", encoding="ascii")
    assert main(["sequence", str(bad)]) == EXIT_PARSE
    assert main(["sequence", "--count", "1", _spec(tmp_path, {"family": "cycles"})]) == EXIT_PARSE
    assert "count must be >= 2" in capsys.readouterr().err


def test_over_long_integer_in_a_spec_names_the_file(tmp_path, capsys):
    # json.loads refuses an integer of more than 4300 digits with a ValueError.
    spec = tmp_path / "long.json"
    spec.write_text('{"family": "cycles", "start": ' + "9" * 5000 + "}", encoding="ascii")
    assert main(["sequence", str(spec)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {spec}: ")


def test_over_nested_sequence_spec_is_a_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    level = '{"family": "corona-family", "p": 3, "q": 2, "base": '
    deep.write_text(level * 1200 + '{"family": "cycles"}' + "}" * 1200, encoding="ascii")
    brackets = tmp_path / "brackets.json"
    brackets.write_text("[" * 100000, encoding="ascii")
    for spec in (deep, brackets):
        assert main(["sequence", str(spec)]) == EXIT_PARSE
        assert "spec nested too deeply" in capsys.readouterr().err


def test_complete_graphs_start_below_three_is_a_parse_error(tmp_path, capsys):
    assert main(["sequence", _spec(tmp_path, {"family": "complete-graphs", "start": 1})]) == EXIT_PARSE
    assert "start must be an integer >= 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "cycles", "base": 5},
        {"family": "torus-schedule", "schedule": [3.5]},
        {"family": "derived", "base": {"family": "cycles"}, "op": ["x"]},
        {"family": ["cycles"]},
        5,
        {"family": "cycles", "strat": 9},
        {"family": "cycles", "base": {"family": "cycles"}},
        {"family": "loaded-multi-torus", "q": 1, "m": 1, "r": True, "schedule": [3, 4]},
    ],
    ids=["base-not-a-spec", "float-schedule", "list-op", "list-family", "not-an-object", "unknown-key",
         "stray-base", "boolean-int"],
)
def test_malformed_sequence_spec_is_a_parse_error(spec, tmp_path, capsys):
    assert main(["sequence", "--count", "2", _spec(tmp_path, spec)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"family": "cycles", "start": 300000}, "term 0 has 300000 vertices"),
        ({"family": "generalized-sun", "p": 3, "q": 1000}, "term 0 has 6003 vertices"),
        ({"family": "corona-family", "p": 10**9, "q": 10**9, "base": {"family": "cycles"}},
         f"term 0 has {3 * (1 + 10**18)} vertices"),
        ({"family": "iterated-prism", "r": 60, "base": {"family": "cycles"}}, f"term 0 has {3 * 2**60} vertices"),
        ({"family": "loaded-multi-torus", "q": 1000, "m": 1000, "r": 1, "schedule": [3, 4]},
         "term 0 has 3000003 vertices"),
        ({"family": "subsequence", "indices": [0, 5000], "base": {"family": "moebius-ladders"}},
         "term 1 has 10006 vertices"),
    ],
    ids=["cycles", "generalized-sun", "corona-family", "iterated-prism", "loaded-multi-torus", "subsequence"],
)
def test_sequence_cap_is_checked_before_any_term_is_built(spec, message, tmp_path, monkeypatch, capsys):
    # Every construction builds its graph through Graph.from_edges.
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(Graph, "from_edges", refuse)
    assert main(["sequence", "--count", "2", _spec(tmp_path, spec)]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}, above the supported cap 2000\n"


_OPTIONS = {
    "analyze": ("--format", "--json", "--dot", "--meta"),
    "compare": ("--format", "--json", "--meta"),
    "generate": ("--n", "--p", "--q", "--m", "--dims", "--out", "--format"),
    "sequence": ("--count", "--json", "--meta"),
    "demo": (),
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *_OPTIONS])
def test_help_exits_zero_and_names_the_commands_or_the_options(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag] if command is None else [command, flag])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: orbigraph")
    for word in _OPTIONS if command is None else ("-h, --help", *_OPTIONS[command]):
        assert word in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        [],
        ["--bogus", "analyze", "g.edges"],
        ["analyze"],
        ["compare", "a.edges"],
        ["analyze", "a.edges", "b.edges"],
        ["demo", "table1", "extra"],
        ["analyze", "--bogus", "g.edges"],
        ["analyze", "g.edges", "--dot"],
        ["sequence", "spec.json", "--count"],
        ["analyze", "--dot", "--json", "g.edges"],
        ["analyze", "--json=yes", "g.edges"],
        ["analyze", "--format", "dot", "g.edges"],
        ["analyze", "--format=graph7", "g.edges"],
        ["compare", "--format", "Graph6", "a.edges", "b.edges"],
        ["generate", "cycle", "--format", "json"],
        ["sequence", "--count", "x", "spec.json"],
        ["sequence", "--count=2.5", "spec.json"],
        ["generate", "cycle", "--n", "five"],
        ["generate", "no-such-family", "--n", "5"],
    ],
    ids=["unknown-command", "no-command", "unknown-top-option", "missing-positional", "missing-second-positional",
         "extra-positional", "extra-demo-positional", "unknown-option", "dot-without-value", "count-without-value",
         "dot-followed-by-an-option", "flag-with-a-value", "bad-format", "bad-format-equals", "format-case", "generate-bad-format", "count-not-int",
         "count-float", "n-not-int", "unknown-family"],
)
def test_usage_errors_exit_two_with_usage_and_an_error_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: orbigraph")
    assert any(line.startswith("orbigraph") and ": error: " in line for line in captured.err.splitlines())


def test_options_go_anywhere_after_the_command_in_both_forms(tmp_path, capsys):
    c6 = _write(tmp_path, "c6", cycle(6))
    assert main(["analyze", "--json", c6]) == EXIT_OK
    expected = capsys.readouterr().out
    for argv in (["analyze", c6, "--json"], ["analyze", "--format=edgelist", c6, "--json"],
                 ["analyze", "--format", "edgelist", "--json", "--", c6]):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == expected
    spec = _spec(tmp_path, {"family": "cycles", "start": 4})
    assert main(["sequence", spec, "--json", "--count=5"]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["terms"]) == 5


def test_main_without_argv_reads_sys_argv(tmp_path, monkeypatch, capsys):
    # The console script calls main() with no arguments.
    monkeypatch.setattr(sys, "argv", ["orbigraph", "generate", "cycle", "--n", "5"])
    assert main() == EXIT_OK
    assert capsys.readouterr().out == serialize_edge_list(cycle(5))
    monkeypatch.setattr(sys, "argv", ["orbigraph", "--version"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0 and capsys.readouterr().out == f"orbigraph {__version__}\n"


def test_sequence_help_lists_every_family(capsys):
    with pytest.raises(SystemExit):
        main(["sequence", "--help"])
    lines = capsys.readouterr().out.splitlines()
    families = ("cycles", "circular-ladders", "moebius-ladders", "crossed-prisms", "antiprisms", "complete-graphs",
                "torus-fixed", "torus-schedule", "loaded-multi-torus", "generalized-sun", "corona-family",
                "iterated-prism", "derived", "subsequence")
    listed = {line.split()[0] for line in lines if line.startswith("  ") and not line.startswith("   ")}
    assert set(families) <= listed


def test_unwritable_output_path_is_a_parse_error(tmp_path, capsys):
    p5 = _write(tmp_path, "p5", path(5))
    missing = tmp_path / "no" / "such" / "x.out"
    for argv, target in (
        (["analyze", "--dot", str(missing), p5], missing),
        (["analyze", "--dot", str(tmp_path), p5], tmp_path),
        (["generate", "path", "--n", "4", "--out", str(missing)], missing),
    ):
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot write {target}: ")


def test_closed_stdout_is_an_error_line_and_exit_two(tmp_path):
    # path(1500)'s JSON is megabytes, far more than a pipe holds, so the
    # child is still writing when the reader closes its end.
    argv = [sys.executable, "-m", "orbigraph.cli", "analyze", "--json", _write(tmp_path, "p1500", path(1500))]
    with subprocess.Popen(argv, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.read(10) == b'{\n  "order'
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=120) == EXIT_PARSE
    assert "Traceback" not in err
    assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1


def test_non_ascii_input_names_its_file(tmp_path, capsys):
    edges, graph6, spec = tmp_path / "bad.edges", tmp_path / "bad.g6", tmp_path / "spec.json"
    edges.write_bytes(b"2\xff1\n0 1\n")
    graph6.write_bytes(b"D\xff{\n")
    spec.write_bytes(b'{\xff"family": "cycles"}')
    good = _write(tmp_path, "p2", path(2))
    for argv, bad in (
        (["analyze", str(edges)], edges),
        (["analyze", "--format", "graph6", str(graph6)], graph6),
        (["compare", good, str(edges)], edges),
        (["sequence", str(spec)], spec),
    ):
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {bad}: not ASCII text (byte 0xff at offset 1)\n"


# DEL is outside ' '..'~', so json.dumps escapes it; st.text() makes no lone surrogates.
_KEYS = st.text() | st.sampled_from(
    ['"', "\\", "\n\t", "\x00", "\x1f", "\x7f", "\u00e9t\u00e9", "\u2028", "\ud800", "\U0001f600"]
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**80)
    | st.floats()
    | st.sampled_from([-0.0, 1e300, math.nan, math.inf, -math.inf])
    | _KEYS
)
_INTS = st.lists(st.integers(), min_size=1, max_size=6) | st.lists(st.integers() | st.booleans(), max_size=6)
# Long runs of 0 holding the odd other item, as in a flat divisor matrix;
# a bool or a float among them must leave the all-int path.
_ODD = st.sampled_from([1, -7, 10**30, True, False, 0.0]) | st.integers()
_ZERO_HEAVY = st.builds(
    lambda runs, tail: [y for run, x in runs for y in [0] * run + [x]] + [0] * tail,
    st.lists(st.tuples(st.integers(0, 40), _ODD), max_size=4),
    st.integers(0, 40),
)
# Random sparse divisor matrices: the writer expands each into its dense dict.
_MATRICES = st.integers(0, 12).flatmap(
    lambda ell: st.builds(
        DivisorMatrix,
        st.just(ell),
        st.lists(
            st.dictionaries(st.integers(0, max(ell - 1, 0)), st.integers(1, 10**6), max_size=ell).map(
                lambda row: tuple(sorted(row.items()))
            ),
            min_size=ell,
            max_size=ell,
        ).map(tuple),
        st.lists(st.integers(1, 2000), min_size=ell, max_size=ell).map(tuple),
    )
)
_JSON = st.recursive(
    _SCALARS | _INTS | _ZERO_HEAVY | _MATRICES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=20,
)


def _dense_form(value):
    """value with every divisor matrix replaced by its dense dict."""
    if isinstance(value, DivisorMatrix):
        return {"ell": value.ell, "entries": [x for row in dense(value) for x in row], "sizes": list(value.sizes)}
    if isinstance(value, dict):
        return {key: _dense_form(x) for key, x in value.items()}
    if isinstance(value, (list, tuple)):
        return [_dense_form(x) for x in value]
    return value


@given(_JSON)
def test_dumps_is_json_dumps_with_indent_two(value):
    assert written(value) == json.dumps(_dense_form(value), indent=2) + "\n"


@given(_ZERO_HEAVY | _MATRICES)
def test_dumps_of_zero_heavy_int_lists(value):
    dense_value = _dense_form(value)
    assert written(value) == json.dumps(dense_value, indent=2) + "\n"
    assert written({"divisor": {"entries": value}}) == json.dumps({"divisor": {"entries": dense_value}}, indent=2) + "\n"


def test_rigid_cubic_reports_are_json_dumps_with_indent_two(tmp_path, capsys):
    # 150 orbit cells: the analyze report's divisor matrix and the compare
    # report's common matrix are written row by row from their sparse rows.
    cubic = rigid_cubic(5, 150)
    image = list(range(150))
    random.Random(5).shuffle(image)
    relabelled = Graph.from_edges(150, [(image[u], image[v]) for u, v in cubic.edges])
    a, b = _write(tmp_path, "a", cubic), _write(tmp_path, "b", relabelled)
    for argv in (["analyze", "--json", a], ["compare", "--json", a, b]):
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        report = json.loads(out)
        matrix = report["divisor"] if argv[0] == "analyze" else report["common_matrix"]
        assert matrix["ell"] == 150 and len(matrix["entries"]) == 150**2 and sum(matrix["entries"]) == 450


def test_writes_are_whole_rows_of_at_least_the_write_size():
    # The divisor matrix of C_300 on its discrete partition: 90,000 entries,
    # about 900 kB of JSON, in writes of at least _WRITE_SIZE but the last.
    ell = 300
    rows = tuple(tuple(sorted({(i - 1) % ell: 1, (i + 1) % ell: 1}.items())) for i in range(ell))
    dm = DivisorMatrix(ell, rows, (1,) * ell)
    writes = []
    _write_json({"divisor": dm}, writes.append)
    text = "".join(writes)
    assert text == json.dumps({"divisor": _dense_form(dm)}, indent=2) + "\n"
    assert len(writes) <= len(text) // _WRITE_SIZE + 1
    assert all(len(w) >= _WRITE_SIZE for w in writes[:-1])
    # Entry e sits on line e + 4, so a write that ends a row ends right
    # after entry e with e + 1 a multiple of ell.
    end = 0
    for w in writes[:-1]:
        end += len(w)
        assert text[end] in ",\n" and (text.count("\n", 0, end) - 4 + 1) % ell == 0


@given(st.lists(st.sampled_from([0, 0, 0, 0, 1, 7, 999, 1000, 123456]), min_size=1, max_size=40))
def test_table_row_is_the_dense_formatting(entries):
    row = tuple((j, x) for j, x in enumerate(entries) if x)
    assert _matrix_row(row, len(entries)) == "  [" + " ".join(f"{x:>3}" for x in entries) + "]"
