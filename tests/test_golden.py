"""Byte-exact CLI output on small inputs, pinned in tests/golden/.

A failure here means a report changed shape or value; if the change is
intended, rewrite the expected file from the new output and review the diff.
"""

import json
from pathlib import Path

import pytest

from helpers import pendant_trees, relabelled, rigid_cubic, spider, tied_star
from orbigraph.cli import EXIT_DISSIMILAR, EXIT_OK, EXIT_PARSE, main
from orbigraph.constructions import complete, cycle, path
from orbigraph.graph_core import serialize_edge_list

GOLDEN = Path(__file__).parent / "golden"

# A spider whose orbits have three distinct relative sizes (1/12, 2/12 and
# 3/12), and a relabelling of it.
SPIDER = spider((1, 1, 2, 2, 2, 3))
SPIDER_IMAGE = (7, 2, 10, 0, 5, 11, 3, 9, 1, 6, 4, 8)

GRAPHS = {
    "p5": path(5),
    "k1": complete(1),
    "c4": cycle(4),
    "c8": cycle(8),
    "tied_star": tied_star(),
    # rigid: one orbit per vertex, so a report with ell = n cells
    "rigid20": rigid_cubic(5, 20),
    "spider": SPIDER,
    "spider_relabelled": SPIDER.relabel(SPIDER_IMAGE),
    # compare decides a pair of rigid graphs from their searches' single leaves
    "rigid20_relabelled": relabelled(rigid_cubic(5, 20), 20),
    "rigid20_seed6": rigid_cubic(6, 20),
    # rigid, but its pendant trees fold, so compare searches the pair
    "pendant_trees": pendant_trees(),
    "pendant_trees_relabelled": relabelled(pendant_trees(), 27),
}

# expected file -> (argv with graph names for input files, exit code)
CASES = {
    "analyze_p5.json": (["analyze", "--json", "p5"], EXIT_OK),
    "analyze_k1.json": (["analyze", "--json", "k1"], EXIT_OK),
    "analyze_p5.txt": (["analyze", "p5"], EXIT_OK),
    "analyze_rigid20.json": (["analyze", "--json", "rigid20"], EXIT_OK),
    "compare_c4_c8.json": (["compare", "--json", "c4", "c8"], EXIT_OK),
    "compare_spider_relabelled.json": (["compare", "--json", "spider", "spider_relabelled"], EXIT_OK),
    "compare_p5_tied_star.json": (["compare", "--json", "p5", "tied_star"], EXIT_DISSIMILAR),
    "compare_rigid20_relabelled.json": (["compare", "--json", "rigid20", "rigid20_relabelled"], EXIT_OK),
    "compare_rigid20_seed6.json": (["compare", "--json", "rigid20", "rigid20_seed6"], EXIT_DISSIMILAR),
    "compare_pendant_trees_relabelled.json": (["compare", "--json", "pendant_trees", "pendant_trees_relabelled"], EXIT_OK),
    "sequence_cycles_3.json": (["sequence", "--json", "--count", "3", "cycles.json"], EXIT_OK),
}


def _inputs(tmp_path: Path) -> dict[str, str]:
    files = {}
    for name, graph in GRAPHS.items():
        files[name] = str(tmp_path / f"{name}.edges")
        Path(files[name]).write_text(serialize_edge_list(graph), encoding="ascii")
    files["cycles.json"] = str(tmp_path / "cycles.json")
    Path(files["cycles.json"]).write_text(json.dumps({"family": "cycles"}), encoding="ascii")
    return files


@pytest.mark.parametrize("expected", sorted(CASES))
def test_stdout_matches_golden(expected, tmp_path, capsys):
    argv, code = CASES[expected]
    files = _inputs(tmp_path)
    assert main([files.get(a, a) for a in argv]) == code
    assert capsys.readouterr().out == (GOLDEN / expected).read_text(encoding="ascii")


def test_dot_file_matches_golden(tmp_path, capsys):
    files = _inputs(tmp_path)
    dot = tmp_path / "p5.dot"
    assert main(["analyze", "--dot", str(dot), files["p5"]]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "analyze_p5.txt").read_text(encoding="ascii")
    assert dot.read_text(encoding="ascii") == (GOLDEN / "analyze_p5.dot").read_text(encoding="ascii")


# expected file -> argv of a help request, which prints to stdout and exits 0
HELP = {
    "help.txt": ["--help"],
    "help_analyze.txt": ["analyze", "--help"],
    "help_generate.txt": ["generate", "--help"],
    # its epilog is describe_families()
    "help_sequence.txt": ["sequence", "--help"],
}


@pytest.mark.parametrize("expected", sorted(HELP))
def test_help_matches_golden(expected, capsys):
    with pytest.raises(SystemExit) as exc:
        main(HELP[expected])
    assert exc.value.code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / expected).read_text(encoding="ascii")


def test_usage_error_matches_golden(capsys):
    # The family choices in the error line come from constructions.family_names().
    with pytest.raises(SystemExit) as exc:
        main(["generate", "nosuch"])
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (GOLDEN / "usage_generate_nosuch.txt").read_text(encoding="ascii")
