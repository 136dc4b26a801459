from orbigraph import spectral
from orbigraph.cli import EXIT_RESOURCE, main
from orbigraph.constructions import path
from orbigraph.graph_core import serialize_edge_list


def test_convergence_failure_exits_with_resource_code(tmp_path, monkeypatch, capsys):
    graph_file = tmp_path / "p5.edges"
    graph_file.write_text(serialize_edge_list(path(5)), encoding="ascii")
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 3)
    assert main(["analyze", "--json", str(graph_file)]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no convergence within 3 iterations")
