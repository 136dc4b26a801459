from orbigraph import spectral
from orbigraph.cli import EXIT_RESOURCE, main
from orbigraph.constructions import path
from orbigraph.graph_core import serialize_edge_list


def test_certificate_failure_exits_with_resource_code(tmp_path, monkeypatch, capsys):
    graph_file = tmp_path / "p5.edges"
    graph_file.write_text(serialize_edge_list(path(5)), encoding="ascii")
    solve = spectral._top_eigenpair

    def perturbed(m):
        rho, u = solve(m)
        return rho * (1 + 1e-6), u

    monkeypatch.setattr(spectral, "_top_eigenpair", perturbed)
    assert main(["analyze", "--json", str(graph_file)]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Collatz-Wielandt bracket")
