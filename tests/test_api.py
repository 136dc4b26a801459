import importlib
from pathlib import Path
from types import ModuleType

import pytest

from helpers import run_child
import orbigraph


def test_public_names_are_pinned():
    # A name added to or removed from the package's API must be added to or
    # removed from this list too.
    assert orbigraph.__all__ == [
        "AutGroup",
        "DegreeStats",
        "DivisorMatrix",
        "Graph",
        "GraphFormatError",
        "OrbitProfile",
        "Partition",
        "PerronData",
        "Ratio",
        "SelfSimilarityVerdict",
        "SequenceReport",
        "SequenceSpec",
        "SequenceSpecError",
        "SimilarityVerdict",
        "TermRecord",
        "analyze_term",
        "aut",
        "automorphism_group",
        "constructions",
        "cyclomatic_number",
        "degree_stats",
        "density",
        "divisor_matrix",
        "edge_vertex_ratio",
        "entropy_of",
        "equitable_refinement",
        "generate",
        "graph_core",
        "is_connected",
        "isomorphism",
        "orbit_divisor_matrix",
        "orbit_partition",
        "orbit_profile",
        "orbital",
        "orbitally_similar",
        "parse_edge_list",
        "parse_graph6",
        "preservation_report",
        "sequences",
        "serialize_edge_list",
        "similar_divisors",
        "spectral",
        "spectral_radius_adjacency",
        "spectral_radius_divisor",
        "to_dot",
        "to_graph6",
        "unit_partition",
        "verify_self_similar",
    ]


def test_import_loads_no_submodule():
    code = "import sys, orbigraph; print(*sorted(m for m in sys.modules if m.startswith('orbigraph')))"
    child = run_child(code, flags=("-S",))
    assert child.returncode == 0, child.stderr
    assert child.stdout == "orbigraph\n"


def test_every_public_name_is_the_object_its_module_defines():
    assert orbigraph.Graph is orbigraph.graph_core.Graph
    assert orbigraph.generate is orbigraph.sequences.generate
    for name in orbigraph.__all__:
        value = getattr(orbigraph, name)
        if isinstance(value, ModuleType):
            assert value is importlib.import_module(f"orbigraph.{name}")
        else:
            assert value.__module__.startswith("orbigraph.")
            assert getattr(importlib.import_module(value.__module__), name) is value


def test_dir_and_star_import_hold_every_public_name():
    assert set(orbigraph.__all__) <= set(dir(orbigraph))
    namespace: dict = {}
    exec("from orbigraph import *", namespace)
    assert {name: namespace[name] for name in orbigraph.__all__} == {
        name: getattr(orbigraph, name) for name in orbigraph.__all__
    }


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        orbigraph.no_such_name
    with pytest.raises(ImportError):
        from orbigraph import no_such_name  # noqa: F401


def test_the_benchmark_scripts_import_every_orbigraph_name_they_use(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    for name in ("bench_trace", "bench_workloads"):
        importlib.import_module(name)
