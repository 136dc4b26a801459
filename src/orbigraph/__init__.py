"""Orbit structure, orbital similarity, and self-similar sequences of graphs.

Names load on first use (PEP 562): `import orbigraph` loads no submodule,
and `orbigraph.Graph` or `from orbigraph import Graph` loads graph_core then.
So a CLI run loads only the modules its command calls.
"""

__version__ = "0.1.0"

# Each submodule with the public names it defines.
_EXPORTS = {
    "graph_core": (
        "DegreeStats", "Graph", "GraphFormatError", "Ratio", "cyclomatic_number", "degree_stats", "density",
        "edge_vertex_ratio", "is_connected", "parse_edge_list", "parse_graph6", "serialize_edge_list", "to_dot",
        "to_graph6",
    ),
    "aut": (
        "AutGroup", "Partition", "automorphism_group", "equitable_refinement", "isomorphism", "orbit_partition",
        "unit_partition",
    ),
    "orbital": (
        "DivisorMatrix", "OrbitProfile", "SimilarityVerdict", "divisor_matrix", "entropy_of", "orbit_divisor_matrix",
        "orbit_profile", "orbitally_similar", "similar_divisors",
    ),
    "spectral": ("PerronData", "TermRecord", "analyze_term", "spectral_radius_adjacency", "spectral_radius_divisor"),
    "sequences": (
        "SequenceReport", "SequenceSpec", "SequenceSpecError", "SelfSimilarityVerdict", "generate",
        "preservation_report", "verify_self_similar",
    ),
    "constructions": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name: str):
    """A public name, imported from its submodule on first access and kept."""
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's path, which -X importtime reports (importlib's
    # is not); it binds the submodule here.
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
