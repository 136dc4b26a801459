"""Orbit structure, orbital similarity, and self-similar sequences of graphs."""

__version__ = "0.1.0"

from .graph_core import (
    DegreeStats,
    Graph,
    GraphFormatError,
    cyclomatic_number,
    degree_stats,
    density,
    edge_vertex_ratio,
    is_connected,
    parse_edge_list,
    parse_graph6,
    serialize_edge_list,
    to_dot,
    to_graph6,
)
from .aut import (
    AutGroup,
    ColouredDigraph,
    Partition,
    automorphism_group,
    equitable_refinement,
    is_edge_transitive,
    isomorphism,
    is_vertex_transitive,
    orbit_partition,
    unit_partition,
)
from .orbital import (
    DivisorMatrix,
    OrbitProfile,
    SimilarityVerdict,
    divisor_matrix,
    entropy_of,
    omega_from_divisor,
    orbit_divisor_matrix,
    orbit_profile,
    orbitally_homothetic,
    orbitally_similar,
)
from .spectral import (
    OrbitConstancyReport,
    PerronData,
    check_orbit_constancy,
    principal_ratio,
    spectral_radius_adjacency,
    spectral_radius_divisor,
)
from .sequences import (
    SequenceReport,
    SequenceSpec,
    SequenceSpecError,
    SelfSimilarityVerdict,
    TermRecord,
    analyze_term,
    generate,
    preservation_report,
    verify_self_similar,
)

__all__ = [name for name in dir() if not name.startswith("_")]
