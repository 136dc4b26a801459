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
    isomorphism,
    orbit_partition,
    unit_partition,
)
from .orbital import (
    DivisorMatrix,
    OrbitProfile,
    SimilarityVerdict,
    divisor_matrix,
    entropy_of,
    orbit_divisor_matrix,
    orbit_profile,
    orbitally_similar,
    similar_divisors,
)
from .spectral import (
    PerronData,
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
