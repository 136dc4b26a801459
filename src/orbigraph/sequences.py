"""Declarative self-similar sequence generation and verification.

A sequence spec names a family and its parameters; generation yields
connected graphs of strictly increasing order which are then certified
pairwise orbitally similar.  Orbital similarity is an equivalence relation,
so comparing every term with the first decides every pair.  The
preservation report checks every invariant that orbital similarity is
supposed to carry along a sequence: entropy, spectral radius by both
computation routes, degree extremes, average and variance, principal ratio,
edge-vertex ratio, the strict decay of the density index, and the
cyclomatic trichotomy.

analyze_term is the one per-graph analysis: every sequence term carries
its record, and the CLI's analyze command reports the same record for one
graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from . import constructions as cons
from .aut import ColouredDigraph, automorphism_group, isomorphism
from .graph_core import Graph, cyclomatic_number, degree_stats, density, edge_vertex_ratio, frac_str, is_connected
from .orbital import DivisorMatrix, orbit_profile, orbitally_similar
from .spectral import spectral_radius_adjacency, spectral_radius_divisor

FLOAT_TOL = 1e-9

_DERIVED_OPS: dict[str, Callable[[Graph], Graph]] = {
    "prism": cons.prism,
    "strong-prism": cons.strong_prism,
    "minimal-corona": cons.minimal_corona,
}


class SequenceSpecError(ValueError):
    """Invalid sequence specification."""


@dataclass(frozen=True)
class SequenceSpec:
    """A named self-similar family with parameters, possibly built on a base spec."""

    family: str
    params: dict = field(default_factory=dict)
    base: "SequenceSpec | None" = None

    @classmethod
    def from_dict(cls, data: Mapping) -> "SequenceSpec":
        if "family" not in data:
            raise SequenceSpecError("spec needs a 'family' tag")
        family = data["family"]
        if family not in _FAMILY_GENERATORS:
            known = ", ".join(sorted(_FAMILY_GENERATORS))
            raise SequenceSpecError(f"unknown family {family!r}; known: {known}")
        params = {k: v for k, v in data.items() if k not in ("family", "base")}
        base = cls.from_dict(data["base"]) if "base" in data else None
        spec = cls(family, params, base)
        _FAMILY_GENERATORS[family].validate(spec)
        return spec

    @classmethod
    def loads(cls, text: str) -> "SequenceSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class _Family:
    validate: Callable[[SequenceSpec], None]
    generate: Callable[[SequenceSpec, int], list[Graph]]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SequenceSpecError(message)


def _check_schedule(schedule, r: int | None) -> list[tuple[int, ...]]:
    _require(isinstance(schedule, (list, tuple)) and schedule, "schedule must be a nonempty list")
    dims = []
    for entry in schedule:
        if isinstance(entry, int):
            entry = (entry,)
        entry = tuple(entry)
        _require(all(isinstance(s, int) and s >= 3 for s in entry), f"schedule entry {entry} needs integers >= 3")
        _require(r is None or len(entry) == r, f"schedule entry {entry} must have {r} components")
        dims.append(entry)
    products = [_product(d) for d in dims]
    _require(
        all(a < b for a, b in zip(products, products[1:])),
        f"schedule products {products} must be strictly increasing",
    )
    return dims


def _product(values: Sequence[int]) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def _validate_start(spec: SequenceSpec, minimum: int) -> None:
    start = spec.params.get("start", minimum)
    _require(isinstance(start, int) and start >= minimum, f"start must be an integer >= {minimum}")


def _indexed(minimum: int, build: Callable[[int], Graph], step: int = 1):
    def generate(spec: SequenceSpec, count: int) -> list[Graph]:
        start = spec.params.get("start", minimum)
        return [build(start + step * k) for k in range(count)]

    return generate


def _validate_base(spec: SequenceSpec) -> None:
    _require(spec.base is not None, f"family {spec.family!r} needs a 'base' spec")


def _generate_base(spec: SequenceSpec, count: int) -> list[Graph]:
    assert spec.base is not None
    return generate(spec.base, count)


def _torus_schedule_validate(spec: SequenceSpec) -> None:
    _require("schedule" in spec.params, "torus-schedule needs a 'schedule' list")
    _check_schedule(spec.params["schedule"], None)


def _loaded_torus_validate(spec: SequenceSpec) -> None:
    p = spec.params
    _require(all(k in p for k in ("q", "m", "r", "schedule")), "loaded-multi-torus needs q, m, r, schedule")
    _require(isinstance(p["q"], int) and p["q"] >= 1, "q must be an integer >= 1")
    _require(isinstance(p["m"], int) and p["m"] >= 1, "m must be an integer >= 1")
    _require(isinstance(p["r"], int) and p["r"] >= 1, "r must be an integer >= 1")
    _check_schedule(p["schedule"], p["r"])


def _schedule_terms(spec: SequenceSpec, count: int) -> list[tuple[int, ...]]:
    dims = _check_schedule(spec.params["schedule"], spec.params.get("r"))
    _require(len(dims) >= count, f"schedule has {len(dims)} entries, need {count}")
    return dims[:count]


def _gsun_validate(spec: SequenceSpec) -> None:
    p = spec.params.get("p")
    q = spec.params.get("q")
    _require(isinstance(p, int) and p >= 1, "generalized-sun needs integer p >= 1")
    _require(isinstance(q, int) and q >= 1, "generalized-sun needs integer q >= 1")
    _validate_start(spec, 3)


def _corona_validate(spec: SequenceSpec) -> None:
    _validate_base(spec)
    p = spec.params.get("p")
    q = spec.params.get("q")
    _require(isinstance(p, int) and p >= 1, "corona-family needs integer p >= 1")
    _require(isinstance(q, int) and q >= 1, "corona-family needs integer q >= 1")


def _derived_validate(spec: SequenceSpec) -> None:
    _validate_base(spec)
    op = spec.params.get("op")
    _require(op in _DERIVED_OPS, f"derived op must be one of {sorted(_DERIVED_OPS)}")


def _iterated_prism_validate(spec: SequenceSpec) -> None:
    _validate_base(spec)
    r = spec.params.get("r")
    _require(isinstance(r, int) and r >= 0, "iterated-prism needs integer r >= 0")


def _crossed_prisms_validate(spec: SequenceSpec) -> None:
    _validate_start(spec, 4)
    _require(spec.params.get("start", 4) % 2 == 0, "crossed-prisms start must be even")


def _torus_fixed_validate(spec: SequenceSpec) -> None:
    _require(isinstance(spec.params.get("m"), int) and spec.params["m"] >= 3, "torus-fixed needs integer m >= 3")
    _validate_start(spec, 3)


def _subsequence_validate(spec: SequenceSpec) -> None:
    _validate_base(spec)
    indices = spec.params.get("indices")
    _require(isinstance(indices, (list, tuple)) and indices, "subsequence needs an 'indices' list")
    _require(
        all(isinstance(i, int) and i >= 0 for i in indices)
        and all(a < b for a, b in zip(indices, indices[1:])),
        "indices must be strictly increasing nonnegative integers",
    )


_FAMILY_GENERATORS: dict[str, _Family] = {
    "cycles": _Family(lambda s: _validate_start(s, 3), _indexed(3, cons.cycle)),
    "circular-ladders": _Family(lambda s: _validate_start(s, 3), _indexed(3, cons.circular_ladder)),
    "moebius-ladders": _Family(lambda s: _validate_start(s, 3), _indexed(3, cons.moebius_ladder)),
    "crossed-prisms": _Family(_crossed_prisms_validate, _indexed(4, cons.crossed_prism, step=2)),
    "antiprisms": _Family(lambda s: _validate_start(s, 3), _indexed(3, cons.antiprism)),
    # Never self-similar: the divisor matrix of K_n is [n - 1], which differs
    # from term to term; kept as a sequence that must fail verification.
    "complete-graphs": _Family(lambda s: _validate_start(s, 3), _indexed(3, cons.complete)),
    "torus-fixed": _Family(
        _torus_fixed_validate,
        lambda s, count: [
            cons.torus((s.params.get("start", 3) + k, s.params["m"])) for k in range(count)
        ],
    ),
    "torus-schedule": _Family(
        _torus_schedule_validate,
        lambda s, count: [cons.torus(d) for d in _schedule_terms(s, count)],
    ),
    "loaded-multi-torus": _Family(
        _loaded_torus_validate,
        lambda s, count: [
            cons.loaded_torus(d, s.params["q"], s.params["m"]) for d in _schedule_terms(s, count)
        ],
    ),
    "generalized-sun": _Family(
        _gsun_validate,
        lambda s, count: [
            cons.cycle_with_cliques(s.params.get("start", 3) + k, s.params["p"], s.params["q"])
            for k in range(count)
        ],
    ),
    "corona-family": _Family(
        _corona_validate,
        lambda s, count: [
            cons.corona(g, cons.disjoint_cliques(s.params["q"], s.params["p"]))
            for g in _generate_base(s, count)
        ],
    ),
    "iterated-prism": _Family(
        _iterated_prism_validate,
        lambda s, count: [
            g if s.params["r"] == 0 else cons.iterate(cons.prism, g, s.params["r"])
            for g in _generate_base(s, count)
        ],
    ),
    "derived": _Family(
        _derived_validate,
        lambda s, count: [_DERIVED_OPS[s.params["op"]](g) for g in _generate_base(s, count)],
    ),
    "subsequence": _Family(
        _subsequence_validate,
        lambda s, count: _subsequence_terms(s, count),
    ),
}


def _subsequence_terms(spec: SequenceSpec, count: int) -> list[Graph]:
    indices = list(spec.params["indices"])
    _require(len(indices) >= count, f"subsequence has {len(indices)} indices, need {count}")
    indices = indices[:count]
    base_terms = _generate_base(spec, max(indices) + 1)
    return [base_terms[i] for i in indices]


def generate(spec: SequenceSpec, count: int) -> list[Graph]:
    """First `count` terms of the family described by `spec`."""
    if count < 2:
        raise SequenceSpecError(f"count must be >= 2, got {count}")
    _FAMILY_GENERATORS[spec.family].validate(spec)
    return _FAMILY_GENERATORS[spec.family].generate(spec, count)


@dataclass(frozen=True)
class SelfSimilarityVerdict:
    """Outcome of the growth / pairwise-similarity / seed conditions.

    failing_pair names the first pair of terms found not to grow or not to
    be orbitally similar; seed_status is "not-checked" without a seed, else
    "verified" or "failed" by an exact isomorphism test.
    """

    self_similar: bool
    failing_pair: tuple[int, int] | None = None
    reason: str | None = None
    seed_status: str = "not-checked"  # not-checked | verified | failed

    def as_dict(self) -> dict:
        return {
            "self_similar": self.self_similar,
            "failing_pair": list(self.failing_pair) if self.failing_pair else None,
            "reason": self.reason,
            "seed_status": self.seed_status,
        }


def verify_self_similar(graphs: Sequence[Graph], seed: Graph | None = None) -> SelfSimilarityVerdict:
    """Check strict order growth and pairwise orbital similarity, plus the
    optional seed-isomorphism condition.

    Orbital similarity is an equivalence relation, so every term is compared
    with the first and no other pair needs a test.  The seed must be
    isomorphic to the first term.
    """
    if len(graphs) < 2:
        raise ValueError("need at least two graphs")
    for i, g in enumerate(graphs):
        if not is_connected(g):
            raise ValueError(f"term {i} is disconnected")
    for k in range(len(graphs) - 1):
        if graphs[k].n >= graphs[k + 1].n:
            return SelfSimilarityVerdict(
                False, (k, k + 1), f"orders not strictly increasing: {graphs[k].n} then {graphs[k + 1].n}"
            )
    for k in range(1, len(graphs)):
        if not orbitally_similar(graphs[0], graphs[k]).similar:
            return SelfSimilarityVerdict(False, (0, k), f"terms 0 and {k} not orbitally similar")
    if seed is None:
        return SelfSimilarityVerdict(True)
    if not is_connected(seed):
        raise ValueError("seed is disconnected")
    if isomorphism(ColouredDigraph.from_graph(seed), ColouredDigraph.from_graph(graphs[0])) is None:
        return SelfSimilarityVerdict(False, None, "first term not isomorphic to the seed", "failed")
    return SelfSimilarityVerdict(True, None, None, "verified")


@dataclass(frozen=True)
class TermRecord:
    """All per-graph quantities of one connected graph.

    density is None below two vertices, where it is undefined.
    """

    order: int
    size: int
    orbits: tuple[tuple[int, ...], ...]
    group_order: int
    divisor: DivisorMatrix
    omega: tuple[Fraction, ...]
    entropy: float
    rho_adjacency: float
    rho_divisor: float
    principal_ratio: float
    min_degree: int
    max_degree: int
    average_degree: Fraction
    degree_variance: Fraction
    edge_vertex_ratio: Fraction
    density: Fraction | None
    cyclomatic_number: int

    def as_dict(self) -> dict:
        """The analyze report: every field, fractions as "p/q"."""
        return {
            "order": self.order,
            "size": self.size,
            "orbits": [list(cell) for cell in self.orbits],
            "group_order": self.group_order,
            "divisor": self.divisor.as_dict(),
            "omega": [frac_str(w) for w in self.omega],
            "entropy": self.entropy,
            "rho_adjacency": self.rho_adjacency,
            "rho_divisor": self.rho_divisor,
            "principal_ratio": self.principal_ratio,
            "min_degree": self.min_degree,
            "max_degree": self.max_degree,
            "average_degree": frac_str(self.average_degree),
            "degree_variance": frac_str(self.degree_variance),
            "edge_vertex_ratio": frac_str(self.edge_vertex_ratio),
            "density": frac_str(self.density) if self.density is not None else None,
            "cyclomatic_number": self.cyclomatic_number,
        }


# The keys of TermRecord.as_dict that a sequence report gives each term, in
# its published order.
_SEQUENCE_TERM_KEYS = (
    "order", "size", "divisor", "omega", "entropy", "rho_adjacency", "rho_divisor", "min_degree",
    "max_degree", "average_degree", "degree_variance", "principal_ratio", "edge_vertex_ratio",
    "density", "cyclomatic_number",
)


def analyze_term(graph: Graph) -> TermRecord:
    """Compute the full per-graph record of a connected graph."""
    group = automorphism_group(graph)
    profile = orbit_profile(graph)
    perron = spectral_radius_adjacency(graph, partition=group.orbits)
    stats = degree_stats(graph)
    return TermRecord(
        order=graph.n,
        size=graph.m,
        orbits=group.orbits.cells,
        group_order=group.order,
        divisor=perron.divisor,
        omega=profile.omega,
        entropy=profile.entropy,
        rho_adjacency=perron.rho,
        rho_divisor=perron.rho_divisor,
        principal_ratio=perron.gamma,
        min_degree=stats.min_degree,
        max_degree=stats.max_degree,
        average_degree=stats.average_degree,
        degree_variance=stats.degree_variance,
        edge_vertex_ratio=edge_vertex_ratio(graph),
        density=density(graph) if graph.n >= 2 else None,
        cyclomatic_number=cyclomatic_number(graph),
    )


@dataclass(frozen=True)
class PreservationCheck:
    name: str
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class SequenceReport:
    terms: tuple[TermRecord, ...]
    verdict: SelfSimilarityVerdict
    preservation: tuple[PreservationCheck, ...]

    @property
    def ok(self) -> bool:
        return self.verdict.self_similar and all(c.passed for c in self.preservation)

    def failed_checks(self) -> list[str]:
        return [c.name for c in self.preservation if not c.passed]

    def as_dict(self) -> dict:
        return {
            "terms": [
                {key: term[key] for key in _SEQUENCE_TERM_KEYS} for term in map(TermRecord.as_dict, self.terms)
            ],
            "verdict": self.verdict.as_dict(),
            "preservation": [c.as_dict() for c in self.preservation],
            "ok": self.ok,
        }


def _constant_check(name: str, values, exact: bool) -> PreservationCheck:
    first = values[0]
    for k, v in enumerate(values):
        equal = v == first if exact else abs(v - first) < FLOAT_TOL
        if not equal:
            return PreservationCheck(name, False, f"term {k}: {v} differs from term 0: {first}")
    return PreservationCheck(name, True)


def _cyclomatic_check(terms: Sequence[TermRecord]) -> PreservationCheck:
    c1 = terms[0].cyclomatic_number
    n1 = terms[0].order
    if c1 == 0:
        return PreservationCheck(
            "cyclomatic", False, "first term is a tree; no self-similar sequence can contain one"
        )
    if c1 == 1:
        for k, t in enumerate(terms):
            if t.cyclomatic_number != 1:
                return PreservationCheck("cyclomatic", False, f"term {k} not unicyclic")
        return PreservationCheck("cyclomatic", True, "all terms unicyclic")
    previous = None
    for k, t in enumerate(terms):
        expected = (c1 - 1) * Fraction(t.order, n1)
        if Fraction(t.cyclomatic_number - 1) != expected:
            return PreservationCheck(
                "cyclomatic", False, f"term {k}: c-1 = {t.cyclomatic_number - 1} != (c1-1)*|G_k|/n = {expected}"
            )
        if previous is not None and t.cyclomatic_number <= previous:
            return PreservationCheck("cyclomatic", False, f"term {k}: cyclomatic number not increasing")
        previous = t.cyclomatic_number
    return PreservationCheck("cyclomatic", True, "cyclomatic numbers grow per the exact scaling law")


def _density_check(terms: Sequence[TermRecord]) -> PreservationCheck:
    for k, t in enumerate(terms):
        if t.density is None:
            return PreservationCheck(
                "density_decreasing", False, f"term {k} has no density (fewer than two vertices)"
            )
    densities = [t.density for t in terms]
    if all(a > b for a, b in zip(densities, densities[1:])):
        return PreservationCheck("density_decreasing", True)
    return PreservationCheck(
        "density_decreasing", False, f"densities {[str(d) for d in densities]} not strictly decreasing"
    )


def _rho_paths_check(terms: Sequence[TermRecord]) -> PreservationCheck:
    """Each term's reported divisor matrix, solved on its own, must give the
    certified adjacency radius to within FLOAT_TOL * max(1, rho)."""
    for k, t in enumerate(terms):
        rho = spectral_radius_divisor(t.divisor)
        if abs(rho - t.rho_adjacency) > FLOAT_TOL * max(1.0, t.rho_adjacency):
            return PreservationCheck(
                "rho_paths_agree", False, f"term {k}: divisor matrix gives {rho}, adjacency {t.rho_adjacency}"
            )
    return PreservationCheck("rho_paths_agree", True)


def preservation_report(graphs: Sequence[Graph], seed: Graph | None = None) -> SequenceReport:
    """Verify self-similarity and every preserved invariant across the terms."""
    verdict = verify_self_similar(graphs, seed=seed)
    terms = tuple(analyze_term(g) for g in graphs)
    checks = [
        _constant_check("entropy", [t.entropy for t in terms], exact=False),
        _constant_check("rho_adjacency", [t.rho_adjacency for t in terms], exact=False),
        _rho_paths_check(terms),
        _constant_check("min_degree", [t.min_degree for t in terms], exact=True),
        _constant_check("max_degree", [t.max_degree for t in terms], exact=True),
        _constant_check("average_degree", [t.average_degree for t in terms], exact=True),
        _constant_check("degree_variance", [t.degree_variance for t in terms], exact=True),
        _constant_check("principal_ratio", [t.principal_ratio for t in terms], exact=False),
        _constant_check("edge_vertex_ratio", [t.edge_vertex_ratio for t in terms], exact=True),
        _density_check(terms),
        _cyclomatic_check(terms),
    ]
    return SequenceReport(terms=terms, verdict=verdict, preservation=tuple(checks))
