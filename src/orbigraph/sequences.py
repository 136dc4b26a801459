"""Declarative self-similar sequence generation and verification.

A sequence spec is a JSON object such as {"family": "corona-family", "p": 3,
"q": 2, "base": {"family": "cycles", "start": 12}}: "family" picks a row of
the family table and the other keys are its parameters.  Integer ones have
a minimum ("start" defaults to it; booleans are not integers).  A family
reads at most one other key: "schedule" (torus dimensions per term, an
integer being one cycle, with increasing products), "op" (prism,
strong-prism or minimal-corona) or "indices" (increasing base indices), and
"base" is a nested spec.  Unknown keys and a stray base are errors.
SequenceSpec checks all this once, when it is made, and a term builds only
the base terms it uses.

Generation yields connected graphs of strictly increasing order which are
then certified pairwise orbitally similar, from the divisor matrices that
the terms' records hold.  Orbital similarity is an equivalence relation,
so comparing every term with the first decides every pair.  The preservation report checks every invariant that orbital
similarity is supposed to carry along a sequence: entropy, spectral radius
(and that each reported divisor matrix has it as its Perron root), degree
extremes, average and variance, principal ratio, edge-vertex ratio, the
strict decay of the density index, and the cyclomatic trichotomy.

analyze_term is the one per-graph analysis: every sequence term carries
its record, and the CLI's analyze command reports the same record for one
graph.
"""

from fractions import Fraction
from functools import reduce
from math import fsum, prod
from typing import Callable, Mapping, NamedTuple, Sequence

from . import constructions as cons
from .aut import automorphism_group
from .graph_core import Frozen, Graph, cyclomatic_number, degree_stats, density, edge_vertex_ratio, frac_str, is_connected
from .orbital import DivisorMatrix, orbit_divisor_matrix, orbit_profile, similar_divisors
from .spectral import spectral_radius_adjacency

FLOAT_TOL = 1e-9

_DERIVED_OPS: dict[str, Callable[[Graph], Graph]] = {
    "prism": cons.prism,
    "strong-prism": cons.strong_prism,
    "minimal-corona": cons.minimal_corona,
}


class SequenceSpecError(ValueError):
    """Invalid sequence specification."""


class SequenceSpec(Frozen):
    """A named self-similar family with parameters, possibly built on a base spec.

    Checked once, when it is made, against its family's row; an omitted
    start is filled in with its minimum.  term(k) and order(k) trust it.
    """

    __slots__ = _fields = ("family", "params", "base")
    family: str
    params: dict
    base: "SequenceSpec | None"

    def __init__(self, family: str, params: dict | None = None, base: "SequenceSpec | None" = None) -> None:
        params = {} if params is None else params
        row = _FAMILIES.get(family) if isinstance(family, str) else None
        if row is None:
            raise SequenceSpecError(f"unknown family {family!r}; known: {', '.join(sorted(_FAMILIES))}")
        unknown = sorted(set(params) - set(row.ints) - {row.other})
        _require(not unknown, f"{family} takes no key {', '.join(map(repr, unknown))}")
        if row.base:
            _require(isinstance(base, SequenceSpec), f"{family} needs a 'base' spec")
        else:
            _require(base is None, f"{family} takes no 'base'")
        if "start" in row.ints:
            params = {"start": row.ints["start"], **params}
        for key, low in row.ints.items():
            value = params.get(key)
            _require(type(value) is int and value >= low, f"{family}: {key} must be an integer >= {low}")
        if row.check is not None:
            row.check(params)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "base", base)

    @classmethod
    def from_dict(cls, data: Mapping) -> "SequenceSpec":
        _require(isinstance(data, Mapping), f"a spec must be a JSON object, not {type(data).__name__}")
        _require("family" in data, "spec needs a 'family' tag")
        base = data.get("base")
        params = {k: v for k, v in data.items() if k not in ("family", "base")}
        return cls(data["family"], params, cls.from_dict(base) if isinstance(base, Mapping) else base)

    @classmethod
    def loads(cls, text: str) -> "SequenceSpec":
        import json  # only here: no other run of the CLI reads JSON

        return cls.from_dict(json.loads(text))

    def term(self, k: int) -> Graph:
        """Term k (from 0), building only the base terms it uses."""
        return _FAMILIES[self.family].term(self, k)

    def order(self, k: int) -> int:
        """The number of vertices of term k, from the spec alone."""
        return _FAMILIES[self.family].order(self, k)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SequenceSpecError(message)


class _Family(NamedTuple):
    """One row of the family table: the integer parameters with their
    minimums, term k and its order, the one non-integer parameter other with
    a check of what the minimums do not say, and whether a base is taken."""

    ints: Mapping[str, int]
    term: Callable[[SequenceSpec, int], Graph]
    order: Callable[[SequenceSpec, int], int]
    other: str | None = None
    check: Callable[[dict], None] | None = None
    base: bool = False


def _entry(spec: SequenceSpec, k: int):
    """Entry k of the spec's schedule or indices."""
    key = _FAMILIES[spec.family].other
    values = spec.params[key]
    _require(k < len(values), f"{spec.family} {key} has {len(values)} entries, no term {k}")
    return values[k]


def _dims(entry) -> tuple[int, ...]:
    """Torus dimensions of a schedule entry; an integer is one cycle."""
    return tuple(entry) if isinstance(entry, (list, tuple)) else (entry,)


def _check_schedule(params: dict) -> None:
    schedule, r = params.get("schedule"), params.get("r")
    _require(isinstance(schedule, (list, tuple)) and schedule, "schedule must be a nonempty list")
    entries = [_dims(entry) for entry in schedule]
    for dims in entries:
        _require(dims and all(type(s) is int and s >= 3 for s in dims), f"schedule entry {dims} needs integers >= 3")
        _require(r is None or len(dims) == r, f"schedule entry {dims} must have {r} components")
    products = list(map(prod, entries))
    _require(
        all(a < b for a, b in zip(products, products[1:])), f"schedule products {products} must be strictly increasing"
    )


def _check_indices(params: dict) -> None:
    indices = params.get("indices")
    _require(isinstance(indices, (list, tuple)) and indices, "subsequence needs an 'indices' list")
    _require(
        all(type(i) is int and i >= 0 for i in indices) and all(a < b for a, b in zip(indices, indices[1:])),
        "indices must be strictly increasing nonnegative integers",
    )


def _indexed(build: Callable[[int], Graph], factor: int, low: int = 3, step: int = 1, **row) -> _Family:
    """A family whose term k is build(n), n = start + step * k, with factor * n vertices."""
    return _Family(
        {"start": low},
        lambda s, k: build(s.params["start"] + step * k),
        lambda s, k: factor * (s.params["start"] + step * k),
        **row,
    )


_FAMILIES: dict[str, _Family] = {
    "cycles": _indexed(cons.cycle, 1),
    "circular-ladders": _indexed(cons.circular_ladder, 2),
    "moebius-ladders": _indexed(cons.moebius_ladder, 2),
    "crossed-prisms": _indexed(
        cons.crossed_prism, 2, low=4, step=2,
        check=lambda p: _require(p["start"] % 2 == 0, "crossed-prisms start must be even"),
    ),
    "antiprisms": _indexed(cons.antiprism, 2),
    # Never self-similar: the divisor matrix of K_n is [n - 1], which differs
    # from term to term; kept as a sequence that must fail verification.
    "complete-graphs": _indexed(cons.complete, 1),
    "torus-fixed": _Family(
        {"start": 3, "m": 3},
        lambda s, k: cons.torus((s.params["start"] + k, s.params["m"])),
        lambda s, k: (s.params["start"] + k) * s.params["m"],
    ),
    "torus-schedule": _Family(
        {}, lambda s, k: cons.torus(_dims(_entry(s, k))), lambda s, k: prod(_dims(_entry(s, k))),
        other="schedule", check=_check_schedule,
    ),
    "loaded-multi-torus": _Family(
        {"q": 1, "m": 1, "r": 1},
        lambda s, k: cons.loaded_torus(_dims(_entry(s, k)), s.params["q"], s.params["m"]),
        lambda s, k: prod(_dims(_entry(s, k))) * (1 + s.params["q"] * s.params["m"]),
        other="schedule", check=_check_schedule,
    ),
    "generalized-sun": _Family(
        {"start": 3, "p": 1, "q": 1},
        lambda s, k: cons.cycle_with_cliques(s.params["start"] + k, s.params["p"], s.params["q"]),
        lambda s, k: (s.params["start"] + k) * (1 + s.params["q"] * (s.params["p"] - 1)),
    ),
    "corona-family": _Family(
        {"p": 1, "q": 1},
        lambda s, k: cons.corona(s.base.term(k), cons.disjoint_cliques(s.params["q"], s.params["p"])),
        lambda s, k: s.base.order(k) * (1 + s.params["p"] * s.params["q"]),
        base=True,
    ),
    # r is at most 64: more doublings name no graph that could be built.
    "iterated-prism": _Family(
        {"r": 0},
        lambda s, k: reduce(lambda g, _: cons.prism(g), range(s.params["r"]), s.base.term(k)),
        lambda s, k: s.base.order(k) << s.params["r"],
        check=lambda p: _require(p["r"] <= 64, "iterated-prism: r must be at most 64"),
        base=True,
    ),
    # Every derived op doubles the order.
    "derived": _Family(
        {},
        lambda s, k: _DERIVED_OPS[s.params["op"]](s.base.term(k)),
        lambda s, k: 2 * s.base.order(k),
        other="op",
        check=lambda p: _require(
            isinstance(p.get("op"), str) and p["op"] in _DERIVED_OPS,
            f"derived op must be one of {sorted(_DERIVED_OPS)}",
        ),
        base=True,
    ),
    "subsequence": _Family(
        {}, lambda s, k: s.base.term(_entry(s, k)), lambda s, k: s.base.order(_entry(s, k)),
        other="indices", check=_check_indices, base=True,
    ),
}


def describe_families() -> str:
    """One line per family with the keys its spec takes, for the CLI's help."""
    lines = ['spec families and their keys, e.g. {"family": "cycles", "start": 5} ([start] is optional):']
    for name, row in _FAMILIES.items():
        keys = [f"[start>={low}]" if key == "start" else f"{key}>={low}" for key, low in row.ints.items()]
        keys += [row.other] * (row.other is not None) + ["base"] * row.base
        lines.append(f"  {name:<20}{' '.join(keys)}")
    return "\n".join(lines)


def generate(spec: SequenceSpec, count: int) -> list[Graph]:
    """First `count` terms of the family described by `spec`."""
    if count < 2:
        raise SequenceSpecError(f"count must be >= 2, got {count}")
    return [spec.term(k) for k in range(count)]


class SelfSimilarityVerdict(NamedTuple):
    """Outcome of the growth and pairwise-similarity conditions.

    failing_pair names the first pair of terms found not to grow or not to
    be orbitally similar.
    """

    self_similar: bool
    failing_pair: tuple[int, int] | None = None
    reason: str | None = None

    @property
    def seed_status(self) -> str:
        """Always "not-checked": the paper's seed condition, that the first
        term is isomorphic to a given seed graph, is not tested here."""
        return "not-checked"

    def as_dict(self) -> dict:
        return {
            "self_similar": self.self_similar,
            "failing_pair": list(self.failing_pair) if self.failing_pair else None,
            "reason": self.reason,
            "seed_status": self.seed_status,
        }


def _verdict(orders: Sequence[int], divisors: Sequence[DivisorMatrix]) -> SelfSimilarityVerdict:
    """Strict order growth, then orbital similarity of every term's orbit
    divisor matrix with the first one's.

    Orbital similarity is an equivalence relation, so every term is compared
    with the first and no other pair needs a test.
    """
    for k in range(len(orders) - 1):
        if orders[k] >= orders[k + 1]:
            return SelfSimilarityVerdict(
                False, (k, k + 1), f"orders not strictly increasing: {orders[k]} then {orders[k + 1]}"
            )
    for k in range(1, len(divisors)):
        if not similar_divisors(divisors[0], divisors[k]).similar:
            return SelfSimilarityVerdict(False, (0, k), f"terms 0 and {k} not orbitally similar")
    return SelfSimilarityVerdict(True)


def _require_terms(graphs: Sequence[Graph]) -> None:
    """ValueError unless there are at least two terms, all connected."""
    if len(graphs) < 2:
        raise ValueError("need at least two graphs")
    for i, g in enumerate(graphs):
        if not is_connected(g):
            raise ValueError(f"term {i} is disconnected")


def verify_self_similar(graphs: Sequence[Graph]) -> SelfSimilarityVerdict:
    """Check strict order growth and pairwise orbital similarity of the terms."""
    _require_terms(graphs)
    return _verdict([g.n for g in graphs], [orbit_divisor_matrix(g) for g in graphs])


class TermRecord(NamedTuple):
    """All per-graph quantities of one connected graph.

    density is None below two vertices, where it is undefined.  orbit_values
    is the Perron vector of divisor on the cells, as certified on the graph;
    it is not reported.
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
    orbit_values: tuple[float, ...]

    def as_dict(self) -> dict:
        """The analyze report: every field, fractions as "p/q", and the
        divisor matrix itself, which the CLI's JSON writer expands."""
        return {
            "order": self.order,
            "size": self.size,
            "orbits": [list(cell) for cell in self.orbits],
            "group_order": self.group_order,
            "divisor": self.divisor,
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
        orbit_values=perron.orbit_values,
    )


class PreservationCheck(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class SequenceReport(NamedTuple):
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
    """Each term's reported divisor matrix B must have the certified adjacency
    radius as its Perron root: every Collatz-Wielandt quotient (B alpha)_i /
    alpha_i at the term's orbit values alpha lies within FLOAT_TOL * max(1, rho)
    of it, which brackets the Perron root of B there.  No matrix is solved."""
    for k, t in enumerate(terms):
        b, alpha = t.divisor, t.orbit_values
        if b.ell != len(alpha):
            return PreservationCheck(
                "rho_paths_agree", False, f"term {k}: divisor matrix has {b.ell} cells, {len(alpha)} orbit values"
            )
        quotients = [fsum(x * alpha[j] for j, x in row) / a for row, a in zip(b.rows, alpha)]
        worst = max(quotients, key=lambda q: abs(q - t.rho_adjacency))
        if abs(worst - t.rho_adjacency) > FLOAT_TOL * max(1.0, t.rho_adjacency):
            return PreservationCheck(
                "rho_paths_agree", False, f"term {k}: divisor matrix gives {worst}, adjacency {t.rho_adjacency}"
            )
    return PreservationCheck("rho_paths_agree", True)


def preservation_report(graphs: Sequence[Graph]) -> SequenceReport:
    """Verify self-similarity, from the terms' records, and every preserved invariant."""
    _require_terms(graphs)
    terms = tuple(analyze_term(g) for g in graphs)
    verdict = _verdict([t.order for t in terms], [t.divisor for t in terms])
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
