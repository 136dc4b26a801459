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
so comparing every term with the first decides every pair.  The
preservation report checks every invariant that orbital similarity is
supposed to carry along a sequence: entropy, spectral radius, degree
extremes, average and variance, principal ratio, edge-vertex ratio, the
strict decay of the density index, and the cyclomatic trichotomy.  Its
rho_paths_agree check, that each term's divisor matrix has the spectral
radius as its Perron root, is read from the two radii that the term's
Collatz-Wielandt certificate bracketed; no quotient is recomputed here.
A term's value agrees with the first term's if it is equal, for an int or
a Ratio, and for a float if it lies within FLOAT_TOL times the first value's
size, but never below FLOAT_TOL: the principal ratio of the paper's loaded
cycles passes 1e6 with pendant paths of 20 vertices, where an absolute
tolerance would ask for equal bits.
Each term's record is spectral.analyze_term, the one per-graph analysis.
"""

import json
from collections.abc import Callable, Mapping, Sequence
from functools import reduce
from math import prod
from types import MappingProxyType

from . import constructions as cons
from .graph_core import Frozen, Graph, Ratio, is_connected
from .orbital import DivisorMatrix, orbit_divisor_matrix, similar_divisors
from .spectral import TermRecord, analyze_term

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
    start is filled in with its minimum.  term(k) and order(k) trust it, so
    params is kept read-only, every list in it a tuple, and the spec is
    hashable.
    """

    __slots__ = _fields = ("family", "params", "base")
    family: str
    params: Mapping
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
        object.__setattr__(self, "params", MappingProxyType({k: _frozen(v) for k, v in params.items()}))
        object.__setattr__(self, "base", base)

    # A read-only mapping is neither hashable nor picklable: hash its items,
    # and rebuild from a dict.
    def __hash__(self) -> int:
        return hash((self.family, frozenset(self.params.items()), self.base))

    def __reduce__(self):
        return SequenceSpec, (self.family, dict(self.params), self.base)

    @classmethod
    def from_dict(cls, data: Mapping) -> "SequenceSpec":
        _require(isinstance(data, Mapping), f"a spec must be a JSON object, not {type(data).__name__}")
        _require("family" in data, "spec needs a 'family' tag")
        base = data.get("base")
        params = {k: v for k, v in data.items() if k not in ("family", "base")}
        return cls(data["family"], params, cls.from_dict(base) if isinstance(base, Mapping) else base)

    @classmethod
    def loads(cls, text: str) -> "SequenceSpec":
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


def _frozen(value):
    """value with every list in it, at any depth, as a tuple."""
    return tuple(map(_frozen, value)) if isinstance(value, (list, tuple)) else value


class _Family(Frozen):
    """One row of the family table: the integer parameters with their
    minimums, term k and its order, the one non-integer parameter other with
    a check of what the minimums do not say, and whether a base is taken."""

    __slots__ = _fields = ("ints", "term", "order", "other", "check", "base")
    _defaults = {"other": None, "check": None, "base": False}
    ints: Mapping[str, int]
    term: Callable[[SequenceSpec, int], Graph]
    order: Callable[[SequenceSpec, int], int]
    other: str | None
    check: Callable[[dict], None] | None
    base: bool


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


def _catalogue(name: str, ints: Mapping[str, int], params: Callable[[SequenceSpec, int], dict], **row) -> _Family:
    """A family whose term k is the catalogue member name with params(spec, k)."""
    return _Family(
        ints,
        lambda s, k: cons.family(name, **params(s, k)),
        lambda s, k: cons.family_order(name, **params(s, k)),
        **row,
    )


def _indexed(name: str, low: int = 3, step: int = 1, **row) -> _Family:
    """A family whose term k is the catalogue member name with n = start + step * k."""
    return _catalogue(name, {"start": low}, lambda s, k: {"n": s.params["start"] + step * k}, **row)


_FAMILIES: dict[str, _Family] = {
    "cycles": _indexed("cycle"),
    "circular-ladders": _indexed("circular-ladder"),
    "moebius-ladders": _indexed("moebius-ladder"),
    "crossed-prisms": _indexed(
        "crossed-prism", low=4, step=2,
        check=lambda p: _require(p["start"] % 2 == 0, "crossed-prisms start must be even"),
    ),
    "antiprisms": _indexed("antiprism"),
    # Never self-similar: the divisor matrix of K_n is [n - 1], which differs
    # from term to term; kept as a sequence that must fail verification.
    "complete-graphs": _indexed("complete"),
    "torus-fixed": _catalogue(
        "torus", {"start": 3, "m": 3}, lambda s, k: {"dims": (s.params["start"] + k, s.params["m"])}
    ),
    "torus-schedule": _catalogue(
        "torus", {}, lambda s, k: {"dims": _dims(_entry(s, k))}, other="schedule", check=_check_schedule
    ),
    "loaded-multi-torus": _catalogue(
        "loaded-torus", {"q": 1, "m": 1, "r": 1},
        lambda s, k: {"dims": _dims(_entry(s, k)), "q": s.params["q"], "m": s.params["m"]},
        other="schedule", check=_check_schedule,
    ),
    "generalized-sun": _catalogue(
        "cycle-with-cliques", {"start": 3, "p": 1, "q": 1},
        lambda s, k: {"n": s.params["start"] + k, "p": s.params["p"], "q": s.params["q"]},
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


class SelfSimilarityVerdict(Frozen):
    """Outcome of the growth and pairwise-similarity conditions.

    failing_pair names the first pair of terms found not to grow or not to
    be orbitally similar.
    """

    __slots__ = _fields = ("self_similar", "failing_pair", "reason")
    _defaults = {"failing_pair": None, "reason": None}
    self_similar: bool
    failing_pair: tuple[int, int] | None
    reason: str | None

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


# The keys of TermRecord.as_dict that a sequence report gives each term, in
# its published order.
_SEQUENCE_TERM_KEYS = (
    "order", "size", "divisor", "omega", "entropy", "rho_adjacency", "rho_divisor", "min_degree",
    "max_degree", "average_degree", "degree_variance", "principal_ratio", "edge_vertex_ratio",
    "density", "cyclomatic_number",
)


class PreservationCheck(Frozen):
    __slots__ = _fields = ("name", "passed", "detail")
    _defaults = {"detail": ""}
    name: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class SequenceReport(Frozen):
    __slots__ = _fields = ("terms", "verdict", "preservation")
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


def _agree(v, v0) -> bool:
    """v agrees with v0: a float within FLOAT_TOL times the size of v0, never
    below FLOAT_TOL, and an int or Ratio exactly."""
    if isinstance(v0, float):
        return abs(v - v0) <= FLOAT_TOL * max(1.0, abs(v0))
    return v == v0


def _constant_check(name: str, values) -> PreservationCheck:
    first = values[0]
    for k, v in enumerate(values):
        if not _agree(v, first):
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
        expected = (c1 - 1) * Ratio(t.order, n1)
        if t.cyclomatic_number - 1 != expected:
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
    """Each term's divisor matrix has the adjacency radius as its Perron root:
    the two radii that spectral_radius_adjacency bracketed together agree
    (_agree).  Its per-vertex certificate on A is the proof; this reads it."""
    for k, t in enumerate(terms):
        if not _agree(t.rho_divisor, t.rho_adjacency):
            detail = f"term {k}: divisor matrix gives {t.rho_divisor}, adjacency {t.rho_adjacency}"
            return PreservationCheck("rho_paths_agree", False, detail)
    return PreservationCheck("rho_paths_agree", True)


def preservation_report(graphs: Sequence[Graph]) -> SequenceReport:
    """Verify self-similarity, from the terms' records, and every preserved invariant."""
    _require_terms(graphs)
    terms = tuple(analyze_term(g) for g in graphs)
    verdict = _verdict([t.order for t in terms], [t.divisor for t in terms])
    checks = [
        _constant_check("entropy", [t.entropy for t in terms]),
        _constant_check("rho_adjacency", [t.rho_adjacency for t in terms]),
        _rho_paths_check(terms),
        _constant_check("min_degree", [t.min_degree for t in terms]),
        _constant_check("max_degree", [t.max_degree for t in terms]),
        _constant_check("average_degree", [t.average_degree for t in terms]),
        _constant_check("degree_variance", [t.degree_variance for t in terms]),
        _constant_check("principal_ratio", [t.principal_ratio for t in terms]),
        _constant_check("edge_vertex_ratio", [t.edge_vertex_ratio for t in terms]),
        _density_check(terms),
        _cyclomatic_check(terms),
    ]
    return SequenceReport(terms=terms, verdict=verdict, preservation=tuple(checks))
