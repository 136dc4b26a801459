"""Per-operation correctness checks that do not rest on the code under test alone.

Each CLI answer is checked three ways: against what the benchmark derives
itself from the edge list it wrote (order, size, degree fractions, that the
reported orbits form an equitable partition with the reported divisor
matrix, omega and entropy); against closed forms the workload states
(group orders, spectral radii, principal ratios, rigidity); and against a
golden file captured from the CLI at the benchmark's first commit.  Floats
are compared with a relative tolerance, never as bytes, so a correct
rewrite of a numerical routine is not reported as a failure.  A float with
a closed form is checked against the closed form only, not the golden file.

Every problem is a wrong answer, with one exception: an op may name a
band (fact ``inaccurate_band``) within which a miss of its closed-form
spectral radius or principal ratio is reported as inaccurate, so the op
counts as failed but its answer not as wrong.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

FLOAT_TOL = 1e-9
INACCURATE = "inaccurate: "
GOLDEN_PATH = Path(__file__).with_name("golden.json")

_EXACT_TERM_FIELDS = ("order", "size", "omega", "min_degree", "max_degree", "average_degree",
                      "degree_variance", "edge_vertex_ratio", "density", "cyclomatic_number")
_FLOAT_TERM_FIELDS = ("entropy", "rho_adjacency", "rho_divisor", "principal_ratio")


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _close(a: float, b: float, tol: float = FLOAT_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _check_float(name: str, got: float, want: float, source: str, problems: list[str],
                 band: float | None = None) -> None:
    if not _close(got, want):
        prefix = INACCURATE if band is not None and _close(got, want, band) else ""
        problems.append(f"{prefix}{name} {got!r}, {source} {want!r}")


def is_wrong(problems: list[str]) -> bool:
    """True when some problem is more than an accuracy miss."""
    return any(not p.startswith(INACCURATE) for p in problems)


def _sparse(divisor: dict) -> dict:
    ell, flat = divisor["ell"], divisor["entries"]
    nonzero = [[k // ell, k % ell, x] for k, x in enumerate(flat) if x]
    return {"ell": ell, "sizes": divisor["sizes"], "nonzero": nonzero}


def golden_view(kind: str, payload: dict) -> dict:
    """The exact and float fields of one CLI answer that the golden file pins."""
    def term(t: dict, extra: tuple[str, ...] = ()) -> dict:
        exact = {k: t[k] for k in _EXACT_TERM_FIELDS + extra}
        exact["divisor"] = _sparse(t["divisor"])
        return {"exact": exact, "floats": {k: t[k] for k in _FLOAT_TERM_FIELDS}}

    if kind == "analyze":
        return term(payload, ("orbits", "group_order"))
    if kind == "compare":
        common = payload["common_matrix"]
        return {"exact": {"similar": payload["similar"], "witness": payload["witness"],
                          "homothetic": payload["homothetic"],
                          "common_matrix": _sparse(common) if common else None},
                "floats": {k: payload[k] for k in ("entropy_a", "entropy_b")}}
    return {"terms": [term(t) for t in payload["terms"]],
            "exact": {"verdict": payload["verdict"], "ok": payload["ok"],
                      "preservation": [[c["name"], c["passed"]] for c in payload["preservation"]]}}


def _compare_views(got: dict, want: dict, where: str, problems: list[str],
                   closed_form: tuple[str, ...] = ()) -> None:
    for key, value in want.get("exact", {}).items():
        if got["exact"].get(key) != value:
            problems.append(f"{where}{key}: differs from the golden answer")
    for key, value in want.get("floats", {}).items():
        if key in closed_form:
            continue
        _check_float(f"{where}{key}", got["floats"][key], value, "golden", problems)
    for k, (g, w) in enumerate(zip(got.get("terms", []), want.get("terms", []))):
        _compare_views(g, w, f"{where}term {k} ", problems)


def _entropy(omega: list[Fraction]) -> float:
    return -math.fsum(float(w) * math.log2(float(w)) for w in omega) + 0.0


def _check_invariants(out: dict, n: int, edges: list, problems: list[str]) -> None:
    """Exact degree and cycle invariants derived from the written edge list."""
    m = len(edges)
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    avg = Fraction(2 * m, n)
    expected = {
        "order": n, "size": m, "min_degree": min(deg), "max_degree": max(deg),
        "average_degree": _frac(avg),
        "degree_variance": _frac(Fraction(sum(d * d for d in deg), n) - avg * avg),
        "edge_vertex_ratio": _frac(Fraction(m, n)),
        "density": _frac(Fraction(2 * m, n * (n - 1))),
        "cyclomatic_number": m - n + 1,
    }
    for key, value in expected.items():
        if out.get(key) != value:
            problems.append(f"{key}: {out.get(key)!r}, expected {value!r}")


def _divisor_of(orbits: list[list[int]], n: int, edges: list, problems: list[str]) -> list[int] | None:
    """Flat divisor matrix of the given cells, or None when they are not an
    equitable partition of 0..n-1 in canonical order."""
    if sorted(v for cell in orbits for v in cell) != list(range(n)):
        problems.append("orbits do not partition the vertex set")
        return None
    if orbits != sorted((sorted(c) for c in orbits), key=lambda c: (-len(c), c[0])):
        problems.append("orbit cells are not sorted or not in canonical order")
    cell_of = [0] * n
    for i, cell in enumerate(orbits):
        for v in cell:
            cell_of[v] = i
    ell = len(orbits)
    counts = [[0] * ell for _ in range(n)]
    for u, v in edges:
        counts[u][cell_of[v]] += 1
        counts[v][cell_of[u]] += 1
    flat = []
    for cell in orbits:
        if any(counts[v] != counts[cell[0]] for v in cell):
            problems.append("orbit partition is not equitable")
            return None
        flat.extend(counts[cell[0]])
    return flat


def _check_orbit_structure(out: dict, n: int, edges: list, problems: list[str]) -> None:
    orbits = out["orbits"]
    flat = _divisor_of(orbits, n, edges, problems)
    divisor = out["divisor"]
    if flat is not None and (divisor["ell"], divisor["entries"]) != (len(orbits), flat):
        problems.append("divisor matrix differs from the one the orbits induce")
    if divisor["sizes"] != [len(c) for c in orbits]:
        problems.append("divisor sizes differ from the orbit sizes")
    omega = sorted((Fraction(len(c), n) for c in orbits), reverse=True)
    if out["omega"] != [_frac(w) for w in omega]:
        problems.append("omega differs from the relative orbit sizes")
    _check_float("entropy", out["entropy"], _entropy(omega), "from omega", problems)
    if any(out["group_order"] % len(c) for c in orbits):
        problems.append("an orbit size does not divide the group order")


def check_analyze(out: dict, op: dict, golden: dict | None) -> list[str]:
    problems: list[str] = []
    (n, edges), facts = op["graphs"][0], op["facts"]
    _check_invariants(out, n, edges, problems)
    _check_orbit_structure(out, n, edges, problems)
    _check_float("rho_divisor", out["rho_divisor"], out["rho_adjacency"], "rho_adjacency", problems)
    if facts.get("rigid"):
        facts = {**facts, "group_order": 1, "orbits": [[v] for v in range(n)]}
    if "group_order" in facts and out["group_order"] != facts["group_order"]:
        problems.append(f"group_order {out['group_order']}, closed form {facts['group_order']}")
    if "orbit_sizes" in facts and [len(c) for c in out["orbits"]] != facts["orbit_sizes"]:
        problems.append(f"orbit sizes differ from the closed form {facts['orbit_sizes']}")
    if "orbits" in facts and out["orbits"] != facts["orbits"]:
        problems.append("orbits differ from the closed form")
    # A closed form, not the golden file, judges these fields; rho_divisor is
    # held to rho_adjacency above, so a closed-form rho covers both.
    closed_form: tuple[str, ...] = ()
    for key, fields in (("rho", ("rho_adjacency", "rho_divisor")), ("principal_ratio", ("principal_ratio",))):
        if key in facts:
            _check_float(fields[0], out[fields[0]], facts[key], "closed form", problems, facts.get("inaccurate_band"))
            closed_form += fields
    if golden is not None:
        _compare_views(golden_view("analyze", out), golden, "", problems, closed_form)
    return problems


def check_compare(out: dict, op: dict, golden: dict | None) -> list[str]:
    problems: list[str] = []
    facts = op["facts"]
    for key in ("similar", "homothetic"):
        if out[key] != facts[key]:
            problems.append(f"{key}: {out[key]!r}, expected {facts[key]!r}")
    if out["homothetic"]:
        _check_float("entropy_a", out["entropy_a"], out["entropy_b"], "entropy_b", problems)
    if out["similar"]:
        witness, common = out["witness"], out["common_matrix"]
        if witness is None or sorted(witness) != list(range(common["ell"])):
            problems.append("witness is not a permutation of the cells")
    if facts.get("rigid") and out["similar"]:
        # Rigid graphs have singleton orbits, so the divisor matrix of the
        # second graph is its adjacency matrix and the witness is unique.
        n, edges_b = op["graphs"][1]
        adj = [0] * (n * n)
        for u, v in edges_b:
            adj[u * n + v] = adj[v * n + u] = 1
        if out["common_matrix"] != {"ell": n, "entries": adj, "sizes": [1] * n}:
            problems.append("common matrix is not the adjacency matrix of the second graph")
        inverse = [0] * n
        for v, w in enumerate(facts["relabelling"]):
            inverse[w] = v
        if out["witness"] != inverse:
            problems.append("witness is not the inverse of the relabelling")
        _check_float("entropy_a", out["entropy_a"], math.log2(n), "log2(n)", problems)
    if golden is not None:
        _compare_views(golden_view("compare", out), golden, "", problems)
    return problems


def check_sequence(out: dict, op: dict, golden: dict | None) -> list[str]:
    problems: list[str] = []
    terms = out["terms"]
    shapes = [tuple(s) for s in op["facts"]["terms"]]
    if [(t["order"], t["size"]) for t in terms] != shapes:
        problems.append(f"term orders and sizes differ from the closed form {shapes}")
    if not (out["ok"] and out["verdict"]["self_similar"]):
        problems.append("sequence not verified self-similar")
    failed = [c["name"] for c in out["preservation"] if not c["passed"]]
    if failed:
        problems.append(f"preservation checks failed: {failed}")
    for k, t in enumerate(terms):
        omega = [Fraction(w) for w in t["omega"]]
        if sum(omega) != 1:
            problems.append(f"term {k}: omega does not sum to 1")
        _check_float(f"term {k} entropy", t["entropy"], _entropy(omega), "from omega", problems)
        if sum(t["divisor"]["sizes"]) != t["order"]:
            problems.append(f"term {k}: divisor sizes do not sum to the order")
        if t["cyclomatic_number"] != t["size"] - t["order"] + 1:
            problems.append(f"term {k}: cyclomatic number is not m - n + 1")
        _check_float(f"term {k} rho_divisor", t["rho_divisor"], t["rho_adjacency"], "rho_adjacency", problems)
    if golden is not None:
        _compare_views(golden_view("sequence", out), golden, "", problems)
    return problems


CHECKS = {"analyze": check_analyze, "compare": check_compare, "sequence": check_sequence}


def check_output(op: dict, stdout: str, golden: dict | None) -> list[str]:
    """Problems with one op's JSON answer; an empty list means it is correct."""
    try:
        out = json.loads(stdout)
        return CHECKS[op["kind"]](out, op, golden)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed answer: {type(exc).__name__}: {exc}"]
