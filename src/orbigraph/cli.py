"""Command-line front end: analyze, compare, generate, sequence, demo.

Exit codes: 0 success (or similar, for compare); 1 dissimilar; 2 parse or
parameter error; 3 disconnected input; 4 resource cap exceeded or spectral
certificate failure; 5 sequence verification failure.  JSON output carries
no timestamps unless --meta is given, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from itertools import compress, count
from pathlib import Path

from . import __version__
from .graph_core import (
    Graph,
    GraphFormatError,
    _g6_decode_n,
    frac_str,
    is_connected,
    parse_edge_list,
    parse_graph6,
    serialize_edge_list,
    to_dot,
    to_graph6,
)
from .orbital import DivisorMatrix, entropy_of, orbit_profile, orbitally_similar
from .sequences import (
    SequenceSpec, SequenceSpecError, analyze_term, describe_families, generate as generate_sequence,
    preservation_report,
)
from .spectral import CertificateError
from . import constructions as cons

EXIT_OK = 0
EXIT_DISSIMILAR = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_RESOURCE = 4
EXIT_VERIFY = 5

# Reference orbit distribution vectors with their published 4-decimal entropies.
TABLE1_ROWS = (
    ((Fraction(17, 20), Fraction(2, 20), Fraction(1, 20)), 0.7476),
    ((Fraction(5, 8), Fraction(2, 8), Fraction(1, 8)), 1.2988),
    ((Fraction(2, 4), Fraction(1, 4), Fraction(1, 4)), 1.5000),
    ((Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)), 1.5219),
    ((Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)), 1.5219),
    ((Fraction(8, 20), Fraction(8, 20), Fraction(4, 20)), 1.5219),
    ((Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)), 1.5219),
    ((Fraction(4, 10), Fraction(4, 10), Fraction(2, 10)), 1.5219),
)


class CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _read_ascii(path: str) -> str:
    try:
        return Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise CliError(f"{path}: not ASCII text (byte {byte:#04x} at offset {exc.start})", EXIT_PARSE) from exc


def _write_ascii(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="ascii")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_PARSE) from exc


# A line of ASCII text, as str.splitlines cuts it.
_LINE = re.compile(r"[^\n\r\v\f\x1c-\x1e]+")


def _header_n(text: str, fmt: str) -> int:
    """The vertex count of a well-formed header, else 0: the parser reports a malformed one."""
    try:
        if fmt == "graph6":
            return _g6_decode_n(text.strip().removeprefix(">>graph6<<").strip())[0]
        lines = map(re.Match.group, _LINE.finditer(text))
        n, m = map(int, next(ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")).split())
        return n if m >= 0 else 0
    except (StopIteration, ValueError):
        return 0


def _load_graph(path: str, fmt: str) -> Graph:
    text = _read_ascii(path)
    _require_desk_scale(_header_n(text, fmt))
    try:
        return parse_edge_list(text) if fmt == "edgelist" else parse_graph6(text)
    except GraphFormatError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE) from exc


def _require_connected(graph: Graph, path: str) -> None:
    if not is_connected(graph):
        raise CliError(f"{path}: graph is disconnected", EXIT_DISCONNECTED)


def _require_desk_scale(n: int, cap: int = 2000, name: str = "graph") -> None:
    """Exit 4 above the vertex cap.  An input graph is checked on the n of
    its header, before the parser builds its n adjacency rows."""
    if n > cap:
        raise CliError(f"{name} has {n} vertices, above the supported cap {cap}", EXIT_RESOURCE)


def _with_meta(payload: dict, meta: bool) -> dict:
    if meta:
        from datetime import datetime, timezone  # only here: it costs every other run start-up time

        payload["meta"] = {
            "tool": f"orbigraph {__version__}",
            "generated_at": datetime.now(timezone.utc).isoformat(),
        }
    return payload


def _dumps(obj, indent: str = "\n") -> str:
    """Exactly `json.dumps(obj, indent=2)` for the reports printed here.

    obj may hold str-keyed dicts, lists, tuples and JSON scalars; other
    key types are not supported.  json.dumps with an indent runs the
    pure-Python encoder, one call per item, which is most of the time of
    a large analyze, whose divisor entries are ell**2 ints, nearly all 0.
    Here a non-empty list of exact ints (bools excluded) costs one step
    per nonzero: their positions come from a C-level scan, and each run of
    zeros between them is one repetition of "0" and the separator.  Every
    other value recurses, and keys and scalars go through json.dumps itself.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = (json.dumps(key) + ": " + _dumps(value, inner) for key, value in obj.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        sep = "," + inner
        if set(map(type, obj)) == {int}:
            body = _int_items(obj, sep)
        else:
            body = sep.join(_dumps(x, inner) for x in obj)
        return "[" + inner + body + indent + "]"
    return _digits(obj) if type(obj) is int else json.dumps(obj)


_CHUNK = 10**4000


def _digits(x: int) -> str:
    """str(x), also for x >= 0 past str()'s default limit of 4,300 digits:
    a group order up to 2000! has 5,736."""
    if x < _CHUNK:
        return str(x)
    high, low = divmod(x, _CHUNK)
    return _digits(high) + str(low).zfill(4000)


def _int_items(obj: list | tuple, sep: str) -> str:
    """The items of a non-empty list of exact ints as JSON, joined by sep,
    in one step per nonzero item: each run of zeros is one repetition."""
    zero, parts, start = "0" + sep, [], 0
    for k in compress(count(), obj):
        parts += (zero * (k - start), str(obj[k]), sep)
        start = k + 1
    tail = len(obj) - start
    if tail:
        parts += (zero * (tail - 1), "0")
    else:
        parts.pop()  # the separator after the last item
    return "".join(parts)


def _matrix_row(row: tuple[tuple[int, int], ...], ell: int) -> str:
    """One row of the table's divisor matrix, each entry right-aligned in
    three columns; each run of zeros is one string repetition."""
    parts, start = [], 0
    for j, x in row:
        parts += ("   0" * (j - start), f" {x:>3}")
        start = j + 1
    parts.append("   0" * (ell - start))
    return "  [" + "".join(parts)[1:] + "]"


def _print_analysis_table(payload: dict, divisor: DivisorMatrix) -> None:
    rows = [
        ("order", payload["order"]),
        ("size", payload["size"]),
        ("orbits", " ".join("{" + ",".join(map(str, c)) + "}" for c in payload["orbits"])),
        ("group order", _digits(payload["group_order"])),
        ("omega", " ".join(payload["omega"])),
        ("entropy", f"{payload['entropy']:.4f}"),
        ("rho (adjacency)", f"{payload['rho_adjacency']:.4f}"),
        ("rho (divisor)", f"{payload['rho_divisor']:.4f}"),
        ("principal ratio", f"{payload['principal_ratio']:.4f}"),
        ("min/max degree", f"{payload['min_degree']}/{payload['max_degree']}"),
        ("average degree", payload["average_degree"]),
        ("degree variance", payload["degree_variance"]),
        ("edge-vertex ratio", payload["edge_vertex_ratio"]),
        ("density", payload["density"]),
        ("cyclomatic number", payload["cyclomatic_number"]),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    print("divisor matrix:")
    for row in divisor.rows:
        print(_matrix_row(row, divisor.ell))


def cmd_analyze(args: argparse.Namespace) -> int:
    graph = _load_graph(args.path, args.format)
    _require_connected(graph, args.path)
    record = analyze_term(graph)
    if args.dot:
        _write_ascii(args.dot, to_dot(graph, record.orbits))
    payload = record.as_dict()
    if args.json:
        print(_dumps(_with_meta(payload, args.meta)))
    else:
        _print_analysis_table(payload, record.divisor)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    a = _load_graph(args.path_a, args.format)
    b = _load_graph(args.path_b, args.format)
    for graph, path in ((a, args.path_a), (b, args.path_b)):
        _require_connected(graph, path)
    verdict = orbitally_similar(a, b)
    profile_a, profile_b = orbit_profile(a), orbit_profile(b)
    homothetic = profile_a.omega == profile_b.omega
    ent_a, ent_b = profile_a.entropy, profile_b.entropy
    payload = {**verdict.as_dict(), "homothetic": homothetic, "entropy_a": ent_a, "entropy_b": ent_b}
    if args.json:
        print(_dumps(_with_meta(payload, args.meta)))
    else:
        print(f"orbitally similar   {verdict.similar}")
        print(f"orbitally homothetic {homothetic}")
        print(f"entropy             {ent_a:.4f} vs {ent_b:.4f}")
        if verdict.similar:
            print(f"witness             {list(verdict.witness)}")
    return EXIT_OK if verdict.similar else EXIT_DISSIMILAR


def _family_params(args: argparse.Namespace) -> dict:
    params: dict = {}
    if args.dims is not None:
        try:
            params["dims"] = tuple(int(t) for t in args.dims.split(","))
        except ValueError as exc:
            raise CliError(f"bad --dims {args.dims!r}", EXIT_PARSE) from exc
    for key in ("n", "p", "q", "m"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    return params


def cmd_generate(args: argparse.Namespace) -> int:
    params = _family_params(args)
    try:
        # The member's order follows from its parameters: check the cap before building.
        _require_desk_scale(cons.family_order(args.family, **params), name=f"{args.family} member")
        graph = cons.family(args.family, **params)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    text = serialize_edge_list(graph) if args.format == "edgelist" else to_graph6(graph) + "\n"
    if args.out:
        _write_ascii(args.out, text)
        print(f"wrote {args.family}: order {graph.n}, size {graph.m} -> {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _print_sequence_table(report) -> None:
    header = f"{'k':>2}  {'|G|':>5}  {'size':>5}  {'omega':<24} {'Ent':>8}  {'rho':>8}  {'gamma':>8}  {'c':>4}"
    print(header)
    for k, t in enumerate(report.terms, start=1):
        omega = ",".join(frac_str(w) for w in t.omega)
        print(
            f"{k:>2}  {t.order:>5}  {t.size:>5}  {omega:<24} "
            f"{t.entropy:>8.4f}  {t.rho_adjacency:>8.4f}  {t.principal_ratio:>8.4f}  {t.cyclomatic_number:>4}"
        )
    print(f"self-similar: {report.verdict.self_similar}")
    for check in report.preservation:
        status = "ok" if check.passed else f"FAIL {check.detail}"
        print(f"  {check.name:<20} {status}")


def cmd_sequence(args: argparse.Namespace) -> int:
    text = _read_ascii(args.specfile)
    try:
        # ValueError covers malformed JSON, a bad spec and an integer of more
        # digits than int() converts.
        spec = SequenceSpec.loads(text)
    except ValueError as exc:
        raise CliError(f"{args.specfile}: {exc}", EXIT_PARSE) from exc
    except RecursionError as exc:
        raise CliError(f"{args.specfile}: spec nested too deeply", EXIT_PARSE) from exc
    try:
        # Each term's order follows from the spec: check the cap before building.
        for k in range(args.count):
            _require_desk_scale(spec.order(k), name=f"term {k}")
        graphs = generate_sequence(spec, args.count)
    except SequenceSpecError as exc:
        raise CliError(f"{args.specfile}: {exc}", EXIT_PARSE) from exc
    except RecursionError as exc:
        raise CliError(f"{args.specfile}: spec nested too deeply", EXIT_PARSE) from exc
    report = preservation_report(graphs)
    if args.json:
        print(_dumps(_with_meta(report.as_dict(), args.meta)))
    else:
        _print_sequence_table(report)
    if not report.verdict.self_similar:
        print(f"verification failed: {report.verdict.reason}", file=sys.stderr)
        return EXIT_VERIFY
    failed = report.failed_checks()
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    if args.name != "table1":
        raise CliError(f"unknown demo {args.name!r} (available: table1)", EXIT_PARSE)
    print(f"{'row':>3}  {'omega':<22} {'computed':>9}  {'reference':>9}")
    for i, (omega, expected) in enumerate(TABLE1_ROWS, start=1):
        value = entropy_of(omega)
        vec = ",".join(frac_str(w) for w in omega)
        print(f"{i:>3}  {vec:<22} {value:>9.4f}  {expected:>9.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orbigraph", description=__doc__)
    parser.add_argument("--version", action="version", version=f"orbigraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="orbit structure and invariants of one graph")
    p.add_argument("path")
    p.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", metavar="OUT", help="write DOT with orbit coloring")
    p.add_argument("--meta", action="store_true", help="add provenance to JSON output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="decide orbital similarity of two graphs")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    p.add_argument("--json", action="store_true")
    p.add_argument("--meta", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("generate", help="build a named family member")
    p.add_argument("family", choices=cons.family_names())
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--dims", help="comma-separated cycle lengths, e.g. 3,4")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sequence", help="generate and verify a self-similar sequence", epilog=describe_families(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("specfile")
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.add_argument("--meta", action="store_true")
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("name")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
