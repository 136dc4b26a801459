"""Command-line front end: analyze, compare, generate, sequence, demo.

Exit codes: 0 success (or similar, for compare); 1 dissimilar; 2 parse or
parameter error, or an output that cannot be written; 3 disconnected input;
4 resource cap exceeded or spectral certificate failure; 5 sequence
verification failure.  JSON output carries no timestamps unless --meta is
given, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
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


# The writer gathers its pieces into writes of at least this many characters.
_WRITE_SIZE = 1 << 16


def _write_json(obj, write) -> None:
    """Write exactly `json.dumps(obj, indent=2) + "\n"` through write, as it is made.

    obj may hold str-keyed dicts, lists, tuples, JSON scalars and
    DivisorMatrix values; a DivisorMatrix is written as the dict
    {"ell": ell, "entries": the ell**2 entries row-major, "sizes": sizes}.
    No text is built twice and no ell**2 list exists: the pieces come from
    _pieces and go out in writes of at least _WRITE_SIZE characters, so a
    row of the matrix is never split over two writes.
    """
    buf, size = [], 0
    for piece in _pieces(obj, "\n"):
        buf.append(piece)
        size += len(piece)
        if size >= _WRITE_SIZE:
            write("".join(buf))
            buf, size = [], 0
    buf.append("\n")
    write("".join(buf))


def _pieces(obj, indent: str):
    """The text of obj at the nesting given by indent, in pieces: keys and
    scalars through json.dumps itself, a list of exact ints (bools excluded)
    as one piece, and a divisor matrix one row of entries per piece."""
    if isinstance(obj, DivisorMatrix):
        yield from _matrix_pieces(obj, indent)
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, value in obj.items():
            yield sep + json.dumps(key) + ": "
            yield from _pieces(value, inner)
            sep = "," + inner
        yield indent + "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        inner = indent + "  "
        if set(map(type, obj)) == {int}:
            yield "[" + inner + ("," + inner).join(map(str, obj)) + indent + "]"
            return
        sep = "[" + inner
        for x in obj:
            yield sep
            yield from _pieces(x, inner)
            sep = "," + inner
        yield indent + "]"
    else:
        yield _digits(obj) if type(obj) is int else json.dumps(obj)


def _matrix_pieces(dm: DivisorMatrix, indent: str):
    """The JSON dict of a divisor matrix: each row of its dense entries is
    one piece, made from the sparse row with each run of zeros one repetition."""
    inner = indent + "  "
    yield "{" + inner + f'"ell": {dm.ell},' + inner + '"entries": '
    if dm.ell:
        sep = "," + inner + "  "
        rows = (_dense(row, dm.ell, sep + "0", (sep + "{}").format) for row in dm.rows)
        yield "[" + inner + "  " + next(rows)[len(sep):]
        yield from rows
        yield inner + "]"
    else:
        yield "[]"
    yield "," + inner + '"sizes": '
    yield from _pieces(dm.sizes, inner)
    yield indent + "}"


_CHUNK = 10**4000


def _digits(x: int) -> str:
    """str(x), also for x >= 0 past str()'s default limit of 4,300 digits:
    a group order up to 2000! has 5,736."""
    if x < _CHUNK:
        return str(x)
    high, low = divmod(x, _CHUNK)
    return _digits(high) + str(low).zfill(4000)


def _dense(row: tuple[tuple[int, int], ...], ell: int, zero: str, item) -> str:
    """A sparse row of a divisor matrix as dense text: item(x) for each entry
    x and zero for each absent one, each run of zeros one string repetition.
    Each item carries the separator before it."""
    parts, start = [], 0
    for j, x in row:
        parts += (zero * (j - start), item(x))
        start = j + 1
    parts.append(zero * (ell - start))
    return "".join(parts)


def _matrix_row(row: tuple[tuple[int, int], ...], ell: int) -> str:
    """One row of the table's divisor matrix, each entry right-aligned in
    three columns."""
    return "  [" + _dense(row, ell, "   0", " {:>3}".format)[1:] + "]"


def _print_analysis_table(payload: dict) -> None:
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
    divisor = payload["divisor"]
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
        _write_json(_with_meta(payload, args.meta), sys.stdout.write)
    else:
        _print_analysis_table(payload)
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
        _write_json(_with_meta(payload, args.meta), sys.stdout.write)
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
        _write_json(_with_meta(report.as_dict(), args.meta), sys.stdout.write)
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # As the Python docs advise: no second error from the flush at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_PARSE
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
