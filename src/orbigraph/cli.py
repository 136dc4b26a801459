"""Command-line front end: analyze, compare, generate, sequence, demo.

Arguments: orbigraph [-h | --help | --version] COMMAND [ARGS].  A command
takes its positionals and long options in any order: --opt value or
--opt=value, a flag alone.  An option's value may not start with "--"
unless given as --opt=value.  "--" ends the options, so every argument after
it is positional.  Options are not abbreviated, and -h is the only short one.

Exit codes: 0 success (or similar, for compare); 1 dissimilar; 2 usage,
parse or parameter error, or an output that cannot be written; 3
disconnected input; 4 resource cap exceeded or spectral certificate
failure; 5 sequence verification failure.  JSON output carries no
timestamps unless --meta is given, so identical inputs produce
byte-identical output.

A run ends once its output is flushed: the process exits through os._exit
with the exit code, so the interpreter's teardown is skipped and no atexit
handler of another library runs; every file a command writes is closed by
then.  A stdout that cannot be written ends the run with one "error: cannot
write stdout: ..." line and exit 2, and an unexpected error in its traceback
and exit 1.  In-process, main() returns the exit code and never ends the
process; run() is the process entry.
"""

from __future__ import annotations

import errno
import os
import re
import sys
from fractions import Fraction
from itertools import chain, repeat
from types import SimpleNamespace
from typing import Callable, NamedTuple

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

VERTEX_CAP = 2000

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
        with open(path, encoding="ascii") as f:
            return f.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise CliError(f"{path}: not ASCII text (byte {byte:#04x} at offset {exc.start})", EXIT_PARSE) from exc


def _write_ascii(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as f:
            f.write(text)
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


def _require_desk_scale(n: int, name: str = "graph") -> None:
    """Exit 4 above VERTEX_CAP.  An input graph is checked on the n of its
    header, before the parser builds its n adjacency rows."""
    if n > VERTEX_CAP:
        raise CliError(f"{name} has {n} vertices, above the supported cap {VERTEX_CAP}", EXIT_RESOURCE)


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
    """The text of obj at the nesting given by indent, in pieces: each key
    and scalar as _scalar writes it; a list of exact ints (bools excluded),
    a list of strings, or a list of nonempty lists of exact ints as one
    piece; and a divisor matrix one row of entries per piece."""
    if isinstance(obj, DivisorMatrix):
        yield from _matrix_pieces(obj, indent)
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, value in obj.items():
            yield sep + _string(key) + ": "
            yield from _pieces(value, inner)
            sep = "," + inner
        yield indent + "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        inner = indent + "  "
        types = set(map(type, obj))
        if types == {int}:
            yield "[" + inner + ("," + inner).join(map(str, obj)) + indent + "]"
            return
        if types == {str}:
            strings = map(str.translate, obj, repeat(_ESCAPES))
            yield "[" + inner + '"' + ('",' + inner + '"').join(strings) + '"' + indent + "]"
            return
        if types <= {list, tuple} and all(obj) and set(map(type, chain.from_iterable(obj))) == {int}:
            # Each list's items are joined in C, then the lists themselves.
            deeper = inner + "  "
            lists = map(("," + deeper).join, map(map, repeat(str), obj))
            between = inner + "]," + inner + "[" + deeper
            yield "[" + inner + "[" + deeper + between.join(lists) + inner + "]" + indent + "]"
            return
        sep = "[" + inner
        for x in obj:
            yield sep
            yield from _pieces(x, inner)
            sep = "," + inner
        yield indent + "]"
    else:
        yield _scalar(obj)


class _Escapes(dict):
    """The str.translate table of a JSON string as json.dumps writes it with
    ensure_ascii: the printable ASCII characters stand for themselves, '"'
    and the backslash are escaped, so are the characters with a short escape,
    and every other character is \\uXXXX, past U+FFFF the UTF-16 surrogate pair."""

    def __missing__(self, code: int) -> str:
        if code > 0xFFFF:
            code -= 0x10000
            return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
        return f"\\u{code:04x}"


_ESCAPES = _Escapes({code: chr(code) for code in range(0x20, 0x7F)})
_ESCAPES.update({ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')})
_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _string(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


def _scalar(x) -> str:
    """A JSON scalar as json.dumps writes it; an int also past str()'s digit limit."""
    if isinstance(x, str):
        return _string(x)
    if x is None or isinstance(x, bool):
        return _CONSTANTS[x]
    if isinstance(x, int):
        return _digits(x)
    if isinstance(x, float):
        text = float.__repr__(x)
        return _FLOATS.get(text, text)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


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


def cmd_analyze(args: SimpleNamespace) -> int:
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


def cmd_compare(args: SimpleNamespace) -> int:
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


def _family_params(args: SimpleNamespace) -> dict:
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


def cmd_generate(args: SimpleNamespace) -> int:
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


def cmd_sequence(args: SimpleNamespace) -> int:
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


def cmd_demo(args: SimpleNamespace) -> int:
    if args.name != "table1":
        raise CliError(f"unknown demo {args.name!r} (available: table1)", EXIT_PARSE)
    print(f"{'row':>3}  {'omega':<22} {'computed':>9}  {'reference':>9}")
    for i, (omega, expected) in enumerate(TABLE1_ROWS, start=1):
        value = entropy_of(omega)
        vec = ",".join(frac_str(w) for w in omega)
        print(f"{i:>3}  {vec:<22} {value:>9.4f}  {expected:>9.4f}")
    return EXIT_OK


class _Arg(NamedTuple):
    """A positional, or the long option --name.  kind is bool for a flag,
    else int, str or the tuple of the values the argument may take."""

    name: str
    kind: object = str
    default: object = None
    help: str = ""


class _Command(NamedTuple):
    handler: Callable[[SimpleNamespace], int]
    help: str
    positionals: tuple[_Arg, ...]
    options: tuple[_Arg, ...]
    epilog: str = ""


_FORMAT = _Arg("format", ("edgelist", "graph6"), "edgelist")
_FAMILIES = cons.family_names()
_JSON = _Arg("json", bool, False)
_META = _Arg("meta", bool, False, help="add provenance to JSON output")

# The command line: each command's handler, its positionals in order and its options.
COMMANDS = {
    "analyze": _Command(cmd_analyze, "orbit structure and invariants of one graph", (_Arg("path"),), (
        _FORMAT, _JSON, _Arg("dot", help="write DOT with orbit coloring"), _META,
    )),
    "compare": _Command(cmd_compare, "decide orbital similarity of two graphs", (_Arg("path_a"), _Arg("path_b")),
                        (_FORMAT, _JSON, _META)),
    "generate": _Command(cmd_generate, "build a named family member", (
        _Arg("family", _FAMILIES, help="one of: " + ", ".join(_FAMILIES)),
    ), (
        *(_Arg(key, int) for key in ("n", "p", "q", "m")),
        _Arg("dims", help="comma-separated cycle lengths, e.g. 3,4"),
        _Arg("out", help="write the graph here, not to stdout"),
        _FORMAT,
    )),
    "sequence": _Command(cmd_sequence, "generate and verify a self-similar sequence", (_Arg("specfile"),),
                         (_Arg("count", int, 4, "the number of terms"), _JSON, _META), describe_families()),
    "demo": _Command(cmd_demo, "built-in demonstrations", (_Arg("name"),), ()),
}


def _flag(option: _Arg) -> str:
    """The option as usage and help show it, with a placeholder for its value."""
    if option.kind is bool:
        return f"--{option.name}"
    value = "{" + ",".join(option.kind) + "}" if isinstance(option.kind, tuple) else option.name.upper()
    return f"--{option.name} {value}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: orbigraph [-h] [--version] {" + ",".join(COMMANDS) + "} ..."
    cmd = COMMANDS[command]
    words = [f"[{_flag(option)}]" for option in cmd.options] + [arg.name for arg in cmd.positionals]
    return " ".join(["usage: orbigraph", command, "[-h]", *words])


def _help(command: str | None) -> str:
    """The --help text: usage, then each section a title line or a table
    row (name, help), and an epilog."""
    help_row = ("-h, --help", "show this help message and exit")
    if command is None:
        sections = [__doc__.strip(), "commands:", *((name, cmd.help) for name, cmd in COMMANDS.items()),
                    "options:", help_row, ("--version", "show the version and exit")]
    else:
        cmd = COMMANDS[command]
        sections = [cmd.help, "positional arguments:", *((arg.name, arg.help) for arg in cmd.positionals),
                    "options:", help_row, *((_flag(option), option.help) for option in cmd.options)]
        sections += [cmd.epilog] * bool(cmd.epilog)
    width = max(len(row[0]) for row in sections if isinstance(row, tuple))
    lines = [_usage(command)]
    for row in sections:
        lines += ["", row] if isinstance(row, str) else [f"  {row[0]:<{width}}  {row[1]}".rstrip()]
    return "\n".join(lines) + "\n"


def _exit(text: str):
    """Print the help or the version and exit 0."""
    sys.stdout.write(text)
    raise SystemExit(EXIT_OK)


def _refuse(command: str | None, message: str):
    """Print the usage and the error of a command line the table refuses, and exit 2."""
    prog = "orbigraph" if command is None else f"orbigraph {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def _parse(argv: list[str]) -> tuple[_Command, SimpleNamespace]:
    """The command argv names and its arguments by name.  A help request or
    --version exits through _exit, a command line the table refuses through _refuse."""
    args = iter(argv)
    for word in args:
        if word in ("-h", "--help"):
            _exit(_help(None))
        if word == "--version":
            _exit(f"orbigraph {__version__}\n")
        if word.startswith("-"):
            _refuse(None, f"unrecognized arguments: {word}")
        if word not in COMMANDS:
            _refuse(None, f"invalid command {word!r} (choose from {', '.join(COMMANDS)})")
        return COMMANDS[word], _arguments(word, args)
    _refuse(None, "a command is required")


def _arguments(command: str, args) -> SimpleNamespace:
    """The command's positionals and options, each option at its default
    unless given."""
    cmd = COMMANDS[command]
    options = {f"--{option.name}": option for option in cmd.options}
    values = {option.name: option.default for option in cmd.options}
    words = []
    for word in args:
        if word == "--":
            words += args
        elif word in ("-h", "--help"):
            _exit(_help(command))
        elif word == "-" or not word.startswith("-"):
            words.append(word)
        else:
            flag, eq, value = word.partition("=")
            option = options.get(flag)
            if option is None:
                _refuse(command, f"unrecognized arguments: {word}")
            if option.kind is bool:
                if eq:
                    _refuse(command, f"option {flag} takes no value")
                values[option.name] = True
                continue
            if not eq:
                value = next(args, None)
                if value is None or value.startswith("--"):
                    _refuse(command, f"option {flag} needs a value")
            values[option.name] = _value(flag, option.kind, value, command)
    if len(words) < len(cmd.positionals):
        missing = ", ".join(arg.name for arg in cmd.positionals[len(words):])
        _refuse(command, f"the following arguments are required: {missing}")
    if len(words) > len(cmd.positionals):
        _refuse(command, f"unrecognized arguments: {' '.join(words[len(cmd.positionals):])}")
    for arg, word in zip(cmd.positionals, words):
        values[arg.name] = _value(arg.name, arg.kind, word, command)
    return SimpleNamespace(**values)


def _value(name: str, kind, text: str, command: str):
    """text as the value of the argument name, of the given kind."""
    if isinstance(kind, tuple):
        if text not in kind:
            _refuse(command, f"argument {name}: invalid choice: {text!r} (choose from {', '.join(kind)})")
        return text
    try:
        return kind(text)
    except ValueError:
        _refuse(command, f"argument {name}: invalid {kind.__name__} value: {text!r}")


def main(argv: list[str] | None = None) -> int:
    cmd, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return cmd.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


class _ClosedStdout:
    """sys.stdout when fd 1 was closed at start-up: a write fails as a write
    to a closed descriptor does."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    def flush(self) -> None:
        pass


def run() -> None:
    """The process entry, as the module docstring describes; it never returns.

    A SystemExit becomes its code as the interpreter makes it: None is 0, an
    int is itself, anything else is printed on stderr and is 1.  Every file
    main() opens goes through _read_ascii or _write_ascii, which turn an
    OSError into a CliError, so an OSError that reaches here is a failed
    write to stdout.
    """
    if sys.stdout is None:
        sys.stdout = _ClosedStdout()
    try:
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
            if code is None:
                code = EXIT_OK
            elif not isinstance(code, int):
                print(code, file=sys.stderr)
                code = 1
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
