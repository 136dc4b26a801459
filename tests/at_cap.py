"""The at-cap corpus: CLI ops on inputs at or near the 2000-vertex cap,
each checked against its closed form and timed.

Run it from anywhere as ``python tests/at_cap.py``; it takes no arguments.
It builds every input once into a temporary directory, runs each row of
ROWS through the CLI of this checkout's ``src/``, prints one line per row,
writes BENCH_at_cap.json at the repository root and exits 1 if any row
failed.  Pytest does not collect this file; tests/test_at_cap.py tests
the table and the runner.

A row is one CLI op: its argv, expected exit, closed-form facts about its
JSON (group order, orbit count, spectral radius, the compare verdict and
witness), a time bound on every run and an optional peak-RSS bound.  Each
row makes RUNS runs, all under ``-X importtime`` and with
OPENBLAS_NUM_THREADS=1, and stops at its first failing run.  The runner
checks on every run:
  - the exit code, and the bounds;
  - stderr carries no traceback: nothing after exit 0 or 1 (a verdict),
    one "verification failed: " line after exit 5, and one "error: " line
    after any other exit;
  - numpy is imported iff the row declares it;
  - the first run's stdout against the row: the closed forms it declares,
    and JSON output is exactly ``json.dumps(json.loads(out), indent=2) + "\\n"``;
  - a later run's stdout is byte-identical to the first run's;
  - a row declaring ``same_stdout_as`` prints what that row prints (one
    graph read from graph6 and from its edge list).

Why a launcher: Linux keeps a process's peak RSS across exec, and a child
starts out at its parent's size, so a child of this runner, which holds
every input, could never read below the runner.  Every op is therefore
started by a small ``python -S`` launcher (LAUNCHER) with os.posix_spawn
and read with os.wait4, which gives that op's own wall time and ru_maxrss.
The launcher also kills an op that runs a second past twice its time bound.

BENCH_at_cap.json holds, per row, its argv, the exit code, the median wall
time of its runs, their largest peak RSS, both bounds and any failures,
plus the Python and numpy versions.  It is committed, so its git history is
the corpus's trajectory of answers and bounds.  Two runs of the corpus on a
shared host cannot resolve a change of a few tens of per cent, so a change
to a hot path quotes alternating CLI runs of parent and change on the rows
it touches.
"""

from __future__ import annotations

import json
import math
import platform
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from functools import cache
from importlib.metadata import version
from itertools import combinations
from math import factorial
from pathlib import Path
from random import Random
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench_inputs as bi  # noqa: E402
from helpers import (  # noqa: E402
    cfi_graph, generalized_petersen, paley, relabelled, rigid_cubic, triangular, two_hamiltonian_cycles,
)
from orbigraph import constructions as cons  # noqa: E402
from orbigraph.graph_core import Graph, serialize_edge_list, to_graph6  # noqa: E402

RUNS = 4
# A declared rho must match both printed radii to this relative distance,
# far inside the certificate's 1e-10.
RHO_TOL = 1e-12
ENV = {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
CLI = ("-m", "orbigraph.cli")

# argv: workdir, stdout file, stderr file, seconds before the op is killed,
# then the op's own argv.  Prints the op's exit code, wall seconds and
# ru_maxrss (KiB).
LAUNCHER = """\
import os, signal, sys, time
workdir, out, err, limit, *argv = sys.argv[1:]
os.chdir(workdir)
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
files = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=files)
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.setitimer(signal.ITIMER_REAL, float(limit))
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss)
"""


# Inputs, by file name: each builder returns the file's text.  Intermediate
# graphs are cached, so each is built once per corpus run.


@cache
def _cubic(seed: int, n: int) -> Graph:
    return Graph.from_edges(n, bi.cubic_graph(seed, n))


def _inverse(image: list[int]) -> tuple[int, ...]:
    inverse = [0] * len(image)
    for v, w in enumerate(image):
        inverse[w] = v
    return tuple(inverse)


@cache
def _pendant() -> Graph:
    """cubic_graph(11, 1800) with paths of 1-3 vertices hung at 90 of its
    vertices, Random(5): rigid, 1,977 vertices."""
    edges, rng, n = bi.cubic_graph(11, 1800), Random(5), 1800
    for host in rng.sample(range(1800), 90):
        for _ in range(rng.randint(1, 3)):
            edges.append((host, n))
            host, n = n, n + 1
    return Graph.from_edges(n, edges)


def _near_regular() -> Graph:
    """The union of two Hamiltonian cycles, each a shuffle of range(2000) by
    one Random(3) in turn: 3,998 edges, degrees 3 and 4, rigid."""
    return two_hamiltonian_cycles(Random(3), 2000)


def _clique_with_path(k: int, length: int) -> Graph:
    """K_k with a path of `length` further vertices hung at vertex 0."""
    edges = [*combinations(range(k), 2), (0, k), *((v, v + 1) for v in range(k, k + length - 1))]
    return Graph.from_edges(k + length, edges)


# The symmetric inputs, by file stem: the name their rows give them, the
# time and peak-RSS bounds of their compare rows and their builder.  Each is
# compared against a seeded relabelling, and those whose compare takes under
# 1 s against a second one (_RELABELLINGS).  The RSS bounds hold the IR
# search to one partition per search: a partition kept per level of
# crossed_prism(1000)'s 500-level first path read 49 MB, and CFI 24-25 MB.
_SYMMETRIC = {
    "cfi200": ("CFI(cubic(11, 200))", 60, 22, lambda: cfi_graph(sorted(_cubic(11, 200).edges))),
    "cfi200_gadget": ("CFI(cubic(11, 200)) by gadget", 60, None, lambda: cfi_graph(sorted(_cubic(11, 200).edges), by_gadget=True)),
    "cfi_ladder": ("CFI(circular_ladder(100)) by gadget", 60, None, lambda: cfi_graph(sorted(cons.circular_ladder(100).edges), by_gadget=True)),
    # 1,984 vertices, 199 orbits.  Its cell digraph has an automorphism of
    # order 2, so the search of the two cell digraphs' union in
    # similar_divisors has more than a single leaf.
    "cfi_prism": ("CFI(prism(path(100))) by gadget", 20, None, lambda: cfi_graph(sorted(cons.prism(cons.path(100)).edges), by_gadget=True)),
    "gp1000_33": ("GP(1000, 33)", 60, None, lambda: generalized_petersen(1000, 33)),
    "cp1000": ("crossed_prism(1000)", 60, 30, lambda: cons.crossed_prism(1000)),
    "t63": ("T(63)", 60, None, lambda: triangular(63)),
    "rook44": ("K44 x K44", 60, None, lambda: cons.cartesian_product(cons.complete(44), cons.complete(44))),
    "lt2000": ("loaded_torus((20, 20), 2, 2)", 60, None, lambda: cons.loaded_torus((20, 20), 2, 2)),
    "cwc2000": ("cycle_with_cliques(400, 3, 2)", 60, None, lambda: cons.cycle_with_cliques(400, 3, 2)),
}
_RELABELLINGS = (*((stem, 1) for stem in _SYMMETRIC), *((stem, 2) for stem in ("gp1000_33", "cp1000", "lt2000", "cwc2000")))
_paley = cache(lambda: paley(1997))
_k2000 = cache(lambda: cons.complete(2000))


@cache
def _symmetric(stem: str) -> Graph:
    return _SYMMETRIC[stem][-1]()


class Input(NamedTuple):
    name: str
    build: Callable[[], str]


INPUTS: tuple[Input, ...] = (
    Input("path2000.edges", lambda: serialize_edge_list(cons.path(2000))),
    Input("prism1000.edges", lambda: serialize_edge_list(cons.prism(cons.path(1000)))),
    Input("p10_p200.edges", lambda: serialize_edge_list(cons.cartesian_product(cons.path(10), cons.path(200)))),
    Input("cubic2000.edges", lambda: serialize_edge_list(_cubic(11, 2000))),
    Input("cubic2000_relabelled.edges", lambda: serialize_edge_list(_cubic(11, 2000).relabel(bi.relabelling(11, 2000)))),
    Input("cubic12_2000.edges", lambda: serialize_edge_list(_cubic(12, 2000))),
    Input("pendant.edges", lambda: serialize_edge_list(_pendant())),
    Input("pendant_relabelled.edges", lambda: serialize_edge_list(_pendant().relabel(bi.relabelling(11, 1977)))),
    Input("cfi150.edges", lambda: serialize_edge_list(cfi_graph(sorted(rigid_cubic(11, 150).edges)))),
    Input("cfi200_twist.edges", lambda: serialize_edge_list(cfi_graph(sorted(_cubic(11, 200).edges), twist=[0]))),
    *(Input(f"{stem}.edges", lambda stem=stem: serialize_edge_list(_symmetric(stem))) for stem in _SYMMETRIC),
    *(Input(f"{stem}_relabelled{seed}.edges", lambda stem=stem, seed=seed: serialize_edge_list(relabelled(_symmetric(stem), seed)))
      for stem, seed in _RELABELLINGS),
    Input("paley1997.edges", lambda: serialize_edge_list(_paley())),
    Input("paley1997.g6", lambda: to_graph6(_paley()) + "\n"),
    Input("paley1997_relabelled.g6", lambda: to_graph6(relabelled(_paley(), 1)) + "\n"),
    Input("k2000.edges", lambda: serialize_edge_list(_k2000())),
    Input("k2000.g6", lambda: to_graph6(_k2000()) + "\n"),
    # Faults at the end of the text, so that each is found after the rest is read.
    Input("k2000_loop.edges", lambda: serialize_edge_list(_k2000()).rsplit("\n", 2)[0] + "\n1999 1999\n"),
    Input("k2000_bad_byte.g6", lambda: to_graph6(_k2000())[:-1] + "!\n"),
    Input("near_regular.edges", lambda: serialize_edge_list(_near_regular())),
    Input("k5_path1995.edges", lambda: serialize_edge_list(_clique_with_path(5, 1995))),
    Input("sun340.json", lambda: '{"family": "generalized-sun", "p": 3, "q": 2, "start": 340}\n'),
    Input("sun300.json", lambda: '{"family": "generalized-sun", "p": 3, "q": 2, "start": 300}\n'),
    Input("loaded_cycles400.json", lambda: '{"family": "loaded-multi-torus", "q": 1, "m": 400, "r": 1, "schedule": [3, 4]}\n'),
    Input("complete.json", lambda: '{"family": "complete-graphs"}\n'),
    Input("malformed.json", lambda: '{"family": "cycles", "base": 5}\n'),
    Input("huge.json", lambda: '{"family": "cycles", "start": 1000000000000}\n'),
    Input("size-field.g6", lambda: "~?\x7f?"),
    Input("underscore.edges", lambda: "3_0 2\n0 1\n1 2\n"),
)


@dataclass(frozen=True)
class Row:
    """One CLI op and what is known of its answer.  A closed form that is
    None is not checked; the answer facts need --json in argv."""

    name: str
    argv: tuple[str, ...]
    seconds: float  # bound on every run's wall time
    rss_mb: float | None = None  # bound on every run's peak RSS
    exit: int = 0
    order: int | None = None
    orbits: int | None = None
    rho: float | None = None  # rho_adjacency and rho_divisor, within RHO_TOL
    similar: bool | None = None
    witness: tuple[int, ...] | None = None
    same_graph: bool = False  # compare of one graph relabelled: homothetic, entropies bit for bit equal
    numpy: bool = False
    stderr: str | None = None  # text the one stderr line contains
    same_stdout_as: str | None = None


def _analyze(name: str, seconds: float, *args: str, **facts) -> Row:
    return Row(name, ("analyze", "--json", *args), seconds, **facts)


def _compare(name: str, seconds: float, *args: str, **facts) -> Row:
    return Row(name, ("compare", "--json", *args), seconds, **facts)


def _relabelled_compare(stem: str, seed: int) -> Row:
    title, seconds, rss_mb, _ = _SYMMETRIC[stem]
    return _compare(f"compare {title} relabelled" + (f", seed {seed}" if seed > 1 else ""), seconds,
                    f"{stem}.edges", f"{stem}_relabelled{seed}.edges", rss_mb=rss_mb, similar=True, same_graph=True)


ROWS: tuple[Row, ...] = (
    _analyze("analyze path(2000)", 60, "path2000.edges", order=2, orbits=1000),
    # Path products at the cap: every row of their quotients' envelopes is
    # narrow, the prism's a chain row.  rho(G x H) = rho(G) + rho(H).
    _analyze("analyze prism(path(1000))", 10, "prism1000.edges", order=4, orbits=500,
             rho=1 + 2 * math.cos(math.pi / 1001)),
    _analyze("analyze cartesian_product(path(10), path(200))", 10, "p10_p200.edges", order=4, orbits=500,
             rho=2 * math.cos(math.pi / 11) + 2 * math.cos(math.pi / 201)),
    _analyze("analyze cubic(11, 2000)", 20, "cubic2000.edges", rss_mb=100, order=1, orbits=2000),
    Row("analyze cubic(11, 2000), table", ("analyze", "cubic2000.edges"), 20),
    _compare("compare cubic(11, 2000) relabelled", 20, "cubic2000.edges", "cubic2000_relabelled.edges", rss_mb=100,
             similar=True, witness=_inverse(bi.relabelling(11, 2000))),
    # Both searches end at a single leaf and the leaf map fails: no isomorphism exists.
    _compare("compare cubic(11, 2000) cubic(12, 2000)", 20, "cubic2000.edges", "cubic12_2000.edges", exit=1, similar=False),
    _analyze("analyze pendant trees (1,977)", 20, "pendant.edges", order=1, orbits=1977, numpy=True),
    _compare("compare pendant trees relabelled", 20, "pendant.edges", "pendant_relabelled.edges",
             similar=True, witness=_inverse(bi.relabelling(11, 1977))),
    _analyze("analyze cycle_with_cliques(400, 3, 2)", 60, "cwc2000.edges", order=800 * 8**400, orbits=2),
    _analyze("analyze loaded_torus((20, 20), 2, 2)", 10, "lt2000.edges", order=3200 * 2**400, orbits=3),
    _analyze("analyze crossed_prism(1000)", 60, "cp1000.edges", rss_mb=30, order=1000 * 2**500),
    Row("sequence generalized-sun from 340, 2 terms", ("sequence", "--count", "2", "sun340.json"), 60),
    Row("sequence generalized-sun from 300, 40 terms", ("sequence", "--count", "40", "sun300.json"), 60, rss_mb=150),
    # The paper's loaded cycles with 400-vertex pendant paths, 1,203 and
    # 1,604 vertices: principal ratios of about 3.4e120, which agree between
    # the terms only relative to their size.
    Row("sequence loaded cycles, m = 400, 2 terms", ("sequence", "--json", "--count", "2", "loaded_cycles400.json"), 10),
    # beta = m - n + 1 = 225 - 150 + 1 of the base
    _analyze("analyze CFI(rigid_cubic(11, 150))", 20, "cfi150.edges", order=2**76),
    _analyze("analyze CFI(cubic(11, 200))", 20, "cfi200.edges", rss_mb=22, order=2**101, orbits=800),
    # The twist is not isomorphic, but has the same divisor matrix.
    _compare("compare CFI(cubic(11, 200)) twisted", 40, "cfi200.edges", "cfi200_twist.edges", similar=True),
    _analyze("analyze CFI(cubic(11, 200)) by gadget", 20, "cfi200_gadget.edges", order=2**101, orbits=800),
    _analyze("analyze CFI(circular_ladder(100)) by gadget", 20, "cfi_ladder.edges", order=400 * 2**101, orbits=3),
    # Its root stays unsplit: its distance profiles differ only past the split's work budget.
    _analyze("analyze GP(1000, 33)", 10, "gp1000_33.edges", order=2000, orbits=2),
    _analyze("analyze T(63)", 30, "t63.edges", order=factorial(63), orbits=1),
    _analyze("analyze K44 x K44", 30, "rook44.edges", order=2 * factorial(44) ** 2, orbits=1),
    _analyze("analyze Paley(1997), graph6", 30, "--format", "graph6", "paley1997.g6", rss_mb=100, order=1997 * 998, orbits=1),
    _analyze("analyze Paley(1997), edge list", 30, "paley1997.edges", rss_mb=100, same_stdout_as="analyze Paley(1997), graph6"),
    _analyze("analyze K2000, graph6", 60, "--format", "graph6", "k2000.g6", rss_mb=100, order=factorial(2000), orbits=1),
    _analyze("analyze K2000, edge list", 60, "k2000.edges", rss_mb=150, same_stdout_as="analyze K2000, graph6"),
    _analyze("analyze near-regular rigid graph", 60, "near_regular.edges", rss_mb=115, order=1, numpy=True),
    *(_relabelled_compare(stem, seed) for stem, seed in _RELABELLINGS),
    _compare("compare Paley(1997) relabelled", 60, "--format", "graph6", "paley1997.g6", "paley1997_relabelled.g6",
             rss_mb=100, similar=True, same_graph=True),
    # Refusals.  K5 with a long path is one the CLI cannot answer yet: its
    # Perron vector leaves the float range.
    _analyze("analyze K5 with a 1,995-vertex path", 10, "k5_path1995.edges", exit=4, stderr="spans more than the float range"),
    Row("sequence complete-graphs", ("sequence", "--json", "complete.json"), 10, exit=5),
    Row("generate path(10^8)", ("generate", "path", "--n", "100000000", "--out", "big.edges"), 10, exit=4),
    Row("generate torus 1000^3", ("generate", "torus", "--dims", "1000,1000,1000", "--out", "big.edges"), 10, exit=4),
    Row("sequence malformed spec", ("sequence", "malformed.json"), 10, exit=2),
    Row("sequence over-cap term", ("sequence", "huge.json"), 10, exit=4),
    Row("analyze graph6 size byte outside ?..~", ("analyze", "--format", "graph6", "size-field.g6"), 10, exit=2),
    Row("analyze edge list headed 3_0 2", ("analyze", "underscore.edges"), 10, exit=2),
    # A faulty text is read once, in the memory of a valid one.
    Row("analyze K2000 edge list ending in a loop", ("analyze", "k2000_loop.edges"), 10, rss_mb=100, exit=2,
        stderr="loop 1999 1999 not allowed"),
    Row("analyze K2000 graph6 ending in a byte outside ?..~", ("analyze", "--format", "graph6", "k2000_bad_byte.g6"), 10,
        rss_mb=100, exit=2, stderr="invalid graph6 byte"),
)


class Run(NamedTuple):
    exit: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: str


def _launch(argv: tuple[str, ...], workdir: Path, limit: float) -> Run:
    """One op, python's argv after the interpreter, run in workdir by the
    launcher; killed after limit seconds."""
    out, err = workdir / ".stdout", workdir / ".stderr"
    launcher = [sys.executable, "-S", "-c", LAUNCHER, str(workdir), str(out), str(err), str(limit), sys.executable, *argv]
    report = subprocess.run(launcher, env=ENV, capture_output=True, text=True, check=True).stdout.split()
    return Run(int(report[0]), float(report[1]), int(report[2]) / 1024, out.read_bytes(), err.read_text(errors="replace"))


def _answer_failures(row: Row, run: Run, first: Run | None = None) -> list[str]:
    """What is wrong with a run's exit, stderr, imports and stdout: the
    first run's stdout is checked against the row, a later run's against
    the first's."""
    failures = []
    if run.exit != row.exit:
        failures.append(f"exit {run.exit}, expected {row.exit}")
    imports = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines() if line.startswith("import time:")]
    if ("numpy" in imports) != row.numpy:
        failures.append("numpy not imported" if row.numpy else "numpy imported")
    lines = [line for line in run.stderr.splitlines() if not line.startswith("import time:")]
    prefix = {0: "", 1: "", 5: "verification failed: "}.get(run.exit, "error: ")
    if "Traceback" in run.stderr:
        failures.append("a traceback on stderr")
    elif lines if not prefix else not (len(lines) == 1 and lines[0].startswith(prefix) and (row.stderr or "") in lines[0]):
        failures.append(f"stderr after exit {run.exit}: {lines[:2]!r}")
    if first is not None:
        return failures if run.stdout == first.stdout else [*failures, "stdout differs from the first run's"]
    if "--json" not in row.argv or not run.stdout:
        return failures
    text = run.stdout.decode("ascii", errors="replace")
    try:
        out = json.loads(text)
    except ValueError as exc:
        return [*failures, f"stdout is not JSON: {exc}"]
    if json.dumps(out, indent=2) + "\n" != text:
        failures.append("stdout is not JSON as json.dumps(indent=2) writes it")
    expected = {"group_order": row.order, "similar": row.similar, "witness": row.witness and list(row.witness)}
    for key, value in expected.items():
        if value is not None and out.get(key) != value:
            failures.append(f"{key} is not the closed form")
    if row.orbits is not None and len(out.get("orbits", ())) != row.orbits:
        failures.append(f"{len(out.get('orbits', ()))} orbits, expected {row.orbits}")
    radii = (out.get("rho_adjacency", math.inf), out.get("rho_divisor", math.inf))
    if row.rho is not None and any(abs(radius - row.rho) > RHO_TOL * row.rho for radius in radii):
        failures.append(f"rho is not the closed form: {radii}, expected {row.rho!r}")
    if row.same_graph and not (out.get("homothetic") is True and out.get("entropy_a") == out.get("entropy_b")):
        failures.append("not homothetic with bit-equal entropies")
    return failures


def _run_row(row: Row, workdir: Path) -> tuple[dict, bytes]:
    """The row's BENCH_at_cap.json entry and its first run's stdout."""
    limit = 2 * row.seconds + 1
    runs, failures = [], []
    while len(runs) < RUNS and not failures:
        run = _launch(("-X", "importtime", *CLI, *row.argv), workdir, limit)
        failures = _answer_failures(row, run, runs[0] if runs else None)
        if run.wall_s > row.seconds:
            failures.append(f"a run took {run.wall_s:.2f} s, above {row.seconds} s")
        if row.rss_mb is not None and run.rss_mb > row.rss_mb:
            failures.append(f"peak RSS {run.rss_mb:.1f} MB, above {row.rss_mb} MB")
        runs.append(run)
    entry = {
        "name": row.name,
        "argv": list(row.argv),
        "exit": runs[0].exit,
        "wall_s": round(statistics.median(run.wall_s for run in runs), 4),
        "peak_rss_mb": round(max(run.rss_mb for run in runs), 1),
        "seconds_bound": row.seconds,
        "rss_mb_bound": row.rss_mb,
        "failures": failures,
    }
    return entry, runs[0].stdout


def run_corpus(rows: tuple[Row, ...], inputs: tuple[Input, ...]) -> list[dict]:
    """Build the inputs the rows name, once each, then run every row;
    prints a line per row."""
    builders = dict(inputs)
    entries, stdouts = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name in dict.fromkeys(arg for row in rows for arg in row.argv if arg in builders):
            (workdir / name).write_text(builders[name](), encoding="ascii")
        for row in rows:
            entry, stdouts[row.name] = _run_row(row, workdir)
            if row.same_stdout_as is not None and stdouts[row.name] != stdouts.get(row.same_stdout_as):
                entry["failures"].append(f"stdout differs from {row.same_stdout_as!r}'s")
            entries.append(entry)
            status = "FAIL" if entry["failures"] else "ok"
            print(f"{status:4} {entry['wall_s']:8.3f} s {entry['peak_rss_mb']:7.1f} MB  {row.name}", flush=True)
            for failure in entry["failures"]:
                print(f"     {failure}", flush=True)
    return entries


def main() -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # for the JSON checks: 2000! has 5,736 digits
    entries = run_corpus(ROWS, INPUTS)
    bench = {"python": platform.python_version(), "numpy": version("numpy"), "runs": RUNS, "rows": entries}
    (ROOT / "BENCH_at_cap.json").write_text(json.dumps(bench, indent=2) + "\n", encoding="ascii")
    failed = [entry["name"] for entry in entries if entry["failures"]]
    print(f"{len(entries) - len(failed)} of {len(entries)} rows ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
