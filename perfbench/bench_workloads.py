"""The benchmark's workloads: fixed CLI operations over generated inputs.

Each workload is a list of operations, one CLI subprocess each.  Inputs are
written as files before any timing starts.  Every operation carries the
facts the benchmark knows about its answer without asking the code under
test: closed forms, the exact edge list it wrote, and symmetries it built in.
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import bench_inputs as bi
from orbigraph import constructions as cons
from orbigraph.graph_core import Graph
from orbigraph.sequences import SequenceSpec, generate

WORKLOADS = ("families", "rigid", "slow-mixing")

# Sequence specs of the families workload: name -> (spec, (order, size) of term k).
SEQUENCE_SPECS = {
    "generalized-sun": (
        {"family": "generalized-sun", "p": 3, "q": 2, "start": 20},
        lambda k: (5 * (20 + k), 7 * (20 + k)),
    ),
    "loaded-multi-torus-m3": (
        {"family": "loaded-multi-torus", "q": 2, "m": 3, "r": 2,
         "schedule": [[3, 4], [4, 4], [4, 5], [5, 5], [5, 6]]},
        lambda k: (7 * [12, 16, 20, 25, 30][k], 8 * [12, 16, 20, 25, 30][k]),
    ),
    "corona-family": (
        {"family": "corona-family", "p": 3, "q": 2, "base": {"family": "cycles", "start": 12}},
        lambda k: (7 * (12 + k), 13 * (12 + k)),
    ),
    # The paper's loaded cycles with pendant paths of length 12: 13 orbits of
    # equal size, which the similarity search rejects today (exit 2).
    "loaded-multi-torus-m12": (
        {"family": "loaded-multi-torus", "q": 1, "m": 12, "r": 1, "schedule": [3, 4, 5, 6, 7]},
        lambda k: (13 * (3 + k), 13 * (3 + k)),
    ),
}
SEQUENCE_COUNT = 5

# Ops that a known defect makes refuse (exit 2) at the benchmark's first
# commit: such a run counts as failed but is still timed.
KNOWN_EXIT = {"sequence loaded-multi-torus-m12": 2, "compare cubic(300) relabelled(cubic(300))": 2}


@dataclass
class Op:
    """One CLI invocation with what the benchmark knows about its answer."""

    name: str
    kind: str  # analyze | compare | sequence
    argv: list[str]
    expected_exit: int
    build: Callable[[], list[Graph]]  # the op's graphs, built through the library
    files: list[str]  # the input files the op reads
    facts: dict = field(default_factory=dict)
    known_exit: int | None = None  # see KNOWN_EXIT


def _path_orbits(dims: tuple[int, ...]) -> list[list[int]]:
    """Orbits of a Cartesian product of distinct paths (labels as in
    constructions.cartesian_product): Aut is generated by the reflections
    of the factors, because distinct trees are Cartesian-prime."""
    n = math.prod(dims)
    seen: dict[tuple[int, ...], list[int]] = {}
    for v in range(n):
        coords, rest = [], v
        for size in reversed(dims):
            coords.append(rest % size)
            rest //= size
        coords.reverse()
        key = tuple(min(c, size - 1 - c) for c, size in zip(coords, dims))
        seen.setdefault(key, []).append(v)
    return sorted(seen.values(), key=lambda c: (-len(c), c[0]))


def _path_perron(n: int) -> tuple[float, float]:
    """rho(P_n) = 2cos(pi/(n+1)); the Perron vector is sin(k pi/(n+1))."""
    if n == 1:
        return 0.0, 1.0
    xs = [math.sin(k * math.pi / (n + 1)) for k in range(1, n + 1)]
    return 2 * math.cos(math.pi / (n + 1)), max(xs) / min(xs)


def _product_perron(dims: tuple[int, ...]) -> tuple[float, float]:
    """Spectral radii add and Perron vectors multiply over a Cartesian product."""
    rho, gamma = 0.0, 1.0
    for d in dims:
        r, g = _path_perron(d)
        rho += r
        gamma *= g
    return rho, gamma


def _families_graphs():
    return [
        ("cycle_with_cliques(50,3,2)", lambda: cons.cycle_with_cliques(50, 3, 2),
         {"group_order": 2 * 50 * 8**50, "orbit_sizes": [200, 50]}),
        ("generalized_sun(60,2)", lambda: cons.generalized_sun(60, 2),
         {"group_order": 2 * 60 * 2**60, "orbit_sizes": [120, 60]}),
        # Aut(C8 x C8) has order 8 * 8^2, and each of the 64 loads swaps its 2 branches.
        ("loaded_torus((8,8),2,3)", lambda: cons.loaded_torus((8, 8), 2, 3),
         {"group_order": 8 * 64 * 2**64, "orbit_sizes": [128, 128, 128, 64]}),
        ("torus((20,25))", lambda: cons.torus((20, 25)),
         {"group_order": 2000, "orbit_sizes": [500], "rho": 4.0, "principal_ratio": 1.0}),
        ("corona(cycle(20),disjoint_cliques(2,3))",
         lambda: cons.corona(cons.cycle(20), cons.disjoint_cliques(2, 3)),
         {"group_order": 40 * 72**20, "orbit_sizes": [120, 20]}),
        ("crossed_prism(200)", lambda: cons.crossed_prism(200),
         {"orbit_sizes": [400], "rho": 3.0, "principal_ratio": 1.0}),
    ]


def _slow_mixing_graphs():
    out = []
    for name, build, dims in (
        ("path(300)", lambda: cons.path(300), (300,)),
        ("path(400)", lambda: cons.path(400), (400,)),
        ("prism(path(150))", lambda: cons.prism(cons.path(150)), (150, 2)),
        ("cartesian_product(path(5),path(80))", lambda: cons.cartesian_product(cons.path(5), cons.path(80)), (5, 80)),
    ):
        rho, gamma = _product_perron(dims)
        # The shifted power iteration misses the principal ratio of the long
        # paths by about 2e-9 (relative) today; up to inaccurate_band such a
        # miss fails the op without counting its answer as wrong.
        facts = {"group_order": 2 ** sum(d > 1 for d in dims), "orbits": _path_orbits(dims),
                 "rho": rho, "principal_ratio": gamma, "inaccurate_band": 1e-6}
        out.append((name, build, facts))
    return out


def _write_graph(directory: Path, stem: str, graph: Graph) -> Path:
    path = directory / f"{stem}.edges"
    bi.write_edge_list(path, graph.n, graph.edges)
    return path


def _stem(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name).strip("_")


def _analyze_op(directory: Path, name: str, build: Callable[[], Graph], facts: dict) -> Op:
    path = _write_graph(directory, _stem(name), build())
    return Op(f"analyze {name}", "analyze", ["analyze", "--json", str(path)], 0,
              lambda: [build()], [str(path)], facts)


def _sequence_op(directory: Path, name: str) -> Op:
    spec, shape = SEQUENCE_SPECS[name]
    path = directory / f"sequence_{_stem(name)}.json"
    path.write_text(json.dumps(spec, sort_keys=True) + "\n", encoding="ascii")
    facts = {"terms": [shape(k) for k in range(SEQUENCE_COUNT)]}
    return Op(f"sequence {name}", "sequence",
              ["sequence", "--json", "--count", str(SEQUENCE_COUNT), str(path)], 0,
              lambda: generate(SequenceSpec.from_dict(spec), SEQUENCE_COUNT), [str(path)], facts)


def build_workload(workload: str, seed: int, directory: Path) -> list[Op]:
    """Write the workload's inputs under directory and return its operations.

    Only the rigid workload draws on the seed; the families and slow-mixing
    inputs are fixed constructions, so their golden answers apply to every seed.
    """
    ops = _build_ops(workload, seed, directory)
    for op in ops:
        op.known_exit = KNOWN_EXIT.get(op.name)
    return ops


def _build_ops(workload: str, seed: int, directory: Path) -> list[Op]:
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "families":
        ops = [_analyze_op(directory, *g) for g in _families_graphs()]
        a, b = cons.loaded_torus((6, 8), 2, 3), cons.loaded_torus((8, 8), 2, 3)
        pa = _write_graph(directory, "compare_loaded_torus_6_8", a)
        pb = _write_graph(directory, "compare_loaded_torus_8_8", b)
        ops.append(Op("compare loaded_torus((6,8),2,3) loaded_torus((8,8),2,3)", "compare",
                      ["compare", "--json", str(pa), str(pb)], 0,
                      lambda: [cons.loaded_torus((6, 8), 2, 3), cons.loaded_torus((8, 8), 2, 3)],
                      [str(pa), str(pb)], {"similar": True, "homothetic": True}))
        ops.extend(_sequence_op(directory, name) for name in SEQUENCE_SPECS)
        return ops
    if workload == "slow-mixing":
        return [_analyze_op(directory, *g) for g in _slow_mixing_graphs()]
    if workload == "rigid":
        return _rigid_ops(seed, directory)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def _rigid_ops(seed: int, directory: Path) -> list[Op]:
    ops = []
    cubic = {n: bi.cubic_graph(seed, n) for n in (300, 400, 500)}
    for n, edges in cubic.items():
        path = directory / f"cubic_{n}.edges"
        bi.write_edge_list(path, n, edges)
        ops.append(Op(f"analyze cubic({n})", "analyze", ["analyze", "--json", str(path)], 0,
                      lambda n=n, edges=edges: [Graph.from_edges(n, edges)], [str(path)],
                      {"rigid": True, "rho": 3.0, "principal_ratio": 1.0}))
    # The relabelled copy is orbitally similar to the original; since the graph
    # is rigid, the only witness is the inverse of the relabelling.
    image = bi.relabelling(seed, 300)
    relabelled = bi.relabel_edges(cubic[300], image)
    pa = directory / "cubic_300.edges"
    pb = directory / "cubic_300_relabelled.edges"
    bi.write_edge_list(pb, 300, relabelled)
    ops.append(Op("compare cubic(300) relabelled(cubic(300))", "compare",
                  ["compare", "--json", str(pa), str(pb)], 0,
                  lambda: [Graph.from_edges(300, cubic[300]), Graph.from_edges(300, cubic[300]).relabel(image)],
                  [str(pa), str(pb)],
                  {"similar": True, "homothetic": True, "rigid": True, "relabelling": image}))
    return ops


def manifest(ops: list[Op]) -> list[dict]:
    """The ops as plain data, for the measuring process, which imports no orbigraph."""
    return [{k: v for k, v in asdict(op).items() if k != "build"} for op in ops]


def main() -> int:
    """Write a workload's inputs and its op manifest (manifest.json) under --out.

    Needs the repository's src/ on PYTHONPATH, as run.py sets it.
    """
    import numpy

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    ops = build_workload(args.workload, args.seed, args.out / "inputs")
    data = {"numpy": numpy.__version__, "ops": manifest(ops)}
    (args.out / "manifest.json").write_text(json.dumps(data), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
