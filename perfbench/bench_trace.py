"""Traced run: time each orbigraph layer from outside, one public call at a time.

For every op the automorphism cache is cleared first and
``automorphism_group`` is called before anything else, so the IR search
cost lands in ``aut.search`` and every later layer runs warm, whatever
order the CLI itself would use.  Spans (name, start, end, parent, op) are
kept in memory and written out when the run ends.

A span is marked ``path`` when the CLI command of the op makes that call
itself; ``cli.overhead`` is ``cli.main`` minus those spans.  The calls off
the path are ``aut.refine`` from the unit partition, ``constructions``
building an analyze or compare op's graphs, and the per-term layers of a
sequence op, which the CLI makes inside ``analyze_term``.  A layer that no
op of a workload calls reads 0 on that workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import time
from pathlib import Path

from bench_workloads import SEQUENCE_COUNT, WORKLOADS, build_workload
from orbigraph import cli
from orbigraph.aut import automorphism_group, equitable_refinement, orbit_partition
from orbigraph.graph_core import cyclomatic_number, degree_stats, is_connected, parse_edge_list
from orbigraph.orbital import orbit_divisor_matrix, orbit_profile, orbitally_similar
from orbigraph.sequences import SequenceSpec, analyze_term, generate, verify_self_similar
from orbigraph.spectral import spectral_radius_adjacency, spectral_radius_divisor

# Layers whose spans do not overlap one another; shares are taken over these.
# aut.refine repeats part of aut.search, and analyze_term and cli.main are
# composites of the others.
LEAF_LAYERS = ("graph_core.parse", "graph_core.invariants", "constructions.build", "aut.search",
               "orbital.divisor", "orbital.profile", "orbital.similar", "spectral.adjacency",
               "spectral.divisor", "sequences.generate", "sequences.verify")
LAYERS = LEAF_LAYERS + ("aut.refine", "sequences.analyze_term", "cli.main")


class Tracer:
    """In-memory span recorder with an explicit parent stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int | None, path: bool = False):
        record = {"id": len(self.spans), "name": name, "op": op, "path": path,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "error": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, op: int | None, path: bool, fn, *args, **kwargs):
        """Time one layer call; a refusal (ValueError) is recorded, not raised."""
        with self.span(name, op, path) as record:
            try:
                return fn(*args, **kwargs)
            except ValueError as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
                return None


def _invariants(graph) -> tuple:
    return is_connected(graph), degree_stats(graph), cyclomatic_number(graph)


def _search_all(tracer: Tracer, i: int, graphs: list, path: bool) -> dict:
    """Cold IR search on each graph, then refinement from the unit partition."""
    counts = {"generators": 0, "orbit_cells": 0}
    for g in graphs:
        group = tracer.call("aut.search", i, path, automorphism_group, g)
        counts["generators"] += len(group.generators)
        counts["orbit_cells"] += len(group.orbits)
    for g in graphs:
        tracer.call("aut.refine", i, False, equitable_refinement, g)
    return counts


def _per_graph_layers(tracer: Tracer, i: int, g, path: bool) -> None:
    tracer.call("orbital.divisor", i, path, orbit_divisor_matrix, g)
    tracer.call("orbital.profile", i, path, orbit_profile, g)
    tracer.call("spectral.adjacency", i, path, spectral_radius_adjacency, g, partition=orbit_partition(g))
    tracer.call("spectral.divisor", i, path, spectral_radius_divisor, orbit_divisor_matrix(g))


def _trace_layers(tracer: Tracer, i: int, op) -> dict:
    if op.kind == "sequence":
        spec = SequenceSpec.loads(Path(op.files[0]).read_text(encoding="ascii"))
        terms = tracer.call("sequences.generate", i, True, generate, spec, SEQUENCE_COUNT)
        counts = _search_all(tracer, i, terms, True)
        for g in terms:
            tracer.call("graph_core.invariants", i, False, _invariants, g)
            _per_graph_layers(tracer, i, g, False)
        tracer.call("sequences.verify", i, True, verify_self_similar, terms)
        for g in terms:
            tracer.call("sequences.analyze_term", i, True, analyze_term, g)
        return counts
    graphs = [tracer.call("graph_core.parse", i, True, parse_edge_list, Path(f).read_text(encoding="ascii"))
              for f in op.files]
    tracer.call("constructions.build", i, False, op.build)
    for g in graphs:
        tracer.call("graph_core.invariants", i, True, _invariants, g)
    counts = _search_all(tracer, i, graphs, True)
    if op.kind == "compare":
        tracer.call("orbital.similar", i, True, orbitally_similar, *graphs)
        for g in graphs:
            tracer.call("orbital.profile", i, True, orbit_profile, g)
    else:
        _per_graph_layers(tracer, i, graphs[0], True)
    return counts


def _cli_main(tracer: Tracer, i: int, argv: list[str]) -> None:
    automorphism_group.cache_clear()
    sink = io.StringIO()
    with tracer.span("cli.main", i) as record, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        record["exit"] = cli.main(list(argv))


def trace_ops(ops: list) -> tuple[list[dict], list[dict]]:
    """Trace every op; returns (spans, one row of layer times per op)."""
    tracer = Tracer()
    rows = []
    for i, op in enumerate(ops):
        with tracer.span("op", i):
            automorphism_group.cache_clear()
            counts = _trace_layers(tracer, i, op)
            _cli_main(tracer, i, op.argv)
        mine = [s for s in tracer.spans if s["op"] == i and s["name"] != "op"]
        row = {"op": op.name, **{f"{layer}_s": 0.0 for layer in LAYERS}, **counts}
        for s in mine:
            row[f"{s['name']}_s"] += s["end"] - s["start"]
        row["on_path_s"] = sum(s["end"] - s["start"] for s in mine if s["path"])
        row["cli.overhead_s"] = row["cli.main_s"] - row["on_path_s"]
        row["errors"] = sorted({s["error"] for s in mine if s["error"]})
        rows.append(row)
    return tracer.spans, rows


def layer_totals(rows: list[dict]) -> dict[str, float]:
    """Workload totals of every layer time and count, with aut and spectral shares."""
    keys = [f"{layer}_s" for layer in LAYERS] + ["cli.overhead_s"]
    totals = {k: sum(r[k] for r in rows) for k in keys}
    leaf = sum(totals[f"{layer}_s"] for layer in LEAF_LAYERS)
    totals["aut.share"] = totals["aut.search_s"] / leaf
    totals["spectral.share"] = (totals["spectral.adjacency_s"] + totals["spectral.divisor_s"]) / leaf
    totals["aut.generators"] = sum(r["generators"] for r in rows)
    totals["aut.orbit_cells"] = sum(r["orbit_cells"] for r in rows)
    return totals


def main() -> int:
    """Trace a workload's ops in this process; write spans.json and layers.json under --out."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    ops = build_workload(args.workload, args.seed, args.out / "inputs")
    spans, rows = trace_ops(ops)
    (args.out / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    layers = {"rows": rows, "totals": layer_totals(rows)}
    (args.out / "layers.json").write_text(json.dumps(layers), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
