"""Tests of the benchmark's own input generation, workloads and answer checks."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import bench_checks  # noqa: E402
import bench_inputs as bi  # noqa: E402
import bench_workloads  # noqa: E402


def _write_rigid_inputs(seed: int, directory: Path) -> dict[str, bytes]:
    edges = bi.cubic_graph(seed, 300)
    bi.write_edge_list(directory / "cubic.edges", 300, edges)
    relabelled = bi.relabel_edges(edges, bi.relabelling(seed, 300))
    bi.write_edge_list(directory / "relabelled.edges", 300, relabelled)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_files(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    assert _write_rigid_inputs(5, first) == _write_rigid_inputs(5, second)


def test_other_seed_gives_other_graph():
    assert bi.cubic_graph(5, 300) != bi.cubic_graph(6, 300)
    assert bi.relabelling(5, 300) != bi.relabelling(6, 300)


def test_cubic_graph_is_simple_connected_cubic_and_rigid():
    n = 300
    edges = bi.cubic_graph(1, n)
    assert len(set(edges)) == len(edges) == 3 * n // 2
    assert all(u < v for u, v in edges)
    adj = bi.adjacency(n, edges)
    assert all(len(nbrs) == 3 for nbrs in adj)
    assert min(bi._bfs_levels(adj, 0)) >= 0
    assert bi.certified_rigid(adj)


def test_symmetric_graphs_are_not_certified_rigid():
    cycle = [(i, (i + 1) % 12) for i in range(12)]
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] + [
        (5 + i, 5 + (i + 2) % 5) for i in range(5)
    ]
    assert not bi.certified_rigid(bi.adjacency(12, cycle))
    assert not bi.certified_rigid(bi.adjacency(10, petersen))


def test_relabelling_is_a_permutation_and_round_trips(tmp_path):
    image = bi.relabelling(3, 50)
    assert sorted(image) == list(range(50))
    path = tmp_path / "g.edges"
    edges = bi.cubic_graph(3, 50)
    bi.write_edge_list(path, 50, edges)
    assert bi.read_edge_list(path) == (50, edges)


def _path3_answer() -> dict:
    """The CLI's analyze answer for the path 0-1-2, written out by hand."""
    return {
        "order": 3, "size": 2, "orbits": [[0, 2], [1]], "group_order": 2,
        "divisor": {"ell": 2, "entries": [0, 1, 2, 0], "sizes": [2, 1]},
        "omega": ["2/3", "1/3"], "entropy": 0.9182958340544896,
        "rho_adjacency": 2 ** 0.5, "rho_divisor": 2 ** 0.5, "principal_ratio": 2 ** 0.5,
        "min_degree": 1, "max_degree": 2, "average_degree": "4/3", "degree_variance": "2/9",
        "edge_vertex_ratio": "2/3", "density": "2/3", "cyclomatic_number": 0,
    }


def test_analyze_check_accepts_a_correct_answer_and_flags_wrong_ones():
    op = {"kind": "analyze", "graphs": [(3, [(0, 1), (1, 2)])],
          "facts": {"group_order": 2, "rho": 2 ** 0.5, "principal_ratio": 2 ** 0.5}}
    assert bench_checks.CHECKS["analyze"](_path3_answer(), op, None) == []

    wrong_orbits = {**_path3_answer(), "orbits": [[0], [1], [2]]}
    assert bench_checks.is_wrong(bench_checks.CHECKS["analyze"](wrong_orbits, op, None))

    slightly_off = {**_path3_answer(), "principal_ratio": 2 ** 0.5 * (1 + 1e-8)}
    assert bench_checks.is_wrong(bench_checks.CHECKS["analyze"](slightly_off, op, None))


def test_inaccurate_band_covers_only_the_closed_form_spectral_facts():
    op = {"kind": "analyze", "graphs": [(3, [(0, 1), (1, 2)])],
          "facts": {"rho": 2 ** 0.5, "principal_ratio": 2 ** 0.5, "inaccurate_band": 1e-6}}
    slightly_off = {**_path3_answer(), "principal_ratio": 2 ** 0.5 * (1 + 1e-8)}
    problems = bench_checks.CHECKS["analyze"](slightly_off, op, None)
    assert problems and not bench_checks.is_wrong(problems)

    far_off = {**_path3_answer(), "principal_ratio": 2 ** 0.5 * (1 + 1e-5)}
    assert bench_checks.is_wrong(bench_checks.CHECKS["analyze"](far_off, op, None))

    entropy_off = {**_path3_answer(), "entropy": 0.9182958340544896 * (1 + 1e-8)}
    assert bench_checks.is_wrong(bench_checks.CHECKS["analyze"](entropy_off, op, None))


def test_golden_floats_with_a_closed_form_are_not_compared():
    op = {"kind": "analyze", "graphs": [(3, [(0, 1), (1, 2)])],
          "facts": {"rho": 2 ** 0.5, "principal_ratio": 2 ** 0.5}}
    golden = bench_checks.golden_view("analyze", _path3_answer())
    golden["floats"]["principal_ratio"] *= 1 + 1e-8
    golden["floats"]["rho_adjacency"] *= 1 + 1e-8
    assert bench_checks.CHECKS["analyze"](_path3_answer(), op, golden) == []

    golden["floats"]["entropy"] *= 1 + 1e-8
    assert bench_checks.is_wrong(bench_checks.CHECKS["analyze"](_path3_answer(), op, golden))


def test_every_known_exit_names_an_op(tmp_path):
    ops = [op for w in bench_workloads.WORKLOADS for op in bench_workloads.build_workload(w, 1, tmp_path / w)]
    assert {op.name: op.known_exit for op in ops if op.known_exit is not None} == bench_workloads.KNOWN_EXIT


def test_every_op_runs_a_fixed_number_of_times_spread_over_the_run(tmp_path):
    import run

    for w in bench_workloads.WORKLOADS:
        ops = bench_workloads.manifest(bench_workloads.build_workload(w, 1, tmp_path / w))
        counts = run.run_counts(ops, 30)
        assert counts == run.run_counts(ops, 30)
        assert all(run.MIN_RUNS <= c <= run.MAX_RUNS for c in counts)
        nominal = [run.NOMINAL_S[op["name"]] + run.PROBE_REF_S for op in ops]
        # The runs fill the time, unless MIN_RUNS of every op alone exceed it.
        assert sum(c * t for c, t in zip(counts, nominal)) <= max(30, run.MIN_RUNS * sum(nominal)) * 1.1
        order = run.schedule(counts)
        assert [order.count(i) for i in range(len(ops))] == counts
        # Every op runs in both halves of the schedule.
        half = len(order) // 2
        assert set(order[:half]) == set(order[half:]) == set(range(len(ops)))
