"""End-to-end benchmark of the orbigraph CLI, with an optional traced run.

Run every workload (prints each metric with its unit, checks every answer):

    python3 perfbench/run.py

One workload, as an automated runner would call it:

    python3 perfbench/run.py --workload rigid --seed 7 --seconds 30 --trace 0

Each op is one `python -m orbigraph.cli` subprocess, run one at a time from
this single measuring process (a closed loop with one client).  The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the full results, one row per op, go to perfbench/results/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from bench_checks import check_output, is_wrong, load_golden
from bench_inputs import read_edge_list

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# One client on one core: keep numpy's BLAS in every child to one thread.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_RUNS = 7
# CLI start-up: interpreter, `import orbigraph` and numpy.
SETUP_OP = {"name": "setup", "kind": "setup", "argv": ["--version"], "expected_exit": 0, "known_exit": None}
# About the median wall time of host_probe.py on a 2-vCPU Intel Xeon VM
# (Python 3.11) when the benchmark was added.  Times are reported at this
# host speed (see run_ops).
PROBE_REF_S = 0.1
MIN_RUNS, MAX_RUNS = 2, 10  # runs of one op in a measuring run
RUN_BUDGET_S = 165.0  # every run ends well inside a 180 s limit per run
WORKLOADS = ("families", "rigid", "slow-mixing")  # as in bench_workloads, which imports orbigraph

# Each op's fastest wall time at the benchmark's first commit (2-vCPU Intel
# Xeon VM, Python 3.11, numpy 2.4).  These fix how often each op runs; they
# are never compared with a measured time, so they need no update when the
# program gets faster.
NOMINAL_S = {
    "analyze cycle_with_cliques(50,3,2)": 1.65,
    "analyze generalized_sun(60,2)": 0.44,
    "analyze loaded_torus((8,8),2,3)": 2.19,
    "analyze torus((20,25))": 0.38,
    "analyze corona(cycle(20),disjoint_cliques(2,3))": 0.69,
    "analyze crossed_prism(200)": 3.87,
    "compare loaded_torus((6,8),2,3) loaded_torus((8,8),2,3)": 3.17,
    "sequence generalized-sun": 0.99,
    "sequence loaded-multi-torus-m3": 0.80,
    "sequence corona-family": 1.08,
    "sequence loaded-multi-torus-m12": 0.17,
    "analyze cubic(300)": 1.18,
    "analyze cubic(400)": 2.12,
    "analyze cubic(500)": 3.10,
    "compare cubic(300) relabelled(cubic(300))": 2.00,
    "analyze path(300)": 3.56,
    "analyze path(400)": 7.72,
    "analyze prism(path(150))": 1.29,
    "analyze cartesian_product(path(5),path(80))": 0.76,
}

END_TO_END_UNITS = {"wall_s": "s", "op_geomean_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "graph_core.parse_s": "s", "graph_core.invariants_s": "s", "constructions.build_s": "s",
    "aut.search_s": "s", "aut.refine_s": "s", "aut.generators": "count", "aut.orbit_cells": "count",
    "orbital.divisor_s": "s", "orbital.profile_s": "s", "orbital.similar_s": "s",
    "spectral.adjacency_s": "s", "spectral.divisor_s": "s",
    "sequences.generate_s": "s", "sequences.verify_s": "s", "sequences.analyze_term_s": "s",
    "cli.main_s": "s", "cli.overhead_s": "s", "trace.overhead_s": "s",
    "aut.share": "ratio", "spectral.share": "ratio",
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **SINGLE_THREAD)
    # Start-up is measured as users see it, with compiled bytecode cached.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str], out_path: Path, err_path: Path, timeout: float) -> dict:
    """One subprocess: exit code, wall time and the child's own peak RSS."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def run_cli(argv: list[str], out_path: Path, err_path: Path, timeout: float) -> dict:
    return run_child([sys.executable, "-m", "orbigraph.cli", *argv], out_path, err_path, timeout)


def run_probe(scratch: Path, timeout: float) -> float:
    """Wall time of one host probe (host_probe.py)."""
    r = run_child([sys.executable, str(HERE / "host_probe.py")], scratch / "probe.out", scratch / "probe.err", timeout)
    if r["exit"] != 0:
        raise RuntimeError(f"host_probe.py exited {r['exit']}")
    return r["wall_s"]


def run_counts(ops: list[dict], seconds: float) -> list[int]:
    """How often each op runs: a fixed count per op, so that every run of the
    benchmark attempts the same ops and a failing op weighs the same in each.

    At the ops' nominal times (NOMINAL_S, plus a probe after each run) the
    counts fill `seconds`: each op gets an equal share of the time, but at
    least MIN_RUNS and at most MAX_RUNS runs.  A small op thus runs more often, which steadies its
    time, and so op_geomean_s, where it weighs as much as a large one.
    """
    nominal = [NOMINAL_S[op["name"]] + PROBE_REF_S for op in ops]  # each run is followed by a probe
    floor: set[int] = set()
    while True:  # the ops that need more than an equal share get MIN_RUNS
        rest = seconds - sum(MIN_RUNS * nominal[i] for i in floor)
        share = rest / max(len(ops) - len(floor), 1)
        more = {i for i, t in enumerate(nominal) if i not in floor and MIN_RUNS * t >= share}
        if not more:
            break
        floor |= more
    return [MIN_RUNS if i in floor else min(MAX_RUNS, max(MIN_RUNS, round(share / t)))
            for i, t in enumerate(nominal)]


def schedule(counts: list[int]) -> list[int]:
    """The order of the runs: op i's k-th run at fraction (k + 1/2) / counts[i]
    of the schedule, so that every op's runs are spread over the whole
    measuring time and a slow spell of the host falls on all ops alike."""
    runs = [((k + 0.5) / c, i) for i, c in enumerate(counts) for k in range(c)]
    return [i for _, i in sorted(runs)]


def run_ops(ops: list[dict], golden: dict, scratch: Path, order: list[int], deadline: float) -> list[list[dict]]:
    """Run the ops in the given order, with a host probe before the first run
    and after every run, and check each answer after its timing ends.
    Returns the runs of each op.

    A run's scaled time is its wall time at the host speed of PROBE_REF_S:
    wall time x PROBE_REF_S / the mean of the probes just before and after
    it.  Other tenants of a shared host slow the op and the probes around it
    alike, so the scaled time keeps what the op itself costs and drops most
    of the host's drift; the mean follows a drift across a long op.
    """
    runs: list[list[dict]] = [[] for _ in ops]
    probe = run_probe(scratch, deadline - time.monotonic())
    for i in order:
        op = ops[i]
        if time.monotonic() > deadline:
            break
        out_path, err_path = scratch / f"op{i:02d}.out", scratch / f"op{i:02d}.err"
        r = run_cli(op["argv"], out_path, err_path, deadline - time.monotonic())
        after = run_probe(scratch, deadline - time.monotonic())
        r["probe_before_s"], r["probe_after_s"] = probe, after
        r["scaled_s"] = r["wall_s"] * PROBE_REF_S / ((probe + after) / 2)
        probe = after
        r["problems"] = []
        if r["exit"] == op["expected_exit"] == 0 and op["kind"] != "setup":
            r["problems"] = check_output(op, out_path.read_text(encoding="utf-8"), golden.get(op["name"]))
        r["failed"] = r["exit"] != op["expected_exit"] or bool(r["problems"])
        # Timed: the op ended with its answer or its known refusal.  A crash,
        # a kill or a new refusal has no meaningful time and is a wrong outcome.
        r["timed"] = r["exit"] in (op["expected_exit"], op["known_exit"])
        r["stderr"] = err_path.read_text(encoding="utf-8", errors="replace").strip()[-2000:] if r["failed"] else ""
        runs[i].append(r)
    return runs


def _helper(script: str, workload: str, seed: int, out: Path, deadline: float) -> None:
    """Run one of the benchmark's own scripts in a child process that imports orbigraph."""
    cmd = [sys.executable, str(HERE / script), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    subprocess.run(cmd, env=_child_env(), cwd=ROOT, check=True, timeout=max(deadline - time.monotonic(), 1.0))


def _provenance(workload: str, seed: int, numpy_version: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform()}


def _op_row(op: dict, runs: list[dict]) -> dict:
    failing = [r for r in runs if r["failed"]]
    timed = [r for r in runs if r["timed"]]
    return {
        "op": op["name"], "kind": op["kind"], "argv": op["argv"], "expected_exit": op["expected_exit"],
        "known_exit": op["known_exit"], "exits": [r["exit"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs], "probe_before_s": [r["probe_before_s"] for r in runs], "probe_after_s": [r["probe_after_s"] for r in runs],
        # The median over the timed runs.  With no timed run the result is
        # not correct, and these times mean nothing.
        "op_s": statistics.median(r["scaled_s"] for r in timed or runs),
        "raw_op_s": statistics.median(r["wall_s"] for r in timed or runs),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
        "failed": len(failing),
        "wrong_answers": sum(is_wrong(r["problems"]) or not r["timed"] for r in runs),
        "problems": failing[-1]["problems"] if failing else [],
        "stderr": failing[-1]["stderr"] if failing else "",
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate inputs, measure set-up and the scheduled runs of the ops, and optionally trace.

    This process never imports orbigraph or numpy: a child's peak RSS, as
    wait4 reports it, includes the memory of the process that forked it.
    """
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = RESULTS / f"{workload}-seed{seed}"
    scratch = run_dir / "ops"
    scratch.mkdir(parents=True, exist_ok=True)
    _helper("bench_workloads.py", workload, seed, run_dir, deadline)
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    ops = manifest["ops"]
    for op in ops:
        op["graphs"] = [read_edge_list(Path(f)) for f in op["files"] if f.endswith(".edges")]
    golden = load_golden()
    # Warm-up: the first starts compile bytecode, which users pay once.
    run_probe(scratch, deadline - time.monotonic())
    run_cli(SETUP_OP["argv"], scratch / "version.out", scratch / "version.err", deadline - time.monotonic())
    # The set-up runs are scheduled like one more op.  The traced run needs
    # one untraced time per op.
    counts = [1] * len(ops) if trace else run_counts(ops, seconds)
    runs = run_ops([*ops, SETUP_OP], golden, scratch, schedule([*counts, SETUP_RUNS]), deadline)
    if not all(runs):
        raise RuntimeError(f"the runs passed the {RUN_BUDGET_S:.0f} s budget before every op had run")
    setup_runs = runs.pop()
    if any(r["failed"] for r in setup_runs):
        raise RuntimeError(f"orbigraph --version exited {[r['exit'] for r in setup_runs]}")
    setup_s = statistics.median(r["scaled_s"] for r in setup_runs)
    raw_setup_s = statistics.median(r["wall_s"] for r in setup_runs)
    rows = [_op_row(op, op_runs) for op, op_runs in zip(ops, runs)]
    attempted = sum(len(op_runs) for op_runs in runs)
    failed = sum(r["failed"] for r in rows)
    result = {
        "provenance": _provenance(workload, seed, manifest["numpy"]),
        "setup_wall_s": [r["wall_s"] for r in setup_runs], "setup_scaled_s": [r["scaled_s"] for r in setup_runs],
        "correct": not any(r["wrong_answers"] for r in rows),
        # Ops run different numbers of times, so the share is taken over ops:
        # an op fails when any of its runs does.
        "attempted": attempted, "failed": failed,
        "failed_share": sum(bool(r["failed"]) for r in rows) / len(rows),
        # Times at the host speed of PROBE_REF_S (see run_ops); raw_end_to_end
        # has the same figures from the unscaled wall times.
        "end_to_end": {
            "wall_s": sum(r["op_s"] for r in rows),
            "op_geomean_s": math.exp(statistics.fmean(math.log(r["op_s"]) for r in rows)),
            "setup_s": setup_s,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rows),
        },
        "raw_end_to_end": {
            "wall_s": sum(r["raw_op_s"] for r in rows),
            "op_geomean_s": math.exp(statistics.fmean(math.log(r["raw_op_s"]) for r in rows)),
            "setup_s": raw_setup_s,
        },
        "ops": rows,
    }
    if trace:
        _helper("bench_trace.py", workload, seed, run_dir, deadline)
        layers = json.loads((run_dir / "layers.json").read_text(encoding="utf-8"))
        # Tracing overhead: the op run as traced layer calls in one process,
        # minus the same op untraced, less the start-up a subprocess pays.
        # All three are raw times: the traced run is not probed.
        for row, layer_row in zip(rows, layers["rows"]):
            layer_row["trace.overhead_s"] = layer_row["on_path_s"] - (row["raw_op_s"] - raw_setup_s)
        layers["totals"]["trace.overhead_s"] = sum(r["trace.overhead_s"] for r in layers["rows"])
        result["per_layer"] = layers["totals"]
        result["layer_rows"] = layers["rows"]
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def _print_summary(result: dict, trace: bool) -> None:
    prov = result["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  ops {len(result['ops'])}  "
          f"runs {result['attempted']}  ({prov['cpu_model']}, nproc {prov['nproc']})")
    for key, unit in END_TO_END_UNITS.items():
        print(f"  {key:<14} {result['end_to_end'][key]:.4f} {unit}")
    failing_ops = sum(bool(r["failed"]) for r in result["ops"])
    print(f"  {'failed_share':<14} {result['failed_share']:.4f} ({failing_ops}/{len(result['ops'])} ops; "
          f"{result['failed']}/{result['attempted']} runs)")
    for row in result["ops"]:
        print(f"    {row['op_s']:8.3f} s  {row['peak_rss_mb']:6.1f} MB  {len(row['exits']):2d} runs  {row['op']}")
        if row["failed"]:
            detail = row["problems"] or [row["stderr"] or "no output"]
            print(f"      FAILED: exit {row['exits'][-1]}, expected {row['expected_exit']}: {detail[0]}")
    if trace:
        for key, value in result["per_layer"].items():
            print(f"  {key:<26} {value:.4f} {PER_LAYER_UNITS[key]}")


def _contract_line(result: dict, trace: bool) -> str:
    values = result["per_layer"] if trace else result["end_to_end"]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time: how often each op runs is fixed so that, at the ops' "
                             "nominal times, the runs fill this time (each op at least twice)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced pass, then the traced per-layer run")
    args = parser.parse_args(argv)
    # Terminated from outside: unwind, so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "orbigraph" / "__init__.py").is_file():
        print(f"error: no orbigraph sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        _print_summary(result, bool(args.trace))
        print(_contract_line(result, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
