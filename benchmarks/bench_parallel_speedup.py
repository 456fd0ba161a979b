"""Stopping-rule wall-clock speedup from the parallel sampling fan-out.

Times the Dagum et al. stopping-rule ``pmax`` estimation (Alg. 2) on the
synthetic benchmark graph for a range of worker counts.  Because the
:class:`~repro.parallel.engine.ParallelEngine` contract makes the sample
stream independent of the worker count, every timed run computes the *same*
estimate from the same number of samples -- the benchmark asserts that, so
it doubles as an end-to-end determinism check -- and the only thing that
changes is wall-clock time.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_parallel_speedup.py
        [--workers 1,4] [--epsilon 0.02] [--output PATH] [--min-speedup X]

``--min-speedup`` turns the report into a gate: the best measured speedup
over the ``workers=1`` run must reach the given factor (the CI ``bench``
job requires 2.0 at 4 workers).  Results are written to
``BENCH_parallel.json`` at the repository root.

The ``repeated_runs`` arm times 10 consecutive one-shot ``run_raf`` calls
at the largest worker count beside ``workers=1``, per call, including any
pool startup.  The calls share the process's one cached worker pool
(:func:`repro.parallel.engine.shared_engine`), so it asserts that they
used no more distinct worker pids than the worker count, and that their
answers equal the ``workers=1`` answers.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

from bench_engine_throughput import _benchmark_graph

from repro.core.problem import ActiveFriendingProblem
from repro.core.raf import RAFConfig, estimate_pmax, run_raf
from repro.diffusion.engine import create_engine
from repro.parallel.engine import WALK_SIZE, ParallelEngine, close_shared_engine

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_parallel.json"

_SEED = 20190707

#: Consecutive one-shot run_raf calls in the repeated_runs arm.
_REPEATED_RUNS = 10


def _time_pmax(graph, source, target, engine, epsilon, repeats=3):
    """Best-of-``repeats`` wall clock; returns (seconds, estimate).

    ``engine`` is a pre-warmed (pool already forked) ParallelEngine, so the
    timed region measures sampling fan-out, not process startup.
    """
    best = float("inf")
    estimate = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = estimate_pmax(
            graph,
            source,
            target,
            epsilon=epsilon,
            confidence_n=100_000.0,
            max_samples=2_000_000,
            rng=_SEED,
            engine=engine,
        )
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        estimate = (result.value, result.num_samples, result.method)
    return best, estimate


def _repeated_runs(graph, source, target, workers):
    """Time ``_REPEATED_RUNS`` consecutive ``run_raf`` calls at ``workers``.

    Returns (per-call seconds, answers, distinct worker pids seen).  Each
    call starts from whatever the previous one left behind, as one-shot
    callers do; the first call forks the pool.
    """
    close_shared_engine()
    earlier = {process.pid for process in multiprocessing.active_children()}
    config = RAFConfig(engine="python", workers=workers, sample_policy="fixed",
                       fixed_realizations=2 * WALK_SIZE, pmax_epsilon=0.1)
    problem = ActiveFriendingProblem(graph, source, target, alpha=0.2)
    seconds, answers, pids = [], [], set()
    for index in range(_REPEATED_RUNS):
        start = time.perf_counter()
        result = run_raf(problem, config, rng=_SEED + index)
        seconds.append(time.perf_counter() - start)
        answers.append((sorted(result.invitation), result.pmax_samples))
        pids |= {process.pid for process in multiprocessing.active_children()} - earlier
    close_shared_engine()
    return seconds, answers, pids


def run_benchmark(worker_counts=(1, 4), epsilon=0.02, num_nodes=3000):
    """Time the stopping rule at every worker count and return the report."""
    graph, source, target = _benchmark_graph(num_nodes=num_nodes)
    base = create_engine(graph, "python")
    stop_set = graph.neighbor_set(source)
    rows = {}
    baseline_seconds = None
    baseline_estimate = None
    for workers in worker_counts:
        with ParallelEngine(base, workers=workers) as engine:
            # Fork the pool (and fault in the inherited snapshot) before
            # the clock starts: a request of two walks forces the dispatch.
            engine.sample_paths(target, stop_set, 2 * engine.walk_size, rng=0)
            seconds, estimate = _time_pmax(graph, source, target, engine, epsilon)
        if baseline_seconds is None:
            baseline_seconds, baseline_estimate = seconds, estimate
        # The parallel contract: every worker count sees the same stream.
        assert estimate == baseline_estimate, (
            f"workers={workers} diverged from workers={worker_counts[0]}: "
            f"{estimate} != {baseline_estimate}"
        )
        rows[str(workers)] = {
            "seconds": round(seconds, 4),
            "samples": estimate[1],
            "pmax_estimate": round(estimate[0], 6),
            "speedup_vs_1_worker": round(baseline_seconds / seconds, 2),
        }

    workers = max(worker_counts)
    serial_seconds, serial_answers, _ = _repeated_runs(graph, source, target, 1)
    fanned_seconds, fanned_answers, pids = _repeated_runs(graph, source, target, workers)
    assert fanned_answers == serial_answers, (
        f"repeated run_raf at workers={workers} diverged from workers=1"
    )
    assert len(pids) <= workers, (
        f"{_REPEATED_RUNS} run_raf calls at workers={workers} used {len(pids)} worker "
        "processes: the calls did not share one pool"
    )
    repeated = {
        "runs": _REPEATED_RUNS,
        "workers": workers,
        "seconds_per_call_1_worker": [round(value, 4) for value in serial_seconds],
        f"seconds_per_call_{workers}_workers": [round(value, 4) for value in fanned_seconds],
        "distinct_worker_pids": len(pids),
    }
    return {
        "benchmark": "parallel_stopping_rule_speedup",
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges, "model": "barabasi-albert"},
        "pair": {"source": source, "target": target},
        "epsilon": epsilon,
        "cpu_count": os.cpu_count(),
        "results": rows,
        "repeated_runs": repeated,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", default="1,4",
                        help="comma-separated worker counts to time (default: 1,4)")
    parser.add_argument("--epsilon", type=float, default=0.02,
                        help="stopping-rule relative error; smaller = more samples "
                             "= more parallel work (default: 0.02)")
    parser.add_argument("--nodes", type=int, default=3000,
                        help="benchmark graph size (default: 3000)")
    parser.add_argument("--output", type=Path, default=OUTPUT_PATH,
                        help=f"where to write the JSON report (default: {OUTPUT_PATH})")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the best speedup over workers=1 reaches this factor")
    args = parser.parse_args(argv)
    worker_counts = tuple(int(item) for item in args.workers.split(","))
    report = run_benchmark(worker_counts=worker_counts, epsilon=args.epsilon,
                           num_nodes=args.nodes)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    best = max(row["speedup_vs_1_worker"] for row in report["results"].values())
    print(f"\nbest speedup: {best}x over workers=1 ({os.cpu_count()} CPUs)")
    if args.min_speedup is not None and best < args.min_speedup:
        print(f"FAIL: best speedup {best}x below required {args.min_speedup}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
