"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload raf-snapshot --seed 1 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program under test is imported from
its ``src`` directory.  ``--seconds`` defaults to ``run_seconds`` in
BENCHMARK.json.  With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` the run makes an untraced pass and
then a traced pass over the same schedule and reports the per-layer
metrics plus the tracing overhead between the two.  ``--smoke`` runs all
three workloads at a tiny size.  ``serve-mutate`` runs by hand only: it is
not in BENCHMARK.json (see README.md in this directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"

# Metric names and units come from the benchmark definition at the root.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


def _quantile(values: list, fraction: float) -> float:
    """Interpolated quantile (statistics' inclusive method)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def end_to_end(result) -> dict:
    latencies = result.latencies_ms
    return {
        "setup_s": statistics.median(result.setup_s),
        "peak_rss_mb": result.peak_rss_mb,
        "p50_ms": statistics.median(latencies),
        "p90_ms": _quantile(latencies, 0.90),
        "p99_ms": _quantile(latencies, 0.99),
        "throughput_ops": len(latencies) / result.wall_s,
        "cold_p50_ms": statistics.median(result.cold_ms),
        "invitations_mean": statistics.mean(result.invitations),
        "acceptance_ratio": statistics.median(result.ratios),
    }


def code_digest() -> str:
    """Digest of the program and the benchmark: records are only compared
    between runs of identical code."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_determinism(key: str, work: dict) -> list:
    """Compare this run's work counts with an earlier run of the same key."""
    records = CACHE / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{key}.json"
    if not path.exists():
        path.write_text(json.dumps(work, sort_keys=True) + "\n")
        return []
    earlier = json.loads(path.read_text())
    return [f"work count {name!r} is {work.get(name)!r}, an earlier identical run had "
            f"{earlier.get(name)!r}" for name in sorted(set(earlier) | set(work))
            if earlier.get(name) != work.get(name)]


def run(workload: str, seed: int, seconds: float, traced: bool, size) -> dict:
    function = workloads.WORKLOADS[workload]
    started = time.perf_counter()
    first = function(seed, seconds, size, CACHE)
    problems = list(first.problems)
    metrics = end_to_end(first)
    notes = list(first.notes)
    work = dict(first.work)
    if traced:
        if workload == "serve-snapshot":
            trace_out = CACHE / f"spans-{workload}-{seed}.json"
            second = function(seed, seconds, size, CACHE, trace_out=trace_out)
        else:
            tracer = spans.install(spans.Tracer())
            try:
                second = function(seed, seconds, size, CACHE, tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.dump(CACHE / f"spans-{workload}-{seed}.json")
        problems += second.problems
        notes += second.notes
        untraced_work = {k: v for k, v in second.work.items() if k != "diffusion.steps"}
        if untraced_work != first.work:
            problems.append(f"traced pass did different work: {second.work} vs {first.work}")
        layers = {name: 0 for name in PER_LAYER}
        layers.update({k: v for k, v in second.layers.items() if k in PER_LAYER})
        layers["trace.overhead_pct"] = 100.0 * (second.wall_s / first.wall_s - 1.0)
        metrics = layers
        work = second.work
        notes += [f"{k}={v}" for k, v in second.layers.items() if k not in PER_LAYER]
        attempted = first.attempted + second.attempted
        failed = first.failed + second.failed
    else:
        attempted, failed = first.attempted, first.failed
    key = f"{workload}-seed{seed}-s{seconds:g}-t{int(traced)}-{size.snapshot_nodes}-{code_digest()}"
    problems += check_determinism(key, work)
    units = PER_LAYER if traced else END_TO_END
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{workload} seed={seed} ops={attempted} failed={failed} "
          f"error_rate={failed / attempted:.4f} elapsed={time.perf_counter() - started:.1f}s",
          file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.4f} {units[name]}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and report pass/fail")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.smoke:
        failures = 0
        for workload in workloads.WORKLOADS:
            for traced in (False, True):
                result = run(workload, args.seed, 1.0, traced, workloads.SMOKE)
                failures += (not result["correct"]) + result["failed"]
        print(json.dumps({"smoke": "ok" if not failures else "failed"}))
        return 1 if failures else 0
    if args.workload is None:
        parser.error("--workload is required (or pass --smoke)")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
