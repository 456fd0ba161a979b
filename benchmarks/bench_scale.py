"""Out-of-core scale benchmark: compile and sample a million-node snapshot.

Exercises the snapshot tier (DESIGN.md §8) end to end at a size the
in-memory dict graph cannot reach comfortably:

* ``compile`` -- stream a deterministic 10-regular-per-gap synthetic edge
  stream (ring plus nine chordal gaps: degree 20, ``m = 10 n``) through
  :func:`repro.graph.stream_compiler.compile_edge_list` into an on-disk
  snapshot, in a forked child whose ``resource.getrusage`` peak RSS is the
  row's headline: the compiler never materializes a dict graph, so the
  resident cost is the interner plus bounded chunk buffers plus the dirty
  pages of the columns being written -- far below the several GB a
  ``SocialGraph`` of 10M edges costs.  The ``--max-compile-rss`` gate
  (default 2 GiB at full size) turns the bound into an assertion.
* ``mapped-python`` / ``mapped-numpy`` / ``mapped-numpy-alias`` -- open the
  snapshot memory-mapped (``CompiledGraph.open``) and reverse-sample paths
  through each engine, each arm in its own forked child so its peak RSS
  reflects only the pages that sampling actually touched.
* ``inmemory`` -- the same snapshot opened with ``mmap=False`` (columns
  fully loaded) through the fastest engine, re-timed in the same run on
  the same machine: the committed report's ``mapped_share`` on the
  ``mapped-numpy-alias`` row is its throughput relative to this arm, the
  machine-normalized ratio the CI bench job gates with
  ``compare_bench.py --metric mapped_share`` (mapped sampling must stay
  within 30% drift of the committed share; the absolute floor is
  ``--min-mapped-share``).

Before timing anything, the benchmark asserts every engine samples
*bit-identical* paths from the mapped snapshot and the fully-loaded one,
so an out-of-core arm that drifted from the in-memory streams can never
post a number.  Results are written to ``BENCH_scale.json`` at the
repository root.  Run standalone with::

    PYTHONPATH=src python benchmarks/bench_scale.py [--nodes N] [--paths N]
        [--output PATH] [--snapshot-dir DIR] [--max-compile-rss MB]
        [--min-mapped-share X]

The committed report uses the full size (``--nodes 1000000``: one million
nodes, ten million undirected edges); the CI bench job replays a
size-capped run (200k nodes) and gates the ratio metrics against the
committed baseline with ``benchmarks/compare_bench.py``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_scale.json"

_SEED = 20190707

#: Ring gap plus nine chordal gaps.  All gaps are distinct, smaller than
#: ``n/2`` and no two sum to ``n`` (for any benchmark-sized ``n``), so the
#: generated undirected pairs never collide: exactly ``len(_GAPS) * n``
#: unique edges, degree ``2 * len(_GAPS)`` everywhere, no self-loops.  A
#: collision-free stream lets the compiler run with ``dedup=False`` -- no
#: duplicate set, so compile RSS measures only the unavoidable state.
_GAPS = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23)

#: Nodes per generated chunk (pairs with the default ``chunk_edges``).
_GEN_CHUNK = 1 << 20


def _edge_stream(num_nodes: int):
    """A replayable chunked edge stream: ``(u, (u + gap) % n)`` per gap."""
    import numpy as np

    def factory():
        for gap in _GAPS:
            for lo in range(0, num_nodes, _GEN_CHUNK):
                u = np.arange(lo, min(lo + _GEN_CHUNK, num_nodes), dtype=np.int64)
                yield u, (u + gap) % num_nodes

    return factory


def _peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux: ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _arm_compile(conn, num_nodes: int, snapshot_dir: str) -> None:
    """Forked child: stream-compile the synthetic graph, report RSS + rate."""
    from repro.graph.stream_compiler import compile_edge_list

    start = time.perf_counter()
    result = compile_edge_list(
        _edge_stream(num_nodes), snapshot_dir,
        weights="degree", name=f"scale-{num_nodes}", dedup=False,
    )
    elapsed = time.perf_counter() - start
    assert result.num_nodes == num_nodes
    assert result.num_edges == num_nodes * len(_GAPS)
    assert result.self_loops_skipped == 0 and result.duplicates_skipped == 0
    conn.send({
        "seconds": round(elapsed, 2),
        "edges_per_sec": round(result.num_edges / elapsed, 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "num_nodes": result.num_nodes,
        "num_edges": result.num_edges,
        "digest": result.digest,
    })


def _bench_pair(graph):
    """The benchmark (source, target, stop_set): antipodal on the ring."""
    source = 0
    target = graph.num_nodes // 2
    return source, target, graph.neighbor_set(source)


def _arm_sample(conn, snapshot_dir: str, engine_name: str, mmap: bool, num_paths: int) -> None:
    """Forked child: open the snapshot one way, sample, report RSS + rate."""
    from repro.diffusion.engine import create_engine
    from repro.graph.compiled import CompiledGraph

    graph = CompiledGraph.open(snapshot_dir, mmap=mmap)
    engine = create_engine(graph, engine_name)
    _, target, stop_set = _bench_pair(graph)

    def run(count):
        batch = getattr(engine, "sample_path_batch", None)
        if batch is not None:
            return batch(target, stop_set, count, rng=_SEED).type1_count()
        return sum(p.is_type1 for p in engine.sample_paths(target, stop_set, count, rng=_SEED))

    run(max(64, num_paths // 64))  # warm-up: fault in the hot pages once
    best = float("inf")
    type1 = 0
    for _ in range(2):
        start = time.perf_counter()
        type1 = run(num_paths)
        best = min(best, time.perf_counter() - start)
    conn.send({
        "paths_per_sec": round(num_paths / best, 1),
        "num_paths": num_paths,
        "type1_fraction": round(type1 / num_paths, 4),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "mapped": mmap,
    })


def _run_forked(target, *args) -> dict:
    """Run one arm in a forked child so its peak RSS is isolated; return its row."""
    context = multiprocessing.get_context("fork")
    parent, child = context.Pipe(duplex=False)
    process = context.Process(target=target, args=(child, *args))
    process.start()
    child.close()
    try:
        row = parent.recv()
    except EOFError:
        process.join()
        raise RuntimeError(f"benchmark arm {target.__name__} died (exit {process.exitcode})")
    process.join()
    return row


def assert_mapped_bit_identity(snapshot_dir: str, count: int = 2000) -> list[str]:
    """Every engine must sample identical paths mapped and fully loaded.

    Asserted inside the benchmark (before timing) so an out-of-core arm
    that got faster by drifting from the in-memory streams fails the bench
    job instead of posting a number.  Returns the engine names checked.
    """
    from repro.diffusion.engine import ENGINE_NAMES, create_engine
    from repro.graph.compiled import CompiledGraph

    mapped = CompiledGraph.open(snapshot_dir, mmap=True)
    loaded = CompiledGraph.open(snapshot_dir, mmap=False)
    _, target, stop_set = _bench_pair(mapped)
    names = [name for name in ENGINE_NAMES if name != "auto"]
    for name in names:
        left = create_engine(mapped, name).sample_paths(target, stop_set, count, rng=_SEED)
        right = create_engine(loaded, name).sample_paths(target, stop_set, count, rng=_SEED)
        assert left == right, f"engine {name!r} diverged between mapped and in-memory columns"
    return names


def run_benchmark(num_nodes: int, num_paths: int, snapshot_dir: str | None = None) -> dict:
    """Compile the synthetic graph, verify bit-identity, time every arm."""
    cleanup = snapshot_dir is None
    if cleanup:
        snapshot_dir = tempfile.mkdtemp(prefix="repro-bench-scale-")
    try:
        results = {"compile": _run_forked(_arm_compile, num_nodes, snapshot_dir)}
        engines = assert_mapped_bit_identity(snapshot_dir)
        for name in engines:
            results[f"mapped-{name}"] = _run_forked(
                _arm_sample, snapshot_dir, name, True, num_paths
            )
        fastest = "numpy-alias" if "numpy-alias" in engines else "numpy"
        results["inmemory"] = _run_forked(_arm_sample, snapshot_dir, fastest, False, num_paths)
        mapped_row = results[f"mapped-{fastest}"]
        mapped_row["mapped_share"] = round(
            mapped_row["paths_per_sec"] / results["inmemory"]["paths_per_sec"], 2
        )
        return {
            "benchmark": "scale",
            "graph": {
                "nodes": num_nodes,
                "edges": num_nodes * len(_GAPS),
                "model": "ring+chordal-gaps",
                "degree": 2 * len(_GAPS),
            },
            "num_paths": num_paths,
            "bit_identical": True,
            "inmemory_engine": fastest,
            "results": results,
        }
    finally:
        if cleanup:
            shutil.rmtree(snapshot_dir, ignore_errors=True)


def write_report(report: dict, path: Path = OUTPUT_PATH) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def test_scale_smoke(tmp_path):
    """Size-capped smoke of the full pipeline (no repo-root report rewrite).

    The committed BENCH_scale.json comes from the full 1M-node standalone
    run; this test only proves the benchmark machinery -- forked-arm RSS
    accounting, bit-identity gate, ratio metrics -- on a small graph.
    """
    report = run_benchmark(num_nodes=20_000, num_paths=4_000,
                           snapshot_dir=str(tmp_path / "snap"))
    results = report["results"]
    assert results["compile"]["num_edges"] == 20_000 * len(_GAPS)
    assert results["compile"]["peak_rss_mb"] < 2048
    assert report["bit_identical"]
    fastest = report["inmemory_engine"]
    share = results[f"mapped-{fastest}"]["mapped_share"]
    # Mapped sampling must stay in the same league as fully-loaded columns
    # (at smoke size every page is cache-warm, so the share sits near 1).
    assert share >= 0.25, f"mapped sampling only {share}x of in-memory throughput"
    for name, row in results.items():
        if name != "compile":
            assert row["paths_per_sec"] > 0 and row["peak_rss_mb"] > 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=1_000_000,
                        help="synthetic graph size; edges are 10x this (default: 1000000)")
    parser.add_argument("--paths", type=int, default=200_000,
                        help="reverse-sampled paths per arm (default: 200000)")
    parser.add_argument("--output", type=Path, default=OUTPUT_PATH,
                        help=f"where to write the JSON report (default: {OUTPUT_PATH})")
    parser.add_argument("--snapshot-dir", type=str, default=None,
                        help="keep the compiled snapshot here (default: a temp dir, removed)")
    parser.add_argument("--max-compile-rss", type=float, default=None, metavar="MB",
                        help="fail if the streaming compile arm's peak RSS exceeds this")
    parser.add_argument("--min-mapped-share", type=float, default=None, metavar="X",
                        help="fail unless mapped sampling reaches this fraction of the "
                             "in-memory arm's throughput")
    cli_args = parser.parse_args()
    report = run_benchmark(cli_args.nodes, cli_args.paths, snapshot_dir=cli_args.snapshot_dir)
    write_report(report, cli_args.output)
    print(json.dumps(report, indent=2))

    compile_rss = report["results"]["compile"]["peak_rss_mb"]
    if cli_args.max_compile_rss is not None and compile_rss > cli_args.max_compile_rss:
        print(f"FAIL: compile peak RSS {compile_rss} MB exceeds "
              f"{cli_args.max_compile_rss} MB", file=sys.stderr)
        sys.exit(1)
    share = report["results"][f"mapped-{report['inmemory_engine']}"]["mapped_share"]
    if cli_args.min_mapped_share is not None and share < cli_args.min_mapped_share:
        print(f"FAIL: mapped_share {share} below required {cli_args.min_mapped_share}",
              file=sys.stderr)
        sys.exit(1)
