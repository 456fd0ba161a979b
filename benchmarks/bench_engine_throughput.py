"""Throughput benchmark: dict-based seed sampler vs the compiled engines.

Measures reverse-sampled paths/second on a synthetic benchmark graph for

* ``dict-seed`` -- a verbatim replica of the original dict-based sampler
  (per-step ``in_weights`` dict copy + linear scan), kept here as the fixed
  baseline the engine speedups are tracked against;
* ``python`` -- :class:`repro.diffusion.engine.PythonEngine` (CSR + binary
  search, bit-compatible with the seed sampler) through the object view
  (``sample_paths``: its columnar batch plus full :class:`TargetPath`
  materialization);
* ``numpy`` -- :class:`repro.diffusion.engine.NumpyEngine` through the same
  object view;
* ``numpy-batch`` -- the same engine consumed columnarly
  (``sample_path_batch`` + array-native type-1 counting, no per-path
  objects): the representation every batch-aware consumer (estimators,
  pool, parallel IPC) actually uses.  Its ``columnar_speedup`` field is
  its throughput relative to the *python* engine -- the headline number
  the CI bench job gates (>= 3x absolute via ``--min-columnar-speedup``,
  <= 30% drift via ``compare_bench.py --metric columnar_speedup``);
* ``numpy-alias`` / ``alias-batch`` -- :class:`NumpyAliasEngine`, whose
  lockstep steps are O(1) alias-table gathers instead of O(log m) binary
  searches, through the object interface and columnarly.  The
  ``alias_speedup`` field on ``alias-batch`` is its columnar throughput
  relative to ``numpy-batch`` (gated >= 1.5x absolute via
  ``--min-alias-speedup``, <= 30% drift via ``--metric alias_speedup``);
* ``transport-pickle`` / ``transport-shm`` -- the parallel result wire in
  isolation: a real 4-worker fork pool where each worker holds one
  pre-sampled columnar chunk (sampled once in the pool initializer,
  outside the timed region) and re-ships it per task, either pickled
  through the result pipe or published to shared memory and adopted
  zero-copy by the parent (:mod:`repro.parallel.shm`).  The parent touches
  every received batch (``type1_count``), so deferred page access is paid
  inside the timing for both arms.  The ``shm_transport_speedup`` field on
  ``transport-shm`` is its wire throughput relative to ``transport-pickle``
  (gated >= 1.3x absolute via ``--min-shm-speedup``, <= 30% drift via
  ``--metric shm_transport_speedup``);
* ``long-path`` -- the alias engine's columnar kernel on walks far longer
  than its cycle-check window: a 4000-node ring weighted one way only, so
  every one of 1024 paths runs 2000 nodes to the far side's stop set.  Its
  ``long_path_speedup`` field is the throughput relative to the per-walker
  reference kernel timed in the same run (<= 30% drift via
  ``--metric long_path_speedup``); bit-identity with that reference is
  asserted first;
* ``fused-walk`` -- the stopping rule's first request: its certain
  batches 64, 128, 256, 512 and 1024 drawn by the alias engine as one
  fused lockstep walk (one :class:`~repro.diffusion.engine.DrawPlan`)
  against five separate calls on the same generator, in walker-steps/s.
  Both arms draw the same paths (asserted first); its
  ``fused_walk_speedup`` field is the fused arm's throughput relative to
  the separate calls (<= 30% drift via ``--metric fused_walk_speedup``);
* ``lockstep-tail`` -- the alias engine on the three request shapes of a
  RAF run (the stopping rule's fused 64..1024 batches, its next fused
  2048 + 4096, and 1000 + 1000 realizations), in walker-steps/s, with the
  kernel's scalar tail at its cutoff and switched off
  (``SCALAR_TAIL = 0``), the arms alternating in the same run.  Both arms
  draw the same paths (asserted first); its ``tail_speedup`` field is the
  throughput with the tail relative to without (<= 30% drift via
  ``--metric tail_speedup``).

Before timing anything, the benchmark asserts each columnar kernel (search
mode and alias mode) is bit-identical to its retained per-walker reference
kernel (``sample_paths_reference``) on the benchmark workload, so a fast-
but-wrong kernel can never post a number.  Results (paths/sec, per-row
batch sizes and speedups) are printed and written to ``BENCH_engine.json``
at the repository root so the performance trajectory is tracked from PR to
PR.  Run standalone with::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py [--output PATH]
        [--paths N] [--nodes N] [--min-columnar-speedup X]
        [--min-alias-speedup X] [--min-shm-speedup X]

or via pytest (smaller sample counts, plus a regression assertion).  The CI
``bench`` job runs the standalone form on every push and gates merges with
``benchmarks/compare_bench.py`` against the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import random
import sys
import time
from pathlib import Path

import repro.diffusion.engine as engine_module
from repro.diffusion.engine import ENGINE_NAMES, DrawPlan, create_engine
from repro.diffusion.path_batch import PathBatch
from repro.graph.generators import barabasi_albert_graph
from repro.graph.social_graph import SocialGraph
from repro.graph.traversal import bfs_distances
from repro.graph.weights import apply_degree_normalized_weights
from repro.parallel import fork_available, shm_available
from repro.parallel.shm import ShmBatchRef, adopt, default_prefix, publish_batch, sweep_orphans

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_engine.json"

_SEED = 20190707


def _legacy_dict_sample_target_path(graph, target, stop_set, generator):
    """The seed implementation: per-step dict copy + linear scan (unchanged)."""
    traced = {target}
    current = target
    while True:
        draw = generator.random()
        cumulative = 0.0
        parent = None
        # dict(...) reproduces the copy the original SocialGraph.in_weights
        # made on every call; the linear scan is the original selection.
        for friend, weight in dict(graph.in_weights(current)).items():
            cumulative += weight
            if draw < cumulative:
                parent = friend
                break
        if parent is None or parent in traced:
            return frozenset(traced), False
        if parent in stop_set:
            return frozenset(traced), True
        traced.add(parent)
        current = parent


def _benchmark_graph(num_nodes: int = 3000, attachment: int = 8):
    """The synthetic benchmark graph plus a distant (source, target) pair."""
    graph = apply_degree_normalized_weights(
        barabasi_albert_graph(num_nodes, attachment, rng=_SEED, name="bench-ba")
    )
    source = 0
    distances = bfs_distances(graph, source)
    target = max(
        (node for node, distance in distances.items() if distance >= 3),
        key=lambda node: distances[node],
        default=None,
    )
    if target is None:  # tiny graphs in smoke runs: fall back to any non-friend
        target = next(
            node for node in graph.nodes()
            if node != source and not graph.has_edge(source, node)
        )
    return graph, source, target


def _time_sampler(label, sample_many, num_paths, repeats=3):
    """Best-of-``repeats`` wall-clock timing; returns (paths/sec, type-1 count)."""
    best = float("inf")
    type1 = 0
    for _ in range(repeats):
        start = time.perf_counter()
        type1 = sample_many(num_paths)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return num_paths / best, type1


def _assert_columnar_bit_identity(graph, target, stop_set, count=4000):
    """The columnar kernel must reproduce the legacy object path exactly.

    Asserted inside the benchmark (on the benchmark graph, before timing)
    so a kernel that got faster by drifting from the reference stream
    fails the bench job instead of posting a number.
    """
    engine = create_engine(graph, "numpy")
    batch = engine.sample_path_batch(target, stop_set, count, rng=_SEED)
    reference = engine.sample_paths_reference(target, stop_set, count, rng=_SEED)
    assert batch.to_paths() == reference, (
        "columnar PathBatch kernel diverged from the per-walker reference kernel"
    )
    assert batch.type1_bytes() == bytes(1 if path.is_type1 else 0 for path in reference)


def _assert_alias_bit_identity(graph, target, stop_set, count=4000):
    """Alias-mode columnar kernel must match the alias-mode reference kernel."""
    engine = create_engine(graph, "numpy-alias")
    batch = engine.sample_path_batch(target, stop_set, count, rng=_SEED)
    reference = engine.sample_paths_reference(target, stop_set, count, rng=_SEED)
    assert batch.to_paths() == reference, (
        "alias-mode columnar kernel diverged from the alias-mode reference kernel"
    )


def _benchmark_long_paths(num_nodes=4000, num_paths=1024):
    """The ``long-path`` row: 2000-node walks on a one-way-weighted ring."""
    ring = SocialGraph(name="bench-ring")
    for node in range(num_nodes):
        ring.add_edge(node, (node + 1) % num_nodes, 1.0, 0.0)  # node + 1 picks node
    stop_set = ring.neighbor_set(num_nodes // 2)
    engine = create_engine(ring, "numpy-alias")
    batch = engine.sample_path_batch(0, stop_set, num_paths, rng=_SEED)
    assert batch.to_paths() == engine.sample_paths_reference(0, stop_set, num_paths, rng=_SEED), (
        "alias-mode columnar kernel diverged from the reference kernel on long paths"
    )

    def run_batch(count):
        return engine.sample_path_batch(0, stop_set, count, rng=_SEED).type1_count()

    def run_reference(count):
        return sum(path.is_type1 for path in engine.sample_paths_reference(
            0, stop_set, count, rng=_SEED))

    rate, _ = _time_sampler("long-path", run_batch, num_paths)
    reference_rate, _ = _time_sampler("long-path-reference", run_reference, num_paths)
    return {
        "paths_per_sec": round(rate, 1),
        "num_paths": num_paths,
        "nodes_per_path": round(batch.total_nodes / num_paths, 1),
        "long_path_speedup": round(rate / reference_rate, 2),
    }


def _benchmark_fused_walk(graph, target, stop_set, sizes=(64, 128, 256, 512, 1024), repeats=15):
    """The ``fused-walk`` row: the rule's certain batches as one walk vs five calls."""
    engine = create_engine(graph, "numpy-alias")

    def separate():
        generator = random.Random(_SEED)
        return [engine.sample_path_batch(target, stop_set, size, rng=generator) for size in sizes]

    def fused():
        generator = random.Random(_SEED)
        plan = DrawPlan(tuple((size, generator) for size in sizes))
        return engine.sample_path_batch(target, stop_set, plan.count, rng=plan)

    batch = fused()
    assert batch.to_paths() == PathBatch.concat(separate()).to_paths(), (
        "the fused walk diverged from one call per batch"
    )
    best = {"fused": float("inf"), "separate": float("inf")}
    for _ in range(repeats):  # alternate the arms so host drift hits both
        for label, run in (("fused", fused), ("separate", separate)):
            start = time.perf_counter()
            run()
            best[label] = min(best[label], time.perf_counter() - start)
    steps = batch.total_nodes - len(batch)
    return {
        "steps_per_sec": round(steps / best["fused"], 1),
        "separate_steps_per_sec": round(steps / best["separate"], 1),
        "num_paths": len(batch),
        "walker_steps": steps,
        "fused_walk_speedup": round(best["separate"] / best["fused"], 2),
    }


#: The request shapes of one RAF run: each tuple is one fused lockstep walk.
_RAF_SHAPES = ((64, 128, 256, 512, 1024), (2048, 4096), (1000, 1000))


def _benchmark_lockstep_tail(graph, target, stop_set, shapes=_RAF_SHAPES, repeats=15):
    """The ``lockstep-tail`` row: RAF's request shapes with and without the scalar tail."""
    engine = create_engine(graph, "numpy-alias")
    cutoff = engine_module.SCALAR_TAIL

    def walk(tail):
        engine_module.SCALAR_TAIL = tail
        batches = []
        for sizes in shapes:
            generator = random.Random(_SEED)
            plan = DrawPlan(tuple((size, generator) for size in sizes))
            batches.append(engine.sample_path_batch(target, stop_set, plan.count, rng=plan))
        return PathBatch.concat(batches)

    arms = {"tail": cutoff, "no-tail": 0}
    best = dict.fromkeys(arms, float("inf"))
    try:
        batch, vectorized = walk(cutoff), walk(0)
        assert batch.node_indices.tobytes() == vectorized.node_indices.tobytes() and (
            batch.to_paths() == vectorized.to_paths()
        ), "the scalar tail diverged from the vectorized rounds"
        for _ in range(repeats):  # alternate the arms so host drift hits both
            for label, tail in arms.items():
                start = time.perf_counter()
                walk(tail)
                best[label] = min(best[label], time.perf_counter() - start)
    finally:
        engine_module.SCALAR_TAIL = cutoff
    steps = batch.total_nodes - len(batch)
    return {
        "steps_per_sec": round(steps / best["tail"], 1),
        "no_tail_steps_per_sec": round(steps / best["no-tail"], 1),
        "num_paths": len(batch),
        "walker_steps": steps,
        "scalar_tail": cutoff,
        "tail_speedup": round(best["no-tail"] / best["tail"], 2),
    }


# The transport benchmark's worker state: one columnar chunk, sampled once in
# the pool initializer so the timed region measures only the wire.
_TRANSPORT_BATCH = None
_TRANSPORT_PREFIX = None


def _transport_init(engine, target, stop_set, chunk_size, prefix):
    global _TRANSPORT_BATCH, _TRANSPORT_PREFIX
    _TRANSPORT_BATCH = engine.sample_path_batch(target, stop_set, chunk_size, rng=_SEED)
    _TRANSPORT_PREFIX = prefix


def _ship_pickled(_index):
    # Crosses the result pipe as pickled packed columns (the pre-shm wire).
    return _TRANSPORT_BATCH


def _ship_shared(_index):
    ref = publish_batch(_TRANSPORT_BATCH, prefix=_TRANSPORT_PREFIX)
    return ref if ref is not None else _TRANSPORT_BATCH


def _benchmark_transport(
    graph, target, stop_set, chunk_size=65_536, num_chunks=16, workers=4, repeats=3
):
    """Time the two chunk transports over a real fork pool; rows or ``None``.

    Workers re-ship their pre-sampled chunk per task; the parent adopts
    (shm) or receives (pickle) every chunk and reads its type-1 column, so
    both arms pay for actually consuming the shipped columns.  Chunks are
    large (64k paths, a few MB of columns) so the wire cost dominates the
    per-task pool overhead: below ~16k paths per chunk the per-segment
    syscalls (shm_open/mmap/unlink) eat the zero-copy margin and the two
    arms converge.
    """
    if not (fork_available() and shm_available()):
        return None
    engine = create_engine(graph, "numpy")
    context = multiprocessing.get_context("fork")
    rows = {}
    for label, ship in (("transport-pickle", _ship_pickled), ("transport-shm", _ship_shared)):
        pool = context.Pool(
            workers,
            initializer=_transport_init,
            initargs=(engine, target, stop_set, chunk_size, default_prefix()),
        )
        try:

            def round_trip(pool=pool, ship=ship):
                # chunksize=1 pins the task batching: Pool.map's heuristic
                # otherwise varies it with num_chunks, which swings the
                # pickle arm's pipe overlap (and so the measured ratio).
                received = [
                    adopt(chunk) if isinstance(chunk, ShmBatchRef) else chunk
                    for chunk in pool.map(ship, range(num_chunks), chunksize=1)
                ]
                return sum(batch.type1_count() for batch in received)

            round_trip()  # warm-up: forks the workers, samples their chunk
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                round_trip()
                best = min(best, time.perf_counter() - start)
        finally:
            pool.terminate()
            pool.join()
        sweep_orphans()
        rows[label] = {
            "paths_per_sec": round(chunk_size * num_chunks / best, 1),
            "num_paths": chunk_size,
            "chunks": num_chunks,
            "workers": workers,
        }
    rows["transport-shm"]["shm_transport_speedup"] = round(
        rows["transport-shm"]["paths_per_sec"] / rows["transport-pickle"]["paths_per_sec"], 2
    )
    return rows


def run_benchmark(num_paths: int = 30_000, num_nodes: int = 3000, transport_chunks: int = 16):
    """Time every backend and return the result rows."""
    graph, source, target = _benchmark_graph(num_nodes=num_nodes)
    stop_set = graph.neighbor_set(source)

    def run_dict(count):
        generator = random.Random(_SEED)
        hits = 0
        for _ in range(count):
            _, is_type1 = _legacy_dict_sample_target_path(graph, target, stop_set, generator)
            hits += is_type1
        return hits

    samplers = {"dict-seed": run_dict}
    for name in ENGINE_NAMES:
        if name == "auto":
            continue
        engine = create_engine(graph, name)

        def run_engine(count, engine=engine):
            paths = engine.sample_paths(target, stop_set, count, rng=_SEED)
            return sum(path.is_type1 for path in paths)

        samplers[name] = run_engine

    _assert_columnar_bit_identity(graph, target, stop_set)
    batch_engine = create_engine(graph, "numpy")

    def run_batch(count, engine=batch_engine):
        # Columnar end to end: the type-1 count comes off the is_type1
        # column; no TargetPath object is ever constructed.
        return engine.sample_path_batch(target, stop_set, count, rng=_SEED).type1_count()

    samplers["numpy-batch"] = run_batch

    _assert_alias_bit_identity(graph, target, stop_set)
    alias_engine = create_engine(graph, "numpy-alias")

    def run_alias(count, engine=alias_engine):
        return engine.sample_path_batch(target, stop_set, count, rng=_SEED).type1_count()

    samplers["alias-batch"] = run_alias

    results = {}
    baseline = None
    for label, sampler in samplers.items():
        rate, type1 = _time_sampler(label, sampler, num_paths)
        if label == "dict-seed":
            baseline = rate
        results[label] = {
            "paths_per_sec": round(rate, 1),
            "num_paths": num_paths,
            "type1_fraction": round(type1 / num_paths, 4),
            "speedup_vs_dict_seed": round(rate / baseline, 2) if baseline else None,
        }
    results["numpy-batch"]["columnar_speedup"] = round(
        results["numpy-batch"]["paths_per_sec"] / results["python"]["paths_per_sec"], 2
    )
    results["alias-batch"]["alias_speedup"] = round(
        results["alias-batch"]["paths_per_sec"] / results["numpy-batch"]["paths_per_sec"], 2
    )
    results["long-path"] = _benchmark_long_paths()
    results["fused-walk"] = _benchmark_fused_walk(graph, target, stop_set)
    results["lockstep-tail"] = _benchmark_lockstep_tail(graph, target, stop_set)
    transport = _benchmark_transport(graph, target, stop_set, num_chunks=transport_chunks)
    if transport is not None:
        results.update(transport)
    return {
        "benchmark": "engine_throughput",
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges, "model": "barabasi-albert"},
        "pair": {"source": source, "target": target},
        "num_paths": num_paths,
        "bit_identical": True,
        "results": results,
    }


def write_report(report: dict, path: Path = OUTPUT_PATH) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def test_engine_throughput():
    """Track engine throughput and guard the headline speedup.

    The compiled python engine must stay well ahead of the seed dict-based
    sampler; the committed BENCH_engine.json records the actual multiple
    (>= 3x on the synthetic benchmark graph at full size).
    """
    report = run_benchmark(num_paths=20_000, transport_chunks=8)
    write_report(report)
    print()
    print(json.dumps(report, indent=2))
    speedup = report["results"]["python"]["speedup_vs_dict_seed"]
    assert speedup >= 1.5, f"python engine only {speedup}x over the seed sampler"
    results = report["results"]
    # The engine-inversion guard: a vectorized backend that loses to the
    # stdlib-walk one must fail loudly, and the columnar path must deliver
    # a real multiple.
    python_row, numpy_row = results["python"], results["numpy"]
    assert numpy_row["speedup_vs_dict_seed"] >= python_row["speedup_vs_dict_seed"], (
        "numpy engine slower than the python engine"
    )
    assert numpy_row["speedup_vs_dict_seed"] >= 1.0, "numpy lost to the seed sampler"
    columnar = results["numpy-batch"]["columnar_speedup"]
    assert columnar >= 1.5, f"columnar kernel only {columnar}x over the python engine"
    # The O(1)-step guard, softer than the CI bench job's standalone gate
    # (1.5x at full benchmark size) to keep tier-1 runs unflaky.
    alias = results["alias-batch"]["alias_speedup"]
    assert alias >= 1.1, f"alias kernel only {alias}x over the searchsorted kernel"
    fused = results["fused-walk"]["fused_walk_speedup"]
    assert fused > 1.0, f"one fused walk only {fused}x over one call per batch"
    assert results["lockstep-tail"]["tail_speedup"] > 0
    if "transport-shm" in results:
        # The wire rows must post, carry their sizing metadata, and the
        # zero-copy arm must never lose outright to pickling; the absolute
        # multiple is gated by the CI bench job at full size.
        row = results["transport-shm"]
        assert row["workers"] == 4 and row["num_paths"] > 0 and row["chunks"] > 0
        assert row["shm_transport_speedup"] > 0
    # The engines must agree with the baseline on what they sample (the
    # transport rows re-ship one chunk and carry no type1_fraction).
    rates = [
        row["type1_fraction"] for row in report["results"].values() if "type1_fraction" in row
    ]
    assert max(rates) - min(rates) <= 0.05


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=OUTPUT_PATH,
                        help=f"where to write the JSON report (default: {OUTPUT_PATH})")
    parser.add_argument("--paths", type=int, default=30_000,
                        help="reverse-sampled paths per backend (default: 30000)")
    parser.add_argument("--nodes", type=int, default=3000,
                        help="benchmark graph size (default: 3000)")
    parser.add_argument("--min-columnar-speedup", type=float, default=None,
                        help="fail unless the columnar numpy kernel reaches this "
                             "multiple of the python engine's throughput")
    parser.add_argument("--min-alias-speedup", type=float, default=None,
                        help="fail unless the alias-mode columnar kernel reaches this "
                             "multiple of the searchsorted columnar kernel's throughput")
    parser.add_argument("--min-shm-speedup", type=float, default=None,
                        help="fail unless the shared-memory transport reaches this "
                             "multiple of the pickle transport's wire throughput")
    cli_args = parser.parse_args()
    report = run_benchmark(num_paths=cli_args.paths, num_nodes=cli_args.nodes)
    write_report(report, cli_args.output)
    print(json.dumps(report, indent=2))

    def gate(row_name, metric, minimum):
        if minimum is None:
            return
        row = report["results"].get(row_name)
        value = row.get(metric, 0.0) if row else 0.0
        if value < minimum:
            print(f"FAIL: {metric} {value}x below required {minimum}x", file=sys.stderr)
            sys.exit(1)

    gate("numpy-batch", "columnar_speedup", cli_args.min_columnar_speedup)
    gate("alias-batch", "alias_speedup", cli_args.min_alias_speedup)
    gate("transport-shm", "shm_transport_speedup", cli_args.min_shm_speedup)
