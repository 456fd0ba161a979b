"""Benchmark inputs: the mapped small-world snapshot and seeded, screened pairs.

The snapshot is a ring lattice (each node linked to its ``RING_GAPS``
nearest ring neighbours on each side) plus one seeded chord per node:
a small world whose 3-hop pairs all look alike, so per-pair cost is
steady across seeds.  It is generated once per (generator version, n,
graph seed) into the cache directory and its CSR digest is re-verified
before every use.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

#: Bump when the generator changes: the cache key includes it.
GENERATOR = "ring-chords-v1"

#: Ring gaps of the lattice; with one chord per node, m = 6 n.
RING_GAPS = (1, 2, 3, 4, 5)

#: The graph seed is fixed: the run seed picks pairs and sampling seeds,
#: never the topology, so one cached snapshot serves every run.
GRAPH_SEED = 2019


def child_env() -> dict:
    """Environment for child Pythons: the checkout's ``src`` and this directory."""
    here = Path(__file__).resolve().parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}


def edge_stream(num_nodes: int, graph_seed: int = GRAPH_SEED):
    """A replayable chunked edge stream: ring gaps plus one seeded chord per node."""
    import numpy as np

    def factory():
        u = np.arange(num_nodes, dtype=np.int64)
        for gap in RING_GAPS:
            yield u, (u + gap) % num_nodes
        low = len(RING_GAPS) + 1
        chords = np.random.default_rng(graph_seed).integers(low, num_nodes - low, num_nodes)
        yield u, (u + chords) % num_nodes

    return factory


def snapshot_dir(cache: Path, num_nodes: int) -> Path:
    return cache / "snapshots" / f"{GENERATOR}-n{num_nodes}-s{GRAPH_SEED}"


def build_snapshot(directory: Path, num_nodes: int) -> dict:
    """Compile the generated graph into ``directory``; returns the compile record."""
    from repro.graph.stream_compiler import compile_edge_list

    result = compile_edge_list(
        edge_stream(num_nodes), directory, weights="degree",
        name=f"{GENERATOR}-{num_nodes}", dedup=True,
    )
    record = {"generator": GENERATOR, "num_nodes": result.num_nodes,
              "num_edges": result.num_edges, "digest": result.digest}
    (directory / "perfbench.json").write_text(json.dumps(record, sort_keys=True) + "\n")
    return record


def ensure_snapshot(cache: Path, num_nodes: int) -> Path:
    """The cached snapshot directory, compiled on first use, digest-verified.

    Compilation runs in a child process so its memory never counts toward
    the benchmark process's peak RSS.  Verification re-hashes the mapped
    columns against both ``meta.json`` and the digest recorded when this
    cache entry was built.
    """
    from repro.graph.compiled import CompiledGraph

    directory = snapshot_dir(cache, num_nodes)
    record_path = directory / "perfbench.json"
    if not record_path.exists():
        directory.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from pathlib import Path; import graphs; "
             "graphs.build_snapshot(Path(sys.argv[1]), int(sys.argv[2]))",
             str(directory), str(num_nodes)],
            check=True, timeout=600, env=child_env(),
        )
    record = json.loads(record_path.read_text())
    digest = CompiledGraph.open(directory, verify=True).csr_digest()
    if digest != record["digest"]:
        raise RuntimeError(f"cached snapshot {directory} digest {digest} != {record['digest']}")
    return directory


def hop_distances(graph, source, limit: int) -> dict:
    """BFS hop counts from ``source`` up to ``limit`` hops."""
    seen = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        depth = seen[node]
        if depth == limit:
            continue
        for friend in graph.neighbors(node):
            if friend not in seen:
                seen[friend] = depth + 1
                frontier.append(friend)
    return seen


#: Ring offsets of snapshot targets.  Three ring hops of gap at most five
#: reach offsets 11-15; offset 11 keeps pmax near 0.15-0.22 (15 drops it
#: to 0.07), while the many 3-hop targets reached through chords have pmax
#: near 0.01 and would make the stopping rule run 20x longer.
TARGET_OFFSETS = (11,)


def ring_candidate(graph, picker: random.Random) -> tuple:
    """A snapshot pair: a random source and a target a few ring hops away."""
    source = picker.randrange(graph.num_nodes)
    offset = picker.choice((-1, 1)) * picker.choice(TARGET_OFFSETS)
    return source, (source + offset) % graph.num_nodes


def hop_candidate(graph, picker: random.Random, hops: int) -> tuple:
    """A pair ``hops`` apart: a random source and a random node on its BFS ring."""
    source = picker.choice(graph.node_list())
    ring = [node for node, depth in hop_distances(graph, source, hops).items() if depth == hops]
    return source, picker.choice(sorted(ring)) if ring else source


def screened_pairs(graph, engine, count: int, seed, band: tuple, candidate, hops: int,
                   screen_samples: int = 1000) -> list:
    """``count`` seeded (source, target, screened pmax) triples ``hops`` apart in ``band``.

    ``candidate(graph, picker)`` proposes pairs from a seeded generator;
    each is kept only when it is exactly ``hops`` apart and the type-1 share
    of ``screen_samples`` reverse samples on ``engine`` falls inside
    ``band``, so per-op cost stays within a narrow range on every seed.
    """
    from repro.parallel.engine import sample_type1_indicators

    picker = random.Random(f"{seed}-pairs")
    pairs: list = []
    seen: set = set()
    for attempt in range(30 * count):
        source, target = candidate(graph, picker)
        if (source, target) in seen or hop_distances(graph, source, hops).get(target) != hops:
            continue
        seen.add((source, target))
        values = sample_type1_indicators(
            engine, target, graph.neighbor_set(source), screen_samples,
            rng=random.Random(f"{seed}-screen-{attempt}"),
        )
        pmax = sum(values) / len(values)
        if band[0] <= pmax <= band[1]:
            pairs.append((source, target, pmax))
            if len(pairs) == count:
                return pairs
    raise RuntimeError(f"only {len(pairs)} of {count} pairs fell in the pmax band {band}")
