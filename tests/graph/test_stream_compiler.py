"""Tests for the streaming snapshot compiler (repro.graph.stream_compiler).

The compiler's contract is byte-identity: streaming an edge list straight
to disk must produce the very same snapshot -- every column file, the
digest, the meta -- as loading the file into a ``SocialGraph``, compiling
it and saving (the reference route), for every weight scheme.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphFormatError, SnapshotFormatError
from repro.graph.compiled import SNAPSHOT_COLUMNS, CompiledGraph, compile_graph
from repro.graph.io import read_snap_graph
from repro.graph.stream_compiler import (
    WEIGHT_SCHEMES,
    StreamCompileResult,
    compile_edge_list,
)
from repro.graph.weights import apply_degree_normalized_weights, apply_uniform_weights

SEED = 9091


def _write_edges(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def messy_edge_list(tmp_path):
    """An edge list with comments, blanks, self-loops and duplicates."""
    import random

    rng = random.Random(SEED)
    lines = ["# messy synthetic graph", ""]
    edges = set()
    while len(edges) < 150:
        edges.add((rng.randrange(40), rng.randrange(40)))
    for u, v in sorted(edges):
        lines.append(f"{u}\t{v}")
    lines.append("5 5")        # self-loop, skipped
    lines.append("1 2 extra")  # extra tokens ignored
    lines.append("2 1")        # duplicate (reversed), skipped
    return _write_edges(tmp_path / "messy.txt", lines)


def _reference_snapshot(edge_list, out_dir, weights, uniform_weight=0.1):
    """The in-memory route: read, weight, compile, save."""
    graph = read_snap_graph(edge_list)
    if weights == "degree":
        graph = apply_degree_normalized_weights(graph)
    else:
        graph = apply_uniform_weights(graph, weight=uniform_weight, normalize=True)
    return compile_graph(graph).save(out_dir, weights=weights)


class TestByteIdentity:
    @pytest.mark.parametrize("weights", WEIGHT_SCHEMES)
    def test_every_column_matches_inmemory_route(self, messy_edge_list, tmp_path, weights):
        streamed = compile_edge_list(
            messy_edge_list, tmp_path / "streamed", weights=weights
        )
        reference = _reference_snapshot(messy_edge_list, tmp_path / "reference", weights)
        for column in SNAPSHOT_COLUMNS:
            left = (streamed.directory / f"{column}.npy").read_bytes()
            right = (reference / f"{column}.npy").read_bytes()
            assert left == right, f"column {column} diverged from the in-memory route"
        assert streamed.digest == CompiledGraph.open(reference).csr_digest()

    def test_chunk_size_does_not_change_output(self, messy_edge_list, tmp_path):
        small = compile_edge_list(messy_edge_list, tmp_path / "small", chunk_edges=7)
        large = compile_edge_list(messy_edge_list, tmp_path / "large", chunk_edges=1 << 16)
        assert small.digest == large.digest
        for column in SNAPSHOT_COLUMNS:
            assert (small.directory / f"{column}.npy").read_bytes() == (
                large.directory / f"{column}.npy"
            ).read_bytes()

    def test_counts_and_result_fields(self, messy_edge_list, tmp_path):
        result = compile_edge_list(messy_edge_list, tmp_path / "snap")
        assert isinstance(result, StreamCompileResult)
        graph = apply_degree_normalized_weights(read_snap_graph(messy_edge_list))
        assert result.num_nodes == graph.num_nodes
        assert result.num_edges == graph.num_edges
        # The random pair stream produces natural self-loops/duplicates on
        # top of the ones planted explicitly.
        assert result.self_loops_skipped >= 1
        assert result.duplicates_skipped >= 1

    def test_sampling_matches_edge_list_route(self, messy_edge_list, tmp_path):
        from repro.diffusion.engine import create_engine

        result = compile_edge_list(messy_edge_list, tmp_path / "snap")
        mapped = CompiledGraph.open(result.directory)
        graph = apply_degree_normalized_weights(read_snap_graph(messy_edge_list))
        source, target = 0, max(graph.node_list())
        stop_set = graph.neighbor_set(source)
        assert create_engine(mapped, "python").sample_paths(
            target, stop_set, 200, rng=SEED
        ) == create_engine(graph, "python").sample_paths(target, stop_set, 200, rng=SEED)


class TestSources:
    def test_callable_source(self, tmp_path):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        result = compile_edge_list(lambda: iter(edges), tmp_path / "snap")
        assert result.num_nodes == 4 and result.num_edges == 5

    def test_chunked_array_source(self, tmp_path):
        def factory():
            u = np.arange(0, 30, dtype=np.int64)
            yield u, (u + 1) % 30

        result = compile_edge_list(factory, tmp_path / "snap", dedup=False)
        assert result.num_nodes == 30 and result.num_edges == 30

    def test_non_replayable_source_is_caught(self, tmp_path):
        calls = []

        def factory():
            calls.append(None)
            if len(calls) == 1:
                return iter([(0, 1), (1, 2), (2, 3)])
            return iter([(0, 1), (0, 3), (1, 3)])  # different second pass

        with pytest.raises((SnapshotFormatError, GraphFormatError)):
            compile_edge_list(factory, tmp_path / "snap")

    def test_empty_input(self, tmp_path):
        edge_list = _write_edges(tmp_path / "empty.txt", ["# nothing here"])
        result = compile_edge_list(edge_list, tmp_path / "snap")
        assert result.num_nodes == 0 and result.num_edges == 0
        mapped = CompiledGraph.open(result.directory)
        assert mapped.num_nodes == 0 and list(mapped.nodes) == []

    def test_no_dedup_counts_multiedges(self, tmp_path):
        edge_list = _write_edges(tmp_path / "dups.txt", ["0 1", "1 0", "1 2"])
        deduped = compile_edge_list(edge_list, tmp_path / "deduped")
        assert deduped.num_edges == 2 and deduped.duplicates_skipped == 1
        raw = compile_edge_list(edge_list, tmp_path / "raw", dedup=False)
        assert raw.num_edges == 3 and raw.duplicates_skipped == 0


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFormatError, match="no-such"):
            compile_edge_list(tmp_path / "no-such.txt", tmp_path / "snap")

    def test_short_line_names_position(self, tmp_path):
        edge_list = _write_edges(tmp_path / "bad.txt", ["0 1", "just-one-token"])
        with pytest.raises(GraphFormatError, match="line 2"):
            compile_edge_list(edge_list, tmp_path / "snap")

    def test_non_integer_ids_rejected(self, tmp_path):
        edge_list = _write_edges(tmp_path / "bad.txt", ["a b"])
        with pytest.raises(GraphFormatError):
            compile_edge_list(edge_list, tmp_path / "snap")

    def test_stale_meta_removed_before_compile(self, tmp_path, messy_edge_list):
        out_dir = tmp_path / "snap"
        compile_edge_list(messy_edge_list, out_dir)
        # A failed recompile must not leave the old meta claiming validity.
        bad = _write_edges(tmp_path / "bad.txt", ["0 1", "broken"])
        with pytest.raises(GraphFormatError):
            compile_edge_list(bad, out_dir)
        with pytest.raises(SnapshotFormatError):
            CompiledGraph.open(out_dir)

    def test_invalid_weight_scheme(self, tmp_path, messy_edge_list):
        with pytest.raises(ValueError, match="weight"):
            compile_edge_list(messy_edge_list, tmp_path / "snap", weights="exotic")
