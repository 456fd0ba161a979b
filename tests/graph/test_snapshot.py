"""Tests for the on-disk snapshot tier (DESIGN.md §8).

Covers the save/open round trip, the typed rejection paths (missing,
truncated, corrupted, wrong-version, digest-mismatched snapshots), the
memmap-vs-in-memory bit-identity contract on every engine, the parallel
worker reopen, cross-process open-after-save, and the CLI surface
(``repro compile-graph`` / ``--snapshot``).
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.diffusion.engine import ENGINE_NAMES, create_engine
from repro.exceptions import (
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotVersionError,
)
from repro.graph.compiled import (
    SNAPSHOT_COLUMNS,
    SNAPSHOT_VERSION,
    CompiledGraph,
    compile_graph,
    read_snapshot_meta,
)
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import apply_degree_normalized_weights
from repro.parallel import fork_available
from repro.parallel.engine import ParallelEngine
from repro.pool.sample_pool import _csr_digest

SEED = 4242


@pytest.fixture
def int_graph():
    """A small integer-id graph (snapshots require int node ids)."""
    return apply_degree_normalized_weights(
        barabasi_albert_graph(80, 3, rng=SEED, name="snap-ba")
    )


@pytest.fixture
def snapshot(int_graph, tmp_path):
    """``int_graph`` saved to a snapshot directory; yields (graph, path)."""
    path = compile_graph(int_graph).save(tmp_path / "snap", weights="degree")
    return int_graph, path


def _sample_pair(graph):
    nodes = list(graph.node_list())
    source = nodes[0]
    target = next(n for n in nodes[::-1] if n != source and not graph.has_edge(source, n))
    return source, target


class TestSaveOpen:
    def test_round_trip_identity(self, snapshot):
        graph, path = snapshot
        compiled = compile_graph(graph)
        mapped = CompiledGraph.open(path)
        assert mapped.is_mapped and not compiled.is_mapped
        assert mapped.snapshot_path == path
        assert mapped.num_nodes == graph.num_nodes
        assert mapped.num_edges == graph.num_edges
        assert mapped.name == graph.name
        assert mapped.csr_digest() == compiled.csr_digest()
        assert tuple(mapped.nodes) == tuple(compiled.nodes)

    def test_columns_byte_identical(self, snapshot):
        graph, path = snapshot
        compiled = compile_graph(graph)
        mapped = CompiledGraph.open(path)
        for column in ("indptr", "parents", "cum_weights", "totals"):
            assert bytes(getattr(compiled, column)) == getattr(mapped, column).tobytes()
        prob, index = compiled.alias_tables()
        mapped_prob, mapped_index = mapped.alias_tables()
        assert bytes(prob) == mapped_prob.tobytes()
        assert bytes(index) == mapped_index.tobytes()

    def test_unmapped_open_matches(self, snapshot):
        _, path = snapshot
        mapped = CompiledGraph.open(path, mmap=True)
        loaded = CompiledGraph.open(path, mmap=False)
        assert not loaded.is_mapped or loaded.snapshot_path == path
        assert loaded.csr_digest() == mapped.csr_digest()
        assert loaded.parents.tobytes() == mapped.parents.tobytes()

    def test_mapped_node_ids_are_python_ints(self, snapshot):
        _, path = snapshot
        mapped = CompiledGraph.open(path)
        assert type(mapped.nodes[0]) is int
        assert all(type(node) is int for node in mapped.nodes)
        assert all(type(node) is int for node in mapped.nodes[2:5])
        assert type(mapped.node_at(0)) is int
        assert all(type(node) is int for node in mapped.neighbors(mapped.nodes[0]))

    @pytest.mark.parametrize("backing", ["in-memory", "mapped", "loaded"])
    def test_neighbors_match_the_source_graph_in_order_and_type(self, snapshot, backing):
        graph, path = snapshot
        compiled = {
            "in-memory": lambda: compile_graph(graph),
            "mapped": lambda: CompiledGraph.open(path),
            "loaded": lambda: CompiledGraph.open(path, mmap=False),
        }[backing]()
        for node in graph.nodes():
            friends = list(compiled.neighbors(node))
            assert friends == list(graph.neighbors(node))
            assert all(type(friend) is int for friend in friends)
            assert compiled.neighbor_set(node) == graph.neighbor_set(node)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_columns_are_plain_ndarrays(self, snapshot, mmap):
        # Plain views, not np.memmap: a read skips memmap.__getitem__.  The
        # views must stay read-only, survive reopen() and pickling, and
        # still verify against the recorded digest.
        graph, path = snapshot
        opened = CompiledGraph.open(path, mmap=mmap)
        copies = [opened, pickle.loads(pickle.dumps(opened))]
        opened.reopen()
        for compiled in copies:
            prob, index = compiled.alias_tables()
            columns = [compiled.indptr, compiled.parents, compiled.cum_weights,
                       compiled.totals, compiled._nodes_column, prob, index]
            assert all(type(column) is np.ndarray for column in columns)
            assert compiled.verify_integrity() == compile_graph(graph).csr_digest()
            for node in graph.nodes():
                assert compiled.neighbor_set(node) == graph.neighbor_set(node)
        if mmap:
            assert isinstance(opened.parents.base, np.memmap)
            assert not opened.parents.flags.writeable

    def test_compat_surface_matches_source_graph(self, snapshot):
        graph, path = snapshot
        mapped = CompiledGraph.open(path)
        for node in graph.nodes():
            assert mapped.has_node(node)
            assert mapped.degree(node) == graph.degree(node)
            assert mapped.neighbor_set(node) == graph.neighbor_set(node)
            assert mapped.total_in_weight(node) == pytest.approx(
                graph.total_in_weight(node), abs=1e-12
            )
        assert mapped.is_normalized()
        u, v = next(iter(graph.edges()))
        assert mapped.has_edge(u, v) and mapped.has_edge(v, u)
        assert not mapped.has_node(10**9)

    def test_meta_fields(self, snapshot):
        graph, path = snapshot
        meta = read_snapshot_meta(path)
        assert meta["format_version"] == SNAPSHOT_VERSION
        assert meta["num_nodes"] == graph.num_nodes
        assert meta["num_edges"] == graph.num_edges
        assert meta["weights"] == "degree"
        assert meta["digest"] == compile_graph(graph).csr_digest()

    def test_verify_on_open(self, snapshot):
        _, path = snapshot
        mapped = CompiledGraph.open(path, verify=True)
        mapped.verify_integrity()

    def test_save_rejects_non_int_node_ids(self, tmp_path, triangle_graph):
        with pytest.raises(SnapshotFormatError, match="int"):
            compile_graph(triangle_graph).save(tmp_path / "bad")

    def test_reopen_detects_replaced_snapshot(self, snapshot, tmp_path):
        graph, path = snapshot
        mapped = CompiledGraph.open(path)
        other = apply_degree_normalized_weights(
            barabasi_albert_graph(60, 2, rng=SEED + 1, name="other")
        )
        compile_graph(other).save(path)
        with pytest.raises(SnapshotIntegrityError):
            mapped.reopen()


class TestRejection:
    """Every bad snapshot raises a typed repro error naming the culprit."""

    def test_missing_directory(self, tmp_path):
        missing = tmp_path / "nope"
        with pytest.raises(SnapshotError, match="nope"):
            CompiledGraph.open(missing)

    def test_missing_meta(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(SnapshotFormatError, match="meta.json"):
            CompiledGraph.open(tmp_path / "empty")

    def test_invalid_meta_json(self, snapshot):
        _, path = snapshot
        (path / "meta.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(SnapshotFormatError):
            CompiledGraph.open(path)

    def test_wrong_format_marker(self, snapshot):
        _, path = snapshot
        meta = json.loads((path / "meta.json").read_text())
        meta["format"] = "somebody-elses-format"
        (path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(SnapshotFormatError, match="format"):
            CompiledGraph.open(path)

    def test_version_bump_rejected(self, snapshot):
        _, path = snapshot
        meta = json.loads((path / "meta.json").read_text())
        meta["format_version"] = SNAPSHOT_VERSION + 1
        (path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(SnapshotVersionError, match=str(SNAPSHOT_VERSION + 1)):
            CompiledGraph.open(path)

    def test_missing_column(self, snapshot):
        _, path = snapshot
        (path / "parents.npy").unlink()
        with pytest.raises(SnapshotFormatError, match="parents"):
            CompiledGraph.open(path)

    def test_truncated_column(self, snapshot):
        _, path = snapshot
        column = path / "parents.npy"
        column.write_bytes(column.read_bytes()[:-64])
        with pytest.raises(SnapshotFormatError, match="parents"):
            CompiledGraph.open(path)

    def test_corrupted_column_header(self, snapshot):
        _, path = snapshot
        column = path / "cum_weights.npy"
        column.write_bytes(b"\x00" * 16 + column.read_bytes()[16:])
        with pytest.raises(SnapshotFormatError, match="cum_weights"):
            CompiledGraph.open(path)

    def test_wrong_dtype_column(self, snapshot):
        _, path = snapshot
        parents = np.load(path / "parents.npy")
        np.save(path / "parents.npy", parents.astype(np.int32))
        with pytest.raises(SnapshotFormatError, match="dtype"):
            CompiledGraph.open(path)

    def test_edge_count_mismatch(self, snapshot):
        _, path = snapshot
        meta = json.loads((path / "meta.json").read_text())
        meta["num_edges"] += 1
        (path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(SnapshotFormatError):
            CompiledGraph.open(path)

    def test_digest_mismatch_on_verify(self, snapshot):
        _, path = snapshot
        parents = np.load(path / "parents.npy")
        parents[0] = (parents[0] + 1) % max(2, parents.max() + 1)
        np.save(path / "parents.npy", parents)
        with pytest.raises(SnapshotIntegrityError, match="digest"):
            CompiledGraph.open(path, verify=True)

    def test_unverified_open_defers_digest_check(self, snapshot):
        # Opening without verify=True is O(1); the mutated column is only
        # caught when the digest is actually recomputed.
        _, path = snapshot
        cum = np.load(path / "cum_weights.npy")
        if cum.size:
            cum[-1] = cum[-1] * 0.5 + 0.1
        np.save(path / "cum_weights.npy", cum)
        mapped = CompiledGraph.open(path)
        with pytest.raises(SnapshotIntegrityError):
            mapped.verify_integrity()


class TestFlippedBytes:
    """One flipped byte in any column fails ``open(verify=True)`` with a typed error.

    The digest covers nodes, indptr, parents and cum_weights; ``totals`` is
    checked bit for bit, so any byte of those five may flip.  The alias
    columns are checked by range, by the self-alias rule and by per-edge
    mass within 1e-9, so a low-order mantissa flip of ``alias_prob``
    (a change near 1e-15) passes by design; their flips hit the most
    significant byte, the sign and high exponent of a float.
    """

    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory):
        graph = apply_degree_normalized_weights(
            barabasi_albert_graph(80, 3, rng=SEED, name="snap-ba")
        )
        return compile_graph(graph).save(tmp_path_factory.mktemp("pristine") / "snap")

    def test_pristine_snapshot_verifies(self, pristine):
        CompiledGraph.open(pristine, verify=True)

    @given(data=st.data())
    @settings(
        max_examples=30,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_one_flipped_byte_per_column_is_refused(self, pristine, data):
        for name in SNAPSHOT_COLUMNS:
            column = np.load(pristine / f"{name}.npy")
            entry = data.draw(st.integers(0, column.size - 1), label=f"{name} entry")
            derived = name in ("alias_prob", "alias_index")
            byte = 7 if derived else data.draw(st.integers(0, 7), label=f"{name} byte")
            mask = data.draw(st.integers(1, 255), label=f"{name} mask")
            column.view(np.uint8)[8 * entry + byte] ^= mask
            with tempfile.TemporaryDirectory() as scratch:
                copy = shutil.copytree(pristine, Path(scratch) / "snap")
                np.save(copy / f"{name}.npy", column)
                with pytest.raises(SnapshotError):
                    CompiledGraph.open(copy, verify=True)

    @pytest.mark.parametrize("name", ["totals", "alias_prob", "alias_index"])
    def test_flipped_derived_column_names_the_check(self, pristine, tmp_path, name):
        copy = shutil.copytree(pristine, tmp_path / "snap")
        column = np.load(copy / f"{name}.npy")
        column.view(np.uint8)[8 * (column.size // 2) + 7] ^= 0x40
        np.save(copy / f"{name}.npy", column)
        CompiledGraph.open(copy)  # the digest alone does not see it...
        with pytest.raises(SnapshotIntegrityError, match="totals|alias"):
            CompiledGraph.open(copy, verify=True)  # ...the derived checks do


class TestEngineBitIdentity:
    def test_every_engine_identical_mapped_vs_inmemory(self, snapshot):
        graph, path = snapshot
        mapped = CompiledGraph.open(path)
        source, target = _sample_pair(graph)
        stop_set = graph.neighbor_set(source)
        for name in ENGINE_NAMES:
            if name == "auto":
                continue
            reference = create_engine(graph, name).sample_paths(
                target, stop_set, 300, rng=SEED
            )
            sampled = create_engine(mapped, name).sample_paths(
                target, stop_set, 300, rng=SEED
            )
            assert sampled == reference, f"engine {name!r} diverged on the mapped snapshot"

    def test_batch_kernel_identical(self, snapshot):
        graph, path = snapshot
        mapped = CompiledGraph.open(path)
        source, target = _sample_pair(graph)
        stop_set = graph.neighbor_set(source)
        for name in ("python", "numpy", "numpy-alias"):
            reference = create_engine(graph, name).sample_path_batch(
                target, stop_set, 200, rng=SEED
            )
            batch = create_engine(mapped, name).sample_path_batch(
                target, stop_set, 200, rng=SEED
            )
            assert batch.to_paths() == reference.to_paths()
            assert batch.type1_bytes() == reference.type1_bytes()

    def test_pool_digest_binds_snapshot(self, snapshot):
        graph, path = snapshot
        mapped = CompiledGraph.open(path)
        assert _csr_digest(mapped) == _csr_digest(compile_graph(graph))
        assert _csr_digest(mapped) == read_snapshot_meta(path)["digest"]


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
class TestParallelReopen:
    def test_workers_reopen_mapped_snapshot(self, snapshot):
        graph, path = snapshot
        mapped = CompiledGraph.open(path)
        source, target = _sample_pair(graph)
        stop_set = graph.neighbor_set(source)
        # The invariant is workers=1 == workers=N on the same chunk layout;
        # the in-memory single-worker run is the reference stream.
        baseline = ParallelEngine(create_engine(graph, "python"), workers=1)
        parallel = ParallelEngine(create_engine(mapped, "python"), workers=2)
        try:
            reference = baseline.sample_paths(target, stop_set, 400, rng=SEED)
            sampled = parallel.sample_paths(target, stop_set, 400, rng=SEED)
        finally:
            baseline.close()
            parallel.close()
        assert sampled == reference


class TestCrossProcess:
    def test_open_after_save_in_fresh_process(self, snapshot):
        graph, path = snapshot
        expected = compile_graph(graph).csr_digest()
        script = (
            "import sys\n"
            "from repro.graph.compiled import CompiledGraph\n"
            "mapped = CompiledGraph.open(sys.argv[1], verify=True)\n"
            "print(mapped.csr_digest())\n"
            "print(mapped.num_nodes, mapped.num_edges)\n"
        )
        src_root = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src_root))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, env=env, check=True,
        )
        digest, counts = proc.stdout.strip().splitlines()
        assert digest == expected
        assert counts == f"{graph.num_nodes} {graph.num_edges}"


class TestCLI:
    def _edge_list(self, tmp_path):
        lines = [f"{i} {i + 1}" for i in range(11)] + ["3 7", "2 9", "0 5"]
        path = tmp_path / "edges.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_compile_graph_command(self, tmp_path, capsys):
        edge_list = self._edge_list(tmp_path)
        out_dir = tmp_path / "snap"
        assert main(["compile-graph", str(edge_list), str(out_dir)]) == 0
        output = capsys.readouterr().out
        assert "nodes" in output and "digest" in output
        meta = read_snapshot_meta(out_dir)
        assert meta["num_nodes"] == 12 and meta["num_edges"] == 14

    def test_raf_accepts_snapshot(self, tmp_path, capsys):
        edge_list = self._edge_list(tmp_path)
        out_dir = tmp_path / "snap"
        assert main(["compile-graph", str(edge_list), str(out_dir)]) == 0
        capsys.readouterr()
        code = main([
            "raf", "--snapshot", str(out_dir), "--source", "0", "--target", "4",
            "--realizations", "60", "--eval-samples", "30",
        ])
        assert code == 0
        assert "RAF invitation set" in capsys.readouterr().out

    def test_missing_snapshot_is_reported(self, tmp_path, capsys):
        code = main(["raf", "--snapshot", str(tmp_path / "missing"),
                     "--source", "0", "--target", "1"])
        assert code == 1
        assert "missing" in capsys.readouterr().err

    def test_compile_graph_missing_edge_list(self, tmp_path, capsys):
        code = main(["compile-graph", str(tmp_path / "no-such.txt"),
                     str(tmp_path / "snap")])
        assert code == 1
        assert "no-such.txt" in capsys.readouterr().err
